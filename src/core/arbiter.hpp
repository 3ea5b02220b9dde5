// HeadArbiter: the VC head's failover policy as a pure state machine. It
// decides every replica's mode (Active, Backup, Indicator, Dormant) from
// decoded heartbeats and fault reports, beacon ticks and its own deadlines,
// and answers each input with a Decision: the mode commands to send (with
// their epochs), the FailoverEvent to log and the deadlines it wants back.
// It holds no simulator, network or trace handle; EvmService is the
// plumbing that sends, schedules and records what it decides.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/messages.hpp"
#include "core/modes.hpp"
#include "util/time.hpp"

namespace evm::core {

/// Consecutive head beacons a member may miss before it starts a
/// succession.
inline constexpr std::uint32_t kBeaconLossThreshold = 5;

struct FailoverPolicy {
  /// Delay between demoting the suspect to Backup and parking it Dormant
  /// (the paper's T3 - T2 = 200 s).
  util::Duration dormant_delay = util::Duration::seconds(200);
  /// Promotion supervision: if a freshly promoted replica does not
  /// heartbeat in Active mode within this window, the head treats it as
  /// failed too and promotes the next backup (prevents a stall when the
  /// arbitration picks a node that died without ever being observed).
  util::Duration promotion_timeout = util::Duration::seconds(2);
  /// Head succession: the head broadcasts a liveness beacon at this period;
  /// members that miss kBeaconLossThreshold consecutive beacons elect a
  /// successor: the next member id above the silent head, wrapping to the
  /// lowest. A returning lower-id head reclaims the role.
  util::Duration head_beacon_period = util::Duration::seconds(1);
  /// Head-side backstop detector: when the Active replica of a function has
  /// not heartbeat in Active mode for this long, the head treats it as
  /// silently failed and re-arbitrates — even with no live Backup left to
  /// observe it (the passive-observation path needs one).
  util::Duration active_silence_timeout = util::Duration::seconds(5);

  /// Head silence after which members start a succession.
  util::Duration beacon_silence() const {
    return head_beacon_period * kBeaconLossThreshold;
  }
};

struct FailoverEvent {
  util::TimePoint when;
  FunctionId function = 0;
  net::NodeId demoted = net::kInvalidNode;
  net::NodeId promoted = net::kInvalidNode;
  FaultReason reason = FaultReason::kImplausibleOutput;
};

class HeadArbiter {
 public:
  struct ReplicaRecord {
    std::optional<ControllerMode> mode;  // nullopt: not in the role table
    std::optional<util::TimePoint> last_active_heartbeat;
    /// Rate limit: one stale-Active demote per beacon-silence window while
    /// the command is in transit.
    std::optional<util::TimePoint> last_stale_demote;
  };

  struct FunctionRecord {
    std::map<net::NodeId, ReplicaRecord> replicas;
    std::uint32_t epoch = 0;  // last command epoch issued or observed
    /// Epoch of the latest Active command: heartbeats claiming Active below
    /// it come from stale rejoiners.
    std::uint32_t promote_epoch = 0;
    /// Last evidence that some replica is in charge (heartbeat, promotion,
    /// service start).
    util::TimePoint active_seen;
  };

  struct ModeCommand {
    net::NodeId target = net::kInvalidNode;
    ControllerMode mode = ControllerMode::kDormant;
    std::uint32_t epoch = 0;
  };

  /// A deadline to hand back through on_deadline() `after` from now.
  struct Timer {
    enum class Kind : std::uint8_t {
      kDormant,    // park the demoted `node` Dormant if it is still Backup
      kPromotion,  // escalate unless `node` heartbeat Active since `set_at`
    };
    Kind kind = Kind::kDormant;
    net::NodeId node = net::kInvalidNode;
    util::TimePoint set_at;
    util::Duration after;
  };

  /// Why the arbiter acted; the head traces and logs by it.
  enum class Cause : std::uint8_t {
    kNone,
    kFaultReport,       // failover of `subject` on a Backup's report
    kSilentActive,      // failover of `subject`, silent for `silence`
    kPromotionTimeout,  // failover of `subject`, promoted but never Active
    kStaleActive,       // demote of `subject`, Active below the promote epoch
    kRejoinedBackup,    // promotion of `subject` while nobody is Active
    kNoActive,          // quiet promotion of `subject`, the lowest Backup
  };

  /// What one input made the arbiter decide about one function, in the
  /// order the head acts on it: commands, then timers.
  struct Decision {
    FunctionId function = 0;
    Cause cause = Cause::kNone;
    net::NodeId subject = net::kInvalidNode;
    util::Duration silence;  // kSilentActive only
    std::optional<FailoverEvent> failover;
    std::vector<ModeCommand> commands;
    std::vector<Timer> timers;
  };

  HeadArbiter(net::NodeId self, FailoverPolicy policy) : self_(self), policy_(policy) {}

  const FailoverPolicy& policy() const { return policy_; }
  const FunctionRecord* record(FunctionId function) const;
  ControllerMode mode(FunctionId function, net::NodeId node) const;
  std::optional<net::NodeId> active(FunctionId function) const;
  /// Best candidate to promote: highest-mode non-active replica, preferring
  /// Backup over Indicator over Dormant; ties by ascending node id.
  std::optional<net::NodeId> best_backup(FunctionId function,
                                         net::NodeId excluding) const;

  /// Service start: arbitrate `function` from now on. Inputs naming any
  /// other function are ignored.
  void start_function(FunctionId function, util::TimePoint now);
  /// Set one replica's role: the initial roles, this node's own mode
  /// changes, and migrations the head ran itself.
  void set_mode(FunctionId function, net::NodeId node, ControllerMode mode);
  /// Every heartbeat a member hears from another node: mirror the role
  /// table and epoch floor so that, as a successor head, it can resume.
  void mirror_heartbeat(const HeartbeatMsg& msg);
  /// Every heartbeat the head hears from another node: re-supervise the
  /// sender (demote a stale Active, re-admit or promote a rejoiner).
  Decision on_heartbeat(const HeartbeatMsg& msg, util::TimePoint now);
  /// A Backup's fault report: the first one naming the Active replica fails
  /// it over; a report naming anyone else was already handled.
  Decision on_fault_report(const FaultReportMsg& msg, util::TimePoint now);
  /// Head, once per beacon: fail over silent Actives, re-arbitrate
  /// functions with no Active replica.
  std::vector<Decision> on_beacon_tick(util::TimePoint now);
  Decision on_deadline(FunctionId function, const Timer& timer, util::TimePoint now);
  /// Resume above every epoch any replica acknowledged, with fresh silence
  /// clocks.
  void on_become_head(util::TimePoint now);
  /// Hand `function` to `target`, demoting the current Active (rebalance).
  Decision hand_over(FunctionId function, net::NodeId target);

 private:
  FunctionRecord* find(FunctionId function);
  void command(FunctionRecord& rec, net::NodeId target, ControllerMode mode,
               Decision& out);
  void promote(FunctionRecord& rec, net::NodeId node, bool record_event,
               util::TimePoint now, Decision& out);
  void fail_over(FunctionRecord& rec, net::NodeId suspect, FaultReason reason,
                 util::TimePoint now, Decision& out);

  net::NodeId self_;
  FailoverPolicy policy_;
  std::map<FunctionId, FunctionRecord> records_;
};

}  // namespace evm::core
