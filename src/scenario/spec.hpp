// Declarative scenario specification. A scenario is a JSON document that
// describes one experiment on the gas-plant testbed: testbed knobs, the
// plant variables to trace, and a timed fault schedule (node crash/restart,
// link up/down/degrade, Gilbert-Elliott burst loss, clock-drift steps,
// traffic bursts) — the paper's "dramatic topology changes" (§4) as data
// instead of hand-coded C++. The runner compiles a spec onto the existing
// sim::Simulator + net::TopologyScript + core runtime; the campaign engine
// fans one spec across many seeds.
#pragma once

#include <string>
#include <vector>

#include "net/link_dynamics.hpp"
#include "net/packet.hpp"
#include "testbed/testbed_builder.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace evm::scenario {

enum class EventKind {
  kPrimaryFault,       // Ctrl-A keeps running but emits `value` (Fig. 6b)
  kClearPrimaryFault,
  kNodeCrash,          // crash-stop: radio silent, tasks stopped
  kNodeRestart,
  kLinkDown,
  kLinkUp,
  kLinkOutage,         // down at `at_s`, back up `duration_s` later
  kLinkLoss,           // set i.i.d. per-frame loss to `value`
  kBurstLoss,          // install a Gilbert-Elliott chain on the link
  kClearBurstLoss,
  kClockDrift,         // step a node's crystal drift to `value` ppm
  kTrafficBurst,       // `count` extra sensor publishes every `interval_ms`
};

const char* to_string(EventKind kind);

/// One entry of the fault schedule. Which fields are meaningful depends on
/// the kind; parsing rejects specs that omit a required field.
struct FaultEvent {
  double at_s = 0.0;
  EventKind kind = EventKind::kPrimaryFault;
  net::NodeId node = net::kInvalidNode;  // node / drift / traffic events
  net::NodeId a = net::kInvalidNode;     // link events
  net::NodeId b = net::kInvalidNode;
  double value = 0.0;        // fault output / loss probability / drift ppm
  double duration_s = 0.0;   // link_outage
  net::GilbertElliottParams burst;  // burst_loss
  int count = 0;             // traffic_burst publishes
  double interval_ms = 0.0;  // traffic_burst spacing
};

/// Deterministic random churn: link outages drawn from the run seed, so a
/// multi-seed campaign explores distinct-but-reproducible outage patterns
/// (the data-driven version of bench_churn's hand-rolled loop).
struct ChurnSpec {
  bool enabled = false;
  double outages_per_minute = 0.0;
  double outage_s = 4.0;
  double start_s = 10.0;       // keep the startup transient undisturbed
  double end_margin_s = 10.0;  // leave the tail for recovery
  std::uint64_t rng_salt = 0x5eed;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  double horizon_s = 120.0;
  /// Testbed knobs; the per-run seed overrides `testbed.seed`. The optional
  /// "topology" section of the JSON document lands in `testbed.topology`,
  /// which otherwise keeps the default Fig. 5 six-node testbed.
  testbed::GasPlantTestbedConfig testbed;
  /// Plant variables traced once per record period (series named after the
  /// variable). The LTS level is always traced for the plant-error metrics.
  std::vector<std::string> record;
  /// Fault schedule, applied in file order (simultaneous events keep it).
  std::vector<FaultEvent> events;
  ChurnSpec churn;

  /// Earliest scheduled fault (primary_fault or node_crash); -1 when the
  /// scenario injects none. Failover latency is measured from here.
  double first_fault_s() const;

  /// The world this scenario runs in (`testbed.topology`). Everything that
  /// needs the role table (event parsing, the invariant monitor's VC
  /// membership) reads this.
  const testbed::TopologySpec& topology() const { return testbed.topology; }

  /// Cross-field checks that must hold for the spec to be runnable; today
  /// that is "every fault event fires within the horizon". from_json calls
  /// this, and ScenarioRunner re-checks it so specs assembled or re-timed
  /// programmatically (e.g. a CLI horizon override) cannot silently drop
  /// scheduled events.
  util::Status validate() const;

  static util::Result<ScenarioSpec> from_json(const util::Json& json);
  static util::Result<ScenarioSpec> load_file(const std::string& path);
  /// Re-serialize (echoed into campaign reports for provenance).
  util::Json to_json() const;

  /// Deterministic content hash of the canonical serialization (16 hex
  /// chars): two specs hash equal iff their to_json() documents are
  /// byte-identical, independent of file name or formatting. Campaign
  /// reports surface it as "spec_hash", which groups reports of one spec and
  /// which merge_campaign_reports checks against each report's spec echo.
  std::string content_hash() const;
};

}  // namespace evm::scenario
