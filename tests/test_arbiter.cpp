#include <gtest/gtest.h>

#include "core/arbiter.hpp"

namespace evm::core {
namespace {

using Cause = HeadArbiter::Cause;
using Kind = HeadArbiter::Timer::Kind;
using util::Duration;
using util::TimePoint;

constexpr FunctionId kLoop = 1;
constexpr net::NodeId kHead = 1;

TimePoint at(double seconds) { return TimePoint::zero() + Duration::from_seconds(seconds); }

FailoverPolicy test_policy() {
  FailoverPolicy policy;
  policy.dormant_delay = Duration::seconds(30);
  policy.promotion_timeout = Duration::seconds(4);
  policy.head_beacon_period = Duration::seconds(1);
  policy.active_silence_timeout = Duration::seconds(10);
  return policy;
}

/// Head 1 arbitrating kLoop with Active 2 and Backups 3, 4, started at 0 s.
HeadArbiter started_head(FailoverPolicy policy = test_policy()) {
  HeadArbiter arbiter(kHead, policy);
  arbiter.start_function(kLoop, at(0));
  arbiter.set_mode(kLoop, 2, ControllerMode::kActive);
  arbiter.set_mode(kLoop, 3, ControllerMode::kBackup);
  arbiter.set_mode(kLoop, 4, ControllerMode::kBackup);
  return arbiter;
}

HeartbeatMsg heartbeat(net::NodeId node, ControllerMode mode, std::uint32_t epoch) {
  HeartbeatMsg msg;
  msg.function = kLoop;
  msg.node = node;
  msg.mode = mode;
  msg.epoch = epoch;
  return msg;
}

FaultReportMsg report(net::NodeId suspect, net::NodeId reporter) {
  FaultReportMsg msg;
  msg.function = kLoop;
  msg.suspect = suspect;
  msg.reporter = reporter;
  msg.reason = FaultReason::kImplausibleOutput;
  return msg;
}

void expect_command(const HeadArbiter::ModeCommand& c, net::NodeId target,
                    ControllerMode mode, std::uint32_t epoch) {
  EXPECT_EQ(c.target, target);
  EXPECT_EQ(c.mode, mode);
  EXPECT_EQ(c.epoch, epoch);
}

// --- The role table ---------------------------------------------------------

TEST(HeadArbiter, ModesAndActive) {
  HeadArbiter arbiter(kHead, {});
  arbiter.start_function(kLoop, at(0));
  EXPECT_EQ(arbiter.mode(kLoop, 3), ControllerMode::kDormant);
  arbiter.set_mode(kLoop, 3, ControllerMode::kActive);
  arbiter.set_mode(kLoop, 4, ControllerMode::kBackup);
  EXPECT_EQ(arbiter.active(kLoop), 3);
  EXPECT_EQ(arbiter.mode(kLoop, 4), ControllerMode::kBackup);
  EXPECT_FALSE(arbiter.active(2).has_value());
}

TEST(HeadArbiter, BestBackupPrefersWarmState) {
  HeadArbiter arbiter(kHead, {});
  arbiter.start_function(kLoop, at(0));
  arbiter.set_mode(kLoop, 3, ControllerMode::kActive);
  arbiter.set_mode(kLoop, 4, ControllerMode::kIndicator);
  arbiter.set_mode(kLoop, 5, ControllerMode::kBackup);
  arbiter.set_mode(kLoop, 6, ControllerMode::kDormant);
  EXPECT_EQ(arbiter.best_backup(kLoop, 3), 5);  // Backup beats Indicator
  arbiter.set_mode(kLoop, 5, ControllerMode::kDormant);
  EXPECT_EQ(arbiter.best_backup(kLoop, 3), 4);  // Indicator beats Dormant
  arbiter.set_mode(kLoop, 4, ControllerMode::kDormant);
  EXPECT_EQ(arbiter.best_backup(kLoop, 3), 4);  // Dormant: lowest id among 4, 5, 6
}

TEST(HeadArbiter, BestBackupExcludesSuspectAndActive) {
  HeadArbiter arbiter(kHead, {});
  arbiter.start_function(kLoop, at(0));
  arbiter.set_mode(kLoop, 3, ControllerMode::kActive);
  arbiter.set_mode(kLoop, 4, ControllerMode::kBackup);
  EXPECT_EQ(arbiter.best_backup(kLoop, 4), std::nullopt);  // only candidate excluded
}

TEST(HeadArbiter, EpochsAreMonotonePerFunction) {
  HeadArbiter arbiter(kHead, {});
  arbiter.start_function(1, at(0));
  arbiter.start_function(2, at(0));
  EXPECT_EQ(arbiter.record(1)->epoch, 0u);
  const auto first = arbiter.hand_over(1, 3);
  ASSERT_EQ(first.commands.size(), 1u);  // nobody to demote yet
  expect_command(first.commands[0], 3, ControllerMode::kActive, 1);
  const auto second = arbiter.hand_over(1, 4);
  ASSERT_EQ(second.commands.size(), 2u);
  expect_command(second.commands[0], 4, ControllerMode::kActive, 2);
  expect_command(second.commands[1], 3, ControllerMode::kBackup, 3);
  EXPECT_EQ(arbiter.hand_over(2, 3).commands[0].epoch, 1u);  // independent counter
  EXPECT_EQ(arbiter.record(1)->epoch, 3u);
  EXPECT_EQ(arbiter.record(1)->promote_epoch, 2u);
}

TEST(HeadArbiter, RecordsOnlyStartedFunctions) {
  HeadArbiter arbiter = started_head();
  EXPECT_EQ(arbiter.record(kLoop)->replicas.size(), 3u);
  EXPECT_EQ(arbiter.record(9), nullptr);
  arbiter.set_mode(9, 3, ControllerMode::kActive);  // ignored: never started
  EXPECT_EQ(arbiter.record(9), nullptr);
  FaultReportMsg unknown = report(2, 3);
  unknown.function = 9;
  EXPECT_TRUE(arbiter.on_fault_report(unknown, at(1)).commands.empty());
}

// --- Failover policy --------------------------------------------------------

TEST(HeadArbiter, FaultReportFailsOverToBestBackup) {
  HeadArbiter arbiter = started_head();
  const auto d = arbiter.on_fault_report(report(2, 3), at(10));
  EXPECT_EQ(d.cause, Cause::kFaultReport);
  EXPECT_EQ(d.subject, 2);
  ASSERT_TRUE(d.failover.has_value());
  EXPECT_EQ(d.failover->when, at(10));
  EXPECT_EQ(d.failover->demoted, 2);
  EXPECT_EQ(d.failover->promoted, 3);
  EXPECT_EQ(d.failover->reason, FaultReason::kImplausibleOutput);
  ASSERT_EQ(d.commands.size(), 2u);
  expect_command(d.commands[0], 3, ControllerMode::kActive, 1);
  expect_command(d.commands[1], 2, ControllerMode::kBackup, 2);
  ASSERT_EQ(d.timers.size(), 2u);
  EXPECT_EQ(d.timers[0].kind, Kind::kDormant);
  EXPECT_EQ(d.timers[0].node, 2);
  EXPECT_EQ(d.timers[0].after, Duration::seconds(30));
  EXPECT_EQ(d.timers[1].kind, Kind::kPromotion);
  EXPECT_EQ(d.timers[1].node, 3);
  EXPECT_EQ(d.timers[1].after, Duration::seconds(4));
  EXPECT_EQ(arbiter.active(kLoop), 3);
  // A late report on the demoted replica changes nothing.
  const auto late = arbiter.on_fault_report(report(2, 4), at(11));
  EXPECT_EQ(late.cause, Cause::kNone);
  EXPECT_TRUE(late.commands.empty());
}

TEST(HeadArbiter, NoBackupDegradesToIndicator) {
  HeadArbiter arbiter(kHead, test_policy());
  arbiter.start_function(kLoop, at(0));
  arbiter.set_mode(kLoop, 2, ControllerMode::kActive);
  const auto d = arbiter.on_fault_report(report(2, 3), at(5));
  ASSERT_TRUE(d.failover.has_value());
  EXPECT_EQ(d.failover->promoted, net::kInvalidNode);
  ASSERT_EQ(d.commands.size(), 1u);
  expect_command(d.commands[0], 2, ControllerMode::kIndicator, 1);
  EXPECT_TRUE(d.timers.empty());
  EXPECT_FALSE(arbiter.active(kLoop).has_value());
}

TEST(HeadArbiter, StaleActiveDemoteIsRateLimitedPerSilenceWindow) {
  HeadArbiter arbiter = started_head();
  ASSERT_TRUE(arbiter.on_fault_report(report(2, 3), at(10)).failover.has_value());
  // Node 2 never got its demote and keeps heartbeating Active at epoch 0,
  // below the promote epoch (1): one demote per 5 s silence window.
  const auto first = arbiter.on_heartbeat(heartbeat(2, ControllerMode::kActive, 0), at(11));
  EXPECT_EQ(first.cause, Cause::kStaleActive);
  ASSERT_EQ(first.commands.size(), 1u);
  expect_command(first.commands[0], 2, ControllerMode::kBackup, 3);
  for (double t : {12.0, 14.0, 16.0}) {
    const auto quiet = arbiter.on_heartbeat(heartbeat(2, ControllerMode::kActive, 0), at(t));
    EXPECT_TRUE(quiet.commands.empty()) << "t=" << t;
  }
  EXPECT_EQ(arbiter.active(kLoop), 3);
  EXPECT_EQ(arbiter.mode(kLoop, 2), ControllerMode::kBackup);
  const auto again = arbiter.on_heartbeat(heartbeat(2, ControllerMode::kActive, 0), at(16.5));
  ASSERT_EQ(again.commands.size(), 1u);
  EXPECT_EQ(again.commands[0].epoch, 4u);
}

TEST(HeadArbiter, ActiveClaimAtOrAbovePromoteEpochIsAdopted) {
  HeadArbiter arbiter = started_head();
  // A direct migration moved the Active to 4 without the head: its claim
  // carries an epoch at the floor, so the table follows it.
  const auto d = arbiter.on_heartbeat(heartbeat(4, ControllerMode::kActive, 0), at(3));
  EXPECT_TRUE(d.commands.empty());
  EXPECT_EQ(arbiter.active(kLoop), 4);
  EXPECT_EQ(arbiter.mode(kLoop, 2), ControllerMode::kBackup);
  EXPECT_EQ(arbiter.record(kLoop)->active_seen, at(3));
}

TEST(HeadArbiter, PromotionDeadlineEscalatesWhenPromoteeStaysSilent) {
  HeadArbiter arbiter = started_head();
  const auto failover = arbiter.on_fault_report(report(2, 3), at(10));
  const auto d = arbiter.on_deadline(kLoop, failover.timers[1], at(14));
  EXPECT_EQ(d.cause, Cause::kPromotionTimeout);
  EXPECT_EQ(d.subject, 3);
  ASSERT_TRUE(d.failover.has_value());
  EXPECT_EQ(d.failover->reason, FaultReason::kSilent);
  EXPECT_EQ(d.failover->promoted, 2);  // the lowest-id Backup
  ASSERT_EQ(d.commands.size(), 2u);
  expect_command(d.commands[0], 2, ControllerMode::kActive, 3);
  expect_command(d.commands[1], 3, ControllerMode::kBackup, 4);
  // The silent promotee is written off until a heartbeat re-admits it.
  EXPECT_EQ(arbiter.mode(kLoop, 3), ControllerMode::kDormant);
}

TEST(HeadArbiter, PromotionDeadlineSatisfiedByActiveHeartbeat) {
  HeadArbiter arbiter = started_head();
  const auto failover = arbiter.on_fault_report(report(2, 3), at(10));
  (void)arbiter.on_heartbeat(heartbeat(3, ControllerMode::kActive, 1), at(12));
  const auto d = arbiter.on_deadline(kLoop, failover.timers[1], at(14));
  EXPECT_EQ(d.cause, Cause::kNone);
  EXPECT_TRUE(d.commands.empty());
  EXPECT_EQ(arbiter.active(kLoop), 3);
}

TEST(HeadArbiter, DormantDeadlineParksOnlyAStillBackupReplica) {
  HeadArbiter arbiter = started_head();
  const auto failover = arbiter.on_fault_report(report(2, 3), at(10));
  const auto parked = arbiter.on_deadline(kLoop, failover.timers[0], at(40));
  ASSERT_EQ(parked.commands.size(), 1u);
  expect_command(parked.commands[0], 2, ControllerMode::kDormant, 3);
  // Once re-promoted, the demoted replica is no longer parked.
  (void)arbiter.hand_over(kLoop, 2);
  EXPECT_TRUE(arbiter.on_deadline(kLoop, failover.timers[0], at(41)).commands.empty());
}

TEST(HeadArbiter, BeaconTickFailsOverASilentActive) {
  HeadArbiter arbiter = started_head();
  EXPECT_TRUE(arbiter.on_beacon_tick(at(10)).empty());  // exactly at the timeout
  const auto decisions = arbiter.on_beacon_tick(at(11));
  ASSERT_EQ(decisions.size(), 1u);
  const auto& d = decisions[0];
  EXPECT_EQ(d.cause, Cause::kSilentActive);
  EXPECT_EQ(d.subject, 2);
  EXPECT_EQ(d.silence, Duration::seconds(11));
  ASSERT_TRUE(d.failover.has_value());
  EXPECT_EQ(d.failover->promoted, 3);
  EXPECT_TRUE(arbiter.on_beacon_tick(at(12)).empty());  // clock re-armed
}

TEST(HeadArbiter, BeaconTickQuietlyPromotesTheLowestBackup) {
  HeadArbiter arbiter(kHead, test_policy());
  arbiter.start_function(kLoop, at(0));
  arbiter.set_mode(kLoop, 4, ControllerMode::kBackup);
  arbiter.set_mode(kLoop, 3, ControllerMode::kBackup);
  arbiter.set_mode(kLoop, 2, ControllerMode::kIndicator);
  const auto decisions = arbiter.on_beacon_tick(at(1));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].cause, Cause::kNoActive);
  EXPECT_FALSE(decisions[0].failover.has_value());  // quiet: not a failover
  ASSERT_EQ(decisions[0].commands.size(), 1u);
  expect_command(decisions[0].commands[0], 3, ControllerMode::kActive, 1);
  ASSERT_EQ(decisions[0].timers.size(), 1u);
  EXPECT_EQ(decisions[0].timers[0].kind, Kind::kPromotion);
}

TEST(HeadArbiter, RejoinedBackupIsPromotedWhenNobodyIsActive) {
  HeadArbiter arbiter(kHead, test_policy());
  arbiter.start_function(kLoop, at(0));
  arbiter.set_mode(kLoop, 2, ControllerMode::kDormant);
  const auto d = arbiter.on_heartbeat(heartbeat(2, ControllerMode::kBackup, 0), at(5));
  EXPECT_EQ(d.cause, Cause::kRejoinedBackup);
  ASSERT_TRUE(d.failover.has_value());
  EXPECT_EQ(d.failover->demoted, net::kInvalidNode);
  EXPECT_EQ(d.failover->promoted, 2);
  EXPECT_EQ(arbiter.active(kLoop), 2);
}

TEST(HeadArbiter, MembersMirrorHeartbeatsAsASingleActiveTable) {
  HeadArbiter arbiter(3, test_policy());
  arbiter.start_function(kLoop, at(0));
  arbiter.mirror_heartbeat(heartbeat(2, ControllerMode::kActive, 4));
  arbiter.mirror_heartbeat(heartbeat(4, ControllerMode::kActive, 7));
  EXPECT_EQ(arbiter.active(kLoop), 4);
  EXPECT_EQ(arbiter.mode(kLoop, 2), ControllerMode::kBackup);
  EXPECT_EQ(arbiter.record(kLoop)->epoch, 7u);
}

TEST(HeadArbiter, NewHeadResumesAboveObservedEpochs) {
  HeadArbiter arbiter(3, test_policy());
  arbiter.start_function(kLoop, at(0));
  arbiter.mirror_heartbeat(heartbeat(4, ControllerMode::kActive, 7));
  arbiter.on_become_head(at(20));
  EXPECT_EQ(arbiter.record(kLoop)->promote_epoch, 107u);
  EXPECT_EQ(arbiter.record(kLoop)->active_seen, at(20));
  // A rejoiner claiming Active at a pre-succession epoch is now stale.
  const auto d = arbiter.on_heartbeat(heartbeat(2, ControllerMode::kActive, 7), at(21));
  EXPECT_EQ(d.cause, Cause::kStaleActive);
  ASSERT_EQ(d.commands.size(), 1u);
  EXPECT_EQ(d.commands[0].epoch, 108u);
}

}  // namespace
}  // namespace evm::core
