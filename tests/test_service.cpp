#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "core/control_programs.hpp"
#include "core/service.hpp"
#include "net/dissemination.hpp"
#include "vm/assembler.hpp"

namespace evm::core {
namespace {

// Mini virtual component, no plant: head/gateway = 1, controllers 2, 3, 4.
// One function (passthrough on stream 0 -> channel 0), 100 ms cycles, fast
// evidence thresholds so failover fits in seconds of virtual time.
struct ServiceFixture : ::testing::Test {
  sim::Simulator sim{31};
  net::Topology topo = net::Topology::full_mesh({1, 2, 3, 4});
  net::Medium medium{sim, topo};
  net::RtLinkSchedule schedule{8, util::Duration::millis(5)};
  net::TimeSync sync{sim, {}};
  VcDescriptor vc;
  std::map<net::NodeId, std::unique_ptr<Node>> nodes;
  std::map<net::NodeId, std::unique_ptr<EvmService>> services;

  static constexpr FunctionId kLoop = 1;

  ServiceFixture() {
    vc.id = 1;
    vc.head = 1;
    vc.members = {1, 2, 3, 4};
    ControlFunction fn;
    fn.id = kLoop;
    fn.name = "loop";
    fn.sensor_stream = 0;
    fn.actuator_channel = 0;
    fn.task.name = "loop";
    fn.task.period = util::Duration::millis(100);
    fn.task.wcet = util::Duration::millis(2);
    fn.task.priority = 8;
    fn.output_min = 0.0;
    fn.output_max = 100.0;
    fn.deviation_threshold = 5.0;
    fn.evidence_threshold = 4;
    fn.silence_threshold = 4;
    fn.algorithm = *make_passthrough(1, 0, 0);
    vc.functions[kLoop] = fn;
    vc.replicas[kLoop] = {2, 3};

    int slot = 0;
    for (net::NodeId id : {1, 2, 3, 4}) {
      schedule.assign_tx(slot++, id);
      NodeConfig config;
      config.id = id;
      nodes[id] = std::make_unique<Node>(sim, medium, schedule, sync, config);
    }
    schedule.assign_tx(slot++, 1);  // extra head slot
  }

  void start(FailoverPolicy policy = {util::Duration::seconds(2)}) {
    for (net::NodeId id : {1, 2, 3, 4}) {
      services[id] = std::make_unique<EvmService>(*nodes[id], vc, policy);
      ASSERT_TRUE(services[id]->start());
    }
    sync.start();
    // The head publishes a constant "sensor" value every cycle.
    rtos::TaskParams pub;
    pub.name = "pub";
    pub.period = util::Duration::millis(100);
    pub.wcet = util::Duration::micros(100);
    pub.priority = 2;
    auto id = nodes[1]->kernel().admit_task(
        pub, [this] { services[1]->publish_sensor(0, 42.0); });
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(nodes[1]->kernel().start_task(*id));
  }

  void run_for(util::Duration d) { sim.run_until(sim.now() + d); }
};

TEST_F(ServiceFixture, InitialModesFollowDescriptor) {
  start();
  run_for(util::Duration::millis(500));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kActive);
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kBackup);
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kDormant);
}

TEST_F(ServiceFixture, DataPlaneDistributesStream) {
  start();
  run_for(util::Duration::seconds(2));
  for (net::NodeId id : {2, 3}) {
    EXPECT_TRUE(services[id]->has_stream(0)) << "node " << id;
    EXPECT_DOUBLE_EQ(services[id]->stream_value(0), 42.0);
  }
}

TEST_F(ServiceFixture, ActiveControlsAndBackupShadows) {
  start();
  run_for(util::Duration::seconds(2));
  // Passthrough: output = sensor = 42 on both; only the Active actuates.
  EXPECT_NEAR(services[2]->last_output(kLoop), 42.0, 1e-9);
  EXPECT_NEAR(services[3]->last_output(kLoop), 42.0, 1e-9);
  EXPECT_GT(services[2]->cycles_run(kLoop), 10u);
  EXPECT_GT(services[3]->cycles_run(kLoop), 10u);
}

TEST_F(ServiceFixture, OutputFaultTriggersFailover) {
  // Long dormant delay so the demoted node is still observable as Backup.
  start({util::Duration::seconds(60)});
  run_for(util::Duration::seconds(1));
  services[2]->inject_output_fault(kLoop, 90.0);
  run_for(util::Duration::seconds(3));

  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kBackup);
  ASSERT_EQ(services[1]->failovers().size(), 1u);
  const auto& event = services[1]->failovers()[0];
  EXPECT_EQ(event.demoted, 2);
  EXPECT_EQ(event.promoted, 3);
  EXPECT_EQ(event.reason, FaultReason::kImplausibleOutput);
  EXPECT_GE(services[3]->fault_reports_sent(), 1u);
}

TEST_F(ServiceFixture, DemotedPrimaryParksDormantAfterDelay) {
  start({util::Duration::seconds(2)});
  run_for(util::Duration::seconds(1));
  services[2]->inject_output_fault(kLoop, 90.0);
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kBackup);
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kDormant);
}

TEST_F(ServiceFixture, RecoveredPrimaryStaysBackupNotDormant) {
  // If the fault clears while demoted, the replica keeps shadowing and the
  // head's dormant timer must NOT park a now-healthy Backup... policy here:
  // the timer parks it regardless (paper behaviour: Ctrl-A -> Dormant at
  // T3). Verify exactly that documented behaviour.
  start({util::Duration::seconds(2)});
  run_for(util::Duration::seconds(1));
  services[2]->inject_output_fault(kLoop, 90.0);
  run_for(util::Duration::seconds(2));
  services[2]->clear_output_fault(kLoop);
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kDormant);
}

TEST_F(ServiceFixture, CrashSilenceTriggersFailover) {
  start();
  run_for(util::Duration::seconds(1));
  nodes[2]->fail();  // crash-stop: heartbeats cease
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);
  ASSERT_GE(services[1]->failovers().size(), 1u);
  EXPECT_EQ(services[1]->failovers()[0].reason, FaultReason::kSilent);
}

TEST_F(ServiceFixture, NoBackupDegradesToIndicator) {
  vc.replicas[kLoop] = {2};  // no backup exists
  start();
  run_for(util::Duration::seconds(1));
  services[2]->inject_output_fault(kLoop, 90.0);
  // The head itself never observes (it is not a Backup replica), so the
  // fault is only caught if some replica shadows. With a single replica the
  // loop keeps running wrong — the paper's motivation for replica sets.
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kActive);
  EXPECT_TRUE(services[1]->failovers().empty());
}

TEST_F(ServiceFixture, GracefulDegradationChain) {
  vc.replicas[kLoop] = {2, 3, 4};
  start({util::Duration::millis(500)});
  run_for(util::Duration::seconds(1));

  services[2]->inject_output_fault(kLoop, 90.0);
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);

  services[3]->inject_output_fault(kLoop, 95.0);
  run_for(util::Duration::seconds(4));
  // Second failover: node 4 (second backup) takes over.
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kActive);
  EXPECT_EQ(services[1]->failovers().size(), 2u);
}

TEST_F(ServiceFixture, StaleEpochCommandIgnored) {
  start();
  run_for(util::Duration::seconds(1));
  // Apply a mode command with epoch 5 locally.
  ModeCommandMsg fresh;
  fresh.vc = vc.id;
  fresh.function = kLoop;
  fresh.target = 3;
  fresh.mode = ControllerMode::kIndicator;
  fresh.epoch = 5;
  net::Datagram d{1, 3, static_cast<std::uint8_t>(MsgType::kModeCommand), 8, 0,
                  false, {}, fresh.encode()};
  // Deliver directly through the handler path via the router callback —
  // simulate by sending from the head router.
  ASSERT_TRUE(nodes[1]->router().send(
      3, static_cast<std::uint8_t>(MsgType::kModeCommand), fresh.encode()));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kIndicator);

  ModeCommandMsg stale = fresh;
  stale.mode = ControllerMode::kActive;
  stale.epoch = 3;  // older than 5
  ASSERT_TRUE(nodes[1]->router().send(
      3, static_cast<std::uint8_t>(MsgType::kModeCommand), stale.encode()));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kIndicator);
}

TEST_F(ServiceFixture, MembershipHelloGrowsMemberList) {
  // The schedule is frozen once a node starts, so the new hardware's slot
  // is provisioned up front.
  schedule.assign_tx(5, 5);
  start();
  run_for(util::Duration::millis(500));
  // Node 5 appears from nowhere (new hardware added to the mesh).
  topo.set_link(1, 5, {true, 0.0});
  NodeConfig config;
  config.id = 5;
  auto node5 = std::make_unique<Node>(sim, medium, schedule, sync, config);
  auto svc5 = std::make_unique<EvmService>(*node5, vc);
  ASSERT_TRUE(svc5->start());

  int joined = 0;
  services[1]->set_on_member_joined([&](const MembershipHelloMsg& msg) {
    EXPECT_EQ(msg.node, 5);
    ++joined;
  });
  const std::size_t before = services[1]->members().size();
  svc5->announce_membership();
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(joined, 1);
  EXPECT_EQ(services[1]->members().size(), before + 1);
}

TEST_F(ServiceFixture, FunctionMigrationMovesStateAndMode) {
  start();
  run_for(util::Duration::seconds(2));
  // Seed recognizable state into the active controller's interpreter.
  ASSERT_TRUE(services[2]->seed_function_slot(kLoop, 9, 1234.5));

  MigrationOutcome outcome;
  bool done = false;
  services[2]->migrate_function(kLoop, 4, ControllerMode::kActive,
                                [&](const MigrationOutcome& o) {
                                  outcome = o;
                                  done = true;
                                });
  run_for(util::Duration::seconds(20));
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.success) << outcome.failure;
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kActive);
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kDormant);
  EXPECT_DOUBLE_EQ(services[4]->function_slot(kLoop, 9), 1234.5);
  // The migrated replica resumes control.
  run_for(util::Duration::seconds(1));
  EXPECT_GT(services[4]->cycles_run(kLoop), 0u);
}

bool holds_task(Node& node, const std::string& name) {
  for (rtos::TaskId id : node.kernel().scheduler().task_ids()) {
    if (node.kernel().scheduler().task(id)->params.name == name) return true;
  }
  return false;
}

TEST_F(ServiceFixture, StartRefusesACapsuleThatFailsAttestation) {
  vc.functions[kLoop].algorithm.code[0] ^= 0xFF;  // corrupted after seal()
  EvmService svc(*nodes[2], vc);
  const util::Status status = svc.start();
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("failed attestation"), std::string::npos);
  EXPECT_FALSE(holds_task(*nodes[2], "loop"));
  EXPECT_EQ(svc.mode(kLoop), ControllerMode::kDormant);
}

TEST_F(ServiceFixture, StartReturnsTheAdmissionErrorOfAnInadmissibleTask) {
  vc.functions[kLoop].task.wcet = util::Duration::millis(150);  // > period
  EvmService svc(*nodes[2], vc);
  const util::Status status = svc.start();
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("'loop'"), std::string::npos);
  EXPECT_FALSE(holds_task(*nodes[2], "loop"));
  // Nothing of the function stays behind on the node.
  EXPECT_EQ(svc.seed_function_slot(kLoop, 0, 1.0).code(), util::StatusCode::kNotFound);
}

TEST_F(ServiceFixture, SeedSlotOfAFunctionNotHeldIsNotFound) {
  start();
  EXPECT_EQ(services[4]->seed_function_slot(kLoop, 0, 1.0).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(services[2]->seed_function_slot(kLoop + 1, 0, 1.0).code(),
            util::StatusCode::kNotFound);
}

TEST_F(ServiceFixture, SeedSlotPastTheDataSegmentIsInvalidArgument) {
  start();
  const std::size_t last = vm::Interpreter::kSlots - 1;
  EXPECT_EQ(services[2]->seed_function_slot(kLoop, last + 1, 1.0).code(),
            util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(services[2]->seed_function_slot(kLoop, last, 7.5));
  EXPECT_DOUBLE_EQ(services[2]->function_slot(kLoop, last), 7.5);
}

TEST_F(ServiceFixture, SetModeOfAFunctionNotHeldIsNotFound) {
  start();
  EXPECT_EQ(services[4]->set_mode(kLoop, ControllerMode::kActive).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kDormant);
  EXPECT_DOUBLE_EQ(services[4]->function_slot(kLoop, 0), 0.0);
}

vm::Capsule capsule_of(const std::string& source) {
  vm::Capsule capsule;
  capsule.program_id = ServiceFixture::kLoop;
  capsule.name = "test";
  capsule.code = *vm::assemble(source);
  capsule.seal();
  return capsule;
}

TEST_F(ServiceFixture, VmFaultSkipsTheCycle) {
  // Attestation checks structure, not stack depth: `add` on an empty stack
  // passes it and faults at run time, every cycle.
  vc.functions[kLoop].algorithm = capsule_of("add\nactuate 0\nhalt\n");
  start();
  run_for(util::Duration::seconds(2));
  for (net::NodeId id : {2, 3}) {
    EXPECT_EQ(services[id]->cycles_run(kLoop), 0u) << "node " << id;
    EXPECT_DOUBLE_EQ(services[id]->last_output(kLoop), 0.0) << "node " << id;
  }
}

TEST_F(ServiceFixture, VmSendPublishesOnTheDataPlane) {
  vc.functions[kLoop].algorithm =
      capsule_of("sensor 0\npush 1\nadd\nsend 9\nsensor 0\nactuate 0\nhalt\n");
  start();
  run_for(util::Duration::seconds(2));
  for (net::NodeId id : {1, 4}) {
    ASSERT_TRUE(services[id]->has_stream(9)) << "node " << id;
    EXPECT_DOUBLE_EQ(services[id]->stream_value(9), 43.0);
  }
}

// The payload EvmService ships to move a function: kind 1, function id,
// target mode, TCB snapshot, VM data segment and code capsule.
std::vector<std::uint8_t> function_payload(
    FunctionId function, const rtos::TaskParams& task, const vm::Capsule& capsule,
    std::size_t slot_image_bytes = vm::Interpreter::kSlots * 8) {
  rtos::TaskSnapshot snapshot;
  snapshot.params = task;
  util::ByteWriter w;
  w.u8(1);
  w.u16(function);
  w.u8(static_cast<std::uint8_t>(ControllerMode::kActive));
  w.blob(snapshot.encode());
  w.blob(std::vector<std::uint8_t>(slot_image_bytes, 0));
  w.blob(capsule.encode());
  return w.take();
}

/// Ship `payload` from the head to node 4 through the migration engine.
std::optional<MigrationOutcome> ship_to_node_4(ServiceFixture& f, FunctionId function,
                                               const std::vector<std::uint8_t>& payload) {
  std::optional<MigrationOutcome> outcome;
  MigrationOfferMsg meta;
  meta.vc = f.vc.id;
  meta.function = function;
  f.services[1]->migration().initiate(
      4, meta, payload, [&outcome](const MigrationOutcome& o) { outcome = o; });
  f.run_for(util::Duration::seconds(20));
  return outcome;
}

TEST_F(ServiceFixture, MigratedCapsuleCorruptedAfterSealIsRejected) {
  start();
  run_for(util::Duration::seconds(1));
  vm::Capsule capsule = vc.functions[kLoop].algorithm;
  capsule.version = 5;
  capsule.code.back() ^= 0xFF;  // corrupted in transit, after seal()
  const auto outcome = ship_to_node_4(
      *this, kLoop, function_payload(kLoop, vc.functions[kLoop].task, capsule));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kDormant);
  EXPECT_FALSE(holds_task(*nodes[4], "loop"));
  // Rejected before the receiver adopts the capsule as the function's code.
  EXPECT_EQ(services[4]->algorithm_version(kLoop), 0);
}

TEST_F(ServiceFixture, MigratedFunctionTheReceiverCannotAdmitIsRejected) {
  start();
  // Node 4's CPU is taken; the offer understates the function's demand, so
  // the capability check passes and admission is what refuses it.
  rtos::TaskParams hog;
  hog.name = "hog";
  hog.period = util::Duration::millis(100);
  hog.wcet = util::Duration::millis(99);
  hog.priority = 0;
  ASSERT_TRUE(nodes[4]->kernel().admit_task(hog).ok());
  run_for(util::Duration::seconds(1));
  const auto outcome = ship_to_node_4(
      *this, kLoop,
      function_payload(kLoop, vc.functions[kLoop].task, vc.functions[kLoop].algorithm));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_EQ(outcome->failure, "destination failed attestation/admission");
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kDormant);
  EXPECT_FALSE(holds_task(*nodes[4], "loop"));
}

TEST_F(ServiceFixture, MigrationTheReceiverCannotAdmitKeepsItsCopyOfTheFunction) {
  start();
  rtos::TaskParams hog;
  hog.name = "hog";
  hog.period = util::Duration::millis(100);
  hog.wcet = util::Duration::millis(99);
  hog.priority = 0;
  ASSERT_TRUE(nodes[4]->kernel().admit_task(hog).ok());
  run_for(util::Duration::seconds(1));
  vm::Capsule capsule = vc.functions[kLoop].algorithm;
  capsule.version = 5;
  capsule.seal();
  const auto outcome = ship_to_node_4(
      *this, kLoop, function_payload(kLoop, vc.functions[kLoop].task, capsule));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  // The shipped v5 never ran here, so it must not make a later genuine
  // update with a version up to 5 look stale.
  EXPECT_EQ(services[4]->algorithm_version(kLoop), 0);
}

TEST_F(ServiceFixture, MigratedSlotImageOfTheWrongSizeLeavesNothingInstalled) {
  start();
  run_for(util::Duration::seconds(1));
  const std::size_t ram_before = nodes[4]->kernel().ram_used();
  const auto outcome = ship_to_node_4(
      *this, kLoop,
      function_payload(kLoop, vc.functions[kLoop].task, vc.functions[kLoop].algorithm,
                       /*slot_image_bytes=*/8));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_FALSE(holds_task(*nodes[4], "loop"));
  EXPECT_EQ(nodes[4]->kernel().ram_used(), ram_before);
  EXPECT_EQ(services[4]->seed_function_slot(kLoop, 0, 1.0).code(),
            util::StatusCode::kNotFound);
}

TEST_F(ServiceFixture, MigratedFunctionUnknownToTheReceiverIsRejected) {
  start();
  run_for(util::Duration::seconds(1));
  constexpr FunctionId kUnknown = 77;
  const auto outcome = ship_to_node_4(
      *this, kUnknown,
      function_payload(kUnknown, vc.functions[kLoop].task, vc.functions[kLoop].algorithm));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->success);
  EXPECT_FALSE(holds_task(*nodes[4], "loop"));
}

FaultReportMsg report_on_node_2(VcId vc) {
  FaultReportMsg report;
  report.vc = vc;
  report.function = ServiceFixture::kLoop;
  report.suspect = 2;
  report.reporter = 3;
  report.reason = FaultReason::kImplausibleOutput;
  report.evidence = 4;
  return report;
}

TEST_F(ServiceFixture, NonHeadRelaysAFaultReportTowardItsHead) {
  start();
  run_for(util::Duration::seconds(1));
  // Node 3 addresses node 4, which is not the head; 4 believes in head 1
  // (a lower id) and forwards the report there.
  ASSERT_TRUE(nodes[3]->router().send(
      4, static_cast<std::uint8_t>(MsgType::kFaultReport), report_on_node_2(vc.id).encode()));
  run_for(util::Duration::seconds(2));
  ASSERT_EQ(services[1]->failovers().size(), 1u);
  EXPECT_EQ(services[1]->failovers()[0].demoted, 2);
  EXPECT_EQ(services[1]->failovers()[0].promoted, 3);
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);
}

TEST_F(ServiceFixture, NonHeadDropsAFaultReportWhenItsHeadHasAHigherId) {
  vc.head = 4;
  start();
  run_for(util::Duration::seconds(1));
  // Node 3 believes in head 4, a higher id than its own: it drops the
  // report, so forwarding chains only ever descend in id.
  const auto report = report_on_node_2(vc.id).encode();
  const auto type = static_cast<std::uint8_t>(MsgType::kFaultReport);
  ASSERT_TRUE(nodes[2]->router().send(3, type, report));
  run_for(util::Duration::seconds(2));
  EXPECT_TRUE(services[4]->failovers().empty());
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kActive);
  // The same report sent to the head itself does fail node 2 over.
  ASSERT_TRUE(nodes[2]->router().send(4, type, report));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(services[4]->failovers().size(), 1u);
}

TEST_F(ServiceFixture, ExhaustedEscalationRetriesWhenReplicaRejoins) {
  // Fuzzer-found bug #1: the head promoted a node that was down when the
  // ModeCommand was sent, escalation burned through the replica list and
  // then gave up for good. The supervised retry must promote a replica the
  // moment it rejoins and heartbeats.
  start();
  run_for(util::Duration::seconds(1));
  nodes[3]->fail();  // backup gone (and down when any promotion arrives)
  nodes[2]->fail();  // active gone: nobody left to observe anything
  run_for(util::Duration::seconds(12));
  // Every promotion target was dead (service modes stay sticky on crashed
  // nodes, so only the live/failed flags are meaningful here).
  ASSERT_TRUE(nodes[2]->failed());
  ASSERT_TRUE(nodes[3]->failed());

  nodes[3]->recover();  // rejoins in its sticky Backup mode and heartbeats
  run_for(util::Duration::seconds(6));
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive)
      << "head never retried the promotion after the replica rejoined";
}

TEST_F(ServiceFixture, RestartedPrimaryRejoiningActiveIsDemoted) {
  // Fuzzer-found bug #2: a crashed-and-restarted controller resumed its
  // stale pre-crash Active mode alongside the promoted backup. The head
  // must re-supervise the rejoiner down to Backup.
  start({util::Duration::seconds(60)});
  run_for(util::Duration::seconds(1));
  nodes[2]->fail();  // active crashes; backup 3 reports the silence
  run_for(util::Duration::seconds(3));
  ASSERT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);

  nodes[2]->recover();  // resumes with sticky pre-crash Active mode
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kBackup)
      << "stale Active rejoin was not demoted";
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);
}

TEST_F(ServiceFixture, SuccessorHeadDemotesStaleActiveRejoiner) {
  // The succession corner of the rejoin bug: the primary crashes while
  // Active, the backup is promoted, then the ORIGINAL HEAD dies and node 2
  // (not a replica) succeeds it. When the stale primary rejoins claiming
  // Active, the successor head — which never issued any promotion itself —
  // must still demote it rather than let two Actives flap in its table.
  vc.replicas[kLoop] = {3, 4};
  start();
  run_for(util::Duration::seconds(1));
  nodes[3]->fail();  // active crashes; backup 4 reports and is promoted
  run_for(util::Duration::seconds(3));
  ASSERT_EQ(services[4]->mode(kLoop), ControllerMode::kActive);

  nodes[1]->fail();  // the head dies; node 2 succeeds after beacon silence
  run_for(util::Duration::seconds(8));
  ASSERT_TRUE(services[2]->is_head());

  nodes[3]->recover();  // stale pre-crash Active rejoins under the new head
  run_for(util::Duration::seconds(8));
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kBackup)
      << "successor head failed to demote the stale Active rejoiner";
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kActive);
}

TEST_F(ServiceFixture, HeadDetectsSilentActiveWithNoObserverLeft) {
  // With every Backup dead there is no passive observer; the head's
  // backstop silence detector must still re-arbitrate once the Active has
  // been quiet past the policy timeout.
  start();
  run_for(util::Duration::seconds(1));
  nodes[3]->fail();  // the only backup dies first (stays dead)
  run_for(util::Duration::seconds(1));
  nodes[2]->fail();  // then the active dies
  run_for(util::Duration::seconds(10));
  // The head noticed on its own (silence timeout + escalations), even
  // though no fault report could ever arrive.
  EXPECT_GE(services[1]->failovers().size(), 1u);
}

TEST_F(ServiceFixture, ModeChangeHookFires) {
  start();
  int changes = 0;
  services[3]->set_on_mode_change(
      [&](FunctionId f, ControllerMode m) {
        EXPECT_EQ(f, kLoop);
        if (m == ControllerMode::kActive) ++changes;
      });
  run_for(util::Duration::seconds(1));
  services[2]->inject_output_fault(kLoop, 90.0);
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(changes, 1);
}

TEST_F(ServiceFixture, DoubleStartRejected) {
  start();
  EXPECT_FALSE(services[1]->start());
}

TEST_F(ServiceFixture, ReplicationKeepsSourceActive) {
  start();
  run_for(util::Duration::seconds(1));
  ASSERT_TRUE(services[2]->seed_function_slot(kLoop, 9, 77.0));

  bool success = false;
  services[2]->replicate_function(kLoop, 4, ControllerMode::kBackup,
                                  [&](const MigrationOutcome& o) {
                                    success = o.success;
                                  });
  run_for(util::Duration::seconds(15));
  ASSERT_TRUE(success);
  // Source keeps control; the new replica shadows with cloned state.
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kActive);
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kBackup);
  EXPECT_DOUBLE_EQ(services[4]->function_slot(kLoop, 9), 77.0);
}

TEST_F(ServiceFixture, ReplicatedBackupCanTakeOver) {
  start();
  run_for(util::Duration::seconds(1));
  bool success = false;
  services[2]->replicate_function(kLoop, 4, ControllerMode::kBackup,
                                  [&](const MigrationOutcome& o) {
                                    success = o.success;
                                  });
  run_for(util::Duration::seconds(15));
  ASSERT_TRUE(success);
  services[1]->arbiter().set_mode(kLoop, 4, ControllerMode::kBackup);

  // Kill both original replicas; the spawned copy must win arbitration.
  nodes[2]->fail();
  nodes[3]->fail();
  run_for(util::Duration::seconds(5));
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kActive);
}

TEST_F(ServiceFixture, AlgorithmDisseminationHotSwaps) {
  start();
  run_for(util::Duration::seconds(1));
  EXPECT_NEAR(services[2]->last_output(kLoop), 42.0, 1e-9);  // passthrough

  // Version 1: output = sensor * 2, shipped over the air from the head.
  auto v1 = make_bang_bang(kLoop, 0, 0, 100.0, 0.0, 99.0);
  v1->version = 1;
  ASSERT_TRUE(services[1]->disseminate_algorithm(kLoop, *v1));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(services[2]->algorithm_version(kLoop), 1);
  EXPECT_EQ(services[3]->algorithm_version(kLoop), 1);
  // Sensor value 42 < threshold 100 -> bang-bang high = 99.
  EXPECT_NEAR(services[2]->last_output(kLoop), 99.0, 1e-9);
}

TEST_F(ServiceFixture, StaleAlgorithmVersionIgnored) {
  start();
  run_for(util::Duration::seconds(1));
  auto v2 = make_bang_bang(kLoop, 0, 0, 100.0, 0.0, 99.0);
  v2->version = 2;
  ASSERT_TRUE(services[1]->disseminate_algorithm(kLoop, *v2));
  run_for(util::Duration::seconds(1));
  ASSERT_EQ(services[2]->algorithm_version(kLoop), 2);

  auto v1 = make_passthrough(kLoop, 0, 0);
  v1->version = 1;  // older
  ASSERT_TRUE(services[1]->disseminate_algorithm(kLoop, *v1));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(services[2]->algorithm_version(kLoop), 2);
}

TEST_F(ServiceFixture, CorruptedAlgorithmUpdateRejected) {
  start();
  run_for(util::Duration::seconds(1));
  auto bad = make_passthrough(kLoop, 0, 0);
  bad->version = 9;
  bad->code[0] = 0x7F;  // invalid opcode; CRC resealed to pass CRC gate
  bad->seal();
  ASSERT_TRUE(services[1]->disseminate_algorithm(kLoop, *bad));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(services[2]->algorithm_version(kLoop), 0);  // still original
}

TEST_F(ServiceFixture, TemporalTransferDropsStaleData) {
  // Declare the sensor->controller relation temporal-conditional with a
  // max age far below the (head-published) stream period.
  vc.transfers.push_back({1, 2, TransferType::kTemporalConditional,
                          util::Duration::micros(1), {}});
  start();
  run_for(util::Duration::seconds(2));
  // Node 2 rejects every sample as stale (network latency >> 1 us);
  // node 3 (no such relation) keeps consuming normally.
  EXPECT_GT(services[2]->transfer_stats().rejected_stale, 0u);
  EXPECT_FALSE(services[2]->has_stream(0));
  EXPECT_TRUE(services[3]->has_stream(0));
}

TEST_F(ServiceFixture, HeadBeaconKeepsMembersAligned) {
  // The head publishes the sensor stream every 100 ms and beacons every
  // period; over long silence windows nobody starts a succession.
  start();
  run_for(util::Duration::seconds(30));
  for (net::NodeId id : {2, 3, 4}) {
    EXPECT_EQ(services[id]->head_id(), 1) << "node " << id;
    EXPECT_EQ(services[id]->head_successions(), 0u);
  }
}

TEST_F(ServiceFixture, HeadFailureElectsLowestSurvivingMember) {
  start();
  run_for(util::Duration::seconds(2));
  nodes[1]->fail();  // the head dies; beacons stop
  run_for(util::Duration::seconds(10));
  // Members are {1,2,3,4}: node 2 is the lowest surviving id.
  EXPECT_TRUE(services[2]->is_head());
  EXPECT_EQ(services[2]->head_successions(), 1u);
  EXPECT_EQ(services[3]->head_id(), 2);
  EXPECT_EQ(services[4]->head_id(), 2);
}

TEST_F(ServiceFixture, HeadAndSuccessorFailureElectsNextMember) {
  start();
  run_for(util::Duration::seconds(2));
  // The head and its deterministic successor die together. The survivors
  // first adopt 2 provisionally; when 2 stays silent too, succession moves
  // on to 3 instead of falling back to the dead head 1.
  nodes[1]->fail();
  nodes[2]->fail();
  run_for(util::Duration::seconds(60));
  EXPECT_TRUE(services[3]->is_head());
  EXPECT_EQ(services[3]->head_successions(), 1u);
  EXPECT_EQ(services[4]->head_id(), 3);
  // The new head also fails the dead primary 2 over to itself.
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);
}

TEST_F(ServiceFixture, SuccessorHeadArbitratesFailover) {
  start();
  run_for(util::Duration::seconds(2));
  nodes[1]->fail();
  run_for(util::Duration::seconds(10));
  ASSERT_TRUE(services[2]->is_head());

  // The (new) head is also the primary here; have it fail wrong-output.
  // Backup node 3 must report to node 2 and node 2 must arbitrate.
  services[2]->inject_output_fault(kLoop, 90.0);
  run_for(util::Duration::seconds(4));
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);
  ASSERT_GE(services[2]->failovers().size(), 1u);
  EXPECT_EQ(services[2]->failovers()[0].demoted, 2);
  EXPECT_EQ(services[2]->failovers()[0].promoted, 3);
}

TEST_F(ServiceFixture, SuccessorCommandsHonoredViaEpochResumption) {
  // Long dormant delay so the demoted primary keeps shadowing as Backup.
  start({util::Duration::seconds(600)});
  run_for(util::Duration::seconds(2));
  // Exercise epochs under the original head first (failover 2 -> 3).
  services[2]->inject_output_fault(kLoop, 90.0);
  run_for(util::Duration::seconds(4));
  ASSERT_EQ(services[3]->mode(kLoop), ControllerMode::kActive);
  ASSERT_EQ(services[2]->mode(kLoop), ControllerMode::kBackup);
  services[2]->clear_output_fault(kLoop);

  nodes[1]->fail();
  run_for(util::Duration::seconds(10));
  ASSERT_TRUE(services[2]->is_head());

  // A second failover arbitrated by the successor: its mode commands carry
  // resumed epochs and must not be discarded as stale by the replicas.
  services[3]->inject_output_fault(kLoop, 95.0);
  run_for(util::Duration::seconds(5));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kActive);
  EXPECT_EQ(services[3]->mode(kLoop), ControllerMode::kBackup);
}

TEST_F(ServiceFixture, CausalTransferDropsDuplicates) {
  vc.transfers.push_back({1, 3, TransferType::kCausalConditional, {}, {}});
  start();
  run_for(util::Duration::seconds(2));
  // Normal publication is strictly ordered, so everything is accepted.
  EXPECT_EQ(services[3]->transfer_stats().rejected_disorder, 0u);
  EXPECT_GT(services[3]->transfer_stats().accepted, 5u);
  EXPECT_TRUE(services[3]->has_stream(0));
}

TEST_F(ServiceFixture, QuietHeadFallsBackToExplicitBeacons) {
  // No data traffic at all (the sensor publisher is not started): no tag
  // rides a data frame, so members must stay aligned off the explicit
  // beacon alone.
  for (net::NodeId id : {1, 2, 3, 4}) {
    services[id] = std::make_unique<EvmService>(*nodes[id], vc,
                                                FailoverPolicy{util::Duration::seconds(2)});
    ASSERT_TRUE(services[id]->start());
  }
  sync.start();
  // Stop the replica control tasks so even heartbeats go quiet; only the
  // beacon task keeps running.
  for (net::NodeId id : {2, 3}) {
    ASSERT_TRUE(services[id]->set_mode(kLoop, ControllerMode::kDormant));
  }
  run_for(util::Duration::seconds(15));
  for (net::NodeId id : {2, 3, 4}) {
    EXPECT_EQ(services[id]->head_id(), 1) << "node " << id;
    EXPECT_EQ(services[id]->head_successions(), 0u) << "node " << id;
  }
}

TEST_F(ServiceFixture, RecoveredBusyHeadReclaimsHeadship) {
  // The original head recovers with plenty of data traffic. Tags naming a
  // rival head never depose a live one, so the lower-id-reclaims rule rides
  // on the explicit beacons both heads keep sending: the lower id wins.
  start();
  run_for(util::Duration::seconds(2));
  nodes[1]->fail();
  run_for(util::Duration::seconds(10));
  ASSERT_TRUE(services[2]->is_head());
  nodes[1]->recover();  // resumes its beacon task AND its publisher (busy)
  run_for(util::Duration::seconds(8));
  EXPECT_TRUE(services[1]->is_head());
  EXPECT_FALSE(services[2]->is_head());
  for (net::NodeId id : {2, 3, 4}) {
    EXPECT_EQ(services[id]->head_id(), 1) << "node " << id;
  }
}

TEST_F(ServiceFixture, StaleTagsDoNotKeepADeadHeadAlive) {
  // After the head dies its beacon sequence stops advancing. The tags still
  // circulating on member heartbeats must not count as liveness — the
  // members detect the silence and elect node 2 exactly as with explicit
  // beacons.
  start();
  run_for(util::Duration::seconds(10));
  EXPECT_TRUE(nodes[2]->router().beacon_tag().valid());  // tags circulate
  nodes[1]->fail();
  run_for(util::Duration::seconds(10));
  EXPECT_EQ(services[2]->head_id(), 2);
  EXPECT_EQ(services[2]->head_successions(), 1u);
  EXPECT_EQ(services[3]->head_id(), 2);
  EXPECT_EQ(services[4]->head_id(), 2);
}

// Relay-side beacon suppression on the line 1-2-3-4-5 with tree
// dissemination: head 1 beacons every second, interior nodes 2-4 relay the
// probe, and a relay whose own tagged frames went out since the previous
// probe skips it.
struct RelayFixture : ::testing::Test {
  sim::Simulator sim{31};
  net::Topology topo = net::Topology::line({1, 2, 3, 4, 5});
  net::Medium medium{sim, topo};
  net::DisseminationTreeCache tree{topo, 1, {1, 2, 3, 4, 5}};
  net::RtLinkSchedule schedule{8, util::Duration::millis(5)};
  net::TimeSync sync{sim, {}};
  std::map<net::NodeId, std::unique_ptr<Node>> nodes;
  std::map<net::NodeId, std::unique_ptr<EvmService>> services;

  RelayFixture() {
    int slot = 0;
    for (net::NodeId id : {1, 2, 3, 4, 5}) {
      schedule.assign_tx(slot++, id);
      NodeConfig config;
      config.id = id;
      nodes[id] = std::make_unique<Node>(sim, medium, schedule, sync, config);
      nodes[id]->router().enable_tree_dissemination(&tree);
    }
  }

  /// A VC with no functions, so no heartbeats: the data plane carries only
  /// what `publish_period` adds (the head's sensor stream).
  void start(std::optional<util::Duration> publish_period) {
    VcDescriptor vc;
    vc.id = 1;
    vc.head = 1;
    vc.members = {1, 2, 3, 4, 5};
    for (net::NodeId id : {1, 2, 3, 4, 5}) {
      services[id] = std::make_unique<EvmService>(*nodes[id], vc);
      ASSERT_TRUE(services[id]->start());
    }
    sync.start();
    if (!publish_period) return;
    rtos::TaskParams pub;
    pub.name = "pub";
    pub.period = *publish_period;
    pub.wcet = util::Duration::micros(100);
    pub.priority = 2;
    auto id = nodes[1]->kernel().admit_task(
        pub, [this] { services[1]->publish_sensor(0, 42.0); });
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(nodes[1]->kernel().start_task(*id));
  }
};

TEST_F(RelayFixture, QuietPlaneRelaysEveryProbe) {
  start(std::nullopt);
  sim.run_until(sim.now() + util::Duration::seconds(30));
  for (net::NodeId id : {2, 3, 4}) {
    EXPECT_EQ(nodes[id]->router().broadcast_relays(), 30u) << "node " << id;
    EXPECT_EQ(nodes[id]->router().beacon_relays_suppressed(), 0u) << "node " << id;
  }
  EXPECT_EQ(services[5]->head_id(), 1);
  EXPECT_EQ(services[5]->head_successions(), 0u);
}

TEST_F(RelayFixture, BusyRelaySkipsProbesAfterItsOwnTaggedFrames) {
  start(util::Duration::millis(100));
  sim.run_until(sim.now() + util::Duration::seconds(30));
  EXPECT_GE(nodes[2]->router().beacon_relays_suppressed(), 25u);
  for (net::NodeId id : {2, 3, 4, 5}) {
    EXPECT_EQ(services[id]->head_id(), 1) << "node " << id;
    EXPECT_EQ(services[id]->head_successions(), 0u) << "node " << id;
  }
}

// Head-liveness watchdog. A member whose kernel runs no task of its own
// watches the head from one lazy event instead of the periodic evm-beacon
// task, whose body would run at origin + k·period + 200 us (origin: start
// or the last restart). Each test pins the instant the node acts to that
// grid. Default policy: 1 s beacon period, 5 s silence window. Nodes 1-4,
// head 1, no control functions unless a test adds them.
struct WatchdogWorld {
  sim::Simulator sim{31};
  net::Topology topo;
  std::unique_ptr<net::Medium> medium;
  std::unique_ptr<net::DisseminationTreeCache> tree;
  net::RtLinkSchedule schedule{8, util::Duration::millis(5)};
  net::TimeSync sync{sim, {}};
  std::map<net::NodeId, std::unique_ptr<Node>> nodes;
  std::map<net::NodeId, std::unique_ptr<EvmService>> services;

  /// Instant of the k-th body run on the grid that starts at `origin`.
  static util::TimePoint grid(std::int64_t k,
                              util::TimePoint origin = util::TimePoint::zero()) {
    return origin + util::Duration::seconds(k) + util::Duration::micros(200);
  }

  /// `tree_targets` empty: no dissemination tree, every node takes part in
  /// the election. `serviced`: the nodes that run an EvmService (the others
  /// only run their MAC).
  WatchdogWorld(net::Topology topology, std::vector<net::NodeId> tree_targets,
                std::vector<net::NodeId> serviced = {1, 2, 3, 4})
      : topo(std::move(topology)) {
    medium = std::make_unique<net::Medium>(sim, topo);
    if (!tree_targets.empty()) {
      tree = std::make_unique<net::DisseminationTreeCache>(topo, 1, tree_targets);
    }
    int slot = 0;
    for (net::NodeId id : {1, 2, 3, 4}) {
      schedule.assign_tx(slot++, id);
      NodeConfig config;
      config.id = id;
      nodes[id] = std::make_unique<Node>(sim, *medium, schedule, sync, config);
      if (tree) nodes[id]->router().enable_tree_dissemination(tree.get());
    }
    VcDescriptor vc;
    vc.id = 1;
    vc.head = 1;
    vc.members = {1, 2, 3, 4};
    for (net::NodeId id : {1, 2, 3, 4}) {
      if (std::find(serviced.begin(), serviced.end(), id) == serviced.end()) {
        nodes[id]->start();
        continue;
      }
      services[id] = std::make_unique<EvmService>(*nodes[id], vc);
      EXPECT_TRUE(services[id]->start());
    }
    sync.start();
  }

  void run_to(util::TimePoint t) { sim.run_until(t); }

  const rtos::Tcb& task(net::NodeId node, const std::string& name) {
    rtos::Scheduler& scheduler = nodes[node]->kernel().scheduler();
    for (rtos::TaskId id : scheduler.task_ids()) {
      if (scheduler.task(id)->params.name == name) return *scheduler.task(id);
    }
    ADD_FAILURE() << "no task '" << name << "' on node " << node;
    static const rtos::Tcb kNone;
    return kNone;
  }
};

constexpr util::Duration kNs = util::Duration::nanos(1);

/// Full mesh over 1-3; node 4 has no link at all, so it never hears a head.
net::Topology isolated_node_4() {
  net::Topology topo = net::Topology::full_mesh({1, 2, 3});
  topo.add_node(4);
  return topo;
}

TEST(Watchdog, IsolatedMemberWalksTheSuccessionOnTheTaskGrid) {
  // Node 4 hears nothing. Its first check past the 5 s silence window is
  // grid(5): it adopts 2 provisionally. Five more beats of silence later
  // (grid 11) it moves on to 3, and at grid 17 the walk reaches itself. As
  // head it beats from the real task: its first explicit beacon (sequence
  // 2; the claim at grid 17 took 1) goes out at grid 18, on the same grid.
  WatchdogWorld w(isolated_node_4(), {});
  EvmService& svc = *w.services[4];
  w.run_to(WatchdogWorld::grid(5) - kNs);
  EXPECT_EQ(svc.head_id(), 1);
  w.run_to(WatchdogWorld::grid(5));
  EXPECT_EQ(svc.head_id(), 2);
  w.run_to(WatchdogWorld::grid(11) - kNs);
  EXPECT_EQ(svc.head_id(), 2);
  w.run_to(WatchdogWorld::grid(11));
  EXPECT_EQ(svc.head_id(), 3);
  w.run_to(WatchdogWorld::grid(17) - kNs);
  EXPECT_FALSE(svc.is_head());
  EXPECT_EQ(w.task(4, "evm-beacon").stats.releases, 0u);
  w.run_to(WatchdogWorld::grid(17));
  ASSERT_TRUE(svc.is_head());
  EXPECT_EQ(w.nodes[4]->router().beacon_tag().seq, 1);
  w.run_to(WatchdogWorld::grid(18) - kNs);
  EXPECT_EQ(w.nodes[4]->router().beacon_tag().seq, 1);
  EXPECT_EQ(w.task(4, "evm-beacon").stats.releases, 1u);  // released at 18 s
  w.run_to(WatchdogWorld::grid(18));
  EXPECT_EQ(w.nodes[4]->router().beacon_tag().seq, 2);
}

TEST(Watchdog, RestartReOriginsTheGrid) {
  // Node 4 crashes at 3 s and restarts at 3.7 s. The task would restart
  // with the node and release at once, so the checks move to 3.7002 s,
  // 4.7002 s, ...: the first one past the silence window is 5.7002 s, not
  // grid(5).
  WatchdogWorld w(isolated_node_4(), {});
  EvmService& svc = *w.services[4];
  w.run_to(util::TimePoint::zero() + util::Duration::seconds(3));
  w.nodes[4]->fail();
  w.run_to(util::TimePoint::zero() + util::Duration::millis(3700));
  const util::TimePoint restart = w.sim.now();
  w.nodes[4]->recover();
  w.run_to(WatchdogWorld::grid(5));
  EXPECT_EQ(svc.head_id(), 1);
  w.run_to(WatchdogWorld::grid(2, restart) - kNs);
  EXPECT_EQ(svc.head_id(), 1);
  w.run_to(WatchdogWorld::grid(2, restart));
  EXPECT_EQ(svc.head_id(), 2);
}

TEST(Watchdog, SleepingOffTreeNodeCostsNoEventsAndWakesOnTopologyChange) {
  // Line 1-2-3-4 plus a spare link 1-4, down at first. The tree spans head
  // 1 and target 3, so node 4 is off it and hears nothing (3 is a leaf and
  // never relays). Its check at grid(5) finds the head silent and itself
  // off the tree; every later check would repeat that, so it sleeps. At
  // 9.9997 s link 1-4 comes up and 2-3 goes down: the tree becomes 1-4-3,
  // and at grid(10), the next instant the task would have checked, node 4
  // runs the succession and adopts 2.
  auto line = [] {
    net::Topology topo = net::Topology::line({1, 2, 3, 4});
    topo.set_link(1, 4, net::LinkState{false, 0.0});
    return topo;
  };
  WatchdogWorld w(line(), {1, 3});
  // The same world without node 4's service: only its MAC runs.
  WatchdogWorld bare(line(), {1, 3}, {1, 2, 3});
  for (WatchdogWorld* world : {&w, &bare}) world->run_to(WatchdogWorld::grid(6));
  const std::size_t events_before = w.sim.dispatched_events();
  const std::size_t bare_before = bare.sim.dispatched_events();
  for (WatchdogWorld* world : {&w, &bare}) {
    world->run_to(util::TimePoint::zero() + util::Duration::micros(9'999'700));
  }
  // Asleep from grid(5) on: no event at all over grids 7-9.
  EXPECT_EQ(w.sim.dispatched_events() - events_before,
            bare.sim.dispatched_events() - bare_before);
  EXPECT_EQ(w.task(4, "evm-beacon").stats.releases, 0u);
  EXPECT_EQ(w.services[4]->head_id(), 1);

  w.topo.set_link_up(1, 4, true);
  w.topo.set_link_up(2, 3, false);
  ASSERT_TRUE(w.tree->tree().contains(4));
  w.run_to(WatchdogWorld::grid(10) - kNs);
  EXPECT_EQ(w.services[4]->head_id(), 1);
  w.run_to(WatchdogWorld::grid(10));
  EXPECT_EQ(w.services[4]->head_id(), 2);
}

TEST(Watchdog, SensorPublisherSwitchesToTheTaskOnTheSameGrid) {
  // A publisher added at 2 s coincides with the beacon task's release on
  // the grid. The priority-1 beacon job runs first, so the publisher's
  // first job (500 us) completes at 2.0007 s, 200 us late, exactly as it
  // would next to a task that had run all along.
  WatchdogWorld w(isolated_node_4(), {});
  w.nodes[4]->bind_sensor(0, [] { return 1.0; });
  w.run_to(util::TimePoint::zero() + util::Duration::seconds(2));
  ASSERT_TRUE(w.services[4]->add_sensor_publisher(7, 0, util::Duration::seconds(1)));
  w.run_to(util::TimePoint::zero() + util::Duration::micros(2'000'700) - kNs);
  EXPECT_EQ(w.task(4, "pub_s7").stats.completions, 0u);
  EXPECT_EQ(w.task(4, "evm-beacon").stats.completions, 1u);
  w.run_to(util::TimePoint::zero() + util::Duration::micros(2'000'700));
  EXPECT_EQ(w.task(4, "pub_s7").stats.completions, 1u);
  EXPECT_EQ(w.task(4, "pub_s7").stats.worst_response, util::Duration::micros(700));
  // From here on the task releases on every beat.
  w.run_to(util::TimePoint::zero() + util::Duration::seconds(5));
  EXPECT_EQ(w.task(4, "evm-beacon").stats.releases, 4u);
}

TEST_F(ServiceFixture, WatchdogNodeKeepsTheBeaconShareOfItsKernel) {
  // Node 4 holds no replica, so it runs the watchdog: its evm-beacon task
  // never releases, yet the kernel still books its 200 us per 1 s. The
  // migration capability check reads that utilization.
  start();
  run_for(util::Duration::seconds(3));
  EXPECT_DOUBLE_EQ(nodes[4]->kernel().utilization(), 200e-6);
  rtos::Scheduler& scheduler = nodes[4]->kernel().scheduler();
  ASSERT_EQ(scheduler.task_count(), 1u);
  EXPECT_EQ(scheduler.task(scheduler.task_ids()[0])->stats.releases, 0u);
}

TEST_F(ServiceFixture, MigratedFunctionSwitchesTheWatchdogToTheTask) {
  // A replica that migration brings to node 4 starts a control task there,
  // so node 4 switches to the real evm-beacon task. Its first release is
  // the next whole second, the grid the task would have released on.
  start();
  run_for(util::Duration::seconds(1));
  std::optional<util::TimePoint> installed;
  services[4]->set_on_mode_change([&](FunctionId, ControllerMode) {
    if (!installed) installed = sim.now();
  });
  services[2]->replicate_function(kLoop, 4, ControllerMode::kBackup, {});
  run_for(util::Duration::seconds(20));
  ASSERT_TRUE(installed.has_value());
  rtos::Scheduler& scheduler = nodes[4]->kernel().scheduler();
  const rtos::Tcb* beacon = scheduler.task(scheduler.task_ids()[0]);
  ASSERT_EQ(beacon->params.name, "evm-beacon");
  const util::TimePoint first =
      util::TimePoint::zero() +
      util::Duration::seconds((installed->ns() + 999'999'999) / 1'000'000'000);
  // 20 s in, the task has released on every whole second since.
  EXPECT_EQ(beacon->stats.releases,
            static_cast<std::uint64_t>((sim.now() - first).ns() / 1'000'000'000 + 1));
  EXPECT_DOUBLE_EQ(nodes[4]->kernel().utilization(), 200e-6 + 0.02);
}

TEST_F(ServiceFixture, MigratingAFunctionNotHeldFails) {
  // The head (node 1) holds no replica of the loop.
  start();
  run_for(util::Duration::seconds(1));
  std::optional<MigrationOutcome> outcome;
  services[1]->migrate_function(kLoop, 4, ControllerMode::kActive,
                                [&](const MigrationOutcome& o) { outcome = o; });
  ASSERT_TRUE(outcome.has_value());  // reported at once, nothing sent
  EXPECT_FALSE(outcome->success);
  EXPECT_EQ(outcome->failure, "function not held on this node");
  EXPECT_EQ(services[1]->migration().sessions_initiated(), 0u);
  run_for(util::Duration::seconds(5));
  EXPECT_EQ(services[4]->mode(kLoop), ControllerMode::kDormant);
}

TEST_F(ServiceFixture, RebalanceKeepsAFunctionThatIsAlreadyPlaced) {
  // One light function on a node of its own: moving it only costs the
  // keep_cost, so the optimizer leaves it where it runs.
  start();
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(services[1]->rebalance(), 0u);
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(services[2]->mode(kLoop), ControllerMode::kActive);
  EXPECT_EQ(services[1]->failovers().size(), 0u);
}

TEST(Rebalance, SpreadsHeadHeldFunctionsOntoJoinedMembers) {
  // Four functions (U = 0.2 each) start on the head, the only member. Two
  // controllers join through membership hellos; the head's rebalance
  // migrates functions onto them, state and all.
  sim::Simulator sim(11);
  net::Topology topo = net::Topology::full_mesh({1, 2, 3});
  net::Medium medium(sim, topo);
  net::RtLinkSchedule schedule(6, util::Duration::millis(5));
  schedule.assign_tx(0, 1);
  schedule.assign_tx(1, 2);
  schedule.assign_tx(2, 3);
  schedule.assign_tx(3, 1);
  net::TimeSync sync(sim);

  VcDescriptor vc;
  vc.id = 2;
  vc.head = 1;
  vc.members = {1};
  constexpr int kFunctions = 4;
  for (int f = 1; f <= kFunctions; ++f) {
    ControlFunction fn;
    fn.id = static_cast<FunctionId>(f);
    fn.name = "loop-" + std::to_string(f);
    fn.sensor_stream = static_cast<std::uint8_t>(f);
    fn.actuator_channel = static_cast<std::uint8_t>(f);
    fn.task.name = fn.name;
    fn.task.period = util::Duration::millis(500);
    fn.task.wcet = util::Duration::millis(100);
    fn.task.priority = static_cast<rtos::Priority>(8 + f);
    fn.algorithm = *make_passthrough(static_cast<std::uint16_t>(f), fn.sensor_stream,
                                     fn.actuator_channel);
    vc.functions[fn.id] = fn;
    vc.replicas[fn.id] = {1};
  }

  std::map<net::NodeId, std::unique_ptr<Node>> nodes;
  std::map<net::NodeId, std::unique_ptr<EvmService>> services;
  for (net::NodeId id : {1, 2, 3}) {
    NodeConfig config;
    config.id = id;
    nodes[id] = std::make_unique<Node>(sim, medium, schedule, sync, config);
    services[id] = std::make_unique<EvmService>(*nodes[id], vc);
  }
  sync.start();
  for (net::NodeId id : {1, 2, 3}) ASSERT_TRUE(services[id]->start());
  const auto at = [](int s) { return util::TimePoint::zero() + util::Duration::seconds(s); };

  sim.run_until(at(2));
  const double head_before = nodes[1]->kernel().utilization();
  EXPECT_GT(head_before, 0.8);
  services[2]->announce_membership();
  services[3]->announce_membership();
  sim.run_until(at(4));
  ASSERT_EQ(services[1]->members().size(), 3u);

  const std::size_t moved = services[1]->rebalance();
  EXPECT_GE(moved, 2u);
  sim.run_until(at(30));
  EXPECT_EQ(services[1]->migration().sessions_completed(), moved);
  EXPECT_LT(nodes[1]->kernel().utilization(), head_before - 0.3);
  // Each joiner now runs at least one function, and every function has
  // exactly one Active replica.
  for (net::NodeId id : {2, 3}) EXPECT_GT(nodes[id]->kernel().utilization(), 0.1) << id;
  for (int f = 1; f <= kFunctions; ++f) {
    int active = 0;
    for (net::NodeId id : {1, 2, 3}) {
      active += services[id]->mode(static_cast<FunctionId>(f)) == ControllerMode::kActive;
    }
    EXPECT_EQ(active, 1) << "function " << f;
  }
}

}  // namespace
}  // namespace evm::core
