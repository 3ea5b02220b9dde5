#include <gtest/gtest.h>

#include <memory>

#include "core/control_programs.hpp"
#include "core/service.hpp"

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
  start();
  run_for(util::Duration::millis(500));
  // Node 5 appears from nowhere (new hardware added to the mesh).
  topo.set_link(1, 5, {true, 0.0});
  NodeConfig config;
  config.id = 5;
  auto node5 = std::make_unique<Node>(sim, medium, schedule, sync, config);
  schedule.assign_tx(5, 5);
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

TEST_F(ServiceFixture, ParametricSetTaskPriority) {
  start();
  run_for(util::Duration::millis(500));
  ParametricCommandMsg cmd;
  cmd.op = ParametricCommandMsg::Op::kSetTaskPriority;
  cmd.arg_a = kLoop;
  cmd.arg_b = 3;
  ASSERT_TRUE(services[1]->send_parametric(2, cmd));
  run_for(util::Duration::seconds(1));
  // Find the control task on node 2 and verify the new priority.
  bool found = false;
  for (rtos::TaskId id : nodes[2]->kernel().scheduler().task_ids()) {
    const auto* tcb = nodes[2]->kernel().scheduler().task(id);
    if (tcb->params.name == "loop") {
      EXPECT_EQ(tcb->params.priority, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ServiceFixture, ParametricSlotAssignment) {
  start();
  run_for(util::Duration::millis(500));
  ParametricCommandMsg cmd;
  cmd.op = ParametricCommandMsg::Op::kSetSlotAssignment;
  cmd.arg_a = 7;  // previously idle slot
  cmd.arg_b = 3;
  ASSERT_TRUE(services[1]->send_parametric(2, cmd));
  run_for(util::Duration::seconds(1));
  EXPECT_EQ(schedule.tx_of(7), 3);
}

TEST_F(ServiceFixture, ParametricTriggerSensor) {
  start();
  nodes[2]->bind_sensor(5, [] { return 123.0; });
  run_for(util::Duration::millis(500));
  ParametricCommandMsg cmd;
  cmd.op = ParametricCommandMsg::Op::kTriggerSensor;
  cmd.arg_a = 5;  // channel
  cmd.arg_b = 6;  // stream
  ASSERT_TRUE(services[1]->send_parametric(2, cmd));
  run_for(util::Duration::seconds(1));
  EXPECT_DOUBLE_EQ(services[1]->stream_value(6), 123.0);
  EXPECT_DOUBLE_EQ(services[3]->stream_value(6), 123.0);
}

TEST_F(ServiceFixture, ParametricRejectedFromNonHead) {
  start();
  run_for(util::Duration::millis(500));
  ParametricCommandMsg cmd;
  cmd.op = ParametricCommandMsg::Op::kSetTaskPriority;
  cmd.arg_a = kLoop;
  cmd.arg_b = 1;
  // A non-head service may not issue commands at all.
  EXPECT_FALSE(services[3]->send_parametric(2, cmd));
  // And a spoofed command from a non-head source is discarded on receipt.
  cmd.vc = vc.id;
  ASSERT_TRUE(nodes[4]->router().send(
      2, static_cast<std::uint8_t>(MsgType::kParametricCommand), cmd.encode()));
  run_for(util::Duration::seconds(1));
  for (rtos::TaskId id : nodes[2]->kernel().scheduler().task_ids()) {
    const auto* tcb = nodes[2]->kernel().scheduler().task(id);
    if (tcb->params.name == "loop") {
      EXPECT_EQ(tcb->params.priority, 8);
    }
  }
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
  start();
  run_for(util::Duration::seconds(10));
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

TEST_F(ServiceFixture, BusyHeadPiggyBacksBeaconsInsteadOfBroadcasting) {
  // The head publishes the sensor stream every 100 ms, so every beacon
  // period carries plenty of tagged data-plane frames: the explicit beacon
  // broadcast is withheld (slots reclaimed) while members' head-liveness
  // clocks keep refreshing off the piggy-backed tags — long silence windows
  // notwithstanding, nobody starts a succession.
  start();
  run_for(util::Duration::seconds(30));
  EXPECT_GT(services[1]->beacons_suppressed(), 20u);
  for (net::NodeId id : {2, 3, 4}) {
    EXPECT_EQ(services[id]->head_id(), 1) << "node " << id;
    EXPECT_EQ(services[id]->head_successions(), 0u) << "node " << id;
  }
}

TEST_F(ServiceFixture, QuietHeadFallsBackToExplicitBeacons) {
  // No data traffic at all (the sensor publisher is not started): the
  // fallback path must keep emitting the explicit beacon every period, and
  // members must stay aligned off it alone.
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
  EXPECT_EQ(services[1]->beacons_suppressed(), 0u);
  for (net::NodeId id : {2, 3, 4}) {
    EXPECT_EQ(services[id]->head_id(), 1) << "node " << id;
    EXPECT_EQ(services[id]->head_successions(), 0u) << "node " << id;
  }
}

TEST_F(ServiceFixture, RecoveredBusyHeadReclaimsHeadshipDespiteSuppression) {
  // The split-brain corner of piggy-backing: the original head recovers
  // with plenty of data traffic, so suppression would withhold exactly the
  // explicit beacons the lower-id-reclaims rule rides on. Seeing the
  // usurper's rival tag must force explicit beacons out of both heads until
  // the lower id wins.
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
  EXPECT_GT(services[1]->beacons_suppressed(), 0u);  // piggy-backing active
  nodes[1]->fail();
  run_for(util::Duration::seconds(10));
  EXPECT_EQ(services[2]->head_id(), 2);
  EXPECT_EQ(services[2]->head_successions(), 1u);
  EXPECT_EQ(services[3]->head_id(), 2);
  EXPECT_EQ(services[4]->head_id(), 2);
}

}  // namespace
}  // namespace evm::core
