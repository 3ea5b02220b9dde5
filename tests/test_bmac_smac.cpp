#include <gtest/gtest.h>

#include <memory>

#include "net/bmac.hpp"
#include "net/medium.hpp"
#include "net/smac.hpp"

namespace evm::net {
namespace {

struct LplFixture : ::testing::Test {
  sim::Simulator sim{17};
  Topology topo = Topology::full_mesh({1, 2, 3});
  Medium medium{sim, topo};
  std::map<NodeId, std::unique_ptr<Radio>> radios;

  Radio& radio(NodeId id) {
    auto& r = radios[id];
    if (!r) r = std::make_unique<Radio>(sim, medium, id);
    return *r;
  }
  void run_for(util::Duration d) { sim.run_until(sim.now() + d); }
};

TEST_F(LplFixture, BMacDeliversUnicast) {
  BMac a(sim, radio(1));
  BMac b(sim, radio(2));
  int received = 0;
  b.set_receive_handler([&](const Packet& p) {
    EXPECT_EQ(p.src, 1);
    ++received;
  });
  a.start();
  b.start();
  Packet p;
  p.dst = 2;
  p.payload = {9};
  ASSERT_TRUE(a.send(p));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(received, 1);
}

TEST_F(LplFixture, BMacDeliversSeriesOfPackets) {
  BMac a(sim, radio(1));
  BMac b(sim, radio(2));
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  a.start();
  b.start();
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(util::Duration::millis(400 * i), [&] {
      Packet p;
      p.dst = 2;
      (void)a.send(p);
    });
  }
  run_for(util::Duration::seconds(10));
  EXPECT_GE(received, 8);
}

TEST_F(LplFixture, BMacIdleDutyCycleScalesWithCheckInterval) {
  BMacParams fast;
  fast.check_interval = util::Duration::millis(20);
  BMacParams slow;
  slow.check_interval = util::Duration::millis(200);
  BMac a(sim, radio(1), fast);
  BMac b(sim, radio(2), slow);
  a.start();
  b.start();
  radio(1).reset_energy(sim.now());
  radio(2).reset_energy(sim.now());
  run_for(util::Duration::seconds(20));
  const double duty_fast = radio(1).time_in(RadioState::kIdleListen).to_seconds() / 20.0;
  const double duty_slow = radio(2).time_in(RadioState::kIdleListen).to_seconds() / 20.0;
  EXPECT_GT(duty_fast, duty_slow * 5.0);  // 10x check rate -> ~10x idle duty
}

TEST_F(LplFixture, BMacSenderPaysPreambleCost) {
  BMacParams params;
  params.check_interval = util::Duration::millis(100);
  BMac a(sim, radio(1), params);
  BMac b(sim, radio(2), params);
  b.start();
  a.start();
  radio(1).reset_energy(sim.now());
  Packet p;
  p.dst = 2;
  (void)a.send(p);
  run_for(util::Duration::seconds(1));
  // TX time must be at least the preamble (one check interval).
  EXPECT_GE(radio(1).time_in(RadioState::kTx).ms(), 100);
}

TEST_F(LplFixture, SMacDeliversWithinListenWindows) {
  SMacParams params;
  params.frame_length = util::Duration::millis(500);
  params.duty_cycle = 0.2;
  SMac a(sim, radio(1), params);
  SMac b(sim, radio(2), params);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  a.start();
  b.start();
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(util::Duration::millis(500 * i), [&] {
      Packet p;
      p.dst = 2;
      (void)a.send(p);
    });
  }
  run_for(util::Duration::seconds(8));
  EXPECT_GE(received, 7);
}

TEST_F(LplFixture, SMacDutyCycleMatchesConfig) {
  SMacParams params;
  params.frame_length = util::Duration::seconds(1);
  params.duty_cycle = 0.10;
  SMac a(sim, radio(1), params);
  a.start();
  radio(1).reset_energy(sim.now());
  run_for(util::Duration::seconds(30));
  const double duty = radio(1).time_in(RadioState::kIdleListen).to_seconds() / 30.0;
  EXPECT_NEAR(duty, 0.10, 0.02);
}

TEST_F(LplFixture, SMacIdleCostIndependentOfTraffic) {
  // S-MAC's listen window burns the same energy whether or not traffic
  // flows — the structural disadvantage the paper's RT-Link avoids.
  SMacParams params;
  params.frame_length = util::Duration::seconds(1);
  params.duty_cycle = 0.10;
  SMac a(sim, radio(1), params);
  SMac b(sim, radio(2), params);
  a.start();
  b.start();
  radio(1).reset_energy(sim.now());
  run_for(util::Duration::seconds(10));
  const double idle_duty = radio(1).time_in(RadioState::kIdleListen).to_seconds() / 10.0;
  EXPECT_GT(idle_duty, 0.08);
}

TEST_F(LplFixture, BMacStopPowersDownAndEndsSampling) {
  BMacParams params;
  params.check_interval = util::Duration::millis(20);
  BMac a(sim, radio(1), params);
  a.start();
  run_for(util::Duration::seconds(1));
  a.stop();
  EXPECT_EQ(radio(1).state(), RadioState::kOff);
  radio(1).reset_energy(sim.now());
  run_for(util::Duration::seconds(2));
  // No channel sample wakes the radio after stop.
  EXPECT_EQ(radio(1).time_in(RadioState::kIdleListen).ns(), 0);
  EXPECT_EQ(radio(1).state(), RadioState::kOff);
}

TEST_F(LplFixture, SMacStopPowersDownAndEndsListening) {
  SMacParams params;
  params.frame_length = util::Duration::millis(500);
  params.duty_cycle = 0.5;
  SMac a(sim, radio(1), params);
  a.start();
  run_for(util::Duration::millis(1100));  // inside the third listen window
  EXPECT_EQ(radio(1).state(), RadioState::kIdleListen);
  a.stop();
  EXPECT_EQ(radio(1).state(), RadioState::kOff);
  radio(1).reset_energy(sim.now());
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(radio(1).time_in(RadioState::kIdleListen).ns(), 0);
}

TEST_F(LplFixture, BMacNotStartedNeverKeysTheRadio) {
  BMac a(sim, radio(1));
  BMac b(sim, radio(2));
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  b.start();
  Packet p;
  p.dst = 2;
  // A MAC that was never started queues the packet but never transmits it.
  ASSERT_TRUE(a.send(p));
  run_for(util::Duration::seconds(2));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(a.stats().sent, 0u);
  EXPECT_EQ(radio(1).tx_count(), 0u);
}

TEST_F(LplFixture, MacQueueOverflowReportsError) {
  BMac a(sim, radio(1), {}, /*queue_capacity=*/2);
  a.start();
  Packet p;
  p.dst = 2;
  // Before the MAC can drain (check interval), flood the queue. The first
  // packet may begin transmitting immediately, so capacity+1 sends succeed.
  (void)a.send(p);
  (void)a.send(p);
  (void)a.send(p);
  const util::Status status = a.send(p);
  EXPECT_FALSE(status);
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_GE(a.stats().queue_drops, 1u);
}

}  // namespace
}  // namespace evm::net
