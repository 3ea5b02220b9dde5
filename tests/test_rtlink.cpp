#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "net/medium.hpp"
#include "net/rtlink.hpp"

namespace evm::net {
namespace {

struct RtLinkFixture : ::testing::Test {
  sim::Simulator sim{42};
  Topology topo = Topology::full_mesh({1, 2, 3});
  Medium medium{sim, topo};
  RtLinkSchedule schedule{8, util::Duration::millis(5)};
  TimeSync sync{sim, {}};

  struct NodeStack {
    NodeClock clock;
    std::unique_ptr<Radio> radio;
    std::unique_ptr<RtLink> mac;
  };
  std::map<NodeId, NodeStack> nodes;

  RtLink& make_node(NodeId id, double drift_ppm = 10.0) {
    auto& stack = nodes[id];
    stack.clock.set_drift_ppm(drift_ppm);
    stack.radio = std::make_unique<Radio>(sim, medium, id);
    stack.mac = std::make_unique<RtLink>(sim, *stack.radio, stack.clock, schedule);
    sync.attach(id, stack.clock);
    return *stack.mac;
  }

  void run_for(util::Duration d) {
    sim.run_until(sim.now() + d);
  }
};

TEST_F(RtLinkFixture, ScheduleAssignment) {
  schedule.assign_tx(0, 1);
  schedule.assign_tx(3, 2);
  EXPECT_EQ(schedule.tx_of(0), 1);
  EXPECT_EQ(schedule.tx_of(3), 2);
  EXPECT_EQ(schedule.tx_of(5), kInvalidNode);
  EXPECT_EQ(schedule.frame_length().ms(), 40);
}

TEST_F(RtLinkFixture, ListenerDefaultsAndRestrictions) {
  schedule.assign_tx(0, 1);
  EXPECT_TRUE(schedule.should_listen(0, 2));   // default: everyone listens
  EXPECT_FALSE(schedule.should_listen(0, 1));  // not the transmitter itself
  EXPECT_FALSE(schedule.should_listen(1, 2));  // idle slot: sleep
  schedule.set_listeners(0, {3});
  EXPECT_FALSE(schedule.should_listen(0, 2));
  EXPECT_TRUE(schedule.should_listen(0, 3));
}

TEST_F(RtLinkFixture, DeliversUnicast) {
  schedule.assign_tx(0, 1);
  schedule.assign_tx(1, 2);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet& p) {
    EXPECT_EQ(p.src, 1);
    ++received;
  });
  sync.start();
  a.start();
  b.start();
  Packet p;
  p.dst = 2;
  p.payload = {0xAA};
  ASSERT_TRUE(a.send(p));
  run_for(util::Duration::millis(200));
  EXPECT_EQ(received, 1);
}

TEST_F(RtLinkFixture, DeliversBroadcastToAll) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  RtLink& c = make_node(3);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  c.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  c.start();
  Packet p;
  p.dst = kBroadcast;
  ASSERT_TRUE(a.send(p));
  run_for(util::Duration::millis(200));
  EXPECT_EQ(received, 2);
}

TEST_F(RtLinkFixture, CollisionFreeUnderLoad) {
  // Both nodes saturate their slots; TDMA keeps the medium collision-free.
  schedule.assign_tx(0, 1);
  schedule.assign_tx(4, 2);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  a.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  for (int frame = 0; frame < 50; ++frame) {
    sim.schedule_after(util::Duration::millis(40 * frame), [&] {
      Packet p;
      p.dst = 2;
      (void)a.send(p);
      Packet q;
      q.dst = 1;
      (void)b.send(q);
    });
  }
  run_for(util::Duration::seconds(3));
  EXPECT_EQ(medium.collision_count(), 0u);
  EXPECT_GE(received, 95);  // ~100 minus queue-timing boundary effects
}

TEST_F(RtLinkFixture, NoSlotNoTransmission) {
  RtLink& a = make_node(1);  // never assigned a slot
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  Packet p;
  p.dst = 2;
  (void)a.send(p);
  run_for(util::Duration::millis(500));
  EXPECT_EQ(received, 0);
}

TEST_F(RtLinkFixture, SleepsWhenIdle) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1);
  sync.start();
  a.start();
  a.radio().reset_energy(sim.now());
  run_for(util::Duration::seconds(10));
  // With nothing to send and nothing to listen to (slots 1-7 idle, slot 0
  // is its own), the node should be asleep nearly all the time.
  const double duty =
      a.radio().time_in(RadioState::kIdleListen).to_seconds() / 10.0;
  EXPECT_LT(duty, 0.05);
}

TEST_F(RtLinkFixture, ListenersBurnEnergyOnlyInActiveSlots) {
  schedule.assign_tx(0, 1);  // 1 slot of 8 active
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  sync.start();
  a.start();
  b.start();
  b.radio().reset_energy(sim.now());
  run_for(util::Duration::seconds(10));
  const double listen_fraction =
      b.radio().time_in(RadioState::kIdleListen).to_seconds() / 10.0;
  // One slot in eight = 12.5 % duty for a listener.
  EXPECT_NEAR(listen_fraction, 0.125, 0.03);
}

TEST_F(RtLinkFixture, StopSilencesNode) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1);
  RtLink& b = make_node(2);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  a.stop();
  Packet p;
  p.dst = 2;
  (void)a.send(p);
  run_for(util::Duration::millis(500));
  EXPECT_EQ(received, 0);
}

TEST_F(RtLinkFixture, DriftWithinGuardStillDelivers) {
  // +/-40 ppm across nodes with 1 s sync period: error ~40 us << 200 us guard.
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1, +40.0);
  RtLink& b = make_node(2, -40.0);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  sync.start();
  a.start();
  b.start();
  for (int i = 0; i < 20; ++i) {
    sim.schedule_after(util::Duration::millis(40 * i), [&] {
      Packet p;
      p.dst = 2;
      (void)a.send(p);
    });
  }
  run_for(util::Duration::seconds(2));
  EXPECT_GE(received, 18);
}

TEST_F(RtLinkFixture, StaleSlotActionsFollowTheRunningFlagAtTheirInstant) {
  // Nodes 2 and 3 listen in slots 0 and 4 of each frame: radio on at 40 ms,
  // off at 45, on at 60, off at 65. Node 1 has nothing to send, so nothing
  // reads the radios until the end.
  schedule.assign_tx(0, 1);
  schedule.assign_tx(4, 1);
  make_node(1, 0.0);
  RtLink& b = make_node(2, 0.0);
  RtLink& c = make_node(3, 0.0);
  b.start();
  c.start();
  // b is stopped from 39 to 47 ms. The restart's frame starts at 80 ms; of
  // the first frame's actions, those due while b was stopped do nothing and
  // the later ones run as scheduled.
  sim.schedule_at(util::TimePoint::zero() + util::Duration::millis(39), [&] { b.stop(); });
  sim.schedule_at(util::TimePoint::zero() + util::Duration::millis(47), [&] { b.start(); });
  run_for(util::Duration::millis(70));
  EXPECT_EQ(b.radio().time_in(RadioState::kIdleListen), util::Duration::millis(5));
  EXPECT_EQ(c.radio().time_in(RadioState::kIdleListen), util::Duration::millis(10));
}

TEST_F(RtLinkFixture, ScheduleIsFrozenOnceANodeStarts) {
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1);
  a.start();
  EXPECT_THROW(schedule.assign_tx(1, 2), std::logic_error);
  EXPECT_THROW(schedule.set_listeners(0, {2}), std::logic_error);
  EXPECT_EQ(schedule.tx_of(1), kInvalidNode);
}

TEST_F(RtLinkFixture, KeepsFramingWithoutPulses) {
  // 40 ms frames. Frames run off the pulses while time sync runs, and off
  // a frame event of their own once the clock expects no pulse: before the
  // train starts, after a detach (node 1) and after the train stops (node 2).
  schedule.assign_tx(0, 1);
  RtLink& a = make_node(1, 0.0);
  RtLink& b = make_node(2, 0.0);
  int received = 0;
  b.set_receive_handler([&](const Packet&) { ++received; });
  a.start();
  b.start();
  // Boundaries at 0 (the start) and 77.5, 117.5, ... ms: 25 frames a second.
  // Each phase outlasts the pulse announced last before it.
  const auto phase = [&](int n) {
    Packet p;
    p.dst = 2;
    ASSERT_TRUE(a.send(p));
    run_for(util::Duration::millis(2000));
    EXPECT_EQ(a.frames_run(), 50u * static_cast<std::size_t>(n)) << "phase " << n;
    EXPECT_EQ(b.frames_run(), 50u * static_cast<std::size_t>(n)) << "phase " << n;
    EXPECT_EQ(received, n);
  };
  phase(1);  // not started
  sync.start();
  phase(2);
  sync.detach(1);
  phase(3);
  sync.stop();
  phase(4);
  sync.attach(1, nodes[1].clock);
  sync.start();
  phase(5);
}

// --- Reference: one event per slot action -----------------------------------
//
// RtLink once scheduled an event for every listen start, sleep and TX-slot
// pop. EagerRtLink keeps that model, with each pop scheduled at the frame
// boundary in timeline order, which is where RtLink reserves the pop's key.
// A run under either must read every radio identically at every instant and
// deliver the same packets at the same times.

class EagerRtLink final : public Mac {
 public:
  EagerRtLink(sim::Simulator& sim, Radio& radio, NodeClock& clock,
              RtLinkSchedule& schedule)
      : Mac(sim, radio), clock_(clock), schedule_(schedule) {}

  void start() override {
    if (running_) return;
    running_ = true;
    radio_.set_state(RadioState::kOff);
    radio_.set_receive_handler([this](const Packet& p) { deliver_up(p); });
    begin_frame();
  }
  void stop() override {
    running_ = false;
    sim_.cancel(frame_event_);
    radio_.set_state(RadioState::kOff);
  }

  /// Every instant at which this link scheduled a slot action, the subset
  /// that are pops, and every frame event's instant.
  std::vector<util::TimePoint> action_instants;
  std::vector<util::TimePoint> pop_instants;
  std::vector<util::TimePoint> frame_instants;

 private:
  enum class Action { kPop, kListen, kSleep };

  void begin_frame() {
    if (!running_) return;
    frame_instants.push_back(sim_.now());
    const util::Duration frame_len = schedule_.frame_length();
    const util::TimePoint local_now = clock_.local_time(sim_.now());
    const util::TimePoint local_start((local_now.ns() / frame_len.ns() + 1) *
                                      frame_len.ns());
    const auto act = [&](int slot, Action action) {
      const util::TimePoint at =
          clock_.global_for(local_start + schedule_.slot_length() * slot);
      if (at <= sim_.now()) return;
      switch (action) {
        case Action::kPop:
          action_instants.push_back(at + schedule_.guard());
          pop_instants.push_back(at + schedule_.guard());
          sim_.schedule_at(at + schedule_.guard(), [this] { pop(); });
          return;
        case Action::kListen:
          sim_.schedule_at(at, [this] {
            if (running_) radio_.set_state(RadioState::kIdleListen);
          });
          break;
        case Action::kSleep:
          sim_.schedule_at(at, [this] {
            if (running_ && !radio_.transmitting()) radio_.set_state(RadioState::kOff);
          });
          break;
      }
      action_instants.push_back(at);
    };
    // The merged timeline: one action per TX slot and per listen-run edge; a
    // run that flows into our TX slot or wraps into the next frame's opening
    // listen/TX run emits no sleep.
    const int slots = schedule_.slots_per_frame();
    bool listening = false;
    for (int slot = 0; slot < slots; ++slot) {
      if (schedule_.tx_of(slot) == id()) {
        listening = false;
        act(slot, Action::kPop);
      } else if (schedule_.should_listen(slot, id())) {
        if (!listening) act(slot, Action::kListen);
        listening = true;
      } else if (listening) {
        act(slot, Action::kSleep);
        listening = false;
      }
    }
    if (listening && schedule_.tx_of(0) != id() && !schedule_.should_listen(0, id())) {
      act(slots, Action::kSleep);
    }
    frame_event_ = sim_.schedule_at(
        clock_.global_for(local_start + frame_len - schedule_.slot_length() / 2),
        [this] { begin_frame(); });
  }

  void pop() {
    if (!running_) return;
    auto packet = dequeue();
    if (!packet.has_value()) {
      radio_.set_state(RadioState::kOff);
      return;
    }
    radio_.set_state(RadioState::kIdleListen);
    ++stats_.sent;
    radio_.transmit(*packet, [this] { radio_.set_state(RadioState::kOff); });
  }

  NodeClock& clock_;
  RtLinkSchedule& schedule_;
  sim::EventHandle frame_event_;
};

struct ScriptedSend {
  util::TimePoint at;
  NodeId from;
  NodeId dst;
  std::size_t bytes;
};

struct DriftChange {
  double ms;
  NodeId node;
  double ppm;
};

/// What one twin run varies: the pulse period (the frame is 16 ms), the
/// traffic and any drift changes.
struct LinkScript {
  util::Duration pulse_period = util::Duration::millis(100);
  std::vector<ScriptedSend> sends;
  std::vector<DriftChange> drifts;
};

struct LinkRun {
  std::vector<std::int64_t> reads;
  std::vector<double> charge;      // consumed_mah, compared exactly
  std::vector<std::int64_t> rx;    // (time, receiver, src, seq) per delivery
  std::vector<util::TimePoint> action_instants;         // all nodes
  std::vector<std::vector<util::TimePoint>> pop_instants;  // per node
  std::size_t dispatched = 0;
};

util::TimePoint at_ms(double ms) {
  return util::TimePoint::zero() + util::Duration::from_seconds(ms / 1000.0);
}

/// Four nodes on 2 ms slots, drifting clocks under time sync with jitter and
/// missed pulses, random traffic (packets long enough to spill into the next
/// slot), node 1 and node 2 owning two TX slots each, listener sets that
/// make wrapping runs and a frame-edge sleep. Links stop and restart inside
/// one frame, inside node 3's guard interval, and across frames, each time
/// with frames planned ahead, and node 3 keys its radio directly so that its
/// listen run's sleep falls mid-transmission. Every link draws loss from its
/// own burst process, so the simulator's stream (time-sync draws) and with
/// it every action instant is independent of the traffic. `probes` each
/// read every radio, then schedule a second read at the same instant, which
/// runs after everything already keyed there.
template <typename Link>
LinkRun link_run(const LinkScript& script, const std::vector<util::TimePoint>& probes) {
  sim::Simulator sim(23);
  Topology topo = Topology::full_mesh({1, 2, 3, 4});
  Medium medium(sim, topo);
  for (NodeId a = 1; a <= 4; ++a) {
    for (NodeId b = a + 1; b <= 4; ++b) medium.set_burst_loss(a, b, {}, 10u * a + b);
  }
  RtLinkSchedule schedule(8, util::Duration::millis(2));
  schedule.assign_tx(0, 1);
  schedule.set_listeners(0, {2, 3});
  schedule.assign_tx(1, 2);
  schedule.set_listeners(1, {1, 3});
  schedule.assign_tx(3, 3);
  schedule.assign_tx(4, 1);
  schedule.assign_tx(5, 4);
  schedule.set_listeners(5, {2});
  schedule.assign_tx(7, 2);  // everyone listens: nodes 3 and 1 wrap, node 4 sleeps at the edge
  TimeSyncParams params;
  params.period = script.pulse_period;
  params.miss_probability = 0.1;
  TimeSync sync(sim, params);
  std::array<NodeClock, 4> clocks{NodeClock(35.0), NodeClock(-40.0), NodeClock(0.0),
                                  NodeClock(-350.0)};
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<Link>> links;
  LinkRun run;
  for (NodeId id = 1; id <= 4; ++id) {
    radios.push_back(std::make_unique<Radio>(sim, medium, id));
    links.push_back(std::make_unique<Link>(sim, *radios.back(), clocks[id - 1], schedule));
    links.back()->set_receive_handler([&run, &sim, id](const Packet& p) {
      run.rx.insert(run.rx.end(), {sim.now().ns(), id, p.src, p.seq});
    });
    sync.attach(id, clocks[id - 1]);
  }

  const auto probe = [&] {
    run.reads.push_back(sim.now().ns());
    for (const auto& radio : radios) {
      run.reads.push_back(static_cast<std::int64_t>(radio->state()));
      run.reads.push_back(radio->listening() ? 1 : 0);
      for (RadioState s : {RadioState::kOff, RadioState::kIdleListen, RadioState::kRx,
                           RadioState::kTx}) {
        run.reads.push_back(radio->time_in(s).ns());
      }
      run.charge.push_back(radio->consumed_mah());
    }
  };
  for (const util::TimePoint t : probes) {
    sim.schedule_at(t, [&] {
      probe();
      sim.schedule_at(sim.now(), probe);
    });
  }
  for (const ScriptedSend& send : script.sends) {
    sim.schedule_at(send.at, [&links, send] {
      Packet p;
      p.dst = send.dst;
      p.payload.assign(send.bytes, 0xA5);
      (void)links[send.from - 1]->send(p);
    });
  }
  const auto at = [&sim](double ms, auto fn) { sim.schedule_at(at_ms(ms), fn); };
  for (const DriftChange& drift : script.drifts) {
    at(drift.ms, [&clocks, drift] { clocks[drift.node - 1].set_drift_ppm(drift.ppm); });
  }
  // Node 2: stop and restart inside the frame [192, 208) ms.
  at(193.5, [&] { links[1]->stop(); });
  at(205.5, [&] { links[1]->start(); });
  // Node 3 (undrifted: its slot 3 pop lands 200-350 us into the slot):
  // queue a packet, then stop and restart inside the guard, before the pop.
  at(321.0, [&] { (void)links[2]->send(Packet{}); });
  at(326.1, [&] { links[2]->stop(); });
  at(326.18, [&] { links[2]->start(); });
  // ... and stop inside the guard, restarting only next frame.
  at(481.0, [&] { (void)links[2]->send(Packet{}); });
  at(486.1, [&] { links[2]->stop(); });
  at(500.0, [&] { links[2]->start(); });
  // Node 4 sits out three frames.
  at(700.0, [&] { links[3]->stop(); });
  at(760.0, [&] { links[3]->start(); });
  // Radios keyed directly. Node 3 listens through slots 7, 0 and 1 and
  // sleeps at slot 2 (4 ms): a 100-byte burst (3.7 ms on the air) keyed at
  // 1.5 ms is still on the air then. Keyed at 2.9 ms, it also outlasts the
  // slot-3 pop (6.2 ms), which turns the radio off mid-burst when the queue
  // is empty. Node 4 wakes for slot 3, which node 3 mostly leaves idle, so
  // at 6.5 ms nothing has read its radio since it woke.
  const struct {
    double ms;
    std::size_t node;
    std::size_t bytes;
  } bursts[] = {{641.5, 2, 100}, {882.9, 2, 100}, {962.9, 2, 100},
                {1046.5, 3, 20}, {1126.5, 3, 20}};
  for (const auto& burst : bursts) {
    at(burst.ms, [&radios, burst] {
      Packet p;
      p.payload.assign(burst.bytes, 0x5A);
      (void)radios[burst.node]->transmit(p);
    });
  }

  sync.start();
  for (auto& link : links) link->start();
  // Reads between run_until calls too, one of them at an action instant.
  sim.run_until(at_ms(600));
  probe();
  const auto later = std::find_if(probes.begin(), probes.end(),
                                  [](util::TimePoint t) { return t > at_ms(600); });
  if (later != probes.end()) {
    sim.run_until(*later);
    probe();
  }
  sim.run_until(at_ms(1200));
  probe();
  run.reads.push_back(static_cast<std::int64_t>(medium.delivered_count()));
  run.reads.push_back(static_cast<std::int64_t>(medium.collision_count()));
  run.reads.push_back(static_cast<std::int64_t>(medium.loss_count()));
  for (const auto& link : links) {
    run.reads.push_back(static_cast<std::int64_t>(link->stats().sent));
    run.reads.push_back(static_cast<std::int64_t>(link->stats().enqueued));
    if constexpr (std::is_same_v<Link, EagerRtLink>) {
      run.action_instants.insert(run.action_instants.end(), link->action_instants.begin(),
                                 link->action_instants.end());
      run.pop_instants.push_back(link->pop_instants);
    }
  }
  run.dispatched = sim.dispatched_events();
  return run;
}

/// Runs `script`, plus random traffic, under EagerRtLink and RtLink, probing
/// every radio at every action instant and at random instants, and expects
/// the two to read alike throughout.
void expect_twins(LinkScript script) {
  const util::TimePoint horizon = at_ms(1200);
  util::Rng draw(5);
  for (int i = 0; i < 250; ++i) {
    // Node 3 is left out so that its queue is mostly empty (idle pops).
    const NodeId senders[] = {1, 2, 4};
    const NodeId from = senders[draw.uniform_int(0, 2)];
    NodeId dst = static_cast<NodeId>(1 + draw.uniform_int(0, 3));
    if (dst == from) dst = kBroadcast;
    script.sends.push_back({at_ms(draw.uniform(0.0, 1200.0)), from, dst,
                            static_cast<std::size_t>(draw.uniform_int(0, 90))});
  }
  // Node 1's slot-0 guard window: before, at and after its pop.
  for (int frame = 1; frame < 75; frame += 2) {
    script.sends.push_back({at_ms(16.0 * frame + draw.uniform(0.0, 0.4)), 1, 2, 20});
  }

  // Pass 1 learns the action instants; the traffic does not move them.
  const LinkRun learn = link_run<EagerRtLink>(script, {});
  std::vector<util::TimePoint> probes;
  for (const util::TimePoint t : learn.action_instants) {
    if (t <= horizon) probes.push_back(t);
  }
  ASSERT_GT(probes.size(), 1000u);
  // Sends exactly at some of each node's own pop instants: queued ahead of
  // the pop, they must go out in that very slot.
  for (NodeId id = 1; id <= 4; ++id) {
    const std::vector<util::TimePoint>& pops = learn.pop_instants[id - 1];
    for (std::size_t i = id; i < pops.size(); i += 9) {
      script.sends.push_back({pops[i], id, kBroadcast, 10});
    }
  }
  for (int i = 0; i < 400; ++i) {
    probes.emplace_back(static_cast<std::int64_t>(draw.uniform(0.0, 1.2e9)));
  }

  const LinkRun eager = link_run<EagerRtLink>(script, probes);
  const LinkRun lazy = link_run<RtLink>(script, probes);
  EXPECT_EQ(eager.action_instants, learn.action_instants);
  ASSERT_GT(eager.rx.size(), 200u);
  EXPECT_EQ(lazy.rx, eager.rx);
  ASSERT_EQ(lazy.reads.size(), eager.reads.size());
  for (std::size_t i = 0; i < eager.reads.size(); ++i) {
    ASSERT_EQ(lazy.reads[i], eager.reads[i]) << "read " << i;
  }
  ASSERT_EQ(lazy.charge.size(), eager.charge.size());
  for (std::size_t i = 0; i < eager.charge.size(); ++i) {
    ASSERT_EQ(lazy.charge[i], eager.charge[i]) << "charge read " << i;
  }
  EXPECT_LT(lazy.dispatched, eager.dispatched);

  // Without probes nothing outside the stack reads a radio before the end:
  // deliveries must still match (the medium applies due changes itself).
  const LinkRun eager_quiet = link_run<EagerRtLink>(script, {});
  const LinkRun lazy_quiet = link_run<RtLink>(script, {});
  EXPECT_EQ(lazy_quiet.rx, eager_quiet.rx);
  EXPECT_EQ(lazy_quiet.reads, eager_quiet.reads);
  EXPECT_EQ(lazy_quiet.charge, eager_quiet.charge);
}

TEST(RtLinkLazy, SlotActionsReadExactlyLikeOneEventPerAction) {
  // 16 ms frames under 100 ms pulses: each pulse plans about six frames, and
  // every stop in the script withdraws some (node 3 queues packets while
  // its idle pops are planned).
  expect_twins(LinkScript{});
}

TEST(RtLinkLazy, FramesLongerThanThePulsePeriodReadLikeEvents) {
  // 16 ms frames under 10 ms pulses: most pulses plan one frame or none.
  LinkScript script;
  script.pulse_period = util::Duration::millis(10);
  expect_twins(script);
}

TEST(RtLinkLazy, DriftChangesBetweenPlanningAndBoundaryReadLikeEvents) {
  // Each change lands between a pulse and the boundaries it planned; the
  // frames after it must follow the new drift.
  LinkScript script;
  script.drifts = {{437.3, 2, 150.0}, {911.7, 4, 0.0}, {1013.1, 1, -300.0}};
  expect_twins(script);
}

TEST(RtLinkLazy, QueueStillHoldingPacketsAfterAPopReadsLikeEvents) {
  // Node 3 owns one TX slot per frame and gets three packets at once, in
  // two rounds: each of its pops leaves packets queued for the next.
  LinkScript script;
  for (const double ms : {531.0, 1061.0}) {
    for (int i = 0; i < 3; ++i) script.sends.push_back({at_ms(ms), 3, kBroadcast, 30});
  }
  expect_twins(script);
}

/// Two undrifted nodes on 2 ms slots: node 1 transmits in slot 0, node 2
/// listens to it. Pulses come every 100 ms from `sync_at` on. Probes read
/// node 2's radio, before and after what is keyed at their instant.
struct TieRun {
  std::vector<std::int64_t> reads;
  std::vector<util::TimePoint> action_instants;  // EagerRtLink only
  std::vector<util::TimePoint> frame_instants;   // EagerRtLink only
  std::vector<util::Duration> jitters;           // node 2's receptions
  std::vector<util::TimePoint> landings;
};

template <typename Link>
TieRun tie_run(util::TimePoint sync_at, const std::vector<util::TimePoint>& probes) {
  sim::Simulator sim(8);
  Topology topo = Topology::full_mesh({1, 2});
  Medium medium(sim, topo);
  RtLinkSchedule schedule(8, util::Duration::millis(2));
  schedule.assign_tx(0, 1);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  TimeSync sync(sim, params);
  std::array<NodeClock, 2> clocks{NodeClock(0.0), NodeClock(0.0)};
  TieRun run;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<Link>> links;
  for (NodeId id = 1; id <= 2; ++id) {
    radios.push_back(std::make_unique<Radio>(sim, medium, id));
    links.push_back(std::make_unique<Link>(sim, *radios.back(), clocks[id - 1], schedule));
  }
  sync.attach(1, clocks[0]);
  sync.attach(2, clocks[1], [&](util::Duration jitter) {
    run.jitters.push_back(jitter);
    run.landings.push_back(sim.now() + jitter);
  });
  const auto probe = [&] {
    run.reads.push_back(sim.now().ns());
    run.reads.push_back(static_cast<std::int64_t>(radios[1]->state()));
    run.reads.push_back(radios[1]->time_in(RadioState::kIdleListen).ns());
  };
  for (const util::TimePoint t : probes) {
    sim.schedule_at(t, [&] {
      probe();
      sim.schedule_at(sim.now(), probe);
    });
  }
  sim.schedule_at(sync_at, [&] { sync.start(); });
  for (auto& link : links) link->start();
  sim.run_until(at_ms(600));
  probe();
  if constexpr (std::is_same_v<Link, EagerRtLink>) {
    run.action_instants = links[1]->action_instants;
    run.frame_instants = links[1]->frame_instants;
  }
  return run;
}

TEST(RtLinkLazy, ReceptionLandingOnAFrameBoundaryCountsFromTheNextFrame) {
  // Node 2's detection latencies j_m do not depend on when the pulses fall.
  const TieRun learn = tie_run<EagerRtLink>(util::TimePoint::zero(), {});
  ASSERT_GE(learn.jitters.size(), 4u);
  ASSERT_NE(learn.jitters[2], learn.jitters[3]);
  // Undrifted, node 2's clock lags truth by j_2 between receptions 2 and 3,
  // so frame 20's boundary (local 319 ms) falls at 319 ms + j_2. Pulse 3 at
  // 319 ms + j_2 - j_3 lands exactly there. The frame event ran before that
  // reception, so frame 20 keys its slots without it, and so must a plan.
  const util::TimePoint sync_at = at_ms(19.0) + learn.jitters[2] - learn.jitters[3];
  const TieRun layout = tie_run<EagerRtLink>(sync_at, {});
  ASSERT_EQ(layout.landings[3], at_ms(319.0) + learn.jitters[2]);
  ASSERT_NE(std::find(layout.frame_instants.begin(), layout.frame_instants.end(),
                      layout.landings[3]),
            layout.frame_instants.end());

  const TieRun eager = tie_run<EagerRtLink>(sync_at, layout.action_instants);
  const TieRun lazy = tie_run<RtLink>(sync_at, layout.action_instants);
  ASSERT_EQ(lazy.reads.size(), eager.reads.size());
  for (std::size_t i = 0; i < eager.reads.size(); ++i) {
    ASSERT_EQ(lazy.reads[i], eager.reads[i]) << "read " << i;
  }
}

// --- The merged timeline against a per-slot walk -----------------------------

/// The timeline as one pass over every slot derives it.
std::vector<SlotAction> per_slot_timeline(const RtLinkSchedule& schedule, NodeId node) {
  std::vector<SlotAction> out;
  const int slots = schedule.slots_per_frame();
  bool listening = false;
  for (int slot = 0; slot < slots; ++slot) {
    if (schedule.tx_of(slot) == node) {
      listening = false;
      out.push_back(SlotAction{slot, SlotAction::kTx});
    } else if (schedule.should_listen(slot, node)) {
      if (!listening) out.push_back(SlotAction{slot, SlotAction::kListenStart});
      listening = true;
    } else if (listening) {
      out.push_back(SlotAction{slot, SlotAction::kSleep});
      listening = false;
    }
  }
  if (listening && schedule.tx_of(0) != node && !schedule.should_listen(0, node)) {
    out.push_back(SlotAction{slots, SlotAction::kSleep});
  }
  return out;
}

TEST(RtLinkScheduleTimeline, MatchesAPerSlotWalkOverRandomSchedules) {
  util::Rng draw(11);
  std::size_t wraps = 0;
  std::size_t edge_sleeps = 0;
  std::size_t restricted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int slots = static_cast<int>(draw.uniform_int(1, 20));
    RtLinkSchedule schedule(slots, util::Duration::millis(1));
    for (int slot = 0; slot < slots; ++slot) {
      if (draw.uniform(0.0, 1.0) < 0.7) {
        schedule.assign_tx(slot, static_cast<NodeId>(draw.uniform_int(1, 5)));
      }
      if (draw.uniform(0.0, 1.0) < 0.25) {
        std::set<NodeId> listeners;
        for (NodeId id = 1; id <= 6; ++id) {
          if (draw.uniform(0.0, 1.0) < 0.5) listeners.insert(id);
        }
        schedule.set_listeners(slot, listeners);
        ++restricted;
      }
    }
    std::vector<std::vector<SlotAction>> expected;
    for (NodeId id = 1; id <= 6; ++id) {  // node 6 owns no slot
      expected.push_back(per_slot_timeline(schedule, id));
      const bool at_edge = schedule.should_listen(slots - 1, id);
      const bool into_next = schedule.tx_of(0) == id || schedule.should_listen(0, id);
      wraps += at_edge && into_next ? 1 : 0;
      edge_sleeps += at_edge && !into_next ? 1 : 0;
    }
    for (NodeId id = 1; id <= 6; ++id) {
      ASSERT_EQ(schedule.timeline_of(id), expected[id - 1])
          << "trial " << trial << ", node " << id;
    }
  }
  EXPECT_GT(wraps, 50u);
  EXPECT_GT(edge_sleeps, 50u);
  EXPECT_GT(restricted, 200u);
}

}  // namespace
}  // namespace evm::net
