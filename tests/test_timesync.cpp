#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

#include "net/clock.hpp"
#include "net/timesync.hpp"
#include "util/rng.hpp"

namespace evm::net {
namespace {

TEST(NodeClock, ZeroDriftTracksTruth) {
  NodeClock clock(0.0);
  const auto t = util::TimePoint::zero() + util::Duration::seconds(100);
  EXPECT_EQ(clock.local_time(t).ns(), t.ns());
}

TEST(NodeClock, DriftAccumulates) {
  NodeClock clock(100.0);  // +100 ppm
  const auto t = util::TimePoint::zero() + util::Duration::seconds(10);
  // 10 s at +100 ppm -> 1 ms fast.
  EXPECT_NEAR(static_cast<double>((clock.local_time(t) - t).us()), 1000.0, 1.0);
}

TEST(NodeClock, DisciplineZeroesError) {
  NodeClock clock(50.0);
  const auto t1 = util::TimePoint::zero() + util::Duration::seconds(100);
  clock.discipline(t1, t1);  // perfect reference
  EXPECT_EQ(clock.local_time(t1).ns(), t1.ns());
  // Error re-grows from the discipline point.
  const auto t2 = t1 + util::Duration::seconds(10);
  EXPECT_NEAR(static_cast<double>((clock.local_time(t2) - t2).us()), 500.0, 1.0);
}

TEST(NodeClock, GlobalForInvertsLocalTime) {
  NodeClock clock(-75.0);
  clock.discipline(util::TimePoint(123456789), util::TimePoint(120000000));
  const auto local = util::TimePoint::zero() + util::Duration::seconds(55);
  const auto global = clock.global_for(local);
  EXPECT_NEAR(static_cast<double>(clock.local_time(global).ns() - local.ns()), 0.0, 10.0);
}

TEST(TimeSync, DisciplinesAttachedClocks) {
  sim::Simulator sim(4);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  params.jitter_sigma = util::Duration::micros(40);
  params.jitter_max = util::Duration::micros(150);
  TimeSync sync(sim, params);

  NodeClock clock(40.0);
  sync.attach(7, clock);
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(2));

  // After many pulses, clock error is bounded by jitter + drift-per-period,
  // far below undisciplined drift (40 ppm * 2 s = 80 us... bounded anyway).
  const auto err = clock.local_time(sim.now()) - sim.now();
  EXPECT_LT(std::abs(err.ns()), util::Duration::micros(200).ns());
  EXPECT_GE(sync.pulses_emitted(), 20u);
}

TEST(TimeSync, JitterRespectsHardBound) {
  sim::Simulator sim(5);
  TimeSyncParams params;
  params.period = util::Duration::millis(10);
  params.jitter_sigma = util::Duration::micros(60);
  params.jitter_max = util::Duration::micros(150);
  TimeSync sync(sim, params);
  NodeClock clock(0.0);
  std::vector<util::Duration> jitter;
  sync.attach(1, clock, [&](util::Duration j) { jitter.push_back(j); });
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(10));

  ASSERT_GT(jitter.size(), 500u);
  for (const auto& j : jitter) {
    EXPECT_GE(j.ns(), 0);
    EXPECT_LE(j.us(), 150);
  }
}

TEST(TimeSync, SubMillisecondJitterTypical) {
  // The paper's claim: sub-150 us jitter via the AM pulse. With sigma=40 us
  // the mean detection latency is ~32 us; check the empirical mean.
  sim::Simulator sim(6);
  TimeSync sync(sim, {});
  NodeClock clock(10.0);
  double sum = 0.0;
  std::size_t pulses = 0;
  sync.attach(1, clock, [&](util::Duration j) {
    sum += static_cast<double>(j.us());
    ++pulses;
  });
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(200));
  ASSERT_GT(pulses, 0u);
  const double mean_us = sum / static_cast<double>(pulses);
  EXPECT_LT(mean_us, 60.0);
  EXPECT_GT(mean_us, 10.0);
}

TEST(TimeSync, MissedPulsesCounted) {
  sim::Simulator sim(7);
  TimeSyncParams params;
  params.period = util::Duration::millis(10);
  params.miss_probability = 0.5;
  TimeSync sync(sim, params);
  NodeClock clock(0.0);
  sync.attach(1, clock);
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(10));
  EXPECT_GT(sync.pulses_missed(), 300u);
  EXPECT_LT(sync.pulses_missed(), 700u);
}

TEST(TimeSync, CallbackReceivesJitter) {
  sim::Simulator sim(8);
  TimeSync sync(sim, {});
  NodeClock clock(0.0);
  int calls = 0;
  sync.attach(1, clock, [&](util::Duration jitter) {
    EXPECT_GE(jitter.ns(), 0);
    ++calls;
  });
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(5));
  EXPECT_GE(calls, 5);
}

TEST(TimeSync, DetachStopsDisciplining) {
  sim::Simulator sim(9);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  TimeSync sync(sim, params);
  NodeClock clock(1000.0);  // monstrous drift to make error visible
  sync.attach(1, clock);
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(1));
  sync.detach(1);
  sim.run_until(util::TimePoint::zero() + util::Duration::seconds(11));
  // 10 s of undisciplined 1000 ppm drift = 10 ms error.
  const auto err = clock.local_time(sim.now()) - sim.now();
  EXPECT_GT(std::abs(err.us()), 5000);
}

// A jitter of exactly `max`: u1 = 0 makes the normal's magnitude far exceed
// any cap below 37 sigma.
PulseJitter capped_jitter(util::Duration max) {
  return PulseJitter(0.0, 0.0, max, max);
}

TEST(NodeClock, ReceptionTakesEffectAtItsOwnEventKey) {
  sim::Simulator sim(1);
  NodeClock clock(100.0);
  const util::TimePoint at(1'000'000);
  const util::TimePoint reference(900'000);
  std::vector<std::int64_t> reads;
  auto read = [&] { reads.push_back(clock.local_time(sim.now()).ns()); };
  sim.schedule_at(at, read);
  clock.receive(sim, reference, sim.reserve_sequence(), capped_jitter(at - reference));
  sim.schedule_at(at, read);
  sim.run_all();
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0], 1'000'100);  // undisciplined: 1 ms at +100 ppm
  EXPECT_EQ(reads[1], reference.ns());
}

TEST(NodeClock, SecondPendingReceptionIsRejected) {
  sim::Simulator sim(1);
  NodeClock clock(0.0);
  clock.receive(sim, util::TimePoint(100), sim.reserve_sequence(), PulseJitter());
  EXPECT_THROW(clock.receive(sim, util::TimePoint(200), sim.reserve_sequence(),
                             PulseJitter()),
               std::logic_error);
  // Once the first has taken effect, the next one is welcome.
  sim.run_until(util::TimePoint(100));
  EXPECT_NO_THROW(clock.receive(sim, util::TimePoint(300), sim.reserve_sequence(),
                                PulseJitter()));
}

TEST(TimeSync, RejectsPeriodNotAboveJitterMax) {
  sim::Simulator sim(1);
  TimeSyncParams params;
  params.jitter_max = util::Duration::micros(150);
  params.period = params.jitter_max;
  EXPECT_THROW(TimeSync(sim, params), std::invalid_argument);
  params.period = util::Duration::micros(100);
  EXPECT_THROW(TimeSync(sim, params), std::invalid_argument);
  params.period = params.jitter_max + util::Duration(1);
  EXPECT_NO_THROW(TimeSync(sim, params));
  // A negative cap would let a reception land before its own pulse.
  params.jitter_max = util::Duration(-1);
  EXPECT_THROW(TimeSync(sim, params), std::invalid_argument);
}

TEST(PulseJitter, MatchesTheCappedMagnitudeOfTheNormalDrawnFromTheSameUniforms) {
  const util::Duration sigma = util::Duration::micros(40);
  const util::Duration max = util::Duration::micros(100);
  util::Rng uniforms(5);
  util::Rng normals(5);
  std::size_t capped = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u1 = uniforms.next_double();
    const double u2 = uniforms.next_double();
    const PulseJitter jitter(u1, u2, sigma, max);
    const double ns = std::min(std::abs(normals.normal(0.0, static_cast<double>(sigma.ns()))),
                               static_cast<double>(max.ns()));
    ASSERT_EQ(jitter.value().ns(), static_cast<std::int64_t>(ns)) << "draw " << i;
    EXPECT_EQ(jitter.max(), max);
    capped += jitter.value() == max ? 1 : 0;
  }
  EXPECT_GT(capped, 0u);  // 100 us is 2.5 sigma: ~1% of draws
  EXPECT_EQ(PulseJitter().value(), util::Duration::zero());
}

TEST(TimeSync, ClockAttachedTwiceIsRejected) {
  // Two subscribers on one clock would leave two receptions pending on it.
  sim::Simulator sim(1);
  TimeSync sync(sim, {});
  NodeClock clock(0.0);
  sync.attach(1, clock);
  sync.attach(2, clock);
  sync.start();
  EXPECT_THROW(sim.run_until(util::TimePoint::zero()), std::logic_error);
}

TEST(TimeSync, OnPulseFiresAtThePulseBeforeItsReception) {
  sim::Simulator sim(3);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  TimeSync sync(sim, params);
  const double drift_ppm = 500.0;
  NodeClock clock(drift_ppm);
  std::vector<util::TimePoint> pulse_at;
  std::vector<util::Duration> jitters;
  std::vector<std::int64_t> local_at_pulse;
  sync.attach(1, clock, [&](util::Duration jitter) {
    pulse_at.push_back(sim.now());
    jitters.push_back(jitter);
    local_at_pulse.push_back(clock.local_time(sim.now()).ns());
  });
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::millis(350));
  ASSERT_EQ(pulse_at.size(), 4u);
  EXPECT_EQ(local_at_pulse[0], 0);
  for (std::size_t k = 1; k < pulse_at.size(); ++k) {
    EXPECT_EQ(pulse_at[k] - pulse_at[k - 1], params.period);
    // The previous pulse's reception has landed, this pulse's has not: the
    // clock reads the previous nominal time plus drifted time since then.
    const util::Duration since = params.period - jitters[k - 1];
    const auto drifted = static_cast<std::int64_t>(
        static_cast<double>(since.ns()) * (1.0 + drift_ppm * 1e-6));
    EXPECT_EQ(local_at_pulse[k], pulse_at[k - 1].ns() + drifted) << "pulse " << k;
  }
}

TEST(TimeSync, StopThenRestartWithinOnePeriodKeepsOnePulseTrain) {
  sim::Simulator sim(10);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  TimeSync sync(sim, params);
  NodeClock clock(0.0);
  std::vector<util::TimePoint> pulse_at;
  sync.attach(1, clock, [&](util::Duration) { pulse_at.push_back(sim.now()); });
  sync.start();
  const auto ms = [](int n) { return util::TimePoint::zero() + util::Duration::millis(n); };
  sim.run_until(ms(250));  // pulses at 0, 100, 200
  sync.stop();
  sync.start();  // 50 ms after the last pulse: the train restarts now
  sim.run_until(ms(1000));
  // 250, 350, ..., 950 after the restart; the pre-stop chain is gone.
  EXPECT_EQ(sync.pulses_emitted(), 3u + 8u);
  ASSERT_EQ(pulse_at.size(), 11u);
  EXPECT_EQ(pulse_at[3], ms(250));
  for (std::size_t i = 4; i < pulse_at.size(); ++i) {
    EXPECT_EQ(pulse_at[i] - pulse_at[i - 1], params.period);
  }
}

TEST(TimeSync, RestartWaitsOutThePreviousPulsesReceptions) {
  sim::Simulator sim(11);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  params.jitter_max = util::Duration::micros(150);
  TimeSync sync(sim, params);
  NodeClock clock(0.0);
  std::vector<util::TimePoint> pulse_at;
  sync.attach(1, clock, [&](util::Duration) { pulse_at.push_back(sim.now()); });
  sync.start();
  const auto last = util::TimePoint::zero() + util::Duration::millis(100);
  sim.run_until(last + util::Duration::micros(10));
  sync.stop();
  sync.start();
  sim.run_until(last + util::Duration::millis(150));
  ASSERT_EQ(pulse_at.size(), 4u);
  EXPECT_EQ(pulse_at[2], last + params.jitter_max + util::Duration(1));
  EXPECT_EQ(pulse_at[3], pulse_at[2] + params.period);
}

TEST(NodeClock, MappingAtCountsAPendingReceptionOnlyStrictlyBeforeItLands) {
  sim::Simulator sim(1);
  NodeClock clock(200.0);
  const util::TimePoint nominal(10'000'000);
  const util::Duration jitter = util::Duration::micros(120);
  const util::TimePoint lands = nominal + jitter;
  sim.run_until(nominal);
  const NodeClock before = clock;
  clock.receive(sim, nominal, sim.reserve_sequence(), capped_jitter(jitter));
  NodeClock after(200.0);
  after.discipline(lands, nominal);
  for (const util::TimePoint at : {nominal, lands - util::Duration(1), lands}) {
    EXPECT_EQ(clock.mapping_at(at).local_time(at), before.local_time(at)) << at.ns();
    EXPECT_EQ(clock.mapping_at(at).global_for(at), before.global_for(at)) << at.ns();
  }
  for (const util::TimePoint at :
       {lands + util::Duration(1), lands + util::Duration::millis(1), nominal + util::Duration::seconds(1)}) {
    EXPECT_EQ(clock.mapping_at(at).local_time(at), after.local_time(at)) << at.ns();
    EXPECT_EQ(clock.mapping_at(at).global_for(at), after.global_for(at)) << at.ns();
  }
  // Once the reception has landed, the mapping in force is the planned one.
  sim.run_until(lands + util::Duration::millis(1));
  EXPECT_EQ(clock.local_time(sim.now()), after.local_time(sim.now()));
  EXPECT_EQ(clock.mapping_at(sim.now()).local_time(sim.now()), after.local_time(sim.now()));
}

/// Records what its clock promises at each change it reports: the
/// announced pulse's instant in ns, or -1 for none.
class Announcements final : public ClockListener {
 public:
  explicit Announcements(NodeClock& clock) : clock_(clock) { clock_.set_listener(this); }
  ~Announcements() { clock_.set_listener(nullptr); }
  void on_clock_change() override {
    seen.push_back(clock_.expects_pulse() ? clock_.next_pulse().ns() : -1);
  }
  std::vector<std::int64_t> seen;

 private:
  NodeClock& clock_;
};

TEST(TimeSync, AnnouncesTheNextPulseToEveryClockMissedOrNot) {
  sim::Simulator sim(12);
  TimeSyncParams params;
  params.period = util::Duration::millis(100);
  params.miss_probability = 0.5;
  TimeSync sync(sim, params);
  NodeClock a(0.0);
  NodeClock b(0.0);
  Announcements heard_a(a);
  Announcements heard_b(b);
  sync.attach(1, a);
  sync.attach(2, b);
  sync.start();
  sim.run_until(util::TimePoint::zero() + util::Duration::millis(250));  // 0, 100, 200
  EXPECT_GT(sync.pulses_missed(), 0u);
  const std::vector<std::int64_t> train = {100'000'000, 200'000'000, 300'000'000};
  EXPECT_EQ(heard_a.seen, train);
  EXPECT_EQ(heard_b.seen, train);
  b.set_drift_ppm(20.0);  // the mapping moved now; the announcement stands
  EXPECT_EQ(heard_b.seen, (std::vector<std::int64_t>{100'000'000, 200'000'000, 300'000'000,
                                                      300'000'000}));
  sync.detach(2);
  EXPECT_EQ(heard_b.seen.back(), -1);
  sync.stop();
  EXPECT_EQ(heard_a.seen.back(), -1);
  EXPECT_EQ(heard_a.seen.size(), 4u);
  EXPECT_EQ(heard_b.seen.size(), 5u);  // detached: the stop is not its news
}

// --- Reference: the event-per-reception model ------------------------------
//
// TimeSync once scheduled one event per reception, which disciplined the
// clock when it ran. EagerTimeSync keeps that model, with the same draws in
// the same order, so a run under either must read every clock identically.

class EagerTimeSync {
 public:
  EagerTimeSync(sim::Simulator& sim, TimeSyncParams params)
      : sim_(sim), params_(params) {}
  void attach(NodeId id, NodeClock& clock, std::function<void(util::Duration)> hook = {}) {
    subscribers_[id] = Subscriber{&clock, std::move(hook)};
  }
  void detach(NodeId id) { subscribers_.erase(id); }
  void start() { sim_.schedule_after(util::Duration::zero(), [this] { emit_pulse(); }); }

 private:
  struct Subscriber {
    NodeClock* clock;
    std::function<void(util::Duration)> hook;
  };
  void emit_pulse() {
    const util::TimePoint nominal = sim_.now();
    for (auto& [id, sub] : subscribers_) {
      (void)id;
      if (sim_.rng().bernoulli(params_.miss_probability)) continue;
      double ns = std::abs(
          sim_.rng().normal(0.0, static_cast<double>(params_.jitter_sigma.ns())));
      ns = std::min(ns, static_cast<double>(params_.jitter_max.ns()));
      const util::Duration jitter(static_cast<std::int64_t>(ns));
      NodeClock* clock = sub.clock;
      sim_.schedule_after(jitter, [this, clock, nominal] {
        clock->discipline(sim_.now(), nominal);
      });
      if (sub.hook) sub.hook(jitter);
    }
    sim_.schedule_after(params_.period, [this] { emit_pulse(); });
  }

  sim::Simulator& sim_;
  TimeSyncParams params_;
  std::map<NodeId, Subscriber> subscribers_;
};

struct ProbeRun {
  std::vector<std::int64_t> reads;
  std::vector<util::TimePoint> receptions;
  std::size_t dispatched = 0;
};

/// Four clocks under `Sync`, 20% missed pulses, node 2 detached 1 ns after
/// a pulse (its reception of that pulse still lands). Every probe reads
/// every clock. `early` probes are scheduled before the run, so one at a
/// reception instant runs before that reception; each on_pulse schedules
/// a probe at its reception instant, which runs just after it.
template <typename Sync>
ProbeRun probe_run(const std::vector<util::TimePoint>& early) {
  sim::Simulator sim(31);
  TimeSyncParams params;
  params.period = util::Duration::millis(10);
  params.jitter_sigma = util::Duration::micros(60);
  params.jitter_max = util::Duration::micros(150);
  params.miss_probability = 0.2;
  Sync sync(sim, params);
  std::array<NodeClock, 4> clocks{NodeClock(35.0), NodeClock(-20.0),
                                  NodeClock(400.0), NodeClock(-350.0)};
  ProbeRun run;
  const auto probe = [&] {
    const util::TimePoint now = sim.now();
    for (const NodeClock& clock : clocks) {
      run.reads.push_back(now.ns());
      run.reads.push_back(clock.local_time(now).ns());
      run.reads.push_back(clock.error(now).ns());
      run.reads.push_back(clock.global_for(now).ns());
    }
  };
  for (const util::TimePoint t : early) sim.schedule_at(t, probe);
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    sync.attach(static_cast<NodeId>(i + 1), clocks[i], [&](util::Duration jitter) {
      run.receptions.push_back(sim.now() + jitter);
      sim.schedule_after(jitter, probe);
    });
  }
  const auto ms = [](int n) { return util::TimePoint::zero() + util::Duration::millis(n); };
  sim.schedule_at(ms(200) + util::Duration(1), [&] { sync.detach(2); });
  sync.start();
  // Reads between run_until calls, at a pulse instant and just after one.
  sim.run_until(ms(300));
  probe();
  sim.run_until(ms(300) + util::Duration::micros(40));
  probe();
  sim.run_until(ms(500));
  probe();
  run.dispatched = sim.dispatched_events();
  return run;
}

TEST(TimeSync, LazyReceptionsReadExactlyLikeOneEventPerReception) {
  const auto horizon = util::TimePoint::zero() + util::Duration::millis(500);
  // Pass 1 learns the reception instants; the probes read nothing the
  // pulse draws depend on, so they repeat in pass 2.
  const ProbeRun learn = probe_run<EagerTimeSync>({});
  std::vector<util::TimePoint> early;
  for (const util::TimePoint t : learn.receptions) {
    if (t <= horizon) early.push_back(t);
  }
  util::Rng instants(77);
  for (int i = 0; i < 400; ++i) {
    early.emplace_back(static_cast<std::int64_t>(instants.uniform(0.0, 5e8)));
  }

  const ProbeRun eager = probe_run<EagerTimeSync>(early);
  const ProbeRun lazy = probe_run<TimeSync>(early);
  ASSERT_GT(eager.receptions.size(), 100u);
  EXPECT_EQ(lazy.receptions, eager.receptions);
  ASSERT_EQ(lazy.reads.size(), eager.reads.size());
  for (std::size_t i = 0; i < eager.reads.size(); ++i) {
    ASSERT_EQ(lazy.reads[i], eager.reads[i]) << "read " << i;
  }
  // The only difference: receptions no longer cost an event each.
  std::size_t landed = 0;
  for (const util::TimePoint t : eager.receptions) landed += t <= horizon ? 1 : 0;
  EXPECT_EQ(eager.dispatched - lazy.dispatched, landed);
}

/// A discipline() of one clock at one instant, to a reference 12345 ns
/// behind truth.
struct Discipline {
  std::size_t clock;
  util::TimePoint at;
};

/// The world of probe_run without any on_pulse hook, so no jitter is
/// computed before a read needs it. With `learn`, hooks record each
/// reception instant and its node instead, and nothing else changes: the
/// hooks read nothing the draws depend on. Probes run at `early` (after a
/// discipline at the same instant), at `late` and after run_until(480 ms)
/// and run_until(500 ms). A late probe is scheduled 1 ns before its
/// instant, so one at a reception instant runs just after the reception.
/// Pass none in (250 ms, 480 ms) and every clock goes unread for over 20
/// pulses.
template <typename Sync>
ProbeRun hookless_probe_run(const std::vector<util::TimePoint>& early,
                            const std::vector<util::TimePoint>& late,
                            const std::vector<Discipline>& disciplines, bool learn,
                            std::vector<NodeId>* receivers = nullptr) {
  sim::Simulator sim(31);
  TimeSyncParams params;
  params.period = util::Duration::millis(10);
  params.jitter_sigma = util::Duration::micros(60);
  params.jitter_max = util::Duration::micros(150);
  params.miss_probability = 0.2;
  Sync sync(sim, params);
  std::array<NodeClock, 4> clocks{NodeClock(35.0), NodeClock(-20.0),
                                  NodeClock(400.0), NodeClock(-350.0)};
  ProbeRun run;
  const auto probe = [&] {
    const util::TimePoint now = sim.now();
    for (const NodeClock& clock : clocks) {
      run.reads.push_back(now.ns());
      run.reads.push_back(clock.local_time(now).ns());
      run.reads.push_back(clock.error(now).ns());
      run.reads.push_back(clock.global_for(now).ns());
    }
  };
  for (const Discipline& d : disciplines) {
    sim.schedule_at(d.at, [&clocks, &sim, d] {
      clocks[d.clock].discipline(sim.now(), sim.now() - util::Duration(12345));
    });
  }
  for (const util::TimePoint t : early) sim.schedule_at(t, probe);
  for (const util::TimePoint t : late) {
    sim.schedule_at(t - util::Duration(1), [&sim, &probe, t] { sim.schedule_at(t, probe); });
  }
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    const auto id = static_cast<NodeId>(i + 1);
    if (!learn) {
      sync.attach(id, clocks[i]);
      continue;
    }
    sync.attach(id, clocks[i], [&, id](util::Duration jitter) {
      run.receptions.push_back(sim.now() + jitter);
      if (receivers != nullptr) receivers->push_back(id);
    });
  }
  const auto ms = [](int n) { return util::TimePoint::zero() + util::Duration::millis(n); };
  sim.schedule_at(ms(200) + util::Duration(1), [&] { sync.detach(2); });
  sync.start();
  sim.run_until(ms(480));
  probe();
  sim.run_until(ms(480) + util::Duration::micros(40));
  probe();
  sim.run_until(ms(500));
  probe();
  run.dispatched = sim.dispatched_events();
  return run;
}

TEST(TimeSync, HooklessLazyReceptionsReadExactlyLikeOneEventPerReception) {
  const auto ms = [](int n) { return util::TimePoint::zero() + util::Duration::millis(n); };
  const util::Duration period = util::Duration::millis(10);
  std::vector<NodeId> receivers;
  const ProbeRun learn = hookless_probe_run<EagerTimeSync>({}, {}, {}, true, &receivers);
  ASSERT_GT(learn.receptions.size(), 100u);
  ASSERT_EQ(receivers.size(), learn.receptions.size());

  // Reads at every reception instant, before and after the reception, and
  // 1 ns either side, outside the unread stretch (250 ms, 480 ms).
  const auto outside_stretch = [&](util::TimePoint t) { return t <= ms(250) || t >= ms(480); };
  std::vector<util::TimePoint> early;
  std::vector<util::TimePoint> late;
  for (const util::TimePoint t : learn.receptions) {
    if (t > ms(500) || !outside_stretch(t)) continue;
    for (const std::int64_t d : {-1, 0, 1}) early.push_back(t + util::Duration(d));
    late.push_back(t);
  }
  util::Rng instants(78);
  for (int i = 0; i < 400; ++i) {
    const util::TimePoint t(static_cast<std::int64_t>(instants.uniform(0.0, 5e8)));
    if (outside_stretch(t)) early.push_back(t);
  }
  // Late in the stretch, after ten unread pulses or more: discipline node
  // 1's clock between a pulse and its reception of that pulse, and node
  // 3's just after its reception landed, each read right after.
  std::vector<Discipline> disciplines;
  const auto pick = [&](NodeId node, util::TimePoint from, bool before_landing) {
    for (std::size_t i = 0; i < learn.receptions.size(); ++i) {
      const util::TimePoint t = learn.receptions[i];
      const util::TimePoint nominal(t.ns() - t.ns() % period.ns());
      if (receivers[i] != node || nominal < from || t - nominal < util::Duration(2)) continue;
      disciplines.push_back({static_cast<std::size_t>(node - 1),
                             before_landing ? nominal + util::Duration(1)
                                            : t + util::Duration(1)});
      return;
    }
  };
  pick(1, ms(350), true);
  pick(3, ms(400), false);
  ASSERT_EQ(disciplines.size(), 2u);
  for (const Discipline& d : disciplines) {
    ASSERT_LT(d.at, ms(480));
    early.push_back(d.at);
  }

  const ProbeRun eager = hookless_probe_run<EagerTimeSync>(early, late, disciplines, false);
  const ProbeRun lazy = hookless_probe_run<TimeSync>(early, late, disciplines, false);
  ASSERT_EQ(lazy.reads.size(), eager.reads.size());
  for (std::size_t i = 0; i < eager.reads.size(); ++i) {
    ASSERT_EQ(lazy.reads[i], eager.reads[i]) << "read " << i;
  }
  // Each disciplined state shows at the read right after its discipline
  // (a probe pushes now, then per clock four values).
  for (const Discipline& d : disciplines) {
    const auto at = std::find(eager.reads.begin(), eager.reads.end(), d.at.ns());
    ASSERT_NE(at, eager.reads.end());
    EXPECT_EQ(at[4 * static_cast<std::ptrdiff_t>(d.clock) + 1], d.at.ns() - 12345);
  }
  std::size_t landed = 0;
  for (const util::TimePoint t : learn.receptions) landed += t <= ms(500) ? 1 : 0;
  EXPECT_EQ(eager.dispatched - lazy.dispatched, landed);
}

}  // namespace
}  // namespace evm::net
