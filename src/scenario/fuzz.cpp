#include "scenario/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>

#include "scenario/campaign.hpp"
#include "util/rng.hpp"

namespace evm::scenario {

using util::Json;
using util::Rng;

namespace {

// The generator's validity rules. They keep generated scenarios inside the
// envelope the paper claims to survive (bounded loss, bounded node
// downtime), so an invariant violation is a bug, not an unsurvivable world.

/// Cap on per-link i.i.d. loss events. (Gilbert-Elliott bursts draw their
/// bad-state loss from a fixed [0.3, 0.9] — bursts are bounded in *time*
/// by clears and the failover-settle window, not in intensity.)
constexpr double kMaxLinkLoss = 0.35;
/// Cap on the Fig. 5 world's background loss on every link.
constexpr double kMaxTestbedLoss = 0.15;
/// A forced restart (any non-controller node, and every controller crash
/// after the first disturbance) lands at most this long after the crash.
constexpr double kMaxRestartGapS = 8.0;
constexpr double kChurnProbability = 0.3;
/// Cap on primary fault events per generated spec (paired follow-ups such
/// as restarts and clears come on top).
constexpr std::size_t kMaxEvents = 10;
/// Budget of extra runs the shrinker may spend per failure.
constexpr std::size_t kMaxShrinkRuns = 200;
/// Run seeds are masked to 48 bits so they survive the JSON number
/// round-trip exactly (the writer prints integers verbatim only below 1e15)
/// and repros replay the very same seed.
constexpr std::uint64_t kRunSeedMask = (1ULL << 48) - 1;
/// Probability of running in a randomized multi-hop world (line / grid /
/// star with relay nodes between sensor and controllers) instead of the
/// Fig. 5 mesh. The control period scales with the world's TDMA frame.
constexpr double kTopologyProbability = 0.5;

/// Schedule bookkeeping while generating events in time order: which nodes
/// are down at `t` (and when each comes back; infinity = never), and
/// whether anything failover-capable has happened yet. Crash-plus-bounded-
/// restart is survivable in every combination — the restarted node resumes
/// its sticky mode and the head re-supervises it on rejoin — and since the
/// supervised promotion retry landed, controller crashes are generated
/// freely even while a failover is in flight (the class the generator used
/// to steer around with a "failover settle" window; the nightly fuzz now
/// enforces the fix). The one remaining budget rule: a *permanent*
/// controller crash is only drawn before any disturbance, because an
/// earlier failover may have parked the other replicas Dormant (or left
/// them holding a confirmed-bad algorithm), which the paper's fail-stop-
/// with-live-backup fault model does not claim to survive.
struct GenState {
  std::map<net::NodeId, double> down_until;
  bool disturbance_seen = false;

  bool is_down(net::NodeId id, double t) const {
    auto it = down_until.find(id);
    return it != down_until.end() && t < it->second;
  }
};

bool is_controller(const std::vector<net::NodeId>& controllers, net::NodeId id) {
  return std::find(controllers.begin(), controllers.end(), id) != controllers.end();
}

/// Quantize generator draws so repro specs stay human-readable (the JSON
/// writer's shortest-round-trip output would otherwise print 17-digit
/// noise): the repro file IS the spec that failed. Millisecond granularity
/// for times, 1e-6 for probabilities.
double q3(double v) { return std::round(v * 1e3) / 1e3; }
double q6(double v) { return std::round(v * 1e6) / 1e6; }

/// True when re-running (candidate, seed) still fires the invariant the
/// shrinker is trying to preserve. Determinism violations need the replay
/// pass switched on to reproduce; everything else runs single-pass.
bool reproduces(const ScenarioSpec& candidate, std::uint64_t seed,
                const std::string& primary) {
  const bool determinism = primary == "determinism.replay";
  const CheckedRun check = check_scenario(candidate, seed, {}, determinism);
  for (const auto& v : check.violations) {
    if (v.invariant == primary) return true;
  }
  return false;
}

}  // namespace

Json GeneratorConfig::to_json() const {
  Json j = Json::object();
  j.set("min_horizon_s", min_horizon_s);
  j.set("max_horizon_s", max_horizon_s);
  return j;
}

ScenarioSpec generate_spec(std::uint64_t run_seed, const GeneratorConfig& config) {
  Rng rng(run_seed);
  ScenarioSpec spec;
  spec.name = "fuzz-" + std::to_string(run_seed);
  spec.description = "generated by fuzz_scenarios (run seed " +
                     std::to_string(run_seed) + ")";
  spec.horizon_s =
      std::floor(rng.uniform(config.min_horizon_s, config.max_horizon_s + 1.0));
  // Compressed failure-detection knobs: crash detection and backup
  // promotion must fit the short fuzz horizon, same as the test scenarios.
  spec.testbed.evidence_threshold =
      static_cast<std::uint32_t>(rng.uniform_int(4, 16));
  spec.testbed.dormant_delay = util::Duration::from_seconds(q3(rng.uniform(2.0, 10.0)));

  // World draw: the Fig. 5 mesh, or a randomized multi-hop line / grid /
  // star with relay nodes between sensor and controllers.
  if (rng.bernoulli(kTopologyProbability)) {
    switch (rng.next_below(3)) {
      case 0:
        spec.testbed.topology = testbed::line_topology(
            static_cast<std::size_t>(rng.uniform_int(6, 10)));
        break;
      case 1:
        spec.testbed.topology = testbed::grid_topology(
            static_cast<std::size_t>(rng.uniform_int(3, 4)),
            static_cast<std::size_t>(rng.uniform_int(2, 3)));
        break;
      default:
        spec.testbed.topology = testbed::star_topology(
            static_cast<std::size_t>(rng.uniform_int(6, 9)));
        break;
    }
    // Both dissemination schemes stay under fuzz: the scoped tree is the
    // default, and one world in four keeps the PR 4 flood so regressions in
    // either path (or divergence between them) surface nightly.
    spec.testbed.dissemination = rng.bernoulli(0.25)
                                     ? testbed::DisseminationMode::kFlood
                                     : testbed::DisseminationMode::kTree;
    // The control cycle must leave headroom over the TDMA frame: flooded
    // broadcasts cost each node one slot per unique datagram, so give the
    // frame ~8x slack and stretch the head's promotion supervision to
    // cover multi-hop heartbeat latency.
    const testbed::SchedulePlan plan = testbed::plan_schedule(
        spec.testbed.topology, spec.testbed.dissemination);
    const double frame_ms = plan.frame_length().to_seconds() * 1e3;
    const double period_ms = std::max(250.0, std::ceil(frame_ms * 8.0 / 50.0) * 50.0);
    spec.testbed.control_period = util::Duration::from_seconds(period_ms / 1e3);
    spec.testbed.promotion_timeout = util::Duration::from_seconds(
        std::max(2.0, 4.0 * period_ms / 1e3));
  } else {
    // Named locals fix the draw order (third, then loss): C++ leaves the
    // evaluation order of function arguments unspecified.
    const bool third = rng.bernoulli(0.4);
    const double loss =
        rng.bernoulli(0.5) ? q6(rng.uniform(0.0, kMaxTestbedLoss)) : 0.0;
    spec.testbed.topology = testbed::default_fig5_topology(third, loss);
  }

  const testbed::TopologySpec& topo = spec.topology();
  // Event targets: every VC member (relays included — crashing the relay
  // between sensor and controllers is exactly the stress multi-hop worlds
  // add); controllers in replica-priority order.
  const std::vector<net::NodeId> nodes = topo.members();
  const std::vector<net::NodeId> controllers = topo.replica_order();

  auto pick_node = [&](const std::vector<net::NodeId>& from) {
    return from[rng.next_below(from.size())];
  };
  GenState state;
  // Link events are drawn from the links that exist in this world and whose
  // endpoints are both VC members (the Fig. 5 mesh also wires up the
  // non-member ctrl_c). A link touching a controller can starve the
  // evidence/heartbeat exchange long enough to trigger a (legitimate)
  // spurious failover.
  std::vector<testbed::TopologyLink> links;
  for (const auto& link : topo.links) {
    const auto is_member = [&](net::NodeId id) {
      return std::find(nodes.begin(), nodes.end(), id) != nodes.end();
    };
    if (is_member(link.a) && is_member(link.b)) links.push_back(link);
  }
  auto pick_link = [&](FaultEvent& e) {
    const auto& link = links[rng.next_below(links.size())];
    e.a = link.a;
    e.b = link.b;
    const bool ctrl_link = is_controller(controllers, e.a) ||
                           is_controller(controllers, e.b);
    if (ctrl_link) state.disturbance_seen = true;
    return ctrl_link;
  };
  if (rng.bernoulli(kChurnProbability)) {
    spec.churn.enabled = true;
    spec.churn.outages_per_minute = q3(rng.uniform(2.0, 15.0));
    spec.churn.outage_s = q3(rng.uniform(1.0, 5.0));
    spec.churn.start_s = 5.0;
    spec.churn.end_margin_s = 8.0;
    spec.churn.rng_salt = rng.next_below(1u << 20);
    state.disturbance_seen = true;
  }

  // Primary event times, sorted so the crash/restart bookkeeping below sees
  // the schedule in order. Paired follow-ups (restart, link_up, clears) land
  // at most ~12 s later; with the default horizons the [5, horizon - 15]
  // window keeps both inside the horizon and leaves the tail for recovery
  // (the final clamp below covers operator-shortened horizons).
  const std::size_t count = rng.next_below(kMaxEvents + 1);
  std::vector<double> times(count);
  const double lo = 5.0;
  const double hi = std::max(lo + 1.0, spec.horizon_s - 15.0);
  for (auto& t : times) t = q3(rng.uniform(lo, hi));
  std::sort(times.begin(), times.end());

  for (double t : times) {
    FaultEvent e;
    e.at_s = t;
    switch (rng.next_below(8)) {
      case 0: {  // node crash, bounded by the validity rules
        std::vector<net::NodeId> candidates;
        for (net::NodeId id : nodes) {
          if (!state.is_down(id, t)) candidates.push_back(id);
        }
        if (candidates.empty()) break;
        const net::NodeId target = pick_node(candidates);
        // A crash may be permanent (fail-stop, the paper's Fig. 6 model)
        // only for the first disturbance of a controller: later on, a
        // failover may already have spent the other replicas, so every
        // crash must come back within the gap bound. Sensor, actuator,
        // gateway and relays always restart — the paper does not claim the
        // loop survives losing its only sensor (or its only path) forever.
        bool restart = true;
        if (is_controller(controllers, target) && !state.disturbance_seen &&
            !topo.is_cut_vertex(target)) {
          // Fail-stop forever is only survivable when the crash neither
          // spends a replica the schedule already burned nor partitions the
          // world (a dead cut vertex severs the VC for good).
          restart = rng.bernoulli(0.5);
        }
        e.kind = EventKind::kNodeCrash;
        e.node = target;
        spec.events.push_back(e);
        double back = std::numeric_limits<double>::infinity();
        if (restart) {
          FaultEvent r;
          back = q3(t + rng.uniform(2.0, kMaxRestartGapS));
          r.at_s = back;
          r.kind = EventKind::kNodeRestart;
          r.node = target;
          spec.events.push_back(r);
        }
        state.down_until[target] = back;
        // Any crash is a disturbance: a downed relay can partition the
        // sensor path and trigger a legitimate silence failover just as a
        // controller crash does.
        state.disturbance_seen = true;
        break;
      }
      case 1: {  // primary fault, sometimes cleared later
        e.kind = EventKind::kPrimaryFault;
        e.value = q3(rng.uniform(40.0, 95.0));
        spec.events.push_back(e);
        // Even a cleared fault leaves the demoted primary parked Dormant.
        state.disturbance_seen = true;
        if (rng.bernoulli(0.3)) {
          FaultEvent c;
          c.at_s = q3(t + rng.uniform(3.0, 12.0));
          c.kind = EventKind::kClearPrimaryFault;
          spec.events.push_back(c);
        }
        break;
      }
      case 2: {  // bounded link outage
        e.kind = EventKind::kLinkOutage;
        (void)pick_link(e);
        e.duration_s = q3(rng.uniform(1.0, 6.0));
        spec.events.push_back(e);
        break;
      }
      case 3: {  // explicit down/up pair (same stress, other event kinds)
        e.kind = EventKind::kLinkDown;
        (void)pick_link(e);
        spec.events.push_back(e);
        FaultEvent up = e;
        up.kind = EventKind::kLinkUp;
        up.at_s = q3(t + rng.uniform(1.0, 6.0));
        spec.events.push_back(up);
        break;
      }
      case 4: {  // i.i.d. per-frame loss (persistent: it is never reset)
        e.kind = EventKind::kLinkLoss;
        (void)pick_link(e);
        e.value = q6(rng.uniform(0.0, kMaxLinkLoss));
        spec.events.push_back(e);
        break;
      }
      case 5: {  // Gilbert-Elliott burst chain, usually cleared later
        e.kind = EventKind::kBurstLoss;
        (void)pick_link(e);
        e.burst.p_good_loss = q6(rng.uniform(0.0, 0.05));
        e.burst.p_bad_loss = q6(rng.uniform(0.3, 0.9));
        e.burst.p_good_to_bad = q6(rng.uniform(0.01, 0.2));
        e.burst.p_bad_to_good = q6(rng.uniform(0.1, 0.5));
        spec.events.push_back(e);
        if (rng.bernoulli(0.6)) {
          FaultEvent c;
          c.at_s = q3(t + rng.uniform(4.0, 12.0));
          c.kind = EventKind::kClearBurstLoss;
          c.a = e.a;
          c.b = e.b;
          spec.events.push_back(c);
        }
        break;
      }
      case 6: {  // crystal drift step
        e.kind = EventKind::kClockDrift;
        e.node = pick_node(nodes);
        e.value = q3(rng.uniform(-150.0, 150.0));
        spec.events.push_back(e);
        break;
      }
      default: {  // traffic burst
        e.kind = EventKind::kTrafficBurst;
        e.node = pick_node(nodes);
        e.count = static_cast<int>(rng.uniform_int(1, 25));
        e.interval_ms = q3(rng.uniform(5.0, 50.0));
        spec.events.push_back(e);
        break;
      }
    }
  }

  // With a CLI-shortened horizon (--horizon-s below ~20) paired follow-ups
  // can overshoot the run end; clamp so the spec always passes its own
  // validation (events at exactly the horizon still fire).
  for (auto& e : spec.events) e.at_s = std::min(e.at_s, spec.horizon_s);
  return spec;
}

ScenarioSpec shrink_spec(const ScenarioSpec& spec, std::uint64_t seed,
                         const std::string& primary_invariant,
                         std::size_t* runs_used) {
  ScenarioSpec best = spec;
  std::size_t used = 0;
  bool improved = true;

  auto try_candidate = [&](ScenarioSpec candidate) {
    if (used >= kMaxShrinkRuns) return;
    ++used;
    if (!reproduces(candidate, seed, primary_invariant)) return;
    best = std::move(candidate);
    improved = true;
  };

  // Crash and restart events are dropped as a pair: removing just the
  // restart would turn a within-fault-model failure into a crash-forever
  // spec the paper never claims to survive, and the "minimal repro" would
  // stop demonstrating the original bug.
  auto paired_restart = [](const std::vector<FaultEvent>& events, std::size_t i)
      -> std::ptrdiff_t {
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (events[j].kind == EventKind::kNodeRestart &&
          events[j].node == events[i].node && events[j].at_s >= events[i].at_s) {
        return static_cast<std::ptrdiff_t>(j);
      }
    }
    return -1;
  };
  auto crash_remains = [](const std::vector<FaultEvent>& events, std::size_t i) {
    for (const auto& e : events) {
      if (e.kind == EventKind::kNodeCrash && e.node == events[i].node &&
          e.at_s <= events[i].at_s) {
        return true;
      }
    }
    return false;
  };

  // Greedy passes to a fixpoint (or the run budget): drop single events,
  // then the spec-level disturbances, then tighten the horizon.
  while (improved && used < kMaxShrinkRuns) {
    improved = false;
    for (std::size_t i = best.events.size(); i-- > 0 && used < kMaxShrinkRuns;) {
      if (best.events[i].kind == EventKind::kNodeRestart &&
          crash_remains(best.events, i)) {
        continue;  // never orphan a crash; its pair goes when the crash goes
      }
      ScenarioSpec candidate = best;
      std::ptrdiff_t restart = -1;
      if (best.events[i].kind == EventKind::kNodeCrash) {
        restart = paired_restart(best.events, i);
      }
      // Erase the higher index first so the lower one stays valid.
      const std::ptrdiff_t first = std::max<std::ptrdiff_t>(
          restart, static_cast<std::ptrdiff_t>(i));
      const std::ptrdiff_t second = std::min<std::ptrdiff_t>(
          restart, static_cast<std::ptrdiff_t>(i));
      candidate.events.erase(candidate.events.begin() + first);
      if (second >= 0 && second != first) {
        candidate.events.erase(candidate.events.begin() + second);
      }
      try_candidate(std::move(candidate));
    }
    if (best.churn.enabled) {
      ScenarioSpec candidate = best;
      candidate.churn = ChurnSpec{};
      try_candidate(std::move(candidate));
    }
    const auto& links = best.testbed.topology.links;
    if (std::any_of(links.begin(), links.end(),
                    [](const testbed::TopologyLink& l) { return l.loss > 0.0; })) {
      ScenarioSpec candidate = best;
      for (auto& link : candidate.testbed.topology.links) link.loss = 0.0;
      try_candidate(std::move(candidate));
    }
    if (best.testbed.dissemination == testbed::DisseminationMode::kTree) {
      // If the violation also fires under plain flooding, the repro is not
      // about the dissemination tree at all — record the simpler world.
      ScenarioSpec candidate = best;
      candidate.testbed.dissemination = testbed::DisseminationMode::kFlood;
      try_candidate(std::move(candidate));
    }
    double last_event_s = 0.0;
    for (const auto& e : best.events) last_event_s = std::max(last_event_s, e.at_s);
    const double tight = std::ceil(last_event_s + 15.0);
    if (tight < best.horizon_s) {
      ScenarioSpec candidate = best;
      candidate.horizon_s = tight;
      try_candidate(std::move(candidate));
    }
  }
  if (runs_used != nullptr) *runs_used = used;
  return best;
}

FuzzResult run_fuzz(const FuzzConfig& config) {
  FuzzResult result;
  result.runs = config.runs;
  std::vector<std::optional<FuzzFailure>> slots(config.runs);

  parallel_for(config.runs, config.jobs, [&](std::size_t i) {
    const std::uint64_t run_seed = Rng::mix(config.seed, i) & kRunSeedMask;
    const ScenarioSpec spec = generate_spec(run_seed, config.gen);

    // Generator self-check: whatever we emit must survive its own
    // serialization; a spec the parser rejects is a generator bug.
    const auto reparsed = ScenarioSpec::from_json(spec.to_json());
    CheckedRun check;
    if (!reparsed) {
      check.violations.push_back({"generator.invalid_spec", -1.0,
                                  reparsed.status().message()});
    } else {
      check = check_scenario(spec, run_seed, {}, config.check_determinism);
    }
    if (check.ok()) return;

    FuzzFailure failure;
    failure.run_index = i;
    failure.run_seed = run_seed;
    failure.spec = spec;
    failure.shrunk = spec;
    failure.violations = check.violations;
    failure.metrics = check.metrics;
    if (config.shrink && reparsed.ok()) {
      const std::string primary = check.violations.front().invariant;
      failure.shrunk = shrink_spec(spec, run_seed, primary, &failure.shrink_runs);
      const CheckedRun recheck =
          check_scenario(failure.shrunk, run_seed, {}, config.check_determinism);
      failure.violations = recheck.violations;
      failure.metrics = recheck.metrics;
    }
    slots[i] = std::move(failure);
  });

  for (auto& slot : slots) {
    if (slot.has_value()) result.failures.push_back(std::move(*slot));
  }
  return result;
}

Json FuzzFailure::to_json() const {
  Json j = Json::object();
  j.set("schema", 1);
  j.set("run_index", run_index);
  j.set("run_seed", static_cast<std::int64_t>(run_seed));
  Json list = Json::array();
  for (const auto& v : violations) list.push(v.to_json());
  j.set("violations", std::move(list));
  j.set("metrics", metrics.to_json());
  j.set("shrink_runs", shrink_runs);
  j.set("spec", shrunk.to_json());
  j.set("original_spec", spec.to_json());
  return j;
}

Json fuzz_report(const FuzzConfig& config, const FuzzResult& result) {
  Json root = Json::object();
  root.set("schema", 1);
  // Everything that shapes the outcome is echoed; --jobs is deliberately
  // absent (it never affects results, and the report must be byte-identical
  // across worker counts).
  Json cfg = Json::object();
  cfg.set("seed", static_cast<std::int64_t>(config.seed));
  cfg.set("runs", config.runs);
  cfg.set("shrink", config.shrink);
  cfg.set("check_determinism", config.check_determinism);
  cfg.set("generator", config.gen.to_json());
  root.set("config", std::move(cfg));
  root.set("runs", result.runs);
  root.set("failure_count", result.failures.size());
  root.set("ok", result.ok());
  Json failures = Json::array();
  for (const auto& f : result.failures) failures.push(f.to_json());
  root.set("failures", std::move(failures));
  return root;
}

std::string failure_dir() { return report_dir() + "/fuzz_failures"; }

util::Result<std::string> write_failure(const FuzzFailure& failure,
                                        const std::string& dir) {
  const std::filesystem::path out_dir(dir);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return util::Status::internal("cannot create " + out_dir.string() + ": " +
                                  ec.message());
  }
  const std::filesystem::path path =
      out_dir / ("fuzz_run" + std::to_string(failure.run_index) + "_seed" +
                 std::to_string(failure.run_seed) + ".json");
  std::ofstream out(path);
  out << failure.to_json().dump() << "\n";
  out.close();
  if (!out) return util::Status::internal("cannot write " + path.string());
  return path.string();
}

util::Result<FuzzRepro> load_repro(const std::string& path) {
  auto json = util::load_json_file(path);
  if (!json) return json.status();
  FuzzRepro repro;
  const Json* spec_json = json->find("spec");
  if (spec_json == nullptr) {
    // A bare scenario spec (e.g. one promoted into scenarios/).
    auto spec = ScenarioSpec::from_json(*json);
    if (!spec) {
      return util::Status::invalid_argument(path + ": " + spec.status().message());
    }
    repro.spec = *spec;
    return repro;
  }
  // The keys FuzzFailure::to_json writes. Bounds are fixed constants, so a
  // document that still carries an "invariants" block is refused rather
  // than replayed under bounds it does not state.
  if (util::Status s = util::check_keys(*json,
                                        "schema run_index run_seed violations "
                                        "metrics shrink_runs spec original_spec",
                                        "the repro");
      !s) {
    return util::Status::invalid_argument(path + ": " + s.message());
  }
  auto spec = ScenarioSpec::from_json(*spec_json);
  if (!spec) {
    return util::Status::invalid_argument(path + ": " + spec.status().message());
  }
  repro.spec = *spec;
  if (const Json* seed = json->find("run_seed")) {
    const auto value = util::as_integer(
        *seed, 0, static_cast<std::int64_t>(kRunSeedMask));
    if (!value) {
      return util::Status::invalid_argument(
          path + ": 'run_seed' must be an integer in [0, 2^48)");
    }
    repro.seed = static_cast<std::uint64_t>(*value);
  }
  return repro;
}

}  // namespace evm::scenario
