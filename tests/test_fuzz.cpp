// The scenario fuzzer: generated specs are valid by construction and a pure
// function of their seed, fuzz campaigns are deterministic regardless of the
// worker count, a hand-seeded violating spec is caught and shrunk to a
// minimal repro that still fails, and repro documents round-trip through
// write_failure / load_repro.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "scenario/fuzz.hpp"
#include "util/rng.hpp"

namespace evm::scenario {
namespace {

ScenarioSpec parse_spec(const std::string& text) {
  auto json = util::Json::parse(text);
  EXPECT_TRUE(json.ok()) << json.status().to_string();
  auto spec = ScenarioSpec::from_json(*json);
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return *spec;
}

TEST(FuzzGenerator, SpecsAreValidByConstruction) {
  const GeneratorConfig config;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const ScenarioSpec spec = generate_spec(seed, config);
    EXPECT_GE(spec.horizon_s, config.min_horizon_s);
    EXPECT_LE(spec.horizon_s, config.max_horizon_s);
    // Round-trip through the parser: every validity rule the parser
    // enforces (required fields, ctrl_c gating, horizon coverage) holds,
    // and — because generator draws are quantized — the reparsed spec is
    // byte-identical, so a written repro IS the spec that failed.
    auto reparsed = ScenarioSpec::from_json(spec.to_json());
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status().to_string() << "\n"
        << spec.to_json().dump();
    EXPECT_EQ(reparsed->to_json().dump(), spec.to_json().dump())
        << "seed " << seed;
    EXPECT_TRUE(spec.validate()) << "seed " << seed;
    for (const auto& e : spec.events) {
      EXPECT_LE(e.at_s, spec.horizon_s) << "seed " << seed;
      EXPECT_GE(e.at_s, 0.0);
    }
  }
}

TEST(FuzzGenerator, EveryEventKindIsReachable) {
  // Over a few hundred seeds the generator must exercise its whole
  // vocabulary; a kind that never appears is dead generator code.
  const GeneratorConfig config;
  std::set<EventKind> seen;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    for (const auto& e : generate_spec(seed, config).events) seen.insert(e.kind);
  }
  for (EventKind kind :
       {EventKind::kPrimaryFault, EventKind::kClearPrimaryFault,
        EventKind::kNodeCrash, EventKind::kNodeRestart, EventKind::kLinkDown,
        EventKind::kLinkUp, EventKind::kLinkOutage, EventKind::kLinkLoss,
        EventKind::kBurstLoss, EventKind::kClearBurstLoss,
        EventKind::kClockDrift, EventKind::kTrafficBurst}) {
    EXPECT_TRUE(seen.count(kind)) << "kind never generated: " << to_string(kind);
  }
}

TEST(FuzzGenerator, ShortHorizonOverrideStaysValid) {
  // --horizon-s below the follow-up window used to let paired restarts and
  // clears overshoot the horizon, tripping the generator's own self-check.
  GeneratorConfig config;
  config.min_horizon_s = 12.0;
  config.max_horizon_s = 12.0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const ScenarioSpec spec = generate_spec(seed, config);
    auto reparsed = ScenarioSpec::from_json(spec.to_json());
    EXPECT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status().to_string();
    for (const auto& e : spec.events) EXPECT_LE(e.at_s, spec.horizon_s);
  }
}

TEST(FuzzGenerator, PureFunctionOfSeed) {
  const GeneratorConfig config;
  EXPECT_EQ(generate_spec(42, config).to_json().dump(),
            generate_spec(42, config).to_json().dump());
  EXPECT_NE(generate_spec(42, config).to_json().dump(),
            generate_spec(43, config).to_json().dump());
}

TEST(FuzzGenerator, CrashOfLastViableControllerAlwaysRestarts) {
  // Validity rule from the issue: the generator must never strand the loop
  // by crashing the last live controller for good. Conservatively: every
  // controller crash after the first disturbance carries a restart.
  const GeneratorConfig config;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ScenarioSpec spec = generate_spec(seed, config);
    const auto replicas = spec.topology().replica_order();
    bool disturbed = false;
    for (const auto& e : spec.events) {
      if (e.kind != EventKind::kNodeCrash) continue;
      const bool ctrl = std::find(replicas.begin(), replicas.end(), e.node) !=
                        replicas.end();
      if (ctrl && disturbed) {
        bool restarted = false;
        for (const auto& r : spec.events) {
          restarted |= r.kind == EventKind::kNodeRestart && r.node == e.node &&
                       r.at_s > e.at_s;
        }
        EXPECT_TRUE(restarted)
            << "seed " << seed << ": unrestarted controller crash at "
            << e.at_s << "\n" << spec.to_json().dump();
      }
      if (ctrl) disturbed = true;
    }
  }
}

TEST(FuzzGenerator, GeneratesRandomizedMultiHopTopologies) {
  // The generator must exercise non-Fig.5 worlds: over a few hundred seeds
  // it emits line / grid / star topologies with relay nodes, every one of
  // them structurally valid with a feasible schedule.
  const GeneratorConfig config;
  std::size_t multi_hop = 0, with_relays = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const ScenarioSpec spec = generate_spec(seed, config);
    const testbed::TopologySpec& topo = spec.topology();
    ASSERT_TRUE(topo.validate()) << "seed " << seed;
    if (topo.multi_hop()) {
      ++multi_hop;
      // Frame must fit the scaled control period (schedule feasibility).
      EXPECT_LE(testbed::plan_schedule(topo, spec.testbed.dissemination)
                    .frame_length(),
                spec.testbed.control_period)
          << "seed " << seed;
    }
    if (!topo.relays().empty()) ++with_relays;
  }
  EXPECT_GT(multi_hop, 20u);
  EXPECT_GT(with_relays, 10u);
}

TEST(FuzzGenerator, FaultFreeMultiHopWorldPassesInvariants) {
  // Acceptance gate from the issue: randomized topologies with no injected
  // fault must come out clean under the invariant monitor.
  const GeneratorConfig config;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    ScenarioSpec spec = generate_spec(seed, config);
    if (spec.topology().relays().empty()) continue;
    // Strip every disturbance: this is the monitor's null hypothesis.
    spec.events.clear();
    spec.churn = ChurnSpec{};
    spec.horizon_s = 30.0;
    const CheckedRun check = check_scenario(spec, 11);
    EXPECT_TRUE(check.ok()) << "seed " << seed << "\n" << check.to_json().dump();
    EXPECT_EQ(check.metrics.failover_count, 0u) << "seed " << seed;
    break;  // one full multi-hop run keeps the suite fast
  }
}

TEST(FuzzCampaign, ReportIsDeterministicAcrossJobCounts) {
  FuzzConfig config;
  config.runs = 4;
  config.seed = 11;
  config.gen.min_horizon_s = 25.0;
  config.gen.max_horizon_s = 30.0;
  config.jobs = 1;
  const util::Json serial = fuzz_report(config, run_fuzz(config));
  config.jobs = 4;
  const util::Json parallel = fuzz_report(config, run_fuzz(config));
  EXPECT_EQ(serial.dump(), parallel.dump());
}

TEST(FuzzShrink, HandSeededViolationShrinksToMinimalRepro) {
  // Crash both controllers (the liveness bug class) plus chaff the shrinker
  // must strip: drift, a traffic burst, a sensor-side outage, and a sensor
  // crash/restart pair — which must be dropped as a pair, never leaving an
  // orphaned restart or an unrestarted chaff crash.
  const ScenarioSpec spec = parse_spec(R"({
    "name": "shrink-me",
    "horizon_s": 60,
    "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5},
    "topology": {"generator": "fig5", "link_loss": 0.02},
    "events": [
      {"at_s": 8, "do": "clock_drift", "node": "actuator", "ppm": 40},
      {"at_s": 10, "do": "node_crash", "node": "sensor"},
      {"at_s": 13, "do": "node_restart", "node": "sensor"},
      {"at_s": 15, "do": "node_crash", "node": "ctrl_a"},
      {"at_s": 20, "do": "node_crash", "node": "ctrl_b"},
      {"at_s": 25, "do": "traffic_burst", "node": "sensor", "count": 5, "interval_ms": 20},
      {"at_s": 30, "do": "link_outage", "a": "sensor", "b": "gateway", "duration_s": 2}
    ]
  })");
  const CheckedRun original = check_scenario(spec, 5);
  ASSERT_FALSE(original.ok());
  const std::string primary = original.violations.front().invariant;

  std::size_t used = 0;
  const ScenarioSpec shrunk = shrink_spec(spec, 5, primary, &used);
  EXPECT_GT(used, 0u);
  EXPECT_LE(used, 200u);

  // Minimal repro: exactly the two controller crashes survive and the
  // background loss is zeroed. The horizon may stay put — when the primary
  // violation is the Active-gap, shortening the run would erase the gap the
  // repro must preserve.
  ASSERT_EQ(shrunk.events.size(), 2u) << shrunk.to_json().dump();
  for (const auto& e : shrunk.events) {
    EXPECT_EQ(e.kind, EventKind::kNodeCrash);
  }
  for (const auto& link : shrunk.topology().links) EXPECT_DOUBLE_EQ(link.loss, 0.0);
  EXPECT_LE(shrunk.horizon_s, spec.horizon_s);

  // And it still fails the same way.
  bool reproduced = false;
  for (const auto& v : check_scenario(shrunk, 5).violations) {
    reproduced |= v.invariant == primary;
  }
  EXPECT_TRUE(reproduced);
}

TEST(FuzzRepro, WriteAndLoadRoundTrip) {
  FuzzFailure failure;
  failure.run_index = 3;
  failure.run_seed = 123456789;
  failure.spec = parse_spec(R"({
    "name": "repro",
    "horizon_s": 50,
    "events": [
      {"at_s": 10, "do": "node_crash", "node": "ctrl_a"},
      {"at_s": 12, "do": "node_crash", "node": "ctrl_b"}
    ]
  })");
  failure.shrunk = failure.spec;
  failure.violations.push_back({"liveness.active_at_end", 49.5, "test detail"});

  const std::string dir = ::testing::TempDir() + "evm_fuzz_repro_test";
  auto written = write_failure(failure, dir);
  ASSERT_TRUE(written.ok()) << written.status().to_string();
  EXPECT_NE(written->find("fuzz_run3_seed123456789"), std::string::npos);

  auto loaded = load_repro(*written);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->seed, 123456789u);
  EXPECT_EQ(loaded->spec.to_json().dump(), failure.shrunk.to_json().dump());
  std::remove(written->c_str());
}

/// Write a repro document whose `key` is replaced by the raw JSON `value`
/// and load it back.
util::Result<FuzzRepro> load_edited_repro(const std::string& key,
                                          const std::string& value) {
  FuzzFailure failure;
  failure.run_seed = 5;
  failure.spec = parse_spec(R"({"name": "edited", "horizon_s": 30})");
  failure.shrunk = failure.spec;
  util::Json doc = failure.to_json();
  auto parsed = util::Json::parse(value);
  EXPECT_TRUE(parsed.ok()) << value;
  doc.set(key, *parsed);
  const std::string path = ::testing::TempDir() + "evm_fuzz_edited_repro.json";
  {
    std::ofstream out(path);
    out << doc.dump();
  }
  auto loaded = load_repro(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(FuzzRepro, RunSeedMustBeAnExactInteger) {
  auto ok = load_edited_repro("run_seed", "7");
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  EXPECT_EQ(ok->seed, 7u);
  // Json::as_int would replay 7.9 as seed 7, -1 as 2^64 - 1 and "5" as 0.
  for (const char* bad : {"7.9", "-1", "\"5\"", "281474976710656"}) {
    auto loaded = load_edited_repro("run_seed", bad);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_NE(loaded.status().message().find("run_seed"), std::string::npos)
        << loaded.status().to_string();
  }
}

TEST(FuzzRepro, UnknownKeyIsRejected) {
  // Repros written before the bounds became constants carry an
  // "invariants" block; replaying them under other bounds than they state
  // would be silent, so the key is refused by name.
  auto loaded = load_edited_repro("invariants", R"({"max_active_gap_s": 10})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown key 'invariants'"),
            std::string::npos)
      << loaded.status().to_string();
}

TEST(FuzzRepro, BareSpecLoadsWithDefaultSeed) {
  const std::string path = ::testing::TempDir() + "evm_fuzz_bare_spec.json";
  {
    std::ofstream out(path);
    out << parse_spec(R"({"name": "bare", "horizon_s": 30})").to_json().dump();
  }
  auto loaded = load_repro(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->seed, 1u);
  EXPECT_EQ(loaded->spec.name, "bare");
  std::remove(path.c_str());
}

TEST(FuzzRepro, RunSeedSurvivesJsonNumberRoundTrip) {
  // Seeds are masked to 48 bits precisely so the JSON double round-trip is
  // exact; a seed near the mask ceiling must come back bit-identical.
  FuzzFailure failure;
  failure.run_index = 0;
  failure.run_seed = (1ULL << 48) - 3;
  failure.spec = parse_spec(R"({"name": "seed-edge", "horizon_s": 30})");
  failure.shrunk = failure.spec;
  const util::Json doc = failure.to_json();
  auto reparsed = util::Json::parse(doc.dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(reparsed->find("run_seed")->as_int()),
            failure.run_seed);
}

}  // namespace
}  // namespace evm::scenario
