#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <sstream>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace evm::scenario {
namespace {

util::Result<ScenarioSpec> parse(const std::string& text) {
  auto json = util::Json::parse(text);
  if (!json) return json.status();
  return ScenarioSpec::from_json(*json);
}

// A fast failover scenario shared by several tests: compressed evidence
// window, fault at t=10s, 60s horizon.
const char* kFailoverSpec = R"({
  "name": "test-failover",
  "horizon_s": 60,
  "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5},
  "topology": {"generator": "fig5", "link_loss": 0.05},
  "events": [{"at_s": 10, "do": "primary_fault", "value": 75.0}]
})";

TEST(ScenarioSpec, ParsesMinimalSpec) {
  auto spec = parse(R"({"name": "s"})");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->name, "s");
  EXPECT_TRUE(spec->events.empty());
  EXPECT_FALSE(spec->churn.enabled);
  EXPECT_DOUBLE_EQ(spec->first_fault_s(), -1.0);
}

TEST(ScenarioSpec, ParsesFullSchedule) {
  auto spec = parse(R"({
    "name": "full",
    "horizon_s": 90,
    "testbed": {"control_period_ms": 200, "evidence_threshold": 4,
                "dormant_delay_s": 7.5},
    "topology": {"generator": "fig5", "third_controller": true, "link_loss": 0.1},
    "record": ["TowerFeed.MolarFlow"],
    "churn": {"outages_per_minute": 10, "outage_s": 2},
    "events": [
      {"at_s": 5, "do": "link_down", "a": "gateway", "b": "sensor"},
      {"at_s": 6, "do": "link_up", "a": 1, "b": 2},
      {"at_s": 7, "do": "link_outage", "a": "ctrl_a", "b": "ctrl_c", "duration_s": 3},
      {"at_s": 8, "do": "link_loss", "a": "sensor", "b": "ctrl_b", "loss": 0.4},
      {"at_s": 9, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_loss": 0.9},
      {"at_s": 10, "do": "clear_burst_loss", "a": "sensor", "b": "ctrl_a"},
      {"at_s": 11, "do": "node_crash", "node": "ctrl_b"},
      {"at_s": 12, "do": "node_restart", "node": "ctrl_b"},
      {"at_s": 13, "do": "clock_drift", "node": "actuator", "ppm": 55},
      {"at_s": 14, "do": "traffic_burst", "node": "sensor", "count": 5, "interval_ms": 10},
      {"at_s": 15, "do": "primary_fault", "value": 80},
      {"at_s": 16, "do": "clear_primary_fault"}
    ]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  EXPECT_EQ(spec->events.size(), 12u);
  EXPECT_EQ(spec->testbed.control_period.ms(), 200);
  EXPECT_EQ(spec->topology().replica_order().size(), 3u);
  EXPECT_DOUBLE_EQ(spec->topology().links.front().loss, 0.1);
  EXPECT_TRUE(spec->churn.enabled);
  // node_crash at 11s precedes the primary fault at 15s.
  EXPECT_DOUBLE_EQ(spec->first_fault_s(), 11.0);
  EXPECT_DOUBLE_EQ(spec->events[2].duration_s, 3.0);
  EXPECT_DOUBLE_EQ(spec->events[4].burst.p_bad_loss, 0.9);
}

TEST(ScenarioSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      R"({"horizon_s": 10})",                                         // no name
      R"({"name": "x", "horizon_s": -1})",                            // bad horizon
      R"({"name": "x", "events": [{"at_s": 1, "do": "explode"}]})",   // unknown kind
      R"({"name": "x", "events": [{"do": "primary_fault", "value": 1}]})",  // no at_s
      R"({"name": "x", "events": [{"at_s": 1, "do": "primary_fault"}]})",   // no value
      R"({"name": "x", "events": [{"at_s": 1, "do": "node_crash"}]})",      // no node
      R"({"name": "x", "events": [{"at_s": 1, "do": "node_crash", "node": "nobody"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "link_down", "a": "sensor", "b": "sensor"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "link_loss", "a": "sensor", "b": "ctrl_a", "loss": 2}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "node_crash", "node": "ctrl_c"}]})",  // no 3rd ctrl
      R"({"name": "x", "testbed": {"evidence_threshold": 0}})",
      R"({"name": "x", "testbed": {"dormant_delay_s": -1}})",
      R"({"name": "x", "churn": {"outages_per_minute": 10, "start_s": -20}})",
      R"({"name": "x", "churn": {"outages_per_minute": 10, "end_margin_s": -5}})",
      R"({"name": "x", "record": [7]})",
      // Wrong-typed numerics must be rejected, never silently 0.0.
      R"({"name": "x", "events": [{"at_s": 1, "do": "primary_fault", "value": "75.0"}]})",
      R"({"name": "x", "events": [{"at_s": "1", "do": "clear_primary_fault"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "clock_drift", "node": "sensor", "ppm": "80"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_to_good": 25}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_loss": "0.8"}]})",
      R"({"name": "x", "horizon_s": "120"})",
      R"({"name": "x", "topology": {"generator": "fig5", "link_loss": "0.5"}})",
      R"({"name": "x", "topology": {"generator": "fig5", "third_controller": "true"}})",
      R"({"name": "x", "churn": {"outages_per_minute": "15"}})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "link_outage", "a": "sensor", "b": "ctrl_a", "duration_s": "3"}]})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "traffic_burst", "node": "sensor", "count": "5", "interval_ms": 10}]})",
      // Integer fields reject fractions instead of truncating them.
      R"({"name": "x", "topology": {"generator": "line", "nodes": 8.7}})",
      R"({"name": "x", "topology": {"generator": "line", "nodes": 8, "controllers": 2.5}})",
      R"({"name": "x", "topology": {"generator": "grid", "width": 4.5, "height": 3}})",
      R"({"name": "x", "topology": {"generator": "grid", "width": 4, "height": 3.5}})",
      R"({"name": "x", "testbed": {"evidence_threshold": 6.9}})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "traffic_burst", "node": "sensor", "count": 5.5, "interval_ms": 10}]})",
      R"({"name": "x", "topology": {"nodes": [{"id": 1, "role": "gateway"},
          {"id": 2.5, "role": "sensor"}, {"id": 3, "role": "controller"},
          {"id": 4, "role": "actuator"}],
          "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 3, "b": 4}]}})",
      R"({"name": "x", "events": [{"at_s": 1, "do": "node_crash", "node": 3.7}]})",
      R"({"name": "x", "churn": {"outages_per_minute": 10, "rng_salt": 1.5}})",
  };
  for (const char* text : bad) {
    auto spec = parse(text);
    EXPECT_FALSE(spec.ok()) << "accepted: " << text;
  }
}

TEST(ScenarioSpec, EventDiagnosticsNameTheOffendingKey) {
  // Every fault-event kind, with a required field missing or ill-typed: the
  // diagnostic must name the key the author has to fix (and the events[i]
  // wrapper locates the entry).
  struct Case {
    const char* events;     // contents of the "events" array
    const char* expect_key; // substring the error must contain
  };
  const Case cases[] = {
      // missing fields, one per kind
      {R"([{"at_s": 1, "do": "primary_fault"}])", "'value'"},
      {R"([{"do": "clear_primary_fault"}])", "'at_s'"},
      {R"([{"at_s": 1, "do": "node_crash"}])", "'node'"},
      {R"([{"at_s": 1, "do": "node_restart"}])", "'node'"},
      {R"([{"at_s": 1, "do": "link_down", "b": "sensor"}])", "'a'"},
      {R"([{"at_s": 1, "do": "link_up", "a": "sensor"}])", "'b'"},
      {R"([{"at_s": 1, "do": "link_outage", "a": "sensor", "b": "ctrl_a"}])",
       "'duration_s'"},
      {R"([{"at_s": 1, "do": "link_loss", "a": "sensor", "b": "ctrl_a"}])",
       "'loss'"},
      {R"([{"at_s": 1, "do": "clear_burst_loss", "a": "sensor"}])", "'b'"},
      {R"([{"at_s": 1, "do": "clock_drift", "node": "sensor"}])", "'ppm'"},
      {R"([{"at_s": 1, "do": "traffic_burst", "node": "sensor", "interval_ms": 10}])",
       "'count'"},
      {R"([{"at_s": 1, "do": "traffic_burst", "node": "sensor", "count": 5}])",
       "'interval_ms'"},
      // ill-typed fields
      {R"([{"at_s": 1, "do": "primary_fault", "value": "75"}])", "'value'"},
      {R"([{"at_s": true, "do": "clear_primary_fault"}])", "'at_s'"},
      {R"([{"at_s": 1, "do": "node_crash", "node": true}])", "'node'"},
      {R"([{"at_s": 1, "do": "link_down", "a": {}, "b": "sensor"}])", "'a'"},
      {R"([{"at_s": 1, "do": "link_outage", "a": "sensor", "b": "ctrl_a", "duration_s": "3"}])",
       "'duration_s'"},
      {R"([{"at_s": 1, "do": "link_loss", "a": "sensor", "b": "ctrl_a", "loss": "0.4"}])",
       "'loss'"},
      {R"([{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_good_to_bad": "x"}])",
       "'p_good_to_bad'"},
      {R"([{"at_s": 1, "do": "burst_loss", "a": "sensor", "b": "ctrl_a", "p_bad_loss": 9}])",
       "'p_bad_loss'"},
      {R"([{"at_s": 1, "do": "clock_drift", "node": "sensor", "ppm": []}])",
       "'ppm'"},
      {R"([{"at_s": 1, "do": "traffic_burst", "node": "sensor", "count": "5", "interval_ms": 10}])",
       "'count'"},
  };
  for (const auto& c : cases) {
    auto spec = parse(std::string(R"({"name": "x", "events": )") + c.events + "}");
    ASSERT_FALSE(spec.ok()) << "accepted: " << c.events;
    const std::string message = spec.status().message();
    EXPECT_NE(message.find(c.expect_key), std::string::npos)
        << "diagnostic for " << c.events << " does not name " << c.expect_key
        << ": " << message;
    EXPECT_NE(message.find("events[0]"), std::string::npos) << message;
  }
}

TEST(ScenarioSpec, RejectsEventsScheduledPastTheHorizon) {
  auto spec = parse(R"({
    "name": "x",
    "horizon_s": 60,
    "events": [
      {"at_s": 10, "do": "primary_fault", "value": 75},
      {"at_s": 100, "do": "node_crash", "node": "ctrl_a"}
    ]
  })");
  ASSERT_FALSE(spec.ok());
  const std::string message = spec.status().message();
  EXPECT_NE(message.find("events[1]"), std::string::npos) << message;
  EXPECT_NE(message.find("horizon"), std::string::npos) << message;
  EXPECT_NE(message.find("node_crash"), std::string::npos) << message;

  // Exactly at the horizon still fires (the simulator runs events at the
  // end time), so it is accepted.
  auto boundary = parse(R"({
    "name": "x",
    "horizon_s": 60,
    "events": [{"at_s": 60, "do": "primary_fault", "value": 75}]
  })");
  EXPECT_TRUE(boundary.ok()) << boundary.status().to_string();
}

TEST(ScenarioRunner, RejectsReTimedSpecWithEventsPastHorizon) {
  // A spec re-timed after parsing (the CLI horizon override path) must be
  // rejected by the runner rather than silently dropping scheduled faults.
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  spec->horizon_s = 5.0;  // fault is at 10 s
  ScenarioRunner runner(*spec, 1);
  const RunMetrics m = runner.run();
  EXPECT_FALSE(m.ok);
  EXPECT_NE(m.error.find("horizon"), std::string::npos) << m.error;
}

TEST(ScenarioSpec, NonFiniteHorizonFailsValidation) {
  // Specs built in code skip the parser's checks; validate() (which the
  // runner re-runs) must still refuse a horizon no simulation can reach.
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  for (double horizon : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    spec->horizon_s = horizon;
    EXPECT_FALSE(spec->validate()) << "horizon " << horizon;
    const RunMetrics m = ScenarioRunner(*spec, 1).run();
    EXPECT_FALSE(m.ok) << "horizon " << horizon;
  }
}

TEST(ScenarioSpec, JsonRoundTripIsStable) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  auto reparsed = ScenarioSpec::from_json(spec->to_json());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->to_json().dump(), spec->to_json().dump());
}

TEST(ScenarioSpec, TopologySectionParsesResolvesAndRoundTrips) {
  auto spec = parse(R"({
    "name": "line-world",
    "horizon_s": 40,
    "testbed": {"control_period_ms": 500, "evidence_threshold": 6},
    "topology": {"generator": "line", "nodes": 8},
    "events": [
      {"at_s": 10, "do": "node_crash", "node": "relay_2"},
      {"at_s": 14, "do": "node_restart", "node": "relay_2"},
      {"at_s": 20, "do": "link_outage", "a": "ctrl_a", "b": "ctrl_b", "duration_s": 2}
    ]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  const testbed::TopologySpec topo = spec->topology();
  EXPECT_EQ(topo.nodes.size(), 8u);
  EXPECT_TRUE(topo.multi_hop());
  // Event node refs resolved against the custom role table.
  EXPECT_EQ(spec->events[0].node, topo.find_name("relay_2")->id);

  // Round trip: the report's spec echo rebuilds the identical world.
  auto reparsed = ScenarioSpec::from_json(spec->to_json());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->to_json().dump(), spec->to_json().dump());
  EXPECT_EQ(reparsed->topology().to_json().dump(), topo.to_json().dump());
}

TEST(ScenarioSpec, TopologyRejectsConflictsAndMissingLinks) {
  // Link events must reference links that exist (gateway-actuator is 7 hops
  // apart on the chain).
  auto no_link = parse(R"({
    "name": "x", "horizon_s": 30,
    "testbed": {"control_period_ms": 500},
    "topology": {"generator": "line", "nodes": 8},
    "events": [{"at_s": 5, "do": "link_down", "a": "gateway", "b": "actuator"}]
  })");
  ASSERT_FALSE(no_link.ok());
  EXPECT_NE(no_link.status().message().find("no link"), std::string::npos);

  // Unknown role names fail with the world's own vocabulary.
  auto unknown = parse(R"({
    "name": "x", "horizon_s": 30,
    "testbed": {"control_period_ms": 500},
    "topology": {"generator": "line", "nodes": 8},
    "events": [{"at_s": 5, "do": "node_crash", "node": "ctrl_c"}]
  })");
  EXPECT_FALSE(unknown.ok());

  // Schedule feasibility: a 20-node frame cannot fit a 100 ms period.
  auto infeasible = parse(R"({
    "name": "x", "horizon_s": 30,
    "testbed": {"control_period_ms": 100},
    "topology": {"generator": "grid", "width": 5, "height": 4}
  })");
  ASSERT_FALSE(infeasible.ok());
  EXPECT_NE(infeasible.status().message().find("infeasible"), std::string::npos);
}

TEST(ScenarioRunner, MultiHopLineFailoverCrossesRelays) {
  // A world the fixed six-node testbed could never express: the failover
  // evidence, the fault report and the promotion all cross a relay chain.
  auto spec = parse(R"({
    "name": "test-line-failover",
    "horizon_s": 40,
    "testbed": {"control_period_ms": 250, "evidence_threshold": 6,
                "dormant_delay_s": 5},
    "topology": {"generator": "line", "nodes": 6},
    "events": [{"at_s": 10, "do": "primary_fault", "value": 75.0}]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  ScenarioRunner runner(*spec, 3);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GE(m.failover_count, 1u);
  EXPECT_TRUE(m.backup_active);
  EXPECT_EQ(m.ctrl_b_mode, "Active");
  EXPECT_LT(m.level_rmse_pct, 5.0);
}

TEST(ScenarioSpec, ShippedScenariosStillParseAndRoundTrip) {
  // Every shipped Fig. 5 spec must parse to the six-node mesh and
  // round-trip byte-stably; the multi-hop specs must parse too.
  const std::string dir = EVM_REPO_SCENARIOS_DIR;
  const struct {
    const char* file;
    bool fig5;
  } shipped[] = {
      {"baseline.json", true},          {"fig6_failover.json", true},
      {"burst_loss_churn.json", true},  {"cascade.json", true},
      {"grid_20_node.json", false},     {"line_multihop.json", false},
  };
  for (const auto& entry : shipped) {
    auto spec = ScenarioSpec::load_file(dir + "/" + entry.file);
    ASSERT_TRUE(spec.ok()) << entry.file << ": " << spec.status().to_string();
    const testbed::TopologySpec& topo = spec->topology();
    EXPECT_TRUE(topo.validate()) << entry.file;
    if (entry.fig5) {
      EXPECT_EQ(topo.nodes.size(), 6u) << entry.file;
      EXPECT_EQ(topo.diameter(), 1) << entry.file;
    } else {
      EXPECT_TRUE(topo.multi_hop()) << entry.file;
    }
    auto reparsed = ScenarioSpec::from_json(spec->to_json());
    ASSERT_TRUE(reparsed.ok()) << entry.file;
    EXPECT_EQ(reparsed->to_json().dump(), spec->to_json().dump()) << entry.file;
  }
}

/// Field-by-field equality of everything a spec file sets. Comparing two
/// to_json() dumps cannot catch a field the serializer drops, since both
/// sides drop it alike.
void expect_same_experiment(const ScenarioSpec& a, const ScenarioSpec& b,
                            const std::string& file) {
  SCOPED_TRACE(file);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.description, b.description);
  EXPECT_EQ(a.horizon_s, b.horizon_s);
  const auto& x = a.testbed;
  const auto& y = b.testbed;
  EXPECT_EQ(x.control_period.ns(), y.control_period.ns());
  EXPECT_EQ(x.evidence_threshold, y.evidence_threshold);
  EXPECT_EQ(x.dormant_delay.ns(), y.dormant_delay.ns());
  EXPECT_EQ(x.promotion_timeout.ns(), y.promotion_timeout.ns());
  EXPECT_EQ(x.head_beacon_period.ns(), y.head_beacon_period.ns());
  EXPECT_EQ(x.dissemination, y.dissemination);
  EXPECT_EQ(x.topology.to_json().dump(), y.topology.to_json().dump());
  EXPECT_EQ(a.record, b.record);
  EXPECT_EQ(a.churn.enabled, b.churn.enabled);
  EXPECT_EQ(a.churn.outages_per_minute, b.churn.outages_per_minute);
  EXPECT_EQ(a.churn.outage_s, b.churn.outage_s);
  EXPECT_EQ(a.churn.start_s, b.churn.start_s);
  EXPECT_EQ(a.churn.end_margin_s, b.churn.end_margin_s);
  EXPECT_EQ(a.churn.rng_salt, b.churn.rng_salt);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    SCOPED_TRACE("events[" + std::to_string(i) + "]");
    const FaultEvent& e = a.events[i];
    const FaultEvent& f = b.events[i];
    EXPECT_EQ(e.at_s, f.at_s);
    EXPECT_EQ(e.kind, f.kind);
    EXPECT_EQ(e.node, f.node);
    EXPECT_EQ(e.a, f.a);
    EXPECT_EQ(e.b, f.b);
    EXPECT_EQ(e.value, f.value);
    EXPECT_EQ(e.duration_s, f.duration_s);
    EXPECT_EQ(e.burst.p_good_loss, f.burst.p_good_loss);
    EXPECT_EQ(e.burst.p_bad_loss, f.burst.p_bad_loss);
    EXPECT_EQ(e.burst.p_good_to_bad, f.burst.p_good_to_bad);
    EXPECT_EQ(e.burst.p_bad_to_good, f.burst.p_bad_to_good);
    EXPECT_EQ(e.count, f.count);
    EXPECT_EQ(e.interval_ms, f.interval_ms);
  }
}

TEST(ScenarioSpec, SpecEchoRebuildsEveryShippedExperiment) {
  // A campaign report's spec echo is to_json(); spec_hash hashes it and
  // --merge trusts it. Parsed back, it must be the experiment the file
  // describes, field by field.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(EVM_REPO_SCENARIOS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 12u);
  for (const auto& file : files) {
    auto spec = ScenarioSpec::load_file(file.string());
    ASSERT_TRUE(spec.ok()) << spec.status().to_string();
    auto echo = ScenarioSpec::from_json(spec->to_json());
    ASSERT_TRUE(echo.ok()) << file << ": " << echo.status().to_string();
    expect_same_experiment(*spec, *echo, file.filename().string());
  }
}

TEST(ScenarioSpec, RejectsUnknownKeysInEverySection) {
  // A misspelled key left unread would keep its field at the default and
  // run a different experiment than the file describes.
  const struct {
    const char* text;
    const char* key;
    const char* section;
  } cases[] = {
      {R"({"name": "x", "horizon": 30})", "horizon", "the spec"},
      {R"({"name": "x", "testbed": {"evidence_treshold": 6}})",
       "evidence_treshold", "'testbed'"},
      {R"({"name": "x", "churn": {"outage_s": 4, "outages_per_min": 9}})",
       "outages_per_min", "'churn'"},
      {R"({"name": "x", "events": [{"at_s": 5, "do": "node_crash", "nod": "ctrl_a"}]})",
       "nod", "event 'node_crash'"},
      // A key valid for another event kind is still foreign here.
      {R"({"name": "x", "events": [
         {"at_s": 5, "do": "primary_fault", "value": 75},
         {"at_s": 6, "do": "clear_primary_fault", "value": 75}]})",
       "value", "events[1]: unknown key 'value' in event 'clear_primary_fault'"},
      // The Fig. 5 knobs live in the topology section only.
      {R"({"name": "x", "testbed": {"link_loss": 0.1}})", "link_loss", "'testbed'"},
      {R"({"name": "x", "testbed": {"third_controller": true}})",
       "third_controller", "'testbed'"},
      // The level setpoint is a constant, not a spec knob.
      {R"({"name": "x", "testbed": {"level_setpoint": 55}})",
       "level_setpoint", "'testbed'"},
      // Each generator takes its own keys only: fig5 has no 'controllers'.
      {R"({"name": "x", "topology": {"generator": "fig5", "controllers": 3}})",
       "controllers", "topology: unknown key 'controllers' in the fig5 generator"},
      {R"({"name": "x", "topology": {"generator": "fig5", "third_controler": true}})",
       "third_controler", "the fig5 generator"},
      {R"({"name": "x", "topology": {"generator": "line", "nodes": 8,
                                     "third_controller": true}})",
       "third_controller", "the line generator"},
      {R"({"name": "x", "topology": {"generator": "star", "nodes": 8, "height": 2}})",
       "height", "the star generator"},
      {R"({"name": "x", "topology": {"generator": "grid", "width": 4, "height": 2,
                                     "nodes": 8}})",
       "nodes", "the grid generator"},
      {R"({"name": "x", "topology": {"nodes": [{"id": 1, "role": "gateway"}],
                                     "links": [], "link_loss": 0.1}})",
       "link_loss", "the explicit topology"},
      {R"({"name": "x", "topology": {"nodes": [{"id": 1, "role": "gateway", "vc": true}],
                                     "links": []}})",
       "vc", "nodes[0]"},
      {R"({"name": "x", "topology": {"nodes": [{"id": 1, "role": "gateway"},
                                               {"id": 2, "role": "sensor"}],
                                     "links": [{"a": 1, "b": 2, "los": 0.1}]}})",
       "los", "links[0]"},
  };
  for (const auto& c : cases) {
    auto spec = parse(c.text);
    ASSERT_FALSE(spec.ok()) << c.text;
    EXPECT_EQ(spec.status().code(), util::StatusCode::kInvalidArgument);
    const std::string& message = spec.status().message();
    EXPECT_NE(message.find(std::string("'") + c.key + "'"), std::string::npos)
        << message;
    EXPECT_NE(message.find(c.section), std::string::npos) << message;
  }
}

TEST(ScenarioRunner, ShippedFig6ScenarioReproducesItsAggregates) {
  // The canonical pre-redesign experiment still runs on the (now data-built)
  // Fig. 5 world and produces the same shape of result: one failover, the
  // backup in charge, the plant held near setpoint — deterministically.
  const std::string dir = EVM_REPO_SCENARIOS_DIR;
  auto spec = ScenarioSpec::load_file(dir + "/fig6_failover.json");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  ScenarioRunner runner(*spec, 1);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.failover_count, 1u);
  EXPECT_TRUE(m.backup_active);
  EXPECT_EQ(m.ctrl_a_mode, "Dormant");
  EXPECT_EQ(m.ctrl_b_mode, "Active");
  EXPECT_GT(m.failover_latency_s, 0.0);
  EXPECT_LT(m.failover_latency_s, 10.0);
  EXPECT_LT(m.level_rmse_pct, 2.0);
  ScenarioRunner again(*spec, 1);
  EXPECT_EQ(again.run().to_json().dump(), m.to_json().dump());
}

TEST(ScenarioRunner, BaselineHoldsLevelWithoutFailover) {
  auto spec = parse(R"({
    "name": "test-baseline",
    "horizon_s": 30,
    "testbed": {"evidence_threshold": 8},
    "topology": {"generator": "fig5", "link_loss": 0.01}
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 1);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.failover_count, 0u);
  EXPECT_FALSE(m.backup_active);
  EXPECT_EQ(m.ctrl_a_mode, "Active");
  EXPECT_LT(m.level_rmse_pct, 1.0);
  EXPECT_GT(m.packets_delivered, 0u);
  EXPECT_GT(m.task_releases, 0u);
}

TEST(ScenarioRunner, PrimaryFaultTriggersFailover) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 3);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_DOUBLE_EQ(m.fault_injected_s, 10.0);
  EXPECT_GE(m.failover_count, 1u);
  EXPECT_GT(m.failover_latency_s, 0.0);
  EXPECT_LT(m.failover_latency_s, 30.0);
  EXPECT_TRUE(m.backup_active);
  EXPECT_EQ(m.ctrl_b_mode, "Active");
}

TEST(ScenarioRunner, ClearPrimaryFaultBeforeTheEvidenceWindowAvoidsFailover) {
  // Two faulty 250 ms cycles, well short of the 8 the backup needs as
  // evidence; the same fault left standing is failed over.
  auto spec = parse(R"({
    "name": "test-clear-fault",
    "horizon_s": 60,
    "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5},
    "topology": {"generator": "fig5", "link_loss": 0.05},
    "events": [{"at_s": 10, "do": "primary_fault", "value": 75.0},
               {"at_s": 10.5, "do": "clear_primary_fault"}]
  })");
  ASSERT_TRUE(spec.ok());
  const RunMetrics cleared = ScenarioRunner(*spec, 3).run();
  ASSERT_TRUE(cleared.ok) << cleared.error;
  EXPECT_EQ(cleared.failover_count, 0u);
  EXPECT_EQ(cleared.ctrl_a_mode, "Active");
  EXPECT_FALSE(cleared.backup_active);

  spec->events.pop_back();
  const RunMetrics standing = ScenarioRunner(*spec, 3).run();
  ASSERT_TRUE(standing.ok) << standing.error;
  EXPECT_GE(standing.failover_count, 1u);
}

TEST(ScenarioRunner, ClearBurstLossEndsTheBurst) {
  // Every frame on sensor <-> ctrl_a is lost from 5 s; clearing the chain at
  // 10 s returns the link to its i.i.d. loss for the remaining 20 s.
  auto spec = parse(R"({
    "name": "test-clear-burst",
    "horizon_s": 30,
    "testbed": {"evidence_threshold": 8},
    "topology": {"generator": "fig5", "link_loss": 0.01},
    "events": [{"at_s": 5, "do": "burst_loss", "a": "sensor", "b": "ctrl_a",
                "p_good_loss": 1.0, "p_bad_loss": 1.0},
               {"at_s": 10, "do": "clear_burst_loss", "a": "sensor", "b": "ctrl_a"}]
  })");
  ASSERT_TRUE(spec.ok());
  const RunMetrics cleared = ScenarioRunner(*spec, 1).run();
  ASSERT_TRUE(cleared.ok) << cleared.error;

  spec->events.pop_back();
  const RunMetrics standing = ScenarioRunner(*spec, 1).run();
  ASSERT_TRUE(standing.ok) << standing.error;

  spec->events.clear();
  const RunMetrics no_burst = ScenarioRunner(*spec, 1).run();
  ASSERT_TRUE(no_burst.ok) << no_burst.error;

  EXPECT_GT(cleared.packets_lost, no_burst.packets_lost);
  EXPECT_GT(standing.packets_lost, cleared.packets_lost);
}

TEST(ScenarioRunner, NodeCrashIsDetectedAsSilence) {
  auto spec = parse(R"({
    "name": "test-crash",
    "horizon_s": 60,
    "testbed": {"evidence_threshold": 8, "dormant_delay_s": 5},
    "events": [{"at_s": 10, "do": "node_crash", "node": "ctrl_a"}]
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 2);
  const RunMetrics m = runner.run();
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_GE(m.failover_count, 1u);
  EXPECT_TRUE(m.backup_active);
}

TEST(ScenarioRunner, SameSeedIsByteIdentical) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  ScenarioRunner a(*spec, 7), b(*spec, 7);
  EXPECT_EQ(a.run().to_json().dump(), b.run().to_json().dump());
}

TEST(ScenarioRunner, DifferentSeedsDiverge) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  ScenarioRunner a(*spec, 1), b(*spec, 2);
  // Link-loss draws differ, so at minimum the packet counters move.
  EXPECT_NE(a.run().to_json().dump(), b.run().to_json().dump());
}

TEST(ScenarioRunner, ChurnIsSeededAndApplied) {
  auto spec = parse(R"({
    "name": "test-churn",
    "horizon_s": 40,
    "testbed": {"evidence_threshold": 8},
    "churn": {"outages_per_minute": 30, "outage_s": 2, "start_s": 5, "end_margin_s": 5}
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner a(*spec, 5);
  const RunMetrics m = a.run();
  ASSERT_TRUE(m.ok) << m.error;
  // 30/min over the 30s placement window [5, 35] -> 15 outages -> 30
  // mutations (down + up).
  EXPECT_EQ(m.topology_mutations, 30u);
  ScenarioRunner b(*spec, 5);
  EXPECT_EQ(b.run().to_json().dump(), m.to_json().dump());
}

TEST(ScenarioRunner, TraceExportsCsvAndJson) {
  auto spec = parse(R"({
    "name": "test-trace",
    "horizon_s": 20,
    "record": ["TowerFeed.MolarFlow"]
  })");
  ASSERT_TRUE(spec.ok());
  ScenarioRunner runner(*spec, 1);
  ASSERT_TRUE(runner.run().ok);

  std::ostringstream csv;
  runner.trace().to_csv(csv);
  EXPECT_NE(csv.str().find("series,time_s,value\n"), std::string::npos);
  EXPECT_NE(csv.str().find("LTS.LiquidPercentLevel,"), std::string::npos);
  EXPECT_NE(csv.str().find("TowerFeed.MolarFlow,"), std::string::npos);

  const util::Json exported = runner.trace().to_json();
  const util::Json* series = exported.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 2u);
  EXPECT_EQ(series->at(0).find("times_s")->size(),
            series->at(0).find("values")->size());
}

TEST(Campaign, ResultIndependentOfJobCount) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  // The wall-clock "timing" block is machine-dependent by design; every
  // other byte of the report must be identical across pool sizes.
  const auto stripped_dump = [](const util::Json& report) {
    util::Json out = util::Json::object();
    for (const auto& [key, value] : report.members()) {
      if (key != "timing") out.set(key, value);
    }
    return out.dump();
  };
  CampaignConfig config;
  config.base_seed = 1;
  config.seeds = 4;
  config.jobs = 1;
  const util::Json serial =
      campaign_report(*spec, config, run_campaign(*spec, config));
  config.jobs = 4;
  const util::Json parallel =
      campaign_report(*spec, config, run_campaign(*spec, config));
  EXPECT_EQ(stripped_dump(serial), stripped_dump(parallel));
}

TEST(Campaign, AggregatesFailoverLatencyPercentiles) {
  auto spec = parse(kFailoverSpec);
  ASSERT_TRUE(spec.ok());
  CampaignConfig config;
  config.seeds = 4;
  config.jobs = 2;
  const CampaignResult result = run_campaign(*spec, config);
  EXPECT_TRUE(result.all_ok());
  const util::Json report = campaign_report(*spec, config, result);

  ASSERT_NE(report.find("runs"), nullptr);
  EXPECT_EQ(report.find("runs")->size(), 4u);
  const util::Json* aggregate = report.find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->find("runs_ok")->as_int(), 4);
  const util::Json* latency = aggregate->find("failover_latency_s");
  ASSERT_NE(latency, nullptr) << "no failovers detected in any seed";
  for (const char* key : {"p50", "p90", "p99", "mean", "max"}) {
    ASSERT_NE(latency->find(key), nullptr) << key;
    EXPECT_GT(latency->find(key)->as_double(), 0.0) << key;
  }
  // The spec echo makes reports self-describing.
  ASSERT_NE(report.find("spec"), nullptr);
  EXPECT_EQ(report.find("spec")->find("name")->as_string(), "test-failover");
}

TEST(Campaign, WorkerFailuresAreReportedNotThrown) {
  // Force a deterministic per-run failure: an impossible control period.
  // The parser rejects it up front (schedule feasibility), so re-time the
  // spec programmatically after parsing — the runner re-validates and every
  // worker must capture the error in its RunMetrics instead of throwing.
  auto spec = parse(R"({
    "name": "test-inadmissible",
    "horizon_s": 10
  })");
  ASSERT_TRUE(spec.ok());
  spec->testbed.control_period = util::Duration::millis(1);
  CampaignConfig config;
  config.seeds = 2;
  config.jobs = 2;
  const CampaignResult result = run_campaign(*spec, config);
  ASSERT_EQ(result.runs.size(), 2u);
  for (const auto& run : result.runs) {
    EXPECT_FALSE(run.ok);
    EXPECT_FALSE(run.error.empty());
  }
  const util::Json report = campaign_report(*spec, config, result);
  EXPECT_EQ(report.find("aggregate")->find("runs_failed")->as_int(), 2);
}

}  // namespace
}  // namespace evm::scenario
