// Observability-layer tests: the metrics registry snapshots byte-stably, the
// trace recorder exports well-formed Chrome trace JSON and JSONL, recording
// never perturbs a deterministic run (same metrics with tracing on and off),
// the phase timers read wall time through util::TimeSource, and hostile
// series names cannot corrupt the CSV/trace artifacts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace_recorder.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace evm {
namespace {

// --- metrics registry --------------------------------------------------------

TEST(Metrics, CountersGaugesHistogramsAccumulate) {
  obs::Metrics m;
  m.counter("net.medium.deliveries").add();
  m.counter("net.medium.deliveries").add(4);
  m.gauge("sim.queue_depth_max").update_max(3.0);
  m.gauge("sim.queue_depth_max").update_max(2.0);  // lower: keeps the max
  m.histogram("net.rtlink.slots_used_per_node").record(2.0);
  m.histogram("net.rtlink.slots_used_per_node").record(6.0);

  EXPECT_EQ(m.find_counter("net.medium.deliveries")->value, 5u);
  EXPECT_DOUBLE_EQ(m.find_gauge("sim.queue_depth_max")->value, 3.0);
  const obs::Histogram* h = m.find_histogram("net.rtlink.slots_used_per_node");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->min, 2.0);
  EXPECT_DOUBLE_EQ(h->max, 6.0);
  EXPECT_DOUBLE_EQ(h->mean(), 4.0);
  EXPECT_EQ(m.find_counter("never.touched"), nullptr);
}

TEST(Metrics, SnapshotIsOrderedAndByteStable) {
  const auto build = [] {
    obs::Metrics m;
    // Insert in non-alphabetical order; the snapshot must not care.
    m.counter("zeta").add(2);
    m.counter("alpha").add(1);
    m.gauge("mid").set(0.5);
    m.histogram("hist").record(1.0);
    return m.to_json().dump();
  };
  const std::string first = build();
  const std::string second = build();
  EXPECT_EQ(first, second);
  // "alpha" precedes "zeta" in the dumped document (name-ordered sections).
  EXPECT_LT(first.find("\"alpha\""), first.find("\"zeta\""));
}

TEST(Metrics, EmptyRegistrySnapshotsEmptySections) {
  obs::Metrics m;
  EXPECT_TRUE(m.empty());
  const util::Json j = m.to_json();
  ASSERT_NE(j.find("counters"), nullptr);
  ASSERT_NE(j.find("gauges"), nullptr);
  ASSERT_NE(j.find("histograms"), nullptr);
  EXPECT_EQ(j.find("counters")->size(), 0u);
  // The empty snapshot still parses back.
  const auto parsed = util::Json::parse(j.dump());
  ASSERT_TRUE(parsed.ok());
}

TEST(Metrics, ClearDropsEveryInstrument) {
  obs::Metrics m;
  m.counter("a").add(3);
  m.gauge("b").set(1.0);
  m.histogram("c").record(2.0);
  ASSERT_FALSE(m.empty());
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find_counter("a"), nullptr);
  EXPECT_EQ(m.find_gauge("b"), nullptr);
  EXPECT_EQ(m.find_histogram("c"), nullptr);
  // A name looked up again after clear() starts from zero.
  EXPECT_EQ(m.counter("a").value, 0u);
}

TEST(Metrics, HistogramFirstSampleSetsBothBounds) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  // Negative samples: the zero-initialized bounds must not leak into max.
  h.record(-4.0);
  h.record(-2.0);
  EXPECT_DOUBLE_EQ(h.min, -4.0);
  EXPECT_DOUBLE_EQ(h.max, -2.0);
  EXPECT_DOUBLE_EQ(h.mean(), -3.0);
}

// --- trace recorder ----------------------------------------------------------

obs::TraceRecorder make_recorder() {
  obs::TraceRecorder rec;
  rec.set_track(1, "gw");
  rec.set_track(2, "ctrl_a");
  util::Json args = util::Json::object();
  args.set("slot", static_cast<std::int64_t>(3));
  rec.instant(1, "net.rtlink", "frame", util::TimePoint(1000));
  rec.complete(2, "net.rtlink", "tx", util::TimePoint(2000),
               util::Duration::micros(4), std::move(args));
  return rec;
}

TEST(TraceRecorder, ChromeExportIsWellFormed) {
  const obs::TraceRecorder rec = make_recorder();
  const util::Json doc = rec.to_chrome_json();

  // Round-trip through the parser: the export must be valid JSON.
  const auto parsed = util::Json::parse(doc.dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  const util::Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 2 thread_name metadata records + 2 events.
  ASSERT_EQ(events->size(), 4u);
  for (const util::Json& e : events->elements()) {
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    const std::string ph = e.find("ph")->as_string();
    if (ph != "M") {
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("name"), nullptr);
      ASSERT_NE(e.find("cat"), nullptr);
    }
    if (ph == "X") {
      ASSERT_NE(e.find("dur"), nullptr);
    }
    if (ph == "i") {
      ASSERT_NE(e.find("s"), nullptr);
    }
  }
  // Sim nanoseconds land as trace microseconds.
  const util::Json& frame = events->at(2);
  EXPECT_EQ(frame.find("ph")->as_string(), "i");
  EXPECT_DOUBLE_EQ(frame.find("ts")->as_double(), 1.0);
  const util::Json& tx = events->at(3);
  EXPECT_EQ(tx.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(tx.find("ts")->as_double(), 2.0);
  EXPECT_DOUBLE_EQ(tx.find("dur")->as_double(), 4.0);
  EXPECT_EQ(tx.find("args")->find("slot")->as_int(), 3);
}

TEST(TraceRecorder, JsonlIsOneParsableObjectPerLine) {
  const obs::TraceRecorder rec = make_recorder();
  std::istringstream lines(rec.to_jsonl());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const auto parsed = util::Json::parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_NE(parsed->find("ph"), nullptr);
    ASSERT_NE(parsed->find("tid"), nullptr);
    ASSERT_NE(parsed->find("ts_ns"), nullptr);
    ++n;
  }
  EXPECT_EQ(n, rec.size());
}

TEST(TraceRecorder, EmptyTraceExportsAreValid) {
  const obs::TraceRecorder rec;
  EXPECT_TRUE(rec.empty());
  const auto parsed = util::Json::parse(rec.to_chrome_json().dump());
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->find("traceEvents"), nullptr);
  EXPECT_EQ(parsed->find("traceEvents")->size(), 0u);
  EXPECT_EQ(rec.to_jsonl(), "");
}

TEST(TraceRecorder, HostileNamesAreEscapedInBothExports) {
  obs::TraceRecorder rec;
  const std::string hostile = "evil\"node\nname,with\\specials";
  rec.set_track(7, hostile);
  rec.instant(7, "cat\"egory", hostile, util::TimePoint(10));
  // Both exports must survive a parse round-trip despite the quotes,
  // newlines and backslashes in the names.
  const auto chrome = util::Json::parse(rec.to_chrome_json().dump());
  ASSERT_TRUE(chrome.ok()) << chrome.status().message();
  std::istringstream lines(rec.to_jsonl());
  std::string line;
  while (std::getline(lines, line)) {
    const auto parsed = util::Json::parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
  }
}

// --- shared escaping path (sim::Trace CSV regression) -------------------------

TEST(TraceCsv, HostileSeriesNameCannotAddColumnsOrRows) {
  sim::Trace trace;
  trace.record("a,b\"c\nd", util::TimePoint(0), 1.0);
  trace.record("plain", util::TimePoint(0), 2.0);
  std::ostringstream csv;
  trace.to_csv(csv);

  std::istringstream lines(csv.str());
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  // Header + exactly one row per sample: the embedded newline must not have
  // produced a fifth line.
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], "series,time_s,value");
  // The hostile name is emitted as a JSON string literal (quoted, escaped),
  // so the commas/quotes inside it are inert and the row still has exactly
  // three columns: a quoted field plus the two numeric ones.
  EXPECT_EQ(rows[1].rfind("\"a,b\\\"c\\nd\",", 0), 0u) << rows[1];
  EXPECT_EQ(rows[2].rfind("plain,", 0), 0u);
}

TEST(JsonEscape, MatchesTheJsonWriter) {
  const std::string hostile = "a\"b\\c\nd\te\x01";
  util::Json j = util::Json::object();
  j.set("k", hostile);
  const std::string dumped = j.dump();
  // The shared escape() produces exactly the literal the writer embeds.
  EXPECT_NE(dumped.find(util::Json::escape(hostile)), std::string::npos);
}

// --- wall-clock plane ----------------------------------------------------------

TEST(TimeSourceWall, IsMonotonicNonDecreasing) {
  const std::int64_t a = util::TimeSource::wall_ns();
  const std::int64_t b = util::TimeSource::wall_ns();
  EXPECT_GE(b, a);
}

TEST(PhaseProfile, AccumulatesInInsertionOrder) {
  obs::PhaseProfile profile;
  profile.add("setup", 2.0);
  profile.add("run", 5.0);
  profile.add("run", 3.0);  // accumulates
  EXPECT_DOUBLE_EQ(profile.ms("setup"), 2.0);
  EXPECT_DOUBLE_EQ(profile.ms("run"), 8.0);
  EXPECT_DOUBLE_EQ(profile.ms("absent"), 0.0);
  EXPECT_DOUBLE_EQ(profile.total_ms(), 10.0);
  const util::Json j = profile.to_json();
  ASSERT_NE(j.find("setup_ms"), nullptr);
  ASSERT_NE(j.find("run_ms"), nullptr);
  EXPECT_DOUBLE_EQ(j.find("total_ms")->as_double(), 10.0);
  // Insertion order, not name order: setup before run.
  EXPECT_LT(j.dump().find("setup_ms"), j.dump().find("run_ms"));
}

TEST(ScopedPhase, ChargesTheEnclosingScope) {
  obs::PhaseProfile profile;
  {
    obs::ScopedPhase slice(profile, "work");
  }
  EXPECT_GE(profile.ms("work"), 0.0);
  EXPECT_EQ(profile.phases().size(), 1u);
}

// --- tracing never perturbs a run ---------------------------------------------

scenario::ScenarioSpec short_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "obs-determinism";
  spec.horizon_s = 5.0;
  return spec;
}

TEST(ObsIntegration, TracingOnAndOffProduceByteIdenticalMetrics) {
  const scenario::ScenarioSpec spec = short_spec();

  scenario::ScenarioRunner plain(spec, 11);
  const scenario::RunMetrics without = plain.run();
  ASSERT_TRUE(without.ok) << without.error;

  obs::TraceRecorder recorder;
  scenario::ScenarioRunner traced(spec, 11);
  traced.set_trace_recorder(&recorder);
  const scenario::RunMetrics with = traced.run();
  ASSERT_TRUE(with.ok) << with.error;

  // The trace actually recorded something...
  EXPECT_GT(recorder.size(), 0u);
  // ...yet neither the run metrics nor the metrics snapshot moved a byte.
  EXPECT_EQ(without.to_json().dump(), with.to_json().dump());
  EXPECT_EQ(plain.metrics().to_json().dump(), traced.metrics().to_json().dump());
}

TEST(ObsIntegration, MetricsSnapshotIsByteStableAcrossIdenticalRuns) {
  const scenario::ScenarioSpec spec = short_spec();

  scenario::ScenarioRunner first(spec, 3);
  ASSERT_TRUE(first.run().ok);
  scenario::ScenarioRunner second(spec, 3);
  ASSERT_TRUE(second.run().ok);

  const std::string a = first.metrics().to_json().dump();
  const std::string b = second.metrics().to_json().dump();
  EXPECT_EQ(a, b);
  // The snapshot carries the headline instruments.
  EXPECT_NE(first.metrics().find_counter("sim.events_dispatched"), nullptr);
  EXPECT_NE(first.metrics().find_gauge("sim.queue_depth_max"), nullptr);
  EXPECT_NE(first.metrics().find_counter("net.medium.deliveries"), nullptr);
  EXPECT_NE(first.metrics().find_counter("net.rtlink.slots_used"), nullptr);
  EXPECT_NE(first.metrics().find_counter("net.route.broadcast_relays"), nullptr);
  EXPECT_NE(first.metrics().find_counter("scenario.invariant_checks"), nullptr);
  EXPECT_GT(first.metrics().find_counter("sim.events_dispatched")->value, 0u);
  // Radio energy: every node listens in its neighbours' slots and keys its
  // transmitter in its own.
  const obs::Counter* listen = first.metrics().find_counter("net.radio.listen_ns");
  const obs::Counter* tx = first.metrics().find_counter("net.radio.tx_ns");
  ASSERT_NE(listen, nullptr);
  ASSERT_NE(tx, nullptr);
  EXPECT_GT(listen->value, tx->value);
  EXPECT_GT(tx->value, 0u);
}

TEST(ObsIntegration, PhaseTimersAndSimSlotsAreFilled) {
  const scenario::ScenarioSpec spec = short_spec();
  scenario::ScenarioRunner runner(spec, 1);
  const scenario::RunMetrics run = runner.run();
  ASSERT_TRUE(run.ok) << run.error;
  // Wall fields are machine-dependent but must be populated and consistent.
  EXPECT_GT(run.wall_ms, 0.0);
  EXPECT_GT(run.wall_run_ms, 0.0);
  EXPECT_GE(run.wall_ms, run.wall_run_ms);
  EXPECT_FALSE(runner.phases().empty());
  // sim_slots derives from spec alone: 5 s of 5 ms slots.
  EXPECT_EQ(run.sim_slots, 1000u);
  // And it serializes (unlike the wall fields).
  const std::string dumped = run.to_json().dump();
  EXPECT_NE(dumped.find("\"sim_slots\""), std::string::npos);
  EXPECT_EQ(dumped.find("wall"), std::string::npos);
}

}  // namespace
}  // namespace evm
