// Scenario engine CLI: load a declarative scenario spec, fan it out across
// seeds on a thread pool, print the per-seed and aggregate metrics, and
// write the campaign JSON report.
//
//   run_scenario scenarios/fig6_failover.json --seeds 8 --jobs 4
//
// The same spec + seed always produces byte-identical metrics; --jobs only
// changes wall-clock time.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_util.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace_recorder.hpp"
#include "scenario/baseline.hpp"
#include "scenario/campaign.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/log.hpp"

using namespace evm;
using evm::examples::parse_positive;
using evm::examples::parse_u64;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <spec.json> [options]\n"
      << "       " << argv0 << " --merge <report.json>... [--out DIR]\n"
      << "  --seeds N        seeds to run (default 1)\n"
      << "  --jobs J         worker threads (default min(seeds, cores))\n"
      << "  --base-seed S    first seed (default 1)\n"
      << "  --shard K/N      run only every N-th seed starting at K (0-based);\n"
      << "                   N jobs with K=0..N-1 cover the campaign, and\n"
      << "                   --merge folds their reports back together\n"
      << "  --horizon-s H    override the spec's horizon\n"
      << "  --out DIR        report directory (default $EVM_BENCH_OUT or bench/out)\n"
      << "  --check-baseline FILE   compare the campaign aggregates against the\n"
      << "                   checked-in baseline; exit 3 and print a delta table\n"
      << "                   on regression\n"
      << "  --update-baselines FILE rewrite this scenario's baseline entry from\n"
      << "                   the campaign just run (the documented path for\n"
      << "                   intentional perf changes)\n"
      << "  --csv FILE       dump the base seed's plant trace as CSV\n"
      << "  --trace-json FILE  dump the base seed's plant trace as JSON\n"
      << "  --print-trace    print the base seed's trace table (20 s grid)\n"
      << "  --trace FILE     re-run the base seed with event tracing on and\n"
      << "                   write Chrome trace-event JSON (open in Perfetto\n"
      << "                   or chrome://tracing; one track per node)\n"
      << "  --trace-jsonl FILE  the same events as compact JSONL, one per line\n"
      << "  --log-level L    logger verbosity: trace|debug|info|warn|error|off\n"
      << "                   (default warn)\n"
      << "  --metrics        print the base seed's deterministic metrics\n"
      << "                   snapshot (counters/gauges/histograms) as JSON\n"
      << "  --progress       per-run heartbeat on stderr (seed, done/total,\n"
      << "                   wall-clock) while the campaign runs\n";
  return 2;
}

bool parse_shard(const char* text, scenario::CampaignConfig& config) {
  const std::string s(text);
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) return false;
  std::uint64_t index = 0, count = 0;
  if (!parse_u64(s.substr(0, slash).c_str(), index) ||
      !parse_u64(s.substr(slash + 1).c_str(), count)) {
    return false;
  }
  if (count == 0 || index >= count) return false;
  config.shard_index = static_cast<std::size_t>(index);
  config.shard_count = static_cast<std::size_t>(count);
  return true;
}

/// Shared tail of both the single-machine and --merge paths: optionally
/// re-capture the scenario's baseline entry from `report`, then optionally
/// gate `report` against a baselines file. Returns the process exit code
/// (0 = pass / nothing to do, 1 = I/O failure, 2 = unreadable baselines,
/// 3 = regression).
int apply_baseline_flags(const util::Json& report, const std::string& name,
                         const std::string& check_baseline_path,
                         const std::string& update_baselines_path) {
  if (!update_baselines_path.empty()) {
    // Never capture a broken campaign as the expectation: a baseline with
    // runs_failed > 0 would make CI *pass* on failing runs and *fail* the
    // moment they are fixed — the gate inverted.
    double runs_failed = 0.0;
    if (!scenario::aggregate_metric(report, "runs_failed", runs_failed) ||
        runs_failed > 0.0) {
      std::cerr << "error: refusing to update baselines from a campaign with "
                << runs_failed << " failed run(s)\n";
      return 1;
    }
    util::Json baselines = util::Json::object();
    if (auto existing = util::load_json_file(update_baselines_path)) {
      baselines = std::move(*existing);
    }
    if (util::Status s = scenario::upsert_baseline(baselines, report); !s) {
      std::cerr << "error: " << s.to_string() << "\n";
      return 1;
    }
    std::ofstream out(update_baselines_path);
    out << baselines.dump(2) << "\n";
    out.close();
    if (!out) {
      std::cerr << "error: cannot write " << update_baselines_path << "\n";
      return 1;
    }
    std::cout << "[baselines updated] " << update_baselines_path << " ('"
              << name << "')\n";
  }
  if (!check_baseline_path.empty()) {
    auto baselines = util::load_json_file(check_baseline_path);
    if (!baselines) {
      std::cerr << "error: " << baselines.status().to_string() << "\n";
      return 2;
    }
    const scenario::BaselineCheck check =
        scenario::check_against_baseline(*baselines, report);
    std::cout << "\n" << scenario::format_baseline_table(check, name);
    // Distinct exit code so CI can tell "the experiment broke" (1) apart
    // from "the experiment ran but regressed against its baseline" (3).
    if (!check.ok) return 3;
  }
  return 0;
}

int merge_reports(const std::vector<std::string>& paths, const std::string& out_dir,
                  const std::string& check_baseline_path,
                  const std::string& update_baselines_path) {
  std::vector<util::Json> reports;
  for (const std::string& path : paths) {
    auto json = util::load_json_file(path);
    if (!json) {
      std::cerr << "error: " << json.status().to_string() << "\n";
      return 2;
    }
    reports.push_back(std::move(*json));
  }
  auto merged = scenario::merge_campaign_reports(reports);
  if (!merged) {
    std::cerr << "error: " << merged.status().to_string() << "\n";
    return 2;
  }
  const std::string name = merged->find("scenario")->as_string();
  std::cout << "merged " << reports.size() << " shard report(s): "
            << merged->find("runs")->size() << " runs of '" << name << "'\n";
  auto written = scenario::write_campaign_report(*merged, name, out_dir);
  if (!written) {
    std::cerr << "error: " << written.status().to_string() << "\n";
    return 1;
  }
  std::cout << "[campaign json] " << *written << "\n";

  // Sharded pipelines gate on the *merged* campaign, so the baseline flags
  // apply here exactly as in single-machine mode.
  return apply_baseline_flags(*merged, name, check_baseline_path,
                              update_baselines_path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  scenario::CampaignConfig config;
  config.seeds = 1;
  double horizon_override = -1.0;
  std::string out_dir = scenario::report_dir();
  std::string check_baseline_path, update_baselines_path;
  std::string csv_path, trace_json_path;
  std::string chrome_trace_path, trace_jsonl_path;
  bool print_trace = false;
  bool show_metrics = false;
  bool progress = false;
  bool merge_mode = false;
  std::vector<std::string> merge_paths;
  std::string spec_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t value = 0;
    if (!arg.empty() && arg[0] != '-') {
      if (merge_mode) merge_paths.push_back(arg);
      else if (spec_path.empty()) spec_path = arg;
      else return usage(argv[0]);
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg == "--seeds" || arg == "--jobs" || arg == "--base-seed") {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, value)) return usage(argv[0]);
      if (arg == "--seeds") config.seeds = static_cast<std::size_t>(value);
      else if (arg == "--jobs") config.jobs = static_cast<std::size_t>(value);
      else config.base_seed = value;
    } else if (arg == "--shard") {
      const char* v = next();
      if (v == nullptr || !parse_shard(v, config)) return usage(argv[0]);
    } else if (arg == "--horizon-s") {
      const char* v = next();
      if (v == nullptr || !parse_positive(v, horizon_override)) return usage(argv[0]);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      out_dir = v;
    } else if (arg == "--check-baseline") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      check_baseline_path = v;
    } else if (arg == "--update-baselines") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      update_baselines_path = v;
    } else if (arg == "--csv") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      csv_path = v;
    } else if (arg == "--trace-json") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      trace_json_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      chrome_trace_path = v;
    } else if (arg == "--trace-jsonl") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      trace_jsonl_path = v;
    } else if (arg == "--log-level") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      const std::string level = v;
      if (level == "trace") util::Logger::instance().set_level(util::LogLevel::kTrace);
      else if (level == "debug") util::Logger::instance().set_level(util::LogLevel::kDebug);
      else if (level == "info") util::Logger::instance().set_level(util::LogLevel::kInfo);
      else if (level == "warn") util::Logger::instance().set_level(util::LogLevel::kWarn);
      else if (level == "error") util::Logger::instance().set_level(util::LogLevel::kError);
      else if (level == "off") util::Logger::instance().set_level(util::LogLevel::kOff);
      else return usage(argv[0]);
    } else if (arg == "--metrics") {
      show_metrics = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--print-trace") {
      print_trace = true;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (merge_mode) {
    if (merge_paths.empty()) return usage(argv[0]);
    return merge_reports(merge_paths, out_dir, check_baseline_path,
                         update_baselines_path);
  }
  if (spec_path.empty() || config.seeds == 0) return usage(argv[0]);

  const obs::Stopwatch end_to_end;  // spec load to report written
  auto spec = scenario::ScenarioSpec::load_file(spec_path);
  if (!spec) {
    std::cerr << "error: " << spec.status().to_string() << "\n";
    return 2;
  }
  if (horizon_override > 0.0) {
    spec->horizon_s = horizon_override;
    // The runner rejects schedules that extend past the horizon, so a
    // shortening override must drop the now-unreachable events — loudly,
    // never silently.
    std::size_t dropped = 0;
    auto& events = spec->events;
    events.erase(std::remove_if(events.begin(), events.end(),
                                [&](const scenario::FaultEvent& e) {
                                  const bool out = e.at_s > spec->horizon_s;
                                  dropped += out ? 1 : 0;
                                  return out;
                                }),
                 events.end());
    if (dropped > 0) {
      std::cerr << "warning: --horizon-s " << spec->horizon_s << " dropped "
                << dropped << " event(s) scheduled past the new horizon\n";
    }
  }

  std::cout << "=== scenario: " << spec->name << " ===\n";
  if (!spec->description.empty()) std::cout << spec->description << "\n";
  std::cout << "horizon " << spec->horizon_s << " s, " << spec->events.size()
            << " scheduled events"
            << (spec->churn.enabled ? " + seeded churn" : "") << ", seeds "
            << config.base_seed << ".." << (config.base_seed + config.seeds - 1);
  if (config.shard_count > 1) {
    std::cout << " (shard " << config.shard_index << "/" << config.shard_count
              << ")";
  }
  std::cout << "\n\n";

  if (progress) {
    // One composed stderr write per completed run; the callback fires on
    // worker threads, so the single write keeps lines intact.
    config.on_run_done = [](std::size_t done, std::size_t total,
                            const scenario::RunMetrics& run) {
      std::ostringstream line;
      line << "[progress] seed " << run.seed << (run.ok ? " ok" : " FAILED")
           << "  (" << done << "/" << total << " runs, " << std::fixed
           << std::setprecision(0) << run.wall_ms << " ms)\n";
      std::cerr << line.str();
    };
  }

  const scenario::CampaignResult result = scenario::run_campaign(*spec, config);

  std::cout << "  seed   failover_s   missed_dl   loss_rate   level_rmse_%  modes(A/B)\n";
  for (const auto& run : result.runs) {
    std::cout << "  " << std::setw(4) << run.seed;
    if (!run.ok) {
      std::cout << "   FAILED: " << run.error << "\n";
      continue;
    }
    std::cout << std::fixed << std::setprecision(2) << std::setw(11)
              << run.failover_latency_s << std::setw(12) << run.missed_deadlines
              << std::setw(12) << std::setprecision(4) << run.packet_loss_rate
              << std::setw(14) << std::setprecision(2) << run.level_rmse_pct
              << "  " << run.ctrl_a_mode << "/" << run.ctrl_b_mode << "\n";
  }

  const util::Json report = scenario::campaign_report(*spec, config, result);
  auto written = scenario::write_campaign_report(report, spec->name, out_dir);
  if (!written) {
    std::cerr << "error: " << written.status().to_string() << "\n";
    return 1;
  }
  const double end_to_end_ms = end_to_end.elapsed_ms();

  if (const util::Json* aggregate = report.find("aggregate")) {
    std::cout << "\naggregate over " << result.ok_count() << "/"
              << result.runs.size() << " runs:\n";
    if (const util::Json* latency = aggregate->find("failover_latency_s")) {
      std::cout << "  failover latency  p50 " << std::setprecision(2)
                << latency->find("p50")->as_double() << " s   p90 "
                << latency->find("p90")->as_double() << " s   p99 "
                << latency->find("p99")->as_double() << " s\n";
    }
    std::cout << "  failovers detected: "
              << aggregate->find("failovers_detected")->as_int() << ", backups active: "
              << aggregate->find("backups_active")->as_int() << "\n";
  }
  if (const util::Json* timing = report.find("timing")) {
    std::cout << "  wall " << std::fixed << std::setprecision(0)
              << timing->find("wall_ms")->as_double() << " ms, end_to_end "
              << end_to_end_ms << " ms, "
              << timing->find("events_dispatched")->as_int() << " events, "
              << std::setprecision(0)
              << timing->find("sim_slots_per_sec")->as_double()
              << " sim slots/s\n";
    std::cout << "  phases over all runs: setup "
              << timing->find("setup_ms_sum")->as_double() << " ms, run "
              << timing->find("run_ms_sum")->as_double() << " ms, teardown "
              << timing->find("teardown_ms_sum")->as_double() << " ms";
    if (const util::Json* rate = timing->find("run_sim_slots_per_sec")) {
      std::cout << ", " << rate->as_double() << " sim slots/s in the run phase";
    }
    std::cout << "\n";
  }
  std::cout << "\n[campaign json] " << *written << "\n";

  const int baseline_exit = apply_baseline_flags(
      report, spec->name, check_baseline_path, update_baselines_path);
  if (baseline_exit != 0 && baseline_exit != 3) return baseline_exit;

  const bool want_event_trace =
      !chrome_trace_path.empty() || !trace_jsonl_path.empty();
  if (!csv_path.empty() || !trace_json_path.empty() || print_trace ||
      want_event_trace || show_metrics) {
    // Re-run the base seed alone to capture its trace (campaign workers
    // discard their testbeds as they go).
    scenario::ScenarioRunner runner(*spec, config.base_seed);
    obs::TraceRecorder recorder;
    if (want_event_trace) runner.set_trace_recorder(&recorder);
    const scenario::RunMetrics run = runner.run();
    if (!run.ok) {
      std::cerr << "error: trace run failed: " << run.error << "\n";
      return 1;
    }
    if (!csv_path.empty()) {
      std::ofstream csv(csv_path);
      runner.trace().to_csv(csv);
      if (!csv) {
        std::cerr << "error: cannot write " << csv_path << "\n";
        return 1;
      }
      std::cout << "[trace csv] " << csv_path << "\n";
    }
    if (!trace_json_path.empty()) {
      std::ofstream tj(trace_json_path);
      tj << runner.trace().to_json().dump() << "\n";
      if (!tj) {
        std::cerr << "error: cannot write " << trace_json_path << "\n";
        return 1;
      }
      std::cout << "[trace json] " << trace_json_path << "\n";
    }
    if (!chrome_trace_path.empty()) {
      std::ofstream ct(chrome_trace_path);
      ct << recorder.to_chrome_json().dump() << "\n";
      if (!ct) {
        std::cerr << "error: cannot write " << chrome_trace_path << "\n";
        return 1;
      }
      std::cout << "[event trace] " << chrome_trace_path << " ("
                << recorder.size() << " events; open in Perfetto)\n";
    }
    if (!trace_jsonl_path.empty()) {
      std::ofstream tl(trace_jsonl_path);
      tl << recorder.to_jsonl();
      if (!tl) {
        std::cerr << "error: cannot write " << trace_jsonl_path << "\n";
        return 1;
      }
      std::cout << "[event trace jsonl] " << trace_jsonl_path << "\n";
    }
    if (show_metrics) {
      std::cout << "\nmetrics (seed " << config.base_seed << "):\n"
                << runner.metrics().to_json().dump() << "\n";
    }
    if (print_trace) {
      std::cout << "\n";
      runner.trace().print_table(std::cout, util::Duration::seconds(20));
    }
  }

  if (!result.all_ok()) return 1;
  return baseline_exit;
}
