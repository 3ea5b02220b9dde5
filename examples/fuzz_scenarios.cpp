// Property-based scenario fuzzing CLI: generate random-but-valid scenario
// specs, run each under the runtime invariant monitor on the campaign
// thread pool, greedily shrink any failure to a minimal repro, and write
// repro documents plus a deterministic campaign report.
//
//   fuzz_scenarios --runs 200 --seed 7
//   fuzz_scenarios --replay bench/out/fuzz_failures/fuzz_run3_seed123.json
//
// The same --runs/--seed always produce a byte-identical report; --jobs
// only changes wall-clock time. Exit code 1 means at least one invariant
// violation was found (repros are in <out>/fuzz_failures).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.hpp"
#include "scenario/campaign.hpp"
#include "scenario/fuzz.hpp"

using namespace evm;
using evm::examples::parse_positive;
using evm::examples::parse_u64;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --runs N         generated scenarios to run (default 50)\n"
      << "  --seed S         fuzz seed; each run derives its own stream (default 1)\n"
      << "  --jobs J         worker threads (default hardware concurrency)\n"
      << "  --no-shrink      keep failing specs as generated\n"
      << "  --no-determinism skip the replay (determinism) pass\n"
      << "  --horizon-s H    cap the generated horizon at H seconds\n"
      << "  --out DIR        report directory (default $EVM_BENCH_OUT or bench/out);\n"
      << "                   repros land in DIR/fuzz_failures\n"
      << "  --replay FILE    re-run one repro (or bare spec) and report violations\n";
  return 2;
}

void print_violations(const std::vector<scenario::InvariantViolation>& violations) {
  for (const auto& v : violations) {
    std::cout << "    [" << v.invariant << "]";
    if (v.at_s >= 0.0) std::cout << " at " << v.at_s << " s";
    std::cout << ": " << v.detail << "\n";
  }
}

int replay(const std::string& path, bool check_determinism) {
  auto repro = scenario::load_repro(path);
  if (!repro) {
    std::cerr << "error: " << repro.status().to_string() << "\n";
    return 2;
  }
  std::cout << "replaying '" << repro->spec.name << "' with seed "
            << repro->seed << "\n";
  const scenario::CheckedRun check = scenario::check_scenario(
      repro->spec, repro->seed, {}, check_determinism);
  if (check.ok()) {
    std::cout << "no invariant violations (" << check.metrics.failover_count
              << " failovers, level rmse " << check.metrics.level_rmse_pct
              << " %)\n";
    return 0;
  }
  std::cout << check.violations.size() << " violation(s):\n";
  print_violations(check.violations);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::FuzzConfig config;
  std::string out_dir = scenario::report_dir();
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t value = 0;
    if (arg == "--runs" || arg == "--seed" || arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, value)) return usage(argv[0]);
      if (arg == "--runs") config.runs = static_cast<std::size_t>(value);
      else if (arg == "--seed") config.seed = value;
      else config.jobs = static_cast<std::size_t>(value);
    } else if (arg == "--horizon-s") {
      double d = 0.0;
      const char* v = next();
      if (v == nullptr || !parse_positive(v, d)) return usage(argv[0]);
      config.gen.max_horizon_s = d;
      if (config.gen.min_horizon_s > d) config.gen.min_horizon_s = d;
    } else if (arg == "--no-shrink") {
      config.shrink = false;
    } else if (arg == "--no-determinism") {
      config.check_determinism = false;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      out_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      replay_path = v;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (!replay_path.empty()) return replay(replay_path, config.check_determinism);
  if (config.runs == 0) return usage(argv[0]);

  std::cout << "=== fuzz: " << config.runs << " generated scenarios, seed "
            << config.seed << (config.shrink ? ", shrink on" : ", shrink off")
            << (config.check_determinism ? ", determinism replay on" : "")
            << " ===\n";

  const scenario::FuzzResult result = run_fuzz(config);

  std::cout << result.runs - result.failures.size() << "/" << result.runs
            << " runs clean\n";
  const std::string fail_dir = out_dir + "/fuzz_failures";
  for (const auto& failure : result.failures) {
    std::cout << "\nFAIL run " << failure.run_index << " (seed "
              << failure.run_seed << "): spec '" << failure.spec.name
              << "' shrank " << failure.spec.events.size() << " -> "
              << failure.shrunk.events.size() << " events in "
              << failure.shrink_runs << " extra runs\n";
    print_violations(failure.violations);
    auto written = scenario::write_failure(failure, fail_dir);
    if (!written) {
      std::cerr << "error: " << written.status().to_string() << "\n";
      return 2;
    }
    std::cout << "  [repro] " << *written << "\n";
  }

  const util::Json report = scenario::fuzz_report(config, result);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create " << out_dir << ": " << ec.message() << "\n";
    return 2;
  }
  const std::string report_path = out_dir + "/fuzz_report.json";
  std::ofstream out(report_path);
  out << report.dump() << "\n";
  out.close();
  if (!out) {
    std::cerr << "error: cannot write " << report_path << "\n";
    return 2;
  }
  std::cout << "\n[fuzz json] " << report_path << "\n";
  return result.ok() ? 0 : 1;
}
