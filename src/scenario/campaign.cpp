#include "scenario/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/phase_timer.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace evm::scenario {

using util::Json;

namespace {

Json summarize(const util::Samples& samples, const std::string& unit) {
  return util::to_json(samples.summarize(), unit);
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out.empty() ? std::string("scenario") : out;
}

/// The aggregate block of a report, summarized from its per-run entries
/// (RunMetrics::to_json()) alike for a fresh campaign and for a merge of
/// written shard reports.
Json aggregate_runs(const std::vector<Json>& runs) {
  util::Samples failover_latency, missed_deadlines, loss_rate, rmse, max_dev;
  util::Samples slots_per_bcast, beacons_suppressed;
  std::size_t ok_count = 0, failovers_detected = 0, backups_active = 0;
  for (const Json& run : runs) {
    auto number = [&run](const char* key, double fallback = 0.0) {
      const Json* v = run.find(key);
      return v == nullptr ? fallback : v->as_double(fallback);
    };
    const Json* ok = run.find("ok");
    if (ok == nullptr || !ok->as_bool()) continue;
    ++ok_count;
    const double latency = number("failover_latency_s", -1.0);
    if (latency >= 0.0) {
      failover_latency.add(latency);
      ++failovers_detected;
    }
    if (const Json* b = run.find("backup_active"); b != nullptr && b->as_bool()) {
      ++backups_active;
    }
    missed_deadlines.add(number("missed_deadlines"));
    loss_rate.add(number("packet_loss_rate"));
    rmse.add(number("level_rmse_pct"));
    max_dev.add(number("level_max_dev_pct"));
    slots_per_bcast.add(number("slots_per_broadcast"));
    beacons_suppressed.add(number("beacons_suppressed"));
  }

  Json aggregate = Json::object();
  aggregate.set("runs_ok", ok_count);
  aggregate.set("runs_failed", runs.size() - ok_count);
  aggregate.set("failovers_detected", failovers_detected);
  aggregate.set("backups_active", backups_active);
  if (!failover_latency.empty()) {
    aggregate.set("failover_latency_s", summarize(failover_latency, "s"));
  }
  aggregate.set("missed_deadlines", summarize(missed_deadlines, "count"));
  aggregate.set("packet_loss_rate", summarize(loss_rate, "fraction"));
  aggregate.set("level_rmse_pct", summarize(rmse, "%"));
  aggregate.set("level_max_dev_pct", summarize(max_dev, "%"));
  aggregate.set("slots_per_broadcast", summarize(slots_per_bcast, "slots"));
  aggregate.set("beacons_suppressed", summarize(beacons_suppressed, "count"));
  return aggregate;
}

/// The per-phase split of a timing block: each run's setup, run and
/// teardown wall time, summed over the runs (with parallel workers the sums
/// are CPU-wall, like wall_ms_sum), and the throughput of the run phase
/// alone, which set-up and report work cannot dilute.
void set_phase_timing(Json& timing, double setup_ms, double run_ms,
                      double teardown_ms, std::uint64_t slots) {
  timing.set("setup_ms_sum", setup_ms);
  timing.set("run_ms_sum", run_ms);
  timing.set("teardown_ms_sum", teardown_ms);
  if (run_ms > 0.0) {
    timing.set("run_sim_slots_per_sec",
               static_cast<double>(slots) / (run_ms / 1000.0));
  }
}

}  // namespace

std::size_t CampaignResult::ok_count() const {
  std::size_t n = 0;
  for (const auto& run : runs) n += run.ok ? 1 : 0;
  return n;
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (jobs == 0) {
    // This function IS the sanctioned thread pool evm_lint rule C1 funnels
    // everything else through, so its own primitives carry the suppressions.
    const unsigned hw = std::thread::hardware_concurrency();  // evm-lint: allow(C1)
    jobs = hw == 0 ? 1 : hw;
  }
  jobs = std::min(jobs, count);

  // Work-stealing over the index; each job writes only into its own slot of
  // whatever the caller is filling, so results are index-ordered no matter
  // which worker got there.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      fn(i);
    }
  };

  if (jobs == 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;  // evm-lint: allow(C1)
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignConfig& config) {
  CampaignResult result;
  // Seed-striding shard: of the campaign's seed range, this invocation owns
  // every shard_count-th seed starting at shard_index. Striding (rather
  // than contiguous blocks) keeps each shard's mix representative even
  // when metrics drift with the seed. An out-of-range shard owns nothing —
  // running some other shard's seeds instead would poison a later merge.
  const std::size_t shard_count = std::max<std::size_t>(1, config.shard_count);
  if (config.shard_index >= shard_count) return result;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = config.shard_index; i < config.seeds; i += shard_count) {
    seeds.push_back(config.base_seed + i);
  }
  result.runs.resize(seeds.size());
  const obs::Stopwatch wall;
  std::atomic<std::size_t> done{0};
  parallel_for(seeds.size(), config.jobs, [&](std::size_t i) {
    ScenarioRunner runner(spec, seeds[i]);
    result.runs[i] = runner.run();
    if (config.on_run_done) {
      config.on_run_done(done.fetch_add(1) + 1, seeds.size(), result.runs[i]);
    }
  });
  result.wall_ms = wall.elapsed_ms();
  return result;
}

Json campaign_report(const ScenarioSpec& spec, const CampaignConfig& config,
                     const CampaignResult& result) {
  Json root = Json::object();
  root.set("schema", 1);
  root.set("scenario", spec.name);
  // Deterministic content hash of the spec echo below: reports of the same
  // exact spec are groupable by it even across renamed scenario files, and
  // merge_campaign_reports checks it against the echo.
  root.set("spec_hash", spec.content_hash());
  root.set("spec", spec.to_json());

  Json campaign = Json::object();
  campaign.set("base_seed", static_cast<std::int64_t>(config.base_seed));
  campaign.set("seeds", config.seeds);
  if (config.shard_count > 1) {
    campaign.set("shard_index", config.shard_index);
    campaign.set("shard_count", config.shard_count);
  }
  root.set("campaign", std::move(campaign));

  Json runs = Json::array();
  for (const auto& run : result.runs) runs.push(run.to_json());
  Json aggregate = aggregate_runs(runs.elements());
  root.set("runs", std::move(runs));
  root.set("aggregate", std::move(aggregate));

  // Wall-clock throughput of this invocation. Machine-dependent by nature —
  // per-run JSON stays byte-identical per (spec, seed), so timing lives only
  // here; byte-comparing reports across invocations must strip this block
  // (CI's shard-merge check does). Hand-built results (wall_ms == 0, the
  // test fixtures) get no block at all.
  if (result.wall_ms > 0.0) {
    std::uint64_t events = 0, slots = 0;
    double setup_ms = 0.0, run_ms = 0.0, teardown_ms = 0.0;
    for (const auto& run : result.runs) {
      events += run.sim_events;
      slots += run.sim_slots;
      setup_ms += run.wall_setup_ms;
      run_ms += run.wall_run_ms;
      teardown_ms += run.wall_teardown_ms;
    }
    Json timing = Json::object();
    timing.set("wall_ms", result.wall_ms);
    timing.set("events_dispatched", static_cast<std::int64_t>(events));
    timing.set("sim_slots", static_cast<std::int64_t>(slots));
    timing.set("sim_slots_per_sec",
               static_cast<double>(slots) / (result.wall_ms / 1000.0));
    set_phase_timing(timing, setup_ms, run_ms, teardown_ms, slots);
    root.set("timing", std::move(timing));
  }
  return root;
}

util::Result<Json> merge_campaign_reports(const std::vector<Json>& reports) {
  if (reports.empty()) {
    return util::Status::invalid_argument("no reports to merge");
  }
  const Json* first_spec = reports.front().find("spec");
  const Json* first_name = reports.front().find("scenario");
  if (first_spec == nullptr || first_name == nullptr) {
    return util::Status::invalid_argument("report lacks 'scenario'/'spec'");
  }
  // Recomputing from the spec echo (rather than trusting the reports)
  // keeps the merged hash correct even for reports written before the
  // field existed; a report that *does* carry one must agree.
  const std::string spec_hash = util::content_hash(first_spec->dump_compact());
  // Every shard of one campaign echoes the same seed range. A report of
  // another range would pass its runs off as seeds of this campaign.
  auto seed_range = [](const Json& report) {
    std::pair<std::int64_t, std::int64_t> range{0, 0};
    if (const Json* campaign = report.find("campaign")) {
      if (const Json* b = campaign->find("base_seed")) range.first = b->as_int();
      if (const Json* s = campaign->find("seeds")) range.second = s->as_int();
    }
    return range;
  };
  const auto [base_seed, seeds] = seed_range(reports.front());

  std::vector<Json> runs;
  double wall_ms = 0.0;
  double setup_ms = 0.0, run_ms = 0.0, teardown_ms = 0.0;
  std::int64_t events_dispatched = 0;
  std::int64_t sim_slots = 0;
  std::size_t timed_shards = 0;
  for (const Json& report : reports) {
    const Json* name = report.find("scenario");
    const Json* spec = report.find("spec");
    if (name == nullptr || spec == nullptr ||
        name->as_string() != first_name->as_string() ||
        spec->dump() != first_spec->dump()) {
      return util::Status::invalid_argument(
          "cannot merge: shard reports describe different campaigns");
    }
    if (const Json* h = report.find("spec_hash");
        h != nullptr && h->as_string() != spec_hash) {
      return util::Status::invalid_argument(
          "cannot merge: report's spec_hash does not match its spec echo");
    }
    if (seed_range(report) != std::pair{base_seed, seeds}) {
      return util::Status::invalid_argument(
          "cannot merge: shard reports cover different seed ranges");
    }
    if (const Json* timing = report.find("timing")) {
      // Shard wall times sum: the merged figure is total CPU-wall spent
      // across the shard invocations, not the elapsed time of any one job.
      ++timed_shards;
      if (const Json* w = timing->find("wall_ms")) wall_ms += w->as_double();
      if (const Json* e = timing->find("events_dispatched")) {
        events_dispatched += e->as_int();
      }
      if (const Json* s = timing->find("sim_slots")) sim_slots += s->as_int();
      if (const Json* p = timing->find("setup_ms_sum")) setup_ms += p->as_double();
      if (const Json* p = timing->find("run_ms_sum")) run_ms += p->as_double();
      if (const Json* p = timing->find("teardown_ms_sum")) {
        teardown_ms += p->as_double();
      }
    }
    const Json* shard_runs = report.find("runs");
    if (shard_runs == nullptr || !shard_runs->is_array()) {
      return util::Status::invalid_argument("report lacks a 'runs' array");
    }
    for (const Json& run : shard_runs->elements()) runs.push_back(run);
  }

  // Seed-sorted union; a duplicated seed means the same shard was passed
  // twice, which would double-weight its runs in every percentile.
  std::stable_sort(runs.begin(), runs.end(), [](const Json& x, const Json& y) {
    const Json* a = x.find("seed");
    const Json* b = y.find("seed");
    return (a ? a->as_int() : 0) < (b ? b->as_int() : 0);
  });
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const Json* a = runs[i - 1].find("seed");
    const Json* b = runs[i].find("seed");
    if (a != nullptr && b != nullptr && a->as_int() == b->as_int()) {
      return util::Status::invalid_argument(
          "cannot merge: seed " + std::to_string(b->as_int()) +
          " appears in more than one report");
    }
  }

  Json root = Json::object();
  root.set("schema", 1);
  root.set("scenario", *first_name);
  root.set("spec_hash", spec_hash);
  root.set("spec", *first_spec);
  Json campaign = Json::object();
  campaign.set("base_seed", base_seed);
  campaign.set("seeds", seeds);
  if (static_cast<std::int64_t>(runs.size()) != seeds) {
    // Partial merge (some shards missing): say so instead of passing the
    // report off as the full campaign.
    campaign.set("merged_runs", runs.size());
  }
  root.set("campaign", std::move(campaign));

  Json aggregate = aggregate_runs(runs);
  Json runs_json = Json::array();
  for (Json& run : runs) runs_json.push(std::move(run));
  root.set("runs", std::move(runs_json));
  root.set("aggregate", std::move(aggregate));
  if (timed_shards > 0 && wall_ms > 0.0) {
    Json timing = Json::object();
    // Shards typically run concurrently on different machines, so their
    // summed wall time is CPU-wall, not elapsed time — publish it under an
    // honest name and only derive a throughput rate when a single shard
    // contributed (where sum == elapsed and the rate is meaningful).
    timing.set("wall_ms_sum", wall_ms);
    timing.set("events_dispatched", events_dispatched);
    timing.set("sim_slots", sim_slots);
    if (timed_shards == 1) {
      timing.set("wall_ms", wall_ms);
      timing.set("sim_slots_per_sec",
                 static_cast<double>(sim_slots) / (wall_ms / 1000.0));
    }
    // The phase sums are per-run times already, so they add across shards
    // and the run-phase rate stays honest however many shards contributed.
    set_phase_timing(timing, setup_ms, run_ms, teardown_ms,
                     static_cast<std::uint64_t>(sim_slots));
    root.set("timing", std::move(timing));
  }
  return root;
}

std::string report_dir() {
  if (const char* env = std::getenv("EVM_BENCH_OUT"); env && *env) return env;
  return "bench/out";
}

util::Result<std::string> write_campaign_report(const Json& report,
                                                const std::string& scenario_name,
                                                const std::string& dir) {
  const std::filesystem::path out_dir(dir);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return util::Status::internal("cannot create " + out_dir.string() + ": " +
                                  ec.message());
  }
  const std::filesystem::path path =
      out_dir / ("scenario_" + sanitize(scenario_name) + ".json");
  std::ofstream out(path);
  out << report.dump() << "\n";
  out.close();
  if (!out) return util::Status::internal("cannot write " + path.string());
  return path.string();
}

}  // namespace evm::scenario
