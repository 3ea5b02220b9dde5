#include "scenario/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace evm::scenario {

using util::Json;

namespace {

/// Default gated metrics and their tolerances. Counters backed by the
/// deterministic simulator (failed runs, failover count, runs ending with
/// a backup Active) are exact; timing and plant metrics carry relative
/// headroom plus an absolute floor so a near-zero expectation does not
/// turn into a zero-tolerance gate.
struct MetricDefault {
  const char* path;
  double rel_tol;
  double abs_tol;
};

constexpr MetricDefault kDefaults[] = {
    {"runs_failed", 0.0, 0.0},
    {"failovers_detected", 0.0, 0.0},
    {"backups_active", 0.0, 0.0},
    {"failover_latency_s.p50", 0.30, 1.5},
    {"failover_latency_s.p99", 0.30, 1.5},
    {"missed_deadlines.mean", 0.50, 10.0},
    {"packet_loss_rate.mean", 0.50, 0.02},
    {"level_rmse_pct.mean", 0.40, 0.75},
    {"slots_per_broadcast.mean", 0.20, 1.0},
    {"beacons_suppressed.mean", 0.50, 30.0},
};

const Json* descend(const Json& root, const std::string& path) {
  const Json* cur = &root;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t dot = path.find('.', begin);
    const std::string key = path.substr(
        begin, dot == std::string::npos ? std::string::npos : dot - begin);
    cur = cur->find(key);
    if (cur == nullptr) return nullptr;
    if (dot == std::string::npos) break;
    begin = dot + 1;
  }
  return cur;
}

bool campaign_shape(const Json& report, double& seeds, double& base_seed,
                    double& horizon_s) {
  const Json* campaign = report.find("campaign");
  const Json* spec = report.find("spec");
  if (campaign == nullptr || spec == nullptr) return false;
  const Json* s = campaign->find("seeds");
  const Json* b = campaign->find("base_seed");
  const Json* h = spec->find("horizon_s");
  if (s == nullptr || b == nullptr || h == nullptr) return false;
  seeds = s->as_double();
  base_seed = b->as_double();
  horizon_s = h->as_double();
  return true;
}

}  // namespace

bool aggregate_metric(const Json& report, const std::string& path, double& out) {
  // "timing.*" paths read the wall-clock block at the report root; plain
  // paths read behavioural metrics under "aggregate".
  const Json* value = path.rfind("timing.", 0) == 0
                          ? descend(report, path)
                          : (report.find("aggregate") != nullptr
                                 ? descend(*report.find("aggregate"), path)
                                 : nullptr);
  if (value == nullptr || !value->is_number()) return false;
  out = value->as_double();
  return true;
}

BaselineCheck check_against_baseline(const Json& baselines, const Json& report) {
  BaselineCheck check;
  const Json* name = report.find("scenario");
  if (name == nullptr || !name->is_string()) {
    check.error = "report lacks a 'scenario' name";
    return check;
  }
  const Json* scenarios = baselines.find("scenarios");
  if (scenarios == nullptr) {
    check.error = "baselines document lacks a 'scenarios' object";
    return check;
  }
  const Json* entry = scenarios->find(name->as_string());
  if (entry == nullptr) {
    check.error = "no baseline for scenario '" + name->as_string() +
                  "' (capture one with --update-baselines)";
    return check;
  }

  // The baseline only means something for the campaign shape it was
  // captured under: comparing a 2-seed run against an 8-seed p99 would
  // pass or fail on sampling, not on behaviour.
  double seeds = 0, base_seed = 0, horizon = 0;
  if (!campaign_shape(report, seeds, base_seed, horizon)) {
    check.error = "report lacks campaign/spec echo";
    return check;
  }
  const Json* captured = entry->find("campaign");
  if (captured == nullptr) {
    // Without the captured shape there is nothing meaningful to compare
    // against — refusing outright beats gating on sampling noise.
    check.error = "baseline entry for '" + name->as_string() +
                  "' lacks its 'campaign' capture block; re-capture it with "
                  "--update-baselines";
    return check;
  }
  const double c_seeds = captured->find("seeds") ? captured->find("seeds")->as_double() : -1;
  const double c_base = captured->find("base_seed") ? captured->find("base_seed")->as_double() : -1;
  const double c_horizon = captured->find("horizon_s") ? captured->find("horizon_s")->as_double() : -1;
  if (c_seeds != seeds || c_base != base_seed || c_horizon != horizon) {
    std::ostringstream out;
    out << "campaign shape mismatch: baseline captured with seeds="
        << c_seeds << " base_seed=" << c_base << " horizon_s=" << c_horizon
        << ", report ran seeds=" << seeds << " base_seed=" << base_seed
        << " horizon_s=" << horizon;
    check.error = out.str();
    return check;
  }

  const Json* metrics = entry->find("metrics");
  if (metrics == nullptr || !metrics->is_object() || metrics->size() == 0) {
    check.error = "baseline entry for '" + name->as_string() +
                  "' has no metrics";
    return check;
  }

  check.ok = true;
  for (const auto& [path, expectation] : metrics->members()) {
    BaselineRow row;
    row.metric = path;
    if (const Json* m = expectation.find("min")) {
      row.is_min = true;
      row.expected = m->as_double();
    }
    if (const Json* e = expectation.find("expected")) row.expected = e->as_double();
    if (const Json* a = expectation.find("abs_tol")) row.abs_tol = a->as_double();
    if (const Json* r = expectation.find("rel_tol")) row.rel_tol = r->as_double();
    double actual = 0.0;
    if (!aggregate_metric(report, path, actual)) {
      // A metric the baseline gates that the report no longer produces is
      // itself a regression (e.g. failover_latency_s vanishes when no run
      // detected a failover at all).
      row.missing = true;
      row.ok = false;
      check.ok = false;
      check.rows.push_back(row);
      continue;
    }
    row.actual = actual;
    if (row.is_min) {
      row.ok = row.actual >= row.expected;
    } else {
      const double tolerance =
          std::max(row.abs_tol, row.rel_tol * std::fabs(row.expected));
      row.ok = std::fabs(row.actual - row.expected) <= tolerance;
    }
    if (!row.ok) check.ok = false;
    check.rows.push_back(row);
  }
  return check;
}

Json make_baseline_entry(const Json& report) {
  Json entry = Json::object();
  double seeds = 0, base_seed = 0, horizon = 0;
  if (campaign_shape(report, seeds, base_seed, horizon)) {
    Json campaign = Json::object();
    campaign.set("seeds", seeds);
    campaign.set("base_seed", base_seed);
    campaign.set("horizon_s", horizon);
    entry.set("campaign", std::move(campaign));
  }
  Json metrics = Json::object();
  for (const MetricDefault& m : kDefaults) {
    double value = 0.0;
    if (!aggregate_metric(report, m.path, value)) continue;
    Json expectation = Json::object();
    expectation.set("expected", value);
    expectation.set("rel_tol", m.rel_tol);
    expectation.set("abs_tol", m.abs_tol);
    metrics.set(m.path, std::move(expectation));
  }
  entry.set("metrics", std::move(metrics));
  return entry;
}

util::Status upsert_baseline(Json& baselines, const Json& report) {
  const Json* name = report.find("scenario");
  if (name == nullptr || !name->is_string()) {
    return util::Status::invalid_argument("report lacks a 'scenario' name");
  }
  if (!baselines.is_object()) baselines = Json::object();
  if (baselines.find("schema") == nullptr) baselines.set("schema", 1);
  Json scenarios = Json::object();
  if (const Json* existing = baselines.find("scenarios")) scenarios = *existing;
  Json entry = make_baseline_entry(report);
  // Hand-set floor rows ("min") survive recapture: they encode a promise
  // about the order of magnitude a metric must keep (throughput floors),
  // not a captured value, so --update-baselines must not clobber them.
  if (const Json* prior = scenarios.find(name->as_string())) {
    if (const Json* prior_metrics = prior->find("metrics")) {
      const Json* fresh = entry.find("metrics");
      Json merged = fresh != nullptr ? *fresh : Json::object();
      for (const auto& [path, expectation] : prior_metrics->members()) {
        if (expectation.find("min") != nullptr) merged.set(path, expectation);
      }
      entry.set("metrics", std::move(merged));
    }
  }
  scenarios.set(name->as_string(), std::move(entry));
  baselines.set("scenarios", std::move(scenarios));
  return util::Status::ok();
}

std::string format_baseline_table(const BaselineCheck& check,
                                  const std::string& scenario) {
  std::ostringstream out;
  if (!check.error.empty()) {
    out << "baseline check for '" << scenario << "': " << check.error << "\n";
    return out.str();
  }
  out << "baseline check for '" << scenario << "':\n";
  out << "  " << std::left << std::setw(28) << "metric" << std::right
      << std::setw(12) << "expected" << std::setw(12) << "actual"
      << std::setw(12) << "delta" << std::setw(12) << "tolerance"
      << "  verdict\n";
  for (const BaselineRow& row : check.rows) {
    out << "  " << std::left << std::setw(28) << row.metric << std::right
        << std::fixed << std::setprecision(3) << std::setw(12) << row.expected;
    if (row.missing) {
      out << std::setw(12) << "-" << std::setw(12) << "-" << std::setw(12)
          << "-" << "  FAIL (metric missing from report)\n";
      continue;
    }
    if (row.is_min) {
      out << std::setw(12) << row.actual << std::setw(12)
          << row.actual - row.expected << std::setw(12) << "(floor)" << "  "
          << (row.ok ? "pass" : "FAIL") << "\n";
      continue;
    }
    const double tolerance =
        std::max(row.abs_tol, row.rel_tol * std::fabs(row.expected));
    out << std::setw(12) << row.actual << std::setw(12)
        << row.actual - row.expected << std::setw(12) << tolerance << "  "
        << (row.ok ? "pass" : "FAIL") << "\n";
  }
  out << (check.ok ? "baseline check PASSED" : "baseline check FAILED") << "\n";
  return out.str();
}

}  // namespace evm::scenario
