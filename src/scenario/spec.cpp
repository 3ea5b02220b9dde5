#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "util/hash.hpp"

namespace evm::scenario {

using util::as_integer;
using util::check_keys;
using util::Json;
using util::Result;
using util::Status;

namespace {

struct KindName {
  EventKind kind;
  const char* name;
  /// The event's own keys besides "do" and "at_s", space-separated.
  std::string_view keys;
};

constexpr KindName kKindNames[] = {
    {EventKind::kPrimaryFault, "primary_fault", "value"},
    {EventKind::kClearPrimaryFault, "clear_primary_fault", ""},
    {EventKind::kNodeCrash, "node_crash", "node"},
    {EventKind::kNodeRestart, "node_restart", "node"},
    {EventKind::kLinkDown, "link_down", "a b"},
    {EventKind::kLinkUp, "link_up", "a b"},
    {EventKind::kLinkOutage, "link_outage", "a b duration_s"},
    {EventKind::kLinkLoss, "link_loss", "a b loss"},
    {EventKind::kBurstLoss, "burst_loss",
     "a b p_good_loss p_bad_loss p_good_to_bad p_bad_to_good"},
    {EventKind::kClearBurstLoss, "clear_burst_loss", "a b"},
    {EventKind::kClockDrift, "clock_drift", "node ppm"},
    {EventKind::kTrafficBurst, "traffic_burst", "node count interval_ms"},
};

std::string known_kinds() {
  std::string out;
  for (const KindName& entry : kKindNames) {
    if (!out.empty()) out += ", ";
    out += entry.name;
  }
  return out;
}

Status missing(const std::string& what, const char* kind) {
  return Status::invalid_argument("event '" + std::string(kind) +
                                  "' requires field '" + what + "'");
}

/// Fetch a required node field from an event object, resolved against the
/// scenario's role table. Failures name the offending key, so "events[3]:
/// event 'node_crash' field 'node': ..." tells the author exactly what to
/// fix.
Result<net::NodeId> event_node(const Json& event, const char* field,
                               const char* kind,
                               const testbed::TopologySpec& topo) {
  const Json* ref = event.find(field);
  if (ref == nullptr) return missing(field, kind);
  auto node = topo.parse_node(*ref);
  if (!node) {
    return Status::invalid_argument("event '" + std::string(kind) +
                                    "' field '" + field +
                                    "': " + node.status().message());
  }
  return node;
}

/// Optional spec-level numeric: absent keeps `out`, present must be an
/// actual number — a quoted "15" must fail loudly, not fall back to a
/// default that silently changes the experiment.
Status read_number(const Json& obj, const char* key, double& out) {
  const Json* v = obj.find(key);
  if (v == nullptr) return Status::ok();
  if (!v->is_number()) {
    // Built up incrementally: GCC 12's -Wrestrict false-positives on
    // "lit" + std::string(x) chains at -O2.
    std::string message = "'";
    message += key;
    message += "' must be a number";
    return Status::invalid_argument(std::move(message));
  }
  out = v->as_double();
  return Status::ok();
}

/// Required numeric event field: absent or wrong-typed (e.g. a quoted
/// number) is an error, never a silent 0.0.
Result<double> require_number(const Json& event, const char* key,
                              const char* kind) {
  const Json* v = event.find(key);
  if (v == nullptr) return missing(key, kind);
  if (!v->is_number()) {
    return Status::invalid_argument("event '" + std::string(kind) +
                                    "' field '" + key + "' must be a number");
  }
  return v->as_double();
}

/// Optional Gilbert-Elliott probability: present values must be numeric and
/// in [0, 1] (catches the lost-decimal-point typo class link_loss rejects).
Status read_probability(const Json& event, const char* key, const char* kind,
                        double& out) {
  const Json* v = event.find(key);
  if (v == nullptr) return Status::ok();
  if (!v->is_number() || v->as_double() < 0.0 || v->as_double() > 1.0) {
    return Status::invalid_argument("event '" + std::string(kind) +
                                    "' field '" + key +
                                    "' must be a number in [0, 1]");
  }
  out = v->as_double();
  return Status::ok();
}

}  // namespace

const char* to_string(EventKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

util::Status ScenarioSpec::validate() const {
  if (!std::isfinite(horizon_s) || horizon_s <= 0.0) {
    return Status::invalid_argument("'horizon_s' must be a finite positive number");
  }
  const testbed::TopologySpec& topo = topology();
  if (util::Status s = topo.validate(); !s) {
    return Status::invalid_argument("topology: " + s.message());
  }
  // Schedule feasibility: one TDMA frame (the worst-case link access) must
  // fit inside the control period, or the loop can never close on time.
  const testbed::SchedulePlan plan =
      testbed::plan_schedule(topo, testbed.dissemination);
  if (plan.frame_length() > testbed.control_period) {
    return Status::invalid_argument(
        "infeasible schedule: the " + std::to_string(plan.slots.size()) +
        "-slot RT-Link frame (" + std::to_string(plan.frame_length().ms()) +
        " ms) exceeds the " + std::to_string(testbed.control_period.ms()) +
        " ms control period");
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.at_s > horizon_s) {
      return Status::invalid_argument(
          "events[" + std::to_string(i) + "]: '" + std::string(to_string(e.kind)) +
          "' is scheduled at " + std::to_string(e.at_s) +
          " s, past the " + std::to_string(horizon_s) + " s horizon");
    }
  }
  return Status::ok();
}

double ScenarioSpec::first_fault_s() const {
  double first = -1.0;
  for (const auto& e : events) {
    if (e.kind != EventKind::kPrimaryFault && e.kind != EventKind::kNodeCrash)
      continue;
    if (first < 0.0 || e.at_s < first) first = e.at_s;
  }
  return first;
}

Result<ScenarioSpec> ScenarioSpec::from_json(const Json& json) {
  if (!json.is_object()) {
    return Status::invalid_argument("scenario spec must be a JSON object");
  }
  if (Status s = check_keys(json,
                            "name description horizon_s testbed topology "
                            "record churn events",
                            "the spec");
      !s) {
    return s;
  }
  ScenarioSpec spec;
  const Json* name = json.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return Status::invalid_argument("spec requires a non-empty string 'name'");
  }
  spec.name = name->as_string();
  if (const Json* d = json.find("description")) spec.description = d->as_string();

  if (Status s = read_number(json, "horizon_s", spec.horizon_s); !s) return s;

  if (const Json* tb = json.find("testbed")) {
    if (!tb->is_object()) {
      return Status::invalid_argument("'testbed' must be an object");
    }
    if (Status s = check_keys(*tb,
                              "control_period_ms evidence_threshold "
                              "dormant_delay_s promotion_timeout_s "
                              "head_beacon_s dissemination",
                              "'testbed'");
        !s) {
      return s;
    }
    auto& cfg = spec.testbed;
    double control_period_ms = cfg.control_period.to_seconds() * 1e3;
    if (Status s = read_number(*tb, "control_period_ms", control_period_ms); !s) return s;
    cfg.control_period = util::Duration::from_seconds(control_period_ms / 1e3);
    if (!cfg.control_period.is_positive()) {
      return Status::invalid_argument("'control_period_ms' must be positive");
    }
    if (const Json* v = tb->find("evidence_threshold")) {
      const auto threshold =
          as_integer(*v, 1, std::numeric_limits<std::uint32_t>::max());
      if (!threshold) {
        return Status::invalid_argument("'evidence_threshold' must be an integer >= 1");
      }
      cfg.evidence_threshold = static_cast<std::uint32_t>(*threshold);
    }
    double dormant_delay_s = cfg.dormant_delay.to_seconds();
    if (Status s = read_number(*tb, "dormant_delay_s", dormant_delay_s); !s) return s;
    cfg.dormant_delay = util::Duration::from_seconds(dormant_delay_s);
    if (cfg.dormant_delay < util::Duration::zero()) {
      return Status::invalid_argument("'dormant_delay_s' must be >= 0");
    }
    double promotion_timeout_s = cfg.promotion_timeout.to_seconds();
    if (Status s = read_number(*tb, "promotion_timeout_s", promotion_timeout_s); !s) return s;
    cfg.promotion_timeout = util::Duration::from_seconds(promotion_timeout_s);
    if (!cfg.promotion_timeout.is_positive()) {
      return Status::invalid_argument("'promotion_timeout_s' must be positive");
    }
    double head_beacon_s = cfg.head_beacon_period.to_seconds();
    if (Status s = read_number(*tb, "head_beacon_s", head_beacon_s); !s) return s;
    cfg.head_beacon_period = util::Duration::from_seconds(head_beacon_s);
    if (!cfg.head_beacon_period.is_positive()) {
      return Status::invalid_argument("'head_beacon_s' must be positive");
    }
    if (const Json* mode = tb->find("dissemination")) {
      const std::string value = mode->is_string() ? mode->as_string() : "";
      if (value == "auto") cfg.dissemination = testbed::DisseminationMode::kAuto;
      else if (value == "flood") cfg.dissemination = testbed::DisseminationMode::kFlood;
      else if (value == "tree") cfg.dissemination = testbed::DisseminationMode::kTree;
      else {
        return Status::invalid_argument(
            "'dissemination' must be \"auto\", \"flood\" or \"tree\"");
      }
    }
  }

  if (const Json* topology = json.find("topology")) {
    auto parsed = testbed::TopologySpec::from_json(*topology);
    if (!parsed) {
      return Status::invalid_argument("topology: " + parsed.status().message());
    }
    spec.testbed.topology = std::move(*parsed);
  }
  const testbed::TopologySpec& topo = spec.topology();

  if (const Json* record = json.find("record")) {
    if (!record->is_array()) {
      return Status::invalid_argument("'record' must be an array of variable names");
    }
    for (const Json& entry : record->elements()) {
      if (!entry.is_string()) {
        return Status::invalid_argument("'record' entries must be strings");
      }
      spec.record.push_back(entry.as_string());
    }
  }

  if (const Json* churn = json.find("churn")) {
    if (!churn->is_object()) {
      return Status::invalid_argument("'churn' must be an object");
    }
    if (Status s = check_keys(*churn,
                              "outages_per_minute outage_s start_s "
                              "end_margin_s rng_salt",
                              "'churn'");
        !s) {
      return s;
    }
    spec.churn.enabled = true;
    if (Status s = read_number(*churn, "outages_per_minute",
                               spec.churn.outages_per_minute); !s) return s;
    if (Status s = read_number(*churn, "outage_s", spec.churn.outage_s); !s) return s;
    if (Status s = read_number(*churn, "start_s", spec.churn.start_s); !s) return s;
    if (Status s = read_number(*churn, "end_margin_s", spec.churn.end_margin_s); !s) return s;
    if (const Json* salt = churn->find("rng_salt")) {
      const auto value =
          as_integer(*salt, -util::kMaxExactInteger, util::kMaxExactInteger);
      if (!value) return Status::invalid_argument("'rng_salt' must be an integer");
      spec.churn.rng_salt = static_cast<std::uint64_t>(*value);
    }
    if (spec.churn.outages_per_minute < 0.0 || spec.churn.outage_s <= 0.0) {
      return Status::invalid_argument("churn rates must be non-negative, outage_s positive");
    }
    // Negative window edges would schedule outages in the simulator's past.
    if (spec.churn.start_s < 0.0 || spec.churn.end_margin_s < 0.0) {
      return Status::invalid_argument("churn 'start_s' and 'end_margin_s' must be >= 0");
    }
  }

  const Json* events = json.find("events");
  if (events != nullptr && !events->is_array()) {
    return Status::invalid_argument("'events' must be an array");
  }
  if (events != nullptr) {
    for (std::size_t i = 0; i < events->size(); ++i) {
      const Json& entry = events->at(i);
      auto parsed = [&]() -> Result<FaultEvent> {
        if (!entry.is_object()) {
          return Status::invalid_argument("event must be an object");
        }
        const Json* verb = entry.find("do");
        if (verb == nullptr || !verb->is_string()) {
          return Status::invalid_argument("event requires a string 'do' field");
        }
        const KindName* known = nullptr;
        for (const KindName& entry : kKindNames) {
          if (verb->as_string() == entry.name) {
            known = &entry;
            break;
          }
        }
        if (known == nullptr) {
          return Status::invalid_argument("unknown event '" + verb->as_string() +
                                          "' (known: " + known_kinds() + ")");
        }
        FaultEvent e;
        e.kind = known->kind;
        const char* kind_name = known->name;
        std::string keys = "do at_s ";
        keys += known->keys;
        if (Status s = check_keys(entry, keys, "event '" + std::string(kind_name) + "'");
            !s) {
          return s;
        }
        auto at_s = require_number(entry, "at_s", kind_name);
        if (!at_s) return at_s.status();
        e.at_s = *at_s;
        if (e.at_s < 0.0) {
          return Status::invalid_argument("'at_s' must be >= 0");
        }

        switch (e.kind) {
          case EventKind::kPrimaryFault: {
            auto value = require_number(entry, "value", kind_name);
            if (!value) return value.status();
            e.value = *value;
            break;
          }
          case EventKind::kClearPrimaryFault:
            break;
          case EventKind::kNodeCrash:
          case EventKind::kNodeRestart: {
            auto node = event_node(entry, "node", kind_name, topo);
            if (!node) return node.status();
            e.node = *node;
            break;
          }
          case EventKind::kLinkDown:
          case EventKind::kLinkUp:
          case EventKind::kLinkOutage:
          case EventKind::kLinkLoss:
          case EventKind::kBurstLoss:
          case EventKind::kClearBurstLoss: {
            auto a = event_node(entry, "a", kind_name, topo);
            if (!a) return a.status();
            auto b = event_node(entry, "b", kind_name, topo);
            if (!b) return b.status();
            e.a = *a;
            e.b = *b;
            if (e.a == e.b) {
              return Status::invalid_argument("link event endpoints must differ");
            }
            if (e.kind == EventKind::kLinkOutage) {
              auto duration = require_number(entry, "duration_s", kind_name);
              if (!duration) return duration.status();
              e.duration_s = *duration;
              if (e.duration_s <= 0.0) {
                return Status::invalid_argument("'duration_s' must be positive");
              }
            }
            if (e.kind == EventKind::kLinkLoss) {
              auto loss = require_number(entry, "loss", kind_name);
              if (!loss) return loss.status();
              e.value = *loss;
              if (e.value < 0.0 || e.value > 1.0) {
                return Status::invalid_argument("'loss' must be in [0, 1]");
              }
            }
            if (e.kind == EventKind::kBurstLoss) {
              for (auto [key, field] :
                   {std::pair{"p_good_loss", &e.burst.p_good_loss},
                    std::pair{"p_bad_loss", &e.burst.p_bad_loss},
                    std::pair{"p_good_to_bad", &e.burst.p_good_to_bad},
                    std::pair{"p_bad_to_good", &e.burst.p_bad_to_good}}) {
                Status status = read_probability(entry, key, kind_name, *field);
                if (!status) return status;
              }
            }
            break;
          }
          case EventKind::kClockDrift: {
            auto node = event_node(entry, "node", kind_name, topo);
            if (!node) return node.status();
            e.node = *node;
            auto ppm = require_number(entry, "ppm", kind_name);
            if (!ppm) return ppm.status();
            e.value = *ppm;
            break;
          }
          case EventKind::kTrafficBurst: {
            auto node = event_node(entry, "node", kind_name, topo);
            if (!node) return node.status();
            e.node = *node;
            const Json* count = entry.find("count");
            if (count == nullptr) return missing("count", kind_name);
            const auto publishes =
                as_integer(*count, 1, std::numeric_limits<int>::max());
            if (!publishes) {
              return Status::invalid_argument("event '" + std::string(kind_name) +
                                              "' field 'count' must be an integer >= 1");
            }
            e.count = static_cast<int>(*publishes);
            auto interval = require_number(entry, "interval_ms", kind_name);
            if (!interval) return interval.status();
            e.interval_ms = *interval;
            if (e.interval_ms <= 0.0) {
              return Status::invalid_argument("'interval_ms' must be positive");
            }
            break;
          }
        }
        return e;
      }();
      if (!parsed) {
        return Status::invalid_argument("events[" + std::to_string(i) +
                                        "]: " + parsed.status().message());
      }
      spec.events.push_back(*parsed);
    }
  }

  // Link events must reference a link that exists in the world (trivially
  // true on the Fig. 5 full mesh; a real constraint on lines and grids).
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const FaultEvent& e = spec.events[i];
    const bool link_event =
        e.kind == EventKind::kLinkDown || e.kind == EventKind::kLinkUp ||
        e.kind == EventKind::kLinkOutage || e.kind == EventKind::kLinkLoss ||
        e.kind == EventKind::kBurstLoss || e.kind == EventKind::kClearBurstLoss;
    if (link_event && !topo.has_link(e.a, e.b)) {
      return Status::invalid_argument(
          "events[" + std::to_string(i) + "]: no link between '" +
          topo.node_name(e.a) + "' and '" + topo.node_name(e.b) +
          "' in this topology");
    }
  }

  // Events referencing a non-member controller target a replica that was
  // never instantiated in the VC (on the Fig. 5 world: ctrl_c without the
  // generator's third_controller).
  for (const auto& e : spec.events) {
    for (net::NodeId id : {e.node, e.a, e.b}) {
      const testbed::TopologyNode* node = topo.find(id);
      if (node != nullptr && node->role == testbed::NodeRole::kController &&
          !node->vc_member) {
        return Status::invalid_argument(
            "event references controller '" + node->name +
            "' which is not a VC member");
      }
    }
  }
  if (Status s = spec.validate(); !s) return s;
  return spec;
}

Result<ScenarioSpec> ScenarioSpec::load_file(const std::string& path) {
  auto json = util::load_json_file(path);
  if (!json) return json.status();
  auto spec = from_json(*json);
  if (!spec) {
    return Status::invalid_argument(path + ": " + spec.status().message());
  }
  return spec;
}

Json ScenarioSpec::to_json() const {
  const testbed::TopologySpec& topo = topology();
  Json root = Json::object();
  root.set("name", name);
  if (!description.empty()) root.set("description", description);
  root.set("horizon_s", horizon_s);

  Json tb = Json::object();
  tb.set("control_period_ms", testbed.control_period.to_seconds() * 1e3);
  tb.set("evidence_threshold", static_cast<std::int64_t>(testbed.evidence_threshold));
  tb.set("dormant_delay_s", testbed.dormant_delay.to_seconds());
  tb.set("promotion_timeout_s", testbed.promotion_timeout.to_seconds());
  tb.set("head_beacon_s", testbed.head_beacon_period.to_seconds());
  tb.set("dissemination", testbed::to_string(testbed.dissemination));
  root.set("testbed", std::move(tb));

  // Campaign provenance: the explicit node/link list round-trips, so a
  // report's spec echo rebuilds the exact world (generator shorthands are
  // expanded at parse time).
  root.set("topology", topo.to_json());

  if (!record.empty()) {
    Json rec = Json::array();
    for (const auto& variable : record) rec.push(variable);
    root.set("record", std::move(rec));
  }

  if (churn.enabled) {
    Json c = Json::object();
    c.set("outages_per_minute", churn.outages_per_minute);
    c.set("outage_s", churn.outage_s);
    c.set("start_s", churn.start_s);
    c.set("end_margin_s", churn.end_margin_s);
    c.set("rng_salt", static_cast<std::int64_t>(churn.rng_salt));
    root.set("churn", std::move(c));
  }

  Json list = Json::array();
  for (const auto& e : events) {
    Json entry = Json::object();
    entry.set("at_s", e.at_s);
    entry.set("do", to_string(e.kind));
    switch (e.kind) {
      case EventKind::kPrimaryFault:
        entry.set("value", e.value);
        break;
      case EventKind::kClearPrimaryFault:
        break;
      case EventKind::kNodeCrash:
      case EventKind::kNodeRestart:
        entry.set("node", topo.node_name(e.node));
        break;
      case EventKind::kLinkDown:
      case EventKind::kLinkUp:
      case EventKind::kLinkOutage:
      case EventKind::kLinkLoss:
      case EventKind::kBurstLoss:
      case EventKind::kClearBurstLoss:
        entry.set("a", topo.node_name(e.a));
        entry.set("b", topo.node_name(e.b));
        if (e.kind == EventKind::kLinkOutage) entry.set("duration_s", e.duration_s);
        if (e.kind == EventKind::kLinkLoss) entry.set("loss", e.value);
        if (e.kind == EventKind::kBurstLoss) {
          entry.set("p_good_loss", e.burst.p_good_loss);
          entry.set("p_bad_loss", e.burst.p_bad_loss);
          entry.set("p_good_to_bad", e.burst.p_good_to_bad);
          entry.set("p_bad_to_good", e.burst.p_bad_to_good);
        }
        break;
      case EventKind::kClockDrift:
        entry.set("node", topo.node_name(e.node));
        entry.set("ppm", e.value);
        break;
      case EventKind::kTrafficBurst:
        entry.set("node", topo.node_name(e.node));
        entry.set("count", e.count);
        entry.set("interval_ms", e.interval_ms);
        break;
    }
    list.push(std::move(entry));
  }
  root.set("events", std::move(list));
  return root;
}

std::string ScenarioSpec::content_hash() const {
  // Hash the canonical compact dump. Doubles serialize shortest-round-trip
  // (PR 8), so a spec echo parsed back out of a report hashes identically
  // to the spec it came from — the merge path relies on that.
  return util::content_hash(to_json().dump_compact());
}

}  // namespace evm::scenario
