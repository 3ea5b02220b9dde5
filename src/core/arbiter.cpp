#include "core/arbiter.hpp"

#include <algorithm>

namespace evm::core {

namespace {

using Record = HeadArbiter::FunctionRecord;

std::optional<net::NodeId> active_of(const Record& rec) {
  for (const auto& [node, r] : rec.replicas) {
    if (r.mode == ControllerMode::kActive) return node;
  }
  return std::nullopt;
}

}  // namespace

const Record* HeadArbiter::record(FunctionId function) const {
  auto it = records_.find(function);
  return it == records_.end() ? nullptr : &it->second;
}

Record* HeadArbiter::find(FunctionId function) {
  auto it = records_.find(function);
  return it == records_.end() ? nullptr : &it->second;
}

ControllerMode HeadArbiter::mode(FunctionId function, net::NodeId node) const {
  const Record* rec = record(function);
  if (rec == nullptr) return ControllerMode::kDormant;
  auto it = rec->replicas.find(node);
  return it == rec->replicas.end() ? ControllerMode::kDormant
                                   : it->second.mode.value_or(ControllerMode::kDormant);
}

std::optional<net::NodeId> HeadArbiter::active(FunctionId function) const {
  const Record* rec = record(function);
  return rec == nullptr ? std::nullopt : active_of(*rec);
}

std::optional<net::NodeId> HeadArbiter::best_backup(FunctionId function,
                                                    net::NodeId excluding) const {
  const Record* rec = record(function);
  if (rec == nullptr) return std::nullopt;
  // Backup(1) < Indicator(2) < Active(3) numerically, but preference order
  // is Backup > Indicator > Dormant: a Backup has warm state.
  auto rank = [](ControllerMode m) {
    switch (m) {
      case ControllerMode::kBackup: return 3;
      case ControllerMode::kIndicator: return 2;
      case ControllerMode::kDormant: return 1;
      default: return 0;
    }
  };
  std::optional<net::NodeId> best;
  int best_rank = 0;
  for (const auto& [node, r] : rec->replicas) {
    if (!r.mode || node == excluding || *r.mode == ControllerMode::kActive) continue;
    if (!best.has_value() || rank(*r.mode) > best_rank) {
      best = node;
      best_rank = rank(*r.mode);
    }
  }
  return best;
}

void HeadArbiter::start_function(FunctionId function, util::TimePoint now) {
  records_[function].active_seen = now;
}

void HeadArbiter::set_mode(FunctionId function, net::NodeId node, ControllerMode mode) {
  if (Record* rec = find(function)) rec->replicas[node].mode = mode;
}

void HeadArbiter::mirror_heartbeat(const HeartbeatMsg& msg) {
  Record* rec = find(msg.function);
  if (rec == nullptr) return;
  rec->epoch = std::max(rec->epoch, msg.epoch);
  // A mirrored Active displaces any other cached Active: the mirror must
  // stay single-Active or a successor head would inherit an ambiguous table
  // and arbitrate against the wrong incumbent.
  if (msg.mode == ControllerMode::kActive) {
    for (auto& [node, r] : rec->replicas) {
      if (node != msg.node && r.mode == ControllerMode::kActive) {
        r.mode = ControllerMode::kBackup;
      }
    }
  }
  rec->replicas[msg.node].mode = msg.mode;
}

HeadArbiter::Decision HeadArbiter::on_heartbeat(const HeartbeatMsg& msg,
                                                util::TimePoint now) {
  Decision out;
  out.function = msg.function;
  Record* rec = find(msg.function);
  if (rec == nullptr) return out;
  rec->epoch = std::max(rec->epoch, msg.epoch);
  ReplicaRecord& sender = rec->replicas[msg.node];
  // The head trusts its own commands over (possibly stale) heartbeats:
  // the table changes only where a claim contradicts it.
  const auto active = active_of(*rec);
  if (msg.mode == ControllerMode::kActive) {
    sender.last_active_heartbeat = now;
    if (active == msg.node) {
      rec->active_seen = now;
    } else if (active.has_value() && msg.epoch < rec->promote_epoch) {
      // Two replicas claim Active and this one carries an epoch older than
      // the latest promotion: a stale rejoiner (restarted with its
      // pre-crash mode, or holding a demote that got lost). One demote per
      // silence window: in a many-hop world the command takes several
      // frames to land, and re-sending it on every heartbeat floods the
      // exact path the pending demote is crawling.
      if (!sender.last_stale_demote ||
          now - *sender.last_stale_demote > policy_.beacon_silence()) {
        sender.last_stale_demote = now;
        out.cause = Cause::kStaleActive;
        out.subject = msg.node;
        command(*rec, msg.node, ControllerMode::kBackup, out);
      }
      sender.mode = ControllerMode::kBackup;
    } else {
      // A claimant at or above the promote epoch means the table itself is
      // stale (e.g. a direct migration moved the Active without the head);
      // with nobody in charge per the table, the claimant is adopted too.
      if (active.has_value()) rec->replicas[*active].mode = ControllerMode::kBackup;
      sender.mode = ControllerMode::kActive;
      rec->active_seen = now;
    }
    return out;
  }

  if (msg.mode == ControllerMode::kBackup &&
      sender.mode.value_or(ControllerMode::kDormant) == ControllerMode::kDormant) {
    // Written off (e.g. a promotion target that was down) but demonstrably
    // alive again: restore it to the arbitration pool.
    sender.mode = ControllerMode::kBackup;
  }
  if (!active.has_value() && msg.mode == ControllerMode::kBackup) {
    // Supervised retry: escalation ran out of replicas earlier, but a live
    // Backup just heartbeat — promote it instead of staying stuck forever.
    out.cause = Cause::kRejoinedBackup;
    out.subject = msg.node;
    promote(*rec, msg.node, /*record_event=*/true, now, out);
  }
  return out;
}

HeadArbiter::Decision HeadArbiter::on_fault_report(const FaultReportMsg& msg,
                                                   util::TimePoint now) {
  Decision out;
  out.function = msg.function;
  Record* rec = find(msg.function);
  if (rec == nullptr) return out;
  if (active_of(*rec) != msg.suspect) return out;  // already handled
  out.cause = Cause::kFaultReport;
  out.subject = msg.suspect;
  fail_over(*rec, msg.suspect, msg.reason, now, out);
  return out;
}

std::vector<HeadArbiter::Decision> HeadArbiter::on_beacon_tick(util::TimePoint now) {
  std::vector<Decision> decisions;
  for (auto& [fid, rec] : records_) {
    Decision out;
    out.function = fid;
    const auto active = active_of(rec);
    if (active.has_value()) {
      if (*active == self_) continue;  // self: trivially alive
      // Backstop silence detection: with every Backup gone there is no
      // passive observer left to report the dead Active.
      if (now - rec.active_seen <= policy_.active_silence_timeout) continue;
      out.cause = Cause::kSilentActive;
      out.subject = *active;
      out.silence = now - rec.active_seen;
      rec.active_seen = now;  // re-arm; failover resets the clock
      fail_over(rec, *active, FaultReason::kSilent, now, out);
    } else {
      // Quiet retry over live-looking Backups only. Indicator replicas are
      // excluded deliberately — Indicator is the graceful-degradation floor
      // for a replica with confirmed-bad output.
      auto it = std::find_if(rec.replicas.begin(), rec.replicas.end(), [](const auto& r) {
        return r.second.mode == ControllerMode::kBackup;
      });
      if (it == rec.replicas.end()) continue;
      out.cause = Cause::kNoActive;
      out.subject = it->first;
      promote(rec, it->first, /*record_event=*/false, now, out);
    }
    decisions.push_back(std::move(out));
  }
  return decisions;
}

HeadArbiter::Decision HeadArbiter::on_deadline(FunctionId function, const Timer& timer,
                                               util::TimePoint now) {
  Decision out;
  out.function = function;
  Record* rec = find(function);
  if (rec == nullptr) return out;
  if (timer.kind == Timer::Kind::kDormant) {
    // T3: park the demoted replica Dormant after the observation window.
    if (mode(function, timer.node) == ControllerMode::kBackup) {
      command(*rec, timer.node, ControllerMode::kDormant, out);
    }
    return out;
  }
  // Promotion supervision: a promoted replica that never heartbeats as
  // Active within the timeout has itself failed; move on to the next one.
  if (active_of(*rec) != timer.node) return out;
  if (timer.node == self_) return out;  // self-promotion: trivially alive
  const auto& heard = rec->replicas[timer.node].last_active_heartbeat;
  if (heard && *heard >= timer.set_at) return out;  // alive and in charge
  out.cause = Cause::kPromotionTimeout;
  out.subject = timer.node;
  fail_over(*rec, timer.node, FaultReason::kSilent, now, out);
  // The dead promotee must not be re-picked by future arbitrations (until a
  // live heartbeat re-admits it).
  rec->replicas[timer.node].mode = ControllerMode::kDormant;
  return out;
}

void HeadArbiter::on_become_head(util::TimePoint now) {
  // Resume above every epoch any replica has acknowledged, so the new
  // head's first command is not discarded as stale. Silence clocks restart
  // now: judging replicas by heartbeats heard before this node was head
  // would trigger an instant spurious failover. The promote-epoch floor
  // starts at the bumped epoch too, so a stale rejoiner claiming Active
  // (its pre-crash epoch is necessarily below it) is demoted instead of
  // adopted — without it, two live Actives could flap in the table forever
  // with neither ever receiving a demote.
  for (auto& [fid, rec] : records_) {
    rec.epoch += 100;
    rec.promote_epoch = rec.epoch;
    rec.active_seen = now;
  }
}

HeadArbiter::Decision HeadArbiter::hand_over(FunctionId function, net::NodeId target) {
  Decision out;
  out.function = function;
  Record* rec = find(function);
  if (rec == nullptr) return out;
  const auto active = active_of(*rec);
  command(*rec, target, ControllerMode::kActive, out);
  if (active.has_value()) command(*rec, *active, ControllerMode::kBackup, out);
  return out;
}

void HeadArbiter::command(Record& rec, net::NodeId target, ControllerMode mode,
                          Decision& out) {
  const std::uint32_t epoch = ++rec.epoch;
  if (mode == ControllerMode::kActive) rec.promote_epoch = epoch;
  rec.replicas[target].mode = mode;
  out.commands.push_back({target, mode, epoch});
}

void HeadArbiter::promote(Record& rec, net::NodeId node, bool record_event,
                          util::TimePoint now, Decision& out) {
  if (record_event) out.failover = FailoverEvent{now, out.function, net::kInvalidNode, node,
                                                 FaultReason::kSilent};
  command(rec, node, ControllerMode::kActive, out);
  rec.active_seen = now;
  out.timers.push_back({Timer::Kind::kPromotion, node, now, policy_.promotion_timeout});
}

void HeadArbiter::fail_over(Record& rec, net::NodeId suspect, FaultReason reason,
                            util::TimePoint now, Decision& out) {
  out.failover = FailoverEvent{now, out.function, suspect, net::kInvalidNode, reason};
  const auto promoted = best_backup(out.function, suspect);
  if (!promoted.has_value()) {
    // Graceful degradation floor: nobody to promote; demote the suspect to
    // Indicator so operators see its (wrong) output flagged, keep looking.
    command(rec, suspect, ControllerMode::kIndicator, out);
    return;
  }
  out.failover->promoted = *promoted;
  command(rec, *promoted, ControllerMode::kActive, out);
  rec.active_seen = now;
  command(rec, suspect, ControllerMode::kBackup, out);
  out.timers.push_back({Timer::Kind::kDormant, suspect, now, policy_.dormant_delay});
  out.timers.push_back({Timer::Kind::kPromotion, *promoted, now, policy_.promotion_timeout});
}

}  // namespace evm::core
