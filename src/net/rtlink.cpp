#include "net/rtlink.hpp"

#include <algorithm>
#include <stdexcept>

namespace evm::net {

RtLinkSchedule::RtLinkSchedule(int slots_per_frame, util::Duration slot_length,
                               util::Duration guard)
    : slots_per_frame_(slots_per_frame),
      slot_length_(slot_length),
      guard_(guard),
      tx_(static_cast<std::size_t>(slots_per_frame), kInvalidNode) {}

void RtLinkSchedule::check_not_frozen() const {
  if (frozen_) {
    throw std::logic_error("RtLinkSchedule: changed after an RT-Link node started");
  }
}

void RtLinkSchedule::assign_tx(int slot, NodeId node) {
  check_not_frozen();
  if (slot < 0 || slot >= slots_per_frame_) return;
  tx_[slot] = node;
}

void RtLinkSchedule::set_listeners(int slot, std::set<NodeId> listeners) {
  check_not_frozen();
  listeners_[slot] = std::move(listeners);
}

bool RtLinkSchedule::should_listen(int slot, NodeId node) const {
  if (tx_of(slot) == kInvalidNode) return false;  // idle slot: everyone sleeps
  if (tx_of(slot) == node) return false;          // own TX slot
  auto it = listeners_.find(slot);
  if (it == listeners_.end()) return true;  // default: all listen
  return it->second.count(node) > 0;
}

void RtLinkSchedule::freeze() {
  if (frozen_) return;
  frozen_ = true;
  for (int slot = 0; slot < slots_per_frame_; ++slot) {
    if (tx_[slot] == kInvalidNode) continue;
    owned_.emplace_back(tx_[slot], slot);
    const auto it = listeners_.find(slot);
    const std::set<NodeId>* listeners = it == listeners_.end() ? nullptr : &it->second;
    if (listeners == nullptr && !runs_.empty() && runs_.back().listeners == nullptr &&
        runs_.back().end == slot) {
      ++runs_.back().end;
    } else {
      runs_.push_back(Run{slot, slot + 1, listeners});
    }
  }
  std::sort(owned_.begin(), owned_.end());
}

std::vector<SlotAction> RtLinkSchedule::timeline_of(NodeId node) {
  freeze();
  // The node's own slots, ascending. Every one lies inside some run.
  auto [own, own_end] = std::equal_range(
      owned_.begin(), owned_.end(), std::pair<NodeId, int>{node, 0},
      [](const auto& a, const auto& b) { return a.first < b.first; });

  // Merge the per-slot classification (own TX / listen / sleep) into state
  // transitions. Sleep needs no action of its own: a listen run's trailing
  // kSleep turns the radio off, a TX slot turns itself off when the packet
  // (or the empty queue) is done, and the previous frame's tail is covered
  // by that frame's own trailing action. One exception: a listen run flowing
  // straight into our own TX slot emits no kSleep — the radio stays up
  // through the guard interval exactly as the per-slot dispatch did, and the
  // pop decides whether it transmits or goes idle.
  std::vector<SlotAction> out;
  bool listening = false;
  const auto classify = [&](int slot, bool listens) {
    if (listens && !listening) out.push_back(SlotAction{slot, SlotAction::kListenStart});
    if (!listens && listening) out.push_back(SlotAction{slot, SlotAction::kSleep});
    listening = listens;
  };
  int edge = 0;  // first slot not yet classified
  for (const Run& run : runs_) {
    if (run.begin > edge) classify(edge, false);  // idle slots before the run
    const bool listens = run.listeners == nullptr || run.listeners->count(node) > 0;
    int slot = run.begin;
    for (; own != own_end && own->second < run.end; ++own) {
      if (own->second > slot) classify(slot, listens);
      listening = false;  // no kSleep: stay up through the guard
      out.push_back(SlotAction{own->second, SlotAction::kTx});
      slot = own->second + 1;
    }
    if (slot < run.end) classify(slot, listens);
    edge = run.end;
  }
  if (edge < slots_per_frame_) classify(edge, false);
  // A listen run that reaches the frame edge only sleeps if slot 0 of the
  // next frame is idle. Otherwise the run wraps: an edge kSleep would be
  // keyed a whole frame ahead of its next-frame counterpart action, through
  // a clock mapping that time-sync re-disciplines in between — letting the
  // stale kSleep fire AFTER the fresh kListenStart/kTx and shut the radio
  // for the frame's entire first listen run.
  if (listening && tx_of(0) != node && !should_listen(0, node)) {
    out.push_back(SlotAction{slots_per_frame_, SlotAction::kSleep});
  }
  return out;
}

RtLink::RtLink(sim::Simulator& sim, Radio& radio, NodeClock& clock,
               RtLinkSchedule& schedule, std::size_t queue_capacity)
    : Mac(sim, radio, queue_capacity), clock_(clock), schedule_(schedule) {
  clock_.set_listener(this);
}

RtLink::~RtLink() {
  radio_.clear_deferred();
  clock_.set_listener(nullptr);
}

void RtLink::start() {
  if (running_) return;
  radio_.resolve();  // changes due before the restart still see it stopped
  running_ = true;
  radio_.set_state(RadioState::kOff);
  radio_.set_receive_handler([this](const Packet& p) { deliver_up(p); });
  timeline_ = schedule_.timeline_of(id());
  next_boundary_ = sim_.now();
  plan();
}

void RtLink::stop() {
  radio_.resolve();  // changes due before the stop still see it running
  withdraw_unbegun();
  running_ = false;
  clock_.set_quiet_until(util::TimePoint::max());
  sim_.cancel(frame_event_);
  radio_.set_state(RadioState::kOff);
}

util::Status RtLink::send(Packet packet) {
  util::Status status = Mac::send(std::move(packet));
  promote_pop();
  return status;
}

std::size_t RtLink::frames_run() const {
  return frames_ + static_cast<std::size_t>(std::count_if(
                       planned_.begin(), planned_.end(), [this](const PlannedFrame& f) {
                         return sim_.has_dispatched(f.boundary, f.seq);
                       }));
}

void RtLink::on_clock_change() {
  if (!running_) return;
  withdraw_unbegun();
  plan();
}

void RtLink::withdraw_unbegun() {
  const auto unbegun = std::find_if(
      planned_.begin(), planned_.end(),
      [this](const PlannedFrame& f) { return !sim_.has_dispatched(f.boundary, f.seq); });
  frames_ += static_cast<std::size_t>(unbegun - planned_.begin());
  if (unbegun != planned_.end()) {
    const std::uint64_t from = unbegun->seq;
    next_boundary_ = unbegun->boundary;
    radio_.withdraw_from(from);
    std::erase_if(idle_pops_, [from](const IdlePop& idle) { return idle.seq >= from; });
    if (pop_seq_ >= from) {
      sim_.cancel(pop_event_);
      pop_seq_ = 0;
    }
  }
  planned_.clear();
}

void RtLink::plan() {
  if (!running_) return;
  sim_.cancel(frame_event_);
  frame_event_ = {};
  const bool pulse = clock_.expects_pulse();
  if (pulse ? next_boundary_ < clock_.next_pulse() : next_boundary_ <= sim_.now()) {
    // A read: applies what is due, so the radio's pending list holds little
    // more than what is planned even if nothing else reads it.
    radio_.resolve();
    std::erase_if(idle_pops_, [this](const IdlePop& idle) {
      return sim_.has_dispatched(idle.at, idle.seq);
    });
    do {
      plan_frame();
    } while (pulse && next_boundary_ < clock_.next_pulse());
  }
  if (!pulse) frame_event_ = sim_.schedule_at(next_boundary_, [this] { plan(); });
  clock_.set_quiet_until(next_boundary_);
  promote_pop();
}

void RtLink::plan_frame() {
  const util::TimePoint boundary = next_boundary_;
  if (boundary > sim_.now()) {
    planned_.push_back(PlannedFrame{boundary, sim_.reserve_sequence()});
  } else {
    ++frames_;
  }
  if (trace_ != nullptr) {
    util::Json args = util::Json::object();
    args.set("frame", static_cast<std::int64_t>(frames_ + planned_.size()));
    trace_->instant(id(), "net.rtlink", "frame", boundary, std::move(args));
  }

  // Find the next frame start in *local* time, then key the merged
  // timeline's actions at local instants mapped back through the drifting
  // clock, as it will read at the boundary. Clock error relative to other
  // nodes is therefore physically reflected in when this node keys its
  // transmitter.
  const ClockMapping clock = clock_.mapping_at(boundary);
  const util::TimePoint local_now = clock.local_time(boundary);
  const util::Duration frame_len = schedule_.frame_length();
  const std::int64_t frame_index = local_now.ns() / frame_len.ns() + 1;
  const util::TimePoint local_frame_start =
      util::TimePoint(frame_index * frame_len.ns());

  for (const SlotAction& action : timeline_) {
    const util::TimePoint local_at =
        local_frame_start + schedule_.slot_length() * action.slot;
    const util::TimePoint global_at = clock.global_for(local_at);
    if (global_at <= boundary) continue;
    const std::uint64_t seq = sim_.reserve_sequence();
    switch (action.kind) {
      case SlotAction::kTx: {
        // Guard interval absorbs clock error between us and our listeners:
        // transmit `guard` into the slot so receivers that woke slightly
        // late still catch the preamble.
        const util::TimePoint pop_at = global_at + schedule_.guard();
        radio_.defer(pop_at, seq, DeferredChange::kOff, &running_);
        idle_pops_.push_back(IdlePop{pop_at, seq, action.slot});
        break;
      }
      case SlotAction::kListenStart:
        radio_.defer(global_at, seq, DeferredChange::kListen, &running_);
        break;
      case SlotAction::kSleep:
        radio_.defer(global_at, seq, DeferredChange::kSleep, &running_);
        break;
    }
  }

  next_boundary_ =
      clock.global_for(local_frame_start + frame_len - schedule_.slot_length() / 2);
}

void RtLink::promote_pop() {
  if (pop_seq_ != 0 || !tx_pending()) return;
  std::erase_if(idle_pops_, [this](const IdlePop& idle) {
    return sim_.has_dispatched(idle.at, idle.seq);
  });
  const auto first = std::min_element(
      idle_pops_.begin(), idle_pops_.end(), [](const IdlePop& a, const IdlePop& b) {
        return a.at < b.at || (a.at == b.at && a.seq < b.seq);
      });
  if (first == idle_pops_.end() || !radio_.withdraw(first->seq)) return;
  pop_seq_ = first->seq;
  pop_event_ = sim_.schedule_reserved(first->at, first->seq,
                                      [this, slot = first->slot] { pop(slot); });
  idle_pops_.erase(first);
}

void RtLink::pop(int slot) {
  pop_seq_ = 0;
  if (running_) {
    auto packet = dequeue();
    if (!packet.has_value()) {
      radio_.set_state(RadioState::kOff);  // nothing to send: sleep through
    } else {
      radio_.set_state(RadioState::kIdleListen);
      ++stats_.sent;
      ++slots_used_;
      if (trace_ != nullptr) {
        util::Json args = util::Json::object();
        args.set("slot", static_cast<std::int64_t>(slot));
        trace_->complete(id(), "net.rtlink", "tx", sim_.now(),
                         schedule_.slot_length() - schedule_.guard(),
                         std::move(args));
      }
      radio_.transmit(*packet, [this] { radio_.set_state(RadioState::kOff); });
    }
  }
  promote_pop();
}

}  // namespace evm::net
