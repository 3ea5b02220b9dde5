#include "net/rtlink.hpp"

#include "util/log.hpp"

namespace evm::net {

RtLinkSchedule::RtLinkSchedule(int slots_per_frame, util::Duration slot_length,
                               util::Duration guard)
    : slots_per_frame_(slots_per_frame),
      slot_length_(slot_length),
      guard_(guard),
      tx_(static_cast<std::size_t>(slots_per_frame), kInvalidNode) {}

void RtLinkSchedule::assign_tx(int slot, NodeId node) {
  if (slot < 0 || slot >= slots_per_frame_) return;
  tx_[slot] = node;
  ++version_;
}

void RtLinkSchedule::clear_slot(int slot) {
  if (slot < 0 || slot >= slots_per_frame_) return;
  tx_[slot] = kInvalidNode;
  listeners_.erase(slot);
  ++version_;
}

std::vector<int> RtLinkSchedule::slots_of(NodeId node) const {
  std::vector<int> out;
  for (int slot = 0; slot < slots_per_frame_; ++slot) {
    if (tx_[slot] == node) out.push_back(slot);
  }
  return out;
}

void RtLinkSchedule::set_listeners(int slot, std::set<NodeId> listeners) {
  listeners_[slot] = std::move(listeners);
  ++version_;
}

bool RtLinkSchedule::should_listen(int slot, NodeId node) const {
  if (tx_of(slot) == kInvalidNode) return false;  // idle slot: everyone sleeps
  if (tx_of(slot) == node) return false;          // own TX slot
  auto it = listeners_.find(slot);
  if (it == listeners_.end()) return true;  // default: all listen
  return it->second.count(node) > 0;
}

RtLink::RtLink(sim::Simulator& sim, Radio& radio, NodeClock& clock,
               RtLinkSchedule& schedule, std::size_t queue_capacity)
    : Mac(sim, radio, queue_capacity), clock_(clock), schedule_(schedule) {}

RtLink::~RtLink() { radio_.clear_deferred(); }

void RtLink::start() {
  if (running_) return;
  radio_.resolve();  // changes due before the restart still see it stopped
  running_ = true;
  radio_.set_state(RadioState::kOff);
  radio_.set_receive_handler([this](const Packet& p) { deliver_up(p); });
  begin_frame();
}

void RtLink::stop() {
  radio_.resolve();  // changes due before the stop still see it running
  running_ = false;
  sim_.cancel(frame_event_);
  radio_.set_state(RadioState::kOff);
}

util::Status RtLink::send(Packet packet) {
  util::Status status = Mac::send(std::move(packet));
  if (tx_pending()) {
    // A pop deferred as idle now has a packet to send: promote it, under the
    // key it reserved, unless that key has already passed (then the slot
    // was empty when it came, and the deferred kOff has been applied).
    for (const IdlePop& idle : idle_pops_) {
      if (radio_.withdraw(idle.seq)) {
        sim_.schedule_reserved(idle.at, idle.seq,
                               [this, slot = idle.slot] { pop(slot); });
      }
    }
    idle_pops_.clear();
  }
  return status;
}

util::Duration RtLink::worst_case_access_delay() const {
  const auto mine = schedule_.slots_of(id());
  if (mine.empty()) return util::Duration::max();
  // Worst case: the packet arrives just after a slot; with k evenly usable
  // slots the bound is one frame (conservative and simple).
  return schedule_.frame_length();
}

void RtLink::refresh_timeline() {
  if (timeline_version_ == schedule_.version()) return;
  timeline_.clear();
  const int slots = schedule_.slots_per_frame();
  // Merge the per-slot classification (own TX / listen / sleep) into state
  // transitions. Sleep needs no event of its own: a listen run's trailing
  // kSleep turns the radio off, a TX slot turns itself off when the packet
  // (or the empty queue) is done, and the previous frame's tail is covered
  // by that frame's own trailing action. One exception: a listen run flowing
  // straight into our own TX slot emits no kSleep — the radio stays up
  // through the guard interval exactly as the per-slot dispatch did, and the
  // pop decides whether it transmits or goes idle.
  bool listening = false;
  for (int slot = 0; slot < slots; ++slot) {
    if (schedule_.tx_of(slot) == id()) {
      if (listening) listening = false;  // no kSleep: stay up through guard
      timeline_.push_back(SlotAction{slot, SlotAction::kTx});
    } else if (schedule_.should_listen(slot, id())) {
      if (!listening) {
        timeline_.push_back(SlotAction{slot, SlotAction::kListenStart});
        listening = true;
      }
    } else {
      if (listening) {
        timeline_.push_back(SlotAction{slot, SlotAction::kSleep});
        listening = false;
      }
    }
  }
  if (listening) {
    // A listen run that reaches the frame edge only sleeps if slot 0 of the
    // next frame is idle. Otherwise the run wraps: an edge kSleep would be
    // scheduled a whole frame ahead of its next-frame counterpart action,
    // through a clock mapping that time-sync re-disciplines in between —
    // letting the stale kSleep fire AFTER the fresh kListenStart/kTx and
    // shut the radio for the frame's entire first listen run.
    const bool wraps = schedule_.tx_of(0) == id() ||
                       schedule_.should_listen(0, id());
    if (!wraps) {
      timeline_.push_back(SlotAction{slots, SlotAction::kSleep});  // frame edge
    }
  }
  timeline_version_ = schedule_.version();
}

void RtLink::begin_frame() {
  if (!running_) return;
  ++frames_;
  if (trace_ != nullptr) {
    util::Json args = util::Json::object();
    args.set("frame", static_cast<std::int64_t>(frames_));
    trace_->instant(id(), "net.rtlink", "frame", sim_.now(), std::move(args));
  }

  refresh_timeline();
  // A read: applies the last frame's due changes, so the radio's pending
  // list stays about one frame long even if nothing else reads it.
  radio_.resolve();
  std::erase_if(idle_pops_, [this](const IdlePop& idle) {
    return sim_.has_dispatched(idle.at, idle.seq);
  });

  // Find the next frame boundary in *local* time, then key the merged
  // timeline's actions at local boundaries mapped back through the drifting
  // clock. Clock error relative to other nodes is therefore physically
  // reflected in when this node keys its transmitter.
  const util::TimePoint local_now = clock_.local_time(sim_.now());
  const util::Duration frame_len = schedule_.frame_length();
  const std::int64_t frame_index = local_now.ns() / frame_len.ns() + 1;
  const util::TimePoint local_frame_start =
      util::TimePoint(frame_index * frame_len.ns());

  const bool queued = tx_pending();
  for (const SlotAction& action : timeline_) {
    const util::TimePoint local_at =
        local_frame_start + schedule_.slot_length() * action.slot;
    const util::TimePoint global_at = clock_.global_for(local_at);
    if (global_at <= sim_.now()) continue;
    const std::uint64_t seq = sim_.reserve_sequence();
    switch (action.kind) {
      case SlotAction::kTx: {
        // Guard interval absorbs clock error between us and our listeners:
        // transmit `guard` into the slot so receivers that woke slightly
        // late still catch the preamble.
        const util::TimePoint pop_at = global_at + schedule_.guard();
        if (queued) {
          sim_.schedule_reserved(pop_at, seq, [this, slot = action.slot] { pop(slot); });
        } else {
          radio_.defer(pop_at, seq, DeferredChange::kOff, &running_);
          idle_pops_.push_back(IdlePop{pop_at, seq, action.slot});
        }
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

  const util::TimePoint local_next = local_frame_start + frame_len;
  frame_event_ = sim_.schedule_at(
      clock_.global_for(local_next - schedule_.slot_length() / 2),
      [this] { begin_frame(); });
}

void RtLink::pop(int slot) {
  if (!running_) return;
  auto packet = dequeue();
  if (!packet.has_value()) {
    radio_.set_state(RadioState::kOff);  // nothing to send: sleep through
    return;
  }
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

}  // namespace evm::net
