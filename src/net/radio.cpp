#include "net/radio.hpp"

#include <algorithm>

#include "net/medium.hpp"
#include "util/log.hpp"

namespace evm::net {

Radio::Radio(sim::Simulator& sim, Medium& medium, NodeId id, RadioParams params)
    : sim_(sim),
      medium_(medium),
      id_(id),
      params_(params),
      last_transition_(sim.now()),
      energy_epoch_(sim.now()) {
  medium_.attach(*this);
}

double Radio::current_for(RadioState s) const {
  switch (s) {
    case RadioState::kOff: return params_.off_current_ma;
    case RadioState::kIdleListen: return params_.idle_current_ma;
    case RadioState::kRx: return params_.rx_current_ma;
    case RadioState::kTx: return params_.tx_current_ma;
  }
  return 0.0;
}

void Radio::accumulate(util::TimePoint at) const {
  const util::Duration elapsed = at - last_transition_;
  if (elapsed.is_positive()) {
    consumed_ma_ns_ += current_for(state_) * static_cast<double>(elapsed.ns());
    state_time_[static_cast<int>(state_)] += elapsed;
  }
  last_transition_ = at;
}

void Radio::enter(RadioState next, util::TimePoint at) const {
  if (next == state_) return;
  accumulate(at);
  const bool was_listening = is_listening(state_);
  state_ = next;
  const bool now_listening = is_listening(state_);
  // Keep the medium's per-cell listening bitmask current: carrier wake-ups
  // and onset recipient snapshots are mask ANDs against it, so it must
  // track every listening edge, not be polled.
  if (was_listening != now_listening) {
    medium_.note_listening(id_, now_listening);
  }
}

void Radio::set_state(RadioState next) {
  resolve();
  enter(next, sim_.now());
}

void Radio::defer(util::TimePoint at, std::uint64_t seq, DeferredChange change,
                  const bool* gate) {
  gate_ = gate;
  if (deferred_.empty()) medium_.note_pending(id_, true);
  // Keys almost always arrive in order; walk back past any later ones.
  auto pos = deferred_.end();
  while (pos != deferred_.begin() &&
         (at < std::prev(pos)->at ||
          (at == std::prev(pos)->at && seq < std::prev(pos)->seq))) {
    --pos;
  }
  deferred_.insert(pos, Deferred{at, seq, change});
}

bool Radio::withdraw(std::uint64_t seq) {
  resolve();
  const auto it = std::find_if(deferred_.begin(), deferred_.end(),
                               [seq](const Deferred& d) { return d.seq == seq; });
  if (it == deferred_.end()) return false;
  deferred_.erase(it);
  if (deferred_.empty()) medium_.note_pending(id_, false);
  return true;
}

void Radio::withdraw_from(std::uint64_t seq) {
  resolve();
  std::erase_if(deferred_, [seq](const Deferred& d) { return d.seq >= seq; });
  if (deferred_.empty()) medium_.note_pending(id_, false);
}

void Radio::clear_deferred() {
  resolve();
  if (!deferred_.empty()) {
    deferred_.clear();
    medium_.note_pending(id_, false);
  }
  gate_ = nullptr;
}

void Radio::apply_deferred() const {
  std::size_t done = 0;
  for (; done < deferred_.size(); ++done) {
    const Deferred& d = deferred_[done];
    if (!sim_.has_dispatched(d.at, d.seq)) break;
    if (!*gate_) continue;
    switch (d.change) {
      case DeferredChange::kListen:
        enter(RadioState::kIdleListen, d.at);
        break;
      case DeferredChange::kSleep:
        if (state_ != RadioState::kTx) enter(RadioState::kOff, d.at);
        break;
      case DeferredChange::kOff:
        enter(RadioState::kOff, d.at);
        break;
    }
  }
  deferred_.erase(deferred_.begin(),
                  deferred_.begin() + static_cast<std::ptrdiff_t>(done));
  if (deferred_.empty()) medium_.note_pending(id_, false);
}

bool Radio::transmit(const Packet& packet, std::function<void()> on_done) {
  resolve();
  if (state_ == RadioState::kOff || state_ == RadioState::kTx) return false;
  set_state(RadioState::kTx);
  ++tx_count_;
  const util::Duration air = airtime(packet.on_air_bytes(), params_.bits_per_second);
  medium_.begin_transmission(*this, packet, air);
  sim_.schedule_after(air, [this, on_done = std::move(on_done)] {
    if (transmitting()) set_state(RadioState::kIdleListen);
    if (on_done) on_done();
  });
  return true;
}

bool Radio::transmit_carrier(util::Duration length, std::function<void()> on_done) {
  resolve();
  if (state_ == RadioState::kOff || state_ == RadioState::kTx) return false;
  set_state(RadioState::kTx);
  medium_.begin_carrier(*this, length);
  sim_.schedule_after(length, [this, on_done = std::move(on_done)] {
    if (transmitting()) set_state(RadioState::kIdleListen);
    if (on_done) on_done();
  });
  return true;
}

bool Radio::channel_busy() const { return medium_.channel_busy(id_); }

void Radio::deliver(const Packet& packet) {
  if (receive_handler_) receive_handler_(packet);
}

void Radio::notify_carrier() {
  if (carrier_handler_) carrier_handler_();
}

double Radio::consumed_mah() const {
  resolve();
  // Include the still-open interval in the current state.
  const util::Duration open = sim_.now() - last_transition_;
  const double total_ma_ns =
      consumed_ma_ns_ + current_for(state_) * static_cast<double>(open.ns());
  return total_ma_ns / 3.6e12;  // mA*ns -> mA*h
}

double Radio::average_current_ma(util::TimePoint now) const {
  const util::Duration span = now - energy_epoch_;
  if (!span.is_positive()) return 0.0;
  return consumed_mah() * 3.6e12 / static_cast<double>(span.ns());
}

void Radio::reset_energy(util::TimePoint now) {
  resolve();
  accumulate(sim_.now());
  consumed_ma_ns_ = 0.0;
  energy_epoch_ = now;
  for (auto& t : state_time_) t = util::Duration::zero();
}

}  // namespace evm::net
