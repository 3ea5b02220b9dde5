#include "net/bmac.hpp"

#include "net/medium.hpp"

namespace evm::net {

BMac::BMac(sim::Simulator& sim, Radio& radio, BMacParams params,
           std::size_t queue_capacity)
    : Mac(sim, radio, queue_capacity), params_(params) {}

void BMac::start() {
  if (running_) return;
  running_ = true;
  radio_.set_state(RadioState::kOff);
  radio_.set_receive_handler([this](const Packet& p) {
    sim_.cancel(rx_timeout_);
    receiving_ = false;
    if (!sending_) radio_.set_state(RadioState::kOff);
    deliver_up(p);
  });
  radio_.set_carrier_handler([this] {
    // Energy heard while sampling: hold the radio on until the packet that
    // follows the preamble arrives (or the timeout gives up).
    if (!sampling_ || receiving_) return;
    receiving_ = true;
    sim_.cancel(rx_timeout_);
    const util::Duration max_wait = params_.check_interval +
                                    params_.preamble_margin * 2 +
                                    util::Duration::millis(8);
    rx_timeout_ = sim_.schedule_after(max_wait, [this] { finish_receive_window(); });
  });
  wake_event_ = sim_.schedule_after(params_.check_interval, [this] { sample_channel(); });
}

void BMac::stop() {
  running_ = false;
  sim_.cancel(wake_event_);
  sim_.cancel(rx_timeout_);
  radio_.set_state(RadioState::kOff);
}

util::Status BMac::send(Packet packet) {
  util::Status status = Mac::send(std::move(packet));
  if (status && !sending_) try_send(0);
  return status;
}

void BMac::sample_channel() {
  if (!running_) return;
  wake_event_ = sim_.schedule_after(params_.check_interval, [this] { sample_channel(); });
  if (sending_ || receiving_) return;  // already busy with real work
  sampling_ = true;
  radio_.set_state(RadioState::kIdleListen);
  // A preamble already in the air was keyed before we woke, so its onset
  // notification never reached us — poll the channel energy directly.
  if (radio_.channel_busy()) {
    radio_.notify_carrier();
    return;
  }
  sim_.schedule_after(params_.cca_time, [this] { end_sample(); });
}

void BMac::end_sample() {
  if (!sampling_) return;
  if (receiving_ || sending_) {
    sampling_ = false;
    return;  // carrier caught: stay up
  }
  // Late energy check covers a preamble that started mid-sample.
  if (radio_.channel_busy()) {
    radio_.notify_carrier();
    sampling_ = false;
    return;
  }
  sampling_ = false;
  radio_.set_state(RadioState::kOff);
}

void BMac::try_send(int attempt) {
  if (!running_ || sending_) return;
  if (!tx_pending()) return;
  if (attempt > params_.max_backoffs) {
    (void)dequeue();
    if (tx_pending()) try_send(0);
    return;
  }
  if (receiving_) {
    // Defer behind the in-progress reception.
    sim_.schedule_after(params_.initial_backoff, [this, attempt] { try_send(attempt); });
    return;
  }
  sending_ = true;
  radio_.set_state(RadioState::kIdleListen);
  // CCA with random initial delay to de-synchronize contending senders.
  const auto backoff = util::Duration(static_cast<std::int64_t>(
      sim_.rng().uniform(0.0, static_cast<double>(params_.initial_backoff.ns()) *
                                  (1 << attempt))));
  sim_.schedule_after(backoff, [this, attempt] {
    if (!running_) return;
    if (radio_.transmitting()) {
      sending_ = false;
      return;
    }
    // Simple CCA through the medium: if a neighbor is mid-air, back off.
    bool busy = receiving_;
    if (busy) {
      sending_ = false;
      try_send(attempt + 1);
      return;
    }
    const util::Duration preamble = params_.check_interval + params_.preamble_margin;
    radio_.transmit_carrier(preamble, [this] {
      auto packet = dequeue();
      if (!packet.has_value()) {
        sending_ = false;
        radio_.set_state(RadioState::kOff);
        return;
      }
      ++stats_.sent;
      radio_.transmit(*packet, [this] {
        sending_ = false;
        radio_.set_state(RadioState::kOff);
        if (tx_pending()) try_send(0);
      });
    });
  });
}

void BMac::finish_receive_window() {
  receiving_ = false;
  if (!sending_ && !sampling_) radio_.set_state(RadioState::kOff);
}

}  // namespace evm::net
