// B-MAC (Polastre et al., SenSys 2005): asynchronous low-power-listening
// CSMA. Receivers sample the channel briefly every check interval; a sender
// precedes each packet with a wakeup preamble at least one check interval
// long, guaranteeing every neighbor's sample lands inside it. Cheap when
// idle and traffic is rare; preamble cost grows linearly with event rate,
// which is exactly the regime where RT-Link wins (bench_mac_lifetime).
#pragma once

#include "net/mac.hpp"

namespace evm::net {

struct BMacParams {
  util::Duration check_interval = util::Duration::millis(100);
  /// Channel sample duration per wakeup (radio warmup + RSSI read).
  util::Duration cca_time = util::Duration::micros(350);
  /// Extra preamble beyond one check interval (clock tolerance).
  util::Duration preamble_margin = util::Duration::millis(2);
  /// Max CSMA retries before dropping.
  int max_backoffs = 5;
  util::Duration initial_backoff = util::Duration::millis(10);
};

class BMac final : public Mac {
 public:
  BMac(sim::Simulator& sim, Radio& radio, BMacParams params = {},
       std::size_t queue_capacity = 16);

  void start() override;
  void stop() override;
  util::Status send(Packet packet) override;

  const BMacParams& params() const { return params_; }

 private:
  void sample_channel();
  void end_sample();
  void try_send(int attempt);
  void finish_receive_window();

  BMacParams params_;
  bool sampling_ = false;
  bool receiving_ = false;
  bool sending_ = false;
  sim::EventHandle wake_event_;
  sim::EventHandle rx_timeout_;
};

}  // namespace evm::net
