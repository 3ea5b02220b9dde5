// Time-varying link behaviour, the environment the EVM exists to survive
// (paper §1.1: "the links, nodes and topology of wireless systems are
// inherently unreliable"; §4: evaluation under "dramatic topology changes").
//
// Two tools:
//  * GilbertElliott — the classic two-state burst-loss chain. Each link can
//    carry one; the Medium consults it per frame so losses arrive in bursts
//    rather than i.i.d., which is what defeats naive single-retry schemes.
//  * TopologyScript — a timed sequence of link up/down/loss mutations
//    driven by the simulator, for reproducible churn scenarios.
#pragma once

#include <functional>
#include <vector>

#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace evm::net {

struct GilbertElliottParams {
  double p_good_loss = 0.01;
  double p_bad_loss = 0.8;
  double p_good_to_bad = 0.02;  // per packet
  double p_bad_to_good = 0.25;  // per packet -> mean burst of 4 packets
};

/// Two-state Markov (Gilbert-Elliott) loss process. In the Good state
/// packets drop with p_good (near 0); in the Bad state with p_bad (near 1).
/// Transition probabilities are evaluated once per packet.
class GilbertElliott {
 public:
  using Params = GilbertElliottParams;

  explicit GilbertElliott(Params params = {}, std::uint64_t seed = 99)
      : params_(params), rng_(seed) {}

  /// Advance the chain one packet and decide that packet's fate.
  bool drop_next();
  /// Long-run average loss rate of this chain (analytic).
  double steady_state_loss() const;

 private:
  Params params_;
  util::Rng rng_;
  bool bad_ = false;
};

/// Applies timed topology mutations on the simulator's clock.
class TopologyScript {
 public:
  TopologyScript(sim::Simulator& sim, Topology& topology)
      : sim_(sim), topology_(topology) {}

  /// Schedule a link state change at absolute time `at`.
  void link_down(util::TimePoint at, NodeId a, NodeId b);
  void link_up(util::TimePoint at, NodeId a, NodeId b);
  void set_loss(util::TimePoint at, NodeId a, NodeId b, double loss);
  /// Take the link down at `at` and restore it `outage` later.
  void outage(util::TimePoint at, NodeId a, NodeId b, util::Duration outage);
  /// Arbitrary mutation.
  void at(util::TimePoint when, std::function<void(Topology&)> mutation);

  std::size_t events_applied() const { return applied_; }

 private:
  sim::Simulator& sim_;
  Topology& topology_;
  std::size_t applied_ = 0;
};

}  // namespace evm::net
