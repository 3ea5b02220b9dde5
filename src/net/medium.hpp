// The shared wireless medium. Connects radios according to the Topology,
// applies per-link loss, and detects collisions: two transmissions that
// overlap in time at a listening receiver corrupt each other.
//
// Reception semantics: who can hear a transmission — and whether they are
// listening for it — is decided at *carrier onset*, when the preamble hits
// the air. A link that flips up mid-flight cannot conjure a reception the
// receiver never synchronised to, and a radio that wakes after the preamble
// has passed misses the packet. Per-link loss is likewise drawn at onset
// (fate of the channel for this airtime). Collisions are the one decision
// that stays at end of airtime, because a later-starting overlap corrupts
// the tail of an earlier packet. A sender that crash-stops mid-air aborts
// its transmission (the tail never airs), so nothing is delivered.
//
// Hot-path note (ROADMAP item 1, round 2): the medium is spatially
// partitioned into cells of 64 consecutive NodeIds. Audible energy is
// recorded once per *cell* with a 64-bit audibility mask instead of once per
// listener, and each cell keeps a listening bitmask maintained by
// Radio::set_state — so a broadcast onset touches O(cells in audible range)
// entries, wakes sleeping-heavy neighborhoods by a single mask AND, and a
// dense (star/mesh) world pays 1/64th of the former per-neighbor scan.
// Cells and bits iterate in ascending NodeId order, which is exactly the
// cached adjacency order: the onset loss draws consume the RNG stream in
// the same sequence as the per-neighbor engine, keeping every checked-in
// scenario baseline byte-identical. A radio whose MAC defers state changes
// (see Radio::defer) may lag its listening bit; each cell also keeps a
// pending bitmask of such radios, and an onset applies the audible ones'
// due changes before it reads the listening bitmask.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include <memory>

#include "net/link_dynamics.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/simulator.hpp"

namespace evm::net {

class Radio;

class Medium {
 public:
  Medium(sim::Simulator& sim, Topology& topology);

  void attach(Radio& radio);
  /// Mirror of attach: drops the radio, removes the node (and its links)
  /// from the topology, cancels its in-flight transmissions and forgets its
  /// energy at every listener — a detached radio is gone, not a ghost.
  void detach(NodeId id);

  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

  /// Called by Radio when it starts transmitting. The medium snapshots the
  /// audible listener set now and schedules the delivery decision at end of
  /// airtime.
  void begin_transmission(Radio& sender, const Packet& packet, util::Duration airtime);
  /// Carrier-only burst (no payload to deliver, but wakes LPL receivers and
  /// collides like any other energy on the channel).
  void begin_carrier(Radio& sender, util::Duration length);

  std::size_t delivered_count() const { return delivered_; }
  std::size_t collision_count() const { return collisions_; }
  std::size_t loss_count() const { return losses_; }

  /// Opt-in event tracing (nullptr disables): per-receiver delivery /
  /// collision / drop instants on the receiver's track. Recording never
  /// perturbs delivery decisions.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// True if any energy audible at `listener` is on the air right now (CCA).
  /// Audibility was fixed at each transmission's onset.
  bool channel_busy(NodeId listener) const;

  /// Radio::set_state reports listening-state edges here so the per-cell
  /// listening bitmask stays current. Idempotent per state; cheap enough to
  /// sit on the radio's state-transition path.
  void note_listening(NodeId id, bool listening);
  /// Radio::defer and friends report here whether the radio holds deferred
  /// changes, so an onset knows whose listening bit may be stale.
  void note_pending(NodeId id, bool pending);

  /// Replace the link's i.i.d. loss with a Gilbert-Elliott burst process
  /// (losses then arrive in bursts, the realistic fading behaviour).
  void set_burst_loss(NodeId a, NodeId b, GilbertElliott::Params params,
                      std::uint64_t seed = 1);
  void clear_burst_loss(NodeId a, NodeId b);

 private:
  /// Energy audible somewhere in one 64-id cell, recorded once per cell at
  /// the transmission's onset. `mask` fixes which members could hear it;
  /// CCA and the end-of-airtime collision check AND their own bit in.
  struct CellEnergy {
    NodeId sender;
    util::TimePoint start;
    util::TimePoint end;
    std::uint64_t mask;
  };

  /// A payload in flight: everything decided at onset (recipients, loss
  /// draws, the packet bytes) rides here until the airtime ends. Pooled —
  /// `packet.payload` and the vectors keep their capacity across reuse.
  struct Delivery {
    Packet packet;
    NodeId sender = 0;
    util::TimePoint start;
    util::TimePoint end;
    bool cancelled = false;
    bool in_flight = false;
    std::vector<NodeId> recipients;      // listening + addressed at onset
    std::vector<std::uint8_t> dropped;   // parallel: onset loss draw said drop
  };

  void begin_energy(Radio& sender, const Packet* packet, util::Duration airtime);
  /// Run the delivery decision for a transmission whose airtime just ended,
  /// then return it to the pool.
  void finish(Delivery* d);
  /// True if any *other* transmission audible at `listener` overlaps
  /// [start, end).
  bool interfered(NodeId listener, NodeId sender, util::TimePoint start,
                  util::TimePoint end) const;
  /// Record energy covering `mask` of `cell` for [start, end), pruning that
  /// cell's expired entries in passing. Each cell's records stay in
  /// non-decreasing `start` order (appended at onset, erased in place).
  void note_energy(NodeId cell, NodeId sender, util::TimePoint start,
                   util::TimePoint end, std::uint64_t mask);
  Radio* radio_at(NodeId id) const {
    return static_cast<std::size_t>(id) < radios_.size() ? radios_[id] : nullptr;
  }
  /// Grow the flat per-node and per-cell tables to cover `id`.
  void ensure_node_capacity(NodeId id);
  Delivery* acquire();
  void release(Delivery* d);

  bool link_drops(NodeId a, NodeId b);

  sim::Simulator& sim_;
  Topology& topology_;
  obs::TraceRecorder* trace_ = nullptr;
  // Dense tables: radios_ by raw NodeId; heard_/listening_ by cell (NodeId
  // >> 6). (evm_lint D1 note: vectors only — iteration is index-ordered, no
  // unordered containers here.)
  std::vector<Radio*> radios_;
  std::vector<std::vector<CellEnergy>> heard_;  // onset energy per cell
  std::vector<std::uint64_t> listening_;        // listening radios per cell
  std::vector<std::uint64_t> pending_;          // radios with deferred changes
  /// Longest airtime ever begun: no energy record spans more, which bounds
  /// how far back a newest-first scan of a cell must look.
  util::Duration max_air_ = util::Duration::zero();
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<GilbertElliott>> burst_;
  std::vector<std::unique_ptr<Delivery>> pool_;  // every Delivery ever made
  std::vector<Delivery*> free_;                  // the idle subset of pool_
  std::size_t delivered_ = 0;
  std::size_t collisions_ = 0;
  std::size_t losses_ = 0;
};

}  // namespace evm::net
