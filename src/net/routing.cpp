#include "net/routing.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace evm::net {

namespace {
/// Serial-number arithmetic on the 16-bit beacon seq (same convention as
/// EvmService::seq_advanced): `a` is newer than `b` iff it is ahead by less
/// than half the sequence space.
bool seq_newer(std::uint16_t a, std::uint16_t b) {
  const std::uint16_t delta = static_cast<std::uint16_t>(a - b);
  return delta != 0 && delta < 0x8000;
}

util::Json bcast_args(NodeId source, std::uint16_t seq, std::uint8_t type) {
  util::Json args = util::Json::object();
  args.set("src", static_cast<std::int64_t>(source));
  args.set("seq", static_cast<std::int64_t>(seq));
  args.set("type", static_cast<std::int64_t>(type));
  return args;
}

}  // namespace

Router::Router(Mac& mac, Topology& topology) : mac_(mac), topology_(topology) {
  mac_.set_receive_handler([this](const Packet& p) { on_packet(p); });
}

std::vector<std::uint8_t> Router::encode(const Datagram& d) {
  util::ByteWriter w;
  w.u16(d.source);
  w.u16(d.destination);
  w.u8(d.type);
  w.u8(d.ttl);
  w.u16(d.seq);
  w.u8(d.beacon_probe ? 1 : 0);
  w.u16(d.beacon.head);
  w.u16(d.beacon.seq);
  w.blob(d.payload);
  return w.take();
}

bool Router::decode(std::span<const std::uint8_t> bytes, Datagram& out) {
  util::ByteReader r(bytes);
  out.source = r.u16();
  out.destination = r.u16();
  out.type = r.u8();
  out.ttl = r.u8();
  out.seq = r.u16();
  out.beacon_probe = r.u8() != 0;
  out.beacon.head = r.u16();
  out.beacon.seq = r.u16();
  out.payload = r.blob();
  return r.ok();
}

util::Status Router::send(NodeId destination, std::uint8_t type,
                          std::vector<std::uint8_t> payload) {
  Datagram d;
  d.source = id();
  d.destination = destination;
  d.type = type;
  d.seq = ++next_seq_;
  d.payload = std::move(payload);
  if (destination == kBroadcast) {
    ++broadcasts_originated_;
    if (trace_ != nullptr && trace_sim_ != nullptr) {
      trace_->instant(id(), "net.route", "bcast.origin", trace_sim_->now(),
                      bcast_args(d.source, d.seq, type));
    }
  }
  return forward(std::move(d));
}

util::Status Router::send_beacon(std::uint8_t type,
                                 std::vector<std::uint8_t> payload) {
  Datagram d;
  d.source = id();
  d.destination = kBroadcast;
  d.type = type;
  d.seq = ++next_seq_;
  d.beacon_probe = true;
  d.payload = std::move(payload);
  ++broadcasts_originated_;
  if (trace_ != nullptr && trace_sim_ != nullptr) {
    trace_->instant(id(), "net.route", "beacon.origin", trace_sim_->now(),
                    bcast_args(d.source, d.seq, type));
  }
  return forward(std::move(d));
}

bool Router::SeenWindow::contains(std::uint16_t seq) const {
  if (count < kSize) {
    return std::find(seqs.begin(), seqs.begin() + count, seq) != seqs.begin() + count;
  }
  // Full (the steady state): a fixed-length scan with no early exit, which
  // the compiler turns into a few vector compares.
  int matches = 0;
  for (std::uint16_t s : seqs) matches += s == seq;
  return matches != 0;
}

void Router::SeenWindow::insert(std::uint16_t seq) {
  seqs[next] = seq;
  next = static_cast<std::uint8_t>((next + 1) % kSize);
  if (count < kSize) ++count;
}

bool Router::remember(NodeId source, std::uint16_t seq) {
  SeenWindow& window = seen_[source];
  if (window.contains(seq)) return false;
  window.insert(seq);
  return true;
}

bool Router::participates_in_dissemination() const {
  if (mode_ != BroadcastMode::kTree || tree_cache_ == nullptr) return true;
  return tree_cache_->tree().contains(id());
}

bool Router::should_relay_broadcast() const {
  switch (mode_) {
    case BroadcastMode::kSingleHop:
      return false;
    case BroadcastMode::kFlood:
      return true;
    case BroadcastMode::kTree:
      // Interior tree nodes relay; leaves and out-of-tree nodes stay quiet.
      // The tree itself is liveness-aware (recomputed from the topology's
      // link-estimator view), so a relay next to a corpse re-routes instead
      // of feeding it.
      return tree_cache_ != nullptr && tree_cache_->tree().forwards(id());
  }
  return false;
}

util::Status Router::forward(Datagram d) {
  // Piggy-back the freshest head-beacon tag this node knows. Fresher gossip
  // observed on the way in has already updated beacon_tag_ (the observer
  // fires before forwarding), so overwriting is always monotone.
  if (beacon_tag_.valid()) d.beacon = beacon_tag_;

  Packet packet;
  packet.type = kRoutedPacketType;
  packet.payload = encode(d);

  if (d.destination == kBroadcast) {
    packet.dst = kBroadcast;
    if (d.beacon.valid()) ++tagged_broadcast_sends_;
    return mac_.send(std::move(packet));
  }
  std::optional<NodeId> hop;
  if (mode_ == BroadcastMode::kTree && tree_cache_ != nullptr) {
    // Root-bound unicasts climb the dissemination tree: every parent is a
    // forwarder with a mirror-pass slot, so the datagram chains inward
    // within a single frame (see plan_schedule's mirror pass).
    const DisseminationTree& tree = tree_cache_->tree();
    if (d.destination == tree.root()) {
      const NodeId parent = tree.parent(id());
      if (parent != kInvalidNode) hop = parent;
    }
  }
  if (!hop.has_value()) hop = topology_.next_hop(id(), d.destination);
  if (!hop.has_value()) {
    return util::Status::unavailable("no route to node " +
                                     std::to_string(d.destination));
  }
  packet.dst = *hop;
  if (trace_ != nullptr && trace_sim_ != nullptr) {
    util::Json args = bcast_args(d.source, d.seq, d.type);
    args.set("dst", static_cast<std::int64_t>(d.destination));
    args.set("hop", static_cast<std::int64_t>(*hop));
    args.set("ttl", static_cast<std::int64_t>(d.ttl));
    trace_->instant(id(), "net.route", "ucast.hop", trace_sim_->now(),
                    std::move(args));
  }
  return mac_.send(std::move(packet));
}

void Router::on_packet(const Packet& packet) {
  if (packet.type != kRoutedPacketType) return;
  Datagram d;
  if (!decode(packet.payload, d)) {
    EVM_WARN("router", "undecodable datagram from " << packet.src);
    return;
  }
  // Beacon gossip is observed on every frame — before dedup, because the
  // copy that lost the dedup race may be the one that crossed the head.
  if (d.beacon.valid() && beacon_observer_) beacon_observer_(d.beacon);
  if (d.destination == kBroadcast) {
    if (d.source == id()) return;  // flooded copy of our own broadcast
    if (!remember(d.source, d.seq)) return;  // duplicate over another path
    if (receive_handler_) receive_handler_(d);
    if (d.ttl > 0 && should_relay_broadcast()) {
      if (d.beacon_probe &&
          tagged_broadcast_sends_ != tagged_sends_at_last_probe_ &&
          beacon_tag_.valid() && beacon_tag_.head == d.beacon.head &&
          !seq_newer(d.beacon.seq, beacon_tag_.seq)) {
        // Per-link lazy beacon: this relay's own tagged data frames were
        // not silent since the previous probe, so every neighbour already
        // holds the tag (tags are observed pre-dedup) — re-broadcasting
        // the probe would spend a slot to say nothing new. Only sound when
        // the gossip this relay has been stamping is at least as fresh as
        // the probe itself: a relay whose tag is stale, cleared, or names
        // a different head has NOT delivered this proof, and suppressing
        // here would starve its whole subtree of the beacon plane.
        ++beacon_relays_suppressed_;
        tagged_sends_at_last_probe_ = tagged_broadcast_sends_;
        return;
      }
      Datagram next = d;
      next.ttl = static_cast<std::uint8_t>(d.ttl - 1);
      ++forwarded_;
      ++broadcast_relays_;
      if (trace_ != nullptr && trace_sim_ != nullptr) {
        trace_->instant(id(), "net.route", "bcast.relay", trace_sim_->now(),
                        bcast_args(d.source, d.seq, d.type));
      }
      (void)forward(std::move(next));
      if (d.beacon_probe) {
        tagged_sends_at_last_probe_ = tagged_broadcast_sends_;
      }
    }
    return;
  }
  if (d.destination == id()) {
    if (receive_handler_) receive_handler_(d);
    return;
  }
  if (d.ttl == 0) return;
  Datagram next = d;
  next.ttl = static_cast<std::uint8_t>(d.ttl - 1);
  ++forwarded_;
  if (util::Status st = forward(std::move(next)); !st) {
    // A dropped relay strands a unicast mid-path with no feedback to the
    // source; losing one silently makes many-hop worlds undebuggable.
    EVM_WARN("router", "node " << id() << " dropped relay for " << d.source
                               << "->" << d.destination << ": " << st.message());
  }
}

}  // namespace evm::net
