#include "net/medium.hpp"

#include <algorithm>
#include <bit>

#include "net/radio.hpp"
#include "util/log.hpp"

namespace evm::net {

namespace {

util::Json rx_args(NodeId src, std::uint8_t type) {
  util::Json args = util::Json::object();
  args.set("src", static_cast<std::int64_t>(src));
  args.set("type", static_cast<std::int64_t>(type));
  return args;
}

/// Set or clear `id`'s bit in a per-cell bitmask.
void set_bit(std::vector<std::uint64_t>& cells, NodeId id, bool on) {
  const std::size_t cell = static_cast<std::size_t>(id) >> 6;
  if (cell >= cells.size()) return;  // never attached: nothing to track
  const std::uint64_t bit = std::uint64_t{1} << (id & 63);
  if (on) {
    cells[cell] |= bit;
  } else {
    cells[cell] &= ~bit;
  }
}

}  // namespace

Medium::Medium(sim::Simulator& sim, Topology& topology)
    : sim_(sim), topology_(topology) {}

void Medium::ensure_node_capacity(NodeId id) {
  const std::size_t width = static_cast<std::size_t>(id) + 1;
  if (radios_.size() < width) radios_.resize(width, nullptr);
  const std::size_t cells = (static_cast<std::size_t>(id) >> 6) + 1;
  if (heard_.size() < cells) heard_.resize(cells);
  if (listening_.size() < cells) listening_.resize(cells, 0);
  if (pending_.size() < cells) pending_.resize(cells, 0);
}

void Medium::attach(Radio& radio) {
  ensure_node_capacity(radio.id());
  radios_[radio.id()] = &radio;
  topology_.add_node(radio.id());
  note_listening(radio.id(), radio.listening());
}

void Medium::detach(NodeId id) {
  if (static_cast<std::size_t>(id) < radios_.size()) radios_[id] = nullptr;
  topology_.remove_node(id);
  note_listening(id, false);
  note_pending(id, false);
  // Forget its energy everywhere: it no longer jams or busies anyone, and
  // nothing already on the air reaches it. Clearing its audibility bit in
  // its own cell severs the latter; erasing it as a sender severs the
  // former (empty-mask husks are dropped in passing).
  const std::size_t cell = static_cast<std::size_t>(id) >> 6;
  if (cell < heard_.size()) {
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    for (CellEnergy& e : heard_[cell]) e.mask &= ~bit;
  }
  for (auto& at_cell : heard_) {
    std::erase_if(at_cell, [id](const CellEnergy& e) {
      return e.sender == id || e.mask == 0;
    });
  }
  // And abort its in-flight payloads: the pending end-of-airtime events
  // still fire (cancelling a calendar entry is dearer than letting it
  // no-op) but deliver nothing.
  for (const auto& d : pool_) {
    if (d->in_flight && d->sender == id) d->cancelled = true;
  }
}

void Medium::note_listening(NodeId id, bool listening) {
  set_bit(listening_, id, listening);
}

void Medium::note_pending(NodeId id, bool pending) {
  set_bit(pending_, id, pending);
}

void Medium::begin_transmission(Radio& sender, const Packet& packet,
                                util::Duration air) {
  begin_energy(sender, &packet, air);
}

void Medium::begin_carrier(Radio& sender, util::Duration length) {
  begin_energy(sender, nullptr, length);
}

void Medium::begin_energy(Radio& sender, const Packet* packet,
                          util::Duration air) {
  const util::TimePoint start = sim_.now();
  const util::TimePoint end = start + air;
  const NodeId sender_id = sender.id();
  max_air_ = std::max(max_air_, air);

  // Audibility is fixed here, at carrier onset: whoever is in range *now*
  // hears this energy for its whole airtime. One energy record per audible
  // cell (CCA and the collision check scan only their own cell), then wake
  // LPL listeners — energy is detectable from the first preamble byte, so
  // only radios listening *now* get the carrier edge, in ascending-id
  // (= adjacency) order exactly as the per-neighbor engine delivered it.
  const auto& cells = topology_.audible_cells_view(sender_id);
  for (const Topology::CellMask& c : cells) {
    ensure_node_capacity(static_cast<NodeId>((c.cell << 6) | 63));
    note_energy(c.cell, sender_id, start, end, c.mask);
    // Bring lagging listening bits up to date first (deferred changes).
    std::uint64_t stale = c.mask & pending_[c.cell];
    while (stale != 0) {
      const int bit = std::countr_zero(stale);
      stale &= stale - 1;
      Radio* rx = radio_at(static_cast<NodeId>((c.cell << 6) | bit));
      if (rx != nullptr) rx->resolve();
    }
    std::uint64_t wake = c.mask & listening_[c.cell];
    while (wake != 0) {
      const int bit = std::countr_zero(wake);
      wake &= wake - 1;
      Radio* rx = radio_at(static_cast<NodeId>((c.cell << 6) | bit));
      if (rx != nullptr) rx->notify_carrier();
    }
  }

  if (packet == nullptr) return;  // pure carrier burst: nothing to deliver

  // Snapshot the delivery decision's inputs at onset: a receiver must be
  // listening when the preamble airs (waking later misses the packet), and
  // a link that flips up mid-flight cannot conjure a reception. Loss is the
  // channel's fate for this airtime, drawn now in adjacency (deterministic)
  // order — the carrier edge above may have woken LPL receivers into
  // listening, and like the per-neighbor engine this pass sees them awake.
  // Only collisions — and a sender aborting mid-air — are resolved at end
  // of airtime.
  Delivery* d = acquire();
  d->packet = *packet;  // reuses the pooled payload buffer
  d->sender = sender_id;
  d->start = start;
  d->end = end;
  d->cancelled = false;
  d->in_flight = true;
  d->recipients.clear();
  d->dropped.clear();
  for (const Topology::CellMask& c : cells) {
    std::uint64_t awake = c.mask & listening_[c.cell];
    while (awake != 0) {
      const int bit = std::countr_zero(awake);
      awake &= awake - 1;
      const NodeId neighbor = static_cast<NodeId>((c.cell << 6) | bit);
      if (d->packet.dst != kBroadcast && d->packet.dst != neighbor) {
        // Address filtering happens in hardware; the radio still spent the
        // time in RX, which the listening state already accounts for.
        continue;
      }
      d->recipients.push_back(neighbor);
      d->dropped.push_back(link_drops(sender_id, neighbor) ? 1 : 0);
    }
  }
  if (d->packet.dst != kBroadcast && d->recipients.empty()) {
    const NodeId dst = d->packet.dst;
    const std::size_t dcell = static_cast<std::size_t>(dst) >> 6;
    bool audible = false;
    for (const Topology::CellMask& c : cells) {
      if (c.cell == static_cast<NodeId>(dcell) &&
          (c.mask & (std::uint64_t{1} << (dst & 63))) != 0) {
        audible = true;
      }
    }
    const bool lbit = dcell < listening_.size() &&
                      (listening_[dcell] & (std::uint64_t{1} << (dst & 63))) != 0;
    Radio* rx = radio_at(dst);
    EVM_DEBUG("medium", "unicast " << sender_id << "->" << dst
             << " has no recipient at onset t=" << start.ns()
             << " audible=" << audible << " listen_bit=" << lbit
             << " radio_state=" << (rx ? to_string(rx->state()) : "none"));
  }
  sim_.schedule_at(end, [this, d] { finish(d); });
}

void Medium::finish(Delivery* d) {
  d->in_flight = false;
  // A detached (cancelled) or crash-stopped sender cut the transmission
  // short: the tail never aired, nobody decodes it.
  if (!d->cancelled && !topology_.node_down(d->sender)) {
    for (std::size_t i = 0; i < d->recipients.size(); ++i) {
      const NodeId neighbor = d->recipients[i];
      Radio* rx = radio_at(neighbor);
      // Detached, crashed or slept mid-packet: the tail went unheard.
      if (rx == nullptr || !rx->listening()) {
        if (d->packet.dst != kBroadcast) {
          EVM_DEBUG("medium", "unicast " << d->sender << "->" << neighbor
                   << " missed: receiver stopped listening by end t="
                   << d->end.ns() << " state="
                   << (rx ? to_string(rx->state()) : "none"));
        }
        continue;
      }
      if (interfered(neighbor, d->sender, d->start, d->end)) {
        ++collisions_;
        if (trace_ != nullptr) {
          trace_->instant(neighbor, "net.medium", "rx.collision", d->end,
                          rx_args(d->sender, d->packet.type));
        }
        continue;
      }
      if (d->dropped[i] != 0) {
        ++losses_;
        if (trace_ != nullptr) {
          trace_->instant(neighbor, "net.medium", "rx.drop", d->end,
                          rx_args(d->sender, d->packet.type));
        }
        continue;
      }
      ++delivered_;
      if (trace_ != nullptr) {
        trace_->instant(neighbor, "net.medium", "rx", d->end,
                        rx_args(d->sender, d->packet.type));
      }
      rx->deliver(d->packet);
    }
  }
  release(d);
}

bool Medium::interfered(NodeId listener, NodeId sender, util::TimePoint start,
                        util::TimePoint end) const {
  const std::size_t cell = static_cast<std::size_t>(listener) >> 6;
  if (cell >= heard_.size()) return false;
  const std::uint64_t bit = std::uint64_t{1} << (listener & 63);
  const std::vector<CellEnergy>& at_cell = heard_[cell];
  // Newest first. Starts never decrease along the list and no record spans
  // more than max_air_, so once a record's start is max_air_ or more before
  // `start`, it and everything older ended by `start`.
  for (auto it = at_cell.rbegin(); it != at_cell.rend(); ++it) {
    const CellEnergy& e = *it;
    if (e.start + max_air_ <= start) break;
    if ((e.mask & bit) == 0) continue;  // not audible at this listener
    if (e.sender == sender) continue;
    if (e.end <= start || e.start >= end) continue;  // no overlap
    return true;
  }
  return false;
}

void Medium::note_energy(NodeId cell, NodeId sender, util::TimePoint start,
                         util::TimePoint end, std::uint64_t mask) {
  std::vector<CellEnergy>& at_cell = heard_[cell];
  // Lazy prune on append: a grace window keeps entries that queued
  // end-of-airtime decisions may still consult. A record that ended before
  // `horizon` also started before it, and starts never decrease along the
  // list, so every such record lies in the prefix that started before
  // `horizon` (a record or two in steady state); the rest is left alone.
  const util::TimePoint horizon = start - util::Duration::seconds(1);
  const auto prefix_end =
      std::find_if(at_cell.begin(), at_cell.end(),
                   [horizon](const CellEnergy& e) { return e.start >= horizon; });
  at_cell.erase(std::remove_if(at_cell.begin(), prefix_end,
                               [horizon](const CellEnergy& e) { return e.end < horizon; }),
                prefix_end);
  at_cell.push_back(CellEnergy{sender, start, end, mask});
}

bool Medium::channel_busy(NodeId listener) const {
  const std::size_t cell = static_cast<std::size_t>(listener) >> 6;
  if (cell >= heard_.size()) return false;
  const std::uint64_t bit = std::uint64_t{1} << (listener & 63);
  const util::TimePoint now = sim_.now();
  for (const CellEnergy& e : heard_[cell]) {
    if ((e.mask & bit) == 0) continue;
    if (e.start <= now && now < e.end) return true;
  }
  return false;
}

void Medium::set_burst_loss(NodeId a, NodeId b, GilbertElliott::Params params,
                            std::uint64_t seed) {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  burst_[key] = std::make_unique<GilbertElliott>(params, seed);
}

void Medium::clear_burst_loss(NodeId a, NodeId b) {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  burst_.erase(key);
}

bool Medium::link_drops(NodeId a, NodeId b) {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  auto it = burst_.find(key);
  if (it != burst_.end()) return it->second->drop_next();
  return sim_.rng().bernoulli(topology_.loss(a, b));
}

Medium::Delivery* Medium::acquire() {
  if (free_.empty()) {
    pool_.push_back(std::make_unique<Delivery>());
    free_.push_back(pool_.back().get());
  }
  Delivery* d = free_.back();
  free_.pop_back();
  return d;
}

void Medium::release(Delivery* d) { free_.push_back(d); }

}  // namespace evm::net
