// Property tests on the shared-medium model: conservation of packet fates,
// energy accounting, and agreement with a full-scan reference of the
// collision rule, under randomized traffic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "net/medium.hpp"
#include "net/radio.hpp"
#include "util/rng.hpp"

namespace evm::net {
namespace {

class MediumProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MediumProperties, EveryInRangeListenerGetsExactlyOneFate) {
  // N radios, all always listening, random unicast/broadcast transmissions
  // at random times over lossy links. For unicast to a listening neighbor,
  // fates partition: delivered + collided + lost == addressed receptions.
  sim::Simulator sim(GetParam());
  std::vector<NodeId> ids = {1, 2, 3, 4, 5};
  Topology topo = Topology::full_mesh(ids, 0.2);
  Medium medium(sim, topo);
  std::map<NodeId, std::unique_ptr<Radio>> radios;
  std::size_t handler_deliveries = 0;
  for (NodeId id : ids) {
    radios[id] = std::make_unique<Radio>(sim, medium, id);
    radios[id]->set_state(RadioState::kIdleListen);
    radios[id]->set_receive_handler(
        [&handler_deliveries](const Packet&) { ++handler_deliveries; });
  }

  util::Rng rng(GetParam() * 17);
  std::size_t addressed_receptions = 0;
  for (int i = 0; i < 300; ++i) {
    const NodeId src = ids[rng.next_below(ids.size())];
    NodeId dst = ids[rng.next_below(ids.size())];
    const bool broadcast = rng.bernoulli(0.3);
    if (dst == src) dst = ids[(src % ids.size())];  // avoid self
    if (dst == src) continue;
    const auto when = util::Duration::micros(rng.uniform_int(0, 2'000'000));
    sim.schedule_at(util::TimePoint::zero() + when, [&, src, dst, broadcast] {
      Packet p;
      p.src = src;
      p.dst = broadcast ? kBroadcast : dst;
      p.payload.assign(20, 0);
      if (radios[src]->transmit(p)) {
        // A transmitting radio cannot simultaneously receive; count the
        // other listening, addressed parties.
        if (broadcast) {
          addressed_receptions += ids.size() - 1;
        } else if (dst != src) {
          addressed_receptions += 1;
        }
      }
    });
  }
  sim.run_all();

  // Fate partition: some addressed receptions were aborted because the
  // target itself was transmitting at delivery time; those are neither
  // delivered, collided nor lost. Hence <=, plus exact handler agreement.
  EXPECT_EQ(medium.delivered_count(), handler_deliveries);
  EXPECT_LE(medium.delivered_count() + medium.collision_count() +
                medium.loss_count(),
            addressed_receptions);
  EXPECT_GT(medium.delivered_count(), 0u);
  EXPECT_GT(medium.loss_count(), 0u);  // 20 % links must bite at some point
}

TEST_P(MediumProperties, EnergyNeverDecreasesAndSumsStates) {
  sim::Simulator sim(GetParam() + 5);
  Topology topo = Topology::full_mesh({1, 2});
  Medium medium(sim, topo);
  Radio radio(sim, medium, 1);
  util::Rng rng(GetParam());

  double last_mah = 0.0;
  const RadioState states[] = {RadioState::kOff, RadioState::kIdleListen,
                               RadioState::kRx, RadioState::kTx};
  for (int i = 0; i < 100; ++i) {
    radio.set_state(states[rng.next_below(4)]);
    sim.run_until(sim.now() + util::Duration::millis(rng.uniform_int(1, 50)));
    const double now_mah = radio.consumed_mah();
    EXPECT_GE(now_mah, last_mah - 1e-12);
    last_mah = now_mah;
  }
  // Total state residency must equal elapsed time.
  const double total_state_s = radio.time_in(RadioState::kOff).to_seconds() +
                               radio.time_in(RadioState::kIdleListen).to_seconds() +
                               radio.time_in(RadioState::kRx).to_seconds() +
                               radio.time_in(RadioState::kTx).to_seconds();
  // The final open interval isn't folded into time_in yet; allow one step.
  EXPECT_NEAR(total_state_s, sim.now().to_seconds(), 0.051);
}

/// The medium's collision rule with nothing bounded: every energy record of
/// the listener's 64-id cell is consulted, and each append to a cell first
/// erases all of its records that ended more than a second before the new
/// onset. Detaching a node strips it from every record's audible set and
/// drops its own records (and any record nobody can hear any more). A
/// second, never-pruned history counts the verdicts the prune decided.
class FullScanModel {
 public:
  void onset(NodeId sender, util::TimePoint start, util::TimePoint end,
             const std::vector<NodeId>& audible) {
    std::map<NodeId, std::set<NodeId>> by_cell;
    for (NodeId id : audible) by_cell[id >> 6].insert(id);
    const util::TimePoint horizon = start - util::Duration::seconds(1);
    for (auto& [cell, members] : by_cell) {
      std::vector<Record>& records = pruned_[cell];
      std::erase_if(records, [horizon](const Record& r) { return r.end < horizon; });
      records.push_back(Record{sender, start, end, members});
      unpruned_[cell].push_back(Record{sender, start, end, members});
    }
  }
  void detach(NodeId id) {
    for (Cells* cells : {&pruned_, &unpruned_}) {
      for (auto& [cell, records] : *cells) {
        for (Record& r : records) r.audible.erase(id);
        std::erase_if(records, [id](const Record& r) {
          return r.sender == id || r.audible.empty();
        });
      }
    }
  }
  bool interfered(NodeId listener, NodeId sender, util::TimePoint start,
                  util::TimePoint end) {
    const bool hit = overlaps(pruned_, listener, sender, start, end);
    if (!hit && overlaps(unpruned_, listener, sender, start, end)) ++prune_decided_;
    return hit;
  }
  /// Receptions that were spared a collision only because the interfering
  /// record had been pruned while the packet was still on the air.
  std::size_t prune_decided() const { return prune_decided_; }

 private:
  struct Record {
    NodeId sender;
    util::TimePoint start;
    util::TimePoint end;
    std::set<NodeId> audible;
  };
  using Cells = std::map<NodeId, std::vector<Record>>;

  static bool overlaps(const Cells& cells, NodeId listener, NodeId sender,
                       util::TimePoint start, util::TimePoint end) {
    auto it = cells.find(listener >> 6);
    if (it == cells.end()) return false;
    for (const Record& r : it->second) {
      if (r.audible.count(listener) != 0 && r.sender != sender && r.end > start &&
          r.start < end) {
        return true;
      }
    }
    return false;
  }

  Cells pruned_;
  Cells unpruned_;
  std::size_t prune_decided_ = 0;
};

TEST_P(MediumProperties, FatesMatchFullScanReference) {
  sim::Simulator sim(GetParam());
  Topology topo;
  Medium medium(sim, topo);
  util::Rng rng(GetParam() * 31);

  // Senders and listeners straddle three 64-id cells. Links join senders to
  // listeners only, so a sender never receives and a listener never sends,
  // and every link loses all or nothing, so each fate is deterministic.
  // Sender 129 is slow and heard by every listener: its packets stay on the
  // air for 2.5 to 5 seconds, so the one-second prune horizon passes them
  // mid-flight, while each fast sender is heard by a fifth of the listeners.
  const std::vector<NodeId> senders = {3, 10, 60, 65, 70, 100, 129, 140};
  const std::vector<NodeId> listeners = {1, 2, 5, 61, 63, 64, 66, 90, 101, 127, 128, 150};
  const NodeId slow = 129;
  std::map<NodeId, std::unique_ptr<Radio>> radios;
  for (NodeId id : senders) {
    RadioParams params;
    if (id == slow) params.bits_per_second = 1'000.0;
    radios[id] = std::make_unique<Radio>(sim, medium, id, params);
  }
  for (NodeId id : listeners) radios[id] = std::make_unique<Radio>(sim, medium, id);
  std::map<NodeId, std::map<NodeId, bool>> drops;  // sender -> listener -> lossy
  for (NodeId s : senders) {
    for (NodeId l : listeners) {
      if (s != slow && !rng.bernoulli(0.2)) continue;
      const bool lossy = rng.bernoulli(0.2);
      topo.set_link(s, l, LinkState{true, lossy ? 1.0 : 0.0});
      drops[s][l] = lossy;
    }
  }
  std::map<NodeId, std::size_t> received;
  for (auto& [id, radio] : radios) {
    radio->set_state(RadioState::kIdleListen);
    radio->set_receive_handler([&received, id = id](const Packet&) { ++received[id]; });
  }

  FullScanModel model;
  std::set<NodeId> detached;
  std::size_t delivered = 0, lost = 0, collided = 0, aborted = 0;
  std::map<NodeId, std::size_t> expected_received;
  auto detach = [&](NodeId id) {
    medium.detach(id);
    model.detach(id);
    detached.insert(id);
  };
  int detaches_left = 2;
  auto audible_from = [&](NodeId s) {
    std::vector<NodeId> audible;
    for (const auto& [l, lossy] : drops[s]) {
      if (detached.count(l) == 0) audible.push_back(l);
    }
    return audible;
  };

  for (int i = 0; i < 300; ++i) {
    const NodeId s = senders[rng.next_below(senders.size())];
    const util::TimePoint at =
        util::TimePoint::zero() + util::Duration::micros(rng.uniform_int(0, 120'000'000));
    const auto kind = rng.next_below(100);  // 0: long carrier, 1-4: short carrier
    const util::Duration burst =
        kind == 0 ? util::Duration::millis(rng.uniform_int(1'100, 2'500))
                  : util::Duration::micros(rng.uniform_int(200, 3'000));
    const NodeId dst =
        rng.bernoulli(0.5) ? kBroadcast : listeners[rng.next_below(listeners.size())];
    const std::size_t payload = s == slow ? 300 + rng.next_below(300) : rng.next_below(60);
    sim.schedule_at(at, [&, s, kind, burst, dst, payload] {
      if (detached.count(s) != 0) return;
      Radio& radio = *radios[s];
      const util::TimePoint start = sim.now();
      const std::vector<NodeId> audible = audible_from(s);
      if (kind <= 4) {
        if (radio.transmit_carrier(burst)) model.onset(s, start, start + burst, audible);
        return;
      }
      Packet p;
      p.src = s;
      p.dst = dst;
      p.payload.assign(payload, 0);
      const util::TimePoint end =
          start + airtime(p.on_air_bytes(), radio.params().bits_per_second);
      std::vector<std::pair<NodeId, bool>> recipients;  // fixed at onset
      for (NodeId l : audible) {
        if (dst == kBroadcast || dst == l) recipients.emplace_back(l, drops[s][l]);
      }
      // on_done runs at end of airtime, right after the medium's decision.
      const bool sent = radio.transmit(p, [&, s, start, end, recipients] {
        if (detached.count(s) != 0) {  // aborted mid-air
          ++aborted;
          return;
        }
        for (const auto& [l, lossy] : recipients) {
          if (detached.count(l) != 0) continue;
          if (model.interfered(l, s, start, end)) {
            ++collided;
          } else if (lossy) {
            ++lost;
          } else {
            ++delivered;
            ++expected_received[l];
          }
        }
      });
      if (!sent) return;
      model.onset(s, start, end, audible);
      // At 40 s and at 80 s, detach a fast sender halfway through its packet.
      const auto detach_due =
          util::TimePoint::zero() + util::Duration::seconds(120 - 40 * detaches_left);
      if (s != slow && detaches_left > 0 && start >= detach_due) {
        --detaches_left;
        sim.schedule_at(start + (end - start) / 2, [&detach, s] { detach(s); });
      }
    });
  }
  sim.schedule_at(util::TimePoint::zero() + util::Duration::seconds(50),
                  [&] { detach(listeners[GetParam() % listeners.size()]); });
  sim.run_all();

  EXPECT_EQ(medium.collision_count(), collided);
  EXPECT_EQ(medium.loss_count(), lost);
  EXPECT_EQ(medium.delivered_count(), delivered);
  EXPECT_EQ(received, expected_received);
  // The run must exercise every fate, both mid-flight detaches, and verdicts
  // the prune horizon decided, for the comparison to mean anything.
  EXPECT_GT(collided, 0u);
  EXPECT_GT(lost, 0u);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(aborted, 2u);
  EXPECT_GT(model.prune_decided(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumProperties,
                         ::testing::Values(41, 42, 43, 44));

}  // namespace
}  // namespace evm::net
