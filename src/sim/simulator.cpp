#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "util/log.hpp"

namespace evm::sim {

namespace {
constexpr std::uint64_t kNoSlot = ~0ull;
constexpr std::size_t kPoolChunk = 256;
}  // namespace

Simulator::Simulator(std::uint64_t seed)
    : now_(TimePoint::zero()),
      rng_(seed),
      ring_(kRingSlots),
      ring_bits_(kRingSlots / 64, 0) {}

// Pending nodes still sit in the ring/heap/overflow, but every node lives in
// a pool chunk whose array destructor runs ~EventNode -> ~EventFn, so
// un-dispatched callables are destroyed without walking the calendar.
Simulator::~Simulator() = default;

EventNode* Simulator::acquire_node() {
  if (free_nodes_.empty()) {
    pool_.push_back(std::make_unique<EventNode[]>(kPoolChunk));
    EventNode* chunk = pool_.back().get();
    free_nodes_.reserve(free_nodes_.size() + kPoolChunk);
    // Reverse order so the free list hands out ascending addresses first —
    // purely cosmetic, but it keeps early traffic cache-adjacent.
    for (std::size_t i = kPoolChunk; i > 0; --i) {
      free_nodes_.push_back(&chunk[i - 1]);
    }
  }
  EventNode* node = free_nodes_.back();
  free_nodes_.pop_back();
  return node;
}

void Simulator::release_node(EventNode* node) {
  node->fn.reset();
  node->id = 0;
  node->next = nullptr;
  free_nodes_.push_back(node);
}

EventHandle Simulator::enqueue(EventNode* node, TimePoint when,
                               std::uint64_t seq) {
  assert(when >= now_ && "cannot schedule events in the past");
  node->when = when;
  node->seq = seq;
  node->id = next_id_++;
  node->slot = static_cast<std::uint64_t>(when.ns()) >> kSlotShiftBits;
  node->cancelled = false;
  node->next = nullptr;

  if (node->slot <= cur_slot_) {
    // Current slot — or an earlier one: peek() may have advanced cur_slot_
    // past quiet time (run_until moved now_ without consuming a slot), and
    // when >= now_ still allows slots the window already crossed. The
    // current heap orders by (when, seq) regardless of slot, so both cases
    // dispatch correctly.
    push_current(node);
  } else if (node->slot < cur_slot_ + kRingSlots) {
    Bucket& b = ring_[node->slot % kRingSlots];
    if (b.tail == nullptr) {
      b.head = b.tail = node;
      ring_bits_[(node->slot % kRingSlots) >> 6] |=
          std::uint64_t{1} << (node->slot % kRingSlots & 63);
    } else {
      b.tail->next = node;
      b.tail = node;
    }
    ++ring_count_;
  } else {
    overflow_.push_back(node);
    if (node->slot < overflow_min_slot_) overflow_min_slot_ = node->slot;
  }

  ++live_count_;
  if (live_count_ > max_queue_depth_) max_queue_depth_ = live_count_;
  return EventHandle(node, node->id);
}

void Simulator::push_current(EventNode* node) {
  current_.push_back(node);
  std::push_heap(current_.begin(), current_.end(), NodeAfter{});
}

void Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  EventNode* node = handle.node_;
  if (node == nullptr || node->id != handle.id_) return;  // fired or stale
  node->cancelled = true;
  node->id = 0;  // a second cancel of the same handle is now a no-op
  --live_count_;
}

EventNode* Simulator::peek() {
  for (;;) {
    while (!current_.empty()) {
      EventNode* top = current_.front();
      if (!top->cancelled) return top;
      std::pop_heap(current_.begin(), current_.end(), NodeAfter{});
      current_.pop_back();
      release_node(top);
    }
    if (ring_count_ == 0 && overflow_.empty()) return nullptr;
    advance();
  }
}

void Simulator::advance() {
  const std::uint64_t next = ring_count_ > 0 ? next_ring_slot() : kNoSlot;
  if (!overflow_.empty() && overflow_min_slot_ <= next) {
    // The overflow bucket owns the earliest pending slot: jump the window
    // there and pull every now-in-window event into the ring. The <= guard
    // is what makes the jump safe — the window never crosses a ring slot
    // that still holds events.
    cur_slot_ = overflow_min_slot_;
    migrate_overflow();
  } else {
    cur_slot_ = next;
  }
  take_bucket(cur_slot_);
}

void Simulator::take_bucket(std::uint64_t slot) {
  const std::uint64_t idx = slot % kRingSlots;
  Bucket& b = ring_[idx];
  EventNode* node = b.head;
  b.head = b.tail = nullptr;
  ring_bits_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  while (node != nullptr) {
    EventNode* next = node->next;
    --ring_count_;
    if (node->cancelled) {
      release_node(node);
    } else {
      node->next = nullptr;
      push_current(node);
    }
    node = next;
  }
}

void Simulator::migrate_overflow() {
  std::uint64_t new_min = kNoSlot;
  std::size_t keep = 0;
  for (EventNode* node : overflow_) {
    if (node->cancelled) {
      release_node(node);
      continue;
    }
    if (node->slot < cur_slot_ + kRingSlots) {
      // Into its ring bucket (slot == cur_slot_ included: advance() takes
      // that bucket immediately after).
      const std::uint64_t idx = node->slot % kRingSlots;
      Bucket& b = ring_[idx];
      node->next = nullptr;
      if (b.tail == nullptr) {
        b.head = b.tail = node;
        ring_bits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      } else {
        b.tail->next = node;
        b.tail = node;
      }
      ++ring_count_;
    } else {
      overflow_[keep++] = node;
      if (node->slot < new_min) new_min = node->slot;
    }
  }
  overflow_.resize(keep);
  overflow_min_slot_ = new_min;
}

std::uint64_t Simulator::find_ring_bit(std::uint64_t lo, std::uint64_t hi) const {
  // First set occupancy bit with bucket index in [lo, hi), or kNoSlot.
  for (std::uint64_t word_idx = lo >> 6; word_idx <= (hi - 1) >> 6; ++word_idx) {
    std::uint64_t word = ring_bits_[word_idx];
    if (word_idx == lo >> 6) word &= ~std::uint64_t{0} << (lo & 63);
    if (word_idx == (hi - 1) >> 6 && (hi & 63) != 0) {
      word &= (std::uint64_t{1} << (hi & 63)) - 1;
    }
    if (word != 0) {
      return (word_idx << 6) +
             static_cast<std::uint64_t>(std::countr_zero(word));
    }
  }
  return kNoSlot;
}

std::uint64_t Simulator::next_ring_slot() const {
  // Occupied ring slots all lie in (cur_slot_, cur_slot_ + kRingSlots); in
  // bucket-index space that window starts at base and wraps. Scanning
  // [base, N) then [0, base) visits candidate slots in ascending order.
  const std::uint64_t base = (cur_slot_ + 1) % kRingSlots;
  std::uint64_t idx = find_ring_bit(base, kRingSlots);
  if (idx == kNoSlot && base != 0) idx = find_ring_bit(0, base);
  assert(idx != kNoSlot && "ring_count_ > 0 but no occupancy bit set");
  // Map the bucket index back to its absolute slot inside the window.
  const std::uint64_t first = cur_slot_ + 1;
  return first + (idx + kRingSlots - first % kRingSlots) % kRingSlots;
}

void Simulator::dispatch(EventNode* node) {
  std::pop_heap(current_.begin(), current_.end(), NodeAfter{});
  current_.pop_back();
  node->id = 0;  // cancel-of-already-dispatched is a no-op from here on
  --live_count_;
  now_ = node->when;
  frontier_when_ = node->when;
  frontier_seq_ = node->seq;
  ++dispatched_;
  node->fn();  // may schedule or cancel freely; this node is detached
  release_node(node);
}

std::size_t Simulator::run_until(TimePoint until) {
  std::size_t count = 0;
  for (;;) {
    EventNode* node = peek();
    if (node == nullptr || node->when > until) break;
    dispatch(node);
    ++count;
  }
  if (now_ <= until) {
    now_ = until;
    frontier_when_ = until;
    frontier_seq_ = ~0ull;
  }
  return count;
}

std::size_t Simulator::run_all() {
  std::size_t count = 0;
  for (EventNode* node = peek(); node != nullptr; node = peek()) {
    dispatch(node);
    ++count;
  }
  frontier_when_ = now_;
  frontier_seq_ = ~0ull;
  return count;
}

bool Simulator::step() {
  EventNode* node = peek();
  if (node == nullptr) return false;
  dispatch(node);
  return true;
}

ScopedLogClock::ScopedLogClock(const Simulator& sim) {
  util::Logger::instance().set_time_source([&sim] { return sim.now(); });
}

ScopedLogClock::~ScopedLogClock() {
  util::Logger::instance().set_time_source(nullptr);
}

}  // namespace evm::sim
