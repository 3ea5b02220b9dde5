// Discrete-control substrate: a serial assembly line of workstations fed by
// a conveyor, processing a mix of unit types with different per-station
// processing times — the paper's motivating discrete-automation domain
// (§1: interleaving Camry/Prius chassis "with synchronized changes in
// operation modes and assembly line operations"; §2: "$22,000 per minute of
// downtime" when a station faults).
//
// The line runs on the shared discrete-event simulator, so EVM controllers
// can supervise it over the wireless network exactly like the gas plant.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace evm::plant {

using UnitType = std::uint8_t;

struct UnitSpec {
  std::string name;
  /// Processing time per station (station index -> duration).
  std::vector<util::Duration> station_time;
};

struct WorkcellStats {
  std::size_t released = 0;
  std::size_t completed = 0;
  std::map<UnitType, std::size_t> completed_by_type;
  util::Duration total_flow_time = util::Duration::zero();
  std::size_t blocked_events = 0;  // upstream waited on a busy station

  util::Duration average_flow_time() const {
    if (completed == 0) return util::Duration::zero();
    return util::Duration(total_flow_time.ns() /
                          static_cast<std::int64_t>(completed));
  }
};

/// A serial line: units advance station 0 -> N-1; a station holds one unit;
/// transfer is instantaneous when the next station is free.
class AssemblyLine {
 public:
  AssemblyLine(sim::Simulator& sim, std::size_t stations);

  /// Register a unit type; station_time must cover every station.
  void define_unit(UnitType type, UnitSpec spec);

  /// Release one unit of `type` at the head of the line (queues if busy).
  void release(UnitType type);
  /// Release following a repeating pattern (e.g. {red,red,red,blue,blue})
  /// every `interval`; runs until stopped.
  void start_pattern(std::vector<UnitType> pattern, util::Duration interval);
  void stop_pattern();

  /// A faulted station halts (units pile upstream) until repaired.
  void fault_station(std::size_t station);
  void repair_station(std::size_t station);

  /// Speed factor applied to a station (mode change: slower tooling for a
  /// different chassis, faster during rush orders). 1.0 = nominal.
  void set_station_speed(std::size_t station, double factor);

  std::size_t stations() const { return stations_.size(); }
  bool station_busy(std::size_t station) const;
  std::size_t input_queue_depth() const { return input_queue_.size(); }
  const WorkcellStats& stats() const { return stats_; }
  /// Units completed per hour at the current average pace.
  double throughput_per_hour() const;

  /// Hook invoked when a unit leaves the line (unit type, flow time).
  void set_on_complete(std::function<void(UnitType, util::Duration)> hook) {
    on_complete_ = std::move(hook);
  }

 private:
  struct Unit {
    UnitType type;
    util::TimePoint released_at;
  };
  struct Station {
    bool busy = false;
    bool faulted = false;
    double speed = 1.0;
    Unit unit{};
    bool done = false;  // finished processing, waiting to move on
    std::uint64_t generation = 0;  // invalidates in-flight finish events
  };

  void pattern_tick();
  void try_feed();
  void start_processing(std::size_t station);
  void finish_processing(std::size_t station, std::uint64_t generation);
  void try_advance(std::size_t station);

  sim::Simulator& sim_;
  std::vector<Station> stations_;
  std::map<UnitType, UnitSpec> specs_;
  std::deque<Unit> input_queue_;
  WorkcellStats stats_;
  std::function<void(UnitType, util::Duration)> on_complete_;
  std::vector<UnitType> pattern_;
  std::size_t pattern_pos_ = 0;
  util::Duration pattern_interval_ = util::Duration::zero();
  bool pattern_running_ = false;
};

}  // namespace evm::plant
