#include "plant/workcell.hpp"

#include <cassert>

namespace evm::plant {

AssemblyLine::AssemblyLine(sim::Simulator& sim, std::size_t stations)
    : sim_(sim), stations_(stations) {
  assert(stations > 0);
}

void AssemblyLine::define_unit(UnitType type, UnitSpec spec) {
  assert(spec.station_time.size() >= stations_.size());
  specs_[type] = std::move(spec);
}

void AssemblyLine::release(UnitType type) {
  assert(specs_.count(type) > 0 && "unit type not defined");
  ++stats_.released;
  input_queue_.push_back(Unit{type, sim_.now()});
  try_feed();
}

void AssemblyLine::start_pattern(std::vector<UnitType> pattern,
                                 util::Duration interval) {
  pattern_ = std::move(pattern);
  pattern_interval_ = interval;
  pattern_pos_ = 0;
  if (pattern_running_ || pattern_.empty()) return;
  pattern_running_ = true;
  pattern_tick();
}

void AssemblyLine::pattern_tick() {
  if (!pattern_running_ || pattern_.empty()) return;
  release(pattern_[pattern_pos_ % pattern_.size()]);
  ++pattern_pos_;
  sim_.schedule_after(pattern_interval_, [this] { pattern_tick(); });
}

void AssemblyLine::stop_pattern() { pattern_running_ = false; }

void AssemblyLine::fault_station(std::size_t station) {
  Station& s = stations_.at(station);
  s.faulted = true;
  ++s.generation;  // abandon this station's in-flight completion
}

void AssemblyLine::repair_station(std::size_t station) {
  Station& s = stations_.at(station);
  if (!s.faulted) return;
  s.faulted = false;
  if (s.busy && !s.done) {
    // Restart processing of whatever was caught in the station.
    start_processing(station);
  } else if (s.busy && s.done) {
    try_advance(station);
  } else if (station > 0) {
    // Empty again: pull the unit that piled up behind the fault.
    try_advance(station - 1);
  }
  if (station == 0) try_feed();
}

void AssemblyLine::set_station_speed(std::size_t station, double factor) {
  stations_.at(station).speed = factor > 0.0 ? factor : 1.0;
}

bool AssemblyLine::station_busy(std::size_t station) const {
  return stations_.at(station).busy;
}

double AssemblyLine::throughput_per_hour() const {
  const double elapsed_h = sim_.now().to_seconds() / 3600.0;
  if (elapsed_h <= 0.0) return 0.0;
  return static_cast<double>(stats_.completed) / elapsed_h;
}

void AssemblyLine::try_feed() {
  if (input_queue_.empty()) return;
  Station& first = stations_.front();
  if (first.busy || first.faulted) {
    ++stats_.blocked_events;
    return;
  }
  first.busy = true;
  first.done = false;
  first.unit = input_queue_.front();
  input_queue_.pop_front();
  start_processing(0);
}

void AssemblyLine::start_processing(std::size_t station) {
  Station& s = stations_[station];
  if (s.faulted) return;  // resumes on repair
  const UnitSpec& spec = specs_.at(s.unit.type);
  const auto nominal = spec.station_time[station];
  const auto scaled = util::Duration(
      static_cast<std::int64_t>(static_cast<double>(nominal.ns()) / s.speed));
  const std::uint64_t generation = s.generation;
  sim_.schedule_after(scaled, [this, station, generation] {
    finish_processing(station, generation);
  });
}

void AssemblyLine::finish_processing(std::size_t station, std::uint64_t generation) {
  Station& s = stations_[station];
  if (generation != s.generation) return;  // station faulted mid-process
  if (!s.busy || s.done) return;
  s.done = true;
  try_advance(station);
}

void AssemblyLine::try_advance(std::size_t station) {
  Station& s = stations_[station];
  if (!s.busy || !s.done) return;

  if (station + 1 == stations_.size()) {
    // Unit leaves the line.
    ++stats_.completed;
    ++stats_.completed_by_type[s.unit.type];
    const util::Duration flow = sim_.now() - s.unit.released_at;
    stats_.total_flow_time += flow;
    if (on_complete_) on_complete_(s.unit.type, flow);
    s.busy = false;
    s.done = false;
    if (station == 0) {
      try_feed();
    } else {
      try_advance(station - 1);
    }
    return;
  }

  Station& next = stations_[station + 1];
  if (next.busy || next.faulted) {
    ++stats_.blocked_events;
    return;  // retried when downstream drains (try_advance cascades back)
  }
  next.busy = true;
  next.done = false;
  next.unit = s.unit;
  s.busy = false;
  s.done = false;
  start_processing(station + 1);
  if (station == 0) {
    try_feed();
  } else {
    try_advance(station - 1);
  }
}

}  // namespace evm::plant
