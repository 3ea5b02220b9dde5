// Resource reservations in the spirit of nano-RK's resource kernel: a task
// attached to a CPU reservation may consume at most `budget` of execution
// per replenishment `period`; overruns are throttled (the job is suspended
// until the budget replenishes), never silently allowed.
#pragma once

#include <cstdint>
#include <map>

#include "sim/simulator.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace evm::rtos {

using ReservationId = std::uint16_t;
inline constexpr ReservationId kNoReservation = 0xFFFF;

struct CpuReservationParams {
  util::Duration budget = util::Duration::millis(10);
  util::Duration period = util::Duration::millis(100);

  double utilization() const {
    return static_cast<double>(budget.ns()) / static_cast<double>(period.ns());
  }
};

class ReservationManager {
 public:
  explicit ReservationManager(sim::Simulator& sim);

  /// Admission-checks against total CPU capacity (sum of utilizations <= 1).
  util::Result<ReservationId> create_cpu(CpuReservationParams params);
  util::Status destroy_cpu(ReservationId id);

  /// Budget still available in the current replenishment period.
  util::Duration cpu_available(ReservationId id) const;
  /// Charge execution time; returns the amount actually granted (may be
  /// less than requested when the budget runs dry).
  util::Duration cpu_consume(ReservationId id, util::Duration amount);
  /// True time of the next replenishment for this reservation.
  util::TimePoint cpu_next_replenish(ReservationId id) const;
  double cpu_total_utilization() const;
  bool has_cpu(ReservationId id) const;
  const CpuReservationParams* cpu_params(ReservationId id) const;

 private:
  struct CpuRes {
    CpuReservationParams params;
    util::Duration used = util::Duration::zero();
    util::TimePoint period_start;
  };

  void roll_cpu(CpuRes& res) const;

  sim::Simulator& sim_;
  std::map<ReservationId, CpuRes> cpu_;
  ReservationId next_id_ = 1;
};

}  // namespace evm::rtos
