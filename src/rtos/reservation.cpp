#include "rtos/reservation.hpp"

#include <algorithm>

namespace evm::rtos {

ReservationManager::ReservationManager(sim::Simulator& sim) : sim_(sim) {}

util::Result<ReservationId> ReservationManager::create_cpu(
    CpuReservationParams params) {
  if (!params.budget.is_positive() || !params.period.is_positive() ||
      params.budget > params.period) {
    return util::Status::invalid_argument("CPU reservation budget/period invalid");
  }
  if (cpu_total_utilization() + params.utilization() > 1.0 + 1e-12) {
    return util::Status::resource_exhausted(
        "CPU reservation would exceed full utilization");
  }
  const ReservationId id = next_id_++;
  cpu_[id] = CpuRes{params, util::Duration::zero(), sim_.now()};
  return id;
}

util::Status ReservationManager::destroy_cpu(ReservationId id) {
  if (cpu_.erase(id) == 0) return util::Status::not_found("no such CPU reservation");
  return util::Status::ok();
}

void ReservationManager::roll_cpu(CpuRes& res) const {
  const util::Duration elapsed = sim_.now() - res.period_start;
  if (elapsed >= res.params.period) {
    const std::int64_t periods = elapsed / res.params.period;
    res.period_start += res.params.period * periods;
    res.used = util::Duration::zero();
  }
}

util::Duration ReservationManager::cpu_available(ReservationId id) const {
  auto it = cpu_.find(id);
  if (it == cpu_.end()) return util::Duration::max();  // unreserved: no cap
  CpuRes res = it->second;
  roll_cpu(res);
  return res.params.budget - res.used;
}

util::Duration ReservationManager::cpu_consume(ReservationId id,
                                               util::Duration amount) {
  auto it = cpu_.find(id);
  if (it == cpu_.end()) return amount;
  roll_cpu(it->second);
  const util::Duration granted =
      std::min(amount, it->second.params.budget - it->second.used);
  it->second.used += granted;
  return granted;
}

util::TimePoint ReservationManager::cpu_next_replenish(ReservationId id) const {
  auto it = cpu_.find(id);
  if (it == cpu_.end()) return sim_.now();
  CpuRes res = it->second;
  roll_cpu(res);
  return res.period_start + res.params.period;
}

double ReservationManager::cpu_total_utilization() const {
  double total = 0.0;
  for (const auto& [id, res] : cpu_) {
    (void)id;
    total += res.params.utilization();
  }
  return total;
}

bool ReservationManager::has_cpu(ReservationId id) const {
  return cpu_.count(id) > 0;
}

const CpuReservationParams* ReservationManager::cpu_params(ReservationId id) const {
  auto it = cpu_.find(id);
  return it == cpu_.end() ? nullptr : &it->second.params;
}

}  // namespace evm::rtos
