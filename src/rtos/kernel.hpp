// Per-node kernel facade in the shape of nano-RK: task admission gated by
// schedulability analysis and a RAM budget, CPU-reservation-backed
// execution, and TCB snapshot/restore — the primitive the EVM's task
// migration, replication and partitioning are built from.
#pragma once

#include <memory>
#include <span>

#include "rtos/reservation.hpp"
#include "rtos/scheduler.hpp"
#include "rtos/schedulability.hpp"
#include "util/bytes.hpp"

namespace evm::rtos {

struct KernelConfig {
  /// FireFly: ATmega1281 with 8 KB SRAM; stacks+data of admitted tasks must
  /// fit (we reserve 2 KB for kernel + EVM interpreter).
  std::size_t ram_bytes = 8 * 1024;
  std::size_t reserved_ram_bytes = 2 * 1024;
  /// Admission test to apply (exact RTA by default).
  enum class Test { kLiuLayland, kHyperbolic, kResponseTime } test = Test::kResponseTime;
};

/// Complete serializable image of a task: everything the paper lists as
/// migrated state ("task control block, stack, data and timing/precedence-
/// related metadata").
struct TaskSnapshot {
  TaskParams params;
  std::vector<std::uint8_t> stack;
  std::vector<std::uint8_t> data;
  RegisterImage registers;
  bool has_cpu_reservation = false;
  CpuReservationParams cpu_reservation;

  std::size_t state_bytes() const { return stack.size() + data.size() + sizeof(RegisterImage); }

  std::vector<std::uint8_t> encode() const;
  static bool decode(std::span<const std::uint8_t> bytes, TaskSnapshot& out);
};

class Kernel {
 public:
  Kernel(sim::Simulator& sim, KernelConfig config = {});

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Admission-controlled task creation: fails (without side effects) when
  /// the new set would be unschedulable or RAM would overflow. The task is
  /// created dormant; call start_task to begin releases.
  util::Result<TaskId> admit_task(TaskParams params,
                                  std::function<void()> body = {},
                                  std::function<util::Duration()> execution_time = {},
                                  std::size_t stack_bytes = 128,
                                  std::size_t data_bytes = 0);

  util::Status start_task(TaskId id);
  util::Status stop_task(TaskId id);
  util::Status remove_task(TaskId id);

  /// Attach a CPU reservation sized exactly to the task's (wcet, period).
  util::Status reserve_cpu(TaskId id);

  /// Capture a task's full migratable image. The task keeps running; pass
  /// `freeze = true` to stop it first (migration does).
  util::Result<TaskSnapshot> snapshot(TaskId id, bool freeze = false);
  /// Instantiate a task from a snapshot (admission-controlled). The restored
  /// task is dormant; bodies cannot travel as closures, so the caller binds
  /// behaviour via `body` (the EVM binds the VM interpreter here).
  util::Result<TaskId> restore(const TaskSnapshot& snapshot,
                               std::function<void()> body = {},
                               std::function<util::Duration()> execution_time = {});

  /// Would the active set plus `candidate` be schedulable? (No mutation.)
  bool admissible(const TaskParams& candidate) const;

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  ReservationManager& reservations() { return reservations_; }

  std::size_t ram_used() const;
  std::size_t ram_capacity() const {
    return config_.ram_bytes - config_.reserved_ram_bytes;
  }
  double utilization() const { return scheduler_.utilization(); }

 private:
  AnalysisResult analyze_with(const TaskParams* extra) const;

  sim::Simulator& sim_;
  KernelConfig config_;
  ReservationManager reservations_;
  Scheduler scheduler_;
};

}  // namespace evm::rtos
