// Per-node kernel facade in the shape of nano-RK: task admission gated by
// exact response-time analysis and a RAM budget, and the TCB snapshot that
// the EVM's task migration and replication ship between nodes.
#pragma once

#include <memory>
#include <span>

#include "rtos/scheduler.hpp"
#include "rtos/schedulability.hpp"
#include "util/bytes.hpp"

namespace evm::rtos {

/// Complete serializable image of a task: everything the paper lists as
/// migrated state ("task control block, stack, data and timing/precedence-
/// related metadata").
struct TaskSnapshot {
  TaskParams params;
  std::vector<std::uint8_t> stack;
  std::vector<std::uint8_t> data;
  RegisterImage registers;

  std::vector<std::uint8_t> encode() const;
  static bool decode(std::span<const std::uint8_t> bytes, TaskSnapshot& out);
};

class Kernel {
 public:
  explicit Kernel(sim::Simulator& sim);

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

  /// Capture a task's full migratable image. The task keeps running unless
  /// `freeze` is true; migration and replication snapshot it live, and a
  /// committed migration stops the source afterwards.
  util::Result<TaskSnapshot> snapshot(TaskId id, bool freeze = false);

  /// Would the active set plus `candidate` be schedulable? (No mutation.)
  bool admissible(const TaskParams& candidate) const;

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }

  std::size_t ram_used() const;
  std::size_t ram_capacity() const { return kRamBytes - kReservedRamBytes; }
  double utilization() const { return scheduler_.utilization(); }

 private:
  /// FireFly: ATmega1281 with 8 KB SRAM, of which 2 KB stay reserved for the
  /// kernel and the EVM interpreter; stacks+data of admitted tasks must fit
  /// in the rest.
  static constexpr std::size_t kRamBytes = 8 * 1024;
  static constexpr std::size_t kReservedRamBytes = 2 * 1024;

  AnalysisResult analyze_with(const TaskParams* extra) const;

  Scheduler scheduler_;
};

}  // namespace evm::rtos
