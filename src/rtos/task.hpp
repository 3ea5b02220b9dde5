// Task model mirroring nano-RK's task control block (TCB). Tasks are
// periodic, fixed-priority, and carry an opaque state blob + register image
// so the EVM can snapshot and migrate them between nodes (paper §3.1.1:
// "migration of the task control block, stack, data and timing/precedence-
// related metadata").
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace evm::rtos {

using TaskId = std::uint16_t;
inline constexpr TaskId kInvalidTask = 0xFFFF;

/// Lower value = higher priority, as in nano-RK.
using Priority = std::uint8_t;

enum class TaskState : std::uint8_t {
  kDormant = 0,   // TCB exists, not released
  kReady,
  kRunning,
  kFinished,      // current job complete, waiting for next period
};

struct TaskParams {
  std::string name;
  util::Duration period = util::Duration::millis(100);
  util::Duration wcet = util::Duration::millis(1);     // worst-case exec time
  util::Duration deadline = util::Duration::zero();    // zero => deadline = period
  util::Duration phase = util::Duration::zero();       // first release offset
  Priority priority = 16;

  util::Duration effective_deadline() const {
    return deadline.is_zero() ? period : deadline;
  }
  double utilization() const {
    return static_cast<double>(wcet.ns()) / static_cast<double>(period.ns());
  }
};

/// Register image carried with a migrated task. On real hardware this is the
/// AVR register file + SP/PC; here it is a faithful stand-in whose size
/// contributes to migration cost.
struct RegisterImage {
  std::uint32_t pc = 0;
  std::uint32_t sp = 0;
  std::array<std::uint8_t, 32> gp{};  // ATmega1281 has 32 GP registers
};

struct TaskRuntimeStats {
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t preemptions = 0;
  util::Duration worst_response = util::Duration::zero();
  util::Duration total_response = util::Duration::zero();

  util::Duration average_response() const {
    if (completions == 0) return util::Duration::zero();
    return util::Duration(total_response.ns() / static_cast<std::int64_t>(completions));
  }
};

/// Full task control block.
struct Tcb {
  TaskId id = kInvalidTask;
  TaskParams params;
  TaskState state = TaskState::kDormant;

  /// Job body, invoked when a job's (simulated) execution completes.
  std::function<void()> body;
  /// Optional per-job actual execution time (defaults to wcet).
  std::function<util::Duration()> execution_time;

  /// Migratable context: stack bytes, static data bytes, registers.
  std::vector<std::uint8_t> stack;
  std::vector<std::uint8_t> data;
  RegisterImage registers;

  TaskRuntimeStats stats;
};

}  // namespace evm::rtos
