// The FORTH-like stack interpreter at the heart of the EVM. One instance
// runs inside each node's "super task"; control algorithms execute as
// bytecode against an Environment that binds sensor/actuator channels and
// the virtual component's data plane. The instruction set is extensible at
// runtime: extension slots 0x80..0xFF dispatch to handlers registered while
// the node runs (paper §3.1).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/status.hpp"
#include "util/time.hpp"
#include "vm/isa.hpp"
#include "vm/program.hpp"

namespace evm::vm {

/// Host bindings available to bytecode.
struct Environment {
  std::function<double(std::uint8_t channel)> read_sensor;
  std::function<void(std::uint8_t channel, double value)> write_actuator;
  std::function<void(std::uint8_t stream, double value)> send;
  std::function<double()> now_seconds;
};

struct ExecStats {
  std::uint64_t instructions = 0;
  std::uint64_t max_stack_depth = 0;
};

struct ExecLimits {
  std::uint64_t max_instructions = 100'000;
  std::size_t stack_cells = 64;
  std::size_t return_cells = 16;
};

class Interpreter {
 public:
  explicit Interpreter(Environment env = {}, ExecLimits limits = {});

  /// Persistent data slots (the task's "data" segment) survive runs; the
  /// PID's integrator state lives here and is exactly what migrates.
  static constexpr std::size_t kSlots = 32;
  double slot(std::size_t index) const { return slots_.at(index); }
  void set_slot(std::size_t index, double value) { slots_.at(index) = value; }
  /// Serialize/restore the data segment (migration payload).
  std::vector<std::uint8_t> save_slots() const;
  util::Status load_slots(std::span<const std::uint8_t> bytes);

  /// Register a runtime extension instruction. `slot` in [0, 0x80). This is
  /// the mechanism the paper calls an instruction set "extensible at
  /// runtime" (§3.1).
  /// The handler manipulates the value stack directly; leaving more than
  /// ExecLimits::stack_cells cells fails the run with RESOURCE_EXHAUSTED.
  /// A handler must not call run() on this interpreter.
  using ExtHandler = std::function<util::Status(std::vector<double>& stack)>;
  util::Status register_extension(std::uint8_t slot, std::string name, ExtHandler handler);
  bool has_extension(std::uint8_t slot) const;

  /// Execute bytecode from offset 0 until halt / end / error.
  util::Status run(std::span<const std::uint8_t> code);
  util::Status run(const Capsule& capsule);

  const ExecStats& last_stats() const { return stats_; }
  Environment& environment() { return env_; }

 private:
  Environment env_;
  ExecLimits limits_;
  std::array<double, kSlots> slots_{};
  std::array<ExtHandler, kExtSlots> extensions_{};
  std::array<std::string, kExtSlots> extension_names_{};
  ExecStats stats_;
  std::vector<double> stack_;         // value stack, reused across runs
  std::vector<std::size_t> rstack_;   // return stack, reused across runs
};

}  // namespace evm::vm
