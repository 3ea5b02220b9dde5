// E10 — Interpreter viability (paper §3.1: the EVM executes control law
// bytecode in a FORTH-like interpreter on 8-bit motes). Measures the
// dispatch overhead of the full second-order-filter + PID control cycle in
// bytecode against the equivalent native C++ controller, the capsule CRC
// check every cycle pays on top, and per-opcode dispatch cost.
#include <iomanip>
#include <iostream>

#include "core/control_programs.hpp"
#include "harness.hpp"
#include "plant/pid.hpp"
#include "util/crc.hpp"
#include "vm/assembler.hpp"
#include "vm/interpreter.hpp"

using namespace evm;

namespace {

core::FilteredPidSpec pid_spec() {
  core::FilteredPidSpec spec;
  spec.kp = 2.0;
  spec.ki = 0.05;
  spec.kd = 0.1;
  spec.setpoint = 50.0;
  spec.filter_tau_s = 2.0;
  spec.dt_s = 0.25;
  return spec;
}

util::Samples time_row(bench::Reporter& report, const std::string& label,
                       double insns_per_call,
                       const std::function<void()>& op) {
  auto timed = bench::time_scenario(report, label, op);
  if (insns_per_call > 0.0) {
    timed.scenario.param("instructions_per_call", insns_per_call)
        .metric("p50_ns_per_instruction",
                timed.ns.percentile(0.5) / insns_per_call);
  }
  return timed.ns;
}

}  // namespace

int main() {
  std::cout << "=== E10: bytecode interpreter dispatch cost ===\n\n";
  bench::print_time_header();
  bench::Reporter report("interpreter");

  // Full control cycle: bytecode vs native.
  const auto capsule = core::make_filtered_pid(1, "pid", pid_spec());
  double sensor = 47.0;
  double out = 0.0;
  vm::Interpreter interp(vm::Environment{
      [&sensor](std::uint8_t) { return sensor; },
      [&out](std::uint8_t, double v) { out = v; },
      {},
      {}});
  (void)interp.run(capsule->code);  // count instructions per control cycle
  const auto pid_insns =
      static_cast<double>(interp.last_stats().instructions);
  const auto bytecode_ns =
      time_row(report, "pid_bytecode", pid_insns, [&] {
        sensor = 47.0 + (out > 10.0 ? 1.0 : -1.0);  // keep data flowing
        bench::do_not_optimize(interp.run(capsule->code));
      });

  // The path EvmService takes every control cycle: the capsule's CRC check,
  // then the same run.
  time_row(report, "pid_capsule", pid_insns, [&] {
    sensor = 47.0 + (out > 10.0 ? 1.0 : -1.0);
    bench::do_not_optimize(interp.run(*capsule));
  });
  time_row(report, "capsule_crc", 0,
           [&] { bench::do_not_optimize(util::crc32(capsule->code)); });

  plant::Pid pid({.kp = 2.0, .ki = 0.05, .kd = 0.1, .setpoint = 50.0});
  plant::SecondOrderFilter filter(2.0);
  const auto native_ns = time_row(report, "pid_native", 0, [&] {
    sensor = 47.0 + (out > 10.0 ? 1.0 : -1.0);
    out = pid.step(filter.step(sensor, 0.25), 0.25);
    bench::do_not_optimize(out);
  });
  const double overhead =
      bytecode_ns.percentile(0.5) / std::max(native_ns.percentile(0.5), 1e-9);
  report.scenario("interpretation_overhead")
      .metric("bytecode_over_native_p50", overhead);

  // Tight arithmetic kernel: measures raw dispatch cost per instruction.
  {
    std::string source;
    for (int i = 0; i < 50; ++i) source += "pushi 3\npushi 4\nmul\ndrop\n";
    source += "halt\n";
    const auto code = vm::assemble(source);
    vm::Interpreter arith;
    (void)arith.run(*code);
    time_row(report, "dispatch_arith",
             static_cast<double>(arith.last_stats().instructions),
             [&] { bench::do_not_optimize(arith.run(*code)); });
  }

  // Branch-heavy loop: 200 iterations of a countdown.
  {
    const auto code = vm::assemble(R"(
        pushi 200
loop:   pushi 1
        sub
        dup
        jnz loop
        drop
        halt
  )");
    vm::Interpreter branchy;
    (void)branchy.run(*code);
    time_row(report, "dispatch_branch",
             static_cast<double>(branchy.last_stats().instructions),
             [&] { bench::do_not_optimize(branchy.run(*code)); });
  }

  // Host-extension trampoline cost.
  {
    vm::Interpreter ext;
    (void)ext.register_extension(0, "nop_ext", [](std::vector<double>& s) {
      bench::do_not_optimize(s);
      return util::Status::ok();
    });
    std::string source = "pushi 1\n";
    for (int i = 0; i < 100; ++i) source += "ext0\n";
    source += "drop\nhalt\n";
    const auto code = vm::assemble(source);
    (void)ext.run(*code);
    time_row(report, "extension_call",
             static_cast<double>(ext.last_stats().instructions),
             [&] { bench::do_not_optimize(ext.run(*code)); });
  }

  // Serializing the controller state that migrates with a task.
  {
    vm::Interpreter snap;
    for (std::size_t i = 0; i < vm::Interpreter::kSlots; ++i) {
      snap.set_slot(i, static_cast<double>(i) * 1.5);
    }
    time_row(report, "slot_snapshot", 0,
             [&] { bench::do_not_optimize(snap.save_slots()); });
  }

  std::cout << "\n=== E10 note ===\n"
            << "pid_bytecode / pid_native = interpretation overhead ("
            << std::fixed << std::setprecision(1) << overhead
            << "x) of a\nfull control cycle. The paper's 250 ms control cycle "
            << "leaves\n>10^5 x headroom even on a 8 MHz AVR (scale times by "
            << "~10^3).\n";
  return report.write() ? 0 : 1;
}
