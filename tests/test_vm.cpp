#include <gtest/gtest.h>

#include <map>

#include "core/control_programs.hpp"
#include "vm/assembler.hpp"
#include "vm/interpreter.hpp"

namespace evm::vm {
namespace {

/// Assemble-and-run helper: returns the actuated value on channel 0.
struct VmHarness {
  double actuated = 0.0;
  std::uint8_t actuated_channel = 0xFF;
  double sensor_value = 0.0;
  std::vector<std::pair<std::uint8_t, double>> sent;
  Interpreter interp;

  VmHarness()
      : interp(Environment{
            [this](std::uint8_t) { return sensor_value; },
            [this](std::uint8_t ch, double v) {
              actuated = v;
              actuated_channel = ch;
            },
            [this](std::uint8_t stream, double v) { sent.emplace_back(stream, v); },
            [] { return 123.5; }}) {}

  util::Status run(const std::string& source) {
    auto code = assemble(source);
    EXPECT_TRUE(code.ok()) << code.status().to_string();
    if (!code.ok()) return code.status();
    return interp.run(*code);
  }
};

TEST(Assembler, EmptyProgram) {
  auto code = assemble("; nothing\n\n");
  ASSERT_TRUE(code.ok());
  EXPECT_TRUE(code->empty());
}

TEST(Assembler, UnknownMnemonicFails) {
  EXPECT_FALSE(assemble("frobnicate").ok());
}

TEST(Assembler, MissingOperandFails) {
  EXPECT_FALSE(assemble("push").ok());
}

TEST(Assembler, TrailingTokensFail) {
  EXPECT_FALSE(assemble("dup 5").ok());
}

TEST(Assembler, DuplicateLabelFails) {
  EXPECT_FALSE(assemble("x: nop\nx: nop").ok());
}

TEST(Assembler, UndefinedLabelFails) {
  EXPECT_FALSE(assemble("jmp nowhere").ok());
}

TEST(Assembler, DisassembleRoundTrips) {
  const std::string source = "pushi 5\npushi 3\nadd\nhalt\n";
  auto code = assemble(source);
  ASSERT_TRUE(code.ok());
  const std::string listing = disassemble(*code);
  EXPECT_NE(listing.find("pushi 5"), std::string::npos);
  EXPECT_NE(listing.find("add"), std::string::npos);
  EXPECT_NE(listing.find("halt"), std::string::npos);
}

TEST(Assembler, PushNeedsANumericImmediate) {
  auto code = assemble("push level");
  ASSERT_FALSE(code.ok());
  EXPECT_EQ(code.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(code.status().message().find("push needs a number at line 1"),
            std::string::npos);
}

TEST(Assembler, NonBranchOperandsMustBeNumeric) {
  // Only branches and calls take a label; pushi (2-byte) and load (1-byte)
  // operands are numbers.
  for (const char* source : {"nop\npushi target", "nop\nload slot"}) {
    auto code = assemble(source);
    ASSERT_FALSE(code.ok()) << source;
    EXPECT_NE(code.status().message().find("numeric operand expected at line 2"),
              std::string::npos)
        << code.status().to_string();
  }
}

TEST(Assembler, ExtraTokenAfterOperandFails) {
  auto code = assemble("pushi 5 6");
  ASSERT_FALSE(code.ok());
  EXPECT_NE(code.status().message().find("trailing tokens at line 1"),
            std::string::npos);
  EXPECT_TRUE(assemble("pushi 5 ; comment").ok());
}

TEST(Assembler, DisassembleShowsImmediatesAndUnknownBytes) {
  auto code = assemble("push 2.5\npushi -3\nstore 4\next7\n");
  ASSERT_TRUE(code.ok()) << code.status().to_string();
  std::vector<std::uint8_t> bytes = *code;
  bytes.push_back(0x04);  // no opcode is assigned to 0x04
  bytes.push_back(static_cast<std::uint8_t>(Op::kPushSmall));  // truncated operand
  const std::string listing = disassemble(bytes);
  EXPECT_NE(listing.find("0:\tpush 2.5\n"), std::string::npos) << listing;
  EXPECT_NE(listing.find("9:\tpushi -3\n"), std::string::npos) << listing;
  EXPECT_NE(listing.find("12:\tstore 4\n"), std::string::npos) << listing;
  EXPECT_NE(listing.find("14:\text7\n"), std::string::npos) << listing;
  EXPECT_NE(listing.find("15:\t??? 0x4\n"), std::string::npos) << listing;
  EXPECT_NE(listing.find("16:\tpushi\n"), std::string::npos) << listing;
}

TEST(Interpreter, Arithmetic) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 7\npushi 3\nsub\npushi 5\nmul\nactuate 0\nhalt"));
  EXPECT_EQ(h.actuated, 20.0);  // (7-3)*5
}

TEST(Interpreter, FloatImmediates) {
  VmHarness h;
  ASSERT_TRUE(h.run("push 2.5\npush -0.5\nadd\nactuate 0"));
  EXPECT_DOUBLE_EQ(h.actuated, 2.0);
}

TEST(Interpreter, StackOps) {
  VmHarness h;
  // (1 2) over -> (1 2 1); rot of (1 2 1) -> (2 1 1); add, sub -> 2-(1+1)=0
  ASSERT_TRUE(h.run("pushi 1\npushi 2\nover\nrot\nadd\nsub\nactuate 0"));
  // Stack trace: 1 2 | over: 1 2 1 | rot: 2 1 1 | add: 2 2 | sub: 0.
  EXPECT_EQ(h.actuated, 0.0);
}

TEST(Interpreter, DupDropSwap) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 4\ndup\nadd\npushi 9\nswap\ndrop\nactuate 0"));
  // 4 dup add = 8; push 9 -> (8 9); swap -> (9 8); drop -> (9)... wait
  // swap gives (9 8), drop removes 8, leaving 9? No: drop removes top (8).
  EXPECT_EQ(h.actuated, 9.0);
}

TEST(Interpreter, MinMaxAbsNeg) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 5\nneg\nabs\npushi 3\nmax\npushi 4\nmin\nactuate 0"));
  EXPECT_EQ(h.actuated, 4.0);  // |−5|=5, max(5,3)=5, min(5,4)=4
}

TEST(Interpreter, ClampBehavior) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 150\npushi 0\npushi 100\nclamp\nactuate 0"));
  EXPECT_EQ(h.actuated, 100.0);
  ASSERT_TRUE(h.run("pushi -3\npushi 0\npushi 100\nclamp\nactuate 0"));
  EXPECT_EQ(h.actuated, 0.0);
}

TEST(Interpreter, Comparisons) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 2\npushi 3\nlt\nactuate 0"));
  EXPECT_EQ(h.actuated, 1.0);
  ASSERT_TRUE(h.run("pushi 2\npushi 3\nge\nactuate 0"));
  EXPECT_EQ(h.actuated, 0.0);
  ASSERT_TRUE(h.run("pushi 3\npushi 3\neq\nactuate 0"));
  EXPECT_EQ(h.actuated, 1.0);
}

TEST(Interpreter, Logic) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 1\npushi 0\nor\npushi 1\nand\nnot\nactuate 0"));
  EXPECT_EQ(h.actuated, 0.0);
}

TEST(Interpreter, LoadStorePersistAcrossRuns) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 42\nstore 5\nhalt"));
  EXPECT_EQ(h.interp.slot(5), 42.0);
  ASSERT_TRUE(h.run("load 5\npushi 1\nadd\nstore 5\nhalt"));
  EXPECT_EQ(h.interp.slot(5), 43.0);
}

TEST(Interpreter, SensorActuateSendNow) {
  VmHarness h;
  h.sensor_value = 77.0;
  ASSERT_TRUE(h.run("sensor 2\nsend 4\nnow\nactuate 3"));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].first, 4);
  EXPECT_EQ(h.sent[0].second, 77.0);
  EXPECT_EQ(h.actuated, 123.5);
  EXPECT_EQ(h.actuated_channel, 3);
}

TEST(Interpreter, ForwardAndBackwardBranches) {
  VmHarness h;
  // Count down from 5: loop body increments slot 0 each pass.
  ASSERT_TRUE(h.run(R"(
        pushi 0
        store 0
        pushi 5
loop:   dup
        jz done
        load 0
        pushi 1
        add
        store 0
        pushi 1
        sub
        jmp loop
done:   drop
        load 0
        actuate 0
  )"));
  EXPECT_EQ(h.actuated, 5.0);
}

TEST(Interpreter, CallRet) {
  VmHarness h;
  ASSERT_TRUE(h.run(R"(
        pushi 3
        call double
        call double
        actuate 0
        halt
double: dup
        add
        ret
  )"));
  EXPECT_EQ(h.actuated, 12.0);
}

TEST(Interpreter, TopLevelRetHalts) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 1\nactuate 0\nret\npushi 9\nactuate 0"));
  EXPECT_EQ(h.actuated, 1.0);
}

TEST(Interpreter, StackUnderflowCaught) {
  VmHarness h;
  const auto status = h.run("add");
  EXPECT_FALSE(status);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
}

TEST(Interpreter, DivisionByZeroCaught) {
  VmHarness h;
  EXPECT_FALSE(h.run("pushi 1\npushi 0\ndiv"));
}

TEST(Interpreter, StackOverflowCaught) {
  VmHarness h;
  std::string source;
  for (int i = 0; i < 100; ++i) source += "pushi 1\n";
  const auto status = h.run(source);
  EXPECT_FALSE(status);
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
}

TEST(Interpreter, InstructionBudgetStopsInfiniteLoop) {
  VmHarness h;
  const auto status = h.run("loop: jmp loop");
  EXPECT_FALSE(status);
  EXPECT_EQ(status.code(), util::StatusCode::kDeadlineExceeded);
}

TEST(Interpreter, SlotOutOfRangeCaught) {
  VmHarness h;
  EXPECT_FALSE(h.run("load 33"));
}


TEST(Interpreter, RuntimeExtensions) {
  VmHarness h;
  ASSERT_TRUE(h.interp.register_extension(0, "square", [](std::vector<double>& s) {
    if (s.empty()) return util::Status::failed_precondition("underflow");
    s.back() = s.back() * s.back();
    return util::Status::ok();
  }));
  ASSERT_TRUE(h.run("pushi 7\next0\nactuate 0"));
  EXPECT_EQ(h.actuated, 49.0);
  // A handler's failure fails the run with the handler's own status.
  const auto status = h.run("ext0");
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "underflow");
}

TEST(Interpreter, ExtensionSlotConflictRejected) {
  Interpreter interp;
  auto ok = [](std::vector<double>&) { return util::Status::ok(); };
  ASSERT_TRUE(interp.register_extension(3, "a", ok));
  EXPECT_FALSE(interp.register_extension(3, "b", ok));
  EXPECT_TRUE(interp.has_extension(3));
  EXPECT_FALSE(interp.has_extension(4));
}

TEST(Interpreter, UnboundExtensionFaults) {
  VmHarness h;
  EXPECT_FALSE(h.run("ext9"));
}

TEST(Interpreter, SlotImageRoundTrip) {
  Interpreter a;
  a.set_slot(0, 1.5);
  a.set_slot(31, -2.5);
  const auto image = a.save_slots();
  Interpreter b;
  ASSERT_TRUE(b.load_slots(image));
  EXPECT_EQ(b.slot(0), 1.5);
  EXPECT_EQ(b.slot(31), -2.5);
  EXPECT_FALSE(b.load_slots(std::vector<std::uint8_t>(7)));
}

TEST(Interpreter, CapsuleCrcGate) {
  auto code = assemble("pushi 1\ndrop\nhalt");
  ASSERT_TRUE(code.ok());
  Capsule capsule;
  capsule.code = *code;
  capsule.seal();
  Interpreter interp;
  EXPECT_TRUE(interp.run(capsule));
  capsule.code[0] = 0x0B;
  EXPECT_FALSE(interp.run(capsule));  // CRC now stale
}

TEST(Interpreter, StatsTrackInstructionCountAndDepth) {
  VmHarness h;
  ASSERT_TRUE(h.run("pushi 1\npushi 2\npushi 3\nadd\nadd\ndrop\nhalt"));
  EXPECT_EQ(h.interp.last_stats().instructions, 7u);
  EXPECT_EQ(h.interp.last_stats().max_stack_depth, 3u);
}

TEST(Capsule, EncodeDecodeRoundTrip) {
  Capsule c;
  c.program_id = 9;
  c.version = 2;
  c.name = "pid";
  c.code = {1, 2, 3};
  c.seal();
  Capsule out;
  ASSERT_TRUE(Capsule::decode(c.encode(), out));
  EXPECT_EQ(out.program_id, 9);
  EXPECT_EQ(out.version, 2);
  EXPECT_EQ(out.name, "pid");
  EXPECT_EQ(out.code, c.code);
  EXPECT_TRUE(out.crc_ok());
}

TEST(Interpreter, ExtensionStackGrowthIsBounded) {
  VmHarness h;
  ASSERT_TRUE(h.interp.register_extension(0, "flood", [](std::vector<double>& s) {
    for (int i = 0; i < 100; ++i) s.push_back(1.0);
    return util::Status::ok();
  }));
  const auto status = h.run("pushi 1\next0\nactuate 0");
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(), "stack overflow at pc 3");
  // The next run starts from an empty stack.
  ASSERT_TRUE(h.run("pushi 2\nactuate 0"));
  EXPECT_EQ(h.actuated, 2.0);
}

TEST(Interpreter, ExtensionMayFillTheStackExactly) {
  Interpreter interp;
  ASSERT_TRUE(interp.register_extension(0, "fill", [](std::vector<double>& s) {
    while (s.size() < ExecLimits{}.stack_cells) s.push_back(0.0);
    return util::Status::ok();
  }));
  auto code = assemble("ext0\nhalt");
  ASSERT_TRUE(code.ok());
  ASSERT_TRUE(interp.run(*code));
  EXPECT_EQ(interp.last_stats().max_stack_depth, ExecLimits{}.stack_cells);
}

// Every way a program can fail, with the exact status each one reports.
// Programs are assembly where the assembler can express them, raw bytes
// where it cannot (bad opcodes, cut operands).
struct FaultCase {
  const char* label;
  std::vector<std::uint8_t> code;
  util::StatusCode status;
  const char* message;
};

std::vector<std::uint8_t> asm_or_die(const std::string& source) {
  auto code = assemble(source);
  EXPECT_TRUE(code.ok()) << source << ": " << code.status().to_string();
  return code.ok() ? *code : std::vector<std::uint8_t>{};
}

std::string pushes(int n) {
  std::string source;
  for (int i = 0; i < n; ++i) source += "pushi 1\n";
  return source;
}

std::vector<FaultCase> fault_cases() {
  using C = util::StatusCode;
  const C under = C::kFailedPrecondition;
  const C over = C::kResourceExhausted;
  const C bad = C::kInvalidArgument;
  return {
      // Underflow, one case per op class.
      {"dup", asm_or_die("dup"), under, "stack underflow at pc 0"},
      {"drop", asm_or_die("drop"), under, "stack underflow at pc 0"},
      {"swap", asm_or_die("pushi 1\nswap"), under, "stack underflow at pc 3"},
      {"over", asm_or_die("pushi 1\nover"), under, "stack underflow at pc 3"},
      {"rot", asm_or_die("pushi 1\npushi 2\nrot"), under, "stack underflow at pc 6"},
      {"add", asm_or_die("pushi 1\nadd"), under, "stack underflow at pc 3"},
      {"div", asm_or_die("div"), under, "stack underflow at pc 0"},
      {"neg", asm_or_die("neg"), under, "stack underflow at pc 0"},
      {"abs", asm_or_die("nop\nabs"), under, "stack underflow at pc 1"},
      {"clamp", asm_or_die("pushi 1\npushi 2\nclamp"), under, "stack underflow at pc 6"},
      {"lt", asm_or_die("lt"), under, "stack underflow at pc 0"},
      {"not", asm_or_die("not"), under, "stack underflow at pc 0"},
      {"store", asm_or_die("store 0"), under, "stack underflow at pc 0"},
      {"actuate", asm_or_die("actuate 0"), under, "stack underflow at pc 0"},
      {"send", asm_or_die("send 1"), under, "stack underflow at pc 0"},
      {"jz", asm_or_die("jz 0"), under, "stack underflow at pc 0"},
      {"jnz", asm_or_die("pushi 1\ndrop\njnz 0"), under, "stack underflow at pc 4"},
      // Overflow of the value stack (64 cells) and the return stack (16).
      {"push overflow", asm_or_die(pushes(65)), over, "stack overflow at pc 192"},
      {"dup overflow", asm_or_die(pushes(64) + "dup"), over, "stack overflow at pc 192"},
      {"over overflow", asm_or_die(pushes(64) + "over"), over, "stack overflow at pc 192"},
      {"load overflow", asm_or_die(pushes(64) + "load 0"), over, "stack overflow at pc 192"},
      {"sensor overflow", asm_or_die(pushes(64) + "sensor 0"), over, "stack overflow at pc 192"},
      {"now overflow", asm_or_die(pushes(64) + "now"), over, "stack overflow at pc 192"},
      {"f64 overflow", asm_or_die(pushes(64) + "push 1.5"), over, "stack overflow at pc 192"},
      {"return overflow", asm_or_die("self: call self"), over, "return stack overflow"},
      // Malformed bytecode.
      {"illegal opcode", {0x04}, bad, "illegal opcode at pc 0"},
      {"illegal after nop", {0x00, 0x7F}, bad, "illegal opcode at pc 1"},
      {"truncated push", {0x02, 0x00, 0x00}, C::kDataLoss, "truncated operand at pc 0"},
      {"truncated pushi", {0x00, 0x03, 0x01}, C::kDataLoss, "truncated operand at pc 1"},
      {"truncated load", {0x30}, C::kDataLoss, "truncated operand at pc 0"},
      // Branch targets outside [0, size].
      {"jmp past end", asm_or_die("jmp 1"), bad, "branch out of range at pc 0"},
      {"jmp before start", asm_or_die("nop\njmp -5"), bad, "branch out of range at pc 1"},
      {"jz taken out", asm_or_die("pushi 0\njz 100"), bad, "branch out of range at pc 3"},
      {"jnz taken out", asm_or_die("pushi 1\njnz -100"), bad, "branch out of range at pc 3"},
      {"call out", asm_or_die("call 7"), bad, "call out of range at pc 0"},
      // Arithmetic and memory faults.
      {"div by zero", asm_or_die("pushi 1\npushi 0\ndiv"), bad, "division by zero at pc 6"},
      {"load slot", asm_or_die("load 32"), bad, "slot out of range"},
      {"store slot", asm_or_die("pushi 1\nstore 200"), bad, "slot out of range"},
      // Extensions and the instruction budget.
      {"unbound ext", asm_or_die("pushi 1\next9"), C::kNotFound,
       "unbound extension instruction ext9"},
      {"budget", asm_or_die("loop: jmp loop"), C::kDeadlineExceeded,
       "instruction budget exhausted"},
  };
}

TEST(Interpreter, FaultsReportTheirExactStatus) {
  for (const FaultCase& c : fault_cases()) {
    VmHarness h;
    const util::Status status = h.interp.run(c.code);
    EXPECT_EQ(status.code(), c.status) << c.label << ": " << status.to_string();
    EXPECT_EQ(status.message(), c.message) << c.label;
  }
}

TEST(Interpreter, UnboundEnvironmentCaught) {
  Interpreter bare;  // no environment bindings
  const std::pair<const char*, const char*> cases[] = {
      {"sensor 0", "no sensor binding"},
      {"pushi 1\nactuate 0", "no actuator binding"},
      {"pushi 1\nsend 0", "no send binding"},
      {"actuate 0", "no actuator binding"},  // binding checked before depth
  };
  for (const auto& [source, message] : cases) {
    const util::Status status = bare.run(asm_or_die(source));
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition) << source;
    EXPECT_EQ(status.message(), message) << source;
  }
  // `now` without a clock reads 0.
  ASSERT_TRUE(bare.run(asm_or_die("now\nstore 0")));
  EXPECT_EQ(bare.slot(0), 0.0);
}

TEST(Interpreter, BranchToTheEndIsInRange) {
  VmHarness h;
  EXPECT_TRUE(h.interp.run(asm_or_die("jmp 0")));
  EXPECT_TRUE(h.interp.run(asm_or_die("pushi 0\njz 0")));
  EXPECT_TRUE(h.interp.run(asm_or_die("call 0")));
}

TEST(Isa, OperandBytesForEveryOpcode) {
  const std::map<std::uint8_t, int> core = {
      {0x00, 0}, {0x01, 0}, {0x02, 8}, {0x03, 2}, {0x08, 0}, {0x09, 0},
      {0x0A, 0}, {0x0B, 0}, {0x0C, 0}, {0x10, 0}, {0x11, 0}, {0x12, 0},
      {0x13, 0}, {0x14, 0}, {0x15, 0}, {0x16, 0}, {0x17, 0}, {0x18, 0},
      {0x20, 0}, {0x21, 0}, {0x22, 0}, {0x23, 0}, {0x24, 0}, {0x25, 0},
      {0x26, 0}, {0x27, 0}, {0x30, 1}, {0x31, 1}, {0x38, 1}, {0x39, 1},
      {0x3A, 1}, {0x3B, 0}, {0x40, 2}, {0x41, 2}, {0x42, 2}, {0x43, 2},
      {0x44, 0},
  };
  for (int op = 0; op < 256; ++op) {
    const auto byte = static_cast<std::uint8_t>(op);
    int expected = -1;
    if (op >= 0x80) {
      expected = 0;  // extensions take their operands on the stack
    } else if (auto it = core.find(byte); it != core.end()) {
      expected = it->second;
    }
    EXPECT_EQ(operand_bytes(byte), expected) << "opcode " << op;
    EXPECT_EQ(mnemonic(byte).has_value(), expected >= 0) << "opcode " << op;
    if (auto name = mnemonic(byte)) {
      EXPECT_EQ(opcode_of(*name), byte) << *name;
    }
  }
}

core::FilteredPidSpec reference_pid() {
  core::FilteredPidSpec spec;
  spec.kp = 2.0;
  spec.ki = 0.05;
  spec.kd = 0.1;
  spec.setpoint = 50.0;
  spec.filter_tau_s = 2.0;
  spec.dt_s = 0.25;
  return spec;
}

TEST(Interpreter, PidCapsuleStats) {
  auto capsule = core::make_filtered_pid(1, "pid", reference_pid());
  ASSERT_TRUE(capsule.ok());
  VmHarness h;
  h.sensor_value = 47.0;
  ASSERT_TRUE(h.interp.run(*capsule));
  EXPECT_EQ(h.interp.last_stats().instructions, 61u);
  EXPECT_EQ(h.interp.last_stats().max_stack_depth, 3u);
  h.sensor_value = 53.0;  // the integrator state in the slots carries over
  ASSERT_TRUE(h.interp.run(*capsule));
  EXPECT_EQ(h.interp.last_stats().instructions, 55u);
  EXPECT_EQ(h.interp.last_stats().max_stack_depth, 3u);
}

TEST(Interpreter, CapsuleEditedAfterSealFailsEveryRun) {
  auto capsule = core::make_filtered_pid(1, "pid", reference_pid());
  ASSERT_TRUE(capsule.ok());
  VmHarness h;
  ASSERT_TRUE(h.interp.run(*capsule));
  // Flip one bit anywhere in the code: every misaligned position and both
  // ends of the sliced CRC's 8-byte blocks are covered.
  for (std::size_t at = 0; at < capsule->code.size(); ++at) {
    Capsule edited = *capsule;
    edited.code[at] ^= 0x10;
    const util::Status status = h.interp.run(edited);
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss) << "byte " << at;
    EXPECT_EQ(status.message(), "capsule 'pid' fails CRC") << "byte " << at;
  }
  // A truncated or extended code block fails too; a reseal restores it.
  Capsule shorter = *capsule;
  shorter.code.pop_back();
  EXPECT_EQ(h.interp.run(shorter).code(), util::StatusCode::kDataLoss);
  Capsule longer = *capsule;
  longer.code.push_back(0x00);
  EXPECT_EQ(h.interp.run(longer).code(), util::StatusCode::kDataLoss);
  longer.seal();
  EXPECT_TRUE(h.interp.run(longer));
}

// Parameterized arithmetic identity sweep: a op b computed by the VM must
// match native C++ for a grid of values.
struct BinOpCase {
  const char* mnemonic;
  double (*eval)(double, double);
};

class VmArithmetic
    : public ::testing::TestWithParam<std::tuple<BinOpCase, int, int>> {};

TEST_P(VmArithmetic, MatchesNative) {
  const auto& [op, a, b] = GetParam();
  if (std::string(op.mnemonic) == "div" && b == 0) GTEST_SKIP();
  VmHarness h;
  const std::string source = "pushi " + std::to_string(a) + "\npushi " +
                             std::to_string(b) + "\n" + op.mnemonic +
                             "\nactuate 0";
  ASSERT_TRUE(h.run(source));
  EXPECT_DOUBLE_EQ(h.actuated, op.eval(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VmArithmetic,
    ::testing::Combine(
        ::testing::Values(
            BinOpCase{"add", [](double a, double b) { return a + b; }},
            BinOpCase{"sub", [](double a, double b) { return a - b; }},
            BinOpCase{"mul", [](double a, double b) { return a * b; }},
            BinOpCase{"div", [](double a, double b) { return a / b; }},
            BinOpCase{"min", [](double a, double b) { return std::min(a, b); }},
            BinOpCase{"max", [](double a, double b) { return std::max(a, b); }}),
        ::testing::Values(-7, 0, 3),
        ::testing::Values(-2, 0, 5)));

}  // namespace
}  // namespace evm::vm
