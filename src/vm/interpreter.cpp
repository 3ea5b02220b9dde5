#include "vm/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/bytes.hpp"

namespace evm::vm {
namespace {

std::int16_t read_i16(std::span<const std::uint8_t> code, std::size_t pos) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(code[pos]) |
                                   (static_cast<std::uint16_t>(code[pos + 1]) << 8));
}

double read_f64(std::span<const std::uint8_t> code, std::size_t pos) {
  std::uint64_t bits = 0;
  for (int b = 0; b < 8; ++b) bits |= static_cast<std::uint64_t>(code[pos + b]) << (8 * b);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Destination of the branch whose i16 operand sits at `arg_at` (relative
/// to the byte after the operand), or -1 when it leaves [0, code.size()].
std::ptrdiff_t branch_target(std::span<const std::uint8_t> code, std::size_t arg_at) {
  const std::ptrdiff_t target =
      static_cast<std::ptrdiff_t>(arg_at + 2) + read_i16(code, arg_at);
  if (target < 0 || static_cast<std::size_t>(target) > code.size()) return -1;
  return target;
}

// Error statuses are built only on the failure path.
util::Status at_pc(util::StatusCode code, const char* what, std::size_t pc) {
  std::string message = what;
  message += " at pc ";
  message += std::to_string(pc);
  return {code, std::move(message)};
}
util::Status underflow_at(std::size_t pc) {
  return at_pc(util::StatusCode::kFailedPrecondition, "stack underflow", pc);
}
util::Status overflow_at(std::size_t pc) {
  return at_pc(util::StatusCode::kResourceExhausted, "stack overflow", pc);
}

}  // namespace

Interpreter::Interpreter(Environment env, ExecLimits limits)
    : env_(std::move(env)), limits_(limits) {
  stack_.reserve(limits_.stack_cells);
  rstack_.reserve(limits_.return_cells);
}

std::vector<std::uint8_t> Interpreter::save_slots() const {
  util::ByteWriter w;
  for (double v : slots_) w.f64(v);
  return w.take();
}

util::Status Interpreter::load_slots(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kSlots * 8) {
    return util::Status::invalid_argument("slot image size mismatch");
  }
  util::ByteReader r(bytes);
  for (auto& v : slots_) v = r.f64();
  return util::Status::ok();
}

util::Status Interpreter::register_extension(std::uint8_t slot, std::string name,
                                             ExtHandler handler) {
  if (slot >= kExtSlots) return util::Status::invalid_argument("extension slot out of range");
  if (extensions_[slot]) {
    return util::Status::already_exists("extension slot " + std::to_string(slot) +
                                        " already bound to " + extension_names_[slot]);
  }
  extensions_[slot] = std::move(handler);
  extension_names_[slot] = std::move(name);
  return util::Status::ok();
}

bool Interpreter::has_extension(std::uint8_t slot) const {
  return slot < kExtSlots && static_cast<bool>(extensions_[slot]);
}

util::Status Interpreter::run(const Capsule& capsule) {
  if (!capsule.crc_ok()) {
    return util::Status::data_loss("capsule '" + capsule.name + "' fails CRC");
  }
  return run(capsule.code);
}

util::Status Interpreter::run(std::span<const std::uint8_t> code) {
  stats_ = ExecStats{};
  // The stacks are member buffers, emptied here and never shrunk, so a run
  // allocates nothing. No extension handler or environment binding calls
  // back into run(), so one pair of buffers serves every run.
  std::vector<double>& stack = stack_;
  std::vector<std::size_t>& rstack = rstack_;
  stack.clear();
  rstack.clear();
  const std::size_t stack_cells = limits_.stack_cells;

  std::size_t pc = 0;
  while (pc < code.size()) {
    if (++stats_.instructions > limits_.max_instructions) {
      return util::Status::deadline_exceeded("instruction budget exhausted");
    }
    const std::uint8_t raw = code[pc];

    if (raw >= kExtSlots) {
      const std::uint8_t slot = raw - kExtSlots;
      if (!extensions_[slot]) {
        return util::Status::not_found("unbound extension instruction ext" +
                                       std::to_string(slot));
      }
      if (util::Status s = extensions_[slot](stack); !s) return s;
      // A handler may push; hold it to the same limit as the core ops.
      if (stack.size() > stack_cells) return overflow_at(pc);
      stats_.max_stack_depth = std::max<std::uint64_t>(stats_.max_stack_depth, stack.size());
      ++pc;
      continue;
    }

    const int operand = operand_bytes(raw);
    if (operand < 0) return at_pc(util::StatusCode::kInvalidArgument, "illegal opcode", pc);
    if (pc + 1 + static_cast<std::size_t>(operand) > code.size()) {
      return at_pc(util::StatusCode::kDataLoss, "truncated operand", pc);
    }
    const std::size_t arg_at = pc + 1;
    const std::size_t next = pc + 1 + static_cast<std::size_t>(operand);
    const std::size_t depth = stack.size();
    // (a b -- fn(a, b)); false on underflow.
    auto binary = [&](auto fn) {
      if (depth < 2) return false;
      const double b = stack[depth - 1];
      stack.pop_back();
      stack.back() = fn(stack.back(), b);
      return true;
    };

    switch (static_cast<Op>(raw)) {
      case Op::kNop: break;
      case Op::kHalt: return util::Status::ok();
      case Op::kPush:
        if (depth >= stack_cells) return overflow_at(pc);
        stack.push_back(read_f64(code, arg_at));
        break;
      case Op::kPushSmall:
        if (depth >= stack_cells) return overflow_at(pc);
        stack.push_back(static_cast<double>(read_i16(code, arg_at)));
        break;
      case Op::kDup:
        if (depth < 1) return underflow_at(pc);
        if (depth >= stack_cells) return overflow_at(pc);
        stack.push_back(stack.back());
        break;
      case Op::kDrop:
        if (depth < 1) return underflow_at(pc);
        stack.pop_back();
        break;
      case Op::kSwap:
        if (depth < 2) return underflow_at(pc);
        std::swap(stack[depth - 1], stack[depth - 2]);
        break;
      case Op::kOver:
        if (depth < 2) return underflow_at(pc);
        if (depth >= stack_cells) return overflow_at(pc);
        stack.push_back(stack[depth - 2]);
        break;
      case Op::kRot:  // (a b c -- b c a)
        if (depth < 3) return underflow_at(pc);
        std::rotate(stack.end() - 3, stack.end() - 2, stack.end());
        break;
      case Op::kAdd: if (!binary([](double a, double b) { return a + b; })) return underflow_at(pc); break;
      case Op::kSub: if (!binary([](double a, double b) { return a - b; })) return underflow_at(pc); break;
      case Op::kMul: if (!binary([](double a, double b) { return a * b; })) return underflow_at(pc); break;
      case Op::kDiv:
        if (depth >= 2 && stack[depth - 1] == 0.0) {
          return at_pc(util::StatusCode::kInvalidArgument, "division by zero", pc);
        }
        if (!binary([](double a, double b) { return a / b; })) return underflow_at(pc);
        break;
      case Op::kNeg:
        if (depth < 1) return underflow_at(pc);
        stack.back() = -stack.back();
        break;
      case Op::kAbs:
        if (depth < 1) return underflow_at(pc);
        stack.back() = std::fabs(stack.back());
        break;
      case Op::kMin: if (!binary([](double a, double b) { return std::min(a, b); })) return underflow_at(pc); break;
      case Op::kMax: if (!binary([](double a, double b) { return std::max(a, b); })) return underflow_at(pc); break;
      case Op::kClamp: {  // (x lo hi -- clamped)
        if (depth < 3) return underflow_at(pc);
        const double hi = stack[depth - 1];
        const double lo = stack[depth - 2];
        stack.resize(depth - 2);
        stack.back() = std::clamp(stack.back(), lo, hi);
        break;
      }
      case Op::kEq: if (!binary([](double a, double b) { return a == b ? 1.0 : 0.0; })) return underflow_at(pc); break;
      case Op::kLt: if (!binary([](double a, double b) { return a < b ? 1.0 : 0.0; })) return underflow_at(pc); break;
      case Op::kGt: if (!binary([](double a, double b) { return a > b ? 1.0 : 0.0; })) return underflow_at(pc); break;
      case Op::kLe: if (!binary([](double a, double b) { return a <= b ? 1.0 : 0.0; })) return underflow_at(pc); break;
      case Op::kGe: if (!binary([](double a, double b) { return a >= b ? 1.0 : 0.0; })) return underflow_at(pc); break;
      case Op::kAnd: if (!binary([](double a, double b) { return (a != 0.0 && b != 0.0) ? 1.0 : 0.0; })) return underflow_at(pc); break;
      case Op::kOr: if (!binary([](double a, double b) { return (a != 0.0 || b != 0.0) ? 1.0 : 0.0; })) return underflow_at(pc); break;
      case Op::kNot:
        if (depth < 1) return underflow_at(pc);
        stack.back() = stack.back() == 0.0 ? 1.0 : 0.0;
        break;
      case Op::kLoad: {
        const std::uint8_t slot = code[arg_at];
        if (slot >= kSlots) return util::Status::invalid_argument("slot out of range");
        if (depth >= stack_cells) return overflow_at(pc);
        stack.push_back(slots_[slot]);
        break;
      }
      case Op::kStore: {
        const std::uint8_t slot = code[arg_at];
        if (slot >= kSlots) return util::Status::invalid_argument("slot out of range");
        if (depth < 1) return underflow_at(pc);
        slots_[slot] = stack.back();
        stack.pop_back();
        break;
      }
      case Op::kSensor: {
        if (!env_.read_sensor) return util::Status::failed_precondition("no sensor binding");
        const double reading = env_.read_sensor(code[arg_at]);  // read even on overflow
        if (depth >= stack_cells) return overflow_at(pc);
        stack.push_back(reading);
        break;
      }
      case Op::kActuate: {
        if (!env_.write_actuator) return util::Status::failed_precondition("no actuator binding");
        if (depth < 1) return underflow_at(pc);
        const double value = stack.back();
        stack.pop_back();
        env_.write_actuator(code[arg_at], value);
        break;
      }
      case Op::kSend: {
        if (!env_.send) return util::Status::failed_precondition("no send binding");
        if (depth < 1) return underflow_at(pc);
        const double value = stack.back();
        stack.pop_back();
        env_.send(code[arg_at], value);
        break;
      }
      case Op::kNow: {
        const double seconds = env_.now_seconds ? env_.now_seconds() : 0.0;
        if (depth >= stack_cells) return overflow_at(pc);
        stack.push_back(seconds);
        break;
      }
      case Op::kJmp: {
        const std::ptrdiff_t target = branch_target(code, arg_at);
        if (target < 0) return at_pc(util::StatusCode::kInvalidArgument, "branch out of range", pc);
        pc = static_cast<std::size_t>(target);
        continue;
      }
      case Op::kJz:
      case Op::kJnz: {
        if (depth < 1) return underflow_at(pc);
        const double flag = stack.back();
        stack.pop_back();
        const bool take = (static_cast<Op>(raw) == Op::kJz) ? (flag == 0.0) : (flag != 0.0);
        if (!take) break;
        const std::ptrdiff_t target = branch_target(code, arg_at);
        if (target < 0) return at_pc(util::StatusCode::kInvalidArgument, "branch out of range", pc);
        pc = static_cast<std::size_t>(target);
        continue;
      }
      case Op::kCall: {
        if (rstack.size() >= limits_.return_cells) {
          return util::Status::resource_exhausted("return stack overflow");
        }
        const std::ptrdiff_t target = branch_target(code, arg_at);
        if (target < 0) return at_pc(util::StatusCode::kInvalidArgument, "call out of range", pc);
        rstack.push_back(next);
        pc = static_cast<std::size_t>(target);
        continue;
      }
      case Op::kRet:
        if (rstack.empty()) return util::Status::ok();  // top-level ret halts
        pc = rstack.back();
        rstack.pop_back();
        continue;
      default:
        return at_pc(util::StatusCode::kInvalidArgument, "illegal opcode", pc);
    }
    stats_.max_stack_depth = std::max<std::uint64_t>(stats_.max_stack_depth, stack.size());
    pc = next;
  }
  return util::Status::ok();
}

}  // namespace evm::vm
