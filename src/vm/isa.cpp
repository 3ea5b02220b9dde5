#include "vm/isa.hpp"

#include <array>

namespace evm::vm {
namespace {

struct OpInfo {
  Op op;
  const char* name;
  int operand_bytes;
};

// The one opcode table: mnemonics, operand widths and, derived from it
// below, the interpreter's flat operand-width lookup.
constexpr OpInfo kOps[] = {
    {Op::kNop, "nop", 0},       {Op::kHalt, "halt", 0},
    {Op::kPush, "push", 8},     {Op::kPushSmall, "pushi", 2},
    {Op::kDup, "dup", 0},       {Op::kDrop, "drop", 0},
    {Op::kSwap, "swap", 0},     {Op::kOver, "over", 0},
    {Op::kRot, "rot", 0},       {Op::kAdd, "add", 0},
    {Op::kSub, "sub", 0},       {Op::kMul, "mul", 0},
    {Op::kDiv, "div", 0},       {Op::kNeg, "neg", 0},
    {Op::kAbs, "abs", 0},       {Op::kMin, "min", 0},
    {Op::kMax, "max", 0},       {Op::kClamp, "clamp", 0},
    {Op::kEq, "eq", 0},         {Op::kLt, "lt", 0},
    {Op::kGt, "gt", 0},         {Op::kLe, "le", 0},
    {Op::kGe, "ge", 0},         {Op::kAnd, "and", 0},
    {Op::kOr, "or", 0},         {Op::kNot, "not", 0},
    {Op::kLoad, "load", 1},     {Op::kStore, "store", 1},
    {Op::kSensor, "sensor", 1}, {Op::kActuate, "actuate", 1},
    {Op::kSend, "send", 1},     {Op::kNow, "now", 0},
    {Op::kJmp, "jmp", 2},       {Op::kJz, "jz", 2},
    {Op::kJnz, "jnz", 2},       {Op::kCall, "call", 2},
    {Op::kRet, "ret", 0},
};

/// Operand width per core opcode (-1 = illegal), indexed by the raw byte.
constexpr std::array<std::int8_t, kExtSlots> kOperandBytes = [] {
  std::array<std::int8_t, kExtSlots> widths{};
  widths.fill(-1);
  for (const OpInfo& info : kOps) {
    widths[static_cast<std::uint8_t>(info.op)] =
        static_cast<std::int8_t>(info.operand_bytes);
  }
  return widths;
}();

const OpInfo* find(std::uint8_t opcode) {
  for (const OpInfo& info : kOps) {
    if (static_cast<std::uint8_t>(info.op) == opcode) return &info;
  }
  return nullptr;
}

}  // namespace

int operand_bytes(std::uint8_t opcode) {
  if (opcode >= kExtSlots) return 0;  // extensions take operands on the stack
  return kOperandBytes[opcode];
}

std::optional<std::string> mnemonic(std::uint8_t opcode) {
  if (opcode >= kExtSlots) {
    return "ext" + std::to_string(opcode - kExtSlots);
  }
  const OpInfo* info = find(opcode);
  if (info == nullptr) return std::nullopt;
  return std::string(info->name);
}

std::optional<std::uint8_t> opcode_of(const std::string& name) {
  for (const OpInfo& info : kOps) {
    if (name == info.name) return static_cast<std::uint8_t>(info.op);
  }
  if (name.rfind("ext", 0) == 0 && name.size() > 3) {
    const int slot = std::stoi(name.substr(3));
    if (slot >= 0 && slot < kExtSlots) {
      return static_cast<std::uint8_t>(kExtSlots + slot);
    }
  }
  return std::nullopt;
}

}  // namespace evm::vm
