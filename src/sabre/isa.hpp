#pragma once

#include <cstdint>
#include <string_view>

namespace ob::sabre {

// The Sabre-32 instruction set. The paper describes Sabre only as "a
// 32-bit RISC, designed in Handel-C ... Harvard architecture" with
// expandable program/data memories and memory-mapped peripherals; this is
// a concrete load/store ISA with those properties:
//
//   * 16 general registers, r0 hardwired to zero; r14 = link, r15 = stack
//   * fixed 32-bit instructions, Harvard program/data spaces
//   * program addresses are instruction indices (word-addressed)
//   * data addresses are byte addresses, word-aligned accesses only
//   * addresses with bit 31 set route to the peripheral bus
//
// Encoding (fields from the top): opcode[31:26], then
//   R-type:  rd[25:22] rs1[21:18] rs2[17:14]
//   I-type:  rd[25:22] rs1[21:18] imm18[17:0]   (ADDI..SW, LUI, JALR)
//   B-type:  rs1[25:22] rs2[21:18] imm18[17:0]  (branches, pc-relative)
//   J-type:  rd[25:22] imm22[21:0]              (JAL, pc-relative)

enum class Op : std::uint8_t {
    // R-type arithmetic/logic.
    kAdd = 0x00,
    kSub = 0x01,
    kAnd = 0x02,
    kOr = 0x03,
    kXor = 0x04,
    kSll = 0x05,
    kSrl = 0x06,
    kSra = 0x07,
    kMul = 0x08,
    kSlt = 0x09,
    kSltu = 0x0A,
    // I-type.
    kAddi = 0x10,
    kAndi = 0x11,
    kOri = 0x12,
    kXori = 0x13,
    kSlli = 0x14,
    kSrli = 0x15,
    kSrai = 0x16,
    kSlti = 0x17,
    kLui = 0x18,  ///< rd = imm18 << 14 (fills the upper bits)
    kLw = 0x19,   ///< rd = mem32[rs1 + imm]
    kSw = 0x1A,   ///< mem32[rs1 + imm] = rd
    // B-type (pc-relative, offset in instructions from pc+1).
    kBeq = 0x20,
    kBne = 0x21,
    kBlt = 0x22,
    kBge = 0x23,
    kBltu = 0x24,
    kBgeu = 0x25,
    // Jumps / system.
    kJal = 0x30,   ///< rd = pc+1; pc += 1 + imm22
    kJalr = 0x31,  ///< rd = pc+1; pc = rs1 + imm18 (absolute)
    kHalt = 0x3F,
};

[[nodiscard]] constexpr bool is_r_type(Op op) {
    return static_cast<std::uint8_t>(op) <= 0x0A;
}
[[nodiscard]] constexpr bool is_i_type(Op op) {
    const auto v = static_cast<std::uint8_t>(op);
    return (v >= 0x10 && v <= 0x1A) || op == Op::kJalr;
}
[[nodiscard]] constexpr bool is_b_type(Op op) {
    const auto v = static_cast<std::uint8_t>(op);
    return v >= 0x20 && v <= 0x25;
}
[[nodiscard]] constexpr bool is_j_type(Op op) { return op == Op::kJal; }

/// Decoded instruction. `imm` is already sign/zero-extended per the op's
/// convention (sign-extended except the logical immediates and LUI).
struct Instruction {
    Op op = Op::kHalt;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::int32_t imm = 0;

    friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// One predecoded program word: the exact `decode()` result plus the
/// dispatch index and cycle costs `step()` would otherwise recompute for
/// every instruction of every epoch. Built once at program load.
/// 16-byte aligned so the executor's fetch indexes the predecoded stream
/// with a single shift (a 12-byte stride costs an extra multiply on the
/// fetch's critical path) and every instruction sits in one cache line.
struct alignas(16) DecodedInst {
    Instruction ins{};         ///< fields extracted, imm sign-extended
    std::uint8_t opid = 0;     ///< raw 6-bit opcode: dispatch-table index
    std::uint8_t cost = 1;     ///< base_cycles(ins.op)
    std::uint8_t worst_cost = 1;  ///< cost + taken-branch penalty if branch
    /// Set by DecodedProgram on the lw that heads a firmware FPU protocol
    /// sequence: its length in instructions (0 when this word heads none),
    /// its total cycles, and the FPU command it issues.
    std::uint8_t fused_len = 0;
    std::uint8_t fused_cycles = 0;
    std::uint8_t fused_cmd = 0;
};
static_assert(sizeof(DecodedInst) == 16);

/// The opcode field is 6 bits, so dispatch tables have 64 slots.
inline constexpr std::size_t kOpcodeSlots = 64;

/// Encode to the 32-bit word; throws std::invalid_argument on field
/// overflow (register index > 15, immediate out of range).
[[nodiscard]] std::uint32_t encode(const Instruction& ins);

/// Decode a word; throws std::invalid_argument on an unknown opcode.
[[nodiscard]] Instruction decode(std::uint32_t word);

/// Decode one word into its cached-dispatch form (opcode id and cycle
/// costs precomputed); throws std::invalid_argument like `decode()`.
[[nodiscard]] DecodedInst predecode(std::uint32_t word);

/// Mnemonic for diagnostics/disassembly.
[[nodiscard]] std::string_view mnemonic(Op op);

/// Cycle cost model (documented in DESIGN.md; used by the ISS and the
/// performance bench).
[[nodiscard]] constexpr unsigned base_cycles(Op op) {
    switch (op) {
        case Op::kLw:
        case Op::kSw:
            return 2;
        case Op::kMul:
            return 3;
        case Op::kJal:
        case Op::kJalr:
            return 2;
        default:
            return 1;
    }
}
/// Extra cycle charged when a branch is taken.
inline constexpr unsigned kBranchTakenExtra = 1;

inline constexpr std::size_t kNumRegisters = 16;
inline constexpr std::uint8_t kLinkRegister = 14;
inline constexpr std::uint8_t kStackRegister = 15;

/// Program memory: 8 KByte of BlockRAM in the paper's Virtex-II build.
inline constexpr std::size_t kProgramWords = 2048;
/// Data memory: 64 KByte.
inline constexpr std::size_t kDataBytes = 64 * 1024;
/// Addresses with this bit set are peripheral-bus accesses.
inline constexpr std::uint32_t kPeripheralBit = 0x80000000u;

}  // namespace ob::sabre
