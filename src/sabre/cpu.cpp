#include "sabre/cpu.hpp"

#include <cstring>
#include <string>

namespace ob::sabre {

namespace {

/// `op rd, imm(zero)` on an aligned, in-range data-memory word.
[[nodiscard]] bool data_access(const Instruction& ins, Op op, std::uint8_t rd) {
    return ins.op == op && ins.rd == rd && ins.rs1 == 0 && ins.imm >= 0 &&
           ins.imm % 4 == 0 &&
           static_cast<std::size_t>(ins.imm) + 4 <= kDataBytes;
}

/// `op rd, (periph::kFpu + reg)(rb)`: an access to an FPU register.
[[nodiscard]] bool fpu_access(const Instruction& ins, Op op, std::uint8_t rd,
                              std::uint8_t rb, std::uint32_t reg) {
    return ins.op == op && ins.rd == rd && ins.rs1 == rb &&
           ins.imm == static_cast<std::int32_t>(periph::kFpu + reg);
}

/// Length of the FPU protocol sequence headed by code[i] (8 with a B
/// operand, 6 without; see DecodedProgram), or 0 when it heads none.
[[nodiscard]] std::size_t fpu_sequence_length(
    const std::vector<DecodedInst>& code, std::size_t i) {
    const std::size_t n = code.size();
    if (i + 6 > n) return 0;
    const auto at = [&](std::size_t k) -> const Instruction& {
        return code[i + k].ins;
    };
    const std::uint8_t rd = at(0).rd;
    const std::uint8_t rb = at(1).rs1;
    if (rd == 0 || rd == rb || !data_access(at(0), Op::kLw, rd) ||
        !fpu_access(at(1), Op::kSw, rd, rb, 0x0))
        return 0;
    std::size_t k = 2;
    if (i + 8 <= n && data_access(at(2), Op::kLw, rd) &&
        fpu_access(at(3), Op::kSw, rd, rb, 0x4))
        k = 4;
    if (i + k + 4 > n) return 0;
    const Instruction& cmd = at(k);
    if (cmd.op != Op::kAddi || cmd.rd != rd || cmd.rs1 != 0 || cmd.imm < 0 ||
        cmd.imm > static_cast<std::int32_t>(FpuPeripheral::kAbs))
        return 0;
    if (!fpu_access(at(k + 1), Op::kSw, rd, rb, 0x8) ||
        !fpu_access(at(k + 2), Op::kLw, rd, rb, 0xC) ||
        !data_access(at(k + 3), Op::kSw, rd))
        return 0;
    return k + 4;
}

}  // namespace

DecodedProgram::DecodedProgram(Program program)
    : words_(std::move(program.words)) {
    if (words_.size() > kProgramWords)
        throw std::invalid_argument("SabreCpu: program exceeds 8KB");
    code_.reserve(words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) {
        try {
            code_.push_back(predecode(words_[i]));
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument("program word " + std::to_string(i) +
                                        ": " + e.what());
        }
    }
    for (std::size_t i = 0; i < code_.size(); ++i) {
        const std::size_t len = fpu_sequence_length(code_, i);
        if (len == 0) continue;
        unsigned cycles = 0;
        for (std::size_t k = 0; k < len; ++k) cycles += code_[i + k].cost;
        DecodedInst& head = code_[i];
        head.fused_len = static_cast<std::uint8_t>(len);
        head.fused_cycles = static_cast<std::uint8_t>(cycles);
        head.fused_cmd = static_cast<std::uint8_t>(code_[i + len - 4].ins.imm);
    }
}

SabreCpu::SabreCpu(Program program, DispatchMode mode)
    : SabreCpu(std::make_shared<const DecodedProgram>(std::move(program)),
               mode) {}

SabreCpu::SabreCpu(std::shared_ptr<const DecodedProgram> image,
                   DispatchMode mode)
    : image_(std::move(image)), mode_(mode) {
    if (!image_) throw std::invalid_argument("SabreCpu: null program image");
}

std::uint32_t SabreCpu::load_data(std::uint32_t addr) const {
    if (addr % 4 != 0 || addr + 4 > kDataBytes)
        throw SabreTrap(pc_, "host load_data fault");
    std::uint32_t v;
    std::memcpy(&v, &data_[addr], 4);
    return v;
}

void SabreCpu::store_data(std::uint32_t addr, std::uint32_t value) {
    if (addr % 4 != 0 || addr + 4 > kDataBytes)
        throw SabreTrap(pc_, "host store_data fault");
    std::memcpy(&data_[addr], &value, 4);
}

// Loads/stores are ~87% of the boresight instruction stream; forcing the
// accessors into the batched loop keeps its locals (pc, counters) out of
// spill slots across what would otherwise be a call per memory op.
[[gnu::always_inline]] inline std::uint32_t SabreCpu::mem_read(
    std::uint32_t addr, std::uint32_t pc) {
    if ((addr & kPeripheralBit) != 0) return bus_.read(addr & ~kPeripheralBit);
    if (addr % 4 != 0) throw SabreTrap(pc, "misaligned load");
    if (addr + 4 > kDataBytes) throw SabreTrap(pc, "load out of range");
    std::uint32_t v;
    std::memcpy(&v, &data_[addr], 4);
    return v;
}

[[gnu::always_inline]] inline void SabreCpu::mem_write(std::uint32_t addr,
                                                       std::uint32_t value,
                                                       std::uint32_t pc) {
    if ((addr & kPeripheralBit) != 0) {
        const std::uint32_t off = addr & ~kPeripheralBit;
        bus_.write(off, value);
        // Flag a completed store into the watched window (if any) so
        // run_until_bus_write can hand control back to the host poll.
        watch_hit_ |=
            (off & ~(SabreBus::kWindowBytes - 1)) == watch_window_;
        return;
    }
    if (addr % 4 != 0) throw SabreTrap(pc, "misaligned store");
    if (addr + 4 > kDataBytes) throw SabreTrap(pc, "store out of range");
    std::memcpy(&data_[addr], &value, 4);
}

// ---------------------------------------------------------------------------
// Cached dispatch: one handler per opcode, indexed by the raw 6-bit opcode
// id cached in DecodedInst. Handlers run after cycles/retired accounting
// and are responsible for the register write and the pc update, in the
// same order the reference interpreter performs them (faults leave regs
// and pc untouched).
// ---------------------------------------------------------------------------

struct SabreOps {
    /// Handlers thread the execution state through registers: they take
    /// the current pc by value and return the next pc in the low word
    /// with any taken-branch cycle penalty in the high word, so the
    /// batched executor's fetch and cycle accounting never wait on a
    /// member store/reload round-trip through memory. A handler that
    /// throws returns nothing — the caller leaves pc_ at the faulting
    /// instruction, and traps quote the pc they were handed.
    using Fn = std::uint64_t (*)(SabreCpu&, const Instruction&,
                                 std::uint32_t);

    static std::uint64_t illegal(SabreCpu&, const Instruction&,
                                 std::uint32_t pc) {
        // Unreachable for any image DecodedProgram accepted; kept so a
        // stray table slot faults like every other CPU fault.
        throw SabreTrap(pc, "illegal instruction");
    }

    // R-type arithmetic/logic.
    static std::uint64_t add(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] + c.regs_[d.rs2]);
        return pc + 1;
    }
    static std::uint64_t sub(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] - c.regs_[d.rs2]);
        return pc + 1;
    }
    static std::uint64_t and_(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] & c.regs_[d.rs2]);
        return pc + 1;
    }
    static std::uint64_t or_(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] | c.regs_[d.rs2]);
        return pc + 1;
    }
    static std::uint64_t xor_(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] ^ c.regs_[d.rs2]);
        return pc + 1;
    }
    static std::uint64_t sll(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] << (c.regs_[d.rs2] & 31));
        return pc + 1;
    }
    static std::uint64_t srl(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] >> (c.regs_[d.rs2] & 31));
        return pc + 1;
    }
    static std::uint64_t sra(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(c.regs_[d.rs1]) >>
                           (c.regs_[d.rs2] & 31)));
        return pc + 1;
    }
    static std::uint64_t mul(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd,
                 static_cast<std::uint32_t>(
                     static_cast<std::int64_t>(
                         static_cast<std::int32_t>(c.regs_[d.rs1])) *
                     static_cast<std::int32_t>(c.regs_[d.rs2])));
        return pc + 1;
    }
    static std::uint64_t slt(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, static_cast<std::int32_t>(c.regs_[d.rs1]) <
                               static_cast<std::int32_t>(c.regs_[d.rs2])
                           ? 1
                           : 0);
        return pc + 1;
    }
    static std::uint64_t sltu(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] < c.regs_[d.rs2] ? 1 : 0);
        return pc + 1;
    }

    // I-type.
    static std::uint64_t addi(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] + static_cast<std::uint32_t>(d.imm));
        return pc + 1;
    }
    static std::uint64_t andi(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] & static_cast<std::uint32_t>(d.imm));
        return pc + 1;
    }
    static std::uint64_t ori(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] | static_cast<std::uint32_t>(d.imm));
        return pc + 1;
    }
    static std::uint64_t xori(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] ^ static_cast<std::uint32_t>(d.imm));
        return pc + 1;
    }
    static std::uint64_t slli(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] << (d.imm & 31));
        return pc + 1;
    }
    static std::uint64_t srli(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, c.regs_[d.rs1] >> (d.imm & 31));
        return pc + 1;
    }
    static std::uint64_t srai(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd, static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(c.regs_[d.rs1]) >>
                           (d.imm & 31)));
        return pc + 1;
    }
    static std::uint64_t slti(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        c.set_rd(d.rd,
                 static_cast<std::int32_t>(c.regs_[d.rs1]) < d.imm ? 1 : 0);
        return pc + 1;
    }
    static std::uint64_t lui(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        c.set_rd(d.rd, static_cast<std::uint32_t>(d.imm) << 14);
        return pc + 1;
    }
    static std::uint64_t lw(SabreCpu& c, const Instruction& d,
                            std::uint32_t pc) {
        c.set_rd(d.rd, c.mem_read(c.regs_[d.rs1] +
                                      static_cast<std::uint32_t>(d.imm),
                                  pc));
        return pc + 1;
    }
    static std::uint64_t sw(SabreCpu& c, const Instruction& d,
                            std::uint32_t pc) {
        c.mem_write(c.regs_[d.rs1] + static_cast<std::uint32_t>(d.imm),
                    c.regs_[d.rd], pc);
        return pc + 1;
    }

    // B-type: comparands live in rs1/rs2 fields.
    static std::uint64_t beq(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        if (c.regs_[d.rs1] == c.regs_[d.rs2]) return c.take_branch(pc, d.imm);
        return pc + 1;
    }
    static std::uint64_t bne(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        if (c.regs_[d.rs1] != c.regs_[d.rs2]) return c.take_branch(pc, d.imm);
        return pc + 1;
    }
    static std::uint64_t blt(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        if (static_cast<std::int32_t>(c.regs_[d.rs1]) <
            static_cast<std::int32_t>(c.regs_[d.rs2]))
            return c.take_branch(pc, d.imm);
        return pc + 1;
    }
    static std::uint64_t bge(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        if (static_cast<std::int32_t>(c.regs_[d.rs1]) >=
            static_cast<std::int32_t>(c.regs_[d.rs2]))
            return c.take_branch(pc, d.imm);
        return pc + 1;
    }
    static std::uint64_t bltu(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        if (c.regs_[d.rs1] < c.regs_[d.rs2]) return c.take_branch(pc, d.imm);
        return pc + 1;
    }
    static std::uint64_t bgeu(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        if (c.regs_[d.rs1] >= c.regs_[d.rs2]) return c.take_branch(pc, d.imm);
        return pc + 1;
    }

    // Jumps / system.
    static std::uint64_t jal(SabreCpu& c, const Instruction& d,
                             std::uint32_t pc) {
        const std::int64_t target = static_cast<std::int64_t>(pc) + 1 + d.imm;
        c.check_jump_target(target, pc);
        c.set_rd(d.rd, pc + 1);
        return static_cast<std::uint32_t>(target);
    }
    static std::uint64_t jalr(SabreCpu& c, const Instruction& d,
                              std::uint32_t pc) {
        const std::int64_t target =
            static_cast<std::int64_t>(c.regs_[d.rs1]) + d.imm;
        c.check_jump_target(target, pc);
        c.set_rd(d.rd, pc + 1);
        return static_cast<std::uint32_t>(target);
    }
    static std::uint64_t halt(SabreCpu& c, const Instruction&,
                              std::uint32_t pc) {
        c.halted_ = true;
        return pc + 1;
    }

    /// Loop-invariant bus-routing state the batched executor hoists into
    /// registers: the devirtualized FPU window and the watched window.
    /// Handler side effects cannot change these (the bus topology is
    /// frozen after construction and the watch window is pinned for the
    /// whole run), but the compiler cannot prove that across the opaque
    /// device calls, so the executor passes a by-value snapshot instead
    /// of re-reading the members on every access.
    struct BusFast {
        FpuPeripheral* fpu;
        std::uint32_t fpu_window;
        std::uint32_t watch_window;
    };

    /// Batched-executor fast path for lw: data memory and the FPU window
    /// complete inline; any other access returns false WITHOUT side
    /// effects so the caller can flush bus-observable state and re-run
    /// the access through the shared lw handler. Address decode and the
    /// data-memory body mirror mem_read exactly (the dispatch-mode
    /// differential fuzz holds them in lockstep).
    [[gnu::always_inline]] static inline bool lw_fast(SabreCpu& c,
                                                      const Instruction& d,
                                                      const BusFast& bf) {
        const std::uint32_t addr =
            c.regs_[d.rs1] + static_cast<std::uint32_t>(d.imm);
        if ((addr & kPeripheralBit) != 0) {
            const std::uint32_t off = addr & ~kPeripheralBit;
            if (off / SabreBus::kWindowBytes != bf.fpu_window) return false;
            c.set_rd(d.rd, bf.fpu->FpuPeripheral::read(
                               off & (SabreBus::kWindowBytes - 1)));
            return true;
        }
        if (addr % 4 != 0 || addr + 4 > kDataBytes) return false;  // traps
        std::uint32_t v;
        std::memcpy(&v, &c.data_[addr], 4);
        c.set_rd(d.rd, v);
        return true;
    }

    /// Batched-executor fused op for a marked FPU protocol sequence (see
    /// DecodedProgram): reads A (and B) from data memory, latches them and
    /// issues the command through the same FpuPeripheral register writes
    /// the stores perform, then writes the result to D and rd. Returns
    /// false WITHOUT side effects unless rB + periph::kFpu is offset 0 of
    /// the bus's FPU window and that window is not watched; the caller has
    /// already checked the cycle budget. Nothing in the sequence can trap:
    /// its data addresses and command were validated at predecode.
    [[gnu::always_inline]] static inline bool fused_fpu(SabreCpu& c,
                                                        const DecodedInst* di,
                                                        const BusFast& bf) {
        const std::uint32_t base = c.regs_[di[1].ins.rs1] + periph::kFpu;
        const std::uint32_t off = base & ~kPeripheralBit;
        if ((base & kPeripheralBit) == 0 ||
            off / SabreBus::kWindowBytes != bf.fpu_window ||
            off % SabreBus::kWindowBytes != 0 || off == bf.watch_window)
            return false;
        const auto data = [&c](const Instruction& ins) -> std::uint8_t* {
            return &c.data_[static_cast<std::uint32_t>(ins.imm)];
        };
        std::uint32_t v;
        std::memcpy(&v, data(di[0].ins), 4);
        FpuPeripheral& fpu = *bf.fpu;
        fpu.FpuPeripheral::write(0x0, v);
        if (di->fused_len == 8) {
            std::memcpy(&v, data(di[2].ins), 4);
            fpu.FpuPeripheral::write(0x4, v);
        }
        fpu.FpuPeripheral::write(0x8, di->fused_cmd);
        v = fpu.FpuPeripheral::read(0xC);
        std::memcpy(data(di[di->fused_len - 1].ins), &v, 4);
        c.regs_[di->ins.rd] = v;
        return true;
    }

    /// sw_fast outcome. The fast path reports whether the store hit the
    /// watch window instead of setting `watch_hit_` itself, so the
    /// executor's post-store stop check never has to re-read the member
    /// (which the inlined FPU stores would otherwise force it to reload —
    /// the compiler cannot prove a store through the FPU pointer does not
    /// alias it).
    enum SwFast : std::uint8_t {
        kSwFallback = 0,  ///< not handled; re-run through the shared sw
        kSwDone = 1,      ///< store completed, watch window untouched
        kSwWatchHit = 2,  ///< store completed into the watched window
    };

    /// Batched-executor fast path for sw; the FPU branch performs the
    /// same write-then-watch-check sequence as mem_write (a throwing FPU
    /// command propagates before the watch outcome is applied there too).
    [[gnu::always_inline]] static inline SwFast sw_fast(SabreCpu& c,
                                                        const Instruction& d,
                                                        const BusFast& bf) {
        const std::uint32_t addr =
            c.regs_[d.rs1] + static_cast<std::uint32_t>(d.imm);
        if ((addr & kPeripheralBit) != 0) {
            const std::uint32_t off = addr & ~kPeripheralBit;
            if (off / SabreBus::kWindowBytes != bf.fpu_window)
                return kSwFallback;
            bf.fpu->FpuPeripheral::write(off & (SabreBus::kWindowBytes - 1),
                                         c.regs_[d.rd]);
            return (off & ~(SabreBus::kWindowBytes - 1)) == bf.watch_window
                       ? kSwWatchHit
                       : kSwDone;
        }
        if (addr % 4 != 0 || addr + 4 > kDataBytes)
            return kSwFallback;  // traps on the slow path
        std::memcpy(&c.data_[addr], &c.regs_[d.rd], 4);
        return kSwDone;
    }
};

namespace {

[[nodiscard]] constexpr std::size_t slot(Op op) {
    return static_cast<std::size_t>(op);
}

[[nodiscard]] constexpr std::array<SabreOps::Fn, kOpcodeSlots>
make_dispatch_table() {
    std::array<SabreOps::Fn, kOpcodeSlots> t{};
    for (auto& fn : t) fn = &SabreOps::illegal;
    t[slot(Op::kAdd)] = &SabreOps::add;
    t[slot(Op::kSub)] = &SabreOps::sub;
    t[slot(Op::kAnd)] = &SabreOps::and_;
    t[slot(Op::kOr)] = &SabreOps::or_;
    t[slot(Op::kXor)] = &SabreOps::xor_;
    t[slot(Op::kSll)] = &SabreOps::sll;
    t[slot(Op::kSrl)] = &SabreOps::srl;
    t[slot(Op::kSra)] = &SabreOps::sra;
    t[slot(Op::kMul)] = &SabreOps::mul;
    t[slot(Op::kSlt)] = &SabreOps::slt;
    t[slot(Op::kSltu)] = &SabreOps::sltu;
    t[slot(Op::kAddi)] = &SabreOps::addi;
    t[slot(Op::kAndi)] = &SabreOps::andi;
    t[slot(Op::kOri)] = &SabreOps::ori;
    t[slot(Op::kXori)] = &SabreOps::xori;
    t[slot(Op::kSlli)] = &SabreOps::slli;
    t[slot(Op::kSrli)] = &SabreOps::srli;
    t[slot(Op::kSrai)] = &SabreOps::srai;
    t[slot(Op::kSlti)] = &SabreOps::slti;
    t[slot(Op::kLui)] = &SabreOps::lui;
    t[slot(Op::kLw)] = &SabreOps::lw;
    t[slot(Op::kSw)] = &SabreOps::sw;
    t[slot(Op::kBeq)] = &SabreOps::beq;
    t[slot(Op::kBne)] = &SabreOps::bne;
    t[slot(Op::kBlt)] = &SabreOps::blt;
    t[slot(Op::kBge)] = &SabreOps::bge;
    t[slot(Op::kBltu)] = &SabreOps::bltu;
    t[slot(Op::kBgeu)] = &SabreOps::bgeu;
    t[slot(Op::kJal)] = &SabreOps::jal;
    t[slot(Op::kJalr)] = &SabreOps::jalr;
    t[slot(Op::kHalt)] = &SabreOps::halt;
    return t;
}

constexpr std::array<SabreOps::Fn, kOpcodeSlots> kDispatch =
    make_dispatch_table();

}  // namespace

bool SabreCpu::step() {
    if (halted_) return false;
    if (pc_ >= image_->size()) throw SabreTrap(pc_, "pc out of program");
    if (mode_ == DispatchMode::kCached)
        return step_cached(image_->code()[pc_]);
    return step_interpreted(image_->words()[pc_]);
}

bool SabreCpu::step_cached(const DecodedInst& di) {
    if (trace_) trace_(pc_, di.ins);
    cycles_ += di.cost;
    ++retired_;
    const std::uint64_t r = kDispatch[di.opid](*this, di.ins, pc_);
    cycles_ += r >> 32;
    pc_ = static_cast<std::uint32_t>(r);
    return !halted_;
}

// Reference interpreter: fetch/decode every step, execute through one big
// switch. Kept as the differential-testing oracle for the cached path —
// architectural state (regs, data memory, cycles, retired, trace-hook
// sequence) must stay bit-identical between the two modes.
bool SabreCpu::step_interpreted(std::uint32_t word) {
    Instruction ins;
    try {
        ins = decode(word);
    } catch (const std::invalid_argument& e) {
        // Unreachable: predecode validated every word at load. A residual
        // decode fault still surfaces as a trap, never a naked
        // invalid_argument with no pc context.
        throw SabreTrap(pc_, e.what());
    }
    if (trace_) trace_(pc_, ins);

    cycles_ += base_cycles(ins.op);
    ++retired_;
    std::uint32_t next_pc = pc_ + 1;

    const std::uint32_t a = regs_[ins.rs1];
    const std::uint32_t b = regs_[ins.rs2];
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    std::uint32_t rd_value = 0;
    bool writes_rd = true;

    switch (ins.op) {
        case Op::kAdd: rd_value = a + b; break;
        case Op::kSub: rd_value = a - b; break;
        case Op::kAnd: rd_value = a & b; break;
        case Op::kOr: rd_value = a | b; break;
        case Op::kXor: rd_value = a ^ b; break;
        case Op::kSll: rd_value = a << (b & 31); break;
        case Op::kSrl: rd_value = a >> (b & 31); break;
        case Op::kSra:
            rd_value = static_cast<std::uint32_t>(sa >> (b & 31));
            break;
        case Op::kMul:
            rd_value = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(sa) * sb);
            break;
        case Op::kSlt: rd_value = sa < sb ? 1 : 0; break;
        case Op::kSltu: rd_value = a < b ? 1 : 0; break;

        case Op::kAddi:
            rd_value = a + static_cast<std::uint32_t>(ins.imm);
            break;
        case Op::kAndi:
            rd_value = a & static_cast<std::uint32_t>(ins.imm);
            break;
        case Op::kOri:
            rd_value = a | static_cast<std::uint32_t>(ins.imm);
            break;
        case Op::kXori:
            rd_value = a ^ static_cast<std::uint32_t>(ins.imm);
            break;
        case Op::kSlli: rd_value = a << (ins.imm & 31); break;
        case Op::kSrli: rd_value = a >> (ins.imm & 31); break;
        case Op::kSrai:
            rd_value = static_cast<std::uint32_t>(sa >> (ins.imm & 31));
            break;
        case Op::kSlti: rd_value = sa < ins.imm ? 1 : 0; break;
        case Op::kLui:
            rd_value = static_cast<std::uint32_t>(ins.imm) << 14;
            break;
        case Op::kLw:
            rd_value = mem_read(a + static_cast<std::uint32_t>(ins.imm), pc_);
            break;
        case Op::kSw:
            mem_write(a + static_cast<std::uint32_t>(ins.imm), regs_[ins.rd],
                      pc_);
            writes_rd = false;
            break;

        case Op::kBeq:
        case Op::kBne:
        case Op::kBlt:
        case Op::kBge:
        case Op::kBltu:
        case Op::kBgeu: {
            // B-type: comparands live in rs1/rs2 fields.
            const std::uint32_t x = regs_[ins.rs1];
            const std::uint32_t y = regs_[ins.rs2];
            const auto sx = static_cast<std::int32_t>(x);
            const auto sy = static_cast<std::int32_t>(y);
            bool taken = false;
            switch (ins.op) {
                case Op::kBeq: taken = x == y; break;
                case Op::kBne: taken = x != y; break;
                case Op::kBlt: taken = sx < sy; break;
                case Op::kBge: taken = sx >= sy; break;
                case Op::kBltu: taken = x < y; break;
                case Op::kBgeu: taken = x >= y; break;
                default: break;
            }
            if (taken) {
                next_pc = pc_ + 1 + static_cast<std::uint32_t>(ins.imm);
                cycles_ += kBranchTakenExtra;
            }
            writes_rd = false;
            break;
        }

        case Op::kJal: {
            const std::int64_t target =
                static_cast<std::int64_t>(pc_) + 1 + ins.imm;
            check_jump_target(target, pc_);
            rd_value = pc_ + 1;
            next_pc = static_cast<std::uint32_t>(target);
            break;
        }
        case Op::kJalr: {
            const std::int64_t target =
                static_cast<std::int64_t>(a) + ins.imm;
            check_jump_target(target, pc_);
            rd_value = pc_ + 1;
            next_pc = static_cast<std::uint32_t>(target);
            break;
        }

        case Op::kHalt:
            halted_ = true;
            writes_rd = false;
            break;
    }

    if (writes_rd && ins.rd != 0) regs_[ins.rd] = rd_value;
    regs_[0] = 0;
    pc_ = next_pc;
    return !halted_;
}

std::size_t SabreCpu::run_stepwise(std::uint64_t max_cycles,
                                   bool stop_on_watch) {
    std::size_t n = 0;
    while (!halted_ && !(stop_on_watch && watch_hit_)) {
        // Stop-at-or-before: issue an instruction only when even its
        // worst-case cost fits the budget. A pc outside the program falls
        // through to step(), which raises the usual fetch trap.
        if (pc_ < image_->size() &&
            cycles_ + image_->code()[pc_].worst_cost > max_cycles)
            break;
        step();
        ++n;
    }
    return n;
}

// The cached-mode hot loop: no per-step function call, no trace or mode
// re-check, and every opcode executes through the inlined SabreOps bodies
// (the threaded code and the function table share one handler per op, so
// the two paths cannot diverge). The pc and the cycle/retired counters
// live in locals the whole loop — handlers take the pc by value and
// return the packed next-pc/branch-penalty word — and are written back to
// the members on every exit, including a trap, so faults still leave pc_
// at the faulting instruction with its cycles charged. `cycles_` is
// additionally flushed before every memory op: a bus peripheral may
// observe the live counter (CounterPeripheral), and the instruction's own
// cost is charged before it executes, exactly as in run_stepwise. Budget
// and fault semantics are those of run_stepwise, instruction for
// instruction.
//
// On GNU-compatible compilers the dispatch is token-threaded (computed
// goto): each handler tail re-fetches and jumps through its own indirect
// branch, giving the branch predictor per-opcode context instead of one
// shared switch site. Elsewhere the per-step loop is used — slower, but
// bit-identical.
std::size_t SabreCpu::run_batched(std::uint64_t max_cycles,
                                  bool stop_on_watch) {
#if defined(__GNUC__) || defined(__clang__)
// Label addresses and computed goto are the point of this branch; the
// whole function already falls back to run_stepwise elsewhere.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
    const DecodedInst* code = image_->code().data();
    const auto limit = static_cast<std::uint32_t>(image_->size());
    std::uint32_t pc = pc_;
    std::uint64_t cyc = cycles_;
    std::uint64_t ret = retired_;
    const std::uint64_t ret0 = ret;
    // Label-address table indexed by the raw 6-bit opcode (same layout as
    // kDispatch); unassigned slots fall through to the table's illegal
    // handler.
    static const void* const kLabels[kOpcodeSlots] = {
        &&L_add,  &&L_sub,  &&L_and,  &&L_or,    // 0x00-0x03
        &&L_xor,  &&L_sll,  &&L_srl,  &&L_sra,   // 0x04-0x07
        &&L_mul,  &&L_slt,  &&L_sltu, &&L_other,  // 0x08-0x0B
        &&L_other, &&L_other, &&L_other, &&L_other,
        &&L_addi, &&L_andi, &&L_ori,  &&L_xori,  // 0x10-0x13
        &&L_slli, &&L_srli, &&L_srai, &&L_slti,  // 0x14-0x17
        &&L_lui,  &&L_lw,   &&L_sw,   &&L_other,  // 0x18-0x1B
        &&L_other, &&L_other, &&L_other, &&L_other,
        &&L_beq,  &&L_bne,  &&L_blt,  &&L_bge,   // 0x20-0x23
        &&L_bltu, &&L_bgeu, &&L_other, &&L_other,  // 0x24-0x27
        &&L_other, &&L_other, &&L_other, &&L_other,
        &&L_other, &&L_other, &&L_other, &&L_other,
        &&L_jal,  &&L_jalr, &&L_other, &&L_other,  // 0x30-0x33
        &&L_other, &&L_other, &&L_other, &&L_other,
        &&L_other, &&L_other, &&L_other, &&L_other,
        &&L_other, &&L_other, &&L_other, &&L_halt,  // 0x3C-0x3F
    };
    const DecodedInst* di;
    std::uint64_t r;
    // Snapshot of the frozen bus-routing state (see SabreOps::BusFast):
    // lets lw/sw keep the FPU window and watch window in registers instead
    // of re-reading members the compiler must assume any device call may
    // have changed. A null FPU is safe: the window sentinel 0xFFFFFFFF can
    // never match a masked offset's window.
    const SabreOps::BusFast bus_fast{bus_.fpu(), bus_.fpu_window(),
                                     watch_window_};

// Budget check, per-instruction accounting, fetch, and the threaded jump
// — replicated into every handler tail. The halt and watch-hit stop
// conditions are NOT re-checked here: inside the loop `halted_` can only
// transition at the halt tail and `watch_hit_` at a completed store, so
// those tails perform the exit check themselves (the entry fetch below
// handles a CPU that was already halted or watched when run_batched was
// called). The generic L_other tail re-checks both, as its table handlers
// are opaque to this reasoning.
#define OB_SABRE_FETCH()                              \
    do {                                              \
        if (pc >= limit) {                            \
            pc_ = pc;                                 \
            cycles_ = cyc;                            \
            retired_ = ret;                           \
            step(); /* raises the usual fetch trap */ \
        }                                             \
        di = code + pc;                               \
        if (cyc + di->worst_cost > max_cycles)        \
            goto L_done;                              \
        cyc += di->cost;                              \
        ++ret;                                        \
        goto* kLabels[di->opid];                      \
    } while (0)

// A handler tail: execute the shared SabreOps body, fold the packed
// branch penalty into the local cycle counter, advance, re-dispatch.
#define OB_SABRE_OP(label, handler)                \
    label:                                         \
    r = SabreOps::handler(*this, di->ins, pc);     \
    cyc += r >> 32;                                \
    pc = static_cast<std::uint32_t>(r);            \
    OB_SABRE_FETCH()

    try {
        if (halted_ || (stop_on_watch && watch_hit_)) goto L_done;
        OB_SABRE_FETCH();
        OB_SABRE_OP(L_add, add);
        OB_SABRE_OP(L_sub, sub);
        OB_SABRE_OP(L_and, and_);
        OB_SABRE_OP(L_or, or_);
        OB_SABRE_OP(L_xor, xor_);
        OB_SABRE_OP(L_sll, sll);
        OB_SABRE_OP(L_srl, srl);
        OB_SABRE_OP(L_sra, sra);
        OB_SABRE_OP(L_mul, mul);
        OB_SABRE_OP(L_slt, slt);
        OB_SABRE_OP(L_sltu, sltu);
        OB_SABRE_OP(L_addi, addi);
        OB_SABRE_OP(L_andi, andi);
        OB_SABRE_OP(L_ori, ori);
        OB_SABRE_OP(L_xori, xori);
        OB_SABRE_OP(L_slli, slli);
        OB_SABRE_OP(L_srli, srli);
        OB_SABRE_OP(L_srai, srai);
        OB_SABRE_OP(L_slti, slti);
        OB_SABRE_OP(L_lui, lui);
    // lw/sw try the register-resident fast path first (data memory and
    // the FPU window). The slow path flushes `cycles_` before touching the
    // bus — a non-FPU peripheral may observe the live counter
    // (CounterPeripheral) — and re-runs the access from scratch through
    // the shared handler, which also produces the trap on a bad address.
    // An lw heading a marked FPU protocol sequence first tries to run the
    // whole straight-line sequence as one fused op; the fetch above has
    // charged the head's cost, so the budget check and the counters add
    // the rest of the sequence.
    L_lw:
        if (di->fused_len != 0 &&
            cyc + (di->fused_cycles - di->cost) <= max_cycles &&
            SabreOps::fused_fpu(*this, di, bus_fast)) {
            cyc += di->fused_cycles - di->cost;
            ret += di->fused_len - 1u;
            pc += di->fused_len;
        } else if (SabreOps::lw_fast(*this, di->ins, bus_fast)) {
            ++pc;
        } else {
            cycles_ = cyc;
            r = SabreOps::lw(*this, di->ins, pc);
            cyc += r >> 32;
            pc = static_cast<std::uint32_t>(r);
        }
        OB_SABRE_FETCH();
    L_sw:
        switch (SabreOps::sw_fast(*this, di->ins, bus_fast)) {
            case SabreOps::kSwDone:
                ++pc;
                break;
            case SabreOps::kSwWatchHit:
                ++pc;
                watch_hit_ = true;
                if (stop_on_watch) goto L_done;
                break;
            case SabreOps::kSwFallback:
                cycles_ = cyc;
                r = SabreOps::sw(*this, di->ins, pc);
                cyc += r >> 32;
                pc = static_cast<std::uint32_t>(r);
                // A store is the only instruction that can hit the watch
                // window; re-check only after this slow path (the fast
                // path reports the hit in its return value instead).
                if (stop_on_watch && watch_hit_) goto L_done;
                break;
        }
        OB_SABRE_FETCH();
        OB_SABRE_OP(L_beq, beq);
        OB_SABRE_OP(L_bne, bne);
        OB_SABRE_OP(L_blt, blt);
        OB_SABRE_OP(L_bge, bge);
        OB_SABRE_OP(L_bltu, bltu);
        OB_SABRE_OP(L_bgeu, bgeu);
        OB_SABRE_OP(L_jal, jal);
        OB_SABRE_OP(L_jalr, jalr);
    L_halt:
        r = SabreOps::halt(*this, di->ins, pc);
        pc = static_cast<std::uint32_t>(r);
        goto L_done;  // halt is the only instruction that sets halted_
    L_other:
        cycles_ = cyc;
        retired_ = ret;
        r = kDispatch[di->opid](*this, di->ins, pc);
        cyc += r >> 32;
        pc = static_cast<std::uint32_t>(r);
        if (halted_ || (stop_on_watch && watch_hit_)) goto L_done;
        OB_SABRE_FETCH();
    L_done:;
    } catch (...) {
        pc_ = pc;
        cycles_ = cyc;
        retired_ = ret;
        throw;
    }
#undef OB_SABRE_OP
#undef OB_SABRE_FETCH
    pc_ = pc;
    cycles_ = cyc;
    retired_ = ret;
    return static_cast<std::size_t>(ret - ret0);
#pragma GCC diagnostic pop
#else
    // No computed goto: the per-step loop shares all semantics.
    return run_stepwise(max_cycles, stop_on_watch);
#endif
}

std::size_t SabreCpu::run(std::uint64_t max_cycles) {
    if (mode_ == DispatchMode::kCached && !trace_)
        return run_batched(max_cycles, /*stop_on_watch=*/false);
    return run_stepwise(max_cycles, /*stop_on_watch=*/false);
}

std::size_t SabreCpu::run_until_bus_write(std::uint32_t window_base,
                                          std::uint64_t max_cycles) {
    watch_window_ = window_base & ~(SabreBus::kWindowBytes - 1);
    watch_hit_ = false;
    std::size_t n = 0;
    try {
        n = (mode_ == DispatchMode::kCached && !trace_)
                ? run_batched(max_cycles, /*stop_on_watch=*/true)
                : run_stepwise(max_cycles, /*stop_on_watch=*/true);
    } catch (...) {
        watch_window_ = kNoWatchWindow;
        throw;
    }
    watch_window_ = kNoWatchWindow;
    return n;
}

}  // namespace ob::sabre
