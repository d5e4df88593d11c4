#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sabre/assembler.hpp"
#include "sabre/isa.hpp"
#include "sabre/peripherals.hpp"

namespace ob::sabre {

/// Runtime fault raised by the ISS (misaligned access, out-of-range
/// address, illegal instruction) — the model of a hardware bus error.
class SabreTrap : public std::runtime_error {
public:
    SabreTrap(std::uint32_t pc, const std::string& message)
        : std::runtime_error("pc=" + std::to_string(pc) + ": " + message),
          pc_(pc) {}
    [[nodiscard]] std::uint32_t pc() const { return pc_; }

private:
    std::uint32_t pc_;
};

/// Immutable predecoded program image: every word decoded once at load
/// into a `DecodedInst` (fields extracted, immediate sign-extended, opcode
/// id and cycle costs precomputed). Invalid words are rejected here, with
/// the offending word index, instead of surfacing as a naked decode error
/// mid-run. The image is shareable: the fleet constructs one SabreCpu per
/// scenario realization from the same firmware, and they all reference a
/// single predecode.
///
/// Predecode also marks each FPU protocol sequence the firmware emitter
/// produces (operands from data memory into the FPU window at
/// periph::kFpu off a base register rB, a command, the result back to
/// data memory):
///
///   lw rd,A(zero); sw rd,0x700(rB); [lw rd,B(zero); sw rd,0x704(rB);]
///   addi rd,zero,CMD; sw rd,0x708(rB); lw rd,0x70C(rB); sw rd,D(zero)
///
/// when every data address is aligned and in range, CMD is a known
/// FpuPeripheral::Cmd and rd is neither r0 nor rB. The batched executor
/// may then run the whole sequence as one fused op (see SabreCpu::run).
class DecodedProgram {
public:
    /// Throws std::invalid_argument on an oversized program or on any
    /// word that does not decode ("program word N: ...").
    explicit DecodedProgram(Program program);

    [[nodiscard]] const std::vector<std::uint32_t>& words() const {
        return words_;
    }
    [[nodiscard]] const std::vector<DecodedInst>& code() const {
        return code_;
    }
    [[nodiscard]] std::size_t size() const { return code_.size(); }

private:
    std::vector<std::uint32_t> words_;
    std::vector<DecodedInst> code_;
};

/// How step() executes instructions.
enum class DispatchMode : std::uint8_t {
    /// Dispatch on the predecoded opcode id through a function table —
    /// the production path (no per-step fetch/decode).
    kCached,
    /// Re-decode the program word every step and execute through the
    /// reference switch — kept as the differential-testing oracle.
    kInterpreter,
};

/// Instruction-set simulator for the Sabre-32 core: Harvard memories
/// (8 KB program BlockRAM, 64 KB data), 16 registers with r0 = 0, and the
/// memory-mapped peripheral bus of Figure 6. Cycle accounting follows
/// `base_cycles` plus the taken-branch penalty.
///
/// The program is predecoded at construction (see DecodedProgram); both
/// dispatch modes execute the same new-style fault semantics and produce
/// bit-identical architectural state.
class SabreCpu {
public:
    explicit SabreCpu(Program program,
                      DispatchMode mode = DispatchMode::kCached);
    /// Share an already-predecoded image (one firmware predecode serves
    /// every CPU in a fleet sweep).
    explicit SabreCpu(std::shared_ptr<const DecodedProgram> image,
                      DispatchMode mode = DispatchMode::kCached);

    /// Execute one instruction; returns false once halted.
    bool step();

    /// Run until HALT or until the next instruction could push `cycles()`
    /// past `max_cycles`: stop-at-or-before semantics — after return,
    /// `cycles() <= max_cycles` always holds (the pre-decode loop used to
    /// let the last instruction overshoot the deadline). Returns the
    /// number of instructions retired by this call.
    ///
    /// In cached mode without a trace hook, a marked FPU protocol sequence
    /// (see DecodedProgram) runs as one fused op when the budget covers
    /// the whole sequence, rB addresses the FPU window and that window is
    /// not being watched; its architectural effects (registers, data
    /// memory, FPU latches, flags and operation count, cycles, retired
    /// count) are exactly those of stepping it. step() never fuses.
    std::size_t run(std::uint64_t max_cycles = 10'000'000);

    /// Run like `run(max_cycles)` but also stop immediately after any
    /// store into the peripheral-bus window at `window_base` (window
    /// aligned, e.g. periph::kControl). Host polling loops use this to
    /// re-check a memory-mapped register only when the firmware could
    /// have changed it, keeping the core in its batched dispatch loop
    /// between control-block writes. The stop point is exact: a register
    /// in that window only changes on such a store, so polling here is
    /// bit-identical to polling after every instruction.
    std::size_t run_until_bus_write(std::uint32_t window_base,
                                    std::uint64_t max_cycles);

    /// Worst-case cycle cost of the instruction at the current pc (base
    /// cost plus the taken-branch penalty), or 0 when halted or when the
    /// pc is outside the program (stepping then traps without consuming
    /// cycles). Deadline loops use this to stop at-or-before a budget.
    [[nodiscard]] std::uint64_t next_step_worst_cycles() const {
        if (halted_ || pc_ >= image_->size()) return 0;
        return image_->code()[pc_].worst_cost;
    }

    [[nodiscard]] bool halted() const { return halted_; }
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
    [[nodiscard]] std::uint64_t instructions() const { return retired_; }
    [[nodiscard]] DispatchMode dispatch_mode() const { return mode_; }

    [[nodiscard]] std::uint32_t reg(std::size_t i) const { return regs_.at(i); }
    void set_reg(std::size_t i, std::uint32_t v) {
        if (i > 0 && i < kNumRegisters) regs_[i] = v;
    }

    /// Data-memory access for host-side setup/inspection (word aligned).
    [[nodiscard]] std::uint32_t load_data(std::uint32_t addr) const;
    void store_data(std::uint32_t addr, std::uint32_t value);

    [[nodiscard]] SabreBus& bus() { return bus_; }

    /// Optional per-instruction trace hook (pc, decoded instruction).
    using TraceHook = std::function<void(std::uint32_t, const Instruction&)>;
    void set_trace(TraceHook hook) { trace_ = std::move(hook); }

private:
    friend struct SabreOps;  ///< the cached-dispatch handler table

    bool step_cached(const DecodedInst& di);
    bool step_interpreted(std::uint32_t word);

    /// Batched executor over the predecoded stream: the hot loop of the
    /// cached mode, with the per-step call overhead and the trace check
    /// hoisted out. Dispatches through the same SabreOps handlers as the
    /// function table, so semantics cannot diverge from step().
    std::size_t run_batched(std::uint64_t max_cycles, bool stop_on_watch);
    /// Per-step loop used for the interpreter oracle and when tracing.
    std::size_t run_stepwise(std::uint64_t max_cycles, bool stop_on_watch);

    /// Memory accessors take the executing pc by value (see SabreOps in
    /// cpu.cpp: pc lives in a register on the hot path) and quote it in
    /// trap messages.
    [[nodiscard]] std::uint32_t mem_read(std::uint32_t addr,
                                         std::uint32_t pc);
    void mem_write(std::uint32_t addr, std::uint32_t value, std::uint32_t pc);

    void set_rd(std::uint8_t rd, std::uint32_t v) {
        if (rd != 0) regs_[rd] = v;
    }
    /// Taken branch: next pc in the low word, the taken-branch cycle
    /// penalty in the high word (the packed-handler-return convention —
    /// see SabreOps::Fn in cpu.cpp). Handlers never touch cycles_
    /// themselves, so the executors can keep the cycle counter in a
    /// register.
    [[nodiscard]] static std::uint64_t take_branch(std::uint32_t pc,
                                                   std::int32_t imm) {
        return (static_cast<std::uint64_t>(kBranchTakenExtra) << 32) |
               (pc + 1 + static_cast<std::uint32_t>(imm));
    }
    /// Jump targets (kJal/kJalr) are bounds-checked at execute time in
    /// exact arithmetic: a wrapped rs1+imm can no longer land in-range
    /// silently, and an out-of-program target traps at the jump itself
    /// rather than on the next fetch.
    void check_jump_target(std::int64_t target, std::uint32_t pc) const {
        if (target < 0 || target >= static_cast<std::int64_t>(image_->size()))
            throw SabreTrap(pc, "jump target out of program");
    }

    /// Sentinel watch window that no masked peripheral address matches
    /// (bus offsets have bit 31 stripped, so their window base is always
    /// below 0x80000000).
    static constexpr std::uint32_t kNoWatchWindow = 0xFFFFFFFFu;

    std::shared_ptr<const DecodedProgram> image_;
    std::array<std::uint8_t, kDataBytes> data_{};
    std::array<std::uint32_t, kNumRegisters> regs_{};
    SabreBus bus_;
    std::uint32_t pc_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t retired_ = 0;
    bool halted_ = false;
    DispatchMode mode_ = DispatchMode::kCached;
    std::uint32_t watch_window_ = kNoWatchWindow;
    bool watch_hit_ = false;
    TraceHook trace_;
};

}  // namespace ob::sabre
