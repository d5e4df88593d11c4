#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "comm/codec.hpp"
#include "math/rotation.hpp"
#include "sabre/assembler.hpp"
#include "sabre/cpu.hpp"
#include "sabre/firmware.hpp"
#include "sim/scenario_library.hpp"
#include "system/sabre_runner.hpp"
#include "util/rng.hpp"

// Differential tests of the predecoded cached-dispatch path against the
// reference per-step interpreter: on randomized instruction streams, on
// perturbed FPU protocol sequences (which the batched executor may run as
// fused ops) and on the real boresight firmware, architectural state
// (registers, pc, data memory, FPU latches, flags and operation count,
// cycles, retired count, trace-hook call sequence, trap behaviour) must be
// bit-identical between the two dispatch modes.

namespace {

using namespace ob;
using namespace ob::sabre;
using ob::util::Rng;

struct TraceEvent {
    std::uint32_t pc;
    Instruction ins;
    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct RunOutcome {
    std::vector<std::uint32_t> regs;
    std::vector<std::uint32_t> data;  ///< sampled data words
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint32_t pc = 0;
    bool halted = false;
    std::optional<std::string> trap;
    std::vector<TraceEvent> trace;
    /// The bus FPU's A, B, RESULT and FLAGS registers (zero without one).
    std::array<std::uint32_t, 4> fpu{};
    std::uint64_t fpu_ops = 0;
};

/// Fill `out` with the CPU's architectural state: registers, pc, counters,
/// data words [0, data_end) and, when the bus has one, the FPU's latches,
/// flags and operation count.
void capture(SabreCpu& cpu, std::uint32_t data_end, RunOutcome& out) {
    out.regs.clear();
    for (std::size_t i = 0; i < kNumRegisters; ++i)
        out.regs.push_back(cpu.reg(i));
    out.data.clear();
    for (std::uint32_t addr = 0; addr < data_end; addr += 4)
        out.data.push_back(cpu.load_data(addr));
    out.cycles = cpu.cycles();
    out.retired = cpu.instructions();
    out.pc = cpu.pc();
    out.halted = cpu.halted();
    if (FpuPeripheral* fpu = cpu.bus().fpu()) {
        out.fpu = {fpu->read(0x0), fpu->read(0x4), fpu->read(0xC),
                   fpu->read(0x10)};
        out.fpu_ops = fpu->operations();
    }
}

/// Run `program` to completion (or trap, or the cycle budget) in the given
/// mode and capture every architectural observable.
RunOutcome execute(const Program& program, DispatchMode mode,
                   std::uint64_t max_cycles = 200'000) {
    SabreCpu cpu(program, mode);
    RunOutcome out;
    cpu.set_trace([&](std::uint32_t pc, const Instruction& ins) {
        out.trace.push_back({pc, ins});
    });
    try {
        cpu.run(max_cycles);
    } catch (const SabreTrap& trap) {
        out.trap = trap.what();
    }
    capture(cpu, 0x400, out);
    return out;
}

void expect_identical(const RunOutcome& cached, const RunOutcome& interp) {
    EXPECT_EQ(cached.regs, interp.regs);
    EXPECT_EQ(cached.data, interp.data);
    EXPECT_EQ(cached.cycles, interp.cycles);
    EXPECT_EQ(cached.retired, interp.retired);
    EXPECT_EQ(cached.pc, interp.pc);
    EXPECT_EQ(cached.halted, interp.halted);
    EXPECT_EQ(cached.trap, interp.trap);
    EXPECT_EQ(cached.fpu, interp.fpu);
    EXPECT_EQ(cached.fpu_ops, interp.fpu_ops);
    ASSERT_EQ(cached.trace.size(), interp.trace.size());
    EXPECT_EQ(cached.trace, interp.trace);
}

/// Random-but-structured program: straight-line arithmetic/logic over all
/// R/I ops, loads and stores against an in-range buffer, short forward
/// branches of every flavour, the occasional call/ret pair, and a bounded
/// countdown loop — every control transfer stays in-program so streams
/// run to halt deterministically.
std::string random_program(Rng& rng) {
    std::string src;
    src += "li sp, 0x10000\n";
    src += "addi r1, zero, 0x200\n";  // data buffer base
    const char* rops[] = {"add", "sub", "and", "or",  "xor", "sll",
                          "srl", "sra", "mul", "slt", "sltu"};
    // I-type ops and whether their imm18 is unsigned (logical/shift) or
    // sign-extended — the encoder rejects a negative unsigned immediate.
    struct IOp {
        const char* name;
        bool unsigned_imm;
    };
    const IOp iops[] = {{"addi", false}, {"andi", true}, {"ori", true},
                        {"xori", true},  {"slli", true}, {"srli", true},
                        {"srai", true},  {"slti", false}};
    const char* bops[] = {"beq", "bne", "blt", "bge", "bltu", "bgeu"};
    char line[80];
    const int body = 120;
    for (int i = 0; i < body; ++i) {
        // r2..r11 are fuzz registers; r1 stays the buffer base.
        const auto rd = static_cast<int>(rng.uniform_int(2, 11));
        const auto ra = static_cast<int>(rng.uniform_int(2, 11));
        const auto rb = static_cast<int>(rng.uniform_int(2, 11));
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.45) {
            std::snprintf(line, sizeof line, "%s r%d, r%d, r%d",
                          rops[rng.uniform_int(0, 10)], rd, ra, rb);
        } else if (roll < 0.70) {
            const IOp& op = iops[rng.uniform_int(0, 7)];
            const int imm =
                op.unsigned_imm
                    ? static_cast<int>(rng.uniform_int(0, 1000))
                    : static_cast<int>(rng.uniform_int(-500, 500));
            std::snprintf(line, sizeof line, "%s r%d, r%d, %d", op.name, rd,
                          ra, imm);
        } else if (roll < 0.82) {
            const int off = static_cast<int>(rng.uniform_int(0, 63)) * 4;
            if (rng.chance(0.5))
                std::snprintf(line, sizeof line, "sw r%d, %d(r1)", rd, off);
            else
                std::snprintf(line, sizeof line, "lw r%d, %d(r1)", rd, off);
        } else if (roll < 0.94) {
            // Forward branch over the next instruction: always in-program.
            std::snprintf(line, sizeof line, "%s r%d, r%d, 1\naddi r%d, r%d, 7",
                          bops[rng.uniform_int(0, 5)], ra, rb, rd, rd);
        } else {
            std::snprintf(line, sizeof line, "lui r%d, %d", rd,
                          static_cast<int>(rng.uniform_int(0, 0x3FFFF)));
        }
        src += line;
        src += '\n';
    }
    // A bounded loop with a call inside, exercising jal/jalr both ways.
    src += R"(
        addi r12, zero, 5
    fuzz_loop:
        call fuzz_fn
        addi r12, r12, -1
        bne r12, zero, fuzz_loop
        halt
    fuzz_fn:
        add r13, r12, r12
        ret
    )";
    return src;
}

class SabreDispatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SabreDispatchFuzz, CachedMatchesInterpreter) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
    const Program program = assemble(random_program(rng));
    expect_identical(execute(program, DispatchMode::kCached),
                     execute(program, DispatchMode::kInterpreter));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SabreDispatchFuzz, ::testing::Range(0, 25));

TEST(SabreDispatch, FaultingProgramsMatch) {
    // Traps must fire at the same instruction with the same message and
    // leave identical state in both modes.
    const char* faulty[] = {
        // Misaligned load.
        "addi r1, zero, 2\nlw r2, 0(r1)\nhalt\n",
        // Data access out of range.
        "lui r1, 0x1F\nlw r2, 0(r1)\nhalt\n",
        // Jump target out of program (jal).
        "jal r2, 100\nhalt\n",
        // Wrapped jalr target.
        "li r1, 0xFFFFFFFF\njalr r2, r1, 3\nhalt\n",
        // Runaway pc off the end.
        "addi r1, zero, 1\naddi r2, zero, 2\n",
        // Misaligned store.
        "addi r1, zero, 6\nsw r1, 0(r1)\nhalt\n",
    };
    for (const char* src : faulty) {
        SCOPED_TRACE(src);
        const Program program = assemble(src);
        const auto cached = execute(program, DispatchMode::kCached);
        const auto interp = execute(program, DispatchMode::kInterpreter);
        EXPECT_TRUE(cached.trap.has_value());
        expect_identical(cached, interp);
    }
}

TEST(SabreDispatch, CycleBudgetStopsIdentically) {
    // Stop-at-or-before must cut both modes at the same instruction for
    // budgets landing on every phase of the loop.
    const Program program = assemble(R"(
        addi r2, zero, 1000
    spin:
        mul r3, r2, r2
        addi r2, r2, -1
        bne r2, zero, spin
        halt
    )");
    for (std::uint64_t budget : {0ull, 1ull, 2ull, 7ull, 100ull, 101ull,
                                 102ull, 103ull, 5000ull}) {
        SCOPED_TRACE(budget);
        expect_identical(execute(program, DispatchMode::kCached, budget),
                         execute(program, DispatchMode::kInterpreter, budget));
    }
}

// --- FPU protocol sequences: fused ops against the stepping oracle ----------

/// How one generated FPU protocol block departs from the emitter's shape.
enum class Perturb {
    kNone,          ///< the emitter's shape: fused
    kBaseOffset,    ///< rB = peripheral base + 16: FPU window, offset 16
    kBaseControl,   ///< rB + 0x700 lands in the (watchable) control window
    kBaseZero,      ///< rB = r0: the "FPU" accesses hit data memory
    kDEqualsA,      ///< result written over operand A: fused
    kMidEntry,      ///< a branch enters the block after its head
    kRdZero,        ///< rd = r0: refused at predecode
    kUnknownCmd,    ///< refused at predecode; traps in the FPU
    kMisaligned,    ///< refused at predecode; traps on the load
    kOutOfRange,    ///< refused at predecode; traps on the load
    kRdIsBase,      ///< rd = rB: refused at predecode; the first FPU store
                    ///< goes through the loaded operand (usually a fault)
};

struct FpuProgram {
    std::string source;
    int expected_heads = 0;  ///< blocks predecode must mark as fused
};

/// A program of FPU protocol blocks (both shapes, every command) over a
/// float table at 0x100, each block possibly perturbed so that every
/// static refusal and run-time fallback of the fused path runs.
FpuProgram random_fpu_program(Rng& rng) {
    FpuProgram out;
    out.source =
        "lui r1, 0x20000\n"   // peripheral base
        "addi r3, r1, 16\n"   // base + 16: +0x700 is the FPU's FLAGS
        "addi r4, r1, -256\n";  // base - 0x100: +0x700 is the control window
    const auto cell = [&] {
        return 0x100 + 4 * static_cast<int>(rng.uniform_int(0, 63));
    };
    // Half the programs end in a trap at one late block.
    constexpr int kBlocks = 24;
    const int trap_block =
        rng.chance(0.5) ? static_cast<int>(rng.uniform_int(12, kBlocks - 1))
                        : kBlocks;
    constexpr Perturb kTraps[] = {Perturb::kUnknownCmd, Perturb::kMisaligned,
                                  Perturb::kOutOfRange, Perturb::kRdIsBase};
    const Perturb trap = kTraps[rng.uniform_int(0, 3)];
    char line[96];
    for (int block = 0; block < kBlocks; ++block) {
        const double roll = rng.uniform(0.0, 1.0);
        Perturb p = Perturb::kRdZero;
        constexpr std::array<std::pair<double, Perturb>, 6> kOdds = {{
            {0.45, Perturb::kNone},
            {0.55, Perturb::kBaseOffset},
            {0.65, Perturb::kBaseControl},
            {0.72, Perturb::kBaseZero},
            {0.81, Perturb::kDEqualsA},
            {0.90, Perturb::kMidEntry},
        }};
        for (const auto& [upto, kind] : kOdds) {
            if (roll < upto) {
                p = kind;
                break;
            }
        }
        if (block == trap_block) p = trap;
        const bool binary = rng.chance(0.7);
        int a = cell();
        const int b = cell();
        int d = p == Perturb::kDEqualsA ? a : cell();
        int cmd = static_cast<int>(rng.uniform_int(0, FpuPeripheral::kAbs));
        const char* rb = p == Perturb::kBaseOffset    ? "r3"
                         : p == Perturb::kBaseControl ? "r4"
                         : p == Perturb::kBaseZero    ? "zero"
                         : p == Perturb::kRdIsBase    ? "r10"
                                                      : "r1";
        int rd = static_cast<int>(rng.uniform_int(5, 9));
        if (p == Perturb::kRdZero) rd = 0;
        if (p == Perturb::kRdIsBase) rd = 10;
        if (p == Perturb::kUnknownCmd) cmd = 12 + static_cast<int>(rng.uniform_int(0, 9));
        if (p == Perturb::kMisaligned) a += 2;
        if (p == Perturb::kOutOfRange) d = 0x10000;
        if (p == Perturb::kMidEntry) out.source += "beq zero, zero, 2\n";
        if (p == Perturb::kRdIsBase) out.source += "addi r10, r1, 0\n";
        std::snprintf(line, sizeof line, "lw r%d, %d(zero)\nsw r%d, 1792(%s)\n",
                      rd, a, rd, rb);
        out.source += line;
        if (binary) {
            std::snprintf(line, sizeof line,
                          "lw r%d, %d(zero)\nsw r%d, 1796(%s)\n", rd, b, rd, rb);
            out.source += line;
        }
        std::snprintf(line, sizeof line,
                      "addi r%d, zero, %d\nsw r%d, 1800(%s)\n"
                      "lw r%d, 1804(%s)\nsw r%d, %d(zero)\n",
                      rd, cmd, rd, rb, rd, rb, rd, d);
        out.source += line;
        if (rng.chance(0.3)) out.source += "addi r6, r6, 1\n";
        switch (p) {
            case Perturb::kRdZero:
            case Perturb::kUnknownCmd:
            case Perturb::kMisaligned:
            case Perturb::kOutOfRange:
            case Perturb::kRdIsBase:
                break;
            default:
                ++out.expected_heads;
        }
    }
    out.source += "halt\n";
    return out;
}

/// A CPU with an FPU and a control block on its bus and a float table at
/// 0x100 (normals, zeros, infinities, NaNs, subnormals, raw integers).
std::unique_ptr<SabreCpu> fpu_machine(
    const std::shared_ptr<const DecodedProgram>& image, DispatchMode mode,
    std::uint64_t table_seed) {
    auto cpu = std::make_unique<SabreCpu>(image, mode);
    cpu->bus().attach(periph::kControl,
                      std::make_shared<ControlPeripheral>());
    cpu->bus().attach(periph::kFpu, std::make_shared<FpuPeripheral>());
    Rng rng(table_seed);
    for (std::uint32_t addr = 0x100; addr < 0x200; addr += 4) {
        const std::uint32_t raw = rng.bits32();
        cpu->store_data(addr, rng.chance(0.7)
                                  ? std::bit_cast<std::uint32_t>(static_cast<float>(
                                        rng.gaussian(10.0)))
                                  : raw);
    }
    return cpu;
}

/// How a test drives the CPU through the program.
enum class Drive {
    kRun,           ///< run(budget)
    kTraced,        ///< run(budget) with a trace hook (never fused)
    kWatchFpu,      ///< run_until_bus_write on the FPU window (never fused)
    kWatchControl,  ///< run_until_bus_write on the control window
};

/// Drive a fresh machine and capture its state, plus the (pc, cycles)
/// of every watch stop.
RunOutcome drive(const std::shared_ptr<const DecodedProgram>& image,
                 DispatchMode mode, std::uint64_t table_seed, Drive how,
                 std::uint64_t budget) {
    auto cpu = fpu_machine(image, mode, table_seed);
    RunOutcome out;
    if (how == Drive::kTraced) {
        cpu->set_trace([&](std::uint32_t pc, const Instruction& ins) {
            out.trace.push_back({pc, ins});
        });
    }
    try {
        if (how == Drive::kWatchFpu || how == Drive::kWatchControl) {
            const std::uint32_t window =
                how == Drive::kWatchFpu ? periph::kFpu : periph::kControl;
            while (!cpu->halted() &&
                   cpu->cycles() + cpu->next_step_worst_cycles() <= budget) {
                cpu->run_until_bus_write(window, budget);
                out.trace.push_back({cpu->pc(), Instruction{}});
                out.trace.back().ins.imm =
                    static_cast<std::int32_t>(cpu->cycles());
            }
        } else {
            cpu->run(budget);
        }
    } catch (const std::exception& e) {
        out.trap = e.what();
    }
    capture(*cpu, 0x800, out);
    return out;
}

class SabreFusedFpuFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SabreFusedFpuFuzz, MatchesInterpreterAtEveryBudget) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    const FpuProgram program = random_fpu_program(rng);
    const auto image =
        std::make_shared<const DecodedProgram>(assemble(program.source));
    int heads = 0;
    for (const DecodedInst& di : image->code()) heads += di.fused_len != 0;
    EXPECT_EQ(heads, program.expected_heads);

    const std::uint64_t table_seed = rng.bits32();
    const RunOutcome full = drive(image, DispatchMode::kInterpreter,
                                  table_seed, Drive::kRun, 1'000'000);
    for (std::uint64_t budget = 0; budget <= full.cycles + 2; ++budget) {
        SCOPED_TRACE(::testing::Message() << "budget " << budget);
        expect_identical(
            drive(image, DispatchMode::kCached, table_seed, Drive::kRun, budget),
            drive(image, DispatchMode::kInterpreter, table_seed, Drive::kRun,
                  budget));
        if (HasFailure()) return;
    }
    for (const Drive how :
         {Drive::kTraced, Drive::kWatchFpu, Drive::kWatchControl}) {
        SCOPED_TRACE(::testing::Message() << "drive " << static_cast<int>(how));
        expect_identical(
            drive(image, DispatchMode::kCached, table_seed, how, 1'000'000),
            drive(image, DispatchMode::kInterpreter, table_seed, how,
                  1'000'000));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SabreFusedFpuFuzz, ::testing::Range(0, 25));

TEST(SabreFusedFpu, BusWithoutFpuFaultsIdentically) {
    // The emitter's shape with nothing attached at the FPU window: the
    // fused path must refuse and the store must raise the bus error.
    const auto image = std::make_shared<const DecodedProgram>(assemble(
        "lui r1, 0x20000\nlw r2, 256(zero)\nsw r2, 1792(r1)\n"
        "addi r2, zero, 0\nsw r2, 1800(r1)\nlw r2, 1804(r1)\n"
        "sw r2, 260(zero)\nhalt\n"));
    ASSERT_EQ(image->code()[1].fused_len, 6);
    RunOutcome out[2];
    for (const DispatchMode mode :
         {DispatchMode::kCached, DispatchMode::kInterpreter}) {
        SabreCpu cpu(image, mode);
        RunOutcome& o = out[mode == DispatchMode::kCached ? 0 : 1];
        try {
            cpu.run(1000);
        } catch (const std::exception& e) {
            o.trap = e.what();
        }
        capture(cpu, 0x200, o);
    }
    EXPECT_TRUE(out[0].trap.has_value());
    expect_identical(out[0], out[1]);
}

// --- The full firmware, both modes, real scenario wire data -----------------

struct WireEpoch {
    comm::DmuSample dmu;
    comm::AdxlTiming adxl;
};

/// The first `epochs` wire-format epochs of a city-drive realization.
std::vector<WireEpoch> city_drive_epochs(int epochs) {
    const auto& spec = sim::ScenarioLibrary::instance().at("city-drive");
    const std::uint64_t seed = sim::scenario_seed(spec.name, 3);
    sim::Scenario sc(spec.build(10.0, spec.misalignment, seed), seed);
    std::vector<WireEpoch> out;
    while (auto s = sc.next()) {
        out.push_back({s->dmu, s->adxl});
        if (static_cast<int>(out.size()) >= epochs) break;
    }
    return out;
}

system::SabreFusionSystem firmware_system(DispatchMode mode) {
    const auto& spec = sim::ScenarioLibrary::instance().at("city-drive");
    system::SabreFusionSystem::Config cfg;
    cfg.r_sigma = spec.meas_noise_mps2;
    cfg.q_variance = spec.angle_process_noise * spec.angle_process_noise;
    cfg.dispatch = mode;
    return system::SabreFusionSystem(cfg);
}

/// The architectural fingerprint of a firmware run: the CPU's full state
/// (registers, pc, counters, data cells, FPU latches, flags, operation
/// count) plus the control registers the video block reads.
struct FirmwareOutcome {
    RunOutcome machine;
    std::vector<std::uint32_t> control;  ///< raw control register bits
};

FirmwareOutcome capture_firmware(system::SabreFusionSystem& sys) {
    FirmwareOutcome out;
    capture(sys.cpu(), 0x140, out.machine);
    using CR = sabre::ControlPeripheral;
    for (std::uint32_t r = 0; r <= CR::kInnovSigma3Y; ++r)
        out.control.push_back(sys.control().reg(static_cast<CR::Reg>(r)));
    return out;
}

void expect_identical(const FirmwareOutcome& cached,
                      const FirmwareOutcome& interp) {
    expect_identical(cached.machine, interp.machine);
    EXPECT_EQ(cached.control, interp.control);
}

/// Push `epochs` epochs of city-drive wire samples through a
/// SabreFusionSystem and capture the architectural fingerprint.
FirmwareOutcome run_firmware(DispatchMode mode, int epochs) {
    auto sys = firmware_system(mode);
    for (const WireEpoch& e : city_drive_epochs(epochs)) {
        sys.push(e.dmu, e.adxl);
        (void)sys.run_pending();
    }
    return capture_firmware(sys);
}

TEST(SabreDispatch, FirmwareBitIdenticalAcrossModes) {
    const auto cached = run_firmware(DispatchMode::kCached, 300);
    const auto interp = run_firmware(DispatchMode::kInterpreter, 300);
    EXPECT_EQ(cached.machine.fpu_ops, 300u * 185u);
    expect_identical(cached, interp);
}

TEST(SabreDispatch, FirmwareEpochStopsIdenticallyAtEveryCycleBudget) {
    // Two epochs fold normally; the third is cut at every cycle budget
    // from 0 to past its end, so the cached run stops before, inside and
    // after every fused FPU sequence in turn.
    const auto epochs = city_drive_epochs(3);
    const auto warmed = [&](DispatchMode mode) {
        auto sys = firmware_system(mode);
        for (int i = 0; i < 2; ++i) {
            sys.push(epochs[i].dmu, epochs[i].adxl);
            (void)sys.run_pending();
        }
        sys.push(epochs[2].dmu, epochs[2].adxl);
        return sys;
    };
    auto whole = warmed(DispatchMode::kInterpreter);
    const std::uint64_t start = whole.cycles();
    (void)whole.run_pending();
    const std::uint64_t epoch_cycles = whole.cycles() - start;
    EXPECT_EQ(epoch_cycles, 2699u);
    for (std::uint64_t budget = 0; budget <= epoch_cycles + 4; ++budget) {
        SCOPED_TRACE(::testing::Message() << "budget " << budget);
        auto cached = warmed(DispatchMode::kCached);
        auto interp = warmed(DispatchMode::kInterpreter);
        cached.cpu().run(start + budget);
        interp.cpu().run(start + budget);
        expect_identical(capture_firmware(cached), capture_firmware(interp));
        if (HasFailure()) return;
    }
}

TEST(SabreDispatch, FirmwareFpuSequencesAreMarkedForFusion) {
    // 160 binary and 9 unary FPU sequences per epoch are the emitter's
    // shape; the 16 I2F/F2I conversions through the sensor ports and the
    // control block are not (their operand or result is a peripheral).
    const auto image = boresight_firmware_image();
    int binary = 0;
    int unary = 0;
    for (const DecodedInst& di : image->code()) {
        binary += di.fused_len == 8;
        unary += di.fused_len == 6;
    }
    EXPECT_EQ(binary, 160);
    EXPECT_EQ(unary, 9);
}

TEST(SabreDispatch, FirmwareImageIsSharedAcrossSystems) {
    // Two fusion systems built back to back reference the same predecoded
    // firmware image (one assemble+predecode per process, fleet-wide).
    const auto a = boresight_firmware_image();
    const auto b = boresight_firmware_image();
    EXPECT_EQ(a.get(), b.get());
    EXPECT_GT(a->size(), 500u);
}

}  // namespace
