// P1b — soft-core execution characteristics: ISS throughput on the host,
// plus the architectural cycle counts of representative workloads (what
// the real fabric would spend).

#include <benchmark/benchmark.h>

#include "sabre/assembler.hpp"
#include "sabre/cpu.hpp"
#include "sabre/firmware.hpp"
#include "sabre/peripherals.hpp"
#include "sim/scenario_library.hpp"
#include "system/sabre_runner.hpp"

namespace {

using namespace ob::sabre;

const char* kDhrystoneish = R"(
    ; integer-heavy inner loop: arithmetic, memory traffic, branching
    addi r1, zero, 0      ; accumulator
    addi r2, zero, 1000   ; iterations
    addi r3, zero, 0x100  ; buffer base
loop:
    mul r4, r2, r2
    add r1, r1, r4
    sw r1, 0(r3)
    lw r5, 0(r3)
    xor r1, r1, r5
    srli r6, r1, 3
    or r1, r1, r6
    addi r2, r2, -1
    bne r2, zero, loop
    halt
)";

void run_integer_loop(benchmark::State& state, DispatchMode mode) {
    // One predecode shared across iterations, like the fleet shares the
    // firmware image across scenario realizations.
    const auto image =
        std::make_shared<const DecodedProgram>(assemble(kDhrystoneish));
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        SabreCpu cpu(image, mode);
        cpu.run(100'000'000);
        cycles = cpu.cycles();
        instructions = cpu.instructions();
        benchmark::DoNotOptimize(cpu.reg(1));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(instructions));
    state.counters["arch_cycles"] = static_cast<double>(cycles);
    state.counters["arch_cpi"] =
        static_cast<double>(cycles) / static_cast<double>(instructions);
}

void BM_IssIntegerLoop(benchmark::State& state) {
    run_integer_loop(state, DispatchMode::kCached);
}
BENCHMARK(BM_IssIntegerLoop);

void BM_IssIntegerLoopInterpreter(benchmark::State& state) {
    run_integer_loop(state, DispatchMode::kInterpreter);
}
BENCHMARK(BM_IssIntegerLoopInterpreter);

void BM_AssembleFirmware(benchmark::State& state) {
    const std::string src = boresight_firmware_source();
    std::size_t words = 0;
    for (auto _ : state) {
        const Program p = assemble(src);
        words = p.words.size();
        benchmark::DoNotOptimize(p.words.data());
    }
    state.counters["firmware_words"] = static_cast<double>(words);
    state.counters["program_mem_used_pct"] =
        100.0 * static_cast<double>(words) / kProgramWords;
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssembleFirmware);

void BM_FpuPeripheralOp(benchmark::State& state) {
    FpuPeripheral fpu;
    fpu.write(0x0, 0x3FC00000);  // 1.5f
    fpu.write(0x4, 0x40100000);  // 2.25f
    for (auto _ : state) {
        fpu.write(0x8, FpuPeripheral::kMul);
        benchmark::DoNotOptimize(fpu.read(0xC));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FpuPeripheralOp);

/// One boresight epoch through SabreFusionSystem (push one wire sample
/// pair, run the firmware until it has folded it), cycling over the first
/// 200 city-drive epochs. The time column is host ns per epoch; the
/// counters are the simulated core's exact work per epoch.
void BM_FirmwareEpoch(benchmark::State& state, DispatchMode mode) {
    const auto& spec = ob::sim::ScenarioLibrary::instance().at("city-drive");
    const std::uint64_t seed = ob::sim::scenario_seed(spec.name, 1);
    ob::sim::Scenario sc(spec.build(2.0, spec.misalignment, seed), seed);
    std::vector<ob::sim::Scenario::Step> epochs;
    while (auto step = sc.next()) epochs.push_back(*step);

    ob::system::SabreFusionSystem::Config cfg;
    cfg.r_sigma = spec.meas_noise_mps2;
    cfg.dispatch = mode;
    ob::system::SabreFusionSystem sys(cfg);
    const std::uint64_t instructions0 = sys.instructions();
    const std::uint64_t cycles0 = sys.cycles();
    const std::uint64_t fpu_ops0 = sys.fpu_operations();
    std::size_t k = 0;
    for (auto _ : state) {
        const auto& e = epochs[k++ % epochs.size()];
        sys.push(e.dmu, e.adxl);
        benchmark::DoNotOptimize(sys.run_pending());
    }
    const auto per_epoch = [&](std::uint64_t total) {
        return static_cast<double>(total) /
               static_cast<double>(state.iterations());
    };
    state.SetItemsProcessed(state.iterations());
    state.counters["instructions_per_epoch"] =
        per_epoch(sys.instructions() - instructions0);
    state.counters["cycles_per_epoch"] = per_epoch(sys.cycles() - cycles0);
    state.counters["fpu_ops_per_epoch"] =
        per_epoch(sys.fpu_operations() - fpu_ops0);
}
BENCHMARK_CAPTURE(BM_FirmwareEpoch, cached, DispatchMode::kCached);
BENCHMARK_CAPTURE(BM_FirmwareEpoch, interpreter, DispatchMode::kInterpreter);

}  // namespace

BENCHMARK_MAIN();
