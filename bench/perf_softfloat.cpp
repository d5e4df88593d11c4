// P7 — cost of IEEE-754 emulation: the paper ran the filter's floating
// point through the Berkeley Softfloat library because Sabre has no FPU.
// This bench quantifies the emulation cost per operation class three ways:
// the public ops (binary64-then-round on the host FPU for normal operands
// in round-to-nearest), the integer reference routines they fall back to
// elsewhere, and the host's binary32 hardware ops.

#include <benchmark/benchmark.h>

#include "softfloat/internal.hpp"
#include "softfloat/softfloat.hpp"
#include "util/rng.hpp"

namespace {

namespace sf = ob::softfloat;
using ob::util::Rng;

std::vector<std::pair<sf::F32, sf::F32>> operand_corpus() {
    Rng rng(0xBEEF);
    std::vector<std::pair<sf::F32, sf::F32>> ops;
    ops.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
        // Finite, normal-range operands (the filter's working regime).
        const float a = static_cast<float>(rng.gaussian(100.0));
        const float b = static_cast<float>(rng.gaussian(100.0) + 1e-3);
        ops.emplace_back(sf::from_host(a), sf::from_host(b));
    }
    return ops;
}

using BinaryFn = sf::F32 (*)(sf::F32, sf::F32, sf::Context&);
using UnaryFn = sf::F32 (*)(sf::F32, sf::Context&);

void run_binary(benchmark::State& state, BinaryFn op) {
    const auto ops = operand_corpus();
    sf::Context ctx;
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& [a, b] = ops[i++ & 4095];
        benchmark::DoNotOptimize(op(a, b, ctx));
    }
    state.SetItemsProcessed(state.iterations());
}

void run_sqrt(benchmark::State& state, UnaryFn op) {
    const auto ops = operand_corpus();
    sf::Context ctx;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(op(sf::abs(ops[i++ & 4095].first), ctx));
    }
    state.SetItemsProcessed(state.iterations());
}

void BM_SoftfloatAdd(benchmark::State& state) { run_binary(state, &sf::add); }
BENCHMARK(BM_SoftfloatAdd);
void BM_SoftfloatMul(benchmark::State& state) { run_binary(state, &sf::mul); }
BENCHMARK(BM_SoftfloatMul);
void BM_SoftfloatDiv(benchmark::State& state) { run_binary(state, &sf::div); }
BENCHMARK(BM_SoftfloatDiv);
void BM_SoftfloatSqrt(benchmark::State& state) { run_sqrt(state, &sf::sqrt); }
BENCHMARK(BM_SoftfloatSqrt);

// The integer routines alone: what every op cost before the fast path,
// and what specials, subnormals and directed rounding still cost.
void BM_SoftfloatReferenceAdd(benchmark::State& state) {
    run_binary(state, &sf::detail::reference_add);
}
BENCHMARK(BM_SoftfloatReferenceAdd);
void BM_SoftfloatReferenceMul(benchmark::State& state) {
    run_binary(state, &sf::detail::reference_mul);
}
BENCHMARK(BM_SoftfloatReferenceMul);
void BM_SoftfloatReferenceDiv(benchmark::State& state) {
    run_binary(state, &sf::detail::reference_div);
}
BENCHMARK(BM_SoftfloatReferenceDiv);
void BM_SoftfloatReferenceSqrt(benchmark::State& state) {
    run_sqrt(state, &sf::detail::reference_sqrt);
}
BENCHMARK(BM_SoftfloatReferenceSqrt);

// Host-FPU reference points.
void BM_HostAdd(benchmark::State& state) {
    const auto ops = operand_corpus();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& [a, b] = ops[i++ & 4095];
        volatile float r = sf::to_host(a) + sf::to_host(b);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostAdd);

void BM_HostDiv(benchmark::State& state) {
    const auto ops = operand_corpus();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& [a, b] = ops[i++ & 4095];
        volatile float r = sf::to_host(a) / sf::to_host(b);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostDiv);

}  // namespace

BENCHMARK_MAIN();
