// P1 — the feasibility claim behind the paper's architecture: the Kalman
// fusion runs comfortably at sensor rate even on a modest soft core with
// emulated floating point. This bench measures the filter update cost on
// every execution tier the repository models:
//
//   * native double-precision EKF (the development reference),
//   * softfloat binary32 arithmetic (the paper's Softfloat library path),
//   * the generated Sabre firmware on the ISS (cycle-model cost).

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/boresight_ekf.hpp"
#include "math/rotation.hpp"
#include "softfloat/softfloat.hpp"
#include "system/sabre_runner.hpp"

namespace {

using namespace ob;
using math::Vec2;
using math::Vec3;

Vec3 excitation(int k) {
    const double phase = 0.013 * k;
    return Vec3{2.0 * std::sin(phase), 1.5 * std::cos(1.7 * phase), -9.80665};
}

void BM_NativeEkfUpdate(benchmark::State& state) {
    core::BoresightConfig cfg;
    core::BoresightEkf ekf(cfg);
    int k = 0;
    for (auto _ : state) {
        const Vec3 f = excitation(k);
        const Vec2 z{f[0], f[1]};
        benchmark::DoNotOptimize(ekf.step(f, z));
        ++k;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NativeEkfUpdate);

void BM_NativeEkfUpdateNumericJacobian(benchmark::State& state) {
    core::BoresightConfig cfg;
    cfg.jacobian = core::JacobianMode::kNumeric;
    core::BoresightEkf ekf(cfg);
    int k = 0;
    for (auto _ : state) {
        const Vec3 f = excitation(k);
        benchmark::DoNotOptimize(ekf.step(f, Vec2{f[0], f[1]}));
        ++k;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NativeEkfUpdateNumericJacobian);

/// The 5-state filter (angles plus two ACC biases); the cases above step
/// the 3-state one.
void BM_NativeEkfUpdateWithBias(benchmark::State& state) {
    core::BoresightConfig cfg;
    cfg.estimate_bias = true;
    core::BoresightEkf ekf(cfg);
    int k = 0;
    for (auto _ : state) {
        const Vec3 f = excitation(k);
        benchmark::DoNotOptimize(ekf.step(f, Vec2{f[0], f[1]}));
        ++k;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NativeEkfUpdateWithBias);

/// The ~150 softfloat operations one firmware Kalman update performs,
/// executed directly (no ISS) — isolates the IEEE-emulation cost.
void BM_SoftfloatKalmanArithmetic(benchmark::State& state) {
    namespace sf = ob::softfloat;
    sf::Context ctx;
    sf::F32 acc = sf::from_host(1.0f);
    const sf::F32 b = sf::from_host(1.0001f);
    for (auto _ : state) {
        // 150 dependent mul/add pairs approximating the update's mix.
        for (int i = 0; i < 75; ++i) {
            acc = sf::mul(acc, b, ctx);
            acc = sf::add(acc, b, ctx);
        }
        benchmark::DoNotOptimize(acc);
        // Renormalize to avoid drifting to infinity across iterations.
        acc = sf::from_host(1.0f);
    }
    state.SetItemsProcessed(state.iterations() * 150);
}
BENCHMARK(BM_SoftfloatKalmanArithmetic);

/// Full firmware update on the instruction-set simulator (host wall time;
/// the architectural cycle cost is reported as a counter).
void BM_SabreFirmwareUpdate(benchmark::State& state) {
    system::SabreFusionSystem sys;
    const comm::DmuScale scale;
    comm::DmuSample dmu;
    dmu.accel[2] = scale.accel_to_raw(-9.80665);
    std::uint8_t seq = 0;
    for (auto _ : state) {
        sys.push(dmu, comm::adxl_encode(0.0, 0.0, seq++, comm::AdxlConfig{}));
        benchmark::DoNotOptimize(sys.run_pending());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["sabre_cycles_per_update"] = sys.cycles_per_update();
    state.counters["fpu_ops_per_update"] =
        static_cast<double>(sys.fpu_operations()) /
        static_cast<double>(state.iterations());
    // Real-time margin at the RC200E-era 25 MHz clock, 100 Hz sensor rate.
    state.counters["x_realtime_at_25MHz_100Hz"] =
        25e6 / sys.cycles_per_update() / 100.0;
}
BENCHMARK(BM_SabreFirmwareUpdate);

}  // namespace

BENCHMARK_MAIN();
