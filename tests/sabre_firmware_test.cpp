#include <gtest/gtest.h>

#include <cmath>

#include "core/boresight_ekf.hpp"
#include "math/rotation.hpp"
#include "sabre/assembler.hpp"
#include "sabre/firmware.hpp"
#include "sim/scenario.hpp"
#include "system/sabre_runner.hpp"

// The paper's headline architectural claim: the Kalman fusion runs as
// machine code on the Sabre soft core with softfloat-emulated IEEE
// arithmetic. These tests execute the generated firmware instruction by
// instruction and hold it against ground truth and the native filter.

namespace {

using namespace ob;
using math::deg2rad;
using math::EulerAngles;
using math::rad2deg;
using math::Vec2;
using math::Vec3;

TEST(SabreFirmware, AssemblesWithinProgramMemory) {
    const auto program = sabre::assemble(sabre::boresight_firmware_source());
    EXPECT_LE(program.words.size(), sabre::kProgramWords);
    // It is a substantial program (the whole EKF update, unrolled).
    EXPECT_GT(program.words.size(), 500u);
}

TEST(SabreFirmware, ConvergesOnCleanStaticScene) {
    // Noise-free samples of a 1.5-degree pitch misalignment under gravity:
    // the firmware filter must converge to it.
    system::SabreFusionSystem sys;
    const comm::DmuScale scale;
    const comm::AdxlConfig adxl;
    const double pitch = deg2rad(1.5);

    for (int k = 0; k < 400; ++k) {
        comm::DmuSample dmu;
        dmu.accel[0] = 0;
        dmu.accel[1] = 0;
        dmu.accel[2] = scale.accel_to_raw(-9.80665);
        const Vec3 f_s = math::dcm_from_euler({0.0, pitch, 0.0}) *
                         Vec3{0.0, 0.0, -9.80665};
        const auto timing = comm::adxl_encode(f_s[0], f_s[1],
                                              static_cast<std::uint8_t>(k),
                                              adxl);
        sys.push(dmu, timing);
    }
    const auto est = sys.run_pending();
    EXPECT_EQ(est.updates, 400u);
    EXPECT_NEAR(rad2deg(est.angles.pitch), 1.5, 0.1);
    EXPECT_NEAR(rad2deg(est.angles.roll), 0.0, 0.1);
    // 3-sigma published and shrinking.
    EXPECT_GT(est.sigma3[0], 0.0);
    EXPECT_LT(est.sigma3[0], deg2rad(1.0));
}

TEST(SabreFirmware, MatchesNativeFilterOnSameData) {
    // Same raw sample stream through (a) the Sabre firmware (float32 via
    // the softfloat FPU, small-angle model) and (b) the native
    // double-precision EKF in small-angle mode. Estimates must agree to
    // within float32/modeling tolerance.
    const EulerAngles truth = EulerAngles::from_deg(1.0, -0.8, 0.6);
    auto scenario_cfg = sim::ScenarioConfig::static_tilted(
        60.0, truth, EulerAngles::from_deg(10.0, 6.0, 0.0));
    // Clean instruments isolate the numerics from calibration effects.
    scenario_cfg.imu_errors = sim::ImuErrorConfig{};
    scenario_cfg.imu_errors.accel_bias_sigma = 0.0;
    scenario_cfg.imu_errors.accel_noise_sigma = 0.001;
    scenario_cfg.imu_errors.accel_scale_sigma = 0.0;
    scenario_cfg.imu_errors.internal_misalign_sigma = 0.0;
    scenario_cfg.acc_errors.bias_sigma = 0.0;
    scenario_cfg.acc_errors.noise_sigma = 0.001;
    scenario_cfg.acc_errors.scale_sigma = 0.0;
    scenario_cfg.acc_errors.cross_axis = 0.0;
    scenario_cfg.vibration.engine_amp_idle = 0.0;
    scenario_cfg.vibration.road_amp_per_sqrt_mps = 0.0;
    sim::Scenario sc(scenario_cfg, 7);

    system::SabreFusionSystem::Config scfg;
    scfg.r_sigma = 0.005;
    system::SabreFusionSystem sabre_sys(scfg);

    core::BoresightConfig ncfg;
    ncfg.meas_noise_mps2 = 0.005;
    ncfg.angle_process_noise = std::sqrt(scfg.q_variance);
    core::BoresightEkf native(ncfg);

    while (auto s = sc.next()) {
        sabre_sys.push(s->dmu, s->adxl);
        const auto d = sim::decode_step(sc, *s);
        (void)native.step(d.f_body, d.acc_xy);
    }
    const auto est = sabre_sys.run_pending(2'000'000'000ull);
    const auto nat = native.misalignment();

    EXPECT_NEAR(rad2deg(est.angles.roll), rad2deg(nat.roll), 0.05);
    EXPECT_NEAR(rad2deg(est.angles.pitch), rad2deg(nat.pitch), 0.05);
    EXPECT_NEAR(rad2deg(est.angles.yaw), rad2deg(nat.yaw), 0.15);
    // And both near truth.
    EXPECT_NEAR(rad2deg(est.angles.roll), 1.0, 0.2);
    EXPECT_NEAR(rad2deg(est.angles.pitch), -0.8, 0.2);
}

TEST(SabreFirmware, PublishesResidualsAndCounters) {
    system::SabreFusionSystem sys;
    const comm::DmuScale scale;
    comm::DmuSample dmu;
    dmu.accel[2] = scale.accel_to_raw(-9.80665);
    const auto timing = comm::adxl_encode(0.0, 0.0, 0, comm::AdxlConfig{});
    sys.push(dmu, timing);
    const auto est = sys.run_pending();
    EXPECT_EQ(est.updates, 1u);
    EXPECT_EQ(sys.control().reg(sabre::ControlPeripheral::kStatus), 1u);
    // Residual magnitude is bounded by the quantized gravity mismatch.
    EXPECT_LT(std::abs(est.residual[0]), 0.05);
}

TEST(SabreFirmware, CycleCostIsRealTimeCapable) {
    // The paper ran the filter at sensor rate (100 Hz) on a ~25 MHz soft
    // core. Measure cycles per update and check the budget holds with the
    // FPU peripheral doing the float work.
    system::SabreFusionSystem sys;
    const comm::DmuScale scale;
    comm::DmuSample dmu;
    dmu.accel[2] = scale.accel_to_raw(-9.80665);
    for (int k = 0; k < 50; ++k) {
        sys.push(dmu, comm::adxl_encode(0.0, 0.0,
                                        static_cast<std::uint8_t>(k),
                                        comm::AdxlConfig{}));
    }
    (void)sys.run_pending();
    const double cpu_per_update = sys.cycles_per_update();
    EXPECT_GT(cpu_per_update, 100.0);
    // 100 Hz on 25 MHz leaves 250k cycles per update; the firmware must
    // fit comfortably.
    EXPECT_LT(cpu_per_update, 250000.0);
    EXPECT_GT(sys.fpu_operations(), 0u);
}

TEST(SabreFirmware, TracksStepChange) {
    // Re-alignment capability end-to-end on the embedded path.
    system::SabreFusionSystem::Config cfg;
    cfg.q_variance = 1e-10;  // allow drift tracking
    system::SabreFusionSystem sys(cfg);
    const comm::DmuScale scale;
    const comm::AdxlConfig adxl;

    auto push_epoch = [&](double pitch, int k) {
        comm::DmuSample dmu;
        dmu.accel[2] = scale.accel_to_raw(-9.80665);
        const Vec3 f_s = math::dcm_from_euler({0.0, pitch, 0.0}) *
                         Vec3{0.0, 0.0, -9.80665};
        sys.push(dmu, comm::adxl_encode(f_s[0], f_s[1],
                                        static_cast<std::uint8_t>(k), adxl));
    };
    for (int k = 0; k < 300; ++k) push_epoch(deg2rad(0.5), k);
    (void)sys.run_pending();
    for (int k = 0; k < 2000; ++k) push_epoch(deg2rad(1.5), k);
    const auto est = sys.run_pending(4'000'000'000ull);
    EXPECT_NEAR(rad2deg(est.angles.pitch), 1.5, 0.25);
}

}  // namespace
