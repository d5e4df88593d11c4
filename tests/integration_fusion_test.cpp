#include <gtest/gtest.h>

#include <cmath>

#include "core/boresight_ekf.hpp"
#include "core/calibration.hpp"
#include "core/residual_monitor.hpp"
#include "math/rotation.hpp"
#include "sim/scenario.hpp"

// End-to-end physics validation: simulated vehicle + sensor error models +
// wire-format quantization, decoded exactly as the deployed system would,
// driving the fusion filter. These tests assert the paper's headline
// claims hold in this reproduction.

namespace {

using namespace ob;
using core::BoresightConfig;
using core::BoresightEkf;
using math::deg2rad;
using math::EulerAngles;
using math::rad2deg;
using math::Vec2;
using math::Vec3;

/// Decode one scenario step into SI measurements (what the deployed
/// firmware does with the serial payloads).
struct DecodedStep {
    Vec3 f_body;
    Vec2 z;
};

DecodedStep decode(const sim::Scenario& sc, const sim::Scenario::Step& s) {
    DecodedStep out;
    for (std::size_t i = 0; i < 3; ++i)
        out.f_body[i] = sc.dmu_scale().raw_to_accel(s.dmu.accel[i]);
    const auto [ax, ay] = comm::adxl_decode(s.adxl, sc.adxl_config());
    out.z = Vec2{ax, ay};
    return out;
}

/// Paper §11 procedure: calibrate on a level platform at known (zero)
/// misalignment, then run the real scenario with the bias subtracted.
Vec2 calibrate_bias(std::uint64_t seed, double duration_s = 60.0) {
    auto cfg = sim::ScenarioConfig::static_level(duration_s, EulerAngles{});
    sim::Scenario sc(cfg, seed);
    core::CalibrationAccumulator cal;
    while (auto s = sc.next()) {
        const auto d = decode(sc, *s);
        cal.add(d.f_body, d.z);
    }
    return cal.bias();
}

TEST(IntegrationFusion, StaticTiltedRecoversAllAxes) {
    const std::uint64_t seed = 2025;
    const Vec2 bias = calibrate_bias(seed);

    const EulerAngles truth = EulerAngles::from_deg(1.5, -2.0, 2.5);
    // Tilted platform makes yaw observable (paper §11.1).
    auto cfg = sim::ScenarioConfig::static_tilted(
        300.0, truth, EulerAngles::from_deg(12.0, 8.0, 0.0));
    sim::Scenario sc(cfg, seed);

    BoresightConfig fcfg;
    fcfg.meas_noise_mps2 = 0.01;
    BoresightEkf ekf(fcfg);
    while (auto s = sc.next()) {
        const auto d = decode(sc, *s);
        (void)ekf.step(d.f_body, d.z - bias);
    }

    const EulerAngles est = ekf.misalignment();
    EXPECT_NEAR(rad2deg(est.roll), 1.5, 0.25);
    EXPECT_NEAR(rad2deg(est.pitch), -2.0, 0.25);
    EXPECT_NEAR(rad2deg(est.yaw), 2.5, 0.6);
    // Paper: sub-0.1 degree class 3-sigma on observable axes after 300 s.
    const Vec3 s3 = ekf.misalignment_sigma3();
    EXPECT_LT(rad2deg(s3[0]), 0.3);
    EXPECT_LT(rad2deg(s3[1]), 0.3);
}

TEST(IntegrationFusion, StaticLevelRollPitchOnly) {
    const std::uint64_t seed = 77;
    const Vec2 bias = calibrate_bias(seed);
    const EulerAngles truth = EulerAngles::from_deg(2.0, 1.0, 3.0);
    auto cfg = sim::ScenarioConfig::static_level(300.0, truth);
    sim::Scenario sc(cfg, seed);
    BoresightEkf ekf{BoresightConfig{}};
    while (auto s = sc.next()) {
        const auto d = decode(sc, *s);
        (void)ekf.step(d.f_body, d.z - bias);
    }
    EXPECT_NEAR(rad2deg(ekf.misalignment().roll), 2.0, 0.25);
    EXPECT_NEAR(rad2deg(ekf.misalignment().pitch), 1.0, 0.25);
    // Yaw unobservable on the level platform: the filter must NOT have
    // recovered the injected 3 degrees, and its 3-sigma must stay at
    // least several times wider than the observable axes'.
    const Vec3 s3 = ekf.misalignment_sigma3();
    EXPECT_GT(rad2deg(std::abs(ekf.misalignment().yaw - deg2rad(3.0))), 1.5);
    EXPECT_GT(s3[2], 5.0 * s3[0]);
    EXPECT_GT(s3[2], 5.0 * s3[1]);
}

TEST(IntegrationFusion, DynamicCityDriveConvergesWithRetunedNoise) {
    const std::uint64_t seed = 404;
    const Vec2 bias = calibrate_bias(seed);
    const EulerAngles truth = EulerAngles::from_deg(-1.0, 2.0, -2.0);
    auto cfg = sim::ScenarioConfig::dynamic_city(300.0, truth, /*seed=*/5);
    sim::Scenario sc(cfg, seed);

    BoresightConfig fcfg;
    fcfg.meas_noise_mps2 = 0.02;  // paper: >= 0.015 when moving
    BoresightEkf ekf(fcfg);
    while (auto s = sc.next()) {
        const auto d = decode(sc, *s);
        (void)ekf.step(d.f_body, d.z - bias);
    }
    const EulerAngles est = ekf.misalignment();
    EXPECT_NEAR(rad2deg(est.roll), -1.0, 0.4);
    EXPECT_NEAR(rad2deg(est.pitch), 2.0, 0.4);
    EXPECT_NEAR(rad2deg(est.yaw), -2.0, 0.8);
}

TEST(IntegrationFusion, MovingVehicleInflatesResidualsUnderStaticTuning) {
    // Figure 8 reproduction at test scale: static tuning (R = 0.003) on a
    // moving vehicle produces 3-sigma exceedances far beyond the ~0.3%/1%
    // a consistent filter shows; retuned (R = 0.02) restores consistency.
    const std::uint64_t seed = 31337;
    const Vec2 bias = calibrate_bias(seed);
    const EulerAngles truth = EulerAngles::from_deg(1.0, -1.0, 1.0);

    const auto run = [&](double r_sigma) {
        auto cfg = sim::ScenarioConfig::dynamic_city(120.0, truth, 9);
        sim::Scenario sc(cfg, seed);
        BoresightConfig fcfg;
        fcfg.meas_noise_mps2 = r_sigma;
        BoresightEkf ekf(fcfg);
        core::ResidualMonitor mon;
        std::size_t k = 0;
        while (auto s = sc.next()) {
            const auto d = decode(sc, *s);
            const auto up = ekf.step(d.f_body, d.z - bias);
            if (++k > 1000) mon.add(up.residual, up.sigma3);
        }
        return mon.exceedance_rate();
    };

    const double undertuned = run(0.003);
    const double retuned = run(0.02);
    EXPECT_GT(undertuned, 0.05);
    EXPECT_LT(retuned, 0.02);
    EXPECT_GT(undertuned, 5.0 * retuned);
}

TEST(IntegrationFusion, StaticResidualsStayInsideEnvelope) {
    // Figure 8 top panel: static run residuals well within 3-sigma.
    const std::uint64_t seed = 12;
    const Vec2 bias = calibrate_bias(seed);
    auto cfg =
        sim::ScenarioConfig::static_level(120.0, EulerAngles::from_deg(1, 1, 0));
    sim::Scenario sc(cfg, seed);
    BoresightConfig fcfg;
    fcfg.meas_noise_mps2 = 0.0075;
    BoresightEkf ekf(fcfg);
    core::ResidualMonitor mon;
    std::size_t k = 0;
    while (auto s = sc.next()) {
        const auto d = decode(sc, *s);
        const auto up = ekf.step(d.f_body, d.z - bias);
        if (++k > 1000) mon.add(up.residual, up.sigma3);
    }
    EXPECT_LT(mon.exceedance_rate(), 0.02);
}

TEST(IntegrationFusion, TwoDynamicRunsAgree) {
    // Table 1 bottom: "very close agreement between the tests" across two
    // different drives of the same vehicle/misalignment.
    const EulerAngles truth = EulerAngles::from_deg(1.2, -0.8, 1.5);
    const auto run_drive = [&](std::uint64_t drive_seed) {
        const std::uint64_t sensor_seed = 555;  // same physical instruments
        const Vec2 bias = calibrate_bias(sensor_seed);
        auto cfg = sim::ScenarioConfig::dynamic_city(300.0, truth, drive_seed);
        sim::Scenario sc(cfg, sensor_seed);
        BoresightConfig fcfg;
        fcfg.meas_noise_mps2 = 0.02;
        BoresightEkf ekf(fcfg);
        while (auto s = sc.next()) {
            const auto d = decode(sc, *s);
            (void)ekf.step(d.f_body, d.z - bias);
        }
        return ekf.misalignment();
    };
    const EulerAngles a = run_drive(21);
    const EulerAngles b = run_drive(22);
    EXPECT_NEAR(rad2deg(a.roll), rad2deg(b.roll), 0.3);
    EXPECT_NEAR(rad2deg(a.pitch), rad2deg(b.pitch), 0.3);
    EXPECT_NEAR(rad2deg(a.yaw), rad2deg(b.yaw), 0.6);
}

TEST(IntegrationFusion, BiasAugmentedFilterSelfCalibratesWhileDriving) {
    // Extension beyond the paper's procedure (its "future work:
    // self-aligning and self-referencing methods"): skip the calibration
    // phase entirely and let the 5-state filter estimate the ACC bias
    // during a dynamic drive.
    const EulerAngles truth = EulerAngles::from_deg(1.0, 1.5, -1.0);
    // Figure-eight: sustained lateral+longitudinal excitation, the richest
    // geometry for separating bias from angle.
    auto cfg = sim::ScenarioConfig::dynamic_city(300.0, truth, 3);
    cfg.profile = std::make_shared<sim::DriveProfile>(
        sim::DriveProfile::figure_eight(300.0));
    sim::Scenario sc(cfg, 999);
    BoresightConfig fcfg;
    fcfg.meas_noise_mps2 = 0.02;
    fcfg.estimate_bias = true;
    BoresightEkf ekf(fcfg);
    while (auto s = sc.next()) {
        const auto d = decode(sc, *s);
        (void)ekf.step(d.f_body, d.z);
    }
    // Bias-vs-tilt is only second-order observable on a planar drive
    // (gravity stays along body z), so self-calibrated accuracy is a
    // degree-class result, not the paper's calibrated 0.1-degree class.
    EXPECT_NEAR(rad2deg(ekf.misalignment().roll), 1.0, 1.0);
    EXPECT_NEAR(rad2deg(ekf.misalignment().pitch), 1.5, 1.0);
    EXPECT_NEAR(rad2deg(ekf.misalignment().yaw), -1.0, 1.5);
    // The *observable combinations* are nailed even though the degenerate
    // direction wanders: g*pitch_err cancels bias_x_err (and -g*roll_err
    // cancels bias_y_err), because gravity stays along body z.
    const double pitch_err = ekf.misalignment().pitch - truth.pitch;
    const double roll_err = ekf.misalignment().roll - truth.roll;
    const double bx_err = ekf.bias()[0] - sc.acc_model().bias_x();
    const double by_err = ekf.bias()[1] - sc.acc_model().bias_y();
    EXPECT_NEAR(9.80665 * pitch_err + bx_err, 0.0, 0.03);
    EXPECT_NEAR(-9.80665 * roll_err + by_err, 0.0, 0.03);
}

TEST(IntegrationFusion, LeverArmBiasAndCompensation) {
    // The ACC rides 0.8 m ahead and 0.4 m above the IMU. During a
    // figure-eight the centripetal acceleration of that offset (~0.05
    // m/s^2 sustained) aliases into the misalignment estimate unless the
    // gyro-driven lever-arm compensation is on — the reason the DMU's
    // rate channels exist in the fusion.
    const math::Vec3 lever{0.8, 0.0, -0.4};
    const EulerAngles truth = EulerAngles::from_deg(1.0, -1.0, 1.0);

    const auto run = [&](bool compensate) {
        auto cfg = sim::ScenarioConfig::dynamic_city(240.0, truth, 3);
        cfg.profile = std::make_shared<sim::DriveProfile>(
            sim::DriveProfile::figure_eight(240.0));
        cfg.acc_lever_arm = lever;
        cfg.acc_errors.bias_sigma = 0.0;
        cfg.imu_errors.accel_bias_sigma = 0.0;
        sim::Scenario sc(cfg, 77);
        core::BoresightConfig fcfg;
        fcfg.meas_noise_mps2 = 0.02;
        if (compensate) fcfg.lever_arm = lever;
        core::BoresightEkf ekf(fcfg);
        Vec3 prev{};
        Vec3 wdot{};
        bool have_prev = false;
        while (auto s = sc.next()) {
            const auto d = ob::sim::decode_step(sc, *s);
            if (have_prev) {
                const Vec3 raw = (d.omega - prev) * 100.0;  // 100 Hz
                wdot += (raw - wdot) * 0.2;
            }
            prev = d.omega;
            have_prev = true;
            (void)ekf.step_with_rates(d.f_body, d.omega, wdot, d.acc_xy);
        }
        return ekf.misalignment();
    };

    const EulerAngles raw = run(false);
    const EulerAngles comp = run(true);
    const double raw_err = std::abs(rad2deg(raw.roll) - 1.0) +
                           std::abs(rad2deg(raw.pitch) + 1.0) +
                           std::abs(rad2deg(raw.yaw) - 1.0);
    const double comp_err = std::abs(rad2deg(comp.roll) - 1.0) +
                            std::abs(rad2deg(comp.pitch) + 1.0) +
                            std::abs(rad2deg(comp.yaw) - 1.0);
    EXPECT_GT(raw_err, 2.0 * comp_err)
        << "uncompensated lever arm must bias the estimate (raw=" << raw_err
        << " comp=" << comp_err << ")";
    EXPECT_LT(comp_err, 0.5);
}

TEST(IntegrationFusion, CalibrationNoiseEstimateMatchesStaticTuningRange) {
    // The calibration pass also measures the per-sample noise floor; it
    // must land in the paper's static tuning range (0.003-0.01 m/s²-ish).
    auto cfg = sim::ScenarioConfig::static_level(60.0, EulerAngles{});
    sim::Scenario sc(cfg, 1234);
    core::CalibrationAccumulator cal;
    while (auto s = sc.next()) {
        const auto d = decode(sc, *s);
        cal.add(d.f_body, d.z);
    }
    EXPECT_GT(cal.noise_sigma(), 0.002);
    EXPECT_LT(cal.noise_sigma(), 0.03);
}

}  // namespace
