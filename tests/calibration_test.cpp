#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "core/calibration.hpp"
#include "math/matrix.hpp"
#include "system/fleet.hpp"
#include "util/rng.hpp"

// The §11.1 calibration path, bottom to top: the CalibrationAccumulator's
// bias/stderr/noise statistics against known injected errors, then the
// fleet-level calibration phase — bias-subtracted runs must land far inside
// the envelopes their uncalibrated twins only just satisfy, on both fusion
// processors — and the adaptive-tuner knobs now exposed on FleetJob.

namespace {

using namespace ob;
using math::Vec2;
using math::Vec3;
using Processor = system::BoresightSystem::Processor;

constexpr double kGravity = 9.80665;

// --- CalibrationAccumulator statistics --------------------------------------

TEST(CalibrationAccumulator, RecoversInjectedBiasOnLevelPlatform) {
    const Vec2 injected{0.031, -0.044};
    const double noise = 0.005;
    const Vec3 f_level{0.0, 0.0, -kGravity};

    core::CalibrationAccumulator accum;
    util::Rng rng(99);
    const std::size_t n = 20000;
    for (std::size_t i = 0; i < n; ++i) {
        const Vec2 pred = core::BoresightEkf::predict_measurement(
            Vec3{}, Vec2{}, f_level);
        const Vec2 z{pred[0] + injected[0] + rng.gaussian(noise),
                     pred[1] + injected[1] + rng.gaussian(noise)};
        accum.add(f_level, z);
    }
    ASSERT_EQ(accum.samples(), n);

    const Vec2 bias = accum.bias();
    const Vec2 stderr_est = accum.bias_stderr();
    for (std::size_t i = 0; i < 2; ++i) {
        // The estimate must land within 5 standard errors of truth, and the
        // standard error itself must match sigma/sqrt(n).
        EXPECT_NEAR(bias[i], injected[i], 5.0 * noise / std::sqrt(double(n)));
        EXPECT_NEAR(stderr_est[i], noise / std::sqrt(double(n)),
                    0.2 * noise / std::sqrt(double(n)));
    }
    EXPECT_NEAR(accum.noise_sigma(), noise, 0.1 * noise);
}

TEST(CalibrationAccumulator, EmptyAndSingleSampleEdges) {
    core::CalibrationAccumulator accum;
    EXPECT_EQ(accum.samples(), 0u);
    EXPECT_EQ(accum.bias()[0], 0.0);
    EXPECT_EQ(accum.bias()[1], 0.0);
    EXPECT_EQ(accum.bias_stderr()[0], 0.0);
    EXPECT_EQ(accum.noise_sigma(), 0.0);

    accum.add(Vec3{0.0, 0.0, -kGravity}, Vec2{0.1, 0.2});
    EXPECT_EQ(accum.samples(), 1u);
    // One sample defines a mean but no spread.
    EXPECT_EQ(accum.bias_stderr()[0], 0.0);
    EXPECT_EQ(accum.noise_sigma(), 0.0);
}

TEST(CalibrationAccumulator, StandardErrorTightensWithSamples) {
    const Vec3 f_level{0.0, 0.0, -kGravity};
    core::CalibrationAccumulator few, many;
    util::Rng rng_few(7), rng_many(7);
    for (std::size_t i = 0; i < 100; ++i) {
        few.add(f_level, Vec2{rng_few.gaussian(0.01), rng_few.gaussian(0.01)});
    }
    for (std::size_t i = 0; i < 10000; ++i) {
        many.add(f_level,
                 Vec2{rng_many.gaussian(0.01), rng_many.gaussian(0.01)});
    }
    EXPECT_LT(many.bias_stderr()[0], few.bias_stderr()[0]);
    EXPECT_LT(many.bias_stderr()[1], few.bias_stderr()[1]);
}

// --- Fleet calibration phase ------------------------------------------------

system::FleetSeedResult run_static(Processor proc, bool calibrate) {
    system::FleetJob job;
    job.scenario = "static-level";
    job.processor = proc;
    if (calibrate) job.calibration = system::FleetCalibration{30.0};
    return system::run_fleet_job(job).primary();
}

TEST(FleetCalibration, RecordsBiasAndSampleCount) {
    const auto r = run_static(Processor::kNative, true);
    // 30 s of level-platform dwell at the 100 Hz sensor rate.
    EXPECT_GE(r.calibration_samples, 3000u);
    // The measured combined bias must be of the instruments' magnitude:
    // nonzero, but well under the ~0.045 m/s² 1-sigma of the combined
    // ACC+IMU bias draws.
    const double mag = std::hypot(r.calibrated_bias[0], r.calibrated_bias[1]);
    EXPECT_GT(mag, 1e-4);
    EXPECT_LT(mag, 0.15);
    EXPECT_GT(r.calibration_noise, 0.0);
}

TEST(FleetCalibration, UncalibratedJobReportsNoCalibration) {
    const auto r = run_static(Processor::kNative, false);
    EXPECT_EQ(r.calibration_samples, 0u);
    EXPECT_EQ(r.calibrated_bias[0], 0.0);
    EXPECT_EQ(r.calibrated_bias[1], 0.0);
    EXPECT_EQ(r.calibration_noise, 0.0);
}

TEST(FleetCalibration, BiasSubtractionTightensStaticErrorsNative) {
    const auto uncal = run_static(Processor::kNative, false);
    const auto cal = run_static(Processor::kNative, true);
    // On a level platform the filter cannot separate ACC bias from
    // misalignment, so the uncalibrated run carries the bias straight into
    // its roll/pitch estimate. Calibration removes it: the measured factors
    // here are ~5x on roll and pitch (0.21 -> 0.04 deg); assert a
    // conservative 2x so last-ulp toolchain drift cannot flake the suite.
    EXPECT_LT(cal.trace.worst_roll_err_deg,
              0.5 * uncal.trace.worst_roll_err_deg);
    EXPECT_LT(cal.trace.worst_pitch_err_deg,
              0.5 * uncal.trace.worst_pitch_err_deg);
    EXPECT_TRUE(cal.within_envelope);
}

TEST(FleetCalibration, BiasSubtractionTightensStaticErrorsSabre) {
    const auto uncal = run_static(Processor::kSabre, false);
    const auto cal = run_static(Processor::kSabre, true);
    // Same instruments, same §11.1 procedure, but the bias is folded back
    // into the ADXL duty-cycle timings before the firmware decodes them.
    EXPECT_LT(cal.trace.worst_roll_err_deg,
              0.5 * uncal.trace.worst_roll_err_deg);
    EXPECT_LT(cal.trace.worst_pitch_err_deg,
              0.5 * uncal.trace.worst_pitch_err_deg);
    EXPECT_TRUE(cal.within_envelope);
}

TEST(FleetCalibration, CalibrationIsDeterministicPerJob) {
    const auto a = run_static(Processor::kNative, true);
    const auto b = run_static(Processor::kNative, true);
    EXPECT_EQ(a.calibrated_bias[0], b.calibrated_bias[0]);
    EXPECT_EQ(a.calibrated_bias[1], b.calibrated_bias[1]);
    EXPECT_EQ(a.calibration_samples, b.calibration_samples);
    EXPECT_EQ(a.result.estimate.roll, b.result.estimate.roll);
}

// --- Adaptive tuner knobs on FleetJob ---------------------------------------

TEST(FleetTuner, DefaultTunerReproducesTheSec11Retune) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.use_adaptive_tuner = true;
    job.meas_noise_mps2 = 0.003;  // paper's quietest static tuning
    const auto r = system::run_fleet_job(job).primary();
    // Driving residuals force the noise out of the static band toward the
    // paper's 0.015+ retune (measured: 0.0145 after 19 adjustments).
    EXPECT_GE(r.result.meas_noise, 0.012);
    EXPECT_GT(r.final_status.tuner_adjustments, 0u);
    EXPECT_TRUE(r.within_envelope);
}

TEST(FleetTuner, CeilingOverrideCapsTheRetune) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.use_adaptive_tuner = true;
    job.meas_noise_mps2 = 0.003;
    core::AdaptiveTunerConfig tuner;
    tuner.ceiling_mps2 = 0.008;
    job.tuner = tuner;
    const auto r = system::run_fleet_job(job).primary();
    EXPECT_LE(r.result.meas_noise, 0.008 + 1e-12);
    EXPECT_GT(r.final_status.tuner_adjustments, 0u);
}

TEST(FleetTuner, TunerOffLeavesSpecNoiseUntouched) {
    system::FleetJob job;
    job.scenario = "city-drive";
    const auto r = system::run_fleet_job(job).primary();
    const auto& spec = sim::ScenarioLibrary::instance().at("city-drive");
    EXPECT_EQ(r.result.meas_noise, spec.meas_noise_mps2);
    EXPECT_EQ(r.final_status.tuner_adjustments, 0u);
}

}  // namespace
