#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "comm/codec.hpp"
#include "core/boresight_ekf.hpp"
#include "core/multi_aligner.hpp"
#include "fleet_test_util.hpp"
#include "math/rotation.hpp"
#include "sim/acc_model.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_library.hpp"
#include "sim/trajectory.hpp"
#include "system/fleet.hpp"
#include "util/rng.hpp"

// Scenario-level regression harness: the paper's scenarios (car-park bump,
// dynamic drive, headlight leveling, multi-sensor) run end to end through
// the full-transport BoresightSystem with fixed RNG seeds, and the whole
// estimate *trajectory* — not just the final value — is checked against the
// library's alignment-convergence envelope. A refactor or optimisation that
// perturbs the numerics, the transport timing, or the RNG stream shows up
// here even when every unit test still passes.
//
// The scenario definitions, filter tunings and envelopes live in
// sim::ScenarioLibrary; this file drives them through run_fleet_job, the
// same path the fleet regression and golden suites use. The full
// library x processor sweep lives in fleet_regression_test.cpp; the four
// runs here deliberately repeat its native-mode cases to layer the
// paper-narrative assertions (post-bump truth, aim-band detection,
// transport-health counters) on top of the shared envelope check.

namespace {

using namespace ob;
using math::EulerAngles;
using math::rad2deg;
using testutil::expect_inside_envelope;

// ---------------------------------------------------------------------------
// Car-park bump (§2): the mount is disturbed mid-run; the filter must have
// converged to the original alignment before the bump and re-converge to the
// post-bump alignment afterwards — with the estimate error trajectory
// bounded through both phases (both windows are inside run_fleet_job's
// envelope check; the post-bump settle window restarts at the bump).
// ---------------------------------------------------------------------------
TEST(ScenarioRegression, CarParkBumpReconverges) {
    system::FleetJob job;
    job.scenario = "carpark-bump";
    const auto r = system::run_fleet_job(job);

    expect_inside_envelope(r);

    // The final truth is the *post-bump* alignment: the spec's injected
    // misalignment plus the knock.
    const auto& spec = sim::ScenarioLibrary::instance().at("carpark-bump");
    ASSERT_TRUE(spec.bump.enabled());
    EXPECT_NEAR(r.primary().result.truth.roll,
                spec.misalignment.roll + spec.bump.delta.roll, 1e-12);
    EXPECT_NEAR(r.primary().result.truth.pitch,
                spec.misalignment.pitch + spec.bump.delta.pitch, 1e-12);

    // The transport stayed healthy throughout.
    EXPECT_GT(r.primary().final_status.updates, 20000u);
    EXPECT_EQ(r.primary().final_status.dmu_frames_lost, 0u);
    EXPECT_EQ(r.primary().final_status.acc_packets_lost, 0u);
}

// ---------------------------------------------------------------------------
// Dynamic drive (§11.2): city and highway profiles, default instrument
// errors, full transport. The drive's excitation makes all three axes
// observable; the envelope covers the whole post-settle trajectory.
// ---------------------------------------------------------------------------
TEST(ScenarioRegression, DynamicCityDriveConverges) {
    system::FleetJob job;
    job.scenario = "city-drive";
    const auto r = system::run_fleet_job(job);
    expect_inside_envelope(r);
    EXPECT_GT(r.primary().final_status.updates, 15000u);
}

TEST(ScenarioRegression, DynamicHighwayDriveConverges) {
    system::FleetJob job;
    job.scenario = "highway-drive";
    const auto r = system::run_fleet_job(job);
    expect_inside_envelope(r);
    EXPECT_GT(r.primary().final_status.updates, 15000u);
}

// ---------------------------------------------------------------------------
// Headlight leveling (§12): a lamp-pod accelerometer vs the vehicle IMU.
// The estimate must land well inside the ~0.57 deg (1%) regulatory aim
// band and stay there, while the vehicle just drives.
// ---------------------------------------------------------------------------
TEST(ScenarioRegression, HeadlightPodErrorWithinAimBand) {
    const double aim_limit_deg = 0.57;

    system::FleetJob job;
    job.scenario = "headlight-leveling";
    const auto r = system::run_fleet_job(job);

    // The library's pitch envelope is half the aim band, so a re-level
    // command based on the estimate cannot itself violate the regulation —
    // in Sabre mode too: the regulatory bound must not be relaxed by the
    // fixed-point envelope scale.
    const auto& spec = sim::ScenarioLibrary::instance().at("headlight-leveling");
    EXPECT_LE(spec.envelope.pitch_deg, 0.5 * aim_limit_deg);
    EXPECT_LE(spec.envelope.pitch_deg * spec.sabre_envelope_scale,
              0.5 * aim_limit_deg);
    expect_inside_envelope(r);

    // And the knocked pod is *detected*: the estimated pitch error exceeds
    // both its own 3-sigma and half the aim band before the run ends.
    const double pitch = std::abs(rad2deg(r.primary().result.estimate.pitch));
    const double s3 = rad2deg(r.primary().result.sigma3_rad[1]);
    EXPECT_GT(pitch, s3);
    EXPECT_GT(pitch, 0.5 * aim_limit_deg);
}

// ---------------------------------------------------------------------------
// Multi-sensor (§12 concluding extension): three instrumented sensors
// aligned against the common IMU at once; per-sensor and mutual (relative)
// alignments must converge.
// ---------------------------------------------------------------------------
TEST(ScenarioRegression, MultiSensorMutualAlignment) {
    const auto profile = sim::DriveProfile::city(180.0, /*seed=*/77);

    struct SensorSpec {
        const char* name;
        EulerAngles truth;
    };
    const std::vector<SensorSpec> specs = {
        {"video", EulerAngles::from_deg(1.0, -2.0, 1.5)},
        {"lidar", EulerAngles::from_deg(-0.5, 0.8, -1.0)},
        {"radar", EulerAngles::from_deg(2.2, 0.3, -0.7)},
    };

    util::Rng rng(2026);
    sim::AccErrorConfig acc_err;
    acc_err.bias_sigma = 0.0;  // instruments pre-calibrated per §11.1
    const sim::VibrationConfig vib;

    std::vector<sim::AccModel> models;
    core::MultiSensorAligner aligner;
    core::BoresightConfig fcfg;
    fcfg.meas_noise_mps2 = 0.02;
    for (const auto& s : specs) {
        models.emplace_back(s.truth, acc_err, vib, rng.fork());
        (void)aligner.add_sensor(s.name, fcfg);
    }

    const double dt = 0.01;
    for (double t = 0.0; t <= profile.duration(); t += dt) {
        const auto state = profile.state_at(t);
        const math::Vec3 f_body = state.specific_force_body();
        std::vector<std::optional<math::Vec2>> readings;
        readings.reserve(models.size());
        for (auto& m : models) {
            const auto timing = m.sample(f_body, state.omega_body,
                                         math::Vec3{}, t, dt, state.speed);
            const auto [ax, ay] = comm::adxl_decode(timing, m.adxl_config());
            readings.emplace_back(math::Vec2{ax, ay});
        }
        aligner.step(f_body, readings);
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto est = aligner.misalignment(i);
        EXPECT_NEAR(rad2deg(est.roll), rad2deg(specs[i].truth.roll), 0.4)
            << specs[i].name;
        EXPECT_NEAR(rad2deg(est.pitch), rad2deg(specs[i].truth.pitch), 0.4)
            << specs[i].name;
        EXPECT_NEAR(rad2deg(est.yaw), rad2deg(specs[i].truth.yaw), 0.8)
            << specs[i].name;
    }

    // Mutual alignment video->lidar against the truth composition — the
    // quantity cross-sensor fusion actually consumes.
    const auto rel = aligner.relative_alignment(0, 1);
    const auto truth_rel = math::euler_from_dcm(
        math::dcm_from_euler(specs[1].truth) *
        math::dcm_from_euler(specs[0].truth).transposed());
    EXPECT_NEAR(rad2deg(rel.roll), rad2deg(truth_rel.roll), 0.6);
    EXPECT_NEAR(rad2deg(rel.pitch), rad2deg(truth_rel.pitch), 0.6);
    EXPECT_NEAR(rad2deg(rel.yaw), rad2deg(truth_rel.yaw), 1.2);

    // Confidence must be finite and consistent with the achieved error.
    const auto rel_s3 = aligner.relative_sigma3(0, 1);
    for (std::size_t axis = 0; axis < 3; ++axis) {
        EXPECT_GT(rel_s3[axis], 0.0);
        EXPECT_LT(rad2deg(rel_s3[axis]), 5.0);
    }
}

// ---------------------------------------------------------------------------
// Determinism: the entire stack — trajectory synthesis, sensor models,
// transport, fusion — is seeded, so two identical fleet jobs must agree bit
// for bit. This is what makes every envelope above a *regression* check
// rather than a statistical one, and what the fleet runner's serial-vs-
// parallel guarantee rests on.
// ---------------------------------------------------------------------------
TEST(ScenarioRegression, FleetJobsAreBitwiseDeterministic) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.duration_s = 60.0;

    const auto a = system::run_fleet_job(job).primary();
    const auto b = system::run_fleet_job(job).primary();

    EXPECT_EQ(a.final_status.updates, b.final_status.updates);
    // Bitwise equality, not EXPECT_NEAR: any drift means hidden state.
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    EXPECT_EQ(bits(a.result.estimate.roll), bits(b.result.estimate.roll));
    EXPECT_EQ(bits(a.result.estimate.pitch), bits(b.result.estimate.pitch));
    EXPECT_EQ(bits(a.result.estimate.yaw), bits(b.result.estimate.yaw));
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(bits(a.result.sigma3_rad[i]), bits(b.result.sigma3_rad[i]));
    }
    EXPECT_EQ(bits(a.result.residual_rms), bits(b.result.residual_rms));
}

TEST(ScenarioRegression, ScenarioStreamIsSeedStable) {
    // The raw sensor stream itself is reproducible: same config + seed =>
    // identical wire bytes. A different seed must diverge.
    const EulerAngles truth = EulerAngles::from_deg(0.5, 0.5, 0.0);
    auto scfg = sim::ScenarioConfig::dynamic_city(5.0, truth, 3);

    sim::Scenario a(scfg, 21), b(scfg, 21), c(scfg, 22);
    bool diverged = false;
    for (int i = 0; i < 500; ++i) {
        auto sa = a.next(), sb = b.next(), sc_ = c.next();
        ASSERT_TRUE(sa && sb && sc_);
        EXPECT_TRUE(sa->dmu == sb->dmu) << "step " << i;
        EXPECT_TRUE(sa->adxl == sb->adxl) << "step " << i;
        if (!(sa->dmu == sc_->dmu)) diverged = true;
    }
    EXPECT_TRUE(diverged) << "different sensor seeds produced identical noise";
}

}  // namespace
