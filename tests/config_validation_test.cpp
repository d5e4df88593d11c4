#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "math/rotation.hpp"
#include "system/boresight_system.hpp"
#include "system/fleet.hpp"

// Error paths for every configuration struct an operator can get wrong:
// bad configs must be rejected loudly at construction, not silently
// misbehave thousands of epochs later (a zero bitrate, for instance, would
// otherwise just stall the CAN model; a zero measurement noise would feed
// the filter a singular innovation covariance).

namespace {

using namespace ob;
using math::EulerAngles;

// --- BoresightSystem::Config -----------------------------------------------

system::BoresightSystem::Config valid_system_config() {
    return {};  // the defaults are a working system
}

TEST(BoresightSystemConfigValidation, DefaultsAreValid) {
    EXPECT_NO_THROW(valid_system_config().validate());
    EXPECT_NO_THROW(system::BoresightSystem sys(valid_system_config()));
}

TEST(BoresightSystemConfigValidation, RejectsZeroCanBitrate) {
    auto cfg = valid_system_config();
    cfg.can_bitrate = 0.0;
    EXPECT_THROW(system::BoresightSystem sys(cfg), std::invalid_argument);
    cfg.can_bitrate = -500000.0;
    EXPECT_THROW(system::BoresightSystem sys(cfg), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsZeroUartBaud) {
    auto cfg = valid_system_config();
    cfg.uart_baud = 0.0;
    EXPECT_THROW(system::BoresightSystem sys(cfg), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsNonPositiveFilterNoise) {
    auto cfg = valid_system_config();
    cfg.filter.meas_noise_mps2 = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.filter.meas_noise_mps2 = -0.01;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsNegativeProcessNoise) {
    auto cfg = valid_system_config();
    cfg.filter.angle_process_noise = -1e-9;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsBadInitialSigmas) {
    auto cfg = valid_system_config();
    cfg.filter.init_angle_sigma = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.filter.init_bias_sigma = -0.05;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsBadSabreTuning) {
    auto cfg = valid_system_config();
    cfg.sabre.r_sigma = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.sabre.q_variance = -1e-14;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.sabre.p0_sigma = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsBadTuner) {
    auto cfg = valid_system_config();
    cfg.tuner.floor_mps2 = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.tuner.ceiling_mps2 = 0.5 * cfg.tuner.floor_mps2;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsOutOfRangeFaultProbabilities) {
    auto cfg = valid_system_config();
    cfg.dmu_link_faults.drop_probability = 1.5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.acc_link_faults.bit_flip_probability = -0.1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.acc_link_faults.framing_error_probability = 2.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(BoresightSystemConfigValidation, RejectsBadSupervisor) {
    // System validation must reach the nested supervisor knobs: a broken
    // staleness ladder or a dead delivery window fails at construction,
    // not as a watchdog that silently never trips.
    auto cfg = valid_system_config();
    cfg.supervisor.delivery_window = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.supervisor.coast_staleness_epochs =
        cfg.supervisor.degrade_staleness_epochs;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.supervisor.fail_staleness_epochs =
        cfg.supervisor.coast_staleness_epochs;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = valid_system_config();
    cfg.supervisor.coast_sigma_rate = -1e-9;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- FleetJob ---------------------------------------------------------------

TEST(FleetJobValidation, RejectsEmptyScenario) {
    system::FleetJob job;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    EXPECT_THROW((void)system::run_fleet_job(job), std::invalid_argument);
}

TEST(FleetJobValidation, PaperRowPasses) {
    // The shape of a Table 1 / Figure 8 row: a calibrated 300 s run with
    // an injected truth, a noise override and the adaptive tuner.
    system::FleetJob job;
    job.scenario = "city-drive";
    job.duration_s = 300.0;
    job.misalignment = EulerAngles::from_deg(1.2, -0.8, 1.5);
    job.calibration = system::FleetCalibration{60.0};
    job.meas_noise_mps2 = 0.003;
    job.use_adaptive_tuner = true;
    EXPECT_NO_THROW(job.validate());
}

TEST(FleetJobValidation, RejectsNonFiniteFields) {
    // Every f64 a job carries, set to each non-finite value: a NaN slips
    // through an ordinary `<` and an infinity through a sign check, and
    // either would run (or hang) instead of failing here.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto base = [] {
        system::FleetJob job;
        job.scenario = "city-drive";
        job.misalignment = EulerAngles{};
        job.calibration = system::FleetCalibration{};
        job.use_adaptive_tuner = true;
        job.tuner = ob::core::AdaptiveTunerConfig{};
        job.meas_noise_mps2 = 0.02;
        job.fault = system::FleetFault{};
        return job;
    };
    ASSERT_NO_THROW(base().validate());
    using Set = std::function<void(system::FleetJob&, double)>;
    const std::vector<std::pair<std::string, Set>> fields = {
        {"duration_s", [](auto& j, double v) { j.duration_s = v; }},
        {"misalignment.roll",
         [](auto& j, double v) { j.misalignment->roll = v; }},
        {"misalignment.pitch",
         [](auto& j, double v) { j.misalignment->pitch = v; }},
        {"misalignment.yaw",
         [](auto& j, double v) { j.misalignment->yaw = v; }},
        {"calibration.duration_s",
         [](auto& j, double v) { j.calibration->duration_s = v; }},
        {"meas_noise_mps2", [](auto& j, double v) { j.meas_noise_mps2 = v; }},
        {"fault.intensity",
         [](auto& j, double v) { j.fault->intensity = v; }},
        {"tuner.floor_mps2",
         [](auto& j, double v) { j.tuner->floor_mps2 = v; }},
        {"tuner.ceiling_mps2",
         [](auto& j, double v) { j.tuner->ceiling_mps2 = v; }},
        {"tuner.raise_threshold",
         [](auto& j, double v) { j.tuner->raise_threshold = v; }},
        {"tuner.lower_threshold",
         [](auto& j, double v) { j.tuner->lower_threshold = v; }},
        {"tuner.raise_factor",
         [](auto& j, double v) { j.tuner->raise_factor = v; }},
        {"tuner.lower_factor",
         [](auto& j, double v) { j.tuner->lower_factor = v; }},
    };
    for (const auto& [name, set] : fields) {
        for (const double v : {nan, inf, -inf}) {
            auto job = base();
            set(job, v);
            EXPECT_THROW(job.validate(), std::invalid_argument)
                << name << " = " << v;
        }
    }
}

TEST(FleetJobValidation, RejectsUnknownScenario) {
    system::FleetJob job;
    job.scenario = "warp-drive";
    EXPECT_THROW(job.validate(), std::invalid_argument);
    EXPECT_THROW((void)system::run_fleet_job(job), std::invalid_argument);
}

TEST(FleetJobValidation, RejectsNegativeDurationOverride) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.duration_s = -1.0;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.duration_s = 0.0;  // 0 means "use the spec default"
    EXPECT_NO_THROW(job.validate());
}

TEST(FleetJobValidation, RejectsMisalignmentOutsideSmallAngleRegime) {
    system::FleetJob job;
    job.scenario = "city-drive";
    // The EKF linearizes the mounting DCM; beyond ~15 deg per axis the
    // sweep would measure linearization error, not tuning.
    job.misalignment = EulerAngles::from_deg(0.0, 20.0, 0.0);
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.misalignment = EulerAngles::from_deg(0.0, 0.0, -20.0);
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.misalignment = EulerAngles::from_deg(-14.0, 10.0, 14.0);
    EXPECT_NO_THROW(job.validate());
}

TEST(FleetJobValidation, RejectsBadCalibrationDwell) {
    system::FleetJob job;
    job.scenario = "static-level";
    job.calibration = system::FleetCalibration{0.0};
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.calibration = system::FleetCalibration{-5.0};
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.calibration = system::FleetCalibration{30.0};
    EXPECT_NO_THROW(job.validate());
}

TEST(FleetJobValidation, RejectsTunerOverrideWithoutEnablingTheTuner) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.tuner = ob::core::AdaptiveTunerConfig{};
    // Knobs on a disabled tuner are always a config mistake.
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.use_adaptive_tuner = true;
    EXPECT_NO_THROW(job.validate());
    job.tuner->ceiling_mps2 = 0.5 * job.tuner->floor_mps2;
    EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(FleetJobValidation, AcceptsAdaptiveTunerOnTheSabreProcessor) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.use_adaptive_tuner = true;
    job.processor = system::BoresightSystem::Processor::kSabre;
    // The firmware gained a writable measurement-noise register: adaptive
    // jobs run on both fusion processors now.
    EXPECT_NO_THROW(job.validate());
    job.processor = system::BoresightSystem::Processor::kNative;
    EXPECT_NO_THROW(job.validate());
}

TEST(FleetJobValidation, RejectsZeroSeedsPerJob) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.seeds_per_job = 0;
    // A job with no realizations has no primary result to report.
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.seeds_per_job = 1;
    EXPECT_NO_THROW(job.validate());
}

TEST(FleetJobValidation, RejectsSeedCountOverflowingTheSubSeedDerivation) {
    system::FleetJob job;
    job.scenario = "city-drive";
    // The FNV-1a sub-seed folds the realization index as 32 bits; a count
    // beyond 2^32 would alias seed streams instead of extending them.
    job.seeds_per_job = system::kFleetMaxSeedsPerJob + 1;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.seeds_per_job = system::kFleetMaxSeedsPerJob;
    EXPECT_NO_THROW(job.validate());
    job.seeds_per_job = 8;
    EXPECT_NO_THROW(job.validate());
}

TEST(FleetSubSeed, IndexZeroPreservesTheSingleSeedContract) {
    // fleet_sub_seed(s, 0) == s is what keeps N=1 jobs (and the golden
    // corpus pinned to them) bitwise identical to the pre-seed-axis runs.
    EXPECT_EQ(system::fleet_sub_seed(0xDEADBEEFull, 0), 0xDEADBEEFull);
    // Higher indices must decorrelate: distinct from the stream seed and
    // from each other.
    const auto s1 = system::fleet_sub_seed(0xDEADBEEFull, 1);
    const auto s2 = system::fleet_sub_seed(0xDEADBEEFull, 2);
    EXPECT_NE(s1, 0xDEADBEEFull);
    EXPECT_NE(s1, s2);
}

TEST(FleetJobValidation, RejectsNonPositiveMeasurementNoiseOverride) {
    system::FleetJob job;
    job.scenario = "city-drive";
    job.meas_noise_mps2 = 0.0;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.meas_noise_mps2 = -0.01;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.meas_noise_mps2 = 0.0075;
    EXPECT_NO_THROW(job.validate());
}

// --- Paper experiment rows ---------------------------------------------------
//
// Table 1 and Figures 8-9 run each experiment as a FleetJob of one shape: a
// calibrated 300 s run with an injected truth. Each field such a row sets
// must be gated by the job's validation, so a bad row fails before it runs.

system::FleetJob paper_experiment_job() {
    system::FleetJob job;
    job.scenario = "static-level";
    job.duration_s = 300.0;
    job.misalignment = EulerAngles::from_deg(1.0, -0.5, 2.0);
    job.calibration = system::FleetCalibration{60.0};
    job.meas_noise_mps2 = 0.003;
    return job;
}

TEST(ExperimentConfigValidation, RejectsEmptyScenario) {
    auto job = paper_experiment_job();
    ASSERT_NO_THROW(job.validate());
    job.scenario.clear();
    EXPECT_THROW(job.validate(), std::invalid_argument);
    EXPECT_THROW((void)system::run_fleet_job(job), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsNonPositiveScenarioDuration) {
    auto job = paper_experiment_job();
    job.duration_s = -5.0;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    EXPECT_THROW((void)system::run_fleet_job(job), std::invalid_argument);
    job.duration_s = -std::numeric_limits<double>::infinity();
    EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(ExperimentConfigValidation, RejectsNonPositiveCalibrationDuration) {
    auto job = paper_experiment_job();
    job.calibration = system::FleetCalibration{-60.0};
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.calibration = system::FleetCalibration{0.0};
    EXPECT_THROW(job.validate(), std::invalid_argument);
    // ...but an uncalibrated run has no dwell to check.
    job.calibration.reset();
    EXPECT_NO_THROW(job.validate());
}

TEST(ExperimentConfigValidation, RejectsBadFilterTuning) {
    // A row's filter knob is its measurement-noise override; process noise
    // and initial sigmas are BoresightSystem::Config knobs (tested above).
    auto job = paper_experiment_job();
    job.meas_noise_mps2 = 0.0;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.meas_noise_mps2 = -0.003;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.meas_noise_mps2 = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.meas_noise_mps2.reset();  // absent => the spec's recommended value
    EXPECT_NO_THROW(job.validate());
}

TEST(ExperimentConfigValidation, RejectsBadTunerWhenEnabled) {
    auto job = paper_experiment_job();
    job.use_adaptive_tuner = true;
    EXPECT_NO_THROW(job.validate());  // enabled with the default knobs
    job.tuner = ob::core::AdaptiveTunerConfig{};
    job.tuner->floor_mps2 = 0.0;
    EXPECT_THROW(job.validate(), std::invalid_argument);
    job.tuner = ob::core::AdaptiveTunerConfig{};
    EXPECT_NO_THROW(job.validate());
}

TEST(AdaptiveTunerConfigValidation, RejectsBadKnobs) {
    ob::core::AdaptiveTunerConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    cfg.raise_factor = 1.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    cfg.lower_factor = 1.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    cfg.window = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    cfg.lower_threshold = 2.0 * cfg.raise_threshold;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// The constructor-level guarantee: a BoresightSystem cannot exist around a
// bad config, so every downstream component may assume validated numbers.
TEST(BoresightSystemConfigValidation, ConstructorRunsValidation) {
    auto cfg = valid_system_config();
    cfg.uart_baud = -9600.0;
    EXPECT_THROW(system::BoresightSystem sys(cfg), std::invalid_argument);
}

}  // namespace
