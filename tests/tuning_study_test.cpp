#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "math/rotation.hpp"
#include "system/fleet.hpp"
#include "system/tuning_study.hpp"

// The tuning-study sweep generator: grid expansion order and contents,
// config validation, and the report contract — the study JSON is a pure
// function of the config, so any thread count must render identical bytes.

namespace {

using namespace ob;
using math::EulerAngles;
using Processor = system::BoresightSystem::Processor;

system::TuningStudyConfig small_config() {
    system::TuningStudyConfig cfg;
    cfg.label = "unit";
    cfg.scenarios = {"static-level", "city-drive"};
    cfg.misalignments = {EulerAngles::from_deg(1.0, -1.0, 2.0),
                         EulerAngles::from_deg(3.0, 2.0, -4.0)};
    cfg.variants = {
        {.label = "spec"},
        {.label = "quiet", .meas_noise_mps2 = 0.003},
    };
    cfg.processors = {Processor::kNative, Processor::kSabre};
    cfg.duration_s = 10.0;
    return cfg;
}

// --- Expansion --------------------------------------------------------------

TEST(TuningStudy, ExpandsTheFullGridInDeterministicOrder) {
    const system::TuningStudy study(small_config());
    // 2 scenarios x 2 misalignments x 2 variants x 2 processors.
    ASSERT_EQ(study.cell_count(), 16u);
    const auto& jobs = study.jobs();
    // Scenario-major: the first 8 jobs are static-level, then city-drive.
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(jobs[i].scenario, "static-level") << i;
        EXPECT_EQ(jobs[8 + i].scenario, "city-drive") << i;
    }
    // Innermost axis is the processor.
    EXPECT_EQ(jobs[0].processor, Processor::kNative);
    EXPECT_EQ(jobs[1].processor, Processor::kSabre);
    // Variant axis flips every two jobs: "spec" keeps the spec noise,
    // "quiet" overrides it.
    EXPECT_FALSE(jobs[0].meas_noise_mps2.has_value());
    ASSERT_TRUE(jobs[2].meas_noise_mps2.has_value());
    EXPECT_EQ(*jobs[2].meas_noise_mps2, 0.003);
    // Misalignment axis flips every four.
    ASSERT_TRUE(jobs[0].misalignment.has_value());
    EXPECT_EQ(jobs[0].misalignment->roll, math::deg2rad(1.0));
    EXPECT_EQ(jobs[4].misalignment->roll, math::deg2rad(3.0));
    for (const auto& job : jobs) {
        EXPECT_EQ(job.duration_s, 10.0);
        EXPECT_FALSE(job.calibration.has_value());
    }
}

TEST(TuningStudy, EmptyMisalignmentAxisMeansSpecDefault) {
    auto cfg = small_config();
    cfg.misalignments.clear();
    const system::TuningStudy study(cfg);
    EXPECT_EQ(study.cell_count(), 8u);
    for (const auto& job : study.jobs()) {
        EXPECT_FALSE(job.misalignment.has_value());
    }
}

TEST(TuningStudy, CalibrationAndTunerPropagateToEveryJob) {
    auto cfg = small_config();
    cfg.processors = {Processor::kNative};  // adaptive variants: native-only
    cfg.calibration = system::FleetCalibration{12.0};
    cfg.variants.push_back({.label = "adaptive",
                            .use_adaptive_tuner = true,
                            .meas_noise_mps2 = 0.003});
    const system::TuningStudy study(cfg);
    std::size_t tuned = 0;
    for (const auto& job : study.jobs()) {
        ASSERT_TRUE(job.calibration.has_value());
        EXPECT_EQ(job.calibration->duration_s, 12.0);
        if (job.use_adaptive_tuner) {
            ++tuned;
            EXPECT_TRUE(job.tuner.has_value());
        }
    }
    // One variant in three is adaptive.
    EXPECT_EQ(tuned, study.cell_count() / 3);
}

// --- Validation -------------------------------------------------------------

TEST(TuningStudyValidation, RejectsBadAxes) {
    auto cfg = small_config();
    cfg.label.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.scenarios.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.scenarios.push_back("warp-drive");
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.variants.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.processors.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.duration_s = -1.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(TuningStudyValidation, RejectsBadVariants) {
    auto cfg = small_config();
    cfg.variants.push_back({.label = "spec"});  // duplicate label
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.variants[0].label.clear();
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.variants[0].meas_noise_mps2 = -0.01;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = small_config();
    cfg.processors = {Processor::kNative};
    cfg.variants[0].use_adaptive_tuner = true;
    cfg.variants[0].tuner.floor_mps2 = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    // The same bad knobs are ignored while the tuner is off.
    cfg.variants[0].use_adaptive_tuner = false;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(TuningStudyValidation, AcceptsAdaptiveVariantOnTheSabreAxis) {
    // The firmware's writable R register closed the "adaptive jobs
    // rejected on Sabre" gap: an adaptive variant may sweep both fusion
    // processors in one study.
    auto cfg = small_config();  // processors = {native, sabre}
    cfg.variants[0].use_adaptive_tuner = true;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_NO_THROW((void)system::TuningStudy(cfg));
}

TEST(TuningStudyValidation, RejectsBadSeedCounts) {
    auto cfg = small_config();
    cfg.seeds_per_cell = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.seeds_per_cell = system::kFleetMaxSeedsPerJob + 1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.seeds_per_cell = 4;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(TuningStudy, AdaptiveRetuneParityAcrossProcessors) {
    // §11 retune parity between the fusion processors: starting from the
    // quietest static tuning on the city drive, the adaptive loop must
    // climb out of the static band on the native EKF AND on the Sabre
    // firmware (via its writable R register), landing within one
    // raise-factor step of each other.
    system::TuningStudyConfig cfg;
    cfg.label = "retune-parity";
    cfg.scenarios = {"city-drive"};
    cfg.variants = {{.label = "adaptive",
                     .use_adaptive_tuner = true,
                     .meas_noise_mps2 = 0.003}};
    cfg.processors = {Processor::kNative, Processor::kSabre};
    cfg.duration_s = 60.0;
    const system::TuningStudy study(cfg);
    const auto report = study.run(system::FleetRunner({.threads = 2}));

    ASSERT_EQ(report.cells.size(), 2u);
    const auto& native = report.cells[0].result.primary();
    const auto& sabre = report.cells[1].result.primary();
    ASSERT_EQ(report.cells[0].processor_index, 0u);
    EXPECT_GE(native.final_status.tuner_adjustments, 3u);
    EXPECT_GE(sabre.final_status.tuner_adjustments, 3u);
    EXPECT_GE(native.result.meas_noise, 0.010);
    EXPECT_GE(sabre.result.meas_noise, 0.010);
    // Same exceedance statistic, same ladder: the firmware's landing point
    // must sit within one raise factor (1.5x) of the native EKF's.
    const double ratio = sabre.result.meas_noise / native.result.meas_noise;
    EXPECT_GT(ratio, 1.0 / 1.5);
    EXPECT_LT(ratio, 1.5);
}

TEST(TuningStudyValidation, RejectsBadCalibrationAndWideMisalignment) {
    auto cfg = small_config();
    cfg.calibration = system::FleetCalibration{0.0};
    EXPECT_THROW((void)system::TuningStudy(cfg), std::invalid_argument);

    cfg = small_config();
    cfg.misalignments.push_back(EulerAngles::from_deg(30.0, 0.0, 0.0));
    // Caught at job expansion: outside the EKF's small-angle regime.
    EXPECT_THROW((void)system::TuningStudy(cfg), std::invalid_argument);
}

// --- Report determinism and shape -------------------------------------------

TEST(TuningStudy, ReportJsonIsBitwiseIdenticalAcrossThreadCounts) {
    // The acceptance sweep: >= 3 scenarios x >= 3 tuner variants, with the
    // calibration phase and the adaptive tuner in play, through a serial
    // and a heavily parallel runner. The rendered report must be
    // byte-identical — scheduling must never leak into a study.
    system::TuningStudyConfig cfg;
    cfg.label = "determinism";
    cfg.scenarios = {"static-level", "city-drive", "highway-drive"};
    cfg.variants = {
        {.label = "spec"},
        {.label = "retuned", .meas_noise_mps2 = 0.015},
        {.label = "adaptive",
         .use_adaptive_tuner = true,
         .meas_noise_mps2 = 0.003},
    };
    cfg.calibration = system::FleetCalibration{10.0};
    cfg.duration_s = 30.0;
    // The Monte Carlo axis must be just as scheduling-free: two seed
    // realizations per cell ride along, sharing each cell's trace.
    cfg.seeds_per_cell = 2;
    const system::TuningStudy study(cfg);
    ASSERT_EQ(study.cell_count(), 9u);

    const auto serial = study.run(system::FleetRunner({.threads = 1}));
    const auto parallel = study.run(system::FleetRunner({.threads = 8}));
    EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(TuningStudy, SeedEnsembleReductionsLandInTheReport) {
    system::TuningStudyConfig cfg;
    cfg.label = "seed-axis";
    cfg.scenarios = {"static-level"};
    cfg.variants = {{.label = "spec"}};
    cfg.duration_s = 20.0;
    cfg.seeds_per_cell = 3;
    const system::TuningStudy study(cfg);
    ASSERT_EQ(study.jobs().size(), 1u);
    EXPECT_EQ(study.jobs()[0].seeds_per_job, 3u);

    const auto report = study.run(system::FleetRunner({.threads = 2}));
    ASSERT_EQ(report.cells.size(), 1u);
    const auto& stats = report.cells[0].result.seed_stats;
    EXPECT_EQ(stats.seeds, 3u);
    // Three distinct instrument realizations: the ensemble spread of the
    // residual RMS must be a real number (and almost surely nonzero).
    EXPECT_GT(stats.residual_rms.mean, 0.0);
    EXPECT_GT(stats.residual_rms.stddev, 0.0);

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"seed_stats\""), std::string::npos);
    EXPECT_NE(json.find("\"ci95\""), std::string::npos);
    EXPECT_NE(json.find("\"seeds_per_cell\":3"), std::string::npos);
    EXPECT_NE(json.find("\"all_seeds_within_envelope\""), std::string::npos);
}

TEST(TuningStudy, ReportCarriesPerCellReductions) {
    system::TuningStudyConfig cfg;
    cfg.label = "shape";
    cfg.scenarios = {"static-level"};
    cfg.variants = {{.label = "spec"}, {.label = "quiet",
                                        .meas_noise_mps2 = 0.003}};
    cfg.duration_s = 20.0;
    const system::TuningStudy study(cfg);
    const auto report = study.run(system::FleetRunner({.threads = 2}));

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_EQ(report.cells[0].variant_index, 0u);
    EXPECT_EQ(report.cells[1].variant_index, 1u);
    EXPECT_EQ(report.cells[0].result.scenario, "static-level");
    EXPECT_GT(report.cells[0].result.primary().trace.epochs, 0u);
    // The quiet variant must actually carry the overridden noise.
    EXPECT_EQ(report.cells[1].result.primary().result.meas_noise, 0.003);

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"study\":\"shape\""), std::string::npos);
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"quiet\""), std::string::npos);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
}

}  // namespace
