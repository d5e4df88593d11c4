// Reproduces Table 1 of the paper: "Results from Static (Top) & Dynamic
// (Bottom) Tests" — alignment estimates vs injected truth per axis with
// 3-sigma confidence, for static (level and tilted-platform) runs and two
// repeated dynamic drives.
//
// Every row is a calibrated 300 s FleetJob through the full-transport
// BoresightSystem (CAN + RS232, health supervisor), run on both fusion
// processors: the native EKF and the Sabre firmware.
//
// Expected shape (paper §11): static estimates accurate on every
// observable axis with tight 3-sigma; the two dynamic drives agree closely
// with each other; accuracy at or beyond typical automotive alignment
// requirements (~0.5 deg) with 3-sigma/99% confidence.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/alignment_report.hpp"
#include "math/rotation.hpp"
#include "system/fleet.hpp"

namespace {

using namespace ob;
using math::EulerAngles;
using math::rad2deg;
using system::BoresightSystem;

/// One Table 1 row. Scenario shapes and filter tunings come from the
/// scenario library; the bench only chooses the injected truths and seeds,
/// matching the paper's experiment plan.
struct Row {
    const char* label;
    const char* scenario;
    EulerAngles truth;
    std::uint64_t base_seed;
};

[[nodiscard]] system::FleetJob row_job(const Row& row,
                                       BoresightSystem::Processor processor) {
    system::FleetJob job;
    job.scenario = row.scenario;
    job.processor = processor;
    job.base_seed = row.base_seed;
    job.duration_s = 300.0;
    job.misalignment = row.truth;
    job.calibration = system::FleetCalibration{60.0};  // §11.1 dwell
    return job;
}

/// The row's AlignmentResult with its 3-sigma exceedance rate filled in
/// from the final detector counts (two axis samples per fusion update).
[[nodiscard]] core::AlignmentResult row_result(const Row& row,
                                               const system::FleetResult& r) {
    core::AlignmentResult out = r.primary().result;
    const auto& st = r.primary().final_status;
    out.label = row.label;
    out.exceedance_rate =
        st.updates > 0 ? static_cast<double>(st.residual_exceedances) /
                             (2.0 * static_cast<double>(st.updates))
                       : 0.0;
    return out;
}

/// Print one processor's table and return its verdict failures.
int report(BoresightSystem::Processor processor,
           const std::vector<core::AlignmentResult>& results) {
    std::printf("--- %s processor ---\n", system::processor_name(processor));
    std::printf("%s\n", core::alignment_table_header().c_str());
    for (const auto& r : results)
        std::printf("%s\n", core::alignment_table_row(r).c_str());

    // --- Dynamic repeatability (paper: "very close agreement") -----------
    const auto& d1 = results[2].estimate;
    const auto& d2 = results[3].estimate;
    std::printf("dynamic test agreement (drive 1 vs drive 2, degrees): "
                "droll=%.3f  dpitch=%.3f  dyaw=%.3f\n\n",
                rad2deg(std::abs(d1.roll - d2.roll)),
                rad2deg(std::abs(d1.pitch - d2.pitch)),
                rad2deg(std::abs(d1.yaw - d2.yaw)));

    int failures = 0;
    // Observable-axis accuracy: every axis except level-static yaw.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        for (int axis = 0; axis < 3; ++axis) {
            if (i == 0 && axis == 2) continue;  // level-static yaw: skip
            const double err = std::abs(r.error_deg(axis));
            if (err > 0.5) {
                std::printf("  !! %s (%s) axis %d error %.3f deg exceeds 0.5\n",
                            r.label.c_str(), system::processor_name(processor),
                            axis, err);
                ++failures;
            }
        }
    }
    const double agree = rad2deg(std::max({std::abs(d1.roll - d2.roll),
                                           std::abs(d1.pitch - d2.pitch),
                                           std::abs(d1.yaw - d2.yaw)}));
    if (agree > 0.6) {
        std::printf("  !! %s dynamic drives disagree by %.3f deg\n",
                    system::processor_name(processor), agree);
        ++failures;
    }
    return failures;
}

}  // namespace

int main() {
    std::printf("==========================================================\n");
    std::printf("Table 1 — Results from Static (Top) & Dynamic (Bottom) Tests\n");
    std::printf("(angles in degrees: true / estimated / 3-sigma)\n");
    std::printf("==========================================================\n\n");

    // Static tests (paper §11.1), then two dynamic drives (§11.2) with the
    // same misalignment.
    const EulerAngles static_truth = EulerAngles::from_deg(1.5, -2.0, 2.5);
    const EulerAngles dyn_truth = EulerAngles::from_deg(1.2, -0.8, 1.5);
    const std::vector<Row> rows = {
        {"static level", "static-level", static_truth, 101},
        {"static tilted", "static-tilted", static_truth, 102},
        {"dynamic drive 1", "city-drive", dyn_truth, 21},
        {"dynamic drive 2", "city-drive", dyn_truth, 22},
    };
    const BoresightSystem::Processor processors[] = {
        BoresightSystem::Processor::kNative,
        BoresightSystem::Processor::kSabre};

    std::vector<system::FleetJob> jobs;
    for (const auto p : processors)
        for (const auto& row : rows) jobs.push_back(row_job(row, p));
    const auto fleet = system::FleetRunner{}.run(jobs);

    int failures = 0;
    for (std::size_t p = 0; p < 2; ++p) {
        std::vector<core::AlignmentResult> results;
        for (std::size_t i = 0; i < rows.size(); ++i)
            results.push_back(row_result(rows[i], fleet[p * rows.size() + i]));
        failures += report(processors[p], results);
    }

    std::printf("Notes:\n");
    std::printf(
        "  * static level: yaw is NOT observable from gravity alone — its\n"
        "    3-sigma stays wide (paper: static yaw tests need the platform\n"
        "    oriented); the tilted-platform run recovers all three axes.\n");
    std::printf(
        "  * measurement noise: static %.4f m/s^2 (paper 0.003-0.01),\n"
        "    dynamic %.4f m/s^2 (paper 0.015 or higher).\n",
        fleet[0].primary().result.meas_noise,
        fleet[2].primary().result.meas_noise);

    std::printf("\n%s: alignment accuracy %s the paper's reported class "
                "(sub-0.5-degree, 3-sigma confidence) on both processors\n",
                failures == 0 ? "PASS" : "FAIL",
                failures == 0 ? "matches" : "misses");
    return failures == 0 ? 0 : 1;
}
