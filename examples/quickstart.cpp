// Quickstart: estimate the mounting misalignment of a camera-fixed
// accelerometer against a vehicle IMU in a dozen lines of library code.
//
// What happens: a simulated vehicle sits on a tilt bench; the camera's ACC
// is mounted 1.5/-2.0/2.5 degrees off in roll/pitch/yaw; the Kalman fusion
// filter recovers those angles from the disagreement between the two
// sensors' view of gravity, together with a 3-sigma confidence.

#include <cstdio>

#include "core/alignment_report.hpp"
#include "math/rotation.hpp"
#include "system/fleet.hpp"

using namespace ob;

int main() {
    system::FleetJob job;
    // 300 seconds on a tilt bench cycling through platform orientations so
    // every axis is observable (see DESIGN.md on observability), after the
    // paper's 60 s level-platform calibration.
    job.scenario = "static-tilted";
    job.base_seed = 42;
    job.duration_s = 300.0;
    job.misalignment = math::EulerAngles::from_deg(1.5, -2.0, 2.5);
    job.calibration = system::FleetCalibration{60.0};

    // Every sample crosses the CAN/RS232 transport into the fusion EKF.
    const auto run = system::run_fleet_job(job).primary();
    auto result = run.result;
    result.label = "quickstart";
    result.exceedance_rate =
        static_cast<double>(run.final_status.residual_exceedances) /
        (2.0 * static_cast<double>(run.final_status.updates));

    std::printf("calibration: bias=(%.4f, %.4f) m/s^2, noise=%.4f m/s^2\n",
                run.calibrated_bias[0], run.calibrated_bias[1],
                run.calibration_noise);
    std::printf("%s\n", core::alignment_table_header().c_str());
    std::printf("%s\n", core::alignment_table_row(result).c_str());
    std::printf("\nmax error: %.3f deg (automotive requirement class: 0.5 deg)\n",
                result.max_error_deg());
    std::printf("note: the reported 3-sigma covers random error; at the "
                "millidegree level the\nresidual systematic instrument errors "
                "(scale factor, cross-axis) dominate,\nwhich is why the paper "
                "quotes accuracy against requirements, not sigma alone.\n");
    return result.max_error_deg() < 0.5 ? 0 : 1;
}
