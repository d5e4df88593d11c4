#include <gtest/gtest.h>

#include "fleet_test_util.hpp"
#include "system/fleet.hpp"

// Fleet-level regression suite: every scenario in the library runs end to
// end through the full-transport BoresightSystem on BOTH fusion processors
// (double-precision native EKF and float32 Sabre firmware), and the whole
// post-settle estimate trajectory must stay inside the spec's envelope.
// This is the substrate future perf/sharding PRs are validated against:
// any change that perturbs convergence on any scenario fails here by name.

namespace {

using namespace ob;
using testutil::FleetCase;

class FleetRegression : public ::testing::TestWithParam<FleetCase> {};

TEST_P(FleetRegression, StaysInsideEnvelope) {
    system::FleetJob job;
    job.scenario = GetParam().scenario;
    job.processor = GetParam().processor;
    const auto r = system::run_fleet_job(job);

    testutil::expect_inside_envelope(r);
    const auto& p = r.primary();

    // Transport health: the default links are loss-free, and nearly every
    // epoch must have paired up into a fusion update.
    EXPECT_EQ(p.final_status.dmu_frames_lost, 0u);
    EXPECT_EQ(p.final_status.acc_packets_lost, 0u);
    EXPECT_GT(p.final_status.updates, (9 * p.trace.epochs) / 10);

    // Confidence must be meaningful: strictly positive 3-sigma that the
    // observable axes have actually tightened from the 5-degree prior.
    for (std::size_t axis = 0; axis < 2; ++axis) {
        EXPECT_GT(p.result.sigma3_rad[axis], 0.0);
        EXPECT_LT(math::rad2deg(p.result.sigma3_rad[axis]), 5.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Library, FleetRegression,
                         ::testing::ValuesIn(testutil::all_library_cases()),
                         testutil::fleet_case_name);

}  // namespace
