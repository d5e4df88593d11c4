#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "sim/scenario_library.hpp"
#include "system/fleet.hpp"

// Shared plumbing for the fleet-based suites (fleet_regression_test,
// fleet_golden_test, scenario_regression_test): the scenario x processor
// case matrix, its gtest parameter naming, and the envelope assertion.
// Keeping these in one place means a new processor mode or scenario rename
// cannot desynchronize which cases the suites cover.

namespace ob::testutil {

struct FleetCase {
    std::string scenario;
    system::BoresightSystem::Processor processor;
};

/// gtest prints a parameter into the test's listed name. Without this the
/// default byte dump includes the string's heap pointer, so ctest names
/// (captured by gtest_discover_tests) changed with every process.
inline void PrintTo(const FleetCase& c, std::ostream* os) {
    *os << c.scenario << '/' << system::processor_name(c.processor);
}

inline std::vector<FleetCase> all_library_cases() {
    std::vector<FleetCase> out;
    for (const auto& spec : sim::ScenarioLibrary::instance().all()) {
        out.push_back({spec.name, system::BoresightSystem::Processor::kNative});
        out.push_back({spec.name, system::BoresightSystem::Processor::kSabre});
    }
    return out;
}

inline std::string fleet_case_name(
    const ::testing::TestParamInfo<FleetCase>& info) {
    std::string n = info.param.scenario + "_" +
                    system::processor_name(info.param.processor);
    for (auto& c : n) {
        if (c == '-') c = '_';
    }
    return n;
}

/// Assert the completed job stayed inside its (possibly Sabre-scaled)
/// envelope, with the worst excursion per axis reported on failure.
inline void expect_inside_envelope(const system::FleetResult& r) {
    const auto& p = r.primary();
    EXPECT_GT(p.trace.checked_points, 0u)
        << r.scenario << ": no samples after settle time";
    EXPECT_LE(p.trace.worst_roll_err_deg, r.envelope.roll_deg)
        << r.scenario << ": roll escaped the envelope";
    EXPECT_LE(p.trace.worst_pitch_err_deg, r.envelope.pitch_deg)
        << r.scenario << ": pitch escaped the envelope";
    if (r.envelope.check_yaw) {
        EXPECT_LE(p.trace.worst_yaw_err_deg, r.envelope.yaw_deg)
            << r.scenario << ": yaw escaped the envelope";
    }
    EXPECT_LE(p.result.residual_rms, r.envelope.residual_rms_max)
        << r.scenario << ": innovation RMS above bound";
    EXPECT_TRUE(p.within_envelope);
}

}  // namespace ob::testutil
