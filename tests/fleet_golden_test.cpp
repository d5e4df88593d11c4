#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fleet_test_util.hpp"
#include "sim/scenario_library.hpp"
#include "system/fleet.hpp"
#include "util/json.hpp"

// Golden-trace regression corpus: every library scenario x processor has a
// checked-in summary CSV under tests/golden/. The comparator re-runs the
// fleet job and diffs against the corpus:
//
//   * determinism fields (epochs, updates, checked points, loss counters,
//     envelope verdict) compare EXACTLY — any drift means the RNG stream,
//     transport timing or scheduling leaked into the run;
//   * numeric fields (estimates, 3-sigma, residual RMS) compare under
//     explicit tolerances listed in kDoubleFields, tight enough that any
//     real regression trips them but robust to last-ulp libm variation
//     across toolchains. (In-process bitwise reproducibility is asserted
//     separately in fleet_concurrency_test.cpp.)
//
// Regenerate after an *intentional* behavior change with either of:
//   ./fleet_golden_test --update-golden
//   OB_UPDATE_GOLDEN=1 ctest -R FleetGolden
// and commit the diff under tests/golden/ for review.

namespace {

using namespace ob;
using testutil::FleetCase;

bool g_update_golden = false;

std::string golden_path(const FleetCase& c) {
    return std::string(OB_GOLDEN_DIR) + "/" + c.scenario + "." +
           system::processor_name(c.processor) + ".csv";
}

/// Exact fields, in CSV order.
const char* const kExactFields[] = {
    "epochs", "updates", "checked_points", "dmu_frames_lost",
    "acc_packets_lost", "within_envelope",
};

/// Tolerance fields, in CSV order after the exact block.
struct DoubleField {
    const char* name;
    double tolerance;
};
constexpr DoubleField kDoubleFields[] = {
    {"roll_rad", 1e-9},         {"pitch_rad", 1e-9},
    {"yaw_rad", 1e-9},          {"sigma3_roll_rad", 1e-9},
    {"sigma3_pitch_rad", 1e-9}, {"sigma3_yaw_rad", 1e-9},
    {"residual_rms_mps2", 1e-9}, {"meas_noise_mps2", 1e-12},
    {"worst_roll_err_deg", 1e-7}, {"worst_pitch_err_deg", 1e-7},
    {"worst_yaw_err_deg", 1e-7},
};

std::string header_line() {
    std::string h = "scenario,processor";
    for (const char* f : kExactFields) {
        h += ',';
        h += f;
    }
    for (const auto& f : kDoubleFields) {
        h += ',';
        h += f.name;
    }
    return h;
}

std::vector<std::uint64_t> exact_values(const system::FleetSeedResult& r) {
    return {r.trace.epochs,
            r.final_status.updates,
            r.trace.checked_points,
            r.final_status.dmu_frames_lost,
            r.final_status.acc_packets_lost,
            r.within_envelope ? 1u : 0u};
}

std::vector<double> double_values(const system::FleetSeedResult& r) {
    return {r.result.estimate.roll,
            r.result.estimate.pitch,
            r.result.estimate.yaw,
            r.result.sigma3_rad[0],
            r.result.sigma3_rad[1],
            r.result.sigma3_rad[2],
            r.result.residual_rms,
            r.result.meas_noise,
            r.trace.worst_roll_err_deg,
            r.trace.worst_pitch_err_deg,
            r.trace.worst_yaw_err_deg};
}

std::string render_golden(const FleetCase& c,
                          const system::FleetSeedResult& r) {
    std::string out = header_line() + "\n";
    out += c.scenario;
    out += ',';
    out += system::processor_name(c.processor);
    for (const std::uint64_t v : exact_values(r)) {
        out += ',';
        out += std::to_string(v);
    }
    for (const double v : double_values(r)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);  // exact round-trip
        out += ',';
        out += buf;
    }
    out += '\n';
    return out;
}

std::vector<std::string> split_csv(const std::string& line) {
    std::vector<std::string> out;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) out.push_back(field);
    return out;
}

}  // namespace

class FleetGolden : public ::testing::TestWithParam<FleetCase> {};

TEST_P(FleetGolden, MatchesCorpus) {
    const FleetCase c = GetParam();
    system::FleetJob job;
    job.scenario = c.scenario;
    job.processor = c.processor;
    const auto result = system::run_fleet_job(job);
    const system::FleetSeedResult& r = result.primary();
    const std::string path = golden_path(c);

    if (g_update_golden) {
        util::write_file(path, render_golden(c, r));
        std::printf("[  GOLDEN  ] regenerated %s\n", path.c_str());
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden trace " << path
                    << "\nregenerate with: ./fleet_golden_test --update-golden";
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    ASSERT_EQ(header, header_line())
        << "golden schema drift in " << path
        << " — regenerate with --update-golden and commit the diff";

    const auto fields = split_csv(row);
    const auto exact = exact_values(r);
    const auto doubles = double_values(r);
    ASSERT_EQ(fields.size(), 2 + exact.size() + doubles.size()) << path;
    EXPECT_EQ(fields[0], c.scenario);
    EXPECT_EQ(fields[1], system::processor_name(c.processor));

    std::size_t i = 2;
    for (std::size_t k = 0; k < exact.size(); ++k, ++i) {
        EXPECT_EQ(std::strtoull(fields[i].c_str(), nullptr, 10), exact[k])
            << "determinism field '" << kExactFields[k] << "' drifted in "
            << c.scenario << "/" << system::processor_name(c.processor)
            << " — the RNG stream or transport timing changed";
    }
    for (std::size_t k = 0; k < doubles.size(); ++k, ++i) {
        const double expected = std::strtod(fields[i].c_str(), nullptr);
        EXPECT_NEAR(doubles[k], expected, kDoubleFields[k].tolerance)
            << "field '" << kDoubleFields[k].name << "' drifted in "
            << c.scenario << "/" << system::processor_name(c.processor)
            << "\nif intentional, regenerate with --update-golden";
    }
}

INSTANTIATE_TEST_SUITE_P(Library, FleetGolden,
                         ::testing::ValuesIn(ob::testutil::all_library_cases()),
                         ob::testutil::fleet_case_name);

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--update-golden") {
            g_update_golden = true;
            for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
            --argc;
            --i;
        }
    }
    if (const char* env = std::getenv("OB_UPDATE_GOLDEN")) {
        if (env[0] == '1') g_update_golden = true;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
