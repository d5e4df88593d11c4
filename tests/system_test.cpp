#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>

#include "comm/uart.hpp"
#include "math/rotation.hpp"
#include "sim/scenario.hpp"
#include "system/boresight_system.hpp"
#include "system/experiment.hpp"

namespace {

using namespace ob;
using math::deg2rad;
using math::EulerAngles;
using math::rad2deg;

// The CAN bus delivers into the system's own bridge and the bridge into
// its own DMU link, so a copied or moved system would feed its source.
static_assert(!std::is_move_constructible_v<system::BoresightSystem> &&
              !std::is_copy_constructible_v<system::BoresightSystem>);

TEST(BoresightSystem, NativeEndToEndWithFullTransport) {
    const EulerAngles truth = EulerAngles::from_deg(1.0, -1.5, 2.0);
    auto scfg = sim::ScenarioConfig::static_tilted(
        120.0, truth, EulerAngles::from_deg(12.0, 8.0, 0.0));
    // Clean-ish instruments so the check isolates transport correctness.
    scfg.acc_errors.bias_sigma = 0.0;
    scfg.imu_errors.accel_bias_sigma = 0.0;
    sim::Scenario sc(scfg, 5);

    system::BoresightSystem::Config cfg;
    cfg.filter.meas_noise_mps2 = 0.0075;
    system::BoresightSystem sys(cfg);
    while (auto s = sc.next()) sys.feed(sc, *s);

    const auto st = sys.status();
    EXPECT_GT(st.updates, 11000u);  // nearly every epoch paired
    EXPECT_NEAR(rad2deg(st.estimate.roll), 1.0, 0.3);
    EXPECT_NEAR(rad2deg(st.estimate.pitch), -1.5, 0.3);
    EXPECT_NEAR(rad2deg(st.estimate.yaw), 2.0, 0.6);
    EXPECT_EQ(st.dmu_frames_lost, 0u);
    EXPECT_EQ(st.acc_packets_lost, 0u);
    // CAN at 500 kbit/s: two ~130-bit frames per 10 ms epoch -> worst
    // queueing latency well under one epoch.
    EXPECT_LT(st.worst_transport_latency, 0.002);
}

TEST(BoresightSystem, SabreProcessorEndToEnd) {
    const EulerAngles truth = EulerAngles::from_deg(0.8, -0.6, 0.0);
    auto scfg = sim::ScenarioConfig::static_level(30.0, truth);
    scfg.acc_errors.bias_sigma = 0.0;
    scfg.imu_errors.accel_bias_sigma = 0.0;
    sim::Scenario sc(scfg, 6);

    system::BoresightSystem::Config cfg;
    cfg.processor = system::BoresightSystem::Processor::kSabre;
    cfg.sabre.r_sigma = 0.0075;
    system::BoresightSystem sys(cfg);
    while (auto s = sc.next()) sys.feed(sc, *s);

    const auto st = sys.status();
    EXPECT_GT(st.updates, 2900u);
    EXPECT_NEAR(rad2deg(st.estimate.roll), 0.8, 0.3);
    EXPECT_NEAR(rad2deg(st.estimate.pitch), -0.6, 0.3);
}

TEST(BoresightSystem, SurvivesLinkFaults) {
    // Drop 2% of DMU bridge bytes and 2% of ACC bytes: epochs are lost but
    // the filter still converges and loss counters report the damage.
    const EulerAngles truth = EulerAngles::from_deg(1.2, 0.9, 0.0);
    auto scfg = sim::ScenarioConfig::static_level(120.0, truth);
    scfg.acc_errors.bias_sigma = 0.0;
    scfg.imu_errors.accel_bias_sigma = 0.0;
    sim::Scenario sc(scfg, 7);

    system::BoresightSystem::Config cfg;
    cfg.filter.meas_noise_mps2 = 0.0075;
    cfg.filter.nis_gate = 13.8;  // belt-and-braces against surviving garbage
    cfg.dmu_link_faults.drop_probability = 0.02;
    cfg.acc_link_faults.bit_flip_probability = 0.02;
    system::BoresightSystem sys(cfg);
    while (auto s = sc.next()) sys.feed(sc, *s);

    const auto st = sys.status();
    EXPECT_GT(st.updates, 6000u) << "most epochs must still pair up";
    EXPECT_LT(st.updates, 12001u);
    EXPECT_GT(st.dmu_frames_lost + st.acc_packets_lost, 20u)
        << "fault counters must register the injected damage";
    EXPECT_NEAR(rad2deg(st.estimate.roll), 1.2, 0.3);
    EXPECT_NEAR(rad2deg(st.estimate.pitch), 0.9, 0.3);
}

TEST(BoresightSystem, AdaptiveTunerRaisesNoiseWhenDriving) {
    auto scfg = sim::ScenarioConfig::dynamic_city(
        120.0, EulerAngles::from_deg(1, 1, 1), 13);
    sim::Scenario sc(scfg, 8);
    system::BoresightSystem::Config cfg;
    cfg.filter.meas_noise_mps2 = 0.003;  // static tuning, wrong for driving
    cfg.use_adaptive_tuner = true;
    system::BoresightSystem sys(cfg);
    while (auto s = sc.next()) sys.feed(sc, *s);
    EXPECT_GT(sys.status().measurement_noise, 0.01)
        << "tuner must have raised R from the static value";
}

/// estimate() is status().estimate without the rest of the status, bit for
/// bit at every epoch: on a clean native run, and on a Sabre run that
/// coasts through a total link outage and recovers.
void expect_estimate_matches_status(system::BoresightSystem::Processor proc,
                                    bool outage) {
    auto scfg = sim::ScenarioConfig::static_level(
        12.0, EulerAngles::from_deg(1.0, -0.8, 0.0));
    sim::Scenario sc(scfg, 9);
    system::BoresightSystem::Config cfg;
    cfg.processor = proc;
    system::BoresightSystem sys(cfg);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const comm::UartFaults blind{.drop_probability = 1.0};
    while (auto s = sc.next()) {
        const bool dark = outage && s->t >= 3.0 && s->t < 6.0;
        sys.set_link_faults(dark ? blind : comm::UartFaults{},
                            dark ? blind : comm::UartFaults{});
        sys.feed(sc, *s);
        const auto est = sys.estimate();
        const auto st = sys.status();
        ASSERT_EQ(bits(est.roll), bits(st.estimate.roll)) << "t=" << s->t;
        ASSERT_EQ(bits(est.pitch), bits(st.estimate.pitch)) << "t=" << s->t;
        ASSERT_EQ(bits(est.yaw), bits(st.estimate.yaw)) << "t=" << s->t;
    }
    const auto st = sys.status();
    EXPECT_GT(st.updates, 0u);
    if (outage) {
        EXPECT_GT(st.coast_s, 0.0) << "the outage must have coasted";
        EXPECT_GE(st.recoveries, 1u);
    }
}

TEST(BoresightSystem, EstimateEqualsStatusEstimateNative) {
    expect_estimate_matches_status(
        system::BoresightSystem::Processor::kNative, false);
}

TEST(BoresightSystem, EstimateEqualsStatusEstimateSabreCoasting) {
    expect_estimate_matches_status(
        system::BoresightSystem::Processor::kSabre, true);
}

}  // namespace
