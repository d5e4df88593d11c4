// Differential pin of the batched ensemble Realize path: every lane of the
// SoA ensemble (EnsembleRealizer sampling, EnsembleEkf fusion, the fleet's
// batched seed runner) must be BITWISE identical to the scalar
// Scenario/BoresightEkf/run_fleet_seed path for the same seed index —
// serial and threaded, across seed counts that exercise single-lane units,
// small batches, the bench shape, and a unit split past kMaxBatchLanes.
// The comparison is over the canonical shard byte encoding, so every
// result field (trace summary, full final status, calibration outputs)
// participates; nothing is "close enough". The per-lane fallback is pinned
// at the system layer: a lane that leaves the nominal envelope is marked
// failed, and no other lane's status moves by a bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/boresight_ekf.hpp"
#include "core/ensemble_ekf.hpp"
#include "sim/ensemble_realizer.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_library.hpp"
#include "sim/scenario_trace.hpp"
#include "system/boresight_system.hpp"
#include "system/ensemble_runner.hpp"
#include "system/fleet.hpp"
#include "system/fleet_shard.hpp"
#include "util/wire.hpp"

namespace {

using namespace ob;

[[nodiscard]] std::vector<std::uint8_t> seed_bytes(
    const system::FleetSeedResult& s) {
    util::ByteWriter w;
    system::encode_seed_result(w, s);
    return w.data();
}

// --- Layer 1: the SoA realizer against N independent Scenarios. -----------

TEST(EnsembleRealizer, EveryLaneMatchesItsScalarScenarioBitwise) {
    const auto& spec = sim::ScenarioLibrary::instance().at("city-drive");
    const std::uint64_t stream = sim::scenario_seed(spec.name, 99);
    const auto trace = sim::ScenarioTrace::build(
        spec.build(15.0, spec.misalignment, stream), stream);

    const std::vector<std::uint64_t> seeds{stream, stream ^ 1, 0,
                                           0xDEADBEEFCAFEull};
    sim::EnsembleRealizer ens(trace, spec.misalignment, seeds);
    ASSERT_EQ(ens.lanes(), seeds.size());

    std::vector<sim::Scenario> scalar;
    scalar.reserve(seeds.size());
    for (const auto s : seeds) {
        scalar.emplace_back(trace, spec.misalignment, s);
    }

    // Bump every path mid-run so the disturbance arithmetic is covered too.
    const std::size_t bump_epoch = trace->epochs() / 2;
    const auto delta = math::EulerAngles::from_deg(0.4, -0.2, 0.1);

    double t = 0.0;
    std::size_t epoch = 0;
    double ts = 0.0;
    comm::DmuSample dmu;
    comm::AdxlTiming adxl;
    while (true) {
        if (epoch == bump_epoch) {
            ens.bump(delta);
            for (auto& sc : scalar) sc.bump(delta);
        }
        if (!ens.step(t)) break;
        for (std::size_t l = 0; l < seeds.size(); ++l) {
            ASSERT_TRUE(scalar[l].next_wire(ts, dmu, adxl));
            EXPECT_EQ(ts, t);
            ASSERT_EQ(ens.dmu()[l], dmu) << "lane " << l << " epoch " << epoch;
            ASSERT_EQ(ens.adxl()[l], adxl)
                << "lane " << l << " epoch " << epoch;
        }
        ++epoch;
    }
    EXPECT_EQ(epoch, trace->epochs());
    EXPECT_FALSE(scalar.front().next_wire(ts, dmu, adxl));

    const auto truth = ens.true_misalignment();
    const auto truth_scalar = scalar.front().true_misalignment();
    EXPECT_EQ(truth.roll, truth_scalar.roll);
    EXPECT_EQ(truth.pitch, truth_scalar.pitch);
    EXPECT_EQ(truth.yaw, truth_scalar.yaw);
}

// --- Layer 2: the lane-array EKF against N independent filters. -----------

TEST(EnsembleEkf, LanesMatchIndependentFiltersBitwise) {
    core::BoresightConfig cfg;
    cfg.meas_noise_mps2 = 0.01;
    constexpr std::size_t kLanes = 5;
    core::EnsembleEkf ens(cfg, kLanes);
    std::vector<core::BoresightEkf> scalar(kLanes, core::BoresightEkf(cfg));

    // Deterministic lane-distinct measurement streams (no RNG needed).
    for (std::size_t k = 0; k < 400; ++k) {
        math::Vec3 f_body[kLanes];
        math::Vec2 z[kLanes];
        core::BoresightEkf::Update up[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
            const double a = 0.1 * static_cast<double>(k % 17) -
                             0.03 * static_cast<double>(l);
            f_body[l] = math::Vec3{a, 0.2 - a, 9.8};
            z[l] = math::Vec2{a + 0.01 * static_cast<double>(l), 0.2 - a};
        }
        ens.step_all(f_body, z, up);
        for (std::size_t l = 0; l < kLanes; ++l) {
            const auto ref = scalar[l].step(f_body[l], z[l]);
            EXPECT_EQ(up[l].residual[0], ref.residual[0]);
            EXPECT_EQ(up[l].residual[1], ref.residual[1]);
            EXPECT_EQ(up[l].sigma3[0], ref.sigma3[0]);
            EXPECT_EQ(up[l].sigma3[1], ref.sigma3[1]);
        }
        if (k == 200) {
            ens.grow_angle_covariance(2, 1e-6);
            scalar[2].grow_angle_covariance(1e-6);
            ens.set_measurement_noise(3, 0.02);
            scalar[3].set_measurement_noise(0.02);
        }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
        const auto a = ens.misalignment(l);
        const auto b = scalar[l].misalignment();
        EXPECT_EQ(a.roll, b.roll);
        EXPECT_EQ(a.pitch, b.pitch);
        EXPECT_EQ(a.yaw, b.yaw);
        const auto s3a = ens.misalignment_sigma3(l);
        const auto s3b = scalar[l].misalignment_sigma3();
        for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(s3a[i], s3b[i]);
    }
}

// --- Layer 3: the lane-array system and its per-lane fallback. ------------

void expect_bitwise(double a, double b, const char* field, std::size_t lane) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << field << " of lane " << lane << ": " << a << " vs " << b;
}

void expect_status_eq(const system::BoresightSystem::Status& a,
                      const system::BoresightSystem::Status& b,
                      std::size_t lane) {
    expect_bitwise(a.estimate.roll, b.estimate.roll, "roll", lane);
    expect_bitwise(a.estimate.pitch, b.estimate.pitch, "pitch", lane);
    expect_bitwise(a.estimate.yaw, b.estimate.yaw, "yaw", lane);
    for (std::size_t i = 0; i < 3; ++i) {
        expect_bitwise(a.sigma3[i], b.sigma3[i], "sigma3", lane);
    }
    EXPECT_EQ(a.updates, b.updates) << "lane " << lane;
    EXPECT_EQ(a.dmu_frames_lost, b.dmu_frames_lost) << "lane " << lane;
    EXPECT_EQ(a.acc_packets_lost, b.acc_packets_lost) << "lane " << lane;
    expect_bitwise(a.worst_transport_latency, b.worst_transport_latency,
                   "worst_transport_latency", lane);
    expect_bitwise(a.measurement_noise, b.measurement_noise,
                   "measurement_noise", lane);
    expect_bitwise(a.residual_rms, b.residual_rms, "residual_rms", lane);
    EXPECT_EQ(a.tuner_adjustments, b.tuner_adjustments) << "lane " << lane;
    EXPECT_EQ(a.residual_flagged, b.residual_flagged) << "lane " << lane;
    expect_bitwise(a.residual_flag_s, b.residual_flag_s, "residual_flag_s",
                   lane);
    expect_bitwise(a.residual_windowed_rate, b.residual_windowed_rate,
                   "residual_windowed_rate", lane);
    EXPECT_EQ(a.residual_exceedances, b.residual_exceedances)
        << "lane " << lane;
    EXPECT_EQ(a.health, b.health) << "lane " << lane;
    EXPECT_EQ(a.worst_health, b.worst_health) << "lane " << lane;
    EXPECT_EQ(a.supervisor_alarmed, b.supervisor_alarmed) << "lane " << lane;
    expect_bitwise(a.supervisor_alarm_s, b.supervisor_alarm_s,
                   "supervisor_alarm_s", lane);
    expect_bitwise(a.dmu_delivery_rate, b.dmu_delivery_rate,
                   "dmu_delivery_rate", lane);
    expect_bitwise(a.acc_delivery_rate, b.acc_delivery_rate,
                   "acc_delivery_rate", lane);
    expect_bitwise(a.coast_s, b.coast_s, "coast_s", lane);
    EXPECT_EQ(a.recoveries, b.recoveries) << "lane " << lane;
    expect_bitwise(a.reconvergence_s, b.reconvergence_s, "reconvergence_s",
                   lane);
    EXPECT_EQ(a.acc_implausible, b.acc_implausible) << "lane " << lane;
}

TEST(EnsembleNominalSystem, ImplausibleLaneFallsOutOthersStayBitwiseScalar) {
    const auto& spec = sim::ScenarioLibrary::instance().at("city-drive");
    const std::uint64_t stream = sim::scenario_seed(spec.name, 7);
    const auto trace = sim::ScenarioTrace::build(
        spec.build(15.0, spec.misalignment, stream), stream);
    constexpr std::size_t kLanes = 4;
    constexpr std::size_t kBadLane = 2;
    const std::size_t bad_epoch = trace->epochs() / 3;
    std::vector<std::uint64_t> seeds;
    for (std::size_t l = 0; l < kLanes; ++l) {
        seeds.push_back(system::fleet_sub_seed(stream, l));
    }

    // An under-tuned R, a touchy residual monitor and the adaptive tuner,
    // so the detector and tuner fields the comparison covers all move.
    system::BoresightSystem::Config cfg;
    cfg.filter.meas_noise_mps2 = 0.1 * spec.meas_noise_mps2;
    cfg.use_adaptive_tuner = true;
    cfg.monitor_alarm_rate = 0.004;
    cfg.monitor_min_samples = 20;

    sim::EnsembleRealizer ens(trace, spec.misalignment, seeds);
    system::EnsembleNominalSystem batch(cfg, kLanes);
    std::deque<system::BoresightSystem> scalar;  // pinned: not movable
    for (std::size_t l = 0; l < kLanes; ++l) scalar.emplace_back(cfg);

    std::vector<comm::AdxlTiming> adxl(kLanes);
    std::size_t bad_updates = 0;
    double t = 0.0;
    for (std::size_t epoch = 0; ens.step(t); ++epoch) {
        for (std::size_t l = 0; l < kLanes; ++l) adxl[l] = ens.adxl()[l];
        if (epoch == bad_epoch) {
            adxl[kBadLane].t2 = 0;  // no physical duty cycle has period 0
            ASSERT_FALSE(comm::adxl_plausible(adxl[kBadLane], trace->adxl()));
        }
        batch.feed(*trace, t, ens.dmu(), adxl.data());
        for (std::size_t l = 0; l < kLanes; ++l) {
            if (l != kBadLane) {
                scalar[l].feed(*trace, t, ens.dmu()[l], adxl[l]);
            }
        }

        EXPECT_EQ(batch.lane_ok(kBadLane), epoch < bad_epoch)
            << "epoch " << epoch;
        if (epoch == bad_epoch) {
            bad_updates = batch.status(kBadLane).updates;
        } else if (epoch > bad_epoch) {
            // A failed lane is skipped entirely: its state stays frozen.
            EXPECT_EQ(batch.status(kBadLane).updates, bad_updates);
        }
        if (epoch % 250 == 0 || epoch == bad_epoch) {
            for (std::size_t l = 0; l < kLanes; ++l) {
                if (l == kBadLane) continue;
                ASSERT_TRUE(batch.lane_ok(l)) << "lane " << l;
                expect_status_eq(batch.status(l), scalar[l].status(), l);
            }
        }
    }

    std::size_t flagged = 0;
    std::size_t exceedances = 0;
    std::size_t adjustments = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
        if (l == kBadLane) continue;
        ASSERT_TRUE(batch.lane_ok(l)) << "lane " << l;
        const auto st = scalar[l].status();
        expect_status_eq(batch.status(l), st, l);
        flagged += st.residual_flagged ? 1 : 0;
        exceedances += st.residual_exceedances;
        adjustments += st.tuner_adjustments;
    }
    EXPECT_GT(flagged, 0u) << "no lane's residual monitor latched";
    EXPECT_GT(exceedances, 0u) << "the monitor never saw an exceedance";
    EXPECT_GT(adjustments, 0u) << "the tuner never retuned";
}

// --- Layer 4: the full fleet, batched vs scalar, serial and threaded. -----

[[nodiscard]] std::vector<system::FleetJob> differential_jobs() {
    using system::BoresightSystem;
    std::vector<system::FleetJob> jobs;

    {  // The bench shape: plain native multi-seed.
        system::FleetJob j;
        j.scenario = "city-drive";
        j.duration_s = 20.0;
        j.seeds_per_job = 8;
        jobs.push_back(j);
    }
    {  // Adaptive tuner state must batch identically.
        system::FleetJob j;
        j.scenario = "highway-drive";
        j.duration_s = 20.0;
        j.seeds_per_job = 2;
        j.use_adaptive_tuner = true;
        jobs.push_back(j);
    }
    {  // 33 lanes: one unit past kMaxBatchLanes, forcing a 32+1 split;
        // plus a measurement-noise override.
        system::FleetJob j;
        j.scenario = "emergency-brake";
        j.duration_s = 12.0;
        j.seeds_per_job = 33;
        j.meas_noise_mps2 = 0.015;
        jobs.push_back(j);
    }
    {  // Bump + per-lane §11.1 calibration.
        system::FleetJob j;
        j.scenario = "carpark-bump";
        j.duration_s = 20.0;
        j.seeds_per_job = 8;
        j.calibration = system::FleetCalibration{.duration_s = 10.0};
        jobs.push_back(j);
    }
    {  // Sabre jobs must fall back to the scalar path untouched.
        system::FleetJob j;
        j.scenario = "city-drive";
        j.processor = BoresightSystem::Processor::kSabre;
        j.duration_s = 10.0;
        j.seeds_per_job = 2;
        jobs.push_back(j);
    }
    {  // Single-seed job: the degenerate one-lane unit.
        system::FleetJob j;
        j.scenario = "trailer-sway";
        j.duration_s = 20.0;
        j.seeds_per_job = 1;
        jobs.push_back(j);
    }
    {  // Active fault: not batchable, scalar on both sides.
        system::FleetJob j;
        j.scenario = "city-drive";
        j.duration_s = 15.0;
        j.seeds_per_job = 3;
        j.fault = system::FleetFault{.type = system::FaultType::kUartDropout,
                                     .intensity = 0.02};
        jobs.push_back(j);
    }
    {  // Zero-intensity fault cell: an exact control, and batchable.
        system::FleetJob j;
        j.scenario = "city-drive";
        j.duration_s = 15.0;
        j.seeds_per_job = 3;
        j.fault = system::FleetFault{.type = system::FaultType::kUartDropout,
                                     .intensity = 0.0};
        jobs.push_back(j);
    }
    return jobs;
}

TEST(EnsembleBatch, FleetResultsBitwiseEqualScalarForEverySeed) {
    const auto jobs = differential_jobs();

    // run_fleet_job realizes every seed through scalar run_fleet_seed,
    // serially: the reference the batched runner must match lane for lane.
    std::vector<system::FleetResult> reference;
    for (const auto& job : jobs) reference.push_back(system::run_fleet_job(job));

    for (const std::size_t threads : {1u, 8u}) {
        const auto got = system::FleetRunner({.threads = threads}).run(jobs);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            ASSERT_EQ(got[j].seeds.size(), reference[j].seeds.size())
                << threads << " thread(s), job " << j;
            for (std::size_t s = 0; s < reference[j].seeds.size(); ++s) {
                EXPECT_EQ(seed_bytes(got[j].seeds[s]),
                          seed_bytes(reference[j].seeds[s]))
                    << threads << " thread(s): job " << j << " ("
                    << jobs[j].scenario << ") seed index " << s
                    << " diverged from the scalar serial reference";
            }
        }
    }
}

// The batched path must also survive sharding: a mid-job slice boundary
// makes the first unit of the slice start at a nonzero seed index.
TEST(EnsembleBatch, ShardSliceStartingMidJobMatchesScalar) {
    std::vector<system::FleetJob> jobs;
    system::FleetJob j;
    j.scenario = "highway-drive";
    j.duration_s = 15.0;
    j.seeds_per_job = 8;
    jobs.push_back(j);

    const auto got = system::FleetRunner({.threads = 2}).run_items(jobs, 3, 5);
    const auto ref = system::run_fleet_job(j).seeds;
    ASSERT_EQ(got.size(), 5u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(seed_bytes(got[i]), seed_bytes(ref[3 + i]))
            << "slice item " << i << " (seed index " << 3 + i << ")";
    }
}

}  // namespace
