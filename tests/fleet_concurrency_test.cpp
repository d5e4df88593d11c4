#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/scenario_library.hpp"
#include "sim/scenario_trace.hpp"
#include "system/fleet.hpp"

// Concurrency contract of the fleet runner: scheduling decides only WHICH
// thread runs a job, never what the job computes. Every batch below is
// executed serially and across several pool widths, and the results are
// compared bit for bit — estimates, covariances, residual statistics,
// transport counters, everything.

namespace {

using namespace ob;
using Processor = system::BoresightSystem::Processor;

/// Short-duration batch over the whole library (plus a couple of Sabre
/// jobs) so each comparison sweep stays fast.
std::vector<system::FleetJob> short_batch() {
    std::vector<system::FleetJob> jobs;
    for (const auto& spec : sim::ScenarioLibrary::instance().all()) {
        system::FleetJob job;
        job.scenario = spec.name;
        job.duration_s = 20.0;
        jobs.push_back(job);
    }
    // Mix in the firmware processor: its softfloat state is per-instance,
    // so it must parallelize just as cleanly.
    jobs[0].processor = Processor::kSabre;
    jobs[2].processor = Processor::kSabre;
    return jobs;
}

/// Tuning-study-shaped batch: every job carries the §11.1 calibration
/// phase, and the tuner / noise / misalignment overrides are spread across
/// the batch (including one Sabre job) so the determinism sweep covers the
/// calibrated and adaptive paths too.
std::vector<system::FleetJob> tuned_batch() {
    std::vector<system::FleetJob> jobs;
    const char* scenarios[] = {"static-level", "city-drive", "highway-drive",
                               "carpark-bump", "banked-curve"};
    for (const char* name : scenarios) {
        system::FleetJob job;
        job.scenario = name;
        job.duration_s = 20.0;
        job.calibration = system::FleetCalibration{10.0};
        jobs.push_back(job);
    }
    jobs[0].processor = Processor::kSabre;
    jobs[1].use_adaptive_tuner = true;
    jobs[1].meas_noise_mps2 = 0.003;
    jobs[2].use_adaptive_tuner = true;
    core::AdaptiveTunerConfig tuner;
    tuner.ceiling_mps2 = 0.02;
    tuner.min_samples = 100;
    jobs[2].tuner = tuner;
    jobs[3].misalignment = ob::math::EulerAngles::from_deg(4.0, -3.0, 5.0);
    jobs[4].meas_noise_mps2 = 0.0125;
    return jobs;
}

[[nodiscard]] std::uint64_t bits(double v) {
    return std::bit_cast<std::uint64_t>(v);
}

void expect_seed_bitwise_equal(const system::FleetSeedResult& a,
                               const system::FleetSeedResult& b) {
    EXPECT_EQ(a.sensor_seed, b.sensor_seed);
    EXPECT_EQ(bits(a.result.estimate.roll), bits(b.result.estimate.roll));
    EXPECT_EQ(bits(a.result.estimate.pitch), bits(b.result.estimate.pitch));
    EXPECT_EQ(bits(a.result.estimate.yaw), bits(b.result.estimate.yaw));
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(bits(a.result.sigma3_rad[i]), bits(b.result.sigma3_rad[i]));
    }
    EXPECT_EQ(bits(a.result.residual_rms), bits(b.result.residual_rms));
    EXPECT_EQ(bits(a.result.meas_noise), bits(b.result.meas_noise));
    EXPECT_EQ(a.final_status.updates, b.final_status.updates);
    EXPECT_EQ(a.final_status.dmu_frames_lost, b.final_status.dmu_frames_lost);
    EXPECT_EQ(a.final_status.acc_packets_lost,
              b.final_status.acc_packets_lost);
    EXPECT_EQ(bits(a.final_status.worst_transport_latency),
              bits(b.final_status.worst_transport_latency));
    EXPECT_EQ(a.final_status.tuner_adjustments,
              b.final_status.tuner_adjustments);
    EXPECT_EQ(a.trace.epochs, b.trace.epochs);
    EXPECT_EQ(a.trace.checked_points, b.trace.checked_points);
    EXPECT_EQ(bits(a.trace.worst_roll_err_deg),
              bits(b.trace.worst_roll_err_deg));
    EXPECT_EQ(bits(a.trace.worst_pitch_err_deg),
              bits(b.trace.worst_pitch_err_deg));
    EXPECT_EQ(bits(a.trace.worst_yaw_err_deg),
              bits(b.trace.worst_yaw_err_deg));
    EXPECT_EQ(bits(a.calibrated_bias[0]), bits(b.calibrated_bias[0]));
    EXPECT_EQ(bits(a.calibrated_bias[1]), bits(b.calibrated_bias[1]));
    EXPECT_EQ(bits(a.calibration_noise), bits(b.calibration_noise));
    EXPECT_EQ(a.calibration_samples, b.calibration_samples);
    EXPECT_EQ(a.within_envelope, b.within_envelope);
}

void expect_bitwise_equal(const system::FleetResult& a,
                          const system::FleetResult& b) {
    SCOPED_TRACE(a.scenario);
    ASSERT_EQ(a.scenario, b.scenario);
    ASSERT_EQ(a.processor, b.processor);
    // Every realization (seeds[0] is the primary one) and the ensemble
    // reduction must be scheduling-free.
    ASSERT_EQ(a.seeds.size(), b.seeds.size());
    for (std::size_t i = 0; i < a.seeds.size(); ++i) {
        SCOPED_TRACE("seed " + std::to_string(i));
        expect_seed_bitwise_equal(a.seeds[i], b.seeds[i]);
    }
    EXPECT_EQ(a.seed_stats.seeds, b.seed_stats.seeds);
    EXPECT_EQ(a.seed_stats.within_envelope, b.seed_stats.within_envelope);
    EXPECT_EQ(bits(a.seed_stats.roll_err_deg.mean),
              bits(b.seed_stats.roll_err_deg.mean));
    EXPECT_EQ(bits(a.seed_stats.roll_err_deg.stddev),
              bits(b.seed_stats.roll_err_deg.stddev));
    EXPECT_EQ(bits(a.seed_stats.residual_rms.mean),
              bits(b.seed_stats.residual_rms.mean));
    EXPECT_EQ(bits(a.seed_stats.residual_rms.stddev),
              bits(b.seed_stats.residual_rms.stddev));
}

void expect_batches_equal(const std::vector<system::FleetResult>& a,
                          const std::vector<system::FleetResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect_bitwise_equal(a[i], b[i]);
    }
}

TEST(FleetConcurrency, SerialMatchesTwoThreadsBitwise) {
    const auto jobs = short_batch();
    const auto serial = system::FleetRunner({.threads = 1}).run(jobs);
    const auto parallel = system::FleetRunner({.threads = 2}).run(jobs);
    expect_batches_equal(serial, parallel);
}

TEST(FleetConcurrency, SerialMatchesEightThreadsBitwise) {
    const auto jobs = short_batch();
    const auto serial = system::FleetRunner({.threads = 1}).run(jobs);
    const auto parallel = system::FleetRunner({.threads = 8}).run(jobs);
    expect_batches_equal(serial, parallel);
}

TEST(FleetConcurrency, CalibratedAndTunedJobsMatchSerialBitwise) {
    // The §11.1 calibration pass and the adaptive tuner both consume RNG
    // and carry per-job state; neither may break the scheduling-free
    // contract. Compared fields include the calibration outputs and the
    // tuner adjustment count.
    const auto jobs = tuned_batch();
    const auto serial = system::FleetRunner({.threads = 1}).run(jobs);
    const auto parallel = system::FleetRunner({.threads = 8}).run(jobs);
    expect_batches_equal(serial, parallel);
    // The overrides must actually have engaged, or this test proves nothing.
    EXPECT_GT(serial[0].primary().calibration_samples, 0u);
    EXPECT_GT(serial[2].primary().final_status.tuner_adjustments, 0u);
}

/// Seed-axis batch: several scenarios at 4 realizations each, with the
/// calibrated/tuned/sabre paths represented, all sharing per-scenario
/// traces.
std::vector<system::FleetJob> seeded_batch() {
    std::vector<system::FleetJob> jobs;
    const char* scenarios[] = {"city-drive", "static-level", "carpark-bump"};
    for (const char* name : scenarios) {
        system::FleetJob job;
        job.scenario = name;
        job.duration_s = 20.0;
        job.seeds_per_job = 4;
        jobs.push_back(job);
    }
    jobs[0].calibration = system::FleetCalibration{10.0};
    jobs[1].processor = Processor::kSabre;
    jobs[2].use_adaptive_tuner = true;
    core::AdaptiveTunerConfig tuner;
    tuner.min_samples = 100;
    jobs[2].tuner = tuner;
    // Two jobs on the same scenario/seed: they share one trace and must
    // still realize independently.
    {
        system::FleetJob job;
        job.scenario = "city-drive";
        job.duration_s = 20.0;
        job.seeds_per_job = 2;
        job.processor = Processor::kSabre;
        jobs.push_back(job);
    }
    return jobs;
}

TEST(FleetConcurrency, MultiSeedAggregateMatchesSerialBitwise) {
    // The seed-axis contract: an N-seed job's realizations and ensemble
    // statistics are identical whether the (job, seed) work items ran on
    // one thread or eight.
    const auto jobs = seeded_batch();
    const auto serial = system::FleetRunner({.threads = 1}).run(jobs);
    const auto parallel = system::FleetRunner({.threads = 8}).run(jobs);
    expect_batches_equal(serial, parallel);
    // The ensemble must really hold distinct realizations.
    ASSERT_EQ(serial[0].seeds.size(), 4u);
    EXPECT_NE(bits(serial[0].seeds[0].result.residual_rms),
              bits(serial[0].seeds[1].result.residual_rms));
    EXPECT_GT(serial[0].seed_stats.residual_rms.stddev, 0.0);
}

TEST(FleetConcurrency, SharedTracesMatchPerRunSynthesisBitwise) {
    // run_fleet_job synthesizes each job's traces for that job alone; the
    // runner shares one trace across jobs 0 and 3 (both city-drive at the
    // same seed) and batches the native seeds. Sharing is an optimization
    // only: results must be bit-for-bit the serial reference's.
    const auto jobs = seeded_batch();
    const auto shared = system::FleetRunner({.threads = 4}).run(jobs);
    std::vector<system::FleetResult> reference;
    for (const auto& job : jobs) reference.push_back(system::run_fleet_job(job));
    expect_batches_equal(shared, reference);
}

TEST(FleetConcurrency, SeedZeroRealizationEqualsSingleSeedJob) {
    // fleet_sub_seed(s, 0) == s: realization 0 of a Monte Carlo job IS the
    // historical single-seed run, bit for bit — which is why the golden
    // corpus needs no regeneration.
    system::FleetJob multi;
    multi.scenario = "highway-drive";
    multi.duration_s = 20.0;
    multi.seeds_per_job = 3;
    system::FleetJob single = multi;
    single.seeds_per_job = 1;

    const auto multi_r = system::run_fleet_job(multi);
    const auto single_r = system::run_fleet_job(single);
    ASSERT_EQ(multi_r.seeds.size(), 3u);
    ASSERT_EQ(single_r.seeds.size(), 1u);
    expect_seed_bitwise_equal(multi_r.seeds[0], single_r.seeds[0]);
}

TEST(FleetConcurrency, ScenarioTraceIsImmutableAndShareableAcrossThreads) {
    // One trace, eight concurrently realizing threads with the same seed:
    // every thread must decode the identical sensor stream, and the trace
    // buffers must be byte-identical afterwards — realization never writes
    // into the Trace layer.
    const auto& spec = sim::ScenarioLibrary::instance().at("city-drive");
    const std::uint64_t seed = sim::scenario_seed(spec.name, 2026);
    const auto trace = sim::ScenarioTrace::build(
        spec.build(20.0, spec.misalignment, seed), seed ^ 0xA5A55A5AF00DBEEFull);

    // Snapshot a digest of the trace buffers before realization.
    const auto digest = [&] {
        std::uint64_t h = 0xcbf29ce484222325ull;
        const auto fold = [&h](double v) {
            h ^= std::bit_cast<std::uint64_t>(v);
            h *= 0x100000001b3ull;
        };
        for (std::size_t i = 0; i < trace->epochs(); ++i) {
            fold(trace->t(i));
            for (std::size_t k = 0; k < 3; ++k) {
                fold(trace->imu_force(i)[k]);
                fold(trace->imu_rate(i)[k]);
                fold(trace->acc_force(i)[k]);
                fold(trace->f_body_true(i)[k]);
            }
            fold(trace->truth(i).speed);
        }
        return h;
    };
    const std::uint64_t before = digest();

    const auto realize_digest = [&] {
        sim::Scenario sc(trace, spec.misalignment, 77);
        std::uint64_t h = 0xcbf29ce484222325ull;
        while (auto s = sc.next()) {
            for (std::size_t k = 0; k < 3; ++k) {
                h ^= static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(s->dmu.accel[k]));
                h *= 0x100000001b3ull;
                h ^= static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(s->dmu.gyro[k]));
                h *= 0x100000001b3ull;
            }
            h ^= s->adxl.t1x;
            h *= 0x100000001b3ull;
            h ^= s->adxl.t1y;
            h *= 0x100000001b3ull;
        }
        return h;
    };
    const std::uint64_t reference = realize_digest();

    std::vector<std::uint64_t> hashes(8);
    std::vector<std::thread> threads;
    threads.reserve(hashes.size());
    for (std::size_t i = 0; i < hashes.size(); ++i) {
        threads.emplace_back(
            [&, i] { hashes[i] = realize_digest(); });
    }
    for (auto& th : threads) th.join();

    for (std::size_t i = 0; i < hashes.size(); ++i) {
        EXPECT_EQ(hashes[i], reference) << "thread " << i;
    }
    EXPECT_EQ(digest(), before) << "a realization mutated the shared trace";
}

TEST(FleetConcurrency, RepeatedParallelRunsAreIdentical) {
    const auto jobs = short_batch();
    const system::FleetRunner runner({.threads = 4});
    const auto first = runner.run(jobs);
    const auto second = runner.run(jobs);
    expect_batches_equal(first, second);
}

TEST(FleetConcurrency, OversubscribedBatchMatchesSerial) {
    // More scenarios than workers: jobs queue and drain as threads free up;
    // the arbitration order still must not leak into any result.
    const auto jobs = short_batch();
    ASSERT_GT(jobs.size(), 3u);
    const auto serial = system::FleetRunner({.threads = 1}).run(jobs);
    const auto packed = system::FleetRunner({.threads = 3}).run(jobs);
    expect_batches_equal(serial, packed);
}

TEST(FleetConcurrency, ResultsArriveInJobOrder) {
    auto jobs = short_batch();
    const auto results = system::FleetRunner({.threads = 4}).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].scenario, jobs[i].scenario) << "index " << i;
        EXPECT_EQ(results[i].processor, jobs[i].processor) << "index " << i;
    }
}

TEST(FleetConcurrency, BadJobFailsTheWholeBatchUpFront) {
    auto jobs = short_batch();
    jobs.push_back({});  // empty scenario name
    EXPECT_THROW((void)system::FleetRunner({.threads = 4}).run(jobs),
                 std::invalid_argument);
}

TEST(FleetConcurrency, DefaultRunnerUsesHardwareThreads) {
    const system::FleetRunner runner;
    EXPECT_GE(runner.threads(), 1u);
    const system::FleetRunner fixed({.threads = 5});
    EXPECT_EQ(fixed.threads(), 5u);
}

TEST(FleetConcurrency, FullLibraryJobsCoverTheLibraryExactlyOnce) {
    const auto jobs = system::full_library_jobs(Processor::kSabre, 11);
    const auto& lib = sim::ScenarioLibrary::instance();
    ASSERT_EQ(jobs.size(), lib.all().size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].scenario, lib.all()[i].name);
        EXPECT_EQ(jobs[i].processor, Processor::kSabre);
        EXPECT_EQ(jobs[i].base_seed, 11u);
    }
}

}  // namespace
