// Shard/merge contract of the fleet batch partition (fleet_shard.hpp):
// the balanced plan partition, the self-describing artifact codec, and —
// the load-bearing claim — that shards merged in any order are BITWISE the
// single-process run, across shard counts including the degenerate 1/1 and
// plans smaller than the shard count.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/adaptive_tuner.hpp"
#include "math/rotation.hpp"
#include "system/fleet.hpp"
#include "system/fleet_shard.hpp"
#include "util/wire.hpp"

namespace {

using namespace ob;
using system::FleetJob;
using system::FleetShardArtifact;

// Short-duration jobs keep each realization cheap (the container runs
// single-core); two scenarios x two seeds gives a 6-item plan whose
// partitions exercise uneven slice sizes.
[[nodiscard]] std::vector<FleetJob> small_batch() {
    FleetJob a;
    a.scenario = "static-level";
    a.duration_s = 20.0;
    a.seeds_per_job = 2;
    FleetJob b;
    b.scenario = "city-drive";
    b.duration_s = 20.0;
    b.seeds_per_job = 3;
    FleetJob c;
    c.scenario = "static-level";
    c.duration_s = 25.0;
    c.use_adaptive_tuner = true;
    return {a, b, c};
}

// Table 1's shape, shortened: calibrated, misaligned jobs on both
// processors, one of them with a seed ensemble so the batched path runs
// its per-lane calibration too.
[[nodiscard]] std::vector<FleetJob> calibrated_batch() {
    std::vector<FleetJob> jobs;
    for (const auto processor : {system::BoresightSystem::Processor::kNative,
                                 system::BoresightSystem::Processor::kSabre}) {
        for (const char* scenario : {"static-tilted", "city-drive"}) {
            FleetJob job;
            job.scenario = scenario;
            job.processor = processor;
            job.base_seed = 21;
            job.duration_s = 20.0;
            job.misalignment = math::EulerAngles::from_deg(1.2, -0.8, 1.5);
            job.calibration = system::FleetCalibration{5.0};
            jobs.push_back(job);
        }
    }
    jobs[1].seeds_per_job = 3;
    return jobs;
}

[[nodiscard]] std::string expect_throw_message(
    const std::function<void()>& fn) {
    try {
        fn();
    } catch (const std::exception& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected an exception";
    return {};
}

TEST(ShardRange, BalancedContiguousPartition) {
    // 6 items over 4 shards: sizes 2,2,1,1 tiling [0, 6).
    std::size_t next = 0;
    for (std::size_t k = 0; k < 4; ++k) {
        const auto r = system::shard_range(6, k, 4);
        EXPECT_EQ(r.begin, next);
        EXPECT_GE(r.size(), 1u);
        EXPECT_LE(r.size(), 2u);
        next = r.end;
    }
    EXPECT_EQ(next, 6u);
}

TEST(ShardRange, PlanSmallerThanShardCountYieldsEmptyShards) {
    // 2 items over 5 shards: shards beyond the item count come out empty,
    // not invalid.
    std::size_t total = 0;
    for (std::size_t k = 0; k < 5; ++k) {
        const auto r = system::shard_range(2, k, 5);
        total += r.size();
        if (k >= 2) {
            EXPECT_EQ(r.size(), 0u);
        }
    }
    EXPECT_EQ(total, 2u);
}

TEST(ShardRange, RejectsBadIndexAndCount) {
    EXPECT_THROW((void)system::shard_range(6, 0, 0), std::invalid_argument);
    EXPECT_THROW((void)system::shard_range(6, 4, 4), std::invalid_argument);
}

TEST(ShardArtifact, EncodeDecodeRoundTrip) {
    const auto jobs = small_batch();
    const auto artifact = system::run_fleet_shard(jobs, 0, 2);
    const std::string bytes = system::encode_shard_artifact(artifact);
    const auto back = system::decode_shard_artifact(bytes);
    EXPECT_EQ(system::encode_shard_artifact(back), bytes);
    EXPECT_EQ(back.plan_digest, artifact.plan_digest);
    EXPECT_EQ(back.results.size(), artifact.results.size());
}

TEST(ShardArtifact, JobCodecRoundTripsEveryOptionalField) {
    // Every optional set, every value off its default: the plan digest and
    // the artifact header both rest on this codec.
    FleetJob job;
    job.scenario = "city-drive";
    job.processor = system::BoresightSystem::Processor::kSabre;
    job.base_seed = 0x0123456789ABCDEFull;
    job.duration_s = 123.25;
    job.misalignment = math::EulerAngles::from_deg(1.2, -0.8, 1.5);
    job.calibration = system::FleetCalibration{45.5};
    job.use_adaptive_tuner = true;
    job.tuner = core::AdaptiveTunerConfig{.floor_mps2 = 0.004,
                                          .ceiling_mps2 = 0.2,
                                          .raise_threshold = 0.03,
                                          .lower_threshold = 2e-4,
                                          .raise_factor = 1.25,
                                          .lower_factor = 0.8,
                                          .window = 777,
                                          .min_samples = 333};
    job.meas_noise_mps2 = 0.0125;
    job.seeds_per_job = 3;
    job.fault = system::FleetFault{.type = system::FaultType::kCanBurstLoss,
                                   .intensity = 0.125,
                                   .burst_frames = 5};

    util::ByteWriter w;
    system::encode_fleet_job(w, job);
    util::ByteReader r(w.data().data(), w.size());
    const FleetJob back = system::decode_fleet_job(r);
    EXPECT_NO_THROW(r.expect_end());

    EXPECT_EQ(back.scenario, job.scenario);
    EXPECT_EQ(back.processor, job.processor);
    EXPECT_EQ(back.base_seed, job.base_seed);
    EXPECT_EQ(back.duration_s, job.duration_s);
    ASSERT_TRUE(back.misalignment.has_value());
    EXPECT_EQ(back.misalignment->roll, job.misalignment->roll);
    EXPECT_EQ(back.misalignment->pitch, job.misalignment->pitch);
    EXPECT_EQ(back.misalignment->yaw, job.misalignment->yaw);
    ASSERT_TRUE(back.calibration.has_value());
    EXPECT_EQ(back.calibration->duration_s, job.calibration->duration_s);
    EXPECT_EQ(back.use_adaptive_tuner, job.use_adaptive_tuner);
    ASSERT_TRUE(back.tuner.has_value());
    EXPECT_EQ(back.tuner->floor_mps2, job.tuner->floor_mps2);
    EXPECT_EQ(back.tuner->ceiling_mps2, job.tuner->ceiling_mps2);
    EXPECT_EQ(back.tuner->raise_threshold, job.tuner->raise_threshold);
    EXPECT_EQ(back.tuner->lower_threshold, job.tuner->lower_threshold);
    EXPECT_EQ(back.tuner->raise_factor, job.tuner->raise_factor);
    EXPECT_EQ(back.tuner->lower_factor, job.tuner->lower_factor);
    EXPECT_EQ(back.tuner->window, job.tuner->window);
    EXPECT_EQ(back.tuner->min_samples, job.tuner->min_samples);
    ASSERT_TRUE(back.meas_noise_mps2.has_value());
    EXPECT_EQ(*back.meas_noise_mps2, *job.meas_noise_mps2);
    EXPECT_EQ(back.seeds_per_job, job.seeds_per_job);
    ASSERT_TRUE(back.fault.has_value());
    EXPECT_EQ(back.fault->type, job.fault->type);
    EXPECT_EQ(back.fault->intensity, job.fault->intensity);
    EXPECT_EQ(back.fault->burst_frames, job.fault->burst_frames);

    util::ByteWriter again;
    system::encode_fleet_job(again, back);
    EXPECT_EQ(again.data(), w.data());
}

TEST(ShardArtifact, ZeroWorkShardRoundTrips) {
    // One 1-seed job over 4 shards: shards 1..3 carry no results but are
    // still valid artifacts and still merge.
    FleetJob only;
    only.scenario = "static-level";
    only.duration_s = 20.0;
    std::vector<FleetShardArtifact> shards;
    for (std::size_t k = 0; k < 4; ++k) {
        shards.push_back(system::run_fleet_shard({only}, k, 4));
        const std::string bytes = system::encode_shard_artifact(shards[k]);
        EXPECT_EQ(system::encode_shard_artifact(
                      system::decode_shard_artifact(bytes)),
                  bytes);
    }
    EXPECT_EQ(shards[1].results.size(), 0u);
    const auto merged = system::merge_shards(shards);
    const auto reference = system::run_fleet_shard({only}, 0, 1);
    EXPECT_EQ(system::encode_shard_artifact(merged),
              system::encode_shard_artifact(reference));
}

TEST(ShardArtifact, DecodeRejectsCorruption) {
    const auto artifact = system::run_fleet_shard(small_batch(), 0, 2);
    std::string bytes = system::encode_shard_artifact(artifact);

    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_THROW((void)system::decode_shard_artifact(bad_magic),
                 util::WireError);

    std::string bad_version = bytes;
    bad_version[8] = 99;  // format version byte after the 8-byte magic
    EXPECT_THROW((void)system::decode_shard_artifact(bad_version),
                 util::WireError);

    // Flip a digest byte: the header's plan identity no longer matches the
    // plan re-derived from the embedded jobs.
    std::string bad_digest = bytes;
    bad_digest[12] = static_cast<char>(bad_digest[12] ^ 0x5a);
    EXPECT_THROW((void)system::decode_shard_artifact(bad_digest),
                 util::WireError);

    EXPECT_THROW((void)system::decode_shard_artifact(
                     bytes.substr(0, bytes.size() - 3)),
                 util::WireError);
    EXPECT_THROW((void)system::decode_shard_artifact(bytes + "x"),
                 util::WireError);
}

TEST(ShardArtifact, SaveLoadRoundTrip) {
    const auto artifact = system::run_fleet_shard(small_batch(), 1, 3);
    const std::string path =
        ::testing::TempDir() + "ob_shard_roundtrip.bin";
    system::save_shard_artifact(path, artifact);
    const auto back = system::load_shard_artifact(path);
    EXPECT_EQ(system::encode_shard_artifact(back),
              system::encode_shard_artifact(artifact));
    std::remove(path.c_str());
}

TEST(ShardMerge, BitwiseIdenticalAcrossShardCounts) {
    const auto jobs = small_batch();
    const auto reference = system::run_fleet_shard(jobs, 0, 1);
    const std::string reference_bytes =
        system::encode_shard_artifact(reference);

    for (const std::size_t n : {1u, 2u, 4u}) {
        std::vector<FleetShardArtifact> shards;
        for (std::size_t k = 0; k < n; ++k) {
            shards.push_back(system::run_fleet_shard(jobs, k, n));
        }
        const auto merged = system::merge_shards(shards);
        EXPECT_EQ(system::encode_shard_artifact(merged), reference_bytes)
            << "merge of " << n << " shard(s) is not bitwise the 1/1 run";
    }
}

TEST(ShardMerge, OrderIndependent) {
    const auto jobs = small_batch();
    std::vector<FleetShardArtifact> shards;
    for (std::size_t k = 0; k < 3; ++k) {
        shards.push_back(system::run_fleet_shard(jobs, k, 3));
    }
    std::swap(shards[0], shards[2]);
    const auto merged = system::merge_shards(shards);
    EXPECT_EQ(system::encode_shard_artifact(merged),
              system::encode_shard_artifact(
                  system::run_fleet_shard(jobs, 0, 1)));
}

TEST(ShardMerge, RealizeMatchesFleetRunnerRun) {
    const auto jobs = small_batch();
    std::vector<FleetShardArtifact> shards;
    for (std::size_t k = 0; k < 2; ++k) {
        shards.push_back(system::run_fleet_shard(jobs, k, 2));
    }
    const auto realized =
        system::realize_shard_results(system::merge_shards(shards));
    const auto direct = system::FleetRunner{}.run(jobs);
    ASSERT_EQ(realized.size(), direct.size());
    for (std::size_t j = 0; j < direct.size(); ++j) {
        ASSERT_EQ(realized[j].seeds.size(), direct[j].seeds.size());
        for (std::size_t s = 0; s < direct[j].seeds.size(); ++s) {
            util::ByteWriter a, b;
            system::encode_seed_result(a, realized[j].seeds[s]);
            system::encode_seed_result(b, direct[j].seeds[s]);
            EXPECT_EQ(a.data(), b.data())
                << "job " << j << " seed " << s << " diverged";
        }
        EXPECT_EQ(realized[j].seed_stats.within_envelope,
                  direct[j].seed_stats.within_envelope);
        EXPECT_EQ(realized[j].primary().result.residual_rms,
                  direct[j].primary().result.residual_rms);
    }
}

TEST(ShardMerge, CalibratedMisalignedJobsMatchFleetRunnerRun) {
    const auto jobs = calibrated_batch();
    std::vector<FleetShardArtifact> shards;
    for (std::size_t k = 0; k < 2; ++k) {
        const auto shard = system::run_fleet_shard(jobs, k, 2);
        // Through the artifact bytes, as fleet_shard -> fleet_merge would.
        shards.push_back(system::decode_shard_artifact(
            system::encode_shard_artifact(shard)));
    }
    const auto realized =
        system::realize_shard_results(system::merge_shards(shards));
    const auto direct = system::FleetRunner{}.run(jobs);
    ASSERT_EQ(realized.size(), direct.size());
    for (std::size_t j = 0; j < direct.size(); ++j) {
        ASSERT_EQ(realized[j].seeds.size(), direct[j].seeds.size());
        for (std::size_t s = 0; s < direct[j].seeds.size(); ++s) {
            util::ByteWriter a, b;
            system::encode_seed_result(a, realized[j].seeds[s]);
            system::encode_seed_result(b, direct[j].seeds[s]);
            EXPECT_EQ(a.data(), b.data())
                << "job " << j << " seed " << s << " diverged";
            EXPECT_GT(direct[j].seeds[s].calibration_samples, 0u);
        }
    }
}

TEST(ShardMerge, RejectsEmptyInput) {
    EXPECT_THROW((void)system::merge_shards({}), std::invalid_argument);
}

TEST(ShardMerge, RejectsMismatchedPlanDigest) {
    const auto jobs = small_batch();
    auto other = jobs;
    other[0].base_seed = 1234;  // different plan, same shapes
    std::vector<FleetShardArtifact> shards;
    shards.push_back(system::run_fleet_shard(jobs, 0, 2));
    shards.push_back(system::run_fleet_shard(other, 1, 2));
    const std::string msg = expect_throw_message(
        [&] { (void)system::merge_shards(shards); });
    EXPECT_NE(msg.find("different plan"), std::string::npos) << msg;
}

TEST(ShardMerge, RejectsOverlappingSlices) {
    const auto jobs = small_batch();
    std::vector<FleetShardArtifact> shards;
    shards.push_back(system::run_fleet_shard(jobs, 0, 2));
    shards.push_back(system::run_fleet_shard(jobs, 1, 2));
    shards.push_back(system::run_fleet_shard(jobs, 1, 2));  // duplicate
    const std::string msg = expect_throw_message(
        [&] { (void)system::merge_shards(shards); });
    EXPECT_NE(msg.find("overlap"), std::string::npos) << msg;
}

TEST(ShardMerge, RejectsGaps) {
    const auto jobs = small_batch();
    std::vector<FleetShardArtifact> shards;
    shards.push_back(system::run_fleet_shard(jobs, 0, 3));
    shards.push_back(system::run_fleet_shard(jobs, 2, 3));  // 1/3 missing
    const std::string msg = expect_throw_message(
        [&] { (void)system::merge_shards(shards); });
    EXPECT_NE(msg.find("covered by no shard"), std::string::npos) << msg;
}

TEST(ShardMerge, RealizeRequiresFullPlan) {
    const auto partial = system::run_fleet_shard(small_batch(), 0, 2);
    EXPECT_THROW((void)system::realize_shard_results(partial),
                 std::invalid_argument);
}

}  // namespace
