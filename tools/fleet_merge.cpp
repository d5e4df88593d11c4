// fleet_merge: recombine fleet_shard artifacts into the full-plan artifact
// and report the realized batch. Refuses (exit 1, message naming the
// offender) artifacts from different plans, overlapping slices, or an
// incomplete tiling — and the merged output is bitwise the artifact a
// single 1/1-shard run would have written.
//
//   fleet_merge --out merged.bin shard0.bin shard1.bin shard2.bin

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "system/fleet_shard.hpp"

using namespace ob;

int main(int argc, char** argv) {
    std::string out_path;
    std::vector<std::string> inputs;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "fleet_merge: --out needs a value\n");
                return 2;
            }
            out_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--out FILE] [--quiet] SHARD...\n"
                "Merge fleet_shard artifacts (any order) into the full-plan\n"
                "artifact, realize it and print the per-job verdicts.\n",
                argv[0]);
            return 0;
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) {
        std::fprintf(stderr, "usage: %s [--out FILE] SHARD...\n", argv[0]);
        return 2;
    }

    try {
        std::vector<system::FleetShardArtifact> shards;
        shards.reserve(inputs.size());
        for (const auto& path : inputs) {
            shards.push_back(system::load_shard_artifact(path));
        }
        const auto merged = system::merge_shards(shards);
        if (!out_path.empty()) {
            system::save_shard_artifact(out_path, merged);
        }

        const auto results = system::realize_shard_results(merged);
        std::size_t failures = 0;
        for (const auto& r : results) {
            const auto& p = r.primary();
            if (!p.within_envelope) ++failures;
            if (!quiet) {
                std::printf("%-20s %-7s seeds %zu/%zu | residual %9.4f | %s\n",
                            r.scenario.c_str(),
                            system::processor_name(r.processor),
                            r.seed_stats.within_envelope, r.seed_stats.seeds,
                            p.result.residual_rms,
                            p.within_envelope ? "ok" : "outside");
            }
        }
        std::printf(
            "merged %zu shard(s): %llu item(s), %zu job(s), %zu outside "
            "envelope%s%s\n",
            shards.size(), static_cast<unsigned long long>(merged.total_items),
            results.size(), failures, out_path.empty() ? "" : " -> ",
            out_path.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fleet_merge: %s\n", e.what());
        return 1;
    }
}
