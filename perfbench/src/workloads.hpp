#pragma once

// The benchmark's four named workloads and the run that measures one.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Worker threads (runner threads, client sessions) every measurement is
/// taken at. A comparison of runs taken at different counts is refused.
inline constexpr std::size_t kPinnedThreads = 4;

/// The workload seed whose outputs are pinned by digest.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Library base seed `k` of a workload seed. The default workload seed's
/// first base seed is the library's own default, 2026.
[[nodiscard]] std::uint64_t fold_base_seed(std::uint64_t workload_seed,
                                           std::uint64_t k);

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::size_t threads = kPinnedThreads;
    std::string work_dir = ".";  ///< socket and trace files go here
};

/// Everything one run measured.
struct RunOutcome {
    MetricTable e2e;     ///< end-to-end metrics of the untraced run
    MetricTable layers;  ///< per-layer metrics of the traced run
    MetricTable extra;   ///< workload-specific figures for the report lines
    /// Exact work counters of one pass over the workload's inputs.
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;  ///< why `correct` is false
    std::uint64_t digest = 0;           ///< output digest of the first pass
    SpanLog spans;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run `opts.workload`. `ready` is called once set-up is complete, right
/// before the first timed unit (in a set-up-only run, instead of it).
/// Throws std::invalid_argument on an unknown workload.
[[nodiscard]] RunOutcome run_workload(const Options& opts,
                                      const std::function<void()>& ready);

}  // namespace perfbench
