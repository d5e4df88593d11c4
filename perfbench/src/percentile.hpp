#pragma once

// Order statistics for the benchmark's reports.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples rank
/// above it; a p99 therefore needs n >= 1000.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile num/den (p99 = 99/100) of an ascending sample:
/// the value at 1-based rank ceil(num * n / den), computed in integers so
/// no rounding can move the rank. Returns nullopt for an empty sample, a
/// fraction outside (0, 1], or when fewer than kMinSamplesBeyond samples
/// rank above the chosen one.
[[nodiscard]] inline std::optional<double> nearest_rank(
    const std::vector<double>& sorted, std::size_t num, std::size_t den) {
    const std::size_t n = sorted.size();
    if (n == 0 || den == 0 || num == 0 || num > den) return std::nullopt;
    const std::size_t rank = (num * n + den - 1) / den;  // 1-based, >= 1
    if (n - rank < kMinSamplesBeyond) return std::nullopt;
    return sorted[rank - 1];
}

/// Sample median (mean of the middle pair for even n) — the point
/// estimator the benchmark uses for per-unit rates and repeated set-up
/// times, where the sample is small and no tail is claimed. 0 when empty.
[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace perfbench
