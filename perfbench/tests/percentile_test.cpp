// Tests of the benchmark's nearest-rank percentile helper. Plain main, exit
// code 1 on the first failed expectation; run through ctest in the
// benchmark's build directory.

#include <cstdio>
#include <vector>

#include "percentile.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
    return v;
}

}  // namespace

int main() {
    using perfbench::median;
    using perfbench::nearest_rank;

    // p99 of 1..1000 is rank ceil(990) = 990: exactly ten samples beyond.
    const auto p99 = nearest_rank(ramp(1000), 99, 100);
    expect(p99.has_value() && *p99 == 990.0, "p99 of 1000 samples is rank 990");
    // One sample fewer leaves only nine beyond rank ceil(989.01) = 990.
    expect(!nearest_rank(ramp(999), 99, 100).has_value(),
           "p99 refused with nine samples beyond");
    // The floor(q*n) index the serve bench uses would read 991 here.
    expect(*nearest_rank(ramp(1000), 99, 100) != 991.0,
           "rank is ceil(q*n), not floor(q*n)+1");
    // A fractional rank rounds up: p50 of 1..21 is rank ceil(10.5) = 11.
    const auto p50 = nearest_rank(ramp(21), 50, 100);
    expect(p50.has_value() && *p50 == 11.0, "p50 of 21 samples is rank 11");
    // p50 of 1..20 is rank 10 with ten beyond; of 1..19 it is refused.
    expect(nearest_rank(ramp(20), 1, 2).value_or(0.0) == 10.0,
           "p50 of 20 samples is rank 10");
    expect(!nearest_rank(ramp(19), 1, 2).has_value(),
           "p50 of 19 samples is refused");
    // Degenerate inputs.
    expect(!nearest_rank({}, 1, 2).has_value(), "empty sample refused");
    expect(!nearest_rank(ramp(100), 0, 100).has_value(), "q = 0 refused");
    expect(!nearest_rank(ramp(100), 101, 100).has_value(), "q > 1 refused");
    expect(!nearest_rank(ramp(100), 1, 0).has_value(), "zero denominator");
    // The maximum never has ten samples beyond it.
    expect(!nearest_rank(ramp(5000), 1, 1).has_value(), "p100 refused");

    expect(median({}) == 0.0, "median of nothing is 0");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");

    if (failures != 0) return 1;
    std::printf("percentile_test: all expectations hold\n");
    return 0;
}
