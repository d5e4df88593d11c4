#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"
#include "util/wire.hpp"

namespace {

using namespace ob::util;

TEST(RunningStats, KnownValues) {
    RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
    const RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.rms(), 0.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
    RunningStats s;
    s.add(3.25);
    EXPECT_DOUBLE_EQ(s.mean(), 3.25);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
    Rng rng(42);
    RunningStats all;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.gaussian(3.0, -1.0);
        all.add(x);
        (i % 2 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, RmsOfConstant) {
    RunningStats s;
    for (int i = 0; i < 10; ++i) s.add(-2.0);
    EXPECT_DOUBLE_EQ(s.rms(), 2.0);
}

TEST(SampleSet, PercentilesExact) {
    SampleSet s;
    for (int i = 100; i >= 1; --i) s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.median(), 50.5);
    EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
}

TEST(SampleSet, ThrowsOnEmpty) {
    const SampleSet s;
    EXPECT_THROW((void)s.percentile(50), std::domain_error);
}

TEST(SampleSet, AddAfterQueryKeepsConsistency) {
    SampleSet s;
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.median(), 1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(Histogram, BinningAndClamping) {
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);    // bin 0
    h.add(9.99);   // bin 9
    h.add(-5.0);   // clamped to bin 0
    h.add(42.0);   // clamped to bin 9
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bin_high(9), 10.0);
}

TEST(Histogram, RejectsBadRange) {
    EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
    }
}

TEST(Rng, ForkedStreamsAreIndependent) {
    Rng parent(7);
    Rng child = parent.fork();
    // Child draws must not change parent's sequence relative to a twin.
    Rng twin(7);
    (void)twin.fork();
    for (int i = 0; i < 10; ++i) (void)child.gaussian();
    EXPECT_DOUBLE_EQ(parent.uniform(), twin.uniform());
}

TEST(Rng, UniformIntBounds) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, GaussianMoments) {
    Rng rng(99);
    RunningStats s;
    for (int i = 0; i < 50000; ++i) s.add(rng.gaussian(2.0, 5.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Csv, EscapeRules) {
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesHeaderAndRows) {
    const std::string path = ::testing::TempDir() + "/ob_csv_test.csv";
    {
        CsvWriter w(path, {"t", "x"});
        w.row({0.0, 1.5});
        w.row({1.0, -2.5});
        EXPECT_EQ(w.rows(), 2u);
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "t,x");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "0,1.5");
    std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
    const std::string path = ::testing::TempDir() + "/ob_csv_test2.csv";
    CsvWriter w(path, {"a", "b"});
    EXPECT_THROW(w.row({1.0}), std::invalid_argument);
    std::remove(path.c_str());
}

TEST(TimeSeries, SampleInterpolates) {
    TimeSeries ts;
    ts.push(0.0, 0.0);
    ts.push(1.0, 10.0);
    ts.push(2.0, 30.0);
    EXPECT_DOUBLE_EQ(ts.sample(0.5), 5.0);
    EXPECT_DOUBLE_EQ(ts.sample(1.5), 20.0);
    EXPECT_DOUBLE_EQ(ts.sample(-1.0), 0.0);   // clamped
    EXPECT_DOUBLE_EQ(ts.sample(99.0), 30.0);  // clamped
}

TEST(TimeSeries, RejectsNonMonotonicTime) {
    TimeSeries ts;
    ts.push(1.0, 0.0);
    EXPECT_THROW(ts.push(0.5, 0.0), std::invalid_argument);
}

TEST(TimeSeries, WindowSelectsInclusive) {
    TimeSeries ts;
    for (int i = 0; i < 10; ++i) ts.push(i, i * i);
    const TimeSeries w = ts.window(2.0, 5.0);
    ASSERT_EQ(w.size(), 4u);
    EXPECT_DOUBLE_EQ(w.time(0), 2.0);
    EXPECT_DOUBLE_EQ(w.value(3), 25.0);
}

TEST(AsciiPlot, RendersSeriesGlyphs) {
    std::vector<double> ys(200);
    for (std::size_t i = 0; i < ys.size(); ++i)
        ys[i] = std::sin(0.1 * static_cast<double>(i));
    AsciiPlot plot(80, 20);
    plot.set_title("sine");
    plot.add_series("wave", ys, '*');
    const std::string out = plot.render();
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find("sine"), std::string::npos);
    EXPECT_NE(out.find("[*] wave"), std::string::npos);
}

TEST(AsciiPlot, FlatSeriesDoesNotCrash) {
    const std::vector<double> ys(50, 3.0);
    AsciiPlot plot(40, 10);
    plot.add_series("flat", ys, '#');
    EXPECT_FALSE(plot.render().empty());
}

TEST(AsciiPlot, FixedRangeClipsOutliers) {
    std::vector<double> ys = {0.0, 100.0, 0.5, 0.7};
    AsciiPlot plot(40, 10);
    plot.set_y_range(0.0, 1.0);
    plot.add_series("clipped", ys, 'x');
    EXPECT_FALSE(plot.render().empty());
}

// An empty payload's data() may be null; writing or reading zero bytes
// through it must be a no-op, never a memcpy of a null pointer.
TEST(Wire, ZeroLengthBytesThroughNullPointer) {
    ByteWriter w;
    w.u8(7);
    w.bytes(nullptr, 0);
    ASSERT_EQ(w.size(), 1u);
    ByteReader r(w.data().data(), w.size());
    r.read_bytes(nullptr, 0);
    EXPECT_EQ(r.u8(), 7);
    r.read_bytes(nullptr, 0);
    r.expect_end();

    ByteReader empty(nullptr, 0);
    empty.read_bytes(nullptr, 0);
    empty.expect_end();
}

}  // namespace
