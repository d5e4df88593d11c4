#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>

#include "softfloat/softfloat.hpp"
#include "util/rng.hpp"

// Edge-regime conformance: dense subnormal/boundary corpora, where
// softfloat implementations classically break. Complements the broad-band
// fuzz suites.

namespace {

namespace sf = ob::softfloat;
using ob::util::Rng;

[[gnu::noinline]] float host_op32(char op, float a, float b) {
    volatile float x = a, y = b;
    switch (op) {
        case '+': return x + y;
        case '-': return x - y;
        case '*': return x * y;
        case '/': return x / y;
    }
    return 0.0f;
}

/// Corpus concentrated on encodings near the subnormal/normal boundary,
/// near overflow, and with tiny exponents.
std::uint32_t edge_bits32(Rng& rng) {
    switch (rng.uniform_int(0, 5)) {
        case 0:  // subnormal
            return (rng.bits32() & 0x807FFFFFu);
        case 1:  // smallest normals
            return (rng.bits32() & 0x80000000u) | 0x00800000u |
                   (rng.bits32() & 0x007FFFFFu & 0x3FF);
        case 2:  // near overflow
            return (rng.bits32() & 0x807FFFFFu) | 0x7E800000u;
        case 3:  // exact powers of two
            return (rng.bits32() & 0x80000000u) |
                   (static_cast<std::uint32_t>(rng.uniform_int(1, 254)) << 23);
        case 4:  // tiny exponent normals
            return (rng.bits32() & 0x807FFFFFu) |
                   (static_cast<std::uint32_t>(rng.uniform_int(1, 16)) << 23);
        default:
            return rng.bits32();
    }
}

TEST(SoftFloatEdge, SubnormalCorpus32) {
    Rng rng(0xED6E);
    sf::Context ctx;
    const char ops[] = {'+', '-', '*', '/'};
    for (int i = 0; i < 200000; ++i) {
        const sf::F32 a{edge_bits32(rng)};
        const sf::F32 b{edge_bits32(rng)};
        const char op = ops[i % 4];
        sf::F32 mine;
        switch (op) {
            case '+': mine = sf::add(a, b, ctx); break;
            case '-': mine = sf::sub(a, b, ctx); break;
            case '*': mine = sf::mul(a, b, ctx); break;
            default: mine = sf::div(a, b, ctx); break;
        }
        const sf::F32 href =
            sf::from_host(host_op32(op, sf::to_host(a), sf::to_host(b)));
        if (mine.is_nan() || href.is_nan()) {
            ASSERT_EQ(mine.is_nan(), href.is_nan())
                << op << std::hex << " a=0x" << a.bits << " b=0x" << b.bits;
        } else {
            ASSERT_EQ(mine.bits, href.bits)
                << op << std::hex << " a=0x" << a.bits << " b=0x" << b.bits;
        }
    }
}

TEST(SoftFloatEdge, CancellationIsExact) {
    // Sterbenz lemma: if a/2 <= b <= 2a (same sign), a - b is exact.
    Rng rng(0x57E2);
    sf::Context ctx;
    for (int i = 0; i < 50000; ++i) {
        const float fa = static_cast<float>(rng.uniform(0.5, 100.0));
        const float fb = static_cast<float>(
            static_cast<double>(fa) * rng.uniform(0.5, 2.0));
        ctx.clear();
        const sf::F32 r =
            sf::sub(sf::from_host(fa), sf::from_host(fb), ctx);
        EXPECT_EQ(sf::to_host(r), fa - fb);
        EXPECT_FALSE(ctx.any(sf::kInexact))
            << "Sterbenz subtraction must be exact: " << fa << " - " << fb;
    }
}

TEST(SoftFloatEdge, SqrtOfSquareRoundTrips) {
    // For moderate values, sqrt(x*x) == |x| exactly when x*x is exact.
    Rng rng(0x5117);
    sf::Context ctx;
    for (int i = 0; i < 20000; ++i) {
        // 12-bit significands square exactly in binary32.
        const float x = static_cast<float>(rng.uniform_int(1, 4095));
        ctx.clear();
        const sf::F32 sq = sf::mul(sf::from_host(x), sf::from_host(x), ctx);
        ASSERT_FALSE(ctx.any(sf::kInexact));
        const sf::F32 r = sf::sqrt(sq, ctx);
        EXPECT_EQ(sf::to_host(r), x);
    }
}

TEST(SoftFloatEdge, MinMaxBoundaryArithmetic) {
    sf::Context ctx;
    const sf::F32 max_finite{0x7F7FFFFFu};
    const sf::F32 min_sub{0x00000001u};
    const sf::F32 min_normal{0x00800000u};

    // max + ulp overflows; max + tiny stays max (inexact).
    ctx.clear();
    EXPECT_EQ(sf::add(max_finite, min_sub, ctx).bits, max_finite.bits);
    EXPECT_TRUE(ctx.any(sf::kInexact));

    // min_normal - min_sub is the largest subnormal, exactly.
    ctx.clear();
    const sf::F32 r = sf::sub(min_normal, min_sub, ctx);
    EXPECT_EQ(r.bits, 0x007FFFFFu);
    EXPECT_FALSE(ctx.any(sf::kInexact));

    // min_sub / 2 rounds to zero with underflow+inexact.
    ctx.clear();
    const sf::F32 h = sf::mul(min_sub, sf::from_host(0.5f), ctx);
    EXPECT_TRUE(h.is_zero());
    EXPECT_TRUE(ctx.any(sf::kUnderflow));
    EXPECT_TRUE(ctx.any(sf::kInexact));

    // min_sub * 2 is exact (subnormal doubling).
    ctx.clear();
    EXPECT_EQ(sf::mul(min_sub, sf::from_host(2.0f), ctx).bits, 0x00000002u);
    EXPECT_FALSE(ctx.any(sf::kInexact));
}

}  // namespace
