#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "softfloat/softfloat.hpp"

// Parameterized IEEE-754 binary32 edge-case coverage across every rounding
// mode: NaN propagation (quiet and signaling), signed-zero
// algebra, and subnormal rounding at the underflow boundary. These are the
// cases the Sabre FPU peripheral leans on hardest and the ones a softfloat
// "optimisation" breaks first.

namespace {

namespace sf = ob::softfloat;
using sf::Context;
using sf::F32;
using sf::Round;

const Round kAllModes[] = {Round::kNearestEven, Round::kTowardZero,
                           Round::kDown, Round::kUp};

std::string mode_name(const ::testing::TestParamInfo<Round>& info) {
    switch (info.param) {
        case Round::kNearestEven: return "NearestEven";
        case Round::kTowardZero: return "TowardZero";
        case Round::kDown: return "Down";
        case Round::kUp: return "Up";
    }
    return "Unknown";
}

class RoundingModeTest : public ::testing::TestWithParam<Round> {
protected:
    [[nodiscard]] Context ctx() const { return Context{GetParam(), 0}; }
};

INSTANTIATE_TEST_SUITE_P(AllModes, RoundingModeTest,
                         ::testing::ValuesIn(kAllModes), mode_name);

// --- NaN propagation -------------------------------------------------------

TEST_P(RoundingModeTest, QuietNanPropagatesThroughArithmeticF32) {
    const F32 qnan = F32::quiet_nan();
    const F32 two = sf::from_host(2.0f);
    Context c = ctx();
    for (const F32 r : {sf::add(qnan, two, c), sf::sub(two, qnan, c),
                        sf::mul(qnan, qnan, c), sf::div(two, qnan, c),
                        sf::sqrt(qnan, c)}) {
        EXPECT_TRUE(r.is_nan());
        EXPECT_FALSE(r.is_signaling_nan()) << "result must be quiet";
    }
    // Quiet NaN in, quiet NaN out — with no invalid flag (IEEE 754 §6.2).
    EXPECT_FALSE(c.any(sf::kInvalid));
}

TEST_P(RoundingModeTest, SignalingNanRaisesInvalidF32) {
    // A signaling NaN: max exponent, MSB of fraction clear, nonzero payload.
    const F32 snan{0x7F800001u};
    ASSERT_TRUE(snan.is_signaling_nan());
    const F32 one = F32::one();

    Context c = ctx();
    const F32 r = sf::add(snan, one, c);
    EXPECT_TRUE(r.is_nan());
    EXPECT_FALSE(r.is_signaling_nan()) << "must be quieted";
    EXPECT_TRUE(c.any(sf::kInvalid));
}

TEST_P(RoundingModeTest, InvalidOperationsProduceQuietNan) {
    Context c = ctx();
    // inf - inf, 0 * inf, 0/0, inf/inf, sqrt(-1): all invalid -> qNaN.
    EXPECT_TRUE(sf::sub(F32::inf(), F32::inf(), c).is_nan());
    EXPECT_TRUE(sf::mul(F32::zero(), F32::inf(), c).is_nan());
    EXPECT_TRUE(sf::div(F32::zero(), F32::zero(), c).is_nan());
    EXPECT_TRUE(sf::div(F32::inf(), F32::inf(), c).is_nan());
    EXPECT_TRUE(sf::sqrt(sf::from_host(-1.0f), c).is_nan());
    EXPECT_TRUE(c.any(sf::kInvalid));
}

TEST_P(RoundingModeTest, NanComparesUnordered) {
    Context c = ctx();
    const F32 qnan = F32::quiet_nan();
    EXPECT_FALSE(sf::eq(qnan, qnan, c));
    EXPECT_FALSE(sf::lt(qnan, F32::one(), c));
    EXPECT_FALSE(sf::le(F32::one(), qnan, c));
}

// --- Signed zero -----------------------------------------------------------

TEST_P(RoundingModeTest, SignedZeroAdditionF32) {
    Context c = ctx();
    // (+0) + (-0): +0 in every mode except round-down, where it is -0
    // (IEEE 754 §6.3).
    const F32 sum = sf::add(F32::zero(), F32::zero(true), c);
    EXPECT_TRUE(sum.is_zero());
    EXPECT_EQ(sum.sign(), GetParam() == Round::kDown);

    // (-0) + (-0) = -0 in every mode.
    const F32 nn = sf::add(F32::zero(true), F32::zero(true), c);
    EXPECT_TRUE(nn.is_zero());
    EXPECT_TRUE(nn.sign());

    // x + (-x): same exact-cancellation rule as (+0) + (-0).
    const F32 x = sf::from_host(3.25f);
    const F32 cancel = sf::add(x, sf::neg(x), c);
    EXPECT_TRUE(cancel.is_zero());
    EXPECT_EQ(cancel.sign(), GetParam() == Round::kDown);
}

TEST_P(RoundingModeTest, SignedZeroMultiplicationAndDivision) {
    Context c = ctx();
    // Sign of a product/quotient is the XOR of the operand signs, zeros
    // included.
    const F32 pz = F32::zero(), nz = F32::zero(true);
    const F32 two = sf::from_host(2.0f);

    EXPECT_EQ(sf::mul(nz, two, c).bits, nz.bits);
    EXPECT_EQ(sf::mul(nz, sf::neg(two), c).bits, pz.bits);
    EXPECT_EQ(sf::div(nz, two, c).bits, nz.bits);
    const F32 underflow_neg = sf::div(sf::neg(two), F32::inf(), c);
    EXPECT_TRUE(underflow_neg.is_zero());
    EXPECT_TRUE(underflow_neg.sign());
}

TEST_P(RoundingModeTest, SqrtOfNegativeZeroIsNegativeZero) {
    Context c = ctx();
    const F32 r = sf::sqrt(F32::zero(true), c);
    EXPECT_TRUE(r.is_zero());
    EXPECT_TRUE(r.sign());
    EXPECT_FALSE(c.any(sf::kInvalid)) << "sqrt(-0) is exact per IEEE §5.4.1";
}

TEST_P(RoundingModeTest, SignedZerosCompareEqual) {
    Context c = ctx();
    EXPECT_TRUE(sf::eq(F32::zero(), F32::zero(true), c));
    EXPECT_FALSE(sf::lt(F32::zero(true), F32::zero(), c));
}

// --- Subnormal rounding ----------------------------------------------------

TEST_P(RoundingModeTest, HalvedMinSubnormalRoundsByModeF32) {
    // min_subnormal / 2 is an exact tie at the underflow boundary:
    //   NearestEven -> +0 (even), TowardZero -> +0, Down -> +0, Up -> min_sub.
    const F32 min_sub{1u};
    Context c = ctx();
    const F32 r = sf::div(min_sub, sf::from_host(2.0f), c);
    if (GetParam() == Round::kUp) {
        EXPECT_EQ(r.bits, min_sub.bits);
    } else {
        EXPECT_TRUE(r.is_zero());
        EXPECT_FALSE(r.sign());
    }
    EXPECT_TRUE(c.any(sf::kInexact));
    EXPECT_TRUE(c.any(sf::kUnderflow));
}

TEST_P(RoundingModeTest, NegativeHalvedMinSubnormalMirrorsModes) {
    // The negative tie goes the other way: Down captures it, Up releases
    // it to -0.
    const F32 neg_min_sub{0x80000001u};
    Context c = ctx();
    const F32 r = sf::div(neg_min_sub, sf::from_host(2.0f), c);
    if (GetParam() == Round::kDown) {
        EXPECT_EQ(r.bits, neg_min_sub.bits);
    } else {
        EXPECT_TRUE(r.is_zero());
        EXPECT_TRUE(r.sign());
    }
}

TEST_P(RoundingModeTest, SubnormalArithmeticIsExactWhenRepresentable) {
    // min_sub + min_sub = 2*min_sub exactly: no rounding, no flags other
    // than (possibly) underflow-before-rounding semantics — the sum is
    // exact so no inexact in any mode.
    Context c = ctx();
    const F32 min_sub{1u};
    const F32 r = sf::add(min_sub, min_sub, c);
    EXPECT_EQ(r.bits, 2u);
    EXPECT_FALSE(c.any(sf::kInexact));
}

TEST_P(RoundingModeTest, SubnormalTimesTwoCrossesIntoNormalExactly) {
    // The largest subnormal times two lands exactly on the smallest normal
    // times two minus one ulp... precisely: 2 * max_subnormal =
    // 2 * (2^-126 - 2^-149) = 2^-125 - 2^-148, representable as a normal.
    Context c = ctx();
    const F32 max_sub{0x007FFFFFu};
    const F32 r = sf::mul(max_sub, sf::from_host(2.0f), c);
    EXPECT_FALSE(r.is_subnormal());
    EXPECT_FALSE(c.any(sf::kInexact));
    EXPECT_EQ(sf::to_host(r), 2.0f * sf::to_host(max_sub));
}

TEST_P(RoundingModeTest, UnderflowFlushDirectionFollowsMode) {
    // A product strictly between 0 and min_subnormal: rounds to 0 or to
    // min_subnormal depending on direction; always inexact + underflow.
    Context c = ctx();
    const F32 min_sub{1u};
    const F32 tiny = sf::mul(min_sub, sf::from_host(0.25f), c);
    EXPECT_TRUE(c.any(sf::kInexact));
    EXPECT_TRUE(c.any(sf::kUnderflow));
    if (GetParam() == Round::kUp) {
        EXPECT_EQ(tiny.bits, min_sub.bits);
    } else {
        EXPECT_TRUE(tiny.is_zero());
    }
}

}  // namespace
