#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "softfloat/internal.hpp"
#include "softfloat/softfloat.hpp"
#include "util/rng.hpp"

// Conformance tests: the softfloat library must be bit-exact against the
// host's IEEE-754 hardware for every operation and rounding mode. The host
// reference runs inside noinline functions on volatile operands so the
// compiler cannot fold or hoist the FP ops out of the fesetround window.

namespace {

namespace sf = ob::softfloat;
using ob::util::Rng;

[[gnu::noinline]] float host_add(float a, float b) {
    volatile float x = a, y = b;
    return x + y;
}
[[gnu::noinline]] float host_sub(float a, float b) {
    volatile float x = a, y = b;
    return x - y;
}
[[gnu::noinline]] float host_mul(float a, float b) {
    volatile float x = a, y = b;
    return x * y;
}
[[gnu::noinline]] float host_div(float a, float b) {
    volatile float x = a, y = b;
    return x / y;
}
[[gnu::noinline]] float host_sqrt(float a) {
    volatile float x = a;
    return std::sqrt(x);
}
[[gnu::noinline]] float host_from_i32(std::int32_t v) {
    volatile std::int32_t x = v;
    return static_cast<float>(x);
}

int host_mode(sf::Round r) {
    switch (r) {
        case sf::Round::kNearestEven: return FE_TONEAREST;
        case sf::Round::kTowardZero: return FE_TOWARDZERO;
        case sf::Round::kDown: return FE_DOWNWARD;
        case sf::Round::kUp: return FE_UPWARD;
    }
    return FE_TONEAREST;
}

/// Host flags we compare against (underflow excluded: x86 detects tininess
/// after rounding, this library before rounding — both are IEEE-conformant
/// choices; underflow behaviour gets its own directed tests).
constexpr unsigned kComparedFlags =
    sf::kInvalid | sf::kDivByZero | sf::kOverflow | sf::kInexact;

unsigned host_flags_to_sf() {
    unsigned f = 0;
    if (std::fetestexcept(FE_INVALID)) f |= sf::kInvalid;
    if (std::fetestexcept(FE_DIVBYZERO)) f |= sf::kDivByZero;
    if (std::fetestexcept(FE_OVERFLOW)) f |= sf::kOverflow;
    if (std::fetestexcept(FE_INEXACT)) f |= sf::kInexact;
    return f;
}

struct HostRef {
    std::uint32_t bits;
    unsigned flags;
};

template <typename HostOp>
HostRef host_eval(sf::Round mode, HostOp&& op) {
    std::feclearexcept(FE_ALL_EXCEPT);
    std::fesetround(host_mode(mode));
    const float r = op();
    const unsigned flags = host_flags_to_sf();
    std::fesetround(FE_TONEAREST);
    std::uint32_t bits;
    std::memcpy(&bits, &r, sizeof bits);
    return {bits, flags};
}

enum class Op { kAdd, kSub, kMul, kDiv };

sf::F32 sf_eval(Op op, sf::F32 a, sf::F32 b, sf::Context& ctx) {
    switch (op) {
        case Op::kAdd: return sf::add(a, b, ctx);
        case Op::kSub: return sf::sub(a, b, ctx);
        case Op::kMul: return sf::mul(a, b, ctx);
        case Op::kDiv: return sf::div(a, b, ctx);
    }
    return sf::F32{};
}

float host_eval_op(Op op, float a, float b) {
    switch (op) {
        case Op::kAdd: return host_add(a, b);
        case Op::kSub: return host_sub(a, b);
        case Op::kMul: return host_mul(a, b);
        case Op::kDiv: return host_div(a, b);
    }
    return 0.0f;
}

/// Random operand generator biased toward hard cases: plain random bits
/// cover NaN/inf/subnormals; "close exponent" pairs exercise alignment and
/// catastrophic cancellation paths.
std::pair<sf::F32, sf::F32> random_pair(Rng& rng) {
    sf::F32 a{rng.bits32()};
    sf::F32 b{rng.bits32()};
    if (rng.chance(0.5)) {
        // Force b's exponent within +-2 of a's (clamped to finite range).
        const std::int32_t ea = static_cast<std::int32_t>(a.exponent());
        std::int32_t eb = ea + static_cast<std::int32_t>(rng.uniform_int(-2, 2));
        eb = std::max(0, std::min(0xFE, eb));
        b.bits = (b.bits & 0x807FFFFFu) |
                 (static_cast<std::uint32_t>(eb) << 23);
    }
    return {a, b};
}

void check_binary_op(Op op, sf::Round mode, std::uint64_t seed, int iterations) {
    Rng rng(seed);
    int checked = 0;
    for (int i = 0; i < iterations; ++i) {
        const auto [a, b] = random_pair(rng);
        sf::Context ctx;
        ctx.rounding = mode;
        const sf::F32 mine = sf_eval(op, a, b, ctx);
        const HostRef ref = host_eval(
            mode, [&] { return host_eval_op(op, sf::to_host(a), sf::to_host(b)); });

        const sf::F32 host_result{ref.bits};
        if (mine.is_nan() || host_result.is_nan()) {
            ASSERT_EQ(mine.is_nan(), host_result.is_nan())
                << "op=" << static_cast<int>(op) << " a=0x" << std::hex << a.bits
                << " b=0x" << b.bits << " mine=0x" << mine.bits << " host=0x"
                << ref.bits;
        } else {
            ASSERT_EQ(mine.bits, ref.bits)
                << "op=" << static_cast<int>(op) << " mode="
                << static_cast<int>(mode) << std::hex << " a=0x" << a.bits
                << " b=0x" << b.bits << " mine=0x" << mine.bits << " host=0x"
                << ref.bits;
        }
        if (!a.is_nan() && !b.is_nan()) {
            // NaN inputs raise invalid only for signaling NaNs, where host
            // quieting behaviour differs in the payload, not the flag; for
            // non-NaN inputs the flag sets must agree exactly.
            ASSERT_EQ(ctx.flags & kComparedFlags, ref.flags & kComparedFlags)
                << "flags mismatch op=" << static_cast<int>(op) << std::hex
                << " a=0x" << a.bits << " b=0x" << b.bits << " mine flags="
                << (ctx.flags & kComparedFlags) << " host=" << ref.flags;
        }
        ++checked;
    }
    ASSERT_GT(checked, 0);
}

struct FuzzCase {
    Op op;
    sf::Round mode;
    int iterations;
};

class SoftFloatFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(SoftFloatFuzz, MatchesHostBitExactly) {
    const auto& p = GetParam();
    check_binary_op(p.op, p.mode,
                    0xC0FFEEull + static_cast<std::uint64_t>(p.op) * 17 +
                        static_cast<std::uint64_t>(p.mode) * 101,
                    p.iterations);
}

std::string fuzz_name(const ::testing::TestParamInfo<FuzzCase>& info) {
    const char* ops[] = {"Add", "Sub", "Mul", "Div"};
    const char* modes[] = {"Nearest", "TowardZero", "Down", "Up"};
    return std::string(ops[static_cast<int>(info.param.op)]) +
           modes[static_cast<int>(info.param.mode)];
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsAllModes, SoftFloatFuzz,
    ::testing::Values(
        FuzzCase{Op::kAdd, sf::Round::kNearestEven, 100000},
        FuzzCase{Op::kSub, sf::Round::kNearestEven, 100000},
        FuzzCase{Op::kMul, sf::Round::kNearestEven, 100000},
        FuzzCase{Op::kDiv, sf::Round::kNearestEven, 100000},
        FuzzCase{Op::kAdd, sf::Round::kTowardZero, 20000},
        FuzzCase{Op::kSub, sf::Round::kTowardZero, 20000},
        FuzzCase{Op::kMul, sf::Round::kTowardZero, 20000},
        FuzzCase{Op::kDiv, sf::Round::kTowardZero, 20000},
        FuzzCase{Op::kAdd, sf::Round::kDown, 20000},
        FuzzCase{Op::kSub, sf::Round::kDown, 20000},
        FuzzCase{Op::kMul, sf::Round::kDown, 20000},
        FuzzCase{Op::kDiv, sf::Round::kDown, 20000},
        FuzzCase{Op::kAdd, sf::Round::kUp, 20000},
        FuzzCase{Op::kSub, sf::Round::kUp, 20000},
        FuzzCase{Op::kMul, sf::Round::kUp, 20000},
        FuzzCase{Op::kDiv, sf::Round::kUp, 20000}),
    fuzz_name);

TEST(SoftFloatSqrt, MatchesHostAcrossModes) {
    for (const sf::Round mode :
         {sf::Round::kNearestEven, sf::Round::kTowardZero, sf::Round::kDown,
          sf::Round::kUp}) {
        Rng rng(0xB0BA + static_cast<std::uint64_t>(mode));
        for (int i = 0; i < 50000; ++i) {
            sf::F32 a{rng.bits32()};
            sf::Context ctx;
            ctx.rounding = mode;
            const sf::F32 mine = sf::sqrt(a, ctx);
            const HostRef ref =
                host_eval(mode, [&] { return host_sqrt(sf::to_host(a)); });
            const sf::F32 host_result{ref.bits};
            if (mine.is_nan() || host_result.is_nan()) {
                ASSERT_EQ(mine.is_nan(), host_result.is_nan())
                    << std::hex << "a=0x" << a.bits;
            } else {
                ASSERT_EQ(mine.bits, ref.bits)
                    << std::hex << "a=0x" << a.bits << " mine=0x" << mine.bits
                    << " host=0x" << ref.bits << " mode="
                    << static_cast<int>(mode);
            }
            if (!a.is_nan()) {
                ASSERT_EQ(ctx.flags & kComparedFlags, ref.flags & kComparedFlags)
                    << std::hex << "a=0x" << a.bits;
            }
        }
    }
}

TEST(SoftFloatDirected, SpecialValueArithmetic) {
    sf::Context ctx;
    const sf::F32 inf = sf::F32::inf(false);
    const sf::F32 ninf = sf::F32::inf(true);
    const sf::F32 one = sf::F32::one();
    const sf::F32 zero = sf::F32::zero(false);
    const sf::F32 nzero = sf::F32::zero(true);

    EXPECT_TRUE(sf::add(inf, one, ctx).is_inf());
    EXPECT_TRUE(sf::add(inf, ninf, ctx).is_nan());
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    ctx.clear();
    EXPECT_TRUE(sf::mul(inf, zero, ctx).is_nan());
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    ctx.clear();
    EXPECT_TRUE(sf::div(one, zero, ctx).is_inf());
    EXPECT_TRUE(ctx.any(sf::kDivByZero));

    ctx.clear();
    EXPECT_TRUE(sf::div(zero, zero, ctx).is_nan());
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    ctx.clear();
    const sf::F32 r = sf::div(one, ninf, ctx);
    EXPECT_TRUE(r.is_zero());
    EXPECT_TRUE(r.sign());
    EXPECT_EQ(ctx.flags, 0u);

    ctx.clear();
    EXPECT_TRUE(sf::sqrt(sf::neg(one), ctx).is_nan());
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    // sqrt(-0) == -0 per IEEE.
    ctx.clear();
    const sf::F32 s = sf::sqrt(nzero, ctx);
    EXPECT_TRUE(s.is_zero());
    EXPECT_TRUE(s.sign());
    EXPECT_EQ(ctx.flags, 0u);
}

TEST(SoftFloatDirected, SignedZeroRules) {
    sf::Context ctx;
    // (+0) + (-0) = +0 in round-to-nearest; -0 in round-down.
    EXPECT_EQ(sf::add(sf::F32::zero(false), sf::F32::zero(true), ctx).bits, 0u);
    ctx.rounding = sf::Round::kDown;
    // x - x = -0 when rounding down.
    const sf::F32 x = sf::from_host(1.5f);
    EXPECT_EQ(sf::sub(x, x, ctx).bits, 0x80000000u);
}

TEST(SoftFloatDirected, OverflowToInfinityAndMaxFinite) {
    const sf::F32 maxf{0x7F7FFFFFu};
    sf::Context ctx;
    EXPECT_TRUE(sf::mul(maxf, maxf, ctx).is_inf());
    EXPECT_TRUE(ctx.any(sf::kOverflow));
    EXPECT_TRUE(ctx.any(sf::kInexact));

    // Round-toward-zero saturates at the maximum finite value instead.
    ctx.clear();
    ctx.rounding = sf::Round::kTowardZero;
    EXPECT_EQ(sf::mul(maxf, maxf, ctx).bits, maxf.bits);
    EXPECT_TRUE(ctx.any(sf::kOverflow));
}

TEST(SoftFloatDirected, UnderflowRaisesOnTinyInexact) {
    // smallest normal * 0.5 -> subnormal, inexact-free (exact halving).
    const sf::F32 min_normal{0x00800000u};
    const sf::F32 half = sf::from_host(0.5f);
    sf::Context ctx;
    const sf::F32 r = sf::mul(min_normal, half, ctx);
    EXPECT_TRUE(r.is_subnormal());
    EXPECT_FALSE(ctx.any(sf::kUnderflow)) << "exact subnormal must not underflow";

    // smallest subnormal / 3 -> rounds, tiny and inexact -> underflow.
    ctx.clear();
    const sf::F32 min_sub{0x00000001u};
    const sf::F32 three = sf::from_host(3.0f);
    (void)sf::div(min_sub, three, ctx);
    EXPECT_TRUE(ctx.any(sf::kUnderflow));
    EXPECT_TRUE(ctx.any(sf::kInexact));
}

TEST(SoftFloatDirected, NearestTiesToEven) {
    // 1 + 2^-24 is exactly halfway between 1 and the next float; ties to
    // even must round down to 1.0.
    sf::Context ctx;
    const sf::F32 tiny{0x33800000u};  // 2^-24
    EXPECT_EQ(sf::add(sf::F32::one(), tiny, ctx).bits, sf::F32::one().bits);
    // 1 + 3*2^-24 is halfway between ulp1 and ulp2; ties to even -> ulp2.
    ctx.clear();
    const sf::F32 ulp1{0x3F800001u};
    const sf::F32 r = sf::add(ulp1, tiny, ctx);
    EXPECT_EQ(r.bits, 0x3F800002u);
}

TEST(SoftFloatDirected, SignalingNanRaisesInvalid) {
    sf::Context ctx;
    const sf::F32 snan{0x7F800001u};  // signaling NaN
    const sf::F32 r = sf::add(snan, sf::F32::one(), ctx);
    EXPECT_TRUE(r.is_nan());
    EXPECT_FALSE(r.is_signaling_nan());
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    ctx.clear();
    const sf::F32 qnan = sf::F32::quiet_nan();
    (void)sf::add(qnan, sf::F32::one(), ctx);
    EXPECT_FALSE(ctx.any(sf::kInvalid)) << "quiet NaN must propagate silently";
}

TEST(SoftFloatCompare, OrderingAndNanSemantics) {
    sf::Context ctx;
    const sf::F32 one = sf::F32::one();
    const sf::F32 two = sf::from_host(2.0f);
    const sf::F32 none = sf::neg(one);
    EXPECT_TRUE(sf::lt(one, two, ctx));
    EXPECT_FALSE(sf::lt(two, one, ctx));
    EXPECT_TRUE(sf::lt(none, one, ctx));
    EXPECT_TRUE(sf::le(one, one, ctx));
    EXPECT_TRUE(sf::eq(one, one, ctx));
    EXPECT_FALSE(sf::eq(one, two, ctx));
    // +0 == -0
    EXPECT_TRUE(sf::eq(sf::F32::zero(false), sf::F32::zero(true), ctx));
    EXPECT_FALSE(sf::lt(sf::F32::zero(true), sf::F32::zero(false), ctx));
    EXPECT_EQ(ctx.flags, 0u);

    // NaN is unordered; eq is quiet, lt/le are signaling.
    const sf::F32 nan = sf::F32::quiet_nan();
    EXPECT_FALSE(sf::eq(nan, nan, ctx));
    EXPECT_EQ(ctx.flags, 0u);
    EXPECT_FALSE(sf::lt(nan, one, ctx));
    EXPECT_TRUE(ctx.any(sf::kInvalid));
}

TEST(SoftFloatCompare, FuzzAgainstHost) {
    Rng rng(0xFEED);
    sf::Context ctx;
    for (int i = 0; i < 100000; ++i) {
        const sf::F32 a{rng.bits32()};
        const sf::F32 b{rng.bits32()};
        const float fa = sf::to_host(a);
        const float fb = sf::to_host(b);
        EXPECT_EQ(sf::eq(a, b, ctx), fa == fb);
        EXPECT_EQ(sf::lt(a, b, ctx), fa < fb);
        EXPECT_EQ(sf::le(a, b, ctx), fa <= fb);
    }
}

TEST(SoftFloatConvert, FromI32MatchesHost) {
    Rng rng(0xABCD);
    for (const sf::Round mode :
         {sf::Round::kNearestEven, sf::Round::kTowardZero, sf::Round::kDown,
          sf::Round::kUp}) {
        for (int i = 0; i < 20000; ++i) {
            const auto v = static_cast<std::int32_t>(rng.bits32());
            sf::Context ctx;
            ctx.rounding = mode;
            const sf::F32 mine = sf::from_i32(v, ctx);
            const HostRef ref = host_eval(mode, [&] { return host_from_i32(v); });
            ASSERT_EQ(mine.bits, ref.bits)
                << "v=" << v << " mode=" << static_cast<int>(mode);
        }
    }
    // Exact boundary values.
    sf::Context ctx;
    EXPECT_EQ(sf::to_host(sf::from_i32(0, ctx)), 0.0f);
    EXPECT_EQ(sf::to_host(sf::from_i32(1, ctx)), 1.0f);
    EXPECT_EQ(sf::to_host(sf::from_i32(-1, ctx)), -1.0f);
    EXPECT_EQ(sf::to_host(sf::from_i32(INT32_MIN, ctx)), -2147483648.0f);
    EXPECT_EQ(sf::to_host(sf::from_i32(INT32_MAX, ctx)), 2147483648.0f);
}

TEST(SoftFloatConvert, ToI32RoundTripAndSaturation) {
    sf::Context ctx;
    EXPECT_EQ(sf::to_i32(sf::from_host(1.5f), ctx), 2);        // ties to even
    EXPECT_EQ(sf::to_i32(sf::from_host(2.5f), ctx), 2);        // ties to even
    EXPECT_EQ(sf::to_i32(sf::from_host(-1.5f), ctx), -2);
    EXPECT_EQ(sf::to_i32_trunc(sf::from_host(1.9f), ctx), 1);
    EXPECT_EQ(sf::to_i32_trunc(sf::from_host(-1.9f), ctx), -1);

    ctx.clear();
    EXPECT_EQ(sf::to_i32(sf::from_host(-2147483648.0f), ctx), INT32_MIN);
    EXPECT_EQ(ctx.flags, 0u) << "-2^31 converts exactly";

    ctx.clear();
    EXPECT_EQ(sf::to_i32(sf::from_host(2147483648.0f), ctx), INT32_MAX);
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    ctx.clear();
    EXPECT_EQ(sf::to_i32(sf::F32::inf(true), ctx), INT32_MIN);
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    ctx.clear();
    EXPECT_EQ(sf::to_i32(sf::F32::quiet_nan(), ctx), INT32_MAX);
    EXPECT_TRUE(ctx.any(sf::kInvalid));

    // Round-trip: every exactly-representable int32 survives.
    Rng rng(0x1234);
    for (int i = 0; i < 20000; ++i) {
        const auto v =
            static_cast<std::int32_t>(rng.uniform_int(-(1 << 24), 1 << 24));
        ctx.clear();
        EXPECT_EQ(sf::to_i32(sf::from_i32(v, ctx), ctx), v);
        EXPECT_FALSE(ctx.any(sf::kInexact));
    }
}

TEST(SoftFloatRoundToInt, SubUnitDirectedRounding) {
    // IEEE 754 §5.9: roundToIntegral preserves the sign of the operand,
    // including for zero results. (The host libm gets this wrong; see the
    // fuzz test below.)
    sf::Context ctx;
    const sf::F32 pos = sf::from_host(0.25f);
    const sf::F32 neg = sf::from_host(-0.25f);

    ctx.rounding = sf::Round::kDown;
    EXPECT_EQ(sf::round_to_int(pos, ctx).bits, 0x00000000u);   // +0
    EXPECT_EQ(sf::round_to_int(neg, ctx).bits, 0xBF800000u);   // -1

    ctx.rounding = sf::Round::kUp;
    EXPECT_EQ(sf::round_to_int(pos, ctx).bits, 0x3F800000u);   // +1
    EXPECT_EQ(sf::round_to_int(neg, ctx).bits, 0x80000000u);   // -0

    ctx.rounding = sf::Round::kTowardZero;
    EXPECT_EQ(sf::round_to_int(pos, ctx).bits, 0x00000000u);   // +0
    EXPECT_EQ(sf::round_to_int(neg, ctx).bits, 0x80000000u);   // -0

    ctx.rounding = sf::Round::kNearestEven;
    EXPECT_EQ(sf::round_to_int(sf::from_host(0.5f), ctx).bits, 0x00000000u);
    EXPECT_EQ(sf::round_to_int(sf::from_host(1.5f), ctx).bits, 0x40000000u);  // 2
    EXPECT_EQ(sf::round_to_int(sf::from_host(-0.5f), ctx).bits, 0x80000000u);
    EXPECT_EQ(sf::round_to_int(sf::from_host(0.75f), ctx).bits, 0x3F800000u);
}

TEST(SoftFloatRoundToInt, MatchesHostFloorCeilTruncRint) {
    // Oracle note: this host's libm rint/rintf ignore the dynamic rounding
    // mode (observed rintf(-22652.17) == -22652 under FE_DOWNWARD), so the
    // directed-mode references are built from the mode-independent
    // floor/ceil/trunc instead, and rintf (default mode) covers nearest.
    Rng rng(0x5555);
    for (const sf::Round mode :
         {sf::Round::kNearestEven, sf::Round::kTowardZero, sf::Round::kDown,
          sf::Round::kUp}) {
        for (int i = 0; i < 20000; ++i) {
            sf::F32 a{rng.bits32()};
            sf::Context ctx;
            ctx.rounding = mode;
            const sf::F32 mine = sf::round_to_int(a, ctx);
            volatile float x = sf::to_host(a);
            float host_val = 0.0f;
            switch (mode) {
                case sf::Round::kNearestEven: host_val = std::rint(x); break;
                case sf::Round::kTowardZero: host_val = std::trunc(x); break;
                case sf::Round::kDown: host_val = std::floor(x); break;
                case sf::Round::kUp: host_val = std::ceil(x); break;
            }
            const sf::F32 host_result = sf::from_host(host_val);
            if (mine.is_nan() || host_result.is_nan()) {
                ASSERT_EQ(mine.is_nan(), host_result.is_nan());
            } else {
                ASSERT_EQ(mine.bits, host_result.bits)
                    << std::hex << "a=0x" << a.bits << " mode="
                    << static_cast<int>(mode);
            }
        }
    }
}

TEST(SoftFloatProperties, AlgebraicIdentities) {
    Rng rng(0x777);
    sf::Context ctx;
    for (int i = 0; i < 20000; ++i) {
        const sf::F32 a{rng.bits32()};
        const sf::F32 b{rng.bits32()};
        if (a.is_nan() || b.is_nan()) continue;
        // Commutativity.
        EXPECT_EQ(sf::add(a, b, ctx).bits, sf::add(b, a, ctx).bits);
        EXPECT_EQ(sf::mul(a, b, ctx).bits, sf::mul(b, a, ctx).bits);
        // Identity elements (excluding signed-zero subtleties).
        if (!a.is_zero()) {
            EXPECT_EQ(sf::mul(a, sf::F32::one(), ctx).bits, a.bits);
            EXPECT_EQ(sf::add(a, sf::F32::zero(false), ctx).bits, a.bits);
        }
        // Negation symmetry: -(a+b) == (-a)+(-b).
        const sf::F32 s = sf::add(a, b, ctx);
        const sf::F32 ns = sf::add(sf::neg(a), sf::neg(b), ctx);
        if (!s.is_nan()) {
            EXPECT_EQ(sf::neg(s).bits, ns.bits);
        }
    }
}

TEST(SoftFloatProperties, DirectedRoundingBrackets) {
    // For any finite inputs, round-down result <= round-up result, and the
    // nearest result is one of the two.
    Rng rng(0x888);
    for (int i = 0; i < 20000; ++i) {
        const sf::F32 a{rng.bits32()};
        const sf::F32 b{rng.bits32()};
        if (a.is_nan() || b.is_nan()) continue;
        sf::Context down, up, near;
        down.rounding = sf::Round::kDown;
        up.rounding = sf::Round::kUp;
        const sf::F32 rd = sf::mul(a, b, down);
        const sf::F32 ru = sf::mul(a, b, up);
        const sf::F32 rn = sf::mul(a, b, near);
        if (rd.is_nan() || ru.is_nan()) continue;
        sf::Context cmp;
        EXPECT_TRUE(sf::le(rd, ru, cmp))
            << std::hex << "a=0x" << a.bits << " b=0x" << b.bits;
        EXPECT_TRUE(rn.bits == rd.bits || rn.bits == ru.bits);
    }
}

// --- Binary64 fast path against the integer reference ----------------------
//
// add/sub/mul/div/sqrt take an exact binary64 fast path on the host FPU
// where it provably rounds like the integer routines, and fall back to them
// elsewhere. These tests hold the public ops to the integer reference
// (detail::reference_*) bit for bit and flag for flag, concentrating on the
// fast path's edges: exponent gaps around 28, results around 2^-125 and
// 2^127, exact and inexact quotients and roots.

using BinaryFn = sf::F32 (*)(sf::F32, sf::F32, sf::Context&);

struct RefOp {
    const char* name;
    BinaryFn fast;
    BinaryFn reference;
};

const RefOp kRefOps[] = {
    {"add", &sf::add, &sf::detail::reference_add},
    {"sub", &sf::sub, &sf::detail::reference_sub},
    {"mul", &sf::mul, &sf::detail::reference_mul},
    {"div", &sf::div, &sf::detail::reference_div},
    {"sqrt", [](sf::F32 a, sf::F32, sf::Context& c) { return sf::sqrt(a, c); },
     [](sf::F32 a, sf::F32, sf::Context& c) {
         return sf::detail::reference_sqrt(a, c);
     }},
};

/// Counts operand pairs on which the public op and the integer reference
/// disagree in result bits or flags, and remembers the first one.
class Differential {
public:
    explicit Differential(const RefOp& op) : op_(op) {}

    void check(std::uint32_t a, std::uint32_t b,
               sf::Round mode = sf::Round::kNearestEven) {
        sf::Context fast_ctx;
        sf::Context ref_ctx;
        fast_ctx.rounding = ref_ctx.rounding = mode;
        const sf::F32 fast = op_.fast(sf::F32{a}, sf::F32{b}, fast_ctx);
        const sf::F32 ref = op_.reference(sf::F32{a}, sf::F32{b}, ref_ctx);
        ++checked_;
        if (fast == ref && fast_ctx.flags == ref_ctx.flags) return;
        if (mismatches_++ == 0) {
            std::ostringstream os;
            os << std::hex << op_.name << "(0x" << a << ", 0x" << b
               << ") mode " << static_cast<int>(mode) << ": 0x" << fast.bits
               << " flags 0x" << fast_ctx.flags << ", reference 0x"
               << ref.bits << " flags 0x" << ref_ctx.flags;
            first_ = os.str();
        }
    }

    [[nodiscard]] std::uint64_t checked() const { return checked_; }
    [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
    [[nodiscard]] const std::string& first() const { return first_; }

private:
    const RefOp& op_;
    std::uint64_t checked_ = 0;
    std::uint64_t mismatches_ = 0;
    std::string first_;
};

/// A binary32 with the given sign, exponent field and fraction.
constexpr std::uint32_t f32_bits(bool sign, std::uint32_t exp,
                                 std::uint32_t frac) {
    return (sign ? 0x80000000u : 0u) | (exp << 23) | (frac & 0x007FFFFFu);
}

class SoftFloatFastPathOps : public ::testing::TestWithParam<int> {};

TEST_P(SoftFloatFastPathOps, MatchesReferenceOnTenMillionOperands) {
    const RefOp& op = kRefOps[GetParam()];
    Differential diff(op);
    Rng rng(0xFA57 + static_cast<std::uint64_t>(GetParam()));
    constexpr int kPairs = 5'000'000;
    for (int i = 0; i < kPairs; ++i) {
        // Raw bit patterns: every class, mostly far-apart exponents.
        diff.check(rng.bits32(), rng.bits32());
        // Near-exponent pairs: b within 30 binades of a, spanning the
        // exact-sum bound of 28 and the range ends.
        const std::uint32_t a = rng.bits32();
        const std::uint32_t r = rng.bits32();
        const auto gap = static_cast<std::int32_t>(r % 61) - 30;
        const std::int32_t eb = std::clamp(
            static_cast<std::int32_t>((a >> 23) & 0xFF) + gap, 0, 0xFF);
        diff.check(a, f32_bits((r >> 31) != 0, static_cast<std::uint32_t>(eb),
                               rng.bits32()));
    }
    EXPECT_EQ(diff.checked(), 2u * kPairs);
    EXPECT_EQ(diff.mismatches(), 0u) << diff.first();
}

TEST_P(SoftFloatFastPathOps, MatchesReferenceAtRangeEndBinades) {
    // Sampled mantissas in the lowest and highest normal binades, paired
    // with partners that keep the result near the ends of the range.
    const RefOp& op = kRefOps[GetParam()];
    Differential diff(op);
    Rng rng(0xED6E + static_cast<std::uint64_t>(GetParam()));
    for (const std::uint32_t binade : {1u, 2u, 253u, 254u}) {
        for (int i = 0; i < 100'000; ++i) {
            const std::uint32_t r = rng.bits32();
            const std::uint32_t a = f32_bits((r & 1) != 0, binade, rng.bits32());
            const std::uint32_t partner_exp[] = {binade, 127u, 126u, 128u,
                                                 255u - binade};
            const std::uint32_t b = f32_bits((r & 2) != 0, partner_exp[(r >> 2) % 5],
                                             rng.bits32());
            diff.check(a, b);
            diff.check(b, a);
        }
    }
    EXPECT_EQ(diff.mismatches(), 0u) << diff.first();
}

TEST_P(SoftFloatFastPathOps, DirectedRoundingModesTakeTheReference) {
    const RefOp& op = kRefOps[GetParam()];
    Differential diff(op);
    Rng rng(0xD1 + static_cast<std::uint64_t>(GetParam()));
    for (const sf::Round mode :
         {sf::Round::kTowardZero, sf::Round::kDown, sf::Round::kUp}) {
        for (int i = 0; i < 100'000; ++i)
            diff.check(rng.bits32(), rng.bits32(), mode);
    }
    EXPECT_EQ(diff.mismatches(), 0u) << diff.first();
}

std::string ref_op_name(const ::testing::TestParamInfo<int>& info) {
    return kRefOps[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(AllOps, SoftFloatFastPathOps, ::testing::Range(0, 5),
                         ref_op_name);

TEST(SoftFloatFastPath, SqrtExhaustiveAroundOne) {
    // Every mantissa of binades 126 and 127: [0.5, 2), both exponent
    // parities of the square root.
    Differential diff(kRefOps[4]);
    for (const std::uint32_t binade : {126u, 127u}) {
        for (std::uint32_t frac = 0; frac < (1u << 23); ++frac)
            diff.check(f32_bits(false, binade, frac), 0);
    }
    EXPECT_EQ(diff.checked(), 2u << 23);
    EXPECT_EQ(diff.mismatches(), 0u) << diff.first();
}

struct Expected {
    std::uint32_t bits;
    unsigned flags;
};

/// Public op result, checked against the reference and against `want`.
void expect_op(const RefOp& op, std::uint32_t a, std::uint32_t b,
               Expected want) {
    SCOPED_TRACE(::testing::Message() << std::hex << op.name << "(0x" << a
                                      << ", 0x" << b << ")");
    Differential diff(op);
    diff.check(a, b);
    EXPECT_EQ(diff.mismatches(), 0u) << diff.first();
    sf::Context ctx;
    EXPECT_EQ(op.fast(sf::F32{a}, sf::F32{b}, ctx).bits, want.bits);
    EXPECT_EQ(ctx.flags, want.flags);
}

TEST(SoftFloatFastPath, ExponentGapAroundTwentyEight) {
    const RefOp& add = kRefOps[0];
    const RefOp& sub = kRefOps[1];
    const std::uint32_t one_ulp = 0x3F800001u;  // 1 + 2^-23
    // Gap 28: 1 + 2^-28 * (1 + 2^-23) is exact in binary64, rounds to 1.
    expect_op(add, 0x3F800000u, f32_bits(false, 127 - 28, 1),
              {0x3F800000u, sf::kInexact});
    // Gap 29 goes to the integer path; same answer.
    expect_op(add, 0x3F800000u, f32_bits(false, 127 - 29, 1),
              {0x3F800000u, sf::kInexact});
    // Just above a tie, and just below one across the hidden bit.
    expect_op(add, one_ulp, f32_bits(false, 127 - 24, 1),
              {0x3F800002u, sf::kInexact});
    expect_op(sub, 0x3F800000u, f32_bits(false, 127 - 25, 1),
              {0x3F7FFFFFu, sf::kInexact});
    expect_op(sub, 0x3F800000u, f32_bits(false, 127 - 28, 0),
              {0x3F800000u, sf::kInexact});
    expect_op(sub, 0x3F800000u, f32_bits(false, 127 - 29, 0),
              {0x3F800000u, sf::kInexact});
    // Exact small-gap sum: 1.5 + 0.25.
    expect_op(add, 0x3FC00000u, 0x3E800000u, {0x3FE00000u, 0});
}

TEST(SoftFloatFastPath, ResultsAroundTheRangeEnds) {
    const RefOp& mul = kRefOps[2];
    const RefOp& div = kRefOps[3];
    const std::uint32_t two = 0x40000000u;
    const std::uint32_t just_below_one = 0x3F7FFFFFu;
    // 2^-125 is the smallest fast-path result (exponent field 2).
    expect_op(mul, f32_bits(false, 1, 0), two, {f32_bits(false, 2, 0), 0});
    // Just below 2^-125: exponent field 1, still normal, integer path.
    expect_op(mul, f32_bits(false, 2, 0), just_below_one,
              {f32_bits(false, 1, 0x7FFFFF), 0});
    // Rounds to 2^-126 from above: inexact but not tiny.
    expect_op(mul, f32_bits(false, 1, 1), just_below_one,
              {0x00800000u, sf::kInexact});
    // Rounds to 2^-126 from below: tiny before rounding, so it underflows.
    expect_op(mul, f32_bits(false, 1, 0), just_below_one,
              {0x00800000u, sf::kInexact | sf::kUnderflow});
    expect_op(div, f32_bits(false, 1, 0), 0x40400000u,  // 2^-126 / 3
              {0x002AAAABu, sf::kInexact | sf::kUnderflow});
    // 2^126 * (2 - 2^-23) is the largest fast-path binade (field 253).
    expect_op(mul, f32_bits(false, 127, 0x7FFFFF), f32_bits(false, 253, 0),
              {f32_bits(false, 253, 0x7FFFFF), 0});
    // 2^127: exponent field 254, integer path.
    expect_op(mul, f32_bits(false, 253, 0), two, {f32_bits(false, 254, 0), 0});
    // Past the largest finite value: overflow to infinity.
    expect_op(mul, 0x7F7FFFFFu, two,
              {0x7F800000u, sf::kOverflow | sf::kInexact});
    expect_op(kRefOps[0], 0x7F7FFFFFu, f32_bits(false, 254 - 24, 0),
              {0x7F800000u, sf::kOverflow | sf::kInexact});
}

TEST(SoftFloatFastPath, SelfSubtractionIsPositiveZero) {
    for (const std::uint32_t x : {0x3FC00000u, 0xC2F60000u, 0x00800000u,
                                  0x7F7FFFFFu, 0x12345678u}) {
        expect_op(kRefOps[1], x, x, {0u, 0});
        expect_op(kRefOps[0], x, x ^ 0x80000000u, {0u, 0});
    }
}

TEST(SoftFloatFastPath, ExactAndInexactQuotientsAndRoots) {
    const RefOp& div = kRefOps[3];
    const RefOp& sqrt = kRefOps[4];
    expect_op(div, 0x40C00000u, 0x40400000u, {0x40000000u, 0});  // 6 / 3
    expect_op(div, 0x3F800000u, 0x40400000u,                     // 1 / 3
              {0x3EAAAAABu, sf::kInexact});
    expect_op(div, 0x3F800000u, 0x3E000000u, {0x41000000u, 0});  // 1 / 0.125
    expect_op(sqrt, 0x40800000u, 0, {0x40000000u, 0});           // sqrt 4
    expect_op(sqrt, 0x40000000u, 0, {0x3FB504F3u, sf::kInexact}); // sqrt 2
    // (1 + 2^-11)^2 = 1 + 2^-10 + 2^-22 is a binary32; its root is exact.
    expect_op(sqrt, 0x3F802002u, 0, {0x3F801000u, 0});
    // Its neighbour's root is not.
    expect_op(sqrt, 0x3F802003u, 0, {0x3F801000u, sf::kInexact});
}

}  // namespace
