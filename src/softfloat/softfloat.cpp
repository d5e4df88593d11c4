#include "softfloat/softfloat.hpp"

#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <optional>

#include "softfloat/internal.hpp"

// IEEE-754 binary32 emulation in integer arithmetic, following the
// structure of Hauser's Berkeley Softfloat (the library the paper ran on
// the Sabre soft core): operands are unpacked to sign/exponent/significand,
// computed with explicit guard/round/sticky bits, then rounded and packed.
//
// These integer routines are the reference implementation (detail::, see
// internal.hpp); the public arithmetic entry points first try an exact
// binary64 fast path on the host FPU (below) and fall back to them.
//
// Internal fixed-point convention (Berkeley's): a working significand
// `zSig` passed to round_and_pack() is a 31-bit quantity with its most
// significant bit at bit 30 and seven rounding bits at the bottom; the
// represented value is zSig/2^30 * 2^(zExp+1-127).

namespace ob::softfloat {
namespace {

constexpr std::uint32_t kSignMask = 0x80000000u;
constexpr std::uint32_t kHiddenBit = 0x00800000u;

[[nodiscard]] std::uint32_t pack(bool sign, std::int32_t exp, std::uint32_t sig) {
    // The significand may carry its hidden bit (bit 23); that adds one to
    // the exponent field, which is exactly the IEEE encoding's behaviour.
    return (sign ? kSignMask : 0u) +
           (static_cast<std::uint32_t>(exp) << 23) + sig;
}

/// Right shift that ORs all shifted-out bits into the result LSB ("jamming"),
/// preserving inexactness information for rounding.
[[nodiscard]] std::uint32_t shift_right_jam32(std::uint32_t a,
                                              std::int32_t count) {
    if (count == 0) return a;
    if (count < 32) {
        const std::uint32_t lost = a << ((32 - count) & 31);
        return (a >> count) | (lost != 0 ? 1u : 0u);
    }
    return a != 0 ? 1u : 0u;
}

[[nodiscard]] std::uint64_t shift_right_jam64(std::uint64_t a,
                                              std::int32_t count) {
    if (count == 0) return a;
    if (count < 64) {
        const std::uint64_t lost = a << ((64 - count) & 63);
        return (a >> count) | (lost != 0 ? 1u : 0u);
    }
    return a != 0 ? 1u : 0u;
}

/// Normalize a subnormal fraction: returns the left shift applied so the
/// hidden-bit position (bit 23) is set, and the adjusted exponent.
struct Normalized {
    std::int32_t exp;
    std::uint32_t sig;
};

[[nodiscard]] Normalized normalize_subnormal(std::uint32_t frac) {
    const int shift = std::countl_zero(frac) - 8;
    return {1 - shift, frac << shift};
}

/// NaN propagation: any arithmetic involving a NaN produces the canonical
/// quiet NaN; signaling NaNs additionally raise the invalid flag.
[[nodiscard]] F32 propagate_nan(F32 a, F32 b, Context& ctx) {
    if (a.is_signaling_nan() || b.is_signaling_nan()) ctx.raise(kInvalid);
    return F32::quiet_nan();
}

/// Round `zSig` (31-bit, MSB at bit 30, 7 round bits) per the context mode
/// and pack the result, handling overflow to infinity and underflow to
/// subnormals/zero. Tininess is detected before rounding.
[[nodiscard]] F32 round_and_pack(bool sign, std::int32_t exp,
                                 std::uint32_t sig, Context& ctx) {
    const bool nearest = ctx.rounding == Round::kNearestEven;
    std::uint32_t increment = 0x40;
    if (!nearest) {
        if (ctx.rounding == Round::kTowardZero) {
            increment = 0;
        } else if (ctx.rounding == Round::kDown) {
            increment = sign ? 0x7F : 0;
        } else {  // Round::kUp
            increment = sign ? 0 : 0x7F;
        }
    }
    std::uint32_t round_bits = sig & 0x7F;

    if (exp >= 0xFD) {
        if (exp > 0xFD ||
            (exp == 0xFD &&
             static_cast<std::int32_t>(sig + increment) < 0)) {
            ctx.raise(kOverflow | kInexact);
            const std::uint32_t inf_bits = pack(sign, 0xFF, 0);
            // Directed rounding away from infinity yields the max finite.
            return F32{inf_bits - (increment == 0 ? 1u : 0u)};
        }
    }
    if (exp < 0) {
        const bool tiny = true;  // tininess before rounding: exp < 0 is tiny
        sig = shift_right_jam32(sig, -exp);
        exp = 0;
        round_bits = sig & 0x7F;
        if (tiny && round_bits != 0) ctx.raise(kUnderflow);
    }
    if (round_bits != 0) ctx.raise(kInexact);
    sig = (sig + increment) >> 7;
    if (nearest && round_bits == 0x40) sig &= ~1u;  // ties to even
    if (sig == 0) exp = 0;
    return F32{pack(sign, exp, sig)};
}

/// Left-normalize an arbitrary nonzero significand then round and pack.
[[nodiscard]] F32 normalize_round_and_pack(bool sign, std::int32_t exp,
                                           std::uint32_t sig, Context& ctx) {
    const int shift = std::countl_zero(sig) - 1;
    return round_and_pack(sign, exp - shift, sig << shift, ctx);
}

/// Magnitude addition of same-signed operands (Berkeley addFloat32Sigs).
/// Significands are scaled by 2^6 (hidden bit at 0x20000000).
[[nodiscard]] F32 add_sigs(F32 a, F32 b, bool z_sign, Context& ctx) {
    std::int32_t a_exp = static_cast<std::int32_t>(a.exponent());
    std::int32_t b_exp = static_cast<std::int32_t>(b.exponent());
    std::uint32_t a_sig = a.fraction() << 6;
    std::uint32_t b_sig = b.fraction() << 6;
    const std::int32_t exp_diff = a_exp - b_exp;
    std::int32_t z_exp;
    std::uint32_t z_sig;

    if (exp_diff > 0) {
        if (a_exp == 0xFF) {
            if (a.fraction() != 0) return propagate_nan(a, b, ctx);
            return F32::inf(z_sign);
        }
        std::int32_t shift = exp_diff;
        if (b_exp == 0) {
            --shift;  // subnormal: effective exponent is 1, no hidden bit
        } else {
            b_sig |= 0x20000000;
        }
        b_sig = shift_right_jam32(b_sig, shift);
        z_exp = a_exp;
    } else if (exp_diff < 0) {
        if (b_exp == 0xFF) {
            if (b.fraction() != 0) return propagate_nan(a, b, ctx);
            return F32::inf(z_sign);
        }
        std::int32_t shift = -exp_diff;
        if (a_exp == 0) {
            --shift;
        } else {
            a_sig |= 0x20000000;
        }
        a_sig = shift_right_jam32(a_sig, shift);
        z_exp = b_exp;
    } else {
        if (a_exp == 0xFF) {
            if (a.fraction() != 0 || b.fraction() != 0)
                return propagate_nan(a, b, ctx);
            return F32::inf(z_sign);
        }
        if (a_exp == 0) {
            // Both zero/subnormal: the sum is exact; a carry into bit 23
            // lands in the exponent field, which is the correct encoding.
            return F32{pack(z_sign, 0, (a_sig + b_sig) >> 6)};
        }
        z_sig = 0x40000000u + a_sig + b_sig;
        z_exp = a_exp;
        return round_and_pack(z_sign, z_exp, z_sig, ctx);
    }
    a_sig |= 0x20000000;
    z_sig = (a_sig + b_sig) << 1;
    --z_exp;
    if (static_cast<std::int32_t>(z_sig) < 0) {
        // Carry out of bit 30: undo the pre-shift.
        z_sig = a_sig + b_sig;
        ++z_exp;
    }
    return round_and_pack(z_sign, z_exp, z_sig, ctx);
}

/// Magnitude subtraction of opposite-signed operands (subFloat32Sigs).
/// Significands are scaled by 2^7 (hidden bit at 0x40000000).
[[nodiscard]] F32 sub_sigs(F32 a, F32 b, bool z_sign, Context& ctx) {
    std::int32_t a_exp = static_cast<std::int32_t>(a.exponent());
    std::int32_t b_exp = static_cast<std::int32_t>(b.exponent());
    std::uint32_t a_sig = a.fraction() << 7;
    std::uint32_t b_sig = b.fraction() << 7;
    std::int32_t exp_diff = a_exp - b_exp;

    if (exp_diff == 0) {
        if (a_exp == 0xFF) {
            if (a.fraction() != 0 || b.fraction() != 0)
                return propagate_nan(a, b, ctx);
            ctx.raise(kInvalid);  // inf - inf
            return F32::quiet_nan();
        }
        if (a_exp == 0) {
            a_exp = 1;
            b_exp = 1;
        }
        if (b_sig < a_sig) {
            return normalize_round_and_pack(z_sign, a_exp - 1, a_sig - b_sig, ctx);
        }
        if (a_sig < b_sig) {
            return normalize_round_and_pack(!z_sign, b_exp - 1, b_sig - a_sig, ctx);
        }
        // Exact zero: negative only when rounding toward -infinity.
        return F32::zero(ctx.rounding == Round::kDown);
    }
    if (exp_diff > 0) {
        if (a_exp == 0xFF) {
            if (a.fraction() != 0) return propagate_nan(a, b, ctx);
            return F32::inf(z_sign);
        }
        std::int32_t shift = exp_diff;
        if (b_exp == 0) {
            --shift;
        } else {
            b_sig |= 0x40000000;
        }
        b_sig = shift_right_jam32(b_sig, shift);
        a_sig |= 0x40000000;
        return normalize_round_and_pack(z_sign, a_exp - 1, a_sig - b_sig, ctx);
    }
    // b dominates
    if (b_exp == 0xFF) {
        if (b.fraction() != 0) return propagate_nan(a, b, ctx);
        return F32::inf(!z_sign);
    }
    std::int32_t shift = -exp_diff;
    if (a_exp == 0) {
        --shift;
    } else {
        a_sig |= 0x40000000;
    }
    a_sig = shift_right_jam32(a_sig, shift);
    b_sig |= 0x40000000;
    return normalize_round_and_pack(!z_sign, b_exp - 1, b_sig - a_sig, ctx);
}

/// Integer square root of a 64-bit value (floor), digit-by-digit.
[[nodiscard]] std::uint32_t isqrt64(std::uint64_t a) {
    std::uint64_t rem = 0;
    std::uint64_t root = 0;
    for (int i = 0; i < 32; ++i) {
        root <<= 1;
        rem = (rem << 2) | (a >> 62);
        a <<= 2;
        if (root < rem) {
            rem -= root | 1;
            root += 2;
        }
    }
    return static_cast<std::uint32_t>(root >> 1);
}

}  // namespace

F32 from_host(float f) { return F32{std::bit_cast<std::uint32_t>(f)}; }

float to_host(F32 a) { return std::bit_cast<float>(a.bits); }

namespace detail {

F32 reference_add(F32 a, F32 b, Context& ctx) {
    if (a.sign() == b.sign()) return add_sigs(a, b, a.sign(), ctx);
    return sub_sigs(a, b, a.sign(), ctx);
}

F32 reference_sub(F32 a, F32 b, Context& ctx) {
    if (a.sign() == b.sign()) return sub_sigs(a, b, a.sign(), ctx);
    return add_sigs(a, b, a.sign(), ctx);
}

F32 reference_mul(F32 a, F32 b, Context& ctx) {
    std::int32_t a_exp = static_cast<std::int32_t>(a.exponent());
    std::int32_t b_exp = static_cast<std::int32_t>(b.exponent());
    std::uint32_t a_sig = a.fraction();
    std::uint32_t b_sig = b.fraction();
    const bool z_sign = a.sign() != b.sign();

    if (a_exp == 0xFF) {
        if (a_sig != 0 || (b_exp == 0xFF && b_sig != 0))
            return propagate_nan(a, b, ctx);
        if ((static_cast<std::uint32_t>(b_exp) | b_sig) == 0) {
            ctx.raise(kInvalid);  // inf * 0
            return F32::quiet_nan();
        }
        return F32::inf(z_sign);
    }
    if (b_exp == 0xFF) {
        if (b_sig != 0) return propagate_nan(a, b, ctx);
        if ((static_cast<std::uint32_t>(a_exp) | a_sig) == 0) {
            ctx.raise(kInvalid);
            return F32::quiet_nan();
        }
        return F32::inf(z_sign);
    }
    if (a_exp == 0) {
        if (a_sig == 0) return F32::zero(z_sign);
        const auto n = normalize_subnormal(a_sig);
        a_exp = n.exp;
        a_sig = n.sig;
    }
    if (b_exp == 0) {
        if (b_sig == 0) return F32::zero(z_sign);
        const auto n = normalize_subnormal(b_sig);
        b_exp = n.exp;
        b_sig = n.sig;
    }
    std::int32_t z_exp = a_exp + b_exp - 0x7F;
    a_sig = (a_sig | kHiddenBit) << 7;
    b_sig = (b_sig | kHiddenBit) << 8;
    std::uint32_t z_sig = static_cast<std::uint32_t>(shift_right_jam64(
        static_cast<std::uint64_t>(a_sig) * b_sig, 32));
    if (static_cast<std::int32_t>(z_sig << 1) >= 0) {
        z_sig <<= 1;
        --z_exp;
    }
    return round_and_pack(z_sign, z_exp, z_sig, ctx);
}

F32 reference_div(F32 a, F32 b, Context& ctx) {
    std::int32_t a_exp = static_cast<std::int32_t>(a.exponent());
    std::int32_t b_exp = static_cast<std::int32_t>(b.exponent());
    std::uint32_t a_sig = a.fraction();
    std::uint32_t b_sig = b.fraction();
    const bool z_sign = a.sign() != b.sign();

    if (a_exp == 0xFF) {
        if (a_sig != 0) return propagate_nan(a, b, ctx);
        if (b_exp == 0xFF) {
            if (b_sig != 0) return propagate_nan(a, b, ctx);
            ctx.raise(kInvalid);  // inf / inf
            return F32::quiet_nan();
        }
        return F32::inf(z_sign);
    }
    if (b_exp == 0xFF) {
        if (b_sig != 0) return propagate_nan(a, b, ctx);
        return F32::zero(z_sign);
    }
    if (b_exp == 0) {
        if (b_sig == 0) {
            if ((static_cast<std::uint32_t>(a_exp) | a_sig) == 0) {
                ctx.raise(kInvalid);  // 0 / 0
                return F32::quiet_nan();
            }
            ctx.raise(kDivByZero);
            return F32::inf(z_sign);
        }
        const auto n = normalize_subnormal(b_sig);
        b_exp = n.exp;
        b_sig = n.sig;
    }
    if (a_exp == 0) {
        if (a_sig == 0) return F32::zero(z_sign);
        const auto n = normalize_subnormal(a_sig);
        a_exp = n.exp;
        a_sig = n.sig;
    }
    std::int32_t z_exp = a_exp - b_exp + 0x7D;
    a_sig = (a_sig | kHiddenBit) << 7;
    b_sig = (b_sig | kHiddenBit) << 8;
    if (b_sig <= a_sig + a_sig) {
        a_sig >>= 1;
        ++z_exp;
    }
    std::uint32_t z_sig = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(a_sig) << 32) / b_sig);
    if ((z_sig & 0x3F) == 0) {
        const bool exact = static_cast<std::uint64_t>(b_sig) * z_sig ==
                           (static_cast<std::uint64_t>(a_sig) << 32);
        z_sig |= exact ? 0u : 1u;
    }
    return round_and_pack(z_sign, z_exp, z_sig, ctx);
}

F32 reference_sqrt(F32 a, Context& ctx) {
    std::int32_t a_exp = static_cast<std::int32_t>(a.exponent());
    std::uint32_t a_sig = a.fraction();

    if (a_exp == 0xFF) {
        if (a_sig != 0) return propagate_nan(a, a, ctx);
        if (!a.sign()) return a;  // sqrt(+inf) = +inf
        ctx.raise(kInvalid);
        return F32::quiet_nan();
    }
    if (a.sign()) {
        if ((static_cast<std::uint32_t>(a_exp) | a_sig) == 0) return a;  // -0
        ctx.raise(kInvalid);
        return F32::quiet_nan();
    }
    if (a_exp == 0) {
        if (a_sig == 0) return F32::zero(false);
        const auto n = normalize_subnormal(a_sig);
        a_exp = n.exp;
        a_sig = n.sig;
    }
    // value = M * 2^(E-23) with M the 24-bit significand. Scale M so the
    // integer square root lands with its MSB at bit 30 (the round_and_pack
    // convention): A = M << 37 for even E, M << 38 for odd E.
    const std::int32_t e = a_exp - 0x7F;
    const std::uint64_t m = a_sig | kHiddenBit;
    const int k = (e & 1) != 0 ? 38 : 37;
    const std::uint64_t big = m << k;
    std::uint32_t z_sig = isqrt64(big);
    if (static_cast<std::uint64_t>(z_sig) * z_sig != big) z_sig |= 1;  // sticky
    const std::int32_t z_exp = (e >> 1) + 0x7E;  // arithmetic shift: floor(e/2)
    return round_and_pack(false, z_exp, z_sig, ctx);
}

}  // namespace detail

// --- Binary64-then-round fast path ----------------------------------------
//
// With round-to-nearest-even, normal operands and a result well inside the
// normal range, add/sub/mul/div/sqrt are computed once in binary64 and
// rounded once to binary32. Double rounding is innocuous for these five
// operations when the wide format has p' >= 2p + 2 bits (Figueroa 1995):
// 53 >= 2 * 24 + 2, so the narrowed value is the correctly rounded binary32
// result the integer routines produce. Operands are normal and the
// narrowed result's exponent field is in 2..253, so neither underflow
// (tininess before rounding needs |result| < 2^-126) nor overflow can
// occur, and every operand, intermediate and result stays normal: the
// host's flush-to-zero / denormals-are-zero modes cannot change a result.
// The only flag the path can raise is inexact, and it comes from an exact
// binary64 back-check (each back-check product has at most 48 significant
// bits). Everything else — specials, subnormals, the directed rounding
// modes, exponent gaps beyond 28 in add/sub, results near either end of the
// range — takes the integer reference routines in detail::, unchanged.
// Like the rest of the program, the path assumes the host's default
// round-to-nearest environment.

static_assert(FLT_EVAL_METHOD == 0,
              "float and double expressions must evaluate in their own type");
static_assert(std::numeric_limits<float>::is_iec559 &&
              std::numeric_limits<double>::is_iec559);

namespace {

[[nodiscard]] double widen(F32 a) {
    return static_cast<double>(std::bit_cast<float>(a.bits));
}

[[nodiscard]] bool is_normal(F32 a) { return a.exponent() - 1u < 254u; }

[[nodiscard]] bool fast_operands(F32 a, F32 b, const Context& ctx) {
    return ctx.rounding == Round::kNearestEven && is_normal(a) && is_normal(b);
}

/// Round `r` once to binary32; empty unless the result's exponent field is
/// in 2..253. Checking |r| first keeps the conversion inside float's range.
[[nodiscard]] std::optional<F32> narrow(double r) {
    const double m = std::fabs(r);
    if (!(m >= 0x1p-125 && m < 0x1p127)) return std::nullopt;
    const F32 z{std::bit_cast<std::uint32_t>(static_cast<float>(r))};
    if (z.exponent() > 253) return std::nullopt;  // rounded up to 2^127
    return z;
}

/// Raise inexact unless the exact back-check `back` reproduces `want`.
/// Both are nonzero and finite, so they are equal exactly when their bits
/// are; comparing the bits keeps the flag update branchless (sums of near
/// operands are exact about half the time, which a branch mispredicts).
[[nodiscard]] F32 finish(F32 z, double back, double want, Context& ctx) {
    ctx.raise(static_cast<unsigned>(std::bit_cast<std::uint64_t>(back) !=
                                    std::bit_cast<std::uint64_t>(want)) *
              kInexact);
    return z;
}

/// The binary64 sum of two normal binary32 values is exact when their
/// exponents differ by at most 28 (24 + 28 + 1 = 53 significant bits).
[[nodiscard]] bool exact_sum(F32 a, F32 b) {
    const auto gap = static_cast<std::int32_t>(a.exponent()) -
                     static_cast<std::int32_t>(b.exponent());
    return gap >= -28 && gap <= 28;
}

}  // namespace

F32 add(F32 a, F32 b, Context& ctx) {
    if (fast_operands(a, b, ctx) && exact_sum(a, b)) {
        const double r = widen(a) + widen(b);
        if (const auto z = narrow(r)) return finish(*z, widen(*z), r, ctx);
    }
    return detail::reference_add(a, b, ctx);
}

F32 sub(F32 a, F32 b, Context& ctx) {
    if (fast_operands(a, b, ctx) && exact_sum(a, b)) {
        const double r = widen(a) - widen(b);
        if (const auto z = narrow(r)) return finish(*z, widen(*z), r, ctx);
    }
    return detail::reference_sub(a, b, ctx);
}

F32 mul(F32 a, F32 b, Context& ctx) {
    if (fast_operands(a, b, ctx)) {
        const double r = widen(a) * widen(b);  // exact: 48-bit product
        if (const auto z = narrow(r)) return finish(*z, widen(*z), r, ctx);
    }
    return detail::reference_mul(a, b, ctx);
}

F32 div(F32 a, F32 b, Context& ctx) {
    if (fast_operands(a, b, ctx)) {
        const double x = widen(a);
        const double y = widen(b);
        if (const auto z = narrow(x / y))
            return finish(*z, widen(*z) * y, x, ctx);
    }
    return detail::reference_div(a, b, ctx);
}

F32 sqrt(F32 a, Context& ctx) {
    if (ctx.rounding == Round::kNearestEven && is_normal(a) && !a.sign()) {
        // IEEE 754 requires sqrt to be correctly rounded; for a positive
        // normal operand this is the hardware square-root instruction.
        const double x = widen(a);
        if (const auto z = narrow(std::sqrt(x)))
            return finish(*z, widen(*z) * widen(*z), x, ctx);
    }
    return detail::reference_sqrt(a, ctx);
}

F32 round_to_int(F32 a, Context& ctx) {
    const std::int32_t a_exp = static_cast<std::int32_t>(a.exponent());
    if (a_exp >= 0x96) {  // |a| >= 2^23: already integral (or inf/NaN)
        if (a_exp == 0xFF && a.fraction() != 0) return propagate_nan(a, a, ctx);
        return a;
    }
    if (a_exp <= 0x7E) {  // |a| < 1
        if ((a.bits << 1) == 0) return a;  // +-0 stays exact
        ctx.raise(kInexact);
        const bool sign = a.sign();
        switch (ctx.rounding) {
            case Round::kNearestEven:
                if (a_exp == 0x7E && a.fraction() != 0)
                    return F32{pack(sign, 0x7F, 0)};  // +-1
                return F32::zero(sign);
            case Round::kTowardZero:
                return F32::zero(sign);
            case Round::kDown:
                return sign ? F32{0xBF800000u} : F32::zero(false);  // -1 or +0
            case Round::kUp:
                return sign ? F32::zero(true) : F32::one();  // -0 or +1
        }
        return F32::zero(sign);
    }
    const std::uint32_t last_bit = 1u << (0x96 - a_exp);
    const std::uint32_t round_mask = last_bit - 1;
    std::uint32_t z = a.bits;
    switch (ctx.rounding) {
        case Round::kNearestEven:
            z += last_bit >> 1;
            if ((z & round_mask) == 0) z &= ~last_bit;  // ties to even
            break;
        case Round::kTowardZero:
            break;
        case Round::kDown:
            if (a.sign()) z += round_mask;
            break;
        case Round::kUp:
            if (!a.sign()) z += round_mask;
            break;
    }
    z &= ~round_mask;
    if (z != a.bits) ctx.raise(kInexact);
    return F32{z};
}

bool eq(F32 a, F32 b, Context& ctx) {
    if (a.is_nan() || b.is_nan()) {
        if (a.is_signaling_nan() || b.is_signaling_nan()) ctx.raise(kInvalid);
        return false;
    }
    return a.bits == b.bits || ((a.bits | b.bits) << 1) == 0;  // +0 == -0
}

bool lt(F32 a, F32 b, Context& ctx) {
    if (a.is_nan() || b.is_nan()) {
        ctx.raise(kInvalid);
        return false;
    }
    const bool a_sign = a.sign();
    const bool b_sign = b.sign();
    if (a_sign != b_sign) return a_sign && ((a.bits | b.bits) << 1) != 0;
    return a.bits != b.bits && (a_sign != (a.bits < b.bits));
}

bool le(F32 a, F32 b, Context& ctx) {
    if (a.is_nan() || b.is_nan()) {
        ctx.raise(kInvalid);
        return false;
    }
    const bool a_sign = a.sign();
    const bool b_sign = b.sign();
    if (a_sign != b_sign) return a_sign || ((a.bits | b.bits) << 1) == 0;
    return a.bits == b.bits || (a_sign != (a.bits < b.bits));
}

F32 from_i32(std::int32_t v, Context& ctx) {
    if (v == 0) return F32::zero(false);
    const bool sign = v < 0;
    const std::uint32_t mag =
        sign ? ~static_cast<std::uint32_t>(v) + 1u : static_cast<std::uint32_t>(v);
    if ((mag & kSignMask) != 0) {  // exactly 2^31 (INT32_MIN)
        return round_and_pack(sign, 0x9D, (mag >> 1) | (mag & 1), ctx);
    }
    const int shift = std::countl_zero(mag) - 1;
    return round_and_pack(sign, 0x9C - shift, mag << shift, ctx);
}

namespace {

/// Shared integer-conversion core: rounds a Q7 fixed-point magnitude.
[[nodiscard]] std::int32_t round_q7_to_i32(bool sign, std::uint64_t q7,
                                           Round mode, Context& ctx) {
    const std::uint32_t round_bits = static_cast<std::uint32_t>(q7 & 0x7F);
    std::uint64_t inc = 0;
    switch (mode) {
        case Round::kNearestEven: inc = 0x40; break;
        case Round::kTowardZero: inc = 0; break;
        case Round::kDown: inc = sign ? 0x7F : 0; break;
        case Round::kUp: inc = sign ? 0 : 0x7F; break;
    }
    std::uint64_t mag = (q7 + inc) >> 7;
    if (mode == Round::kNearestEven && round_bits == 0x40) mag &= ~1ull;
    if (round_bits != 0) ctx.raise(kInexact);
    if (sign) {
        if (mag > 0x80000000ull) {
            ctx.raise(kInvalid);
            return INT32_MIN;
        }
        return static_cast<std::int32_t>(-static_cast<std::int64_t>(mag));
    }
    if (mag > 0x7FFFFFFFull) {
        ctx.raise(kInvalid);
        return INT32_MAX;
    }
    return static_cast<std::int32_t>(mag);
}

[[nodiscard]] std::int32_t to_i32_mode(F32 a, Round mode, Context& ctx) {
    const std::int32_t exp = static_cast<std::int32_t>(a.exponent());
    const std::uint32_t frac = a.fraction();
    if (exp == 0xFF) {
        ctx.raise(kInvalid);
        if (frac != 0) return INT32_MAX;  // NaN saturates positive
        return a.sign() ? INT32_MIN : INT32_MAX;
    }
    if (exp >= 0x9E) {  // |a| >= 2^31
        if (a.sign() && exp == 0x9E && frac == 0) return INT32_MIN;  // exact
        ctx.raise(kInvalid);
        return a.sign() ? INT32_MIN : INT32_MAX;
    }
    std::uint64_t sig = frac;
    if (exp != 0) sig |= kHiddenBit;
    // value = sig * 2^(exp-150); Q7 magnitude = sig * 2^(exp-143).
    const std::int32_t shift = 0x8F - exp;  // 143 - exp
    const std::uint64_t q7 =
        shift > 0 ? shift_right_jam64(sig, shift) : sig << (-shift);
    return round_q7_to_i32(a.sign(), q7, mode, ctx);
}

}  // namespace

std::int32_t to_i32(F32 a, Context& ctx) {
    return to_i32_mode(a, ctx.rounding, ctx);
}

std::int32_t to_i32_trunc(F32 a, Context& ctx) {
    return to_i32_mode(a, Round::kTowardZero, ctx);
}

}  // namespace ob::softfloat
