#pragma once

#include <cstdint>

namespace ob::softfloat {

/// IEEE-754 rounding modes supported by the emulation library.
enum class Round : std::uint8_t {
    kNearestEven,  ///< round to nearest, ties to even (default)
    kTowardZero,   ///< truncate
    kDown,         ///< toward -infinity
    kUp,           ///< toward +infinity
};

/// IEEE-754 exception flags; OR-combined into Context::flags.
enum Flag : unsigned {
    kInexact = 1u << 0,
    kUnderflow = 1u << 1,
    kOverflow = 1u << 2,
    kDivByZero = 1u << 3,
    kInvalid = 1u << 4,
};

/// Per-computation floating-point environment. The paper ran the Berkeley
/// Softfloat library on the Sabre soft core because it has no FPU; this
/// re-implementation keeps the environment in an explicit context object
/// instead of globals so independent components (e.g. two ISS instances)
/// cannot interfere.
struct Context {
    Round rounding = Round::kNearestEven;
    unsigned flags = 0;

    void raise(unsigned f) { flags |= f; }
    [[nodiscard]] bool any(unsigned f) const { return (flags & f) != 0; }
    void clear() { flags = 0; }
};

/// IEEE-754 binary32 value carried as raw bits. The arithmetic below is
/// bit-exact IEEE binary32 with explicit flags: add/sub/mul/div/sqrt use
/// the host FPU in binary64 where that provably rounds the same way
/// (nearest-even, normal operands and result), and the integer softfloat
/// routines everywhere else; `from_host`/`to_host` are exact bit casts.
struct F32 {
    std::uint32_t bits = 0;

    friend constexpr bool operator==(F32 a, F32 b) = default;

    [[nodiscard]] constexpr bool sign() const { return (bits >> 31) != 0; }
    [[nodiscard]] constexpr std::uint32_t exponent() const {
        return (bits >> 23) & 0xFF;
    }
    [[nodiscard]] constexpr std::uint32_t fraction() const {
        return bits & 0x007FFFFF;
    }
    [[nodiscard]] constexpr bool is_nan() const {
        return exponent() == 0xFF && fraction() != 0;
    }
    [[nodiscard]] constexpr bool is_signaling_nan() const {
        return is_nan() && (bits & 0x00400000) == 0;
    }
    [[nodiscard]] constexpr bool is_inf() const {
        return exponent() == 0xFF && fraction() == 0;
    }
    [[nodiscard]] constexpr bool is_zero() const {
        return (bits & 0x7FFFFFFF) == 0;
    }
    [[nodiscard]] constexpr bool is_subnormal() const {
        return exponent() == 0 && fraction() != 0;
    }

    [[nodiscard]] static constexpr F32 zero(bool negative = false) {
        return F32{negative ? 0x80000000u : 0u};
    }
    [[nodiscard]] static constexpr F32 one() { return F32{0x3F800000u}; }
    [[nodiscard]] static constexpr F32 inf(bool negative = false) {
        return F32{negative ? 0xFF800000u : 0x7F800000u};
    }
    /// Canonical quiet NaN produced by invalid operations.
    [[nodiscard]] static constexpr F32 quiet_nan() { return F32{0xFFC00000u}; }
};

/// Bit-exact bridges to the host float representation (for tests and IO).
[[nodiscard]] F32 from_host(float f);
[[nodiscard]] float to_host(F32 a);

// --- Arithmetic -----------------------------------------------------------

[[nodiscard]] F32 add(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 sub(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 mul(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 div(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 sqrt(F32 a, Context& ctx);
/// Sign manipulation is exact and raises no flags (IEEE 754 §5.5.1);
/// they are free functions for symmetry with the arithmetic ops.
[[nodiscard]] constexpr F32 neg(F32 a) { return F32{a.bits ^ 0x80000000u}; }
[[nodiscard]] constexpr F32 abs(F32 a) { return F32{a.bits & 0x7FFFFFFFu}; }

/// Round to an integral value in floating-point format.
[[nodiscard]] F32 round_to_int(F32 a, Context& ctx);

// --- Comparisons (quiet: NaN operands compare unordered) ------------------

/// a == b; NaN != everything (including itself). Signaling NaN raises invalid.
[[nodiscard]] bool eq(F32 a, F32 b, Context& ctx);
/// a < b; raises invalid on any NaN operand (IEEE signaling predicate).
[[nodiscard]] bool lt(F32 a, F32 b, Context& ctx);
/// a <= b; raises invalid on any NaN operand.
[[nodiscard]] bool le(F32 a, F32 b, Context& ctx);

// --- Conversions -----------------------------------------------------------

/// Exact where possible; rounds per ctx otherwise.
[[nodiscard]] F32 from_i32(std::int32_t v, Context& ctx);
/// Converts with the context rounding mode; out-of-range or NaN raises
/// invalid and saturates (NaN -> INT32_MAX, matching RISC-style cores).
[[nodiscard]] std::int32_t to_i32(F32 a, Context& ctx);
/// Converts with truncation regardless of context mode (C cast semantics).
[[nodiscard]] std::int32_t to_i32_trunc(F32 a, Context& ctx);

}  // namespace ob::softfloat
