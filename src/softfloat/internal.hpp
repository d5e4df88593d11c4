#pragma once

#include "softfloat/softfloat.hpp"

// The integer reference routines behind softfloat.hpp's arithmetic: the
// Berkeley-style implementations that handle every operand class, rounding
// mode and flag. The public add/sub/mul/div/sqrt try an exact binary64
// fast path first and fall back to these; the differential tests and the
// softfloat bench call them directly as the oracle. Not part of the public
// API.

namespace ob::softfloat::detail {

[[nodiscard]] F32 reference_add(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 reference_sub(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 reference_mul(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 reference_div(F32 a, F32 b, Context& ctx);
[[nodiscard]] F32 reference_sqrt(F32 a, Context& ctx);

}  // namespace ob::softfloat::detail
