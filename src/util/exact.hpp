#pragma once

/// \file exact.hpp
/// Closed forms for floating-point recurrences whose additions are
/// exact or round the same way every time. The block path's serial
/// sums (the oscillator's phase and clocks, the counter's clock
/// accumulator, the mux's elapsed time) take them when their inputs
/// allow, and return what the sample-by-sample additions return, bit
/// for bit (DESIGN.md section 6).

#include <cmath>
#include <cstdint>

namespace fxg::util {

/// True when x is an integer multiple of 2^-52. Two such values whose
/// sum is below 2 add exactly: in [0, 2) the spacing of doubles is at
/// most 2^-52, so the sum, itself a multiple of 2^-52, is representable.
[[nodiscard]] inline bool on_unit_grid(double x) noexcept {
    const double units = x * 0x1p52;  // exact: a power-of-two scale
    return units == std::floor(units);
}

/// The domain of repeated_add()'s closed form: d > 0 and x >= 0, both
/// finite. Outside it every addition runs one at a time.
[[nodiscard]] inline bool repeated_add_domain(double x, double d) noexcept {
    return d > 0.0 && x >= 0.0 && std::isfinite(d) && std::isfinite(x);
}

/// What `for (n times) x += d;` returns, in O(binades) for d > 0 and
/// finite x >= 0. Inside a binade [2^e, 2^(e+1)), where doubles have one
/// spacing u, x + d rounds to x plus d rounded to a multiple of u, the
/// same step every time, unless d mod u = u/2 (a tie, which rounds to an
/// even significand and so alternates): many additions there are one
/// multiplication. Ties, zero or subnormal x, and the additions whose
/// sum leaves the binade run one at a time; so does every addition
/// outside repeated_add_domain(x, d).
[[nodiscard]] double repeated_add(double x, double d, std::int64_t n) noexcept;

}  // namespace fxg::util
