#include "util/exact.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>

namespace fxg::util {

double repeated_add(double x, double d, std::int64_t n) noexcept {
    if (!repeated_add_domain(x, d)) {
        for (; n > 0; --n) x += d;
        return x;
    }
    constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
    constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // 2^(e+1) in units of u
    constexpr std::uint64_t kFraction = kHidden - 1;
    // d = d_units * 2^(d_exp - 52), subnormal d included.
    const auto d_bits = std::bit_cast<std::uint64_t>(d);
    const int d_biased = static_cast<int>(d_bits >> 52);
    const std::uint64_t d_units = (d_bits & kFraction) | (d_biased != 0 ? kHidden : 0);
    const int d_exp = std::max(d_biased, 1) - 1023;
    const auto one_addition = [&] {
        x += d;
        --n;
    };
    while (n > 0) {
        if (x == HUGE_VAL) return x;
        if (x < DBL_MIN) {  // zero or subnormal
            one_addition();
            continue;
        }
        // x = units * u, u = 2^(e - 52), units in [2^52, 2^53).
        const auto x_bits = std::bit_cast<std::uint64_t>(x);
        const int e = static_cast<int>(x_bits >> 52) - 1023;
        const std::uint64_t units = (x_bits & kFraction) | kHidden;
        // d / u = q + r, q whole and r in [0, 1): d_units shifted right
        // by e - d_exp places. A d of 2^(e+1) or more leaves the binade
        // at once; one below u/2 leaves x where it is.
        const int shift = e - d_exp;
        if (shift < 0) {
            one_addition();
            continue;
        }
        if (shift > 53) return x;
        const std::uint64_t q = d_units >> shift;
        const std::uint64_t r = d_units & ((std::uint64_t{1} << shift) - 1);
        const std::uint64_t half = shift == 0 ? 0 : std::uint64_t{1} << (shift - 1);
        if (shift != 0 && r == half) {  // a tie
            one_addition();
            continue;
        }
        // Every addition inside the binade adds d rounded to whole units,
        // and the j-th from here stays inside while
        // units + j * step + q <= 2^53 - 1.
        const std::uint64_t step = q + (shift != 0 && r > half ? 1 : 0);
        if (step == 0) return x;
        if (units + q >= kTop) {
            one_addition();
            continue;
        }
        const std::uint64_t room = kTop - 1 - units - q;
        const auto want = static_cast<std::uint64_t>(n);
        std::uint64_t span = 0;
        const bool all_fit = !__builtin_mul_overflow(want - 1, step, &span) && span <= room;
        const std::uint64_t k = all_fit ? want : room / step + 1;
        // units + k * step <= 2^53, so adding k * step to the fraction
        // field is exact; at 2^53 it carries into the exponent, which is
        // 2^(e+1), where the last addition rounded (+inf past the top).
        x = std::bit_cast<double>(x_bits + k * step);
        n -= static_cast<std::int64_t>(k);
    }
    return x;
}

}  // namespace fxg::util
