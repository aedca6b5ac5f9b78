#pragma once

/// \file bits.hpp
/// One-bit sample streams packed 64 samples to a word: bit j of word w
/// is sample 64w + j. The block path carries the detector output and
/// the settled (valid) flag this way, from the detector through the
/// fault tap and the stream statistics to the counter. Bits at and past
/// a stream's length are zero.

#include <algorithm>
#include <cstdint>

namespace fxg::util::bits {

/// Words that hold an n-sample stream.
[[nodiscard]] constexpr int words_for(int n) noexcept { return n > 0 ? (n + 63) / 64 : 0; }

/// The low k bits set, for k in [0, 64].
[[nodiscard]] constexpr std::uint64_t low_mask(int k) noexcept {
    return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

/// Samples of an n-sample stream that its word w holds.
[[nodiscard]] constexpr int bits_in_word(int n, int w) noexcept {
    return std::min(64, n - 64 * w);
}

/// Sets samples [0, n) of a stream to `value`, zeroing the bits past n.
inline void fill(std::uint64_t* words, int n, bool value) noexcept {
    const int nw = words_for(n);
    for (int w = 0; w < nw; ++w) words[w] = value ? low_mask(bits_in_word(n, w)) : 0;
}

/// ORs the n-sample stream `src` into `dst` from sample `offset` on.
/// The bits of `dst` it lands on must be zero.
inline void deposit(std::uint64_t* dst, int offset, const std::uint64_t* src, int n) noexcept {
    const int nw = words_for(n);
    const int base = offset / 64;
    const int shift = offset % 64;
    const int last = words_for(offset + n) - 1;
    for (int w = 0; w < nw; ++w) {
        const std::uint64_t word = src[w];
        dst[base + w] |= word << shift;
        if (shift != 0 && base + w + 1 <= last) dst[base + w + 1] |= word >> (64 - shift);
    }
}

}  // namespace fxg::util::bits
