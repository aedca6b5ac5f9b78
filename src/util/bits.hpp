#pragma once

/// \file bits.hpp
/// One-bit sample streams packed 64 samples to a word: bit j of word w
/// is sample 64w + j. The block path carries the detector output and
/// the settled (valid) flag this way, from the detector through the
/// fault tap and the stream statistics to the counter. Bits at and past
/// a stream's length are zero.

#include <algorithm>
#include <cstdint>

#include "util/simd.hpp"

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

/// Transposes a plane of 64 per-sample lane bytes into one stream word
/// per lane: bit t of words[l] is bit l of bytes[t], for l in [0, 8).
/// The lane engine stores each comparison across its lanes as one byte
/// per sample and takes each lane's words from here. The portable form
/// transposes eight 8 x 8 bit blocks (three swap steps each); it runs
/// on FXG_SIMD=off builds and off x86-64, and is the reference
/// transpose_lanes() is tested against.
inline void transpose_lanes_portable(const std::uint8_t* bytes, std::uint64_t* words) noexcept {
    for (int l = 0; l < 8; ++l) words[l] = 0;
    for (int b = 0; b < 8; ++b) {
        // Row i of the block is sample 8b + i, column l lane l.
        std::uint64_t x = 0;
        for (int i = 0; i < 8; ++i) x |= std::uint64_t{bytes[8 * b + i]} << (8 * i);
        std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
        x ^= t ^ (t << 7);
        t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
        x ^= t ^ (t << 14);
        t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
        x ^= t ^ (t << 28);
        for (int l = 0; l < 8; ++l) words[l] |= ((x >> (8 * l)) & 0xFF) << (8 * b);
    }
}

/// transpose_lanes_portable(), bit for bit. On x86 (both SIMD backends
/// have AVX2) a 16-bit shift by 7 - l moves bit l of every byte to its
/// top bit, and one movemask per 32 bytes gathers those bits.
[[gnu::always_inline]] inline void transpose_lanes(const std::uint8_t* bytes,
                                                   std::uint64_t* words) noexcept {
#if defined(FXG_SIMD_AVX512) || defined(FXG_SIMD_AVX2)
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes));
    const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + 32));
#pragma GCC unroll 8
    for (int l = 0; l < 8; ++l) {
        const auto low = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(lo, 7 - l)));
        const auto high = static_cast<std::uint32_t>(
            _mm256_movemask_epi8(_mm256_slli_epi16(hi, 7 - l)));
        words[l] = std::uint64_t{low} | (std::uint64_t{high} << 32);
    }
#else
    transpose_lanes_portable(bytes, words);
#endif
}

}  // namespace fxg::util::bits
