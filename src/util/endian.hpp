#pragma once

/// \file endian.hpp
/// The one little-endian codec of every byte format the project writes
/// (.fxgsnap containers, FXGRPLY1 replay logs, compassd frames): an
/// unsigned word stored and loaded least significant byte first, so the
/// layout is the same on every host.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fxg::util {

/// Writes `v` to p[0 .. sizeof v), least significant byte first.
template <std::unsigned_integral T>
constexpr void store_le(std::uint8_t* p, T v) noexcept {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/// Reads back a word written by store_le.
template <std::unsigned_integral T>
[[nodiscard]] constexpr T load_le(const std::uint8_t* p) noexcept {
    T v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) v = static_cast<T>((v << 8) | p[i]);
    return v;
}

/// Appends `v` to `out` as store_le lays it out.
template <std::unsigned_integral T>
void append_le(std::vector<std::uint8_t>& out, T v) {
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    store_le(out.data() + at, v);
}

}  // namespace fxg::util
