#pragma once

/// \file rng.hpp
/// Deterministic random number generation for noise injection.
/// All stochastic experiments take an explicit seed so every bench run
/// is reproducible.
///
/// The engine is counter-based (Salmon et al., "Parallel Random
/// Numbers: As Easy as 1, 2, 3", SC'11): draw i under key k is the pure
/// function splitmix64(k, i). A stream's whole state is therefore its
/// (key, counter) pair, and any draw can be computed without stepping
/// through the ones before it — which is what lets the lane engine draw
/// many members' pickup noise at once (sim/lane_engine.cpp).

#include <cstdint>
#include <limits>
#include <random>

#include "util/simd.hpp"

namespace fxg::util {

/// splitmix64's golden-ratio increment.
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9E3779B97F4A7C15ULL;

/// The value splitmix64(key, index) mixes: key + gamma * (index + 1).
/// Consecutive indices step it by gamma, exactly mod 2^64.
[[nodiscard]] constexpr std::uint64_t splitmix64_premix(std::uint64_t key,
                                                        std::uint64_t index) noexcept {
    return key + kSplitmix64Gamma * (index + 1);
}

/// splitmix64's finaliser.
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// splitmix64_mix on every lane: the same integer operations, so each
/// lane equals the scalar finaliser of its value.
[[nodiscard]] inline simd::ivec splitmix64_mix(simd::ivec z) noexcept {
    namespace v = simd;
    z = v::i_mul(v::i_xor(z, v::i_srl<30>(z)),
                 v::i_splat(static_cast<std::int64_t>(0xBF58476D1CE4E5B9ULL)));
    z = v::i_mul(v::i_xor(z, v::i_srl<27>(z)),
                 v::i_splat(static_cast<std::int64_t>(0x94D049BB133111EBULL)));
    return v::i_xor(z, v::i_srl<31>(z));
}

/// splitmix64 (Steele, Lea and Flood, OOPSLA 2014) as a keyed hash: its
/// finaliser applied to key + golden-ratio * (index + 1). Nearby (key,
/// index) pairs map to unrelated outputs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t key,
                                                 std::uint64_t index) noexcept {
    return splitmix64_mix(splitmix64_premix(key, index));
}

/// Counter-based engine: the next draw is splitmix64(key(), counter()).
/// Models UniformRandomBitGenerator, so the std distributions accept it.
class CounterEngine {
public:
    using result_type = std::uint64_t;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    explicit CounterEngine(std::uint64_t key = 0) noexcept : key_(key) {}

    /// Sets the key and rewinds the stream to its first draw.
    void seed(std::uint64_t key) noexcept {
        key_ = key;
        counter_ = 0;
    }

    result_type operator()() noexcept { return splitmix64(key_, counter_++); }

    /// Skips `n` draws in O(1).
    void discard(std::uint64_t n) noexcept { counter_ += n; }

    [[nodiscard]] std::uint64_t key() const noexcept { return key_; }
    /// Draws taken since the last seed().
    [[nodiscard]] std::uint64_t counter() const noexcept { return counter_; }

private:
    std::uint64_t key_ = 0;
    std::uint64_t counter_ = 0;
};

/// Seedable RNG wrapper with the distributions the models need.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x5eed'c0de'f1ab'ca7eULL) : engine_(seed) {}

    /// Gaussian sample with the given mean and standard deviation (one
    /// draw through simd::gauss1, the transform the noise models use).
    double gaussian(double mean, double stddev) {
        return mean + stddev * simd::gauss1(engine_());
    }

    /// Uniform sample in [lo, hi).
    double uniform(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /// Uniform integer in [lo, hi] (inclusive).
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /// Bernoulli trial with probability p of returning true.
    bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }

    /// Access to the raw engine for std distributions not wrapped here.
    CounterEngine& engine() noexcept { return engine_; }
    [[nodiscard]] const CounterEngine& engine() const noexcept { return engine_; }

private:
    CounterEngine engine_;
};

}  // namespace fxg::util
