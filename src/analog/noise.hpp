#pragma once

/// \file noise.hpp
/// Gaussian noise injection for analogue non-ideality studies (ABL3).

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace fxg::analog {

/// Additive white Gaussian noise source with deterministic seeding.
class NoiseSource {
public:
    /// \param stddev RMS noise amplitude (same unit as the signal it is
    ///        added to).
    explicit NoiseSource(double stddev = 0.0, std::uint64_t seed = 1)
        : stddev_(stddev), rng_(seed) {}

    /// One noise sample: one draw of the counter-based stream through
    /// util::simd::gauss1, which the lane engine's vgauss matches lane
    /// for lane.
    double sample() { return util::simd::gauss1(rng_.engine()()) * stddev_; }

    /// The private RNG stream (snapshot seam: its key and counter are
    /// the stream's exact position).
    [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
    [[nodiscard]] const util::Rng& rng() const noexcept { return rng_; }

private:
    double stddev_;
    util::Rng rng_;
};

}  // namespace fxg::analog
