#pragma once

/// \file noise.hpp
/// Gaussian noise injection for analogue non-ideality studies (ABL3).

#include "util/rng.hpp"

namespace fxg::analog {

/// Additive white Gaussian noise source with deterministic seeding.
class NoiseSource {
public:
    /// \param stddev RMS noise amplitude (same unit as the signal it is
    ///        added to); 0 disables the source entirely.
    explicit NoiseSource(double stddev = 0.0, std::uint64_t seed = 1)
        : stddev_(stddev), rng_(seed) {}

    /// One noise sample.
    double sample() { return stddev_ == 0.0 ? 0.0 : rng_.gaussian(0.0, stddev_); }

    /// The private RNG stream (snapshot seam: suspending a pipeline has
    /// to carry every noise stream's exact position).
    [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
    [[nodiscard]] const util::Rng& rng() const noexcept { return rng_; }

private:
    double stddev_;
    util::Rng rng_;
};

}  // namespace fxg::analog
