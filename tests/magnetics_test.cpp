// Tests for the magnetics module: unit conversions, the three core
// magnetisation models (including Jiles-Atherton hysteresis properties)
// and the earth-field geometry used by every compass experiment.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "magnetics/core_model.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "util/angle.hpp"
#include "util/simd.hpp"

namespace fxg::magnetics {
namespace {

// ----------------------------------------------------------------- units

TEST(Units, OerstedRoundTrip) {
    EXPECT_NEAR(oersted_to_a_per_m(1.0), 79.577, 1e-3);
    EXPECT_NEAR(a_per_m_to_oersted(oersted_to_a_per_m(2.5)), 2.5, 1e-12);
}

TEST(Units, TeslaFieldEquivalence) {
    // 50 uT earth field corresponds to ~39.8 A/m.
    EXPECT_NEAR(tesla_to_a_per_m(microtesla(50.0)), 39.789, 1e-3);
    EXPECT_NEAR(a_per_m_to_tesla(tesla_to_a_per_m(1e-4)), 1e-4, 1e-18);
    EXPECT_DOUBLE_EQ(gauss_to_tesla(1.0), 1e-4);
}

// ------------------------------------------------------------- TanhCore

TEST(TanhCore, SaturatesAtMs) {
    TanhCore core(8e5, 40.0);
    EXPECT_NEAR(core.advance(1e6), 8e5, 1.0);
    EXPECT_NEAR(core.advance(-1e6), -8e5, 1.0);
    EXPECT_DOUBLE_EQ(core.advance(0.0), 0.0);
}

TEST(TanhCore, KneeDefinition) {
    TanhCore core(1.0, 10.0);
    // M(Hk) = Ms tanh(1) ~ 0.7616 Ms.
    EXPECT_NEAR(core.advance(10.0), std::tanh(1.0), 1e-12);
    EXPECT_DOUBLE_EQ(core.knee_field(), 10.0);
}

TEST(TanhCore, SusceptibilityPeaksAtZero) {
    TanhCore core(8e5, 40.0);
    core.advance(0.0);
    const double chi0 = core.susceptibility();
    EXPECT_NEAR(chi0, 8e5 / 40.0, 1e-6);
    core.advance(200.0);  // deep saturation
    EXPECT_LT(core.susceptibility(), chi0 * 1e-3);
}

TEST(TanhCore, BlockPathMatchesScalarAdvanceBitForBit) {
    // advance_block evaluates tanh in util::simd stripes with a scalar
    // tail; for every block length from one sample to two stripes plus
    // one, each output (and the state left behind) must equal n
    // advance() calls bit for bit — signed zeros, the linear region,
    // the knee and |h/hk| >= 19, where vtanh saturates to exactly 1.
    constexpr double kHk = 40.0;
    const std::vector<double> fields = {
        0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9,             // zero, tiny
        3.7, -11.25, 0.5 * kHk, kHk, -kHk, -2.0 * kHk,       // linear, knee
        19.0 * kHk, -19.0 * kHk, 25.0 * kHk, 760.5, -1e6, 1e6};  // saturated
    TanhCore core(8e5, kHk, -2e-3, 3e-3, 25.0);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const auto check_all_lengths = [&](const TanhCore& proto) {
        for (int n = 1; n <= 2 * util::simd::kLanes + 1; ++n) {
            // Rotate the pattern so every field lands in every stripe
            // lane and in the tail.
            for (std::size_t shift = 0; shift < fields.size(); ++shift) {
                std::vector<double> h(static_cast<std::size_t>(n));
                for (std::size_t k = 0; k < h.size(); ++k) {
                    h[k] = fields[(k + shift) % fields.size()];
                }
                TanhCore block = proto;
                TanhCore scalar = proto;
                std::vector<double> m(h.size());
                block.advance_block(h.data(), m.data(), n);
                for (std::size_t k = 0; k < h.size(); ++k) {
                    ASSERT_EQ(bits(m[k]), bits(scalar.advance(h[k])))
                        << "n " << n << " sample " << k << " h " << h[k];
                }
                ASSERT_EQ(bits(block.susceptibility()), bits(scalar.susceptibility()))
                    << "n " << n;
                ASSERT_EQ(block.save_state(), scalar.save_state());
            }
        }
    };
    check_all_lengths(core);
    core.set_temperature(80.0);  // Ms and Hk both move
    ASSERT_NE(core.knee_field(), kHk);
    check_all_lengths(core);
}

TEST(TanhCore, RejectsBadParams) {
    EXPECT_THROW(TanhCore(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(TanhCore(1.0, -1.0), std::invalid_argument);
}

// --------------------------------------------------------- LangevinCore

TEST(LangevinCore, SmallFieldSlope) {
    LangevinCore core(3e5, 30.0);
    // L(x) ~ x/3 for small x -> chi(0) = Ms/(3a).
    core.advance(0.0);
    EXPECT_NEAR(core.susceptibility(), 3e5 / (3.0 * 30.0), 1.0);
}

TEST(LangevinCore, OddSymmetry) {
    LangevinCore core(3e5, 30.0);
    const double p = core.advance(45.0);
    const double n = core.advance(-45.0);
    EXPECT_NEAR(p, -n, 1e-6);
}

// ------------------------------------------------------- Jiles-Atherton

TEST(JilesAtherton, ExhibitsHysteresis) {
    JilesAthertonCore core{JilesAthertonParams{}};
    const JilesAthertonParams& p = core.params();
    // Drive one full major loop, then compare M at H=0 on the two
    // branches: remanence must be nonzero and of opposite sign.
    const double h_max = 10.0 * p.a;
    const int steps = 400;
    // Initial magnetisation ramp.
    for (int i = 0; i <= steps; ++i) core.advance(h_max * i / steps);
    // Down branch to zero.
    for (int i = steps; i >= 0; --i) core.advance(h_max * i / steps);
    const double m_rem_down = core.advance(0.0);
    // Continue to -h_max and back up to 0.
    for (int i = 0; i <= steps; ++i) core.advance(-h_max * i / steps);
    for (int i = steps; i >= 0; --i) core.advance(-h_max * i / steps);
    const double m_rem_up = core.advance(0.0);
    EXPECT_GT(m_rem_down, 0.01 * p.ms);
    EXPECT_LT(m_rem_up, -0.01 * p.ms);
}

TEST(JilesAtherton, StaysBounded) {
    JilesAthertonCore core{JilesAthertonParams{}};
    for (int i = 0; i < 2000; ++i) {
        const double h = 500.0 * std::sin(i * 0.05);
        const double m = core.advance(h);
        EXPECT_LE(std::fabs(m), core.params().ms * (1.0 + 1e-9));
    }
}

TEST(JilesAtherton, ResetClearsHistory) {
    JilesAthertonCore core{JilesAthertonParams{}};
    for (int i = 0; i <= 100; ++i) core.advance(3.0 * i);
    core.reset();
    EXPECT_DOUBLE_EQ(core.advance(0.0), 0.0);
}

TEST(JilesAtherton, ValidatesParams) {
    JilesAthertonParams p;
    p.c = 1.5;
    EXPECT_THROW(JilesAthertonCore{p}, std::invalid_argument);
    p = {};
    p.k = 0.0;
    EXPECT_THROW(JilesAthertonCore{p}, std::invalid_argument);
}

// Clone must deep-copy state for every model (the SPICE fluxgate device
// relies on this during Newton iterations).
TEST(CoreModels, CloneIsIndependent) {
    JilesAthertonCore core{JilesAthertonParams{}};
    for (int i = 0; i <= 100; ++i) core.advance(2.0 * i);
    const auto clone = core.clone();
    const double m_before = core.advance(200.0);
    clone->advance(-500.0);  // perturb the clone only
    EXPECT_DOUBLE_EQ(core.advance(200.0), m_before);
}

// ------------------------------------------------------------ EarthField

TEST(EarthField, HorizontalComponent) {
    const EarthField field(microtesla(48.0), 60.0);
    EXPECT_NEAR(field.horizontal_tesla(), microtesla(24.0), 1e-9);
    EXPECT_NEAR(field.horizontal_a_per_m(), tesla_to_a_per_m(microtesla(24.0)), 1e-9);
}

TEST(EarthField, HeadingGeometryRoundTrip) {
    const EarthField field(microtesla(50.0), 0.0);
    for (double heading = 0.0; heading < 360.0; heading += 7.5) {
        const HorizontalField h = field.at_heading(heading);
        const double recovered =
            EarthField::heading_from_components(h.hx_a_per_m, h.hy_a_per_m);
        EXPECT_NEAR(util::angular_abs_diff_deg(recovered, heading), 0.0, 1e-9)
            << "heading " << heading;
    }
}

TEST(EarthField, CardinalDirections) {
    const EarthField field(microtesla(50.0), 0.0);
    const double hh = field.horizontal_a_per_m();
    // North: x axis aligned with the field.
    auto h = field.at_heading(0.0);
    EXPECT_NEAR(h.hx_a_per_m, hh, 1e-9);
    EXPECT_NEAR(h.hy_a_per_m, 0.0, 1e-9);
    // East: field appears along -y (y is 90 deg clockwise of x).
    h = field.at_heading(90.0);
    EXPECT_NEAR(h.hx_a_per_m, 0.0, 1e-9);
    EXPECT_NEAR(h.hy_a_per_m, -hh, 1e-9);
}

TEST(EarthField, MagnitudeDropsOutOfHeading) {
    // The arctan of the ratio is magnitude-independent (paper sec. 4).
    const EarthField weak(microtesla(25.0), 0.0);
    const EarthField strong(microtesla(65.0), 0.0);
    const auto hw = weak.at_heading(213.0);
    const auto hs = strong.at_heading(213.0);
    EXPECT_NEAR(EarthField::heading_from_components(hw.hx_a_per_m, hw.hy_a_per_m),
                EarthField::heading_from_components(hs.hx_a_per_m, hs.hy_a_per_m),
                1e-9);
}

TEST(EarthField, PaperSites) {
    const auto sites = paper_sites();
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_NEAR(sites.front().magnitude_tesla, microtesla(25.0), 1e-12);
    EXPECT_NEAR(sites.back().magnitude_tesla, microtesla(65.0), 1e-12);
}

TEST(EarthField, Validates) {
    EXPECT_THROW(EarthField(0.0), std::invalid_argument);
    EXPECT_THROW(EarthField(1e-5, 91.0), std::invalid_argument);
}

}  // namespace
}  // namespace fxg::magnetics
