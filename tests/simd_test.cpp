// Tests for util/simd.hpp: the active backend must agree bit-for-bit
// with the always-compiled scalar fallback on every operation, and the
// array helpers must be exact across width-boundary remainder tails.
// vgauss is also checked against libm and for normal moments.
// These identities are what the lane engine's parity contract
// (DESIGN.md section 12) is built on.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <vector>

#include "util/rng.hpp"

namespace simd = fxg::util::simd;
using Ref = simd::detail::ScalarBackend;
using Act = simd::detail::Active;

namespace {

// Deterministic doubles spanning magnitudes, signs, and exact values
// the engines actually produce (integers, halves, tiny, huge).
std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> frac(-1.0, 1.0);
    std::uniform_int_distribution<int> exp10(-12, 12);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (i % 8) {
            case 0: v[i] = frac(rng); break;
            case 1: v[i] = frac(rng) * std::pow(10.0, exp10(rng)); break;
            case 2: v[i] = double(std::int64_t(rng() % 4096)) - 2048.0; break;
            case 3: v[i] = 0.5 * double(std::int64_t(rng() % 64)); break;
            case 4: v[i] = frac(rng) * 1e-300; break;
            case 5: v[i] = frac(rng) * 1e300; break;
            case 6: v[i] = (i % 16 == 6) ? 0.0 : -0.0; break;
            default: v[i] = frac(rng) * 40.0; break;
        }
    }
    return v;
}

std::vector<std::int64_t> random_int64s(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::int64_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (i % 4) {
            case 0: v[i] = std::int64_t(rng()); break;
            case 1: v[i] = std::int64_t(rng() % 4096) - 2048; break;
            case 2: v[i] = std::numeric_limits<std::int64_t>::max() - std::int64_t(rng() % 8); break;
            default: v[i] = std::numeric_limits<std::int64_t>::min() + std::int64_t(rng() % 8); break;
        }
    }
    return v;
}

// Loads one stripe each into the active backend and the reference
// fallback, applies `op`, and compares the stored lanes bitwise.
template <class ActOp, class RefOp>
void check_binary_op(const char* name, ActOp act_op, RefOp ref_op) {
    const auto a = random_doubles(256, 0xA11CE + std::hash<std::string>{}(name));
    const auto b = random_doubles(256, 0xB0B + std::hash<std::string>{}(name));
    for (std::size_t i = 0; i + simd::kLanes <= a.size(); i += simd::kLanes) {
        double out_act[simd::kLanes];
        double out_ref[Ref::kLanes];
        Act::store(out_act, act_op(Act::load(a.data() + i), Act::load(b.data() + i)));
        Ref::store(out_ref, ref_op(Ref::load(a.data() + i), Ref::load(b.data() + i)));
        for (int l = 0; l < simd::kLanes; ++l) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(out_act[l]),
                      std::bit_cast<std::uint64_t>(out_ref[l]))
                << name << " lane " << l << " a=" << a[i + l] << " b=" << b[i + l];
        }
    }
}

}  // namespace

TEST(Simd, WidthIsPositiveAndNamed) {
    EXPECT_GE(simd::kLanes, 2);
    EXPECT_LE(simd::kLanes, 8);
    EXPECT_STRNE(simd::backend_name(), "");
#if defined(FXG_SIMD_DISABLE)
    EXPECT_STREQ(simd::backend_name(), "scalar");
#endif
}

TEST(Simd, ArithmeticMatchesScalarFallbackBitwise) {
    check_binary_op("add", [](auto a, auto b) { return Act::add(a, b); },
                    [](auto a, auto b) { return Ref::add(a, b); });
    check_binary_op("sub", [](auto a, auto b) { return Act::sub(a, b); },
                    [](auto a, auto b) { return Ref::sub(a, b); });
    check_binary_op("mul", [](auto a, auto b) { return Act::mul(a, b); },
                    [](auto a, auto b) { return Ref::mul(a, b); });
    check_binary_op("div", [](auto a, auto b) { return Act::div(a, b); },
                    [](auto a, auto b) { return Ref::div(a, b); });
    check_binary_op("max", [](auto a, auto b) { return Act::max(a, b); },
                    [](auto a, auto b) { return Ref::max(a, b); });
    check_binary_op("min", [](auto a, auto b) { return Act::min(a, b); },
                    [](auto a, auto b) { return Ref::min(a, b); });
    check_binary_op("and", [](auto a, auto b) { return Act::bit_and(a, b); },
                    [](auto a, auto b) { return Ref::bit_and(a, b); });
    check_binary_op("or", [](auto a, auto b) { return Act::bit_or(a, b); },
                    [](auto a, auto b) { return Ref::bit_or(a, b); });
    check_binary_op("xor", [](auto a, auto b) { return Act::bit_xor(a, b); },
                    [](auto a, auto b) { return Ref::bit_xor(a, b); });
    check_binary_op("andnot", [](auto a, auto b) { return Act::bit_andnot(a, b); },
                    [](auto a, auto b) { return Ref::bit_andnot(a, b); });
    check_binary_op("floor", [](auto a, auto) { return Act::floor(a); },
                    [](auto a, auto) { return Ref::floor(a); });
}

TEST(Simd, FmaMatchesScalarFallbackBitwise) {
    const auto a = random_doubles(256, 1);
    const auto b = random_doubles(256, 2);
    const auto c = random_doubles(256, 3);
    for (std::size_t i = 0; i + simd::kLanes <= a.size(); i += simd::kLanes) {
        double fa[simd::kLanes], fr[simd::kLanes], na[simd::kLanes], nr[simd::kLanes];
        Act::store(fa, Act::fmadd(Act::load(a.data() + i), Act::load(b.data() + i),
                                  Act::load(c.data() + i)));
        Ref::store(fr, Ref::fmadd(Ref::load(a.data() + i), Ref::load(b.data() + i),
                                  Ref::load(c.data() + i)));
        Act::store(na, Act::fnmadd(Act::load(a.data() + i), Act::load(b.data() + i),
                                   Act::load(c.data() + i)));
        Ref::store(nr, Ref::fnmadd(Ref::load(a.data() + i), Ref::load(b.data() + i),
                                   Ref::load(c.data() + i)));
        for (int l = 0; l < simd::kLanes; ++l) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[l]), std::bit_cast<std::uint64_t>(fr[l]))
                << "fmadd lane " << l;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(na[l]), std::bit_cast<std::uint64_t>(nr[l]))
                << "fnmadd lane " << l;
        }
    }
}

TEST(Simd, CompareBlendMovemaskMatchScalarFallback) {
    const auto a = random_doubles(512, 10);
    auto b = random_doubles(512, 11);
    // Force exact ties so >= vs > actually differ on some lanes.
    for (std::size_t i = 0; i < b.size(); i += 5) b[i] = a[i];
    for (std::size_t i = 0; i + simd::kLanes <= a.size(); i += simd::kLanes) {
        const auto aa = Act::load(a.data() + i);
        const auto ab = Act::load(b.data() + i);
        const auto ra = Ref::load(a.data() + i);
        const auto rb = Ref::load(b.data() + i);
        EXPECT_EQ(Act::movemask(Act::cmp_ge(aa, ab)), Ref::movemask(Ref::cmp_ge(ra, rb)));
        EXPECT_EQ(Act::movemask(Act::cmp_gt(aa, ab)), Ref::movemask(Ref::cmp_gt(ra, rb)));

        double sel_a[simd::kLanes], sel_r[simd::kLanes];
        Act::store(sel_a, Act::blend(Act::cmp_ge(aa, ab), aa, ab));
        Ref::store(sel_r, Ref::blend(Ref::cmp_ge(ra, rb), ra, rb));
        std::int64_t m01_a[simd::kLanes], m01_r[simd::kLanes];
        Act::i_store(m01_a, Act::mask01(Act::cmp_gt(aa, ab)));
        Ref::i_store(m01_r, Ref::mask01(Ref::cmp_gt(ra, rb)));
        for (int l = 0; l < simd::kLanes; ++l) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(sel_a[l]),
                      std::bit_cast<std::uint64_t>(sel_r[l]));
            EXPECT_EQ(m01_a[l], m01_r[l]);
        }
    }
}

TEST(Simd, MaskLogicMatchesScalarFallback) {
    const auto a = random_doubles(256, 20);
    const auto b = random_doubles(256, 21);
    const auto c = random_doubles(256, 22);
    for (std::size_t i = 0; i + simd::kLanes <= a.size(); i += simd::kLanes) {
        const auto am1 = Act::cmp_gt(Act::load(a.data() + i), Act::load(b.data() + i));
        const auto am2 = Act::cmp_gt(Act::load(b.data() + i), Act::load(c.data() + i));
        const auto rm1 = Ref::cmp_gt(Ref::load(a.data() + i), Ref::load(b.data() + i));
        const auto rm2 = Ref::cmp_gt(Ref::load(b.data() + i), Ref::load(c.data() + i));
        EXPECT_EQ(Act::movemask(Act::m_and(am1, am2)), Ref::movemask(Ref::m_and(rm1, rm2)));
        EXPECT_EQ(Act::movemask(Act::m_or(am1, am2)), Ref::movemask(Ref::m_or(rm1, rm2)));
        EXPECT_EQ(Act::movemask(Act::m_xor(am1, am2)), Ref::movemask(Ref::m_xor(rm1, rm2)));
        EXPECT_EQ(Act::movemask(Act::m_andnot(am1, am2)),
                  Ref::movemask(Ref::m_andnot(rm1, rm2)));
        EXPECT_EQ(Act::movemask(Act::m_splat(true)), Ref::movemask(Ref::m_splat(true)));
        EXPECT_EQ(Act::movemask(Act::m_splat(false)), Ref::movemask(Ref::m_splat(false)));
    }
}

TEST(Simd, Int64OpsMatchScalarFallback) {
    const auto a = random_int64s(256, 30);
    const auto b = random_int64s(256, 31);
    const auto sel = random_doubles(256, 32);
    for (std::size_t i = 0; i + simd::kLanes <= a.size(); i += simd::kLanes) {
        const auto ia = Act::i_load(a.data() + i);
        const auto ib = Act::i_load(b.data() + i);
        const auto ja = Ref::i_load(a.data() + i);
        const auto jb = Ref::i_load(b.data() + i);
        const auto am = Act::cmp_gt(Act::load(sel.data() + i), Act::splat(0.0));
        const auto rm = Ref::cmp_gt(Ref::load(sel.data() + i), Ref::splat(0.0));
        std::int64_t oa[simd::kLanes], orf[simd::kLanes];
        Act::i_store(oa, Act::i_add(ia, ib));
        Ref::i_store(orf, Ref::i_add(ja, jb));
        for (int l = 0; l < simd::kLanes; ++l) EXPECT_EQ(oa[l], orf[l]) << "i_add " << l;
        Act::i_store(oa, Act::i_sub(ia, ib));
        Ref::i_store(orf, Ref::i_sub(ja, jb));
        for (int l = 0; l < simd::kLanes; ++l) EXPECT_EQ(oa[l], orf[l]) << "i_sub " << l;
        Act::i_store(oa, Act::i_blend(am, ia, ib));
        Ref::i_store(orf, Ref::i_blend(rm, ja, jb));
        for (int l = 0; l < simd::kLanes; ++l) EXPECT_EQ(oa[l], orf[l]) << "i_blend " << l;
    }
}

TEST(Simd, IntegerValuedDoubleConversionIsExact) {
    std::mt19937_64 rng(40);
    std::vector<double> vals;
    for (int i = 0; i < 256; ++i)
        vals.push_back(double(std::int64_t(rng() % (1ULL << 40))) - double(1LL << 39));
    for (double special : {0.0, -0.0, 1.0, -1.0, 2047.0, -2048.0, 4194304.0}) vals.push_back(special);
    while (vals.size() % simd::kLanes != 0) vals.push_back(0.0);
    for (std::size_t i = 0; i < vals.size(); i += simd::kLanes) {
        std::int64_t oa[simd::kLanes], orf[simd::kLanes];
        Act::i_store(oa, Act::d2i_exact(Act::load(vals.data() + i)));
        Ref::i_store(orf, Ref::d2i_exact(Ref::load(vals.data() + i)));
        for (int l = 0; l < simd::kLanes; ++l) {
            EXPECT_EQ(oa[l], std::int64_t(vals[i + l])) << "d2i value lane " << l;
            EXPECT_EQ(oa[l], orf[l]) << "d2i backend lane " << l;
        }
    }
}

TEST(Simd, ExpMatchesScalarFallbackBitwiseAndLibmClosely) {
    std::mt19937_64 rng(50);
    std::uniform_real_distribution<double> dist(-700.0, 700.0);
    std::vector<double> xs;
    for (int i = 0; i < 4096; ++i) xs.push_back(dist(rng));
    for (double special : {0.0, -0.0, 1.0, -1.0, -708.0, -745.0, 700.0, 1e-300, -1e-300})
        xs.push_back(special);
    while (xs.size() % simd::kLanes != 0) xs.push_back(0.0);
    for (std::size_t i = 0; i < xs.size(); i += simd::kLanes) {
        double oa[simd::kLanes], orf[simd::kLanes];
        Act::store(oa, simd::detail::exp_t<Act>(Act::load(xs.data() + i)));
        Ref::store(orf, simd::detail::exp_t<Ref>(Ref::load(xs.data() + i)));
        for (int l = 0; l < simd::kLanes; ++l) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(oa[l]), std::bit_cast<std::uint64_t>(orf[l]))
                << "exp backend lane " << l << " x=" << xs[i + l];
            const double x = xs[i + l];
            if (x >= -700.0) {
                const double want = std::exp(x);
                EXPECT_NEAR(oa[l], want, 4.0 * std::abs(want) * 2.220446049250313e-16)
                    << "exp accuracy x=" << x;
            }
        }
    }
}

TEST(Simd, TanhMatchesScalarFallbackBitwiseAndLibmClosely) {
    std::mt19937_64 rng(60);
    std::uniform_real_distribution<double> dist(-40.0, 40.0);
    std::vector<double> xs;
    for (int i = 0; i < 4096; ++i) xs.push_back(dist(rng));
    std::uniform_real_distribution<double> small(-1e-3, 1e-3);
    for (int i = 0; i < 512; ++i) xs.push_back(small(rng));
    const double inf = std::numeric_limits<double>::infinity();
    for (double special : {0.0, -0.0, 19.0, -19.0, 1e6, -1e6, inf, -inf}) xs.push_back(special);
    while (xs.size() % simd::kLanes != 0) xs.push_back(0.0);
    for (std::size_t i = 0; i < xs.size(); i += simd::kLanes) {
        double oa[simd::kLanes], orf[simd::kLanes];
        Act::store(oa, simd::detail::tanh_t<Act>(Act::load(xs.data() + i)));
        Ref::store(orf, simd::detail::tanh_t<Ref>(Ref::load(xs.data() + i)));
        for (int l = 0; l < simd::kLanes; ++l) {
            const double x = xs[i + l];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(oa[l]), std::bit_cast<std::uint64_t>(orf[l]))
                << "tanh backend lane " << l << " x=" << x;
            const double want = std::tanh(x);
            EXPECT_NEAR(oa[l], want, 4.0 * std::abs(want) * 2.220446049250313e-16 + 1e-300)
                << "tanh accuracy x=" << x;
            EXPECT_EQ(std::signbit(oa[l]), std::signbit(x)) << "tanh sign x=" << x;
        }
    }
}

// The remainder-tail contract: arrays of every length around the width
// boundary produce exactly what per-element tanh1/exp1 produce, and
// lanes inside full stripes equal the scalar calls too.
TEST(Simd, ArrayHelpersExactAcrossRemainderLanes) {
    for (std::size_t n = 1; n <= std::size_t(3 * simd::kLanes + 3); ++n) {
        const auto xs = random_doubles(n, 70 + n);
        std::vector<double> tanh_out(n, -999.0), exp_out(n, -999.0);
        std::vector<double> in(n);
        for (std::size_t i = 0; i < n; ++i) in[i] = std::clamp(xs[i], -30.0, 30.0);
        simd::tanh_array(in.data(), tanh_out.data(), n);
        simd::exp_array(in.data(), exp_out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(tanh_out[i]),
                      std::bit_cast<std::uint64_t>(simd::tanh1(in[i])))
                << "tanh_array n=" << n << " i=" << i;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(exp_out[i]),
                      std::bit_cast<std::uint64_t>(simd::exp1(in[i])))
                << "exp_array n=" << n << " i=" << i;
        }
    }
}

// ---------------------------------------------------------------- vgauss

namespace {

// Box–Muller through libm with vgauss's own u1/u2 mapping.
double libm_box_muller(std::uint64_t bits) {
    const double u1 = 1.0 - double(bits >> 32) * 0x1p-32;
    const double u2 = double(bits & 0xFFFFFFFFu) * 0x1p-32;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<std::uint64_t> gauss_inputs(std::size_t n) {
    std::vector<std::uint64_t> bits;
    fxg::util::CounterEngine engine(0x6A055);
    for (std::size_t i = 0; i < n; ++i) bits.push_back(engine());
    // Zero radius (hi = 0), the smallest u1 (hi = ~0) at each quadrant
    // edge of u2, and the quarter turns where the cosine fold switches.
    for (const std::uint64_t edge :
         {0x0ULL, ~0x0ULL, 0xFFFFFFFF00000000ULL, 0x00000000FFFFFFFFULL,
          0xFFFFFFFF40000000ULL, 0xFFFFFFFF80000000ULL, 0xFFFFFFFFC0000000ULL,
          0x8000000000000000ULL, 0x00000001FFFFFFFFULL}) {
        bits.push_back(edge);
    }
    while (bits.size() % simd::kLanes != 0) bits.push_back(0);
    return bits;
}

}  // namespace

// The lane engine draws noise through vgauss, the scalar engines through
// gauss1: the active backend, the scalar fallback and lane 0 must agree
// bit for bit on every input.
TEST(Simd, GaussMatchesScalarFallbackBitwise) {
    const std::vector<std::uint64_t> bits = gauss_inputs(8192);
    for (std::size_t i = 0; i < bits.size(); i += simd::kLanes) {
        std::int64_t in[simd::kLanes];
        for (int l = 0; l < simd::kLanes; ++l) in[l] = std::int64_t(bits[i + l]);
        double oa[simd::kLanes];
        Act::store(oa, simd::detail::gauss_t<Act>(Act::i_load(in)));
        for (int l = 0; l < simd::kLanes; ++l) {
            const double ref =
                Ref::first(simd::detail::gauss_t<Ref>(Ref::i_splat(in[l])));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(oa[l]), std::bit_cast<std::uint64_t>(ref))
                << "gauss backend bits=" << std::hex << bits[i + l];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(oa[l]),
                      std::bit_cast<std::uint64_t>(simd::gauss1(bits[i + l])))
                << "gauss1 bits=" << std::hex << bits[i + l];
        }
    }
    EXPECT_EQ(simd::gauss1(0), 0.0);
    EXPECT_EQ(simd::gauss1(0x00000000FFFFFFFFULL), 0.0);
    // Smallest u1, u2 = 0: the largest deviate, sqrt(64 ln 2).
    EXPECT_NEAR(simd::gauss1(0xFFFFFFFF00000000ULL), std::sqrt(64.0 * std::log(2.0)), 1e-12);
}

TEST(Simd, GaussAgreesWithLibmBoxMuller) {
    const std::vector<std::uint64_t> bits = gauss_inputs(1 << 20);
    double worst = 0.0;
    for (const std::uint64_t b : bits) {
        worst = std::max(worst, std::abs(simd::gauss1(b) - libm_box_muller(b)));
    }
    EXPECT_LE(worst, 1e-10);
}

// Distribution quality over 2e6 draws of one counter-based stream.
// Standard errors: mean 7e-4, variance 1e-3, kurtosis 3.5e-3, tail
// count about 2%.
TEST(Simd, GaussMomentsAndTailsAreNormal) {
    constexpr int kDraws = 2'000'000;
    fxg::util::CounterEngine engine(20071017);
    double s1 = 0.0, s2 = 0.0, s4 = 0.0;
    int beyond3 = 0;
    for (int i = 0; i < kDraws; ++i) {
        const double z = simd::gauss1(engine());
        s1 += z;
        s2 += z * z;
        s4 += z * z * z * z;
        if (std::abs(z) > 3.0) ++beyond3;
    }
    const double n = kDraws;
    const double mean = s1 / n;
    const double var = s2 / n - mean * mean;
    const double kurtosis = (s4 / n) / (var * var);
    EXPECT_LT(std::abs(mean), 5e-3);
    EXPECT_LT(std::abs(var - 1.0), 5e-3);
    EXPECT_NEAR(kurtosis, 3.0, 0.05);
    const double p3 = beyond3 / n;
    EXPECT_NEAR(p3, 2.70e-3, 0.1 * 2.70e-3);
}
