// Tests for util/simd.hpp: every lane of the active backend must agree
// bit-for-bit with the always-compiled scalar fallback on every
// operation, whatever the active width (8 lanes on AVX-512, 4 on AVX2,
// 2 on NEON). vtanh and vgauss are also checked against libm, and
// vgauss for normal moments. These identities are what the lane
// engine's parity contract (DESIGN.md section 12) is built on.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "sim/lane_engine.hpp"
#include "util/rng.hpp"

namespace simd = fxg::util::simd;
using Ref = simd::detail::ScalarBackend;
using Act = simd::detail::Active;

namespace {

/// Input lengths are multiples of both backends' widths, so each
/// backend sweeps every element in whole stripes of its own width.
constexpr std::size_t kStride = std::lcm(simd::kLanes, Ref::kLanes);

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

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint64_t bits_of(std::int64_t x) { return std::uint64_t(x); }

/// Runs `stripe(B{}, out + i, i)` for the active backend and for the
/// scalar fallback, each at every offset i of its own stripes over n
/// elements; `stripe` stores B's lanes [i, i + B::kLanes) at out + i.
/// Expects the two outputs to agree bit for bit and returns the active
/// backend's.
template <class T, class Stripe>
std::vector<T> expect_backends_agree(const std::string& what, std::size_t n, Stripe stripe) {
    EXPECT_EQ(n % kStride, 0u) << what;
    std::vector<T> act(n), ref(n);
    for (std::size_t i = 0; i + Act::kLanes <= n; i += Act::kLanes) stripe(Act{}, act.data() + i, i);
    for (std::size_t i = 0; i + Ref::kLanes <= n; i += Ref::kLanes) stripe(Ref{}, ref.data() + i, i);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(bits_of(act[k]), bits_of(ref[k])) << what << " element " << k;
    }
    return act;
}

// `op(B{}, x, y)` applies backend B's operation to one stripe of each
// input.
template <class Op>
void check_binary_op(const std::string& name, Op op) {
    const auto a = random_doubles(256, 0xA11CE + std::hash<std::string>{}(name));
    const auto b = random_doubles(256, 0xB0B + std::hash<std::string>{}(name));
    expect_backends_agree<double>(name, a.size(), [&](auto be, double* out, std::size_t i) {
        using B = decltype(be);
        B::store(out, op(be, B::load(a.data() + i), B::load(b.data() + i)));
    });
}

// `op(B{}, i)` is backend B's mask for the stripe at offset i; its
// movemask bits and its mask01 lanes must match the fallback's.
template <class Op>
void check_mask_op(const std::string& name, std::size_t n, Op op) {
    expect_backends_agree<std::int64_t>(
        name + " movemask", n, [&](auto be, std::int64_t* out, std::size_t i) {
            const unsigned bits = decltype(be)::movemask(op(be, i));
            for (int l = 0; l < decltype(be)::kLanes; ++l) out[l] = (bits >> l) & 1u;
        });
    expect_backends_agree<std::int64_t>(
        name + " mask01", n, [&](auto be, std::int64_t* out, std::size_t i) {
            decltype(be)::i_store(out, decltype(be)::mask01(op(be, i)));
        });
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

// simd.hpp's vector types and kLanes follow the compile flags, which
// fxg_util hands to every consumer as PUBLIC options. A consumer built
// without them sees another backend than the libraries it links: an
// ODR violation the compiler and linker accept. This translation unit
// compares its own view with the one compiled into fxg_sim.
TEST(Simd, ConsumerSeesTheBackendItsLibrariesWereBuiltFor) {
    EXPECT_EQ(fxg::sim::LaneEngine::lanes_per_stripe(), simd::kLanes);
    EXPECT_STREQ(fxg::sim::LaneEngine::backend_name(), simd::backend_name());
}

TEST(Simd, ArithmeticMatchesScalarFallbackBitwise) {
    check_binary_op("add", [](auto be, auto a, auto b) { return decltype(be)::add(a, b); });
    check_binary_op("sub", [](auto be, auto a, auto b) { return decltype(be)::sub(a, b); });
    check_binary_op("mul", [](auto be, auto a, auto b) { return decltype(be)::mul(a, b); });
    check_binary_op("div", [](auto be, auto a, auto b) { return decltype(be)::div(a, b); });
    check_binary_op("max", [](auto be, auto a, auto b) { return decltype(be)::max(a, b); });
    check_binary_op("min", [](auto be, auto a, auto b) { return decltype(be)::min(a, b); });
    check_binary_op("and", [](auto be, auto a, auto b) { return decltype(be)::bit_and(a, b); });
    check_binary_op("or", [](auto be, auto a, auto b) { return decltype(be)::bit_or(a, b); });
    check_binary_op("xor", [](auto be, auto a, auto b) { return decltype(be)::bit_xor(a, b); });
    check_binary_op("andnot",
                    [](auto be, auto a, auto b) { return decltype(be)::bit_andnot(a, b); });
    check_binary_op("floor", [](auto be, auto a, auto) { return decltype(be)::floor(a); });
    check_binary_op("sqrt", [](auto be, auto a, auto) {
        using B = decltype(be);
        return B::sqrt(B::bit_andnot(B::splat(-0.0), a));
    });
}

TEST(Simd, FmaMatchesScalarFallbackBitwise) {
    const auto a = random_doubles(256, 1);
    const auto b = random_doubles(256, 2);
    const auto c = random_doubles(256, 3);
    for (const bool negated : {false, true}) {
        expect_backends_agree<double>(
            negated ? "fnmadd" : "fmadd", a.size(), [&](auto be, double* out, std::size_t i) {
                using B = decltype(be);
                const auto x = B::load(a.data() + i);
                const auto y = B::load(b.data() + i);
                const auto z = B::load(c.data() + i);
                B::store(out, negated ? B::fnmadd(x, y, z) : B::fmadd(x, y, z));
            });
    }
}

TEST(Simd, CompareBlendMovemaskMatchScalarFallback) {
    const auto a = random_doubles(512, 10);
    auto b = random_doubles(512, 11);
    // Force exact ties so >= vs > actually differ on some lanes.
    for (std::size_t i = 0; i < b.size(); i += 5) b[i] = a[i];
    check_mask_op("cmp_ge", a.size(), [&](auto be, std::size_t i) {
        using B = decltype(be);
        return B::cmp_ge(B::load(a.data() + i), B::load(b.data() + i));
    });
    check_mask_op("cmp_gt", a.size(), [&](auto be, std::size_t i) {
        using B = decltype(be);
        return B::cmp_gt(B::load(a.data() + i), B::load(b.data() + i));
    });
    expect_backends_agree<double>("blend", a.size(), [&](auto be, double* out, std::size_t i) {
        using B = decltype(be);
        const auto x = B::load(a.data() + i);
        const auto y = B::load(b.data() + i);
        B::store(out, B::blend(B::cmp_ge(x, y), x, y));
    });
}

TEST(Simd, MaskLogicMatchesScalarFallback) {
    const auto a = random_doubles(256, 20);
    const auto b = random_doubles(256, 21);
    const auto c = random_doubles(256, 22);
    // `op(B{}, m1, m2)` combines m1 = a > b and m2 = b > c.
    const auto check = [&](const char* name, auto op) {
        check_mask_op(name, a.size(), [&](auto be, std::size_t i) {
            using B = decltype(be);
            return op(be, B::cmp_gt(B::load(a.data() + i), B::load(b.data() + i)),
                      B::cmp_gt(B::load(b.data() + i), B::load(c.data() + i)));
        });
    };
    check("m_and", [](auto be, auto x, auto y) { return decltype(be)::m_and(x, y); });
    check("m_or", [](auto be, auto x, auto y) { return decltype(be)::m_or(x, y); });
    check("m_xor", [](auto be, auto x, auto y) { return decltype(be)::m_xor(x, y); });
    check("m_andnot", [](auto be, auto x, auto y) { return decltype(be)::m_andnot(x, y); });
    check("m_splat(true)", [](auto be, auto, auto) { return decltype(be)::m_splat(true); });
    check("m_splat(false)", [](auto be, auto, auto) { return decltype(be)::m_splat(false); });
}

TEST(Simd, Int64OpsMatchScalarFallback) {
    const auto a = random_int64s(256, 30);
    const auto b = random_int64s(256, 31);
    const auto sel = random_doubles(256, 32);
    // `op(B{}, x, y, m)` with m = sel > 0.
    const auto check = [&](const char* name, auto op) {
        expect_backends_agree<std::int64_t>(name, a.size(), [&](auto be, std::int64_t* out,
                                                                std::size_t i) {
            using B = decltype(be);
            const auto m = B::cmp_gt(B::load(sel.data() + i), B::splat(0.0));
            B::i_store(out, op(be, B::i_load(a.data() + i), B::i_load(b.data() + i), m));
        });
    };
    check("i_add", [](auto be, auto x, auto y, auto) { return decltype(be)::i_add(x, y); });
    check("i_sub", [](auto be, auto x, auto y, auto) { return decltype(be)::i_sub(x, y); });
    check("i_blend",
          [](auto be, auto x, auto y, auto m) { return decltype(be)::i_blend(m, x, y); });
    check("i_and", [](auto be, auto x, auto y, auto) { return decltype(be)::i_and(x, y); });
    check("i_or", [](auto be, auto x, auto y, auto) { return decltype(be)::i_or(x, y); });
    check("i_srl<32>",
          [](auto be, auto x, auto, auto) { return decltype(be)::template i_srl<32>(x); });
}

TEST(Simd, IntegerValuedDoubleConversionIsExact) {
    std::mt19937_64 rng(40);
    std::vector<double> vals;
    for (int i = 0; i < 256; ++i)
        vals.push_back(double(std::int64_t(rng() % (1ULL << 40))) - double(1LL << 39));
    for (double special : {0.0, -0.0, 1.0, -1.0, 2047.0, -2048.0, 4194304.0}) vals.push_back(special);
    while (vals.size() % kStride != 0) vals.push_back(0.0);
    const std::vector<std::int64_t> act = expect_backends_agree<std::int64_t>(
        "d2i_exact", vals.size(), [&](auto be, std::int64_t* out, std::size_t i) {
            using B = decltype(be);
            B::i_store(out, B::d2i_exact(B::load(vals.data() + i)));
        });
    for (std::size_t k = 0; k < vals.size(); ++k) {
        EXPECT_EQ(act[k], std::int64_t(vals[k])) << "d2i value element " << k;
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
    while (xs.size() % kStride != 0) xs.push_back(0.0);
    const std::vector<double> act = expect_backends_agree<double>(
        "tanh", xs.size(), [&](auto be, double* out, std::size_t i) {
            using B = decltype(be);
            B::store(out, simd::detail::tanh_t<B>(B::load(xs.data() + i)));
        });
    for (std::size_t k = 0; k < xs.size(); ++k) {
        const double x = xs[k];
        const double want = std::tanh(x);
        EXPECT_NEAR(act[k], want, 4.0 * std::abs(want) * 2.220446049250313e-16 + 1e-300)
            << "tanh accuracy x=" << x;
        EXPECT_EQ(std::signbit(act[k]), std::signbit(x)) << "tanh sign x=" << x;
        EXPECT_EQ(bits_of(act[k]), bits_of(simd::tanh1(x))) << "tanh1 x=" << x;
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
    while (bits.size() % kStride != 0) bits.push_back(0);
    return bits;
}

}  // namespace

// The lane engine draws noise through vgauss, the scalar engines through
// gauss1: the active backend, the scalar fallback and lane 0 must agree
// bit for bit on every input.
TEST(Simd, GaussMatchesScalarFallbackBitwise) {
    const std::vector<std::uint64_t> bits = gauss_inputs(8192);
    const std::vector<std::int64_t> in(bits.begin(), bits.end());
    const std::vector<double> act = expect_backends_agree<double>(
        "gauss", in.size(), [&](auto be, double* out, std::size_t i) {
            using B = decltype(be);
            B::store(out, simd::detail::gauss_t<B>(B::i_load(in.data() + i)));
        });
    for (std::size_t k = 0; k < bits.size(); ++k) {
        EXPECT_EQ(bits_of(act[k]), bits_of(simd::gauss1(bits[k])))
            << "gauss1 bits=" << std::hex << bits[k];
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
