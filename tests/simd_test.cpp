// Tests for util/simd.hpp: every lane of the active backend must agree
// bit-for-bit with the always-compiled scalar fallback on every
// operation, whatever the active width (8 lanes on AVX-512, 4 on
// AVX2). vtanh and vgauss are also checked against libm, and
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
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/lane_engine.hpp"
#include "util/rng.hpp"

namespace simd = fxg::util::simd;
using Ref = simd::detail::ScalarBackend;
using Act = simd::detail::Active;
using Nar = simd::Narrow;

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

/// Runs `stripe(B{}, out + i, i)` for the active backend, the narrow
/// one (where it differs) and the scalar fallback, each at every offset
/// i of its own stripes over n elements; `stripe` stores B's lanes
/// [i, i + B::kLanes) at out + i. Expects the outputs to agree bit for
/// bit and returns the active backend's.
template <class T, class Stripe>
std::vector<T> expect_backends_agree(const std::string& what, std::size_t n, Stripe stripe) {
    EXPECT_EQ(n % kStride, 0u) << what;
    std::vector<T> act(n), ref(n);
    for (std::size_t i = 0; i + Act::kLanes <= n; i += Act::kLanes) stripe(Act{}, act.data() + i, i);
    for (std::size_t i = 0; i + Ref::kLanes <= n; i += Ref::kLanes) stripe(Ref{}, ref.data() + i, i);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(bits_of(act[k]), bits_of(ref[k])) << what << " element " << k;
    }
    if constexpr (!std::is_same_v<Nar, Act> && !std::is_same_v<Nar, Ref>) {
        std::vector<T> nar(n);
        for (std::size_t i = 0; i + Nar::kLanes <= n; i += Nar::kLanes) {
            stripe(Nar{}, nar.data() + i, i);
        }
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(bits_of(nar[k]), bits_of(ref[k])) << what << " narrow element " << k;
        }
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
// movemask bits must match the fallback's. Returns the active backend's
// bits, one 0/1 per element.
template <class Op>
std::vector<std::int64_t> check_mask_op(const std::string& name, std::size_t n, Op op) {
    return expect_backends_agree<std::int64_t>(
        name + " movemask", n, [&](auto be, std::int64_t* out, std::size_t i) {
            const unsigned bits = decltype(be)::movemask(op(be, i));
            for (int l = 0; l < decltype(be)::kLanes; ++l) out[l] = (bits >> l) & 1u;
        });
}

}  // namespace

TEST(Simd, WidthIsPositiveAndNamed) {
    EXPECT_GE(simd::kLanes, 2);
    EXPECT_LE(simd::kLanes, 8);
    EXPECT_STRNE(simd::backend_name(), "");
    EXPECT_LE(Nar::kLanes, 4);
    EXPECT_LE(Nar::kLanes, simd::kLanes);
#if defined(FXG_SIMD_DISABLE)
    EXPECT_STREQ(simd::backend_name(), "scalar");
    EXPECT_STREQ(Nar::kName, "scalar");
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

// cmp_eq is the ordered, quiet compare: equal values (+0 and -0
// included) in both orders, never NaN. expm1's k == 0 test uses it in
// place of cmp_ge both ways, which it matches on every input.
TEST(Simd, CmpEqMatchesScalarFallbackAndBothWaysGreaterOrEqual) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto a = random_doubles(512, 12);
    auto b = random_doubles(512, 13);
    for (std::size_t i = 0; i < b.size(); i += 3) b[i] = a[i];
    for (std::size_t i = 1; i < b.size(); i += 7) b[i] = -a[i];
    for (std::size_t i = 2; i < a.size(); i += 11) a[i] = nan;
    for (std::size_t i = 4; i < b.size(); i += 13) b[i] = nan;
    for (std::size_t i = 5; i < a.size(); i += 17) a[i] = b[i] = i % 2 == 0 ? inf : -inf;
    const auto eq = check_mask_op("cmp_eq", a.size(), [&](auto be, std::size_t i) {
        using B = decltype(be);
        return B::cmp_eq(B::load(a.data() + i), B::load(b.data() + i));
    });
    const auto both_ge = check_mask_op("cmp_ge both ways", a.size(), [&](auto be, std::size_t i) {
        using B = decltype(be);
        const auto x = B::load(a.data() + i);
        const auto y = B::load(b.data() + i);
        return B::m_and(B::cmp_ge(x, y), B::cmp_ge(y, x));
    });
    EXPECT_EQ(eq, both_ge);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(eq[i], a[i] == b[i] ? 1 : 0) << a[i] << " == " << b[i];
    }
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
    check("m_splat(true)", [](auto be, auto, auto) { return decltype(be)::m_splat(true); });
    check("m_splat(false)", [](auto be, auto, auto) { return decltype(be)::m_splat(false); });
}

TEST(Simd, Int64OpsMatchScalarFallback) {
    const auto a = random_int64s(256, 30);
    const auto b = random_int64s(256, 31);
    const auto check = [&](const char* name, auto op) {
        expect_backends_agree<std::int64_t>(name, a.size(), [&](auto be, std::int64_t* out,
                                                                std::size_t i) {
            using B = decltype(be);
            B::i_store(out, op(be, B::i_load(a.data() + i), B::i_load(b.data() + i)));
        });
    };
    check("i_add", [](auto be, auto x, auto y) { return decltype(be)::i_add(x, y); });
    check("i_and", [](auto be, auto x, auto y) { return decltype(be)::i_and(x, y); });
    check("i_or", [](auto be, auto x, auto y) { return decltype(be)::i_or(x, y); });
    check("i_srl<32>", [](auto be, auto x, auto) { return decltype(be)::template i_srl<32>(x); });
    check("i_xor", [](auto be, auto x, auto y) { return decltype(be)::i_xor(x, y); });
    check("i_mul", [](auto be, auto x, auto y) { return decltype(be)::i_mul(x, y); });
}

TEST(Simd, MulIsTheLowHalfOfTheUnsignedProduct) {
    // The AVX2 backend builds it from 32-bit halves, so each backend is
    // checked against the product itself.
    const auto a = random_int64s(256, 50);
    const auto b = random_int64s(256, 51);
    const auto check = [&](auto be) {
        using B = decltype(be);
        for (std::size_t i = 0; i + B::kLanes <= a.size(); i += B::kLanes) {
            std::int64_t out[B::kLanes];
            B::i_store(out, B::i_mul(B::i_load(a.data() + i), B::i_load(b.data() + i)));
            for (int l = 0; l < B::kLanes; ++l) {
                EXPECT_EQ(std::uint64_t(out[l]),
                          std::uint64_t(a[i + l]) * std::uint64_t(b[i + l]))
                    << B::kName << " element " << i + l;
            }
        }
    };
    check(Act{});
    check(Nar{});
    check(Ref{});
}

TEST(Simd, VectorSplitmixEqualsScalarHashAlongAStream) {
    // The lane kernel steps key + gamma (index + 1) by gamma per draw and
    // mixes a stripe of lanes at once; each lane must equal
    // util::splitmix64 of its (key, index).
    namespace u = fxg::util;
    alignas(64) std::int64_t z[simd::kLanes];
    std::uint64_t key[simd::kLanes], first[simd::kLanes];
    for (int l = 0; l < simd::kLanes; ++l) {
        key[l] = u::splitmix64(99, std::uint64_t(l));
        first[l] = l == 0 ? ~std::uint64_t{0} - 5 : std::uint64_t(l) * 1000003;
        z[l] = std::int64_t(u::splitmix64_premix(key[l], first[l]));
    }
    simd::ivec zv = simd::i_load(z);
    const simd::ivec gamma = simd::i_splat(std::int64_t(u::kSplitmix64Gamma));
    for (std::uint64_t t = 0; t < 100; ++t) {
        std::int64_t out[simd::kLanes];
        simd::i_store(out, u::splitmix64_mix(zv));
        for (int l = 0; l < simd::kLanes; ++l) {
            EXPECT_EQ(std::uint64_t(out[l]), u::splitmix64(key[l], first[l] + t))
                << "lane " << l << " draw " << t;
        }
        zv = simd::i_add(zv, gamma);
    }
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
            typename B::D x[1] = {B::load(xs.data() + i)};
            simd::detail::tanh_t<B, 1>(x);
            B::store(out, x[0]);
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

// ------------------------------------------------------------- K-wide tanh

// detail::tanh_t runs K vectors statement by statement; every element
// must still run the K = 1 operations, so each lane of each vector
// equals vtanh of that vector and tanh1 of that lane.
TEST(Simd, WideTanhEqualsNarrowTanhLaneForLane) {
    std::vector<double> xs;
    const double tiny = std::numeric_limits<double>::denorm_min();
    for (const double x :
         {0.0, -0.0, 19.0, -19.0, std::nextafter(19.0, 0.0), std::nextafter(-19.0, 0.0),
          // Past the -708 clamp of the exp reduction (q = expm1(-2|x|)).
          354.0, -354.0, 354.5, -354.5, 400.0, -400.0, 1e6, -1e6,
          // Tiny values, where the k == 0 branch of expm1 carries tanh.
          1e-300, -1e-300, tiny, -tiny, 1e-20, -1e-20, 0x1p-27, -0x1p-27}) {
        xs.push_back(x);
    }
    fxg::util::CounterEngine engine(0x7A9E);
    std::uniform_real_distribution<double> wide(-40.0, 40.0);
    std::uniform_real_distribution<double> exponent(-60.0, 3.0);
    constexpr std::size_t kRandom = 10'000'000;
    while (xs.size() < kRandom) {
        const double x = wide(engine);
        xs.push_back((xs.size() % 4 == 0) ? std::copysign(std::exp2(exponent(engine)), x) : x);
    }
    const std::size_t chunk = std::size_t{8} * Act::kLanes;
    while (xs.size() % chunk != 0) xs.push_back(1.0);

    std::vector<std::uint64_t> narrow(xs.size());
    for (std::size_t i = 0; i < xs.size(); i += Act::kLanes) {
        alignas(64) double out[Act::kLanes];
        simd::store(out, simd::vtanh(simd::load(xs.data() + i)));
        for (int l = 0; l < Act::kLanes; ++l) narrow[i + l] = bits_of(out[l]);
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(narrow[i], bits_of(simd::tanh1(xs[i]))) << "tanh1 x=" << xs[i];
    }
    const auto check = [&]<int K>(std::integral_constant<int, K>) {
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i + K * Act::kLanes <= xs.size(); i += K * Act::kLanes) {
            simd::dvec x[K];
            for (int k = 0; k < K; ++k) x[k] = simd::load(xs.data() + i + k * Act::kLanes);
            simd::vtanh(x);
            alignas(64) double out[K * Act::kLanes];
            for (int k = 0; k < K; ++k) simd::store(out + k * Act::kLanes, x[k]);
            for (int j = 0; j < K * Act::kLanes; ++j) {
                if (bits_of(out[j]) != narrow[i + j]) {
                    if (mismatches++ < 5) ADD_FAILURE() << "K=" << K << " x=" << xs[i + j];
                }
            }
        }
        EXPECT_EQ(mismatches, 0u) << "K=" << K;
    };
    check(std::integral_constant<int, 1>{});
    check(std::integral_constant<int, 2>{});
    check(std::integral_constant<int, 3>{});
    check(std::integral_constant<int, 4>{});
    check(std::integral_constant<int, 5>{});
    check(std::integral_constant<int, 6>{});
    check(std::integral_constant<int, 7>{});
    check(std::integral_constant<int, 8>{});
    // The scalar fallback's K-wide form gives the same bits.
    for (std::size_t i = 0; i + 3 * Ref::kLanes <= 4096; i += 3 * Ref::kLanes) {
        Ref::D x[3];
        for (int k = 0; k < 3; ++k) x[k] = Ref::load(xs.data() + i + k * Ref::kLanes);
        simd::detail::tanh_t<Ref, 3>(x);
        for (int k = 0; k < 3; ++k) {
            for (int l = 0; l < Ref::kLanes; ++l) {
                EXPECT_EQ(bits_of(x[k].v[l]), narrow[i + k * Ref::kLanes + l]);
            }
        }
    }
}

// ------------------------------------------------------------------ div_by

namespace {

/// A double with the given sign, unbiased exponent and 52-bit
/// significand field.
double make_double(bool negative, int exponent, std::uint64_t significand) {
    return std::bit_cast<double>((std::uint64_t{negative} << 63) |
                                 (std::uint64_t(exponent + 1023) << 52) |
                                 (significand & 0x000FFFFFFFFFFFFFULL));
}

/// Runs div_by (or, with kChecked false, its unchecked form
/// div_in_range_t) over (a[i], b[i]) on backend B, K vectors per call,
/// and counts the elements whose bits differ from IEEE a / b.
template <class B, int K, bool kChecked = true>
std::size_t div_by_mismatches(const std::vector<double>& a, const std::vector<double>& b) {
    std::size_t bad = 0;
    constexpr std::size_t step = std::size_t{K} * B::kLanes;
    for (std::size_t i = 0; i + step <= a.size(); i += step) {
        typename B::D q[K], d[K], y[K];
        for (int k = 0; k < K; ++k) {
            q[k] = B::load(a.data() + i + k * B::kLanes);
            d[k] = B::load(b.data() + i + k * B::kLanes);
            y[k] = B::div(B::splat(1.0), d[k]);
        }
        if constexpr (kChecked) {
            simd::detail::div_by_t<B, K>(q, d, y);
        } else {
            simd::detail::div_in_range_t<B, K>(q, d, y);
        }
        double out[step];
        for (int k = 0; k < K; ++k) B::store(out + k * B::kLanes, q[k]);
        for (std::size_t j = 0; j < step; ++j) {
            if (bits_of(out[j]) != bits_of(a[i + j] / b[i + j])) {
                if (bad++ < 5) {
                    ADD_FAILURE() << B::kName << " K=" << K << ": " << std::hexfloat
                                  << a[i + j] << " / " << b[i + j] << " gave " << out[j];
                }
            }
        }
    }
    return bad;
}

template <class B>
std::size_t div_by_mismatches_all_widths(const std::vector<double>& a,
                                         const std::vector<double>& b) {
    return div_by_mismatches<B, 1>(a, b) + div_by_mismatches<B, 3>(a, b) +
           div_by_mismatches<B, 8>(a, b);
}

}  // namespace

// div_by(a, b, 1 / b) is the engines' division by a loop-invariant
// divisor. DESIGN.md section 12 proves that its fast path rounds like
// IEEE division for b in [2^-50, 2^50] and a = +-0 or
// 2^-969 <= |a| <= 2^968; every other operand takes div. Random pairs
// over that range, with all-ones and zero divisor significands, on the
// active backend and the scalar fallback, and through the fast path
// alone (div_by_in_range, which the lane kernel takes on operands it
// proves in range).
TEST(Simd, DivByIsIeeeDivisionOverTheProvedRange) {
    constexpr std::size_t kPairs = 100'000'000;
    constexpr std::size_t kBatch = std::size_t{1} << 20;
    std::size_t bad = 0;
    for (std::size_t base = 0; base < kPairs; base += kBatch) {
        std::vector<double> a(kBatch), b(kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) {
            const std::uint64_t r = fxg::util::splitmix64(0xD1B7, base + i);
            const std::uint64_t t = fxg::util::splitmix64(0xD1B8, base + i);
            // Divisor: exponent in [-50, 49]; one in 16 has an all-ones
            // significand, one in 16 a zero one (a power of two).
            std::uint64_t sig_b = t;
            if ((r & 0xF) == 0) sig_b = ~0ULL;
            if ((r & 0xF) == 1) sig_b = 0;
            b[i] = make_double(false, -50 + int((t >> 52) % 100), sig_b);
            // Numerator: exponent in [-969, 967], either sign; one in 64
            // is +-0.
            a[i] = ((r >> 4) & 0x3F) == 0
                       ? ((r >> 10) & 1 ? -0.0 : 0.0)
                       : make_double((r >> 10) & 1, -969 + int((r >> 11) % 1937), r >> 12);
        }
        bad += div_by_mismatches<Act, 1>(a, b) + div_by_mismatches<Act, 8>(a, b) +
               div_by_mismatches<Ref, 1>(a, b) + div_by_mismatches<Act, 8, false>(a, b);
        ASSERT_EQ(bad, 0u) << "after " << base + kBatch << " pairs";
    }
}

// The edges: +-0 (a - q0*b would turn -0 into +0), the ends of the
// range, the kernel's own divisors, and the one class of significand
// pairs the proof leaves to enumeration (a, b in [2 - 5 ulp, 2), a < b).
TEST(Simd, DivByIsIeeeDivisionAtTheEdges) {
    const double dt = 125e-6 / 2048;  // the paper's sample period
    const std::vector<double> divisors = {
        dt, 1.0 / (8e3 * 64), 79.57747154594767 /* 1 Oe in A/m */, 40.0, 1e-12,
        0x1p-50, 0x1p50, std::nextafter(0x1p50, 0.0), 1.0, std::nextafter(2.0, 0.0),
        make_double(false, 7, ~0ULL), make_double(false, -30, ~0ULL), 3.0};
    std::vector<double> numerators = {
        0.0, -0.0, 0x1p-969, -0x1p-969, 0x1p968, -0x1p968, std::nextafter(0x1p969, 0.0),
        1.0, -1.0, 3.0, 1e-300, -7.25e300, 0.1, -2.5e-7};
    std::vector<double> a, b;
    for (const double d : divisors) {
        for (const double n : numerators) {
            a.push_back(n);
            b.push_back(d);
        }
    }
    for (int k = 1; k <= 5; ++k) {
        for (int j = 1; j < k; ++j) {
            for (const int e : {-900, -40, 0, 37, 900}) {
                for (const bool neg : {false, true}) {
                    a.push_back(make_double(neg, e, ~0ULL - std::uint64_t(k - 1)));
                    b.push_back(make_double(false, std::clamp(e / 20, -50, 49),
                                            ~0ULL - std::uint64_t(j - 1)));
                }
            }
        }
    }
    while (a.size() % (std::size_t{8} * Act::kLanes) != 0) {
        a.push_back(1.0);
        b.push_back(3.0);
    }
    EXPECT_EQ(div_by_mismatches_all_widths<Act>(a, b), 0u);
    EXPECT_EQ(div_by_mismatches_all_widths<Ref>(a, b), 0u);
    // The pairs inside the range through the fast path alone.
    std::vector<double> in_a, in_b;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double m = std::fabs(a[i]);
        if (m == 0.0 || (m >= simd::kDivByMinNumerator && m <= simd::kDivByMaxNumerator)) {
            in_a.push_back(a[i]);
            in_b.push_back(b[i]);
        }
    }
    while (in_a.size() % (std::size_t{8} * Act::kLanes) != 0) {
        in_a.push_back(1.0);
        in_b.push_back(3.0);
    }
    EXPECT_EQ((div_by_mismatches<Act, 1, false>(in_a, in_b)), 0u);
    EXPECT_EQ((div_by_mismatches<Act, 8, false>(in_a, in_b)), 0u);
    EXPECT_EQ((div_by_mismatches<Ref, 1, false>(in_a, in_b)), 0u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(bits_of(simd::first(simd::div_by(simd::splat(a[i]), simd::splat(b[i]),
                                                   simd::splat(1.0 / b[i])))),
                  bits_of(a[i] / b[i]))
            << std::hexfloat << a[i] << " / " << b[i];
    }
    EXPECT_TRUE(std::signbit(simd::first(
        simd::div_by(simd::splat(-0.0), simd::splat(dt), simd::splat(1.0 / dt)))));
}

// Outside the proved range the fast path would be wrong (overflow,
// inf * 0, a subnormal remainder, the sign of -0 / -b), so such a
// vector takes div: these operands, alone or beside in-range lanes,
// still divide exactly.
TEST(Simd, DivByOutsideTheRangeTakesTheExactDivide) {
    const double big = std::numeric_limits<double>::max();
    const double inf = std::numeric_limits<double>::infinity();
    const double sub = std::numeric_limits<double>::denorm_min();
    const std::vector<std::pair<double, double>> outside = {
        {big, 0x1p-60},  {1.0, 0.0},     {inf, 2.0},   {-inf, 3.0},
        {0.0, -2.0},     {-0.0, -2.0},   {1.0, -3.0},  {0x1p-970, 3.0},
        {sub, 0x1p40},   {3 * sub, 0.7}, {1e-310, 1e-12}, {0x1p969, 3.0},
        {1.0, 0x1p51},   {1.0, 0x1p-51}, {5.0, 1e300}, {2.0, 1e-300}};
    std::vector<double> a, b;
    for (const auto& [n, d] : outside) {
        a.push_back(n);
        b.push_back(d);
        // The same operand beside in-range lanes.
        for (int l = 1; l < std::max(Act::kLanes, Ref::kLanes); ++l) {
            a.push_back(1.0 + l);
            b.push_back(3.0);
        }
    }
    while (a.size() % (std::size_t{8} * Act::kLanes) != 0) {
        a.push_back(1.0);
        b.push_back(3.0);
    }
    EXPECT_EQ(div_by_mismatches_all_widths<Act>(a, b), 0u);
    EXPECT_EQ(div_by_mismatches_all_widths<Ref>(a, b), 0u);
    // The fast path alone gets these wrong, so the branch is load-bearing.
    const auto markstein = [](double n, double d) {
        const double y = 1.0 / d;
        const double q0 = n * y;
        return std::fma(-std::fma(q0, d, -n), y, q0);
    };
    EXPECT_NE(bits_of(markstein(1.0, 0.0)), bits_of(1.0 / 0.0));
    EXPECT_NE(bits_of(markstein(big, 0x1p-60)), bits_of(big / 0x1p-60));
    EXPECT_NE(bits_of(markstein(0.0, -2.0)), bits_of(0.0 / -2.0));
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
