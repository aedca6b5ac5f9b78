#pragma once

/// \file simd.hpp
/// Thin SIMD wrapper for the lane engine (sim/lane_engine.cpp) and the
/// block path's vector stripes.
///
/// Three backends behind one set of free functions:
///
///   - AVX-512F + DQ on x86-64 (8 double lanes, masks in k-registers);
///   - AVX2 + FMA on x86-64 (4 double lanes);
///   - a portable scalar fallback (4 "lanes" of plain doubles) that
///     compiles everywhere, runs on every other architecture, and is
///     what FXG_SIMD=off forces.
///
/// The build picks the x86 instruction set once, in
/// src/util/CMakeLists.txt, and attaches its flags to fxg_util as
/// PUBLIC compile options, so every translation unit that includes
/// this header sees the same backend (the vector types and kLanes
/// below differ between backends). simd::Narrow is a backend of at
/// most 4 lanes under the same flags: the AVX2 one where AVX-512 is
/// active, the active one elsewhere.
///
/// The contract that makes the lane engine's bit-identity story work:
/// every operation here is *lane-independent* and rounds exactly like
/// the obvious scalar expression — add/sub/mul/div/floor are single
/// IEEE-754 ops, fmadd/fnmadd/fmsub are a single rounding (std::fma in
/// the fallback), max/min mirror the x86 (a cmp b) ? a : b semantics,
/// and blends select whole lanes by the mask. Consequently lane i of any
/// vector computation equals the same computation run on lane i alone,
/// which is how the remainder-lane tails (scalar calls into tanh1)
/// stay bit-identical to full-width stripes, and how every backend
/// reproduces every other bit for bit.
///
/// div_by(a, b, y), for y == 1.0 / b, returns exactly div(a, b) in
/// every lane: a product and Markstein's fma correction where the
/// operands lie in the range DESIGN.md section 12 proves exact, div
/// otherwise. A loop-invariant divisor thus costs one reciprocal, and
/// no divider operation per vector. div_by_in_range is the same product
/// and correction without the range check, for callers that have proven
/// their operands inside the range (the lane kernel's sensor pass).
///
/// vtanh is the one transcendental the engines need. libm's tanh is
/// correctly rounded but scalar-only and has no vectorizable contract,
/// so the engines share *this* implementation (magnetics::TanhCore
/// calls tanh1): an expm1 built on Cody–Waite range reduction with
/// musl's ln2 split, a degree-12 Horner polynomial of explicit fmas,
/// and 2^k built by integer exponent construction. Accuracy is a few
/// ulp against libm; consistency across scalar/block/lane paths is
/// exact by construction. vtanh handles +-0 and +-inf but does not
/// propagate NaN (engine inputs are finite by construction).
/// detail::tanh_t is written for K vectors at once, statement by
/// statement, so K independent divide/exp chains overlap; each vector
/// runs exactly the operations of the K = 1 case, which is vtanh, so
/// the K-wide form and tanh1 agree bit for bit. div_by has the same
/// K-wide form, with one range check and branch per call.
///
/// vgauss turns one 64-bit random draw per lane into a standard normal
/// deviate (Box–Muller with its own log and cos polynomials) under the
/// same contract, so the pickup noise the scalar engines draw through
/// gauss1 is exactly what the lane engine draws as vectors.
///
/// detail::ScalarBackend is always compiled, whatever the active
/// backend, so tests/simd_test.cpp can check intrinsic-vs-fallback
/// bit-identity inside one binary. kLanes is a compile-time constant
/// so tests can sweep width-boundary remainders.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#if !defined(FXG_SIMD_DISABLE) && defined(__AVX512F__) && defined(__AVX512DQ__)
#define FXG_SIMD_AVX512 1
// GCC 12's AVX-512 intrinsics pass an uninitialized _mm512_undefined_*()
// through as the unused merge source, and -Wuninitialized reports it at
// every inlined call (GCC bug 105593, fixed in GCC 13).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#elif !defined(FXG_SIMD_DISABLE) && defined(__AVX2__) && defined(__FMA__)
#define FXG_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace fxg::util::simd {

/// The range over which div_by's product and correction are IEEE
/// division (DESIGN.md section 12): a divisor b in [kDivByMinDivisor,
/// kDivByMaxDivisor] and a numerator a = +-0 or |a| in
/// [kDivByMinNumerator, kDivByMaxNumerator].
inline constexpr double kDivByMinDivisor = 0x1p-50;
inline constexpr double kDivByMaxDivisor = 0x1p50;
inline constexpr double kDivByMinNumerator = 0x1p-969;
inline constexpr double kDivByMaxNumerator = 0x1p968;

namespace detail {

/// Magic constant for double -> int64 conversion of integer-valued
/// doubles in (-2^51, 2^51): adding 2^52 + 2^51 pins the value into a
/// binade where one mantissa ulp is exactly 1.0, so the integer falls
/// out of the bit pattern by subtraction. Exact for integer inputs.
inline constexpr double kToIntMagic = 6755399441055744.0;  // 2^52 + 2^51

/// Portable backend: kLanes plain doubles, every op written to round
/// exactly like its single-instruction SIMD counterpart.
struct ScalarBackend {
    static constexpr int kLanes = 4;
    static constexpr const char* kName = "scalar";

    struct D {
        double v[kLanes];
    };
    struct M {
        std::uint64_t v[kLanes];  ///< all-ones or all-zeros per lane
    };
    struct I {
        std::int64_t v[kLanes];
    };

    static D splat(double x) {
        D r;
        for (int l = 0; l < kLanes; ++l) r.v[l] = x;
        return r;
    }
    static D load(const double* p) {
        D r;
        for (int l = 0; l < kLanes; ++l) r.v[l] = p[l];
        return r;
    }
    static void store(double* p, D a) {
        for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
    }
    static double first(D a) { return a.v[0]; }

    static D add(D a, D b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] += b.v[l];
        return a;
    }
    static D sub(D a, D b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] -= b.v[l];
        return a;
    }
    static D mul(D a, D b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] *= b.v[l];
        return a;
    }
    static D div(D a, D b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] /= b.v[l];
        return a;
    }
    static D floor(D a) {
        for (int l = 0; l < kLanes; ++l) a.v[l] = std::floor(a.v[l]);
        return a;
    }
    static D sqrt(D a) {
        for (int l = 0; l < kLanes; ++l) a.v[l] = std::sqrt(a.v[l]);
        return a;
    }
    /// x86 MAXPD semantics: (a > b) ? a : b — second operand on NaN.
    static D max(D a, D b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
        return a;
    }
    static D min(D a, D b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
        return a;
    }
    /// Single-rounding fused a*b + c, exactly like the FMA instruction.
    static D fmadd(D a, D b, D c) {
        for (int l = 0; l < kLanes; ++l) c.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
        return c;
    }
    /// c - a*b with a single rounding (FNMADD). The product's sign is
    /// flipped through b, not a: GCC folds -fma(x, y, z) into
    /// fma(-x, y, -z), which changes the sign of a zero result, so a
    /// negated `a` that is itself an fma (div_by's remainder) would turn
    /// -0 / b into +0.
    static D fnmadd(D a, D b, D c) {
        for (int l = 0; l < kLanes; ++l) c.v[l] = std::fma(a.v[l], -b.v[l], c.v[l]);
        return c;
    }
    /// a*b - c with a single rounding (FMSUB).
    static D fmsub(D a, D b, D c) {
        for (int l = 0; l < kLanes; ++l) c.v[l] = std::fma(a.v[l], b.v[l], -c.v[l]);
        return c;
    }

    static D bit_and(D a, D b) {
        for (int l = 0; l < kLanes; ++l)
            a.v[l] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v[l]) &
                                           std::bit_cast<std::uint64_t>(b.v[l]));
        return a;
    }
    static D bit_or(D a, D b) {
        for (int l = 0; l < kLanes; ++l)
            a.v[l] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v[l]) |
                                           std::bit_cast<std::uint64_t>(b.v[l]));
        return a;
    }
    static D bit_xor(D a, D b) {
        for (int l = 0; l < kLanes; ++l)
            a.v[l] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v[l]) ^
                                           std::bit_cast<std::uint64_t>(b.v[l]));
        return a;
    }
    /// ~a & b (ANDNPD operand order).
    static D bit_andnot(D a, D b) {
        for (int l = 0; l < kLanes; ++l)
            b.v[l] = std::bit_cast<double>(~std::bit_cast<std::uint64_t>(a.v[l]) &
                                           std::bit_cast<std::uint64_t>(b.v[l]));
        return b;
    }

    static M cmp_eq(D a, D b) {
        M m;
        for (int l = 0; l < kLanes; ++l) m.v[l] = a.v[l] == b.v[l] ? ~0ULL : 0ULL;
        return m;
    }
    static M cmp_ge(D a, D b) {
        M m;
        for (int l = 0; l < kLanes; ++l) m.v[l] = a.v[l] >= b.v[l] ? ~0ULL : 0ULL;
        return m;
    }
    static M cmp_gt(D a, D b) {
        M m;
        for (int l = 0; l < kLanes; ++l) m.v[l] = a.v[l] > b.v[l] ? ~0ULL : 0ULL;
        return m;
    }
    /// m ? a : b per lane (selects by the mask lane's sign bit, like
    /// BLENDVPD; cmp results are all-ones/all-zeros so this is total).
    static D blend(M m, D a, D b) {
        for (int l = 0; l < kLanes; ++l)
            b.v[l] = (m.v[l] >> 63) ? a.v[l] : b.v[l];
        return b;
    }

    static M m_splat(bool b) {
        M m;
        for (int l = 0; l < kLanes; ++l) m.v[l] = b ? ~0ULL : 0ULL;
        return m;
    }
    static M m_and(M a, M b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] &= b.v[l];
        return a;
    }
    static M m_or(M a, M b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] |= b.v[l];
        return a;
    }
    static unsigned movemask(M m) {
        unsigned bits = 0;
        for (int l = 0; l < kLanes; ++l) bits |= unsigned(m.v[l] >> 63) << l;
        return bits;
    }

    static I i_splat(std::int64_t x) {
        I r;
        for (int l = 0; l < kLanes; ++l) r.v[l] = x;
        return r;
    }
    static I i_load(const std::int64_t* p) {
        I r;
        for (int l = 0; l < kLanes; ++l) r.v[l] = p[l];
        return r;
    }
    static void i_store(std::int64_t* p, I a) {
        for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
    }
    static I i_add(I a, I b) {
        for (int l = 0; l < kLanes; ++l)
            a.v[l] = std::int64_t(std::uint64_t(a.v[l]) + std::uint64_t(b.v[l]));
        return a;
    }
    static I i_and(I a, I b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] &= b.v[l];
        return a;
    }
    static I i_or(I a, I b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] |= b.v[l];
        return a;
    }
    static I i_xor(I a, I b) {
        for (int l = 0; l < kLanes; ++l) a.v[l] ^= b.v[l];
        return a;
    }
    /// Low 64 bits of the product (wraps mod 2^64).
    static I i_mul(I a, I b) {
        for (int l = 0; l < kLanes; ++l)
            a.v[l] = std::int64_t(std::uint64_t(a.v[l]) * std::uint64_t(b.v[l]));
        return a;
    }
    /// Logical (zero-filling) right shift by N bits.
    template <int N>
    static I i_srl(I a) {
        for (int l = 0; l < kLanes; ++l)
            a.v[l] = std::int64_t(std::uint64_t(a.v[l]) >> N);
        return a;
    }
    /// Bit-pattern reinterpretation, no value conversion.
    static D as_d(I a) {
        D r;
        for (int l = 0; l < kLanes; ++l) r.v[l] = std::bit_cast<double>(a.v[l]);
        return r;
    }
    static I as_i(D a) {
        I r;
        for (int l = 0; l < kLanes; ++l) r.v[l] = std::bit_cast<std::int64_t>(a.v[l]);
        return r;
    }
    /// Exact double -> int64 for integer-valued inputs in (-2^51, 2^51).
    static I d2i_exact(D a) {
        I r;
        for (int l = 0; l < kLanes; ++l)
            r.v[l] = std::int64_t(std::bit_cast<std::uint64_t>(a.v[l] + kToIntMagic) -
                                  std::bit_cast<std::uint64_t>(kToIntMagic));
        return r;
    }
    /// 2^k by exponent-field construction; k in [-1022, 1023].
    static D pow2i(I k) {
        D r;
        for (int l = 0; l < kLanes; ++l)
            r.v[l] = std::bit_cast<double>(std::uint64_t(k.v[l] + 1023) << 52);
        return r;
    }
};

#if defined(FXG_SIMD_AVX512)

/// AVX-512F + DQ: the AVX2 backend's operations on 8 lanes. Comparison
/// results are __mmask8 bit masks (one bit per lane, held in a
/// k-register), so blends, mask logic and movemask need no vector
/// register; the double-domain bit ops come from DQ.
struct Avx512Backend {
    static constexpr int kLanes = 8;
    static constexpr const char* kName = "avx512";

    using D = __m512d;
    using M = __mmask8;
    using I = __m512i;

    static D splat(double x) { return _mm512_set1_pd(x); }
    static D load(const double* p) { return _mm512_loadu_pd(p); }
    static void store(double* p, D a) { _mm512_storeu_pd(p, a); }
    static double first(D a) { return _mm_cvtsd_f64(_mm512_castpd512_pd128(a)); }

    static D add(D a, D b) { return _mm512_add_pd(a, b); }
    static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
    static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
    static D div(D a, D b) { return _mm512_div_pd(a, b); }
    static D floor(D a) { return _mm512_roundscale_pd(a, _MM_FROUND_TO_NEG_INF); }
    static D sqrt(D a) { return _mm512_sqrt_pd(a); }
    static D max(D a, D b) { return _mm512_max_pd(a, b); }
    static D min(D a, D b) { return _mm512_min_pd(a, b); }
    static D fmadd(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
    static D fnmadd(D a, D b, D c) { return _mm512_fnmadd_pd(a, b, c); }
    static D fmsub(D a, D b, D c) { return _mm512_fmsub_pd(a, b, c); }

    static D bit_and(D a, D b) { return _mm512_and_pd(a, b); }
    static D bit_or(D a, D b) { return _mm512_or_pd(a, b); }
    static D bit_xor(D a, D b) { return _mm512_xor_pd(a, b); }
    static D bit_andnot(D a, D b) { return _mm512_andnot_pd(a, b); }

    static M cmp_eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
    static M cmp_ge(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
    static M cmp_gt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
    static D blend(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }

    static M m_splat(bool b) { return b ? M(0xFF) : M(0); }
    static M m_and(M a, M b) { return M(a & b); }
    static M m_or(M a, M b) { return M(a | b); }
    static unsigned movemask(M m) { return m; }

    static I i_splat(std::int64_t x) { return _mm512_set1_epi64(x); }
    static I i_load(const std::int64_t* p) { return _mm512_loadu_si512(p); }
    static void i_store(std::int64_t* p, I a) { _mm512_storeu_si512(p, a); }
    static I i_add(I a, I b) { return _mm512_add_epi64(a, b); }
    static I i_and(I a, I b) { return _mm512_and_si512(a, b); }
    static I i_or(I a, I b) { return _mm512_or_si512(a, b); }
    static I i_xor(I a, I b) { return _mm512_xor_si512(a, b); }
    static I i_mul(I a, I b) { return _mm512_mullo_epi64(a, b); }  // DQ
    template <int N>
    static I i_srl(I a) {
        return _mm512_srli_epi64(a, N);
    }
    static D as_d(I a) { return _mm512_castsi512_pd(a); }
    static I as_i(D a) { return _mm512_castpd_si512(a); }
    static I d2i_exact(D a) {
        const D magic = splat(kToIntMagic);
        return _mm512_sub_epi64(_mm512_castpd_si512(add(a, magic)),
                                _mm512_castpd_si512(magic));
    }
    static D pow2i(I k) {
        return _mm512_castsi512_pd(
            _mm512_slli_epi64(_mm512_add_epi64(k, i_splat(1023)), 52));
    }
};

#endif

#if defined(FXG_SIMD_AVX512) || defined(FXG_SIMD_AVX2)

/// AVX2 + FMA: the active backend of an AVX2 build, and the narrow
/// one of an AVX-512 build (the flags of both include AVX2 and FMA).
struct Avx2Backend {
    static constexpr int kLanes = 4;
    static constexpr const char* kName = "avx2";

    using D = __m256d;
    using M = __m256d;  ///< comparison results, all-ones/all-zeros lanes
    using I = __m256i;

    static D splat(double x) { return _mm256_set1_pd(x); }
    static D load(const double* p) { return _mm256_loadu_pd(p); }
    static void store(double* p, D a) { _mm256_storeu_pd(p, a); }
    static double first(D a) { return _mm256_cvtsd_f64(a); }

    static D add(D a, D b) { return _mm256_add_pd(a, b); }
    static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
    static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
    static D div(D a, D b) { return _mm256_div_pd(a, b); }
    static D floor(D a) { return _mm256_floor_pd(a); }
    static D sqrt(D a) { return _mm256_sqrt_pd(a); }
    static D max(D a, D b) { return _mm256_max_pd(a, b); }
    static D min(D a, D b) { return _mm256_min_pd(a, b); }
    static D fmadd(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
    static D fnmadd(D a, D b, D c) { return _mm256_fnmadd_pd(a, b, c); }
    static D fmsub(D a, D b, D c) { return _mm256_fmsub_pd(a, b, c); }

    static D bit_and(D a, D b) { return _mm256_and_pd(a, b); }
    static D bit_or(D a, D b) { return _mm256_or_pd(a, b); }
    static D bit_xor(D a, D b) { return _mm256_xor_pd(a, b); }
    static D bit_andnot(D a, D b) { return _mm256_andnot_pd(a, b); }

    static M cmp_eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
    static M cmp_ge(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
    static M cmp_gt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
    static D blend(M m, D a, D b) { return _mm256_blendv_pd(b, a, m); }

    static M m_splat(bool b) {
        return b ? _mm256_castsi256_pd(_mm256_set1_epi64x(-1)) : _mm256_setzero_pd();
    }
    static M m_and(M a, M b) { return _mm256_and_pd(a, b); }
    static M m_or(M a, M b) { return _mm256_or_pd(a, b); }
    static unsigned movemask(M m) { return unsigned(_mm256_movemask_pd(m)); }

    static I i_splat(std::int64_t x) { return _mm256_set1_epi64x(x); }
    static I i_load(const std::int64_t* p) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void i_store(std::int64_t* p, I a) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
    }
    static I i_add(I a, I b) { return _mm256_add_epi64(a, b); }
    static I i_and(I a, I b) { return _mm256_and_si256(a, b); }
    static I i_or(I a, I b) { return _mm256_or_si256(a, b); }
    static I i_xor(I a, I b) { return _mm256_xor_si256(a, b); }
    /// Low 64 bits of the product from 32-bit halves:
    /// lo(a) lo(b) + ((hi(a) lo(b) + lo(a) hi(b)) << 32), mod 2^64.
    static I i_mul(I a, I b) {
        const I low = _mm256_mul_epu32(a, b);
        const I cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                                         _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
        return _mm256_add_epi64(low, _mm256_slli_epi64(cross, 32));
    }
    template <int N>
    static I i_srl(I a) {
        return _mm256_srli_epi64(a, N);
    }
    static D as_d(I a) { return _mm256_castsi256_pd(a); }
    static I as_i(D a) { return _mm256_castpd_si256(a); }
    static I d2i_exact(D a) {
        const D magic = splat(kToIntMagic);
        return _mm256_sub_epi64(_mm256_castpd_si256(add(a, magic)),
                                _mm256_castpd_si256(magic));
    }
    static D pow2i(I k) {
        return _mm256_castsi256_pd(
            _mm256_slli_epi64(_mm256_add_epi64(k, i_splat(1023)), 52));
    }
};

#endif

#if defined(FXG_SIMD_AVX512)
using Active = Avx512Backend;
using Narrow = Avx2Backend;
#elif defined(FXG_SIMD_AVX2)
using Active = Avx2Backend;
using Narrow = Avx2Backend;
#else
using Active = ScalarBackend;
using Narrow = ScalarBackend;
#endif

/// Runs f(0), ..., f(K - 1). The K-wide functions below write every
/// statement as one each<K> over their K vectors, so the K dependency
/// chains sit interleaved in the instruction stream, while each vector
/// still runs exactly the K = 1 operations in the K = 1 order.
template <class F, int... k>
[[gnu::always_inline]] inline void each_of(F& f, std::integer_sequence<int, k...>) {
    (f(k), ...);
}
template <int K, class F>
[[gnu::always_inline]] inline void each(F&& f) {
    each_of(f, std::make_integer_sequence<int, K>{});
}

/// Shared exp range reduction: x = k*ln2 + r with |r| <= ln2/2, and
/// s(r) = (exp(r) - 1) / r as a degree-12 Horner chain of explicit
/// fmas, for K vectors at once. From these, exp(x) = (s*r + 1) * 2^k
/// and expm1 falls out without the 1-ulp-of-1.0 cancellation when
/// k == 0.
template <class B, int K>
struct ExpReduction {
    typename B::D kd[K];  ///< round-to-nearest(x / ln2), integer-valued
    typename B::D r[K];   ///< reduced argument
    typename B::D s[K];   ///< (exp(r) - 1) / r polynomial value

    [[gnu::always_inline]] explicit ExpReduction(const typename B::D (&x_in)[K]) {
        typename B::D x[K];
        // Clamp below -708: the subnormal-result region. Callers that
        // get there (tanh past saturation) have already converged.
        each<K>([&](int k) { x[k] = B::max(x_in[k], B::splat(-708.0)); });
        // k via the +0.5/floor idiom so no backend depends on the FP
        // rounding mode.
        each<K>([&](int k) {
            kd[k] = B::floor(B::add(B::mul(x[k], B::splat(1.4426950408889634074)),
                                    B::splat(0.5)));
        });
        // Cody–Waite with musl's ln2 split: k*ln2_hi is exact for
        // |k| < 2^20.
        each<K>([&](int k) { r[k] = B::fnmadd(kd[k], B::splat(6.93147180369123816490e-01), x[k]); });
        each<K>([&](int k) { r[k] = B::fnmadd(kd[k], B::splat(1.90821492927058770002e-10), r[k]); });
        static constexpr double kHorner[] = {
            1.0 / 479001600.0, 1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0,
            1.0 / 40320.0,     1.0 / 5040.0,     1.0 / 720.0,     1.0 / 120.0,
            1.0 / 24.0,        1.0 / 6.0,        0.5,             1.0};
        each<K>([&](int k) { s[k] = B::splat(1.0 / 6227020800.0); });
        #pragma GCC unroll 12
        for (const double c : kHorner) {
            each<K>([&](int k) { s[k] = B::fmadd(s[k], r[k], B::splat(c)); });
        }
    }
};

/// expm1(x) = exp(x) - 1 in place on K vectors, with full relative
/// accuracy near zero: when the reduction lands in k == 0 the result is
/// s*r directly (no cancellation); otherwise (exp(r) * 2^k) - 1 as one
/// fma, where the subtraction is benign because |exp(x)| is at least
/// ~sqrt(2) away from 1.
template <class B, int K>
[[gnu::always_inline]] inline void expm1_t(typename B::D (&x)[K]) {
    using D = typename B::D;
    const ExpReduction<B, K> red(x);
    D near_zero[K], scaled[K];
    each<K>([&](int k) { near_zero[k] = B::mul(red.s[k], red.r[k]); });
    each<K>([&](int k) { scaled[k] = B::fmadd(red.s[k], red.r[k], B::splat(1.0)); });
    each<K>([&](int k) {
        scaled[k] = B::fmadd(scaled[k], B::pow2i(B::d2i_exact(red.kd[k])), B::splat(-1.0));
    });
    each<K>([&](int k) {
        x[k] = B::blend(B::cmp_eq(red.kd[k], B::splat(0.0)), near_zero[k], scaled[k]);
    });
}

/// tanh in place on K vectors: tanh(x) = sign(x) * -q / (2 + q) with
/// q = expm1(-2|x|), saturating to +-1 for |x| >= 19 (where the
/// quotient rounds to 1.0 anyway, so there is no step against libm).
/// Finite inputs only. The one tanh of every engine: vtanh is its
/// K = 1 case.
template <class B, int K>
[[gnu::always_inline]] inline void tanh_t(typename B::D (&x)[K]) {
    using D = typename B::D;
    const D sign_bit = B::splat(-0.0);
    D sign[K], ax[K], q[K];
    each<K>([&](int k) { sign[k] = B::bit_and(x[k], sign_bit); });
    each<K>([&](int k) { ax[k] = B::bit_andnot(sign_bit, x[k]); });
    each<K>([&](int k) { q[k] = B::mul(ax[k], B::splat(-2.0)); });
    expm1_t<B, K>(q);
    // 0 - q (not a sign flip) so tanh(+-0) keeps libm's +-0. The
    // quotient keeps its divide: its divisor changes every sample.
    each<K>([&](int k) {
        x[k] = B::div(B::sub(B::splat(0.0), q[k]), B::add(B::splat(2.0), q[k]));
    });
    each<K>([&](int k) {
        x[k] = B::blend(B::cmp_ge(ax[k], B::splat(19.0)), B::splat(1.0), x[k]);
    });
    each<K>([&](int k) { x[k] = B::bit_or(x[k], sign[k]); });
}

/// a[k] / b[k] in place on K vectors through y[k] == 1.0 / b[k], for
/// operands inside div_by's range: one product and Markstein's
/// correction, q0 = a*y, then q = q0 - (q0*b - a)*y as two fmas
/// (DESIGN.md section 12 proves it returns RN(a/b), the sign of a zero
/// included, for b in [2^-50, 2^50] and a = +-0 or
/// 2^-969 <= |a| <= 2^968). Outside the range the result need not be
/// a/b.
template <class B, int K>
[[gnu::always_inline]] inline void div_in_range_t(typename B::D (&a)[K],
                                                  const typename B::D (&b)[K],
                                                  const typename B::D (&y)[K]) {
    typename B::D q[K];
    each<K>([&](int k) { q[k] = B::mul(a[k], y[k]); });
    each<K>([&](int k) { a[k] = B::fnmadd(B::fmsub(q[k], b[k], a[k]), y[k], q[k]); });
}

/// a[k] / b[k] in place on K vectors through y[k] == 1.0 / b[k],
/// rounded exactly as div(a[k], b[k]) rounds it in every lane: the
/// product and correction of div_in_range_t where every lane of the K
/// vectors lies inside the range, and div for all K when any lane lies
/// outside it (or b <= 0, or an operand is not finite): one predictable
/// branch per call.
template <class B, int K>
[[gnu::always_inline]] inline void div_by_t(typename B::D (&a)[K],
                                            const typename B::D (&b)[K],
                                            const typename B::D (&y)[K]) {
    using D = typename B::D;
    using M = typename B::M;
    D q[K];
    each<K>([&](int k) { q[k] = a[k]; });
    div_in_range_t<B, K>(q, b, y);
    M in = B::m_splat(true);
    each<K>([&](int k) {
        const D ax = B::bit_andnot(B::splat(-0.0), a[k]);
        const M b_in = B::m_and(B::cmp_ge(b[k], B::splat(kDivByMinDivisor)),
                                B::cmp_ge(B::splat(kDivByMaxDivisor), b[k]));
        const M a_in = B::m_or(B::m_and(B::cmp_ge(ax, B::splat(kDivByMinNumerator)),
                                        B::cmp_ge(B::splat(kDivByMaxNumerator), ax)),
                               B::cmp_ge(B::splat(0.0), ax));
        in = B::m_and(in, B::m_and(a_in, b_in));
    });
    if (B::movemask(in) == (1u << B::kLanes) - 1) {
        each<K>([&](int k) { a[k] = q[k]; });
    } else {
        each<K>([&](int k) { a[k] = B::div(a[k], b[k]); });
    }
}

/// Standard normal deviate from one 64-bit draw: the cosine branch of
/// Box–Muller, z = sqrt(-2 ln u1) cos(2 pi u2), branch-free.
///   - u1 = 1 - hi32 * 2^-32 lies in [2^-32, 1], so the log is finite
///     and |z| <= sqrt(64 ln 2) = 6.66 (a normal deviate exceeds that
///     with probability ~3e-11).
///   - u2 = lo32 * 2^-32 lies in [0, 1).
/// ln follows fdlibm: exponent arithmetic reduces u1 to 2^k (1 + f)
/// with 1 + f in [sqrt(2)/2, sqrt(2)), then a degree-14 polynomial in
/// s = f / (2 + f). The cosine is folded in the turn domain, where
/// every step is exact, onto a Taylor polynomial on [0, pi/2]:
/// cos(2 pi u2) = -cos(2 pi a) with a = |u2 - 1/2|, and
/// cos(2 pi a) = -cos(2 pi (1/2 - a)) past a = 1/4.
template <class B>
[[gnu::always_inline]] inline typename B::D gauss_t(typename B::I bits) {
    using D = typename B::D;
    using I = typename B::I;
    // Exact conversion of an integer in [0, 2^52): OR it into the
    // mantissa of 2^52, then subtract 2^52.
    const I two52_bits = B::i_splat(0x4330000000000000);
    const D two52 = B::splat(0x1p52);
    const auto small_to_d = [&](I x) {
        return B::sub(B::as_d(B::i_or(x, two52_bits)), two52);
    };
    const D hi = small_to_d(B::template i_srl<32>(bits));
    const D lo = small_to_d(B::i_and(bits, B::i_splat(0xFFFFFFFF)));

    // ln(u1) (fdlibm's e_log.c with its Lg1..Lg7 coefficients; u1 is
    // positive and normal). 0x3fe6a09e is the high word of sqrt(2)/2:
    // biasing the high word by 1.0's minus it carries into the exponent
    // exactly when the mantissa reaches sqrt(2).
    const D u1 = B::fnmadd(hi, B::splat(0x1p-32), B::splat(1.0));  // exact
    I ix = B::i_add(B::as_i(u1), B::i_splat(std::int64_t{0x3ff00000 - 0x3fe6a09e} << 32));
    const D k = B::sub(small_to_d(B::template i_srl<52>(ix)), B::splat(1023.0));
    ix = B::i_add(B::i_and(ix, B::i_splat(0x000FFFFFFFFFFFFF)),
                  B::i_splat(0x3FE6A09E00000000));  // 1 + f in [sqrt(2)/2, sqrt(2))
    const D f = B::sub(B::as_d(ix), B::splat(1.0));
    const D hfsq = B::mul(B::mul(B::splat(0.5), f), f);
    const D s = B::div(f, B::add(B::splat(2.0), f));
    const D z = B::mul(s, s);
    const D w = B::mul(z, z);
    const D t1 = B::mul(
        w, B::fmadd(w, B::fmadd(w, B::splat(1.531383769920937332e-01),
                                B::splat(2.222219843214978396e-01)),
                    B::splat(3.999999999940941908e-01)));
    const D t2 = B::mul(
        z, B::fmadd(w,
                    B::fmadd(w,
                             B::fmadd(w, B::splat(1.479819860511658591e-01),
                                      B::splat(1.818357216161805012e-01)),
                             B::splat(2.857142874366239149e-01)),
                    B::splat(6.666666666666735130e-01)));
    D ln = B::fmadd(s, B::add(hfsq, B::add(t2, t1)),
                    B::mul(k, B::splat(1.90821492927058770002e-10)));
    ln = B::add(B::sub(ln, hfsq), f);
    ln = B::fmadd(k, B::splat(6.93147180369123816490e-01), ln);
    const D radius = B::sqrt(B::mul(B::splat(-2.0), ln));

    // cos(2 pi u2).
    const D sign_bit = B::splat(-0.0);
    const D a = B::bit_andnot(sign_bit,
                              B::fmadd(lo, B::splat(0x1p-32), B::splat(-0.5)));  // exact
    const D b = B::min(a, B::sub(B::splat(0.5), a));
    const D x = B::mul(b, B::splat(6.283185307179586477));
    const D x2 = B::mul(x, x);
    // Taylor series through x^18: truncation error < 4e-15 on [0, pi/2].
    D c = B::splat(-1.0 / 6402373705728000.0);
    c = B::fmadd(c, x2, B::splat(1.0 / 20922789888000.0));
    c = B::fmadd(c, x2, B::splat(-1.0 / 87178291200.0));
    c = B::fmadd(c, x2, B::splat(1.0 / 479001600.0));
    c = B::fmadd(c, x2, B::splat(-1.0 / 3628800.0));
    c = B::fmadd(c, x2, B::splat(1.0 / 40320.0));
    c = B::fmadd(c, x2, B::splat(-1.0 / 720.0));
    c = B::fmadd(c, x2, B::splat(1.0 / 24.0));
    c = B::fmadd(c, x2, B::splat(-0.5));
    c = B::fmadd(c, x2, B::splat(1.0));
    c = B::bit_xor(c, B::blend(B::cmp_gt(a, B::splat(0.25)), B::splat(0.0), sign_bit));
    return B::mul(radius, c);
}

}  // namespace detail

/// Active backend lane count — tests sweep sizes around multiples of
/// this to cover remainder tails.
inline constexpr int kLanes = detail::Active::kLanes;

[[nodiscard]] inline const char* backend_name() noexcept {
    return detail::Active::kName;
}

/// The backend's operations at no more than 4 lanes, as static members
/// (Narrow::D, Narrow::add, ...): the AVX2 backend where AVX-512 is
/// active, the active backend elsewhere. For a loop whose vectors run
/// beside a dependent chain of scalar double additions: while 512-bit
/// instructions are in flight, such a chain runs about 1.65x slower on
/// the AVX-512 host measured (DESIGN.md section 6), so the oscillator's
/// rotation computes its outputs 4 lanes at a time.
using Narrow = detail::Narrow;

using dvec = detail::Active::D;
using mask = detail::Active::M;
using ivec = detail::Active::I;

inline dvec splat(double x) { return detail::Active::splat(x); }
inline dvec load(const double* p) { return detail::Active::load(p); }
inline void store(double* p, dvec a) { detail::Active::store(p, a); }
inline double first(dvec a) { return detail::Active::first(a); }
inline dvec add(dvec a, dvec b) { return detail::Active::add(a, b); }
inline dvec sub(dvec a, dvec b) { return detail::Active::sub(a, b); }
inline dvec mul(dvec a, dvec b) { return detail::Active::mul(a, b); }
inline dvec div(dvec a, dvec b) { return detail::Active::div(a, b); }
inline dvec floor(dvec a) { return detail::Active::floor(a); }
inline dvec max(dvec a, dvec b) { return detail::Active::max(a, b); }
inline dvec min(dvec a, dvec b) { return detail::Active::min(a, b); }
inline dvec fmadd(dvec a, dvec b, dvec c) { return detail::Active::fmadd(a, b, c); }
inline dvec fnmadd(dvec a, dvec b, dvec c) { return detail::Active::fnmadd(a, b, c); }
inline dvec fmsub(dvec a, dvec b, dvec c) { return detail::Active::fmsub(a, b, c); }
inline dvec bit_and(dvec a, dvec b) { return detail::Active::bit_and(a, b); }
inline dvec bit_or(dvec a, dvec b) { return detail::Active::bit_or(a, b); }
inline dvec bit_xor(dvec a, dvec b) { return detail::Active::bit_xor(a, b); }
inline dvec bit_andnot(dvec a, dvec b) { return detail::Active::bit_andnot(a, b); }
inline mask cmp_eq(dvec a, dvec b) { return detail::Active::cmp_eq(a, b); }
inline mask cmp_ge(dvec a, dvec b) { return detail::Active::cmp_ge(a, b); }
inline mask cmp_gt(dvec a, dvec b) { return detail::Active::cmp_gt(a, b); }
inline dvec blend(mask m, dvec a, dvec b) { return detail::Active::blend(m, a, b); }
inline mask m_splat(bool b) { return detail::Active::m_splat(b); }
inline mask m_and(mask a, mask b) { return detail::Active::m_and(a, b); }
inline mask m_or(mask a, mask b) { return detail::Active::m_or(a, b); }
inline unsigned movemask(mask m) { return detail::Active::movemask(m); }
inline ivec i_splat(std::int64_t x) { return detail::Active::i_splat(x); }
inline ivec i_load(const std::int64_t* p) { return detail::Active::i_load(p); }
inline void i_store(std::int64_t* p, ivec a) { detail::Active::i_store(p, a); }
inline ivec i_add(ivec a, ivec b) { return detail::Active::i_add(a, b); }
inline ivec i_or(ivec a, ivec b) { return detail::Active::i_or(a, b); }
inline ivec i_xor(ivec a, ivec b) { return detail::Active::i_xor(a, b); }
/// Low 64 bits of the lane-wise product (wraps mod 2^64).
inline ivec i_mul(ivec a, ivec b) { return detail::Active::i_mul(a, b); }
/// Logical (zero-filling) right shift by N bits.
template <int N>
inline ivec i_srl(ivec a) {
    return detail::Active::template i_srl<N>(a);
}
inline ivec d2i_exact(dvec a) { return detail::Active::d2i_exact(a); }
/// The lanes' bit patterns as doubles, no value conversion.
inline dvec as_d(ivec a) { return detail::Active::as_d(a); }

/// a[k] / b[k] in place for y[k] == 1.0 / b[k], bit for bit what
/// div(a[k], b[k]) returns; see detail::div_by_t. For a loop-invariant
/// divisor: one reciprocal, then no divider operation per vector.
template <int K>
[[gnu::always_inline]] inline void div_by(dvec (&a)[K], const dvec (&b)[K], const dvec (&y)[K]) {
    detail::div_by_t<detail::Active, K>(a, b, y);
}
inline dvec div_by(dvec a, dvec b, dvec y) {
    dvec q[1] = {a};
    const dvec bb[1] = {b};
    const dvec yy[1] = {y};
    div_by(q, bb, yy);
    return q[0];
}

/// div_by without its range check, for operands the caller has proven
/// inside the range in every lane (kDivByMinDivisor <= b <=
/// kDivByMaxDivisor, and a = +-0 or kDivByMinNumerator <= |a| <=
/// kDivByMaxNumerator); see detail::div_in_range_t. No compare, no
/// branch and no divider operation per vector.
template <int K>
[[gnu::always_inline]] inline void div_by_in_range(dvec (&a)[K], const dvec (&b)[K],
                                                   const dvec (&y)[K]) {
    detail::div_in_range_t<detail::Active, K>(a, b, y);
}

/// tanh of K vectors in place, their chains interleaved.
template <int K>
[[gnu::always_inline]] inline void vtanh(dvec (&x)[K]) {
    detail::tanh_t<detail::Active, K>(x);
}
inline dvec vtanh(dvec x) {
    dvec a[1] = {x};
    vtanh(a);
    return a[0];
}
/// One standard normal deviate per lane from that lane's 64-bit draw.
inline dvec vgauss(ivec bits) { return detail::gauss_t<detail::Active>(bits); }

/// Scalar tanh through the vector pipeline; the engines' shared
/// transcendental (magnetics::TanhCore calls this, so scalar, block
/// and lane paths agree bit-for-bit by construction).
[[nodiscard]] inline double tanh1(double x) { return first(vtanh(splat(x))); }

/// Scalar Gaussian through the vector pipeline: every engine's pickup
/// noise (analog::NoiseSource) draws through this, and the lane engine
/// through vgauss, so the paths agree bit-for-bit by construction.
[[nodiscard]] inline double gauss1(std::uint64_t bits) {
    return first(vgauss(i_splat(static_cast<std::int64_t>(bits))));
}

}  // namespace fxg::util::simd
