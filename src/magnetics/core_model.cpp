#include "magnetics/core_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/simd.hpp"

namespace fxg::magnetics {

namespace {

void require_positive(double v, const char* what) {
    if (!(v > 0.0)) throw std::invalid_argument(std::string(what) + " must be > 0");
}

void require_state_size(const std::vector<double>& state, std::size_t expected,
                        const char* what) {
    if (state.size() != expected) {
        throw std::invalid_argument(std::string(what) + " state size mismatch");
    }
}

}  // namespace

void CoreModel::advance_block(const double* h, double* m_out, int n) {
    for (int k = 0; k < n; ++k) m_out[k] = advance(h[k]);
}

// ---------------------------------------------------------------- TanhCore

TanhCore::TanhCore(double ms, double hk, double ms_temp_coeff_per_c,
                   double hk_temp_coeff_per_c, double t_ref_c)
    : ms_(ms), hk_(hk), ms0_(ms), hk0_(hk), ms_tc_(ms_temp_coeff_per_c),
      hk_tc_(hk_temp_coeff_per_c), t_ref_c_(t_ref_c) {
    require_positive(ms, "TanhCore ms");
    require_positive(hk, "TanhCore hk");
}

double TanhCore::ms_at(double temp_c) const noexcept {
    const double v = ms0_ * (1.0 + ms_tc_ * (temp_c - t_ref_c_));
    return v > 1e-12 ? v : 1e-12;
}

double TanhCore::hk_at(double temp_c) const noexcept {
    const double v = hk0_ * (1.0 + hk_tc_ * (temp_c - t_ref_c_));
    return v > 1e-12 ? v : 1e-12;
}

void TanhCore::set_temperature(double temp_c) {
    ms_ = ms_at(temp_c);
    hk_ = hk_at(temp_c);
}

// util::simd::tanh1 rather than std::tanh: the lane engine evaluates
// this saturation curve with the vector tanh, and bit-identity between
// per-member and lane execution requires one tanh shared by every
// engine path. tanh1 *is* the vector implementation run on one lane.
double TanhCore::magnetisation(double h) const {
    return ms_ * util::simd::tanh1(h / hk_);
}

double TanhCore::advance(double h) {
    last_h_ = h;
    return magnetisation(h);
}

void TanhCore::advance_block(const double* h, double* m_out, int n) {
    if (n <= 0) return;
    namespace simd = util::simd;
    constexpr int W = simd::kLanes;
    // Same expression as magnetisation(): K stripes of kLanes samples
    // per K-wide vtanh, then single stripes, then a scalar tail; each
    // lane rounds exactly like the scalar expression (the
    // lane-independence contract of util/simd.hpp). h / hk goes through
    // the reciprocal of hk (simd::div_by): one product and Markstein's
    // fma correction give the correctly rounded quotient, the very bits
    // of IEEE division (DESIGN.md section 12), without a divider
    // operation per stripe.
    constexpr int K = 4;
    const simd::dvec ms = simd::splat(ms_);
    const simd::dvec hk = simd::splat(hk_);
    const simd::dvec rhk = simd::splat(1.0 / hk_);
    const simd::dvec hks[K] = {hk, hk, hk, hk};
    const simd::dvec rhks[K] = {rhk, rhk, rhk, rhk};
    int k = 0;
    for (; k + K * W <= n; k += K * W) {
        simd::dvec x[K];
        #pragma GCC unroll 8
        for (int j = 0; j < K; ++j) x[j] = simd::load(h + k + j * W);
        simd::div_by(x, hks, rhks);
        simd::vtanh(x);
        #pragma GCC unroll 8
        for (int j = 0; j < K; ++j) simd::store(m_out + k + j * W, simd::mul(ms, x[j]));
    }
    for (; k + W <= n; k += W) {
        simd::store(m_out + k,
                    simd::mul(ms, simd::vtanh(simd::div_by(simd::load(h + k), hk, rhk))));
    }
    for (; k < n; ++k) m_out[k] = ms_ * simd::tanh1(h[k] / hk_);
    last_h_ = h[n - 1];
}

double TanhCore::susceptibility() const {
    const double t = util::simd::tanh1(last_h_ / hk_);
    return (ms_ / hk_) * (1.0 - t * t);
}

void TanhCore::reset() { last_h_ = 0.0; }

std::unique_ptr<CoreModel> TanhCore::clone() const {
    return std::make_unique<TanhCore>(*this);
}

std::vector<double> TanhCore::save_state() const { return {last_h_}; }

void TanhCore::load_state(const std::vector<double>& state) {
    require_state_size(state, 1, "TanhCore");
    last_h_ = state[0];
}

// ------------------------------------------------------------ LangevinCore

namespace {

/// Langevin function L(x) = coth(x) - 1/x with a series fallback near 0.
double langevin(double x) {
    if (std::fabs(x) < 1e-4) return x / 3.0 - x * x * x / 45.0;
    return 1.0 / std::tanh(x) - 1.0 / x;
}

/// dL/dx = 1/x^2 - csch^2(x).
double langevin_slope(double x) {
    if (std::fabs(x) < 1e-4) return 1.0 / 3.0 - x * x / 15.0;
    const double s = std::sinh(x);
    return 1.0 / (x * x) - 1.0 / (s * s);
}

}  // namespace

LangevinCore::LangevinCore(double ms, double a) : ms_(ms), a_(a) {
    require_positive(ms, "LangevinCore ms");
    require_positive(a, "LangevinCore a");
}

double LangevinCore::magnetisation(double h) const { return ms_ * langevin(h / a_); }

double LangevinCore::advance(double h) {
    last_h_ = h;
    return magnetisation(h);
}

void LangevinCore::advance_block(const double* h, double* m_out, int n) {
    if (n <= 0) return;
    for (int k = 0; k < n; ++k) m_out[k] = ms_ * langevin(h[k] / a_);
    last_h_ = h[n - 1];
}

double LangevinCore::susceptibility() const {
    return (ms_ / a_) * langevin_slope(last_h_ / a_);
}

void LangevinCore::reset() { last_h_ = 0.0; }

std::unique_ptr<CoreModel> LangevinCore::clone() const {
    return std::make_unique<LangevinCore>(*this);
}

std::vector<double> LangevinCore::save_state() const { return {last_h_}; }

void LangevinCore::load_state(const std::vector<double>& state) {
    require_state_size(state, 1, "LangevinCore");
    last_h_ = state[0];
}

// ------------------------------------------------------- JilesAthertonCore

JilesAthertonCore::JilesAthertonCore(const JilesAthertonParams& p) : p_(p) {
    require_positive(p.ms, "JilesAtherton ms");
    require_positive(p.a, "JilesAtherton a");
    require_positive(p.k, "JilesAtherton k");
    if (p.c < 0.0 || p.c > 1.0) throw std::invalid_argument("JilesAtherton c in [0,1]");
    if (p.alpha < 0.0) throw std::invalid_argument("JilesAtherton alpha >= 0");
}

double JilesAthertonCore::anhysteretic(double he) const {
    return p_.ms * langevin(he / p_.a);
}

double JilesAthertonCore::anhysteretic_slope(double he) const {
    return (p_.ms / p_.a) * langevin_slope(he / p_.a);
}

double JilesAthertonCore::advance(double h) {
    // Sub-step the field change so the explicit integration of dM/dH stays
    // stable across large excitation steps. The pinning denominator can
    // approach zero near turning points; it is floored to keep dM/dH finite.
    const double dh_total = h - h_;
    if (dh_total == 0.0) return m_;
    const double max_step = p_.a / 10.0;
    const int n_sub = std::max(1, static_cast<int>(std::ceil(std::fabs(dh_total) / max_step)));
    const double dh = dh_total / n_sub;
    const double delta = dh > 0.0 ? 1.0 : -1.0;
    for (int i = 0; i < n_sub; ++i) {
        const double he = h_ + p_.alpha * m_;
        const double man = anhysteretic(he);
        const double dman = anhysteretic_slope(he);
        double denom = delta * p_.k - p_.alpha * (man - m_);
        const double floor_mag = 0.01 * p_.k;
        if (std::fabs(denom) < floor_mag) denom = (denom >= 0.0 ? floor_mag : -floor_mag);
        double dmirr_dh = (man - m_) / denom;
        // Physical constraint: irreversible change cannot oppose the
        // direction toward the anhysteretic curve.
        if (dmirr_dh * delta * (man - m_) < 0.0) dmirr_dh = 0.0;
        const double dmdh = (dmirr_dh + p_.c * dman) / (1.0 + p_.c);
        m_ += dmdh * dh;
        h_ += dh;
        last_dmdh_ = dmdh;
    }
    m_ = std::clamp(m_, -p_.ms, p_.ms);
    return m_;
}

void JilesAthertonCore::reset() {
    m_ = 0.0;
    h_ = 0.0;
    last_dmdh_ = 0.0;
}

std::unique_ptr<CoreModel> JilesAthertonCore::clone() const {
    return std::make_unique<JilesAthertonCore>(*this);
}

std::vector<double> JilesAthertonCore::save_state() const {
    return {m_, h_, last_dmdh_};
}

void JilesAthertonCore::load_state(const std::vector<double>& state) {
    require_state_size(state, 3, "JilesAthertonCore");
    m_ = state[0];
    h_ = state[1];
    last_dmdh_ = state[2];
}

}  // namespace fxg::magnetics
