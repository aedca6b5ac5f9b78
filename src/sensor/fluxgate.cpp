#include "sensor/fluxgate.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "magnetics/units.hpp"
#include "util/simd.hpp"

namespace fxg::sensor {

FluxgateSensor::FluxgateSensor(FluxgateParams params,
                               std::unique_ptr<magnetics::CoreModel> core)
    : params_(std::move(params)), core_(std::move(core)) {
    if (!core_) {
        core_ = std::make_unique<magnetics::TanhCore>(
            params_.ms_a_per_m, params_.hk_a_per_m, params_.ms_temp_coeff_per_c,
            params_.hk_temp_coeff_per_c, params_.t_ref_c);
    }
    temp_sensitive_ = params_.ms_temp_coeff_per_c != 0.0 ||
                      params_.hk_temp_coeff_per_c != 0.0 ||
                      params_.sens_temp_coeff_per_c != 0.0;
}

FluxgateSensor::FluxgateSensor(const FluxgateSensor& other)
    : params_(other.params_), core_(other.core_->clone()),
      temp_sensitive_(other.temp_sensitive_), fpa_scale_(other.fpa_scale_),
      h_ext_(other.h_ext_),
      h_core_(other.h_core_), b_core_(other.b_core_), v_pickup_(other.v_pickup_),
      v_excitation_(other.v_excitation_),
      lambda_pickup_prev_(other.lambda_pickup_prev_),
      lambda_exc_prev_(other.lambda_exc_prev_), first_step_(other.first_step_) {}

double FluxgateSensor::step(double i_excitation_a, double dt_s) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("FluxgateSensor::step: dt must be > 0");
    const Constants c = constants();
    h_core_ = c.field_per_amp * i_excitation_a + c.h_ext;
    const double m = core_->advance(h_core_);
    b_core_ = magnetics::kMu0 * (h_core_ + m);
    const double lambda_pickup = c.na_pickup * b_core_;
    const double lambda_exc = c.na_excitation * b_core_;
    if (first_step_) {
        // No derivative available on the very first sample.
        v_pickup_ = 0.0;
        v_excitation_ = c.r_excitation * i_excitation_a;
        first_step_ = false;
    } else {
        // Winding sense chosen as in the paper's Figure 3 (V_ind = dPhi/dt):
        // the positive pickup pulse rides the rising excitation ramp, so
        // the detector duty cycle increases with +H_ext.
        v_pickup_ = (lambda_pickup - lambda_pickup_prev_) / dt_s;
        v_excitation_ =
            c.r_excitation * i_excitation_a + (lambda_exc - lambda_exc_prev_) / dt_s;
    }
    lambda_pickup_prev_ = lambda_pickup;
    lambda_exc_prev_ = lambda_exc;
    return v_pickup_;
}

void FluxgateSensor::step_block(const double* i_exc, double dt_s, int n, double* v_out) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("FluxgateSensor::step: dt must be > 0");
    if (n <= 0) return;
    namespace simd = util::simd;
    constexpr int W = simd::kLanes;
    // Scratch per thread, not per sensor: its capacity persists across
    // blocks, and memory grows with threads rather than sensors.
    thread_local std::vector<double> blk_h, blk_m;
    blk_h.resize(static_cast<std::size_t>(n));
    blk_m.resize(static_cast<std::size_t>(n));
    double* h = blk_h.data();
    double* m = blk_m.data();
    // Every element runs step()'s expressions in step()'s association,
    // with the constants hoisted, and a vector lane rounds as the
    // scalar expression does (util/simd.hpp), so the stripes and their
    // scalar tails are bit-identical to n step() calls.
    const Constants c = constants();
    const simd::dvec fpa_v = simd::splat(c.field_per_amp);
    const simd::dvec h_ext_v = simd::splat(c.h_ext);
    int k = 0;
    for (; k + W <= n; k += W) {
        simd::store(h + k, simd::add(simd::mul(fpa_v, simd::load(i_exc + k)), h_ext_v));
    }
    for (; k < n; ++k) h[k] = c.field_per_amp * i_exc[k] + c.h_ext;
    core_->advance_block(h, m, n);

    // Pickup linkage lambda = (N A) B with B = mu0 (H + M), and its
    // derivative (lambda[k] - lambda[k-1]) / dt. Each stripe recomputes
    // its predecessors' linkage from H and M instead of carrying it, so
    // stripes are independent.
    const auto flux = [&](int j) { return magnetics::kMu0 * (h[j] + m[j]); };
    const auto linkage = [&](int j) { return c.na_pickup * flux(j); };
    const simd::dvec nap_v = simd::splat(c.na_pickup);
    const simd::dvec mu0_v = simd::splat(magnetics::kMu0);
    const simd::dvec dt_v = simd::splat(dt_s);
    const simd::dvec rdt_v = simd::splat(1.0 / dt_s);
    const auto linkage_v = [&](int j) {
        return simd::mul(nap_v,
                         simd::mul(mu0_v, simd::add(simd::load(h + j), simd::load(m + j))));
    };
    // No derivative exists on the very first sample. The stripes divide
    // through the reciprocal of dt (simd::div_by, the bits of IEEE
    // division; DESIGN.md section 12).
    v_out[0] = first_step_ ? 0.0 : (linkage(0) - lambda_pickup_prev_) / dt_s;
    for (k = 1; k + W <= n; k += W) {
        simd::store(v_out + k,
                    simd::div_by(simd::sub(linkage_v(k), linkage_v(k - 1)), dt_v, rdt_v));
    }
    for (; k < n; ++k) v_out[k] = (linkage(k) - linkage(k - 1)) / dt_s;

    end_block(n, dt_s, i_exc[n - 1], h[n - 1], flux(n - 1), n >= 2 ? flux(n - 2) : 0.0,
              v_out[n - 1]);
}

void FluxgateSensor::end_block(int n, double dt_s, double i_last, double h, double b,
                               double b_prev, double v_pickup) noexcept {
    // Only the last step's excitation-winding voltage survives a block,
    // so it is computed once, from the last two linkages.
    const Constants c = constants();
    const double le = c.na_excitation * b;
    const double le_prev = n >= 2 ? c.na_excitation * b_prev : lambda_exc_prev_;
    v_excitation_ = n == 1 && first_step_
                        ? c.r_excitation * i_last
                        : c.r_excitation * i_last + (le - le_prev) / dt_s;
    h_core_ = h;
    b_core_ = b;
    v_pickup_ = v_pickup;
    lambda_pickup_prev_ = c.na_pickup * b;
    lambda_exc_prev_ = le;
    first_step_ = false;
}

void FluxgateSensor::step_block_constant(double i_excitation_a, double dt_s, int n) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("FluxgateSensor::step: dt must be > 0");
    if (n <= 0) return;
    // With a constant drive the core field is constant, so after the
    // first step the flux linkages stop changing and every further step
    // returns v_pickup = 0 while leaving the state fixed. Two real steps
    // therefore reproduce the state after any n >= 2 steps exactly
    // (hysteretic cores see dh = 0 on the second step and hold).
    step(i_excitation_a, dt_s);
    if (n > 1) step(i_excitation_a, dt_s);
}

bool FluxgateSensor::saturated() const noexcept {
    return std::fabs(h_core_) > core_->knee_field();
}

void FluxgateSensor::reset() {
    core_->reset();
    h_core_ = 0.0;
    b_core_ = 0.0;
    v_pickup_ = 0.0;
    v_excitation_ = 0.0;
    lambda_pickup_prev_ = 0.0;
    lambda_exc_prev_ = 0.0;
    first_step_ = true;
}

double ideal_duty_cycle(double ha, double hk, double hext) {
    if (!(ha > 0.0)) throw std::invalid_argument("ideal_duty_cycle: ha must be > 0");
    if (std::fabs(hext) + hk >= ha) {
        throw std::domain_error(
            "ideal_duty_cycle: |hext| + hk must stay below the excitation "
            "amplitude (core must saturate both ways)");
    }
    return 0.5 + hext / (2.0 * ha);
}

}  // namespace fxg::sensor
