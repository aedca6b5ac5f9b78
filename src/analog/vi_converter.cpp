#include "analog/vi_converter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/simd.hpp"

namespace fxg::analog {

ViConverter::ViConverter(const ViConverterConfig& config) : config_(config) {
    if (!(config.supply_v > 0.0)) {
        throw std::invalid_argument("ViConverter: supply must be > 0");
    }
    if (config.headroom_v < 0.0 || 2.0 * config.headroom_v >= config.supply_v) {
        throw std::invalid_argument("ViConverter: headroom out of range");
    }
}

double ViConverter::compliance_limit(double r_load_ohm) const {
    if (!(r_load_ohm > 0.0)) {
        throw std::invalid_argument("ViConverter: load resistance must be > 0");
    }
    // A balanced differential stage can place the full (supply - 2x
    // headroom) across the load; a single-ended one only half of it.
    double swing = config_.supply_v - 2.0 * config_.headroom_v;
    if (!config_.balanced_differential) swing *= 0.5;
    return swing / r_load_ohm;
}

double ViConverter::drive(double i_command_a, double r_load_ohm) const {
    // The sensor's own resistance degenerates the output stage: residual
    // nonlinearity drops as r_load grows past the linearising resistance.
    const double lin = config_.nonlinearity /
                       (1.0 + r_load_ohm / config_.linearising_r_ohm);
    const double u = i_command_a / config_.full_scale_a;
    double i = (1.0 + config_.gain_error) * i_command_a +
               lin * config_.full_scale_a * u * u * u;
    const double limit = compliance_limit(r_load_ohm);
    i = std::clamp(i, -limit, limit);
    return i;
}

void ViConverter::drive_block(const double* i_command_a, double r_load_ohm, int n,
                              double* out) const {
    if (n <= 0) return;
    const double lin = config_.nonlinearity /
                       (1.0 + r_load_ohm / config_.linearising_r_ohm);
    const double limit = compliance_limit(r_load_ohm);
    const double gain = 1.0 + config_.gain_error;
    const double full_scale = config_.full_scale_a;
    const double lin_fs = lin * full_scale;
    // Same association as drive(): (((lin*fs)*u)*u)*u. The vector clamp
    // is max(lo, .) then min(hi, .) in this operand order, which returns
    // exactly std::clamp(i, lo, hi) for every input, NaN included.
    namespace simd = util::simd;
    const simd::dvec gain_v = simd::splat(gain);
    const simd::dvec fs_v = simd::splat(full_scale);
    const simd::dvec lin_fs_v = simd::splat(lin_fs);
    const simd::dvec lo_v = simd::splat(-limit);
    const simd::dvec hi_v = simd::splat(limit);
    int k = 0;
    for (; k + simd::kLanes <= n; k += simd::kLanes) {
        const simd::dvec cmd = simd::load(i_command_a + k);
        const simd::dvec u = simd::div(cmd, fs_v);
        const simd::dvec i = simd::add(
            simd::mul(gain_v, cmd), simd::mul(simd::mul(simd::mul(lin_fs_v, u), u), u));
        simd::store(out + k, simd::min(hi_v, simd::max(lo_v, i)));
    }
    for (; k < n; ++k) {
        const double u = i_command_a[k] / full_scale;
        const double i = gain * i_command_a[k] + lin_fs * u * u * u;
        out[k] = std::clamp(i, -limit, limit);
    }
}

double ViConverter::max_drivable_resistance(double i_peak_a) const {
    if (!(i_peak_a > 0.0)) {
        throw std::invalid_argument("ViConverter: peak current must be > 0");
    }
    double swing = config_.supply_v - 2.0 * config_.headroom_v;
    if (!config_.balanced_differential) swing *= 0.5;
    return swing / i_peak_a;
}

}  // namespace fxg::analog
