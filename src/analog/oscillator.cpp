#include "analog/oscillator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/exact.hpp"
#include "util/simd.hpp"

namespace fxg::analog {

TriangleOscillator::TriangleOscillator(const TriangleOscillatorConfig& config)
    : config_(config) {
    if (!(config.amplitude_a > 0.0)) {
        throw std::invalid_argument("TriangleOscillator: amplitude must be > 0");
    }
    if (!(config.frequency_hz > 0.0)) {
        throw std::invalid_argument("TriangleOscillator: frequency must be > 0");
    }
    if (config.correction_gain < 0.0 || config.correction_gain > 1.0) {
        throw std::invalid_argument("TriangleOscillator: correction_gain in [0,1]");
    }
}

double TriangleOscillator::unit_triangle(double phase) noexcept {
    // Starts at 0 rising: 0..0.25 -> +1, 0.25..0.75 -> -1, 0.75..1 -> 0.
    if (phase < 0.25) return 4.0 * phase;
    if (phase < 0.75) return 2.0 - 4.0 * phase;
    return -4.0 + 4.0 * phase;
}

double TriangleOscillator::step(double dt_s) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("TriangleOscillator: dt must be > 0");
    time_s_ += dt_s;
    phase_ += phase_step(dt_s);
    bool period_wrapped = false;
    if (phase_ >= 1.0) {
        phase_ -= std::floor(phase_);
        period_wrapped = true;
    }
    const double w = unit_triangle(phase_);
    // Cubic bowing keeps the waveform odd-symmetric (no DC contribution)
    // while distorting the ramps — "linearity is not very essential".
    const double shaped = w + config_.curvature * (w * w * w - w);
    double out = config_.amplitude_a * (1.0 + config_.amplitude_error) *
                     fault_.amplitude_scale * shaped +
                 (config_.dc_offset_a + fault_.extra_dc_a) + correction_a_;

    // Offset correction loop: average the delivered current over one
    // period, remove a fraction of it at the period boundary. A stuck
    // loop (injected fault) holds its last correction forever.
    period_integral_ += out * dt_s;
    period_time_ += dt_s;
    if (period_wrapped && config_.offset_correction && !fault_.correction_stuck &&
        period_time_ > 0.0) {
        const double mean = period_integral_ / period_time_;
        correction_a_ -= config_.correction_gain * mean;
        period_integral_ = 0.0;
        period_time_ = 0.0;
    } else if (period_wrapped) {
        period_integral_ = 0.0;
        period_time_ = 0.0;
    }
    output_ = out;
    return out;
}

void TriangleOscillator::step_block(double dt_s, int n, double* out) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("TriangleOscillator: dt must be > 0");
    if (n <= 0) return;
    if (rotates(dt_s)) {
        step_block_rotation(dt_s, phase_step(dt_s), n, out);
    } else {
        step_block_loop(dt_s, n, out);
    }
}

bool TriangleOscillator::rotates(double dt_s) const noexcept {
    const double step = phase_step(dt_s);
    return phase_ >= 0.0 && phase_ < 1.0 && step > 0.0 && step < 1.0 &&
           util::on_unit_grid(phase_) && util::on_unit_grid(step);
}

void TriangleOscillator::step_block_rotation(double dt_s, double step, int n, double* out) {
    // Four lanes at most: the period integral's additions run beside
    // these vectors, and a 512-bit instruction in flight slows them
    // (util::simd::Narrow).
    using V = util::simd::Narrow;
    // The phase and its step in units of 2^-52. Each phase addition is
    // exact (the sum is below 2), and so is the wrap's subtraction of 1,
    // so the phase after sample j of a segment that starts at p is
    // p + j * inc, minus 2^52 on the sample where it reaches 2^52.
    constexpr std::uint64_t kOne = std::uint64_t{1} << 52;
    auto p = static_cast<std::uint64_t>(phase_ * 0x1p52);
    const auto inc = static_cast<std::uint64_t>(step * 0x1p52);
    double correction = correction_a_;
    double period_integral = period_integral_;
    double period_time = period_time_;
    const bool correct = config_.offset_correction && !fault_.correction_stuck;
    const double correction_gain = config_.correction_gain;
    const double curvature = config_.curvature;
    const double gain =
        config_.amplitude_a * (1.0 + config_.amplitude_error) * fault_.amplitude_scale;
    const double dc_offset = config_.dc_offset_a + fault_.extra_dc_a;

    // step()'s expressions, a stripe of V::kLanes samples at a time:
    // lane l of a segment's first stripe holds the phase after its
    // sample l + 1, and each stripe adds kLanes steps. Every such sum
    // below 2 is exact, and the lanes the stripes keep stay below 1
    // (only dropped lanes past their end reach it), so no stripe wraps.
    // A segment has a second stripe only when kLanes steps stay below
    // 1, so the stride is exact wherever it is used. unit_triangle's
    // three ramps, 4x, 2 - 4x and -4 + 4x, are exact at these phases,
    // so the triangle is their min/max form,
    // min(4x, max(2 - 4x, -4 + 4x)), which selects the same value.
    alignas(32) double lane_steps[V::kLanes];
    for (int l = 0; l < V::kLanes; ++l) lane_steps[l] = static_cast<double>(l + 1) * step;
    const V::D first_steps = V::load(lane_steps);
    const V::D stripe_step = V::splat(V::kLanes * step);
    const V::D two = V::splat(2.0);
    const V::D four = V::splat(4.0);
    const V::D minus_four = V::splat(-4.0);
    const V::D curvature_v = V::splat(curvature);
    const V::D gain_v = V::splat(gain);
    const V::D dc_offset_v = V::splat(dc_offset);
    const V::D dt_v = V::splat(dt_s);

    int k = 0;
    while (k < n) {
        // The segment runs to the first sample whose phase reaches 1 (it
        // wraps, and its output still takes the old correction), or to
        // the block's end. The stripes cover the samples before a wrap.
        const std::uint64_t to_wrap = (kOne - p + inc - 1) / inc;
        const bool wraps = to_wrap <= static_cast<std::uint64_t>(n - k);
        const int len = wraps ? static_cast<int>(to_wrap) : n - k;
        const int before_wrap = wraps ? len - 1 : len;
        const V::D corr = V::splat(correction);
        V::D phase = V::add(V::splat(static_cast<double>(p) * 0x1p-52), first_steps);
        double* const seg = out + k;
        // One stripe's outputs into `o`, and each output times dt into
        // `term` (as step()'s product).
        alignas(32) double term[V::kLanes];
        const auto stripe = [&](double* o) {
            const V::D ramp = V::mul(four, phase);
            phase = V::add(phase, stripe_step);
            const V::D w =
                V::min(ramp, V::max(V::sub(two, ramp), V::add(minus_four, ramp)));
            const V::D shaped =
                V::add(w, V::mul(curvature_v, V::sub(V::mul(V::mul(w, w), w), w)));
            const V::D out_v = V::add(V::add(V::mul(gain_v, shaped), dc_offset_v), corr);
            V::store(o, out_v);
            V::store(term, V::mul(out_v, dt_v));
        };
        // The period integral is the one sum whose terms vary: its
        // additions follow each stripe, beside the next stripe's vectors.
        int j = 0;
        for (; j + V::kLanes <= before_wrap; j += V::kLanes) {
            stripe(seg + j);
#pragma GCC unroll 4
            for (int l = 0; l < V::kLanes; ++l) period_integral += term[l];
        }
        if (j < before_wrap) {
            alignas(32) double tail[V::kLanes];
            stripe(tail);
            std::copy(tail, tail + (before_wrap - j), seg + j);
            for (int l = 0; l < before_wrap - j; ++l) period_integral += term[l];
        }
        period_time = util::repeated_add(period_time, dt_s, len);
        p += static_cast<std::uint64_t>(len) * inc;
        if (wraps) {
            p -= kOne;
            const double w = unit_triangle(static_cast<double>(p) * 0x1p-52);
            const double shaped = w + curvature * (w * w * w - w);
            const double o = gain * shaped + dc_offset + correction;
            seg[len - 1] = o;
            period_integral += o * dt_s;
            if (correct && period_time > 0.0) {
                const double mean = period_integral / period_time;
                correction -= correction_gain * mean;
            }
            period_integral = 0.0;
            period_time = 0.0;
        }
        k += len;
    }
    time_s_ = util::repeated_add(time_s_, dt_s, n);
    phase_ = static_cast<double>(p) * 0x1p-52;
    output_ = out[n - 1];
    correction_a_ = correction;
    period_integral_ = period_integral;
    period_time_ = period_time;
}

void TriangleOscillator::step_block_loop(double dt_s, int n, double* out) {
    // State in registers; expression shapes match step() exactly so the
    // emitted samples are bit-identical to the scalar path.
    double time_s = time_s_;
    double phase = phase_;
    double correction = correction_a_;
    double period_integral = period_integral_;
    double period_time = period_time_;
    const double step = phase_step(dt_s);
    const double gain =
        config_.amplitude_a * (1.0 + config_.amplitude_error) * fault_.amplitude_scale;
    const double curvature = config_.curvature;
    const double dc_offset = config_.dc_offset_a + fault_.extra_dc_a;
    const bool correct = config_.offset_correction && !fault_.correction_stuck;
    const double correction_gain = config_.correction_gain;
    for (int k = 0; k < n; ++k) {
        time_s += dt_s;
        phase += step;
        bool period_wrapped = false;
        if (phase >= 1.0) {
            phase -= std::floor(phase);
            period_wrapped = true;
        }
        const double w = unit_triangle(phase);
        const double shaped = w + curvature * (w * w * w - w);
        const double o = gain * shaped + dc_offset + correction;
        period_integral += o * dt_s;
        period_time += dt_s;
        if (period_wrapped) {
            if (correct && period_time > 0.0) {
                const double mean = period_integral / period_time;
                correction -= correction_gain * mean;
            }
            period_integral = 0.0;
            period_time = 0.0;
        }
        out[k] = o;
    }
    time_s_ = time_s;
    phase_ = phase;
    output_ = out[n - 1];
    correction_a_ = correction;
    period_integral_ = period_integral;
    period_time_ = period_time;
}

void TriangleOscillator::reset() {
    time_s_ = 0.0;
    phase_ = 0.0;
    output_ = 0.0;
    correction_a_ = 0.0;
    period_integral_ = 0.0;
    period_time_ = 0.0;
}

}  // namespace fxg::analog
