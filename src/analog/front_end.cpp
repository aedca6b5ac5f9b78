#include "analog/front_end.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/simd.hpp"

namespace fxg::analog {

void FrontEndBlock::resize(int n) {
    const auto words = static_cast<std::size_t>(util::bits::words_for(n));
    for (auto& d : detector) d.assign(words, 0);
    for (auto& v : valid) v.assign(words, 0);
    power_w.resize(static_cast<std::size_t>(n < 0 ? 0 : n));
}

sensor::FluxgateParams FrontEnd::y_params(const FrontEndConfig& config) {
    sensor::FluxgateParams p = config.sensor;
    p.n_excitation *= (1.0 + config.sensor_mismatch);
    p.sens_temp_coeff_per_c += config.sensor_temp_mismatch_per_c;
    p.label += " (y)";
    return p;
}

FrontEnd::FrontEnd(const FrontEndConfig& config)
    : config_(config), oscillator_(config.oscillator), oscillator_y_(config.oscillator),
      vi_(config.vi),
      sensors_{sensor::FluxgateSensor(config.sensor,
                                      sensor::make_core(config.sensor,
                                                        config.core_kind)),
               sensor::FluxgateSensor(y_params(config),
                                      sensor::make_core(y_params(config),
                                                        config.core_kind))},
      detectors_{PulsePositionDetector(config.detector),
                 PulsePositionDetector(config.detector)},
      mux_(config.mux_settle_s),
      // Unit-variance source; noise_sample() applies the band-limited
      // scaling per step.
      pickup_noise_(1.0, config.noise_seed) {
    if (!(std::isfinite(config.pickup_noise_rms_v) && config.pickup_noise_rms_v >= 0.0)) {
        throw std::invalid_argument("FrontEnd: pickup noise rms must be finite and >= 0");
    }
    if (!(std::isfinite(config.pickup_noise_bandwidth_hz) &&
          config.pickup_noise_bandwidth_hz > 0.0)) {
        throw std::invalid_argument(
            "FrontEnd: pickup noise bandwidth must be finite and > 0");
    }
}

FrontEnd::NoiseShape FrontEnd::noise_shape(double dt_s) const noexcept {
    // AR(1) shaping: y += alpha (w - y), with the unit-variance white
    // drive scaled so the stationary RMS of y equals the configured
    // value regardless of the simulation step.
    const double alpha = std::clamp(
        1.0 - std::exp(-2.0 * std::numbers::pi * config_.pickup_noise_bandwidth_hz *
                       dt_s),
        1e-9, 1.0);
    return {alpha, config_.pickup_noise_rms_v * std::sqrt((2.0 - alpha) / alpha)};
}

double FrontEnd::noise_sample(double dt_s) {
    if (config_.pickup_noise_rms_v == 0.0) return 0.0;
    const auto [alpha, drive_rms] = noise_shape(dt_s);
    noise_state_ += alpha * (pickup_noise_.sample() * drive_rms - noise_state_);
    return noise_state_;
}

void FrontEnd::set_field(Channel channel, double h_a_per_m) {
    sensors_[static_cast<std::size_t>(channel)].set_external_field(h_a_per_m);
}

void FrontEnd::apply_field_tick(const magnetics::FieldTick& tick) {
    sensors_[0].set_external_field(tick.hx_a_per_m);
    sensors_[1].set_external_field(tick.hy_a_per_m);
    sensors_[0].set_temperature(tick.temp_c);
    sensors_[1].set_temperature(tick.temp_c);
    ambient_temp_c_ = tick.temp_c;
}

void FrontEnd::set_field_source(std::shared_ptr<const magnetics::FieldSource> source) {
    field_source_ = std::move(source);
    if (field_source_ != nullptr) {
        apply_field_tick(field_source_->field_at(sample_index_));
    }
}

void FrontEnd::select(Channel channel) {
    if (mux_stuck_) return;  // fault: the control logic's request is lost
    if (config_.mode == FrontEndMode::Multiplexed) mux_.select(channel);
}

void FrontEnd::set_mux_stuck(Channel channel) {
    if (config_.mode == FrontEndMode::Multiplexed) mux_.select(channel);
    mux_stuck_ = true;
    mux_stuck_channel_ = channel;
}

void FrontEnd::reset_window() noexcept {
    stats_ = {};
    stats_prev_ = {};
    stats_has_prev_ = {};
}

void FrontEnd::finish_samples(int n, std::uint64_t* det_x, std::uint64_t* det_y,
                              std::uint64_t* valid_x, std::uint64_t* valid_y) {
    if (tap_ != nullptr) tap_->on_samples(sample_index_, n, det_x, det_y, valid_x, valid_y);
    sample_index_ += static_cast<std::uint64_t>(n);
    const std::uint64_t* det[2] = {det_x, det_y};
    const std::uint64_t* valid[2] = {valid_x, valid_y};
    const int words = util::bits::words_for(n);
    for (std::size_t ch = 0; ch < 2; ++ch) {
        StreamStats s = stats_[ch];
        std::uint8_t prev = stats_prev_[ch] != 0 ? 1 : 0;
        bool has_prev = stats_has_prev_[ch];
        s.samples += static_cast<std::uint64_t>(n);
        for (int w = 0; w < words; ++w) {
            fold_stream_word(s, prev, has_prev, det[ch][w], valid[ch][w],
                             util::bits::bits_in_word(n, w));
        }
        stats_[ch] = s;
        stats_prev_[ch] = prev;
        stats_has_prev_[ch] = has_prev;
    }
}

double FrontEnd::momentary_power_w(double i_excitation_a) const {
    if (!enabled_) return config_.leakage_a * config_.supply_v;
    const int instances = config_.mode == FrontEndMode::Multiplexed ? 1 : 2;
    const double bias = config_.osc_bias_a * oscillator_count() +
                        (config_.vi_bias_a + config_.det_bias_a) * instances;
    // The excitation current is sourced from the supply through the
    // driver; in simultaneous mode both drivers deliver it at once.
    const double drive = std::fabs(i_excitation_a) * instances;
    return (bias + drive) * config_.supply_v;
}

namespace {

/// Routes one scalar sample's streams through FrontEnd::finish_samples
/// as a 1-sample block of one-bit words, so the tap and the statistics
/// observe exactly the stream a block advance would have shown them.
struct ScalarSampleWords {
    std::uint64_t det[2];
    std::uint64_t valid[2];

    explicit ScalarSampleWords(const FrontEndSample& s)
        : det{std::uint64_t{s.detector[0]}, std::uint64_t{s.detector[1]}},
          valid{std::uint64_t{s.valid[0]}, std::uint64_t{s.valid[1]}} {}

    void store(FrontEndSample& s) const {
        s.detector = {(det[0] & 1) != 0, (det[1] & 1) != 0};
        s.valid = {(valid[0] & 1) != 0, (valid[1] & 1) != 0};
    }
};

}  // namespace

FrontEndSample FrontEnd::step(double dt_s) {
    // The environment is applied before the sample it belongs to, and
    // regardless of power gating — the field is still there when the
    // analogue section is off.
    if (field_source_ != nullptr) {
        apply_field_tick(field_source_->field_at(sample_index_));
    }
    FrontEndSample sample;
    if (!enabled_) {
        // Gated off: keep sensors relaxed, report leakage only.
        for (auto& s : sensors_) s.step(0.0, dt_s);
        sample.power_w = momentary_power_w(0.0);
        ScalarSampleWords words(sample);
        finish_samples(1, &words.det[0], &words.det[1], &words.valid[0],
                       &words.valid[1]);
        words.store(sample);
        return sample;
    }
    const double i_cmd = oscillator_.step(dt_s);
    const double r_load = config_.sensor.r_excitation_ohm;
    const double i_drive = vi_.drive(i_cmd, r_load);
    sample.i_excitation_a = i_drive;

    if (config_.mode == FrontEndMode::Multiplexed) {
        const bool settled = mux_.step(dt_s);
        const auto active = static_cast<std::size_t>(mux_.selected());
        const auto idle = 1 - active;
        const double v = sensors_[active].step(i_drive, dt_s) + noise_sample(dt_s);
        sensors_[idle].step(0.0, dt_s);
        sample.v_pickup[active] = v;
        sample.detector[active] = detectors_[active].step(v);
        sample.valid[active] = settled;
    } else {
        // Simultaneous baseline: an independent oscillator per channel.
        const double i_cmd_y = oscillator_y_.step(dt_s);
        const double i_drive_y = vi_.drive(i_cmd_y, r_load);
        const double vx = sensors_[0].step(i_drive, dt_s) + noise_sample(dt_s);
        const double vy = sensors_[1].step(i_drive_y, dt_s) + noise_sample(dt_s);
        sample.v_pickup = {vx, vy};
        sample.detector = {detectors_[0].step(vx), detectors_[1].step(vy)};
        sample.valid = {true, true};
    }
    sample.power_w = momentary_power_w(i_drive);
    ScalarSampleWords words(sample);
    finish_samples(1, &words.det[0], &words.det[1], &words.valid[0], &words.valid[1]);
    words.store(sample);
    return sample;
}

void FrontEnd::add_noise_block(double dt_s, int n, double* v) {
    if (config_.pickup_noise_rms_v == 0.0) return;
    // Hoisted from noise_sample(): the shape depends only on dt, so every
    // sample of the block sees the values the scalar path computes per
    // call.
    const auto [alpha, drive_rms] = noise_shape(dt_s);
    double state = noise_state_;
    for (int k = 0; k < n; ++k) {
        state += alpha * (pickup_noise_.sample() * drive_rms - state);
        v[k] += state;
    }
    noise_state_ = state;
}

void FrontEnd::add_noise_block_pair(double dt_s, int n, double* vx, double* vy) {
    if (config_.pickup_noise_rms_v == 0.0) return;
    const auto [alpha, drive_rms] = noise_shape(dt_s);
    double state = noise_state_;
    for (int k = 0; k < n; ++k) {
        state += alpha * (pickup_noise_.sample() * drive_rms - state);
        vx[k] += state;
        state += alpha * (pickup_noise_.sample() * drive_rms - state);
        vy[k] += state;
    }
    noise_state_ = state;
}

void FrontEnd::step_block(double dt_s, int n, FrontEndBlock& out) {
    out.resize(n);
    if (n <= 0) return;
    if (field_source_ == nullptr) {
        step_block_run(dt_s, n, out, 0);
        return;
    }
    // Chunk the block at the source's constancy boundaries: inside a
    // run the environment is constant, so the historic hoisted fast
    // path applies verbatim (bit-identical to per-sample stepping by
    // the step_block == n x step contract). A ConstantFieldSource
    // answers kForever and the whole block is one run; a continuously
    // varying source degenerates to per-sample runs.
    int done = 0;
    while (done < n) {
        magnetics::FieldTick tick;
        const std::uint64_t end = field_source_->constant_until(sample_index_, &tick);
        apply_field_tick(tick);
        const auto remaining = static_cast<std::uint64_t>(n - done);
        const std::uint64_t span = end > sample_index_ ? end - sample_index_ : 1;
        const int run = static_cast<int>(std::min(remaining, span));
        step_block_run(dt_s, run, out, done);
        done += run;
    }
}

void FrontEnd::step_block_run(double dt_s, int n, FrontEndBlock& out, int offset) {
    if (n <= 0) return;
    // Scratch per thread, not per front end: its capacity persists
    // across blocks, and memory grows with threads rather than members.
    // The drive and pickup voltage of x (and, simultaneous, of y), and
    // one run's detector and valid words (x, y, then valid x, y).
    thread_local std::vector<double> blk_i, blk_iy, blk_v, blk_vy;
    thread_local std::vector<std::uint64_t> run_words;
    // The run is computed into words of its own, which the tap sees,
    // and then ORed into place: a field-source run may start inside a
    // word.
    const auto words = static_cast<std::size_t>(util::bits::words_for(n));
    run_words.assign(4 * words, 0);
    std::uint64_t* const det[2] = {run_words.data(), run_words.data() + words};
    std::uint64_t* const valid[2] = {run_words.data() + 2 * words,
                                     run_words.data() + 3 * words};
    double* power = out.power_w.data() + offset;
    const auto finish = [&] {
        finish_samples(n, det[0], det[1], valid[0], valid[1]);
        for (std::size_t ch = 0; ch < 2; ++ch) {
            util::bits::deposit(out.detector[ch].data(), offset, det[ch], n);
            util::bits::deposit(out.valid[ch].data(), offset, valid[ch], n);
        }
    };
    if (!enabled_) {
        // Gated off: sensors relax at zero drive, leakage power only.
        for (auto& s : sensors_) s.step_block_constant(0.0, dt_s, n);
        const double leak = momentary_power_w(0.0);
        std::fill_n(power, n, leak);
        finish();
        return;
    }
    blk_i.resize(static_cast<std::size_t>(n));
    blk_v.resize(static_cast<std::size_t>(n));
    oscillator_.step_block(dt_s, n, blk_i.data());
    const double r_load = config_.sensor.r_excitation_ohm;
    vi_.drive_block(blk_i.data(), r_load, n, blk_i.data());  // now i_drive

    if (config_.mode == FrontEndMode::Multiplexed) {
        const auto active = static_cast<std::size_t>(mux_.selected());
        const auto idle = 1 - active;
        mux_.step_block(dt_s, n, valid[active]);
        sensors_[active].step_block(blk_i.data(), dt_s, n, blk_v.data());
        add_noise_block(dt_s, n, blk_v.data());
        sensors_[idle].step_block_constant(0.0, dt_s, n);
        detectors_[active].step_block(blk_v.data(), n, det[active]);
    } else {
        blk_iy.resize(static_cast<std::size_t>(n));
        blk_vy.resize(static_cast<std::size_t>(n));
        oscillator_y_.step_block(dt_s, n, blk_iy.data());
        vi_.drive_block(blk_iy.data(), r_load, n, blk_iy.data());
        sensors_[0].step_block(blk_i.data(), dt_s, n, blk_v.data());
        sensors_[1].step_block(blk_iy.data(), dt_s, n, blk_vy.data());
        add_noise_block_pair(dt_s, n, blk_v.data(), blk_vy.data());
        detectors_[0].step_block(blk_v.data(), n, det[0]);
        detectors_[1].step_block(blk_vy.data(), n, det[1]);
        util::bits::fill(valid[0], n, true);
        util::bits::fill(valid[1], n, true);
    }

    supply_power_block(blk_i.data(), n, power);
    finish();
}

void FrontEnd::supply_power_block(const double* i_drive_a, int n, double* power_w) const {
    namespace v = util::simd;
    // Same grouping as momentary_power_w(); |i| clears the sign bit, as
    // std::fabs does.
    const int instances = config_.mode == FrontEndMode::Multiplexed ? 1 : 2;
    const double bias = config_.osc_bias_a * oscillator_count() +
                        (config_.vi_bias_a + config_.det_bias_a) * instances;
    const double supply = config_.supply_v;
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec inst_v = v::splat(static_cast<double>(instances));
    const v::dvec bias_v = v::splat(bias);
    const v::dvec supply_v = v::splat(supply);
    int k = 0;
    for (; k + v::kLanes <= n; k += v::kLanes) {
        const v::dvec drive = v::mul(v::bit_andnot(sign_v, v::load(i_drive_a + k)), inst_v);
        v::store(power_w + k, v::mul(v::add(bias_v, drive), supply_v));
    }
    for (; k < n; ++k) {
        const double drive = std::fabs(i_drive_a[k]) * instances;
        power_w[k] = (bias + drive) * supply;
    }
}

void FrontEnd::reset() {
    noise_state_ = 0.0;
    oscillator_.reset();
    oscillator_y_.reset();
    for (auto& s : sensors_) s.reset();
    for (auto& d : detectors_) d.reset();
    mux_.reset();
    enabled_ = true;
    // Deliberately NOT cleared: the tap, the monotone sample index and
    // the mux-stuck fault — a power cycle does not repair a stuck mux,
    // and stream-fault schedules are keyed on the absolute index.
    if (mux_stuck_ && config_.mode == FrontEndMode::Multiplexed) {
        mux_.select(mux_stuck_channel_);
    }
    reset_window();
    // Re-apply the environment at the (un-rewound) playhead so
    // external_field() readers see current values before the next step.
    if (field_source_ != nullptr) {
        apply_field_tick(field_source_->field_at(sample_index_));
    }
}

}  // namespace fxg::analog
