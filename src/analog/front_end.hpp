#pragma once

/// \file front_end.hpp
/// The complete analogue section of the compass (paper Figure 1, left):
/// triangle oscillator -> V-I converter -> multiplexed fluxgate sensors
/// -> pulse-position detector, with power gating ("the digital control
/// logic enables the analogue section ... only when needed") and a
/// supply-current power model used by experiment MUX1.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "analog/detector.hpp"
#include "analog/mux.hpp"
#include "analog/noise.hpp"
#include "analog/oscillator.hpp"
#include "analog/vi_converter.hpp"
#include "magnetics/field_source.hpp"
#include "sensor/fluxgate.hpp"
#include "util/bits.hpp"

namespace fxg::analog {

/// Front-end architecture: the paper's multiplexed design (one
/// oscillator, one driver, one detector shared by both sensors) or the
/// simultaneous baseline it argues against (everything duplicated).
enum class FrontEndMode {
    Multiplexed,
    Simultaneous,
};

/// Front-end configuration.
struct FrontEndConfig {
    TriangleOscillatorConfig oscillator;
    ViConverterConfig vi;
    /// Both channels' detector; the FrontEnd constructor rejects one
    /// that is not a comparator (see DetectorConfig).
    DetectorConfig detector;
    sensor::FluxgateParams sensor = sensor::FluxgateParams::design_target();

    /// Core magnetisation model both sensors are built with.
    sensor::CoreKind core_kind = sensor::CoreKind::Tanh;

    FrontEndMode mode = FrontEndMode::Multiplexed;
    double mux_settle_s = 50.0e-6;

    /// Fractional mismatch applied to the Y sensor's excitation winding
    /// (models sensor-to-sensor process spread).
    double sensor_mismatch = 0.0;

    /// Additional sensitivity temperature coefficient on the Y sensor
    /// only [1/degC] (die-to-die spread of the scale-factor tempco).
    /// The x/y asymmetry is what turns ambient temperature drift into a
    /// heading error; the calibration layer's TempCompensation
    /// polynomial exists to cancel it. Default 0 — no drift.
    double sensor_temp_mismatch_per_c = 0.0;

    /// Pickup-referred noise (RMS volts), band-limited: the pickup coil
    /// plus comparator input pole filter thermal noise to roughly the
    /// signal bandwidth, so the noise entering the detector is shaped
    /// with a one-pole response at this bandwidth, holding the
    /// configured total RMS. The FrontEnd constructor rejects an rms
    /// that is not finite and >= 0 (0 = off) and a bandwidth that is
    /// not finite and > 0.
    double pickup_noise_rms_v = 0.0;
    double pickup_noise_bandwidth_hz = 100e3;
    /// Key of the counter-based noise stream (util::CounterEngine).
    std::uint64_t noise_seed = 23;

    // Supply-current power model (momentary, at 5 V).
    double supply_v = 5.0;
    double osc_bias_a = 150.0e-6;   ///< oscillator core bias
    double vi_bias_a = 250.0e-6;    ///< V-I converter bias (per instance)
    double det_bias_a = 160.0e-6;   ///< detector comparator pair (per instance)
    double leakage_a = 2.0e-6;      ///< gated-off leakage
};

/// One front-end time step's outputs.
struct FrontEndSample {
    std::array<bool, 2> detector{};   ///< detector output per channel
    std::array<bool, 2> valid{};      ///< channel carried a settled signal
    std::array<double, 2> v_pickup{}; ///< pickup voltages [V]
    double i_excitation_a = 0.0;      ///< delivered excitation current
    double power_w = 0.0;             ///< momentary supply power
};

/// Observation/override hook on the front end's emitted detector and
/// valid streams — the seam the fault subsystem (src/fault) injects
/// run-time stream faults through, and the reason fault injection is
/// engine-agnostic: the hook runs on the per-sample streams AFTER the
/// analogue stages, so a ScalarEngine (n = 1 per call) and a
/// BlockEngine (n = block per call) present the identical sample
/// sequence to the identical transform.
///
/// Contract: on_samples() must behave as a pure sequential function of
/// the sample stream — sample `first_index + k` may depend only on the
/// samples before it and on the hook's own sequential state, never on
/// the block boundaries, so that any chunking of the stream produces
/// bit-identical results.
class SampleTap {
public:
    virtual ~SampleTap() = default;

    /// Called once per advance with samples [first_index,
    /// first_index + n). detector/valid are the per-channel one-bit
    /// streams of util::bits::words_for(n) words (util/bits.hpp: bit j
    /// of word w is sample first_index + 64w + j), mutable in place.
    /// The bits past n arrive zero and must stay zero.
    virtual void on_samples(std::uint64_t first_index, int n,
                            std::uint64_t* detector_x, std::uint64_t* detector_y,
                            std::uint64_t* valid_x, std::uint64_t* valid_y) = 0;
};

/// Running statistics of one channel's (post-tap) detector stream over
/// the current observation window — the raw material of the
/// fault-subsystem health checks (toggle watchdog, duty-cycle sanity,
/// edge-rate check). Collected by the FrontEnd itself so the numbers
/// are identical under scalar and block stepping.
struct StreamStats {
    std::uint64_t samples = 0;        ///< samples emitted (valid or not)
    std::uint64_t valid_samples = 0;  ///< samples with the valid flag set
    std::uint64_t high_samples = 0;   ///< valid samples with detector high
    std::uint64_t edges = 0;          ///< detector transitions between valid samples

    /// High fraction of the valid window (the measured duty cycle).
    [[nodiscard]] double duty() const noexcept {
        return valid_samples > 0
                   ? static_cast<double>(high_samples) / static_cast<double>(valid_samples)
                   : 0.0;
    }

    /// Normalised pulse-position shift: duty - 1/2. By the transfer law
    /// (DESIGN.md section 5) this is Hext / (2 Ha) on a healthy channel,
    /// so it is the dimensionless measurand itself — the telemetry
    /// probes export it per measurement.
    [[nodiscard]] double pulse_shift() const noexcept { return duty() - 0.5; }

    /// Fraction of the window's samples that carried a settled signal.
    [[nodiscard]] double valid_fraction() const noexcept {
        return samples > 0
                   ? static_cast<double>(valid_samples) / static_cast<double>(samples)
                   : 0.0;
    }
};

/// Folds one word of a channel's (post-tap) detector stream into its
/// window statistics: `nb` samples (1 <= nb <= 64; bits at and past nb
/// are ignored), `prev`/`has_prev` the window's edge memory (the last
/// valid detector bit, 0 or 1). Counts valid and high samples and the
/// edges between valid samples; `samples` is the caller's to add. A
/// word whose samples are all valid takes popcounts, one whose valid
/// bits have holes (the word in which the mux settles, or a tap's
/// doing) walks its set bits. FrontEnd::finish_samples and the lane
/// engine both fold through it.
inline void fold_stream_word(StreamStats& s, std::uint8_t& prev, bool& has_prev,
                             std::uint64_t det, std::uint64_t valid, int nb) noexcept {
    const std::uint64_t live = util::bits::low_mask(nb);
    const std::uint64_t v = valid & live;
    if (v == 0) return;
    const std::uint64_t d = det & v;
    std::uint64_t p = prev;
    if (v == live) {
        // Every sample valid: sample j pairs with sample j - 1, and
        // sample 0 with the window's last valid sample.
        std::uint64_t changed = (d ^ ((d << 1) | p)) & live;
        if (!has_prev) changed &= ~std::uint64_t{1};
        s.valid_samples += static_cast<std::uint64_t>(nb);
        s.high_samples += static_cast<std::uint64_t>(std::popcount(d));
        s.edges += static_cast<std::uint64_t>(std::popcount(changed));
        p = (d >> (nb - 1)) & 1;
    } else {
        for (std::uint64_t m = v; m != 0; m &= m - 1) {
            const std::uint64_t bit = (d >> std::countr_zero(m)) & 1;
            ++s.valid_samples;
            s.high_samples += bit;
            if (has_prev && bit != p) ++s.edges;
            p = bit;
            has_prev = true;
        }
    }
    prev = static_cast<std::uint8_t>(p);
    has_prev = true;
}

/// Copy of both channels' StreamStats at one instant — what snapshot()
/// returns, so per-measurement statistics survive the next window reset.
struct StreamStatsSnapshot {
    std::array<StreamStats, 2> channel{};

    [[nodiscard]] const StreamStats& operator[](Channel ch) const noexcept {
        return channel[static_cast<std::size_t>(ch)];
    }
};

/// Flat-array outputs of one block of front-end steps (see
/// FrontEnd::step_block). Sample k of each stream is what step() sample
/// k of the block would have reported. The detector and valid streams
/// carry one bit per sample (util/bits.hpp: bit j of word w is sample
/// 64w + j; bits past size() are zero). Buffers keep their capacity
/// across blocks, so a reused FrontEndBlock allocates only once.
struct FrontEndBlock {
    std::array<std::vector<std::uint64_t>, 2> detector;  ///< per channel
    std::array<std::vector<std::uint64_t>, 2> valid;     ///< per channel
    std::vector<double> power_w;                         ///< momentary power [W]

    void resize(int n);
    [[nodiscard]] int size() const noexcept {
        return static_cast<int>(power_w.size());
    }
};

/// The analogue section.
class FrontEnd {
public:
    explicit FrontEnd(const FrontEndConfig& config = {});

    /// Sets the external axial field on a sensor [A/m]. With a field
    /// source installed this only holds until the next sample, which
    /// re-applies the source's tick — prefer set_field_source().
    void set_field(Channel channel, double h_a_per_m);

    // --- Time-varying environment seam (magnetics/field_source.hpp) ---

    /// Installs a per-tick environment provider (nullptr detaches and
    /// freezes the environment at its last applied values). The source
    /// is queried at the FrontEnd's monotone sample index — the
    /// scenario playhead — and its tick is applied to both sensors
    /// before each sample on every engine path (scalar, block, lanes).
    /// The current tick is applied immediately on installation so
    /// external_field() readers (range checks, lane gathers) see it.
    void set_field_source(std::shared_ptr<const magnetics::FieldSource> source);

    [[nodiscard]] const magnetics::FieldSource* field_source() const noexcept {
        return field_source_.get();
    }
    [[nodiscard]] std::shared_ptr<const magnetics::FieldSource> field_source_ptr()
        const noexcept {
        return field_source_;
    }

    /// Applies one environment tick to both sensors (axial fields and
    /// core temperature). The lane engine calls this from gather and
    /// scatter so its members track the same environment the scalar
    /// path would have applied.
    void apply_field_tick(const magnetics::FieldTick& tick);

    /// Ambient temperature of the last applied environment tick [deg C]
    /// (25 when no temperature was ever applied). The calibration
    /// layer's temperature compensation reads this at the end of a
    /// count window.
    [[nodiscard]] double ambient_temp_c() const noexcept { return ambient_temp_c_; }

    /// Routes the excitation to a channel (multiplexed mode only; the
    /// call is accepted but ignored in simultaneous mode).
    void select(Channel channel);
    [[nodiscard]] Channel selected() const noexcept { return mux_.selected(); }

    /// Power-gates the whole section.
    void enable(bool on) noexcept { enabled_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Advances the front end by dt and returns the sampled outputs.
    FrontEndSample step(double dt_s);

    /// Advances `n` steps of dt in one block, filling `out` with the
    /// per-sample detector/valid/power streams. State afterwards — and
    /// every emitted sample — is bit-identical to n step() calls; the
    /// block form hoists the enable/mode/noise branches, runs each stage
    /// over flat arrays, and steps the de-selected sensor of the
    /// multiplexed mode through an O(1) constant-drive fast path.
    void step_block(double dt_s, int n, FrontEndBlock& out);

    /// Momentary supply power for the current enable/mode state [W].
    [[nodiscard]] double momentary_power_w(double i_excitation_a) const;

    /// Supply power of the enabled section for a block of drive
    /// currents: power_w[k] for i_drive_a[k], grouped as in
    /// momentary_power_w(). step_block() and the lane engine's shared
    /// excitation pass both compute their power with it.
    void supply_power_block(const double* i_drive_a, int n, double* power_w) const;

    /// Count of oscillators this architecture instantiates (1 for the
    /// paper's multiplexed design, 2 for the simultaneous baseline).
    [[nodiscard]] int oscillator_count() const noexcept {
        return config_.mode == FrontEndMode::Multiplexed ? 1 : 2;
    }

    void reset();

    // --- Fault/observation seams (src/fault) -------------------------

    /// Attaches a non-owning stream hook (nullptr detaches). Applied to
    /// every emitted sample by both step() and step_block().
    void set_sample_tap(SampleTap* tap) noexcept { tap_ = tap; }
    [[nodiscard]] SampleTap* sample_tap() const noexcept { return tap_; }

    /// Samples emitted since construction. Monotone — reset() does NOT
    /// rewind it, so stream-fault schedules keyed on the absolute sample
    /// position survive a re-excitation power cycle.
    [[nodiscard]] std::uint64_t samples_stepped() const noexcept {
        return sample_index_;
    }

    /// Stuck multiplexer fault: the mux latches onto `channel` and
    /// further select() requests from the control logic are ignored
    /// until clear_mux_stuck().
    void set_mux_stuck(Channel channel);
    void clear_mux_stuck() noexcept { mux_stuck_ = false; }
    [[nodiscard]] bool mux_stuck() const noexcept { return mux_stuck_; }
    [[nodiscard]] Channel mux_stuck_channel() const noexcept {
        return mux_stuck_channel_;
    }

    /// Restores the latched-mux fault flags verbatim (snapshot seam).
    /// Unlike set_mux_stuck(), does NOT run a select() — the mux channel
    /// and settling timer are restored separately through the mux state.
    void restore_mux_stuck(bool stuck, Channel channel) noexcept {
        mux_stuck_ = stuck;
        mux_stuck_channel_ = channel;
    }

    /// Post-tap stream statistics of the current observation window
    /// (what the digital control logic actually saw).
    [[nodiscard]] const StreamStats& stream_stats(Channel ch) const noexcept {
        return stats_[static_cast<std::size_t>(ch)];
    }

    /// Copies both channels' window statistics at this instant. Callers
    /// that need a measurement's stats past the next reset_window()
    /// (telemetry, post-hoc health analysis) take a snapshot instead of
    /// holding references into the live accumulators.
    [[nodiscard]] StreamStatsSnapshot snapshot() const noexcept {
        return StreamStatsSnapshot{stats_};
    }

    /// Starts a fresh observation window: zeroes both channels' stats
    /// AND the edge-detector memory, so the first valid sample of the
    /// new window never pairs with the last sample of the old one.
    /// Compass::measure() calls this on entry, which is what makes the
    /// per-measurement duty/pulse statistics correct on every
    /// measurement, not just the first.
    void reset_window() noexcept;

    /// Mutable stage access for parametric fault injection.
    [[nodiscard]] TriangleOscillator& oscillator() noexcept { return oscillator_; }
    [[nodiscard]] PulsePositionDetector& detector(Channel ch) noexcept {
        return detectors_[static_cast<std::size_t>(ch)];
    }

    /// The second oscillator (only stepped in simultaneous mode, but
    /// always part of the serialized state so restore is mode-agnostic).
    [[nodiscard]] TriangleOscillator& oscillator_y() noexcept {
        return oscillator_y_;
    }

    [[nodiscard]] const FrontEndConfig& config() const noexcept { return config_; }
    [[nodiscard]] const sensor::FluxgateSensor& sensor(Channel ch) const {
        return sensors_[static_cast<std::size_t>(ch)];
    }

    // --- Lane-engine gather/scatter seam (sim/lane_engine.cpp) --------
    //
    // The SoA lane kernel lifts the hot per-sample state out of the
    // stage objects, advances many front ends in lockstep, and writes
    // the state back at stage boundaries. These accessors exist for
    // that round-trip; after a scatter the front end is bit-identical
    // to one that executed the same samples through step().

    [[nodiscard]] AnalogMux& mux() noexcept { return mux_; }
    [[nodiscard]] const ViConverter& vi_converter() const noexcept { return vi_; }
    [[nodiscard]] sensor::FluxgateSensor& sensor_mut(Channel ch) noexcept {
        return sensors_[static_cast<std::size_t>(ch)];
    }

    /// The band-limited pickup noise source. Its stream is counter-based,
    /// so the lane engine reads each member's key and counter at gather,
    /// draws the same counter range as vectors, and advances the counter
    /// at scatter: every lane sees exactly the stream its scalar run
    /// would.
    [[nodiscard]] NoiseSource& pickup_noise() noexcept { return pickup_noise_; }

    /// The pickup-noise shaping filter for a step of length dt: its
    /// coefficient and the white-drive RMS that holds the configured
    /// stationary RMS. The scalar, block and lane noise paths all take
    /// both from here.
    struct NoiseShape {
        double alpha;
        double drive_rms;
    };
    [[nodiscard]] NoiseShape noise_shape(double dt_s) const noexcept;
    [[nodiscard]] double noise_filter_state() const noexcept { return noise_state_; }
    void set_noise_filter_state(double state) noexcept { noise_state_ = state; }

    /// Stream-window accumulator state (per-channel stats, the edge
    /// detector's memory, and the monotone sample index).
    struct StreamWindowState {
        std::array<StreamStats, 2> stats{};
        std::array<std::uint8_t, 2> prev{};
        std::array<bool, 2> has_prev{};
        std::uint64_t sample_index = 0;
    };

    [[nodiscard]] StreamWindowState save_window_state() const noexcept {
        return {stats_, stats_prev_, stats_has_prev_, sample_index_};
    }
    void load_window_state(const StreamWindowState& s) noexcept {
        stats_ = s.stats;
        stats_prev_ = s.prev;
        stats_has_prev_ = s.has_prev;
        sample_index_ = s.sample_index;
    }

    /// Feeds a block of already-computed emitted streams (one-bit
    /// words, as SampleTap::on_samples takes them) through the tap ->
    /// sample-index -> statistics pipeline, exactly as step_block()
    /// does for streams it computed itself. The lane engine uses this
    /// for members with a tap attached (fault injection), so stream
    /// faults see the same chunks, mutate the same bits and update the
    /// same statistics as on the per-member path. The words are mutated
    /// in place by the tap.
    void ingest_samples(int n, std::uint64_t* det_x, std::uint64_t* det_y,
                        std::uint64_t* valid_x, std::uint64_t* valid_y) {
        finish_samples(n, det_x, det_y, valid_x, valid_y);
    }

private:
    static sensor::FluxgateParams y_params(const FrontEndConfig& config);

    FrontEndConfig config_;
    TriangleOscillator oscillator_;
    TriangleOscillator oscillator_y_;  ///< second oscillator (simultaneous mode)
    ViConverter vi_;
    std::array<sensor::FluxgateSensor, 2> sensors_;
    std::array<PulsePositionDetector, 2> detectors_;
    AnalogMux mux_;
    NoiseSource pickup_noise_;
    double noise_state_ = 0.0;  ///< one-pole noise-shaping filter state
    bool enabled_ = true;
    std::shared_ptr<const magnetics::FieldSource> field_source_;
    double ambient_temp_c_ = 25.0;      ///< last applied tick's temperature
    SampleTap* tap_ = nullptr;          ///< non-owning stream hook
    std::uint64_t sample_index_ = 0;    ///< samples emitted (monotone)
    bool mux_stuck_ = false;            ///< select() frozen by a fault
    Channel mux_stuck_channel_ = Channel::X;
    std::array<StreamStats, 2> stats_{};
    std::array<std::uint8_t, 2> stats_prev_{};      ///< last valid detector value
    std::array<bool, 2> stats_has_prev_{};
    // Scratch buffers for step_block (capacity persists across blocks).
    std::vector<double> blk_i_;
    std::vector<double> blk_iy_;
    std::vector<double> blk_v_;
    std::vector<double> blk_vy_;
    /// One run's detector and valid words (x, y, then valid x, y).
    std::vector<std::uint64_t> run_words_;

    /// One band-limited noise sample for a step of length dt.
    double noise_sample(double dt_s);

    /// Adds one noise sample per element to `v` (same stream/order as n
    /// noise_sample() calls). No-op when noise is configured off.
    void add_noise_block(double dt_s, int n, double* v);

    /// Simultaneous-mode variant: per sample adds one noise draw to
    /// vx[k] then one to vy[k], matching the scalar interleaving.
    void add_noise_block_pair(double dt_s, int n, double* vx, double* vy);

    /// One run of block samples under the already-applied environment,
    /// writing outputs from sample `offset` on into pre-sized, zeroed
    /// buffers. step_block() chunks a block into runs at the field
    /// source's constancy boundaries and calls this per run; without a
    /// source the whole block is one run.
    void step_block_run(double dt_s, int n, FrontEndBlock& out, int offset);

    /// Runs the sample tap (if attached) over a block of emitted
    /// streams, advances the sample index and folds the (post-tap)
    /// streams into the per-channel statistics, word by word
    /// (fold_stream_word).
    void finish_samples(int n, std::uint64_t* det_x, std::uint64_t* det_y,
                        std::uint64_t* valid_x, std::uint64_t* valid_y);
};

}  // namespace fxg::analog
