#pragma once

/// \file oscillator.hpp
/// Triangular-waveform current generator (paper section 3.1): a 10 pF
/// on-array capacitor charged through an external 12.5 Mohm resistor on
/// the MCM substrate produces a 12 mA peak-to-peak, 8 kHz triangle after
/// the V-I conversion. The paper notes that "the linearity of the
/// waveform is not very essential but the dc-offset is, and is therefore
/// corrected by measuring the average of the excitation current" — both
/// non-idealities and the correction loop are modelled here and swept in
/// experiment ABL2.

namespace fxg::analog {

/// Build-time configuration of the triangle generator.
struct TriangleOscillatorConfig {
    double amplitude_a = 6.0e-3;   ///< peak current (half of 12 mA pp)
    double frequency_hz = 8.0e3;   ///< excitation frequency

    // Non-idealities (error sources to study, all default to ideal).
    double dc_offset_a = 0.0;      ///< additive offset error [A]
    double amplitude_error = 0.0;  ///< fractional gain error
    double curvature = 0.0;        ///< cubic bowing of the ramps (0 = linear)

    // DC-offset correction loop (averages the excitation current over
    // each period and integrates the error away).
    bool offset_correction = true;
    double correction_gain = 0.5;  ///< fraction of measured offset removed per period

    // Physical realisation (reported, not simulated at circuit level here;
    // the spice:: engine covers that in tests).
    double timing_capacitor_f = 10.0e-12;    ///< on-array capacitor
    double external_resistor_ohm = 12.5e6;   ///< resistor on the MCM substrate
};

/// Run-time degradation state of the oscillator — the fault seam the
/// fault subsystem (src/fault) injects drifting-oscillator faults
/// through. All members default to the healthy identity, and applying
/// the identity is bit-identical to the pre-fault arithmetic, so a
/// fault-free oscillator produces exactly the same sample stream
/// whether or not faults are compiled in or armed.
struct OscillatorFault {
    double frequency_scale = 1.0;  ///< multiplies the configured frequency
    double amplitude_scale = 1.0;  ///< multiplies the output amplitude (0 = excitation collapse)
    double extra_dc_a = 0.0;       ///< additional drifted dc offset [A]
    bool correction_stuck = false; ///< offset-correction loop frozen (holds its last value)
};

/// Stateful triangle-current oscillator with a per-period offset
/// correction loop.
class TriangleOscillator {
public:
    explicit TriangleOscillator(const TriangleOscillatorConfig& config = {});

    /// Advances by dt and returns the (corrected) output current [A].
    double step(double dt_s);

    /// Advances `n` steps of dt, writing each step's output current into
    /// `out`. Bit-identical to n step() calls; config loads and the
    /// offset-correction-enable test are hoisted out of the loop.
    void step_block(double dt_s, int n, double* out);

    /// Output of the last step [A].
    [[nodiscard]] double output() const noexcept { return output_; }

    /// Correction currently applied by the offset loop [A] (≈ minus the
    /// configured dc offset once the loop has settled).
    [[nodiscard]] double correction() const noexcept { return correction_a_; }

    /// Elapsed oscillator time [s].
    [[nodiscard]] double time() const noexcept { return time_s_; }

    [[nodiscard]] const TriangleOscillatorConfig& config() const noexcept {
        return config_;
    }

    /// Engages (or, with a default-constructed value, clears) a run-time
    /// fault on the generator. Applied identically per sample by step()
    /// and step_block().
    void set_fault(const OscillatorFault& fault) noexcept { fault_ = fault; }
    [[nodiscard]] const OscillatorFault& fault() const noexcept { return fault_; }

    /// Complete evolving state, for the lane engine's cohorts
    /// (sim/lane_engine.cpp): lanes whose oscillators match in config,
    /// fault and this state run one step_block() between them, and the
    /// kernel copies the stepped state into each, so a lane round-trip
    /// is indistinguishable from the same number of step() calls.
    struct State {
        double time_s = 0.0;
        double phase = 0.0;
        double output = 0.0;
        double correction_a = 0.0;
        double period_integral = 0.0;
        double period_time = 0.0;
    };

    [[nodiscard]] State save_state() const noexcept {
        return {time_s_, phase_, output_, correction_a_, period_integral_, period_time_};
    }
    void load_state(const State& s) noexcept {
        time_s_ = s.time_s;
        phase_ = s.phase;
        output_ = s.output;
        correction_a_ = s.correction_a;
        period_integral_ = s.period_integral;
        period_time_ = s.period_time;
    }

    void reset();

private:
    /// Ideal unit triangle (-1..+1) at a phase in [0, 1).
    static double unit_triangle(double phase) noexcept;

    TriangleOscillatorConfig config_;
    OscillatorFault fault_;
    double time_s_ = 0.0;
    double phase_ = 0.0;
    double output_ = 0.0;
    double correction_a_ = 0.0;
    // Per-period running average for the correction loop.
    double period_integral_ = 0.0;
    double period_time_ = 0.0;
};

}  // namespace fxg::analog
