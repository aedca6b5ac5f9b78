#pragma once

/// \file detector.hpp
/// The pulse-position detector (paper section 3.2): converts the pickup
/// pulse train into ONE digital-compatible signal. Output goes high at
/// the falling edge of the positive pickup pulse and low at the rising
/// edge of the negative pulse; the high fraction of a period directly
/// encodes the measured field component, so "a complicated AD-converter
/// is not necessary" — this 1-bit interface is the paper's key analogue
/// simplification over second-harmonic readouts (experiment BASE1).

#include <cstdint>

#include "analog/comparator.hpp"

namespace fxg::analog {

/// Detector configuration: one comparator per pulse polarity. The
/// PulsePositionDetector constructor rejects a threshold or offset
/// that is not finite and a hysteresis that is not finite and >= 0:
/// with negative hysteresis one sample can cross both thresholds.
struct DetectorConfig {
    double threshold_v = 20.0e-3;  ///< |v| level that counts as a pulse
    double comparator_offset_v = 0.0;
    double comparator_hysteresis_v = 2.0e-3;
};

/// Stateful pulse-position detector.
class PulsePositionDetector {
public:
    explicit PulsePositionDetector(const DetectorConfig& config = {});

    /// Processes one pickup-voltage sample; returns the digital output.
    bool step(double v_pickup);

    /// Processes `n` pickup samples, writing the digital output as a
    /// one-bit stream of util::bits::words_for(n) words into `out` (bit
    /// j of word w is sample 64w + j; bits past n are zero).
    /// Bit-identical to n step() calls: both comparators run as vector
    /// compares into masks, and each latch is a carry chain resolved
    /// with one 64-bit add per word (DESIGN.md section 6).
    void step_block(const double* v_pickup, int n, std::uint64_t* out);

    [[nodiscard]] bool output() const noexcept { return out_; }

    /// Injects an input-referred offset drift [V] onto both comparators
    /// (fault seam, src/fault). 0 restores the healthy detector.
    void set_comparator_offset_fault(double extra_offset_v) noexcept;
    [[nodiscard]] double comparator_offset_fault() const noexcept {
        return positive_.offset_fault();
    }

    /// Evolving latch state (both comparators plus the edge logic), for
    /// the lane engine's gather/scatter seam and the snapshot codec.
    struct State {
        bool positive = false;
        bool negative = false;
        bool prev_pos = false;
        bool prev_neg = false;
        bool out = false;
    };

    [[nodiscard]] State save_state() const noexcept {
        return {positive_.output(), negative_.output(), prev_pos_, prev_neg_, out_};
    }
    void load_state(const State& s) noexcept {
        positive_.set_output(s.positive);
        negative_.set_output(s.negative);
        prev_pos_ = s.prev_pos;
        prev_neg_ = s.prev_neg;
        out_ = s.out;
    }

    void reset();

    [[nodiscard]] const DetectorConfig& config() const noexcept { return config_; }

private:
    DetectorConfig config_;
    Comparator positive_;  ///< fires while v > +threshold
    Comparator negative_;  ///< fires while v < -threshold (fed -v)
    bool prev_pos_ = false;
    bool prev_neg_ = false;
    bool out_ = false;
};

}  // namespace fxg::analog
