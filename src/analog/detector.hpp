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

#include "util/bits.hpp"

namespace fxg::analog {

/// Detector configuration: both comparators (one per pulse polarity)
/// share it. The PulsePositionDetector constructor rejects a threshold
/// or offset that is not finite and a hysteresis that is not finite and
/// >= 0: with negative hysteresis one sample can cross both thresholds.
struct DetectorConfig {
    double threshold_v = 20.0e-3;  ///< |v| level that counts as a pulse
    double comparator_offset_v = 0.0;
    double comparator_hysteresis_v = 2.0e-3;
};

/// Stateful pulse-position detector: two latching comparators, the
/// positive one fed v and the negative one fed -v, and the set/clear
/// output latch their falling edges drive.
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

    [[nodiscard]] bool output() const noexcept { return state_.out; }

    /// Injects an input-referred offset drift [V] onto both comparators
    /// (fault seam, src/fault). 0 restores the healthy detector.
    void set_comparator_offset_fault(double extra_offset_v) noexcept {
        offset_fault_v_ = extra_offset_v;
    }
    [[nodiscard]] double comparator_offset_fault() const noexcept { return offset_fault_v_; }

    /// Both comparators' levels: a comparator sees its input minus
    /// `offset` (the configured offset plus the fault's), a high latch
    /// falls when that is below `fall` and a low one rises when it is
    /// above `rise` (the threshold -/+ half the hysteresis). step(),
    /// step_block() and the lane engine all compare against these.
    struct Levels {
        double offset, fall, rise;
    };
    [[nodiscard]] Levels levels() const noexcept {
        const double half_hyst = 0.5 * config_.comparator_hysteresis_v;
        return {config_.comparator_offset_v + offset_fault_v_,
                config_.threshold_v - half_hyst, config_.threshold_v + half_hyst};
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

    [[nodiscard]] State save_state() const noexcept { return state_; }
    void load_state(const State& s) noexcept { state_ = s; }

    void reset() noexcept { state_ = {}; }

    [[nodiscard]] const DetectorConfig& config() const noexcept { return config_; }

    /// One word of both comparators' decisions, bit j for sample j, with
    /// v the pickup sample: the positive comparator sees v - offset, the
    /// negative one -v - offset (levels()).
    struct ComparatorWords {
        std::uint64_t rise_pos;  ///< v - offset > rise
        std::uint64_t fall_pos;  ///< v - offset < fall
        std::uint64_t rise_neg;  ///< -v - offset > rise
        std::uint64_t fall_neg;  ///< -v - offset < fall
    };

    /// Runs the detector over one word of `nb` samples (1 <= nb <= 64;
    /// bits at and past nb are ignored) from latch state `s`, leaves the
    /// state after the word in `s` and returns the output word (bits
    /// past nb zero). Bit-identical to nb step() calls. step_block()
    /// and the lane engine both run their words through it.
    ///
    /// A latch that is high stays high unless v < fall, one that is low
    /// goes high iff v > rise: generate G = rise, propagate P = !fall,
    /// Q_j = G_j | (P_j & Q_{j-1}). Hysteresis >= 0 (the constructor's
    /// check) makes fall <= rise, so every generate bit is a propagate
    /// bit, as latch() needs. The output is a third latch: a falling
    /// edge of the positive latch sets it, one of the negative latch
    /// clears it, and clear wins when both fire.
    [[nodiscard]] static std::uint64_t step_word(const ComparatorWords& c, int nb,
                                                 State& s) noexcept {
        const std::uint64_t live = util::bits::low_mask(nb);
        const std::uint64_t pos = latch(c.rise_pos & live, ~c.fall_pos & live, s.positive);
        const std::uint64_t neg = latch(c.rise_neg & live, ~c.fall_neg & live, s.negative);
        const std::uint64_t set = ((pos << 1) | std::uint64_t{s.prev_pos}) & ~pos;
        const std::uint64_t clear = ((neg << 1) | std::uint64_t{s.prev_neg}) & ~neg;
        const std::uint64_t hold = ~clear & live;
        const std::uint64_t out = latch(set & hold, hold, s.out);
        s.positive = s.prev_pos = ((pos >> (nb - 1)) & 1) != 0;
        s.negative = s.prev_neg = ((neg >> (nb - 1)) & 1) != 0;
        s.out = ((out >> (nb - 1)) & 1) != 0;
        return out;
    }

private:
    /// The latch recurrence Q_j = G_j | (P_j & Q_{j-1}) over one word,
    /// with Q_{-1} = q_in and every generate bit also a propagate bit.
    /// Adding G to P ripples a carry through each run of propagate bits
    /// that a generate bit or the carry-in starts, so bit j of
    /// (P + G + q_in) ^ P ^ G is the carry into bit j, which is Q_{j-1}.
    static constexpr std::uint64_t latch(std::uint64_t g, std::uint64_t p, bool q_in) {
        const std::uint64_t carries = (p + g + std::uint64_t{q_in}) ^ p ^ g;
        return g | (p & carries);
    }

    DetectorConfig config_;
    double offset_fault_v_ = 0.0;
    State state_;
};

}  // namespace fxg::analog
