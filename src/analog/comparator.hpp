#pragma once

/// \file comparator.hpp
/// Latching comparator with offset and hysteresis — the building block
/// of the pulse-position detector's edge sensing.

namespace fxg::analog {

/// Comparator non-idealities.
struct ComparatorConfig {
    double threshold_v = 0.0;   ///< nominal switching level
    double offset_v = 0.0;      ///< static input offset error
    double hysteresis_v = 0.0;  ///< total hysteresis width (centred on threshold)
};

/// Two-state comparator: output true while input exceeds the (offset
/// and hysteresis adjusted) threshold.
class Comparator {
public:
    explicit Comparator(const ComparatorConfig& config = {});

    /// Evaluates one input sample; returns the new output state.
    bool step(double v_in);

    [[nodiscard]] bool output() const noexcept { return state_; }

    /// Additional input-referred offset drift [V] injected at run time
    /// (fault seam, src/fault). Added to the configured offset in
    /// step() and in the detector's block pass alike; 0 restores health.
    void set_offset_fault(double extra_offset_v) noexcept {
        offset_fault_v_ = extra_offset_v;
    }
    [[nodiscard]] double offset_fault() const noexcept { return offset_fault_v_; }

    /// Direct latch access for the lane engine's gather/scatter seam.
    void set_output(bool state) noexcept { state_ = state; }

    void reset() noexcept { state_ = false; }

    [[nodiscard]] const ComparatorConfig& config() const noexcept { return config_; }

private:
    ComparatorConfig config_;
    double offset_fault_v_ = 0.0;
    bool state_ = false;
};

}  // namespace fxg::analog
