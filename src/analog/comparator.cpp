#include "analog/comparator.hpp"

namespace fxg::analog {

Comparator::Comparator(const ComparatorConfig& config) : config_(config) {}

bool Comparator::step(double v_in) {
    const double v = v_in - (config_.offset_v + offset_fault_v_);
    const double half_hyst = 0.5 * config_.hysteresis_v;
    // Rising threshold above, falling threshold below the nominal level.
    if (state_) {
        if (v < config_.threshold_v - half_hyst) state_ = false;
    } else {
        if (v > config_.threshold_v + half_hyst) state_ = true;
    }
    return state_;
}

void Comparator::step_block(const double* v_in, double sign, int n, std::uint8_t* out) {
    const double half_hyst = 0.5 * config_.hysteresis_v;
    const double fall = config_.threshold_v - half_hyst;
    const double rise = config_.threshold_v + half_hyst;
    const double offset = config_.offset_v + offset_fault_v_;
    bool state = state_;
    for (int k = 0; k < n; ++k) {
        // sign is ±1.0, an exact scaling.
        const double v = sign * v_in[k] - offset;
        if (state) {
            if (v < fall) state = false;
        } else {
            if (v > rise) state = true;
        }
        out[k] = state ? 1 : 0;
    }
    state_ = state;
}

}  // namespace fxg::analog
