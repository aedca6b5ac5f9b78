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

}  // namespace fxg::analog
