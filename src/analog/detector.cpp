#include "analog/detector.hpp"

namespace fxg::analog {

namespace {

ComparatorConfig make_comparator(const DetectorConfig& d) {
    ComparatorConfig c;
    c.threshold_v = d.threshold_v;
    c.offset_v = d.comparator_offset_v;
    c.hysteresis_v = d.comparator_hysteresis_v;
    return c;
}

}  // namespace

PulsePositionDetector::PulsePositionDetector(const DetectorConfig& config)
    : config_(config), positive_(make_comparator(config)),
      negative_(make_comparator(config)) {}

bool PulsePositionDetector::step(double v_pickup) {
    const bool pos = positive_.step(v_pickup);
    const bool neg = negative_.step(-v_pickup);
    // Falling edge of the positive pulse sets the output ...
    if (prev_pos_ && !pos) out_ = true;
    // ... rising edge (i.e. end) of the negative pulse clears it.
    if (prev_neg_ && !neg) out_ = false;
    prev_pos_ = pos;
    prev_neg_ = neg;
    return out_;
}

void PulsePositionDetector::step_block(const double* v_pickup, int n, std::uint8_t* out) {
    if (n <= 0) return;
    // Comparator::step()'s thresholds, hoisted per comparator.
    struct Levels {
        double offset, fall, rise;
    };
    const auto levels = [](const Comparator& c) {
        const ComparatorConfig& cfg = c.config();
        const double half_hyst = 0.5 * cfg.hysteresis_v;
        return Levels{cfg.offset_v + c.offset_fault(), cfg.threshold_v - half_hyst,
                      cfg.threshold_v + half_hyst};
    };
    const Levels lp = levels(positive_);
    const Levels ln = levels(negative_);
    bool pos = positive_.output();
    bool neg = negative_.output();
    bool prev_pos = prev_pos_;
    bool prev_neg = prev_neg_;
    bool o = out_;
    for (int k = 0; k < n; ++k) {
        // Both latches, then the edge logic, as in step(): the negative
        // comparator is fed -v (an exact sign flip).
        const double vp = v_pickup[k] - lp.offset;
        const double vn = -v_pickup[k] - ln.offset;
        pos = pos ? !(vp < lp.fall) : vp > lp.rise;
        neg = neg ? !(vn < ln.fall) : vn > ln.rise;
        if (prev_pos && !pos) o = true;
        if (prev_neg && !neg) o = false;
        prev_pos = pos;
        prev_neg = neg;
        out[k] = o ? 1 : 0;
    }
    positive_.set_output(pos);
    negative_.set_output(neg);
    prev_pos_ = prev_pos;
    prev_neg_ = prev_neg;
    out_ = o;
}

void PulsePositionDetector::set_comparator_offset_fault(double extra_offset_v) noexcept {
    positive_.set_offset_fault(extra_offset_v);
    negative_.set_offset_fault(extra_offset_v);
}

void PulsePositionDetector::reset() {
    positive_.reset();
    negative_.reset();
    prev_pos_ = false;
    prev_neg_ = false;
    out_ = false;
}

}  // namespace fxg::analog
