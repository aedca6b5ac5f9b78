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
    blk_pos_.resize(static_cast<std::size_t>(n));
    blk_neg_.resize(static_cast<std::size_t>(n));
    positive_.step_block(v_pickup, 1.0, n, blk_pos_.data());
    negative_.step_block(v_pickup, -1.0, n, blk_neg_.data());
    bool prev_pos = prev_pos_;
    bool prev_neg = prev_neg_;
    bool o = out_;
    for (int k = 0; k < n; ++k) {
        const bool pos = blk_pos_[k] != 0;
        const bool neg = blk_neg_[k] != 0;
        if (prev_pos && !pos) o = true;
        if (prev_neg && !neg) o = false;
        prev_pos = pos;
        prev_neg = neg;
        out[k] = o ? 1 : 0;
    }
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
