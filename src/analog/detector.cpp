#include "analog/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/simd.hpp"

namespace fxg::analog {

namespace {

ComparatorConfig make_comparator(const DetectorConfig& d) {
    if (!std::isfinite(d.threshold_v) || !std::isfinite(d.comparator_offset_v)) {
        throw std::invalid_argument(
            "PulsePositionDetector: threshold and offset must be finite");
    }
    if (!(std::isfinite(d.comparator_hysteresis_v) && d.comparator_hysteresis_v >= 0.0)) {
        throw std::invalid_argument(
            "PulsePositionDetector: hysteresis must be finite and >= 0");
    }
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

void PulsePositionDetector::step_block(const double* v_pickup, int n, std::uint64_t* out) {
    if (n <= 0) return;
    namespace v = util::simd;
    // Comparator::step()'s thresholds, hoisted per comparator. Both
    // comparators run as vector compares packed into words, and
    // step_word() runs the latches on each word.
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
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec off_p = v::splat(lp.offset), fall_p = v::splat(lp.fall),
                  rise_p = v::splat(lp.rise);
    const v::dvec off_n = v::splat(ln.offset), fall_n = v::splat(ln.fall),
                  rise_n = v::splat(ln.rise);
    State s = save_state();
    const int words = util::bits::words_for(n);
    for (int w = 0; w < words; ++w) {
        const double* x = v_pickup + 64 * w;
        const int nb = util::bits::bits_in_word(n, w);
        ComparatorWords c{0, 0, 0, 0};
        int j = 0;
        // The negative comparator is fed -v, an exact sign flip.
        for (; j + v::kLanes <= nb; j += v::kLanes) {
            const v::dvec x_v = v::load(x + j);
            const v::dvec vp = v::sub(x_v, off_p);
            const v::dvec vn = v::sub(v::bit_xor(x_v, sign_v), off_n);
            c.rise_pos |= std::uint64_t{v::movemask(v::cmp_gt(vp, rise_p))} << j;
            c.fall_pos |= std::uint64_t{v::movemask(v::cmp_gt(fall_p, vp))} << j;
            c.rise_neg |= std::uint64_t{v::movemask(v::cmp_gt(vn, rise_n))} << j;
            c.fall_neg |= std::uint64_t{v::movemask(v::cmp_gt(fall_n, vn))} << j;
        }
        for (; j < nb; ++j) {
            const double vp = x[j] - lp.offset;
            const double vn = -x[j] - ln.offset;
            c.rise_pos |= std::uint64_t{vp > lp.rise} << j;
            c.fall_pos |= std::uint64_t{vp < lp.fall} << j;
            c.rise_neg |= std::uint64_t{vn > ln.rise} << j;
            c.fall_neg |= std::uint64_t{vn < ln.fall} << j;
        }
        out[w] = step_word(c, nb, s);
    }
    load_state(s);
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
