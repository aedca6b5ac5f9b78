#include "analog/detector.hpp"

#include <cmath>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/simd.hpp"

namespace fxg::analog {

namespace {

const DetectorConfig& validated(const DetectorConfig& d) {
    if (!std::isfinite(d.threshold_v) || !std::isfinite(d.comparator_offset_v)) {
        throw std::invalid_argument(
            "PulsePositionDetector: threshold and offset must be finite");
    }
    if (!(std::isfinite(d.comparator_hysteresis_v) && d.comparator_hysteresis_v >= 0.0)) {
        throw std::invalid_argument(
            "PulsePositionDetector: hysteresis must be finite and >= 0");
    }
    return d;
}

/// One comparator latch: a high latch stays high unless v < fall, a low
/// one goes high iff v > rise.
bool latch_step(bool q, double v, const PulsePositionDetector::Levels& l) {
    return q ? !(v < l.fall) : v > l.rise;
}

}  // namespace

PulsePositionDetector::PulsePositionDetector(const DetectorConfig& config)
    : config_(validated(config)) {}

bool PulsePositionDetector::step(double v_pickup) {
    const Levels l = levels();
    // The negative comparator is fed -v.
    const bool pos = latch_step(state_.positive, v_pickup - l.offset, l);
    const bool neg = latch_step(state_.negative, -v_pickup - l.offset, l);
    // Falling edge of the positive pulse sets the output ...
    if (state_.prev_pos && !pos) state_.out = true;
    // ... rising edge (i.e. end) of the negative pulse clears it.
    if (state_.prev_neg && !neg) state_.out = false;
    state_.positive = state_.prev_pos = pos;
    state_.negative = state_.prev_neg = neg;
    return state_.out;
}

void PulsePositionDetector::step_block(const double* v_pickup, int n, std::uint64_t* out) {
    if (n <= 0) return;
    namespace v = util::simd;
    // Both comparators run as vector compares packed into words, and
    // step_word() runs the latches on each word.
    const Levels l = levels();
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec off_v = v::splat(l.offset), fall_v = v::splat(l.fall),
                  rise_v = v::splat(l.rise);
    State s = state_;
    const int words = util::bits::words_for(n);
    for (int w = 0; w < words; ++w) {
        const double* x = v_pickup + 64 * w;
        const int nb = util::bits::bits_in_word(n, w);
        ComparatorWords c{0, 0, 0, 0};
        int j = 0;
        // The negative comparator is fed -v, an exact sign flip.
        for (; j + v::kLanes <= nb; j += v::kLanes) {
            const v::dvec x_v = v::load(x + j);
            const v::dvec vp = v::sub(x_v, off_v);
            const v::dvec vn = v::sub(v::bit_xor(x_v, sign_v), off_v);
            c.rise_pos |= std::uint64_t{v::movemask(v::cmp_gt(vp, rise_v))} << j;
            c.fall_pos |= std::uint64_t{v::movemask(v::cmp_gt(fall_v, vp))} << j;
            c.rise_neg |= std::uint64_t{v::movemask(v::cmp_gt(vn, rise_v))} << j;
            c.fall_neg |= std::uint64_t{v::movemask(v::cmp_gt(fall_v, vn))} << j;
        }
        for (; j < nb; ++j) {
            const double vp = x[j] - l.offset;
            const double vn = -x[j] - l.offset;
            c.rise_pos |= std::uint64_t{vp > l.rise} << j;
            c.fall_pos |= std::uint64_t{vp < l.fall} << j;
            c.rise_neg |= std::uint64_t{vn > l.rise} << j;
            c.fall_neg |= std::uint64_t{vn < l.fall} << j;
        }
        out[w] = step_word(c, nb, s);
    }
    state_ = s;
}

}  // namespace fxg::analog
