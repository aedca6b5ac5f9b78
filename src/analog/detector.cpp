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

/// The latch recurrence Q_j = G_j | (P_j & Q_{j-1}) over one word, with
/// Q_{-1} = q_in (0 or 1) and every generate bit also a propagate bit.
/// Adding G to P ripples a carry through each run of propagate bits that
/// a generate bit or the carry-in starts, so bit j of
/// (P + G + q_in) ^ P ^ G is the carry into bit j, which is Q_{j-1}.
constexpr std::uint64_t latch(std::uint64_t g, std::uint64_t p, std::uint64_t q_in) {
    const std::uint64_t carries = (p + g + q_in) ^ p ^ g;
    return g | (p & carries);
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
    // Comparator::step()'s thresholds, hoisted per comparator. A latch
    // that is high stays high unless v < fall, one that is low goes high
    // iff v > rise: generate = (v > rise), propagate = !(v < fall). The
    // constructor's hysteresis >= 0 makes fall <= rise, so a generate
    // bit is always a propagate bit, as latch() needs.
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
    std::uint64_t pos = positive_.output() ? 1 : 0;
    std::uint64_t neg = negative_.output() ? 1 : 0;
    std::uint64_t prev_pos = prev_pos_ ? 1 : 0;
    std::uint64_t prev_neg = prev_neg_ ? 1 : 0;
    std::uint64_t o = out_ ? 1 : 0;
    const int words = util::bits::words_for(n);
    for (int w = 0; w < words; ++w) {
        const double* x = v_pickup + 64 * w;
        const int nb = util::bits::bits_in_word(n, w);
        std::uint64_t gen_p = 0, fall_pw = 0, gen_n = 0, fall_nw = 0;
        int j = 0;
        // The negative comparator is fed -v, an exact sign flip.
        for (; j + v::kLanes <= nb; j += v::kLanes) {
            const v::dvec x_v = v::load(x + j);
            const v::dvec vp = v::sub(x_v, off_p);
            const v::dvec vn = v::sub(v::bit_xor(x_v, sign_v), off_n);
            gen_p |= std::uint64_t{v::movemask(v::cmp_gt(vp, rise_p))} << j;
            fall_pw |= std::uint64_t{v::movemask(v::cmp_gt(fall_p, vp))} << j;
            gen_n |= std::uint64_t{v::movemask(v::cmp_gt(vn, rise_n))} << j;
            fall_nw |= std::uint64_t{v::movemask(v::cmp_gt(fall_n, vn))} << j;
        }
        for (; j < nb; ++j) {
            const double vp = x[j] - lp.offset;
            const double vn = -x[j] - ln.offset;
            gen_p |= std::uint64_t{vp > lp.rise} << j;
            fall_pw |= std::uint64_t{vp < lp.fall} << j;
            gen_n |= std::uint64_t{vn > ln.rise} << j;
            fall_nw |= std::uint64_t{vn < ln.fall} << j;
        }
        const std::uint64_t live = util::bits::low_mask(nb);
        const std::uint64_t pos_w = latch(gen_p, ~fall_pw & live, pos);
        const std::uint64_t neg_w = latch(gen_n, ~fall_nw & live, neg);
        // Edge logic as in step(): a falling edge of the positive latch
        // sets the output, one of the negative latch clears it, and
        // clear wins when both fire. That is a third latch.
        const std::uint64_t set = ((pos_w << 1) | prev_pos) & ~pos_w;
        const std::uint64_t clear = ((neg_w << 1) | prev_neg) & ~neg_w;
        const std::uint64_t hold = ~clear & live;
        const std::uint64_t out_w = latch(set & hold, hold, o);
        out[w] = out_w;
        pos = (pos_w >> (nb - 1)) & 1;
        neg = (neg_w >> (nb - 1)) & 1;
        o = (out_w >> (nb - 1)) & 1;
        prev_pos = pos;
        prev_neg = neg;
    }
    positive_.set_output(pos != 0);
    negative_.set_output(neg != 0);
    prev_pos_ = prev_pos != 0;
    prev_neg_ = prev_neg != 0;
    out_ = o != 0;
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
