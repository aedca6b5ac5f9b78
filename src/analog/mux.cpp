#include "analog/mux.hpp"

#include "util/bits.hpp"
#include "util/exact.hpp"

namespace fxg::analog {

AnalogMux::AnalogMux(double settle_s) : settle_s_(settle_s) {
    if (settle_s < 0.0) throw std::invalid_argument("AnalogMux: settle time < 0");
}

void AnalogMux::select(Channel channel) noexcept {
    if (channel != channel_) {
        channel_ = channel;
        since_switch_s_ = 0.0;
    }
}

bool AnalogMux::step(double dt_s) {
    since_switch_s_ += dt_s;
    return settled();
}

void AnalogMux::step_block(double dt_s, int n, std::uint64_t* settled_out) {
    double since = since_switch_s_;
    const double settle = settle_s_;
    // For dt >= 0 the elapsed time never falls (x + dt >= x under
    // rounding), so the flag is monotone: from a word that starts
    // settled on, every flag is set, and only the additions remain,
    // which util::repeated_add returns in closed form. Other words, and
    // any dt < 0 or NaN, take the flag per step.
    const bool monotone = dt_s >= 0.0;
    const int words = util::bits::words_for(n);
    for (int w = 0; w < words; ++w) {
        const int nb = util::bits::bits_in_word(n, w);
        if (monotone && since >= settle) {
            util::bits::fill(settled_out + w, n - 64 * w, true);
            since = util::repeated_add(since, dt_s, n - 64 * w);
            break;
        }
        std::uint64_t settled = 0;
        for (int j = 0; j < nb; ++j) {
            since += dt_s;
            settled |= std::uint64_t{since >= settle} << j;
        }
        settled_out[w] = settled;
    }
    since_switch_s_ = since;
}

void AnalogMux::reset() noexcept {
    channel_ = Channel::X;
    since_switch_s_ = 0.0;
}

}  // namespace fxg::analog
