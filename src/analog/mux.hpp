#pragma once

/// \file mux.hpp
/// Sensor multiplexer. The paper's system "uses a multiplexing technique
/// by exciting one sensor at a time. This reduces both momental power
/// consumption and chip area since only one oscillator is needed"
/// (section 2). The mux routes the single excitation source to the x or
/// y sensor and models the settling blanking time after a switch.

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace fxg::analog {

/// Which sensor channel is being excited.
enum class Channel : int { X = 0, Y = 1 };

/// Analogue multiplexer with switchover settling.
class AnalogMux {
public:
    /// \param settle_s dead time after a channel switch during which the
    ///        routed signal is not yet valid (switch transients).
    explicit AnalogMux(double settle_s = 50.0e-6);

    /// Selects a channel; restarts the settling timer if it changed.
    void select(Channel channel) noexcept;

    [[nodiscard]] Channel selected() const noexcept { return channel_; }

    /// Advances time; returns true when the routed path has settled.
    bool step(double dt_s);

    /// Advances `n` steps of dt, writing the settled flag after each
    /// step as a one-bit stream of util::bits::words_for(n) words into
    /// `settled_out` (bit j of word w is step 64w + j; bits past n are
    /// zero). Bit-identical to n step() calls: once settled, the
    /// elapsed time takes util::repeated_add, the same n additions in
    /// closed form.
    void step_block(double dt_s, int n, std::uint64_t* settled_out);

    /// True when the output is valid (settled after the last switch).
    [[nodiscard]] bool settled() const noexcept { return since_switch_s_ >= settle_s_; }

    /// Settling dead time after a switch [s].
    [[nodiscard]] double settle_time_s() const noexcept { return settle_s_; }

    /// Evolving state for the lane engine's gather/scatter seam.
    /// load_state restores the channel *without* restarting the
    /// settling timer (unlike select()), which is exactly what putting
    /// a suspended pipeline back together requires.
    struct State {
        Channel channel = Channel::X;
        double since_switch_s = 0.0;
    };

    [[nodiscard]] State save_state() const noexcept { return {channel_, since_switch_s_}; }
    void load_state(const State& s) noexcept {
        channel_ = s.channel;
        since_switch_s_ = s.since_switch_s;
    }

    void reset() noexcept;

private:
    double settle_s_;
    Channel channel_ = Channel::X;
    double since_switch_s_ = 0.0;
};

}  // namespace fxg::analog
