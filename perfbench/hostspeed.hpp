#pragma once

/// \file hostspeed.hpp
/// Host-speed sampling, so that timings taken on a shared VM compare
/// across runs. Such a VM changes speed per vCPU, by 20–60 % in steps
/// that last from a second to minutes, when another tenant loads the
/// sibling hardware thread. A second thread sees a different vCPU, so the
/// speed is sampled on the measuring thread itself: a timer signal
/// interrupts it every kPeriodMs and times a fixed reference kernel
/// there. A timing is then divided by the host factor of its interval,
/// and the handler's own time is taken out of it.

#include <cstddef>

#include "common.hpp"

namespace perfbench {

class HostSpeed {
public:
    /// Sampling period of the timer signal.
    static constexpr int kPeriodMs = 10;
    /// Median reference-kernel time on an unloaded vCPU of the host the
    /// benchmark was written on; factor() is 1 there.
    static constexpr double kNominalRefUs = 30.0;
    /// factor() = (reference time / nominal)^kExponent. The reference
    /// kernel (libm tanh and exp) slows more under a loaded sibling than
    /// the compass does: about as the square of a handheld fix or a lane
    /// sweep (log-log slopes 0.40-0.51 over 0.1 s chunks and 3 s sweeps).
    /// With this exponent the per-chunk and per-sweep spread fell from
    /// 9-15 % to 3-5 % on handheld, fleet_large and fleet_noisy.
    static constexpr double kExponent = 0.5;

    /// Starts sampling on the calling thread. One instance at a time.
    HostSpeed();
    /// Stops the timer; a signal still pending is absorbed.
    ~HostSpeed();
    HostSpeed(const HostSpeed&) = delete;
    HostSpeed& operator=(const HostSpeed&) = delete;

    /// Time spent in the sampling handler so far [s]. A timing subtracts
    /// the difference across its interval.
    [[nodiscard]] static double stolen_s() noexcept;

    /// Host factor over [t0, t1]: the median reference time of the
    /// samples taken in it (widened around its middle to at least
    /// kMinSamples samples) over the nominal, to the power kExponent.
    [[nodiscard]] double factor(Clock::time_point t0, Clock::time_point t1) const;

    /// Calls fn() once and returns its time [s] without the handler's
    /// time, divided by the host factor of its interval.
    template <class F>
    [[nodiscard]] double time(F&& fn) const;

    /// Median reference time of every sample so far [us], for the log.
    [[nodiscard]] double median_ref_us() const;
    [[nodiscard]] std::size_t samples() const noexcept;

private:
    static constexpr std::size_t kMinSamples = 7;
    void* timer_ = nullptr;
};

/// A timed interval with the sampling handler's time taken out.
struct Stopwatch {
    Clock::time_point t0 = Clock::now();
    double stolen0 = HostSpeed::stolen_s();
    /// Seconds since construction, without the handler's time.
    [[nodiscard]] double seconds() const {
        return seconds_since(t0) - (HostSpeed::stolen_s() - stolen0);
    }
    /// Whether the sampling handler ran since construction. Its time is
    /// taken out, but the caches it evicted are not, so a short timing
    /// it interrupted is left out of latency quantiles.
    [[nodiscard]] bool interrupted() const { return HostSpeed::stolen_s() != stolen0; }
};

template <class F>
double HostSpeed::time(F&& fn) const {
    const Stopwatch sw;
    fn();
    const double s = sw.seconds();
    return s / factor(sw.t0, Clock::now());
}

}  // namespace perfbench
