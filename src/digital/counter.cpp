#include "digital/counter.hpp"

#include <bit>
#include <stdexcept>

#include "util/bits.hpp"

namespace fxg::digital {

UpDownCounter::UpDownCounter(double clock_hz) : clock_hz_(clock_hz) {
    if (!(clock_hz > 0.0)) throw std::invalid_argument("UpDownCounter: clock must be > 0");
}

void UpDownCounter::set_hardware(const CounterHardware& hw) {
    if (hw.width_bits != 0 && (hw.width_bits < 2 || hw.width_bits > 62)) {
        throw std::invalid_argument("UpDownCounter: width_bits must be 0 or in [2, 62]");
    }
    const int bit_limit = hw.width_bits > 0 ? hw.width_bits : 63;
    if (hw.stuck_bit < -1 || hw.stuck_bit >= bit_limit) {
        throw std::invalid_argument("UpDownCounter: stuck_bit outside the register");
    }
    hardware_ = hw;
    hardware_engaged_ = hw.width_bits > 0 || hw.stuck_bit >= 0;
}

void UpDownCounter::apply_hardware(std::int64_t& count) {
    if (hardware_.width_bits > 0) {
        // Two's-complement wrap into the register width (C++20 signed
        // shifts are defined as exactly this) — including the
        // most-negative/most-positive register values, where the wrap
        // flips the sign. The register always takes the wrapped value:
        // a trap is only *latched* here (pending, sticky) and raised by
        // service_trap() at the end of the count window, so the
        // register keeps counting modulo 2^w in the meantime — the
        // per-tick state is identical whether the trap is enabled or
        // not, and identical between step() and step_block().
        const int shift = 64 - hardware_.width_bits;
        const std::int64_t wrapped = (count << shift) >> shift;
        if (wrapped != count) {
            overflowed_ = true;
            trap_pending_ |= hardware_.trap_on_overflow;
            count = wrapped;
        }
    }
    if (hardware_.stuck_bit >= 0) {
        const std::uint64_t bit = std::uint64_t{1} << hardware_.stuck_bit;
        auto raw = static_cast<std::uint64_t>(count);
        raw = hardware_.stuck_high ? (raw | bit) : (raw & ~bit);
        count = static_cast<std::int64_t>(raw);
        if (hardware_.width_bits > 0) {
            const int shift = 64 - hardware_.width_bits;
            count = (count << shift) >> shift;  // re-extend the sign
        }
    }
}

void UpDownCounter::service_trap() {
    if (!trap_pending_) return;
    trap_pending_ = false;
    throw std::overflow_error("UpDownCounter: register overflow");
}

void UpDownCounter::step(bool high, double dt_s) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("UpDownCounter: dt must be > 0");
    if (!enabled_) return;
    // Emit the integer clock edges falling inside [t, t+dt), carrying
    // the fractional remainder so long runs stay exact.
    const std::int64_t ticks = clock_step(tick_accumulator_, dt_s * clock_hz_);
    count_ += high ? ticks : -ticks;
    active_ticks_ += static_cast<std::uint64_t>(ticks);
    if (hardware_engaged_) apply_hardware(count_);
}

void UpDownCounter::step_block(const std::uint64_t* high, const std::uint64_t* valid,
                               double dt_s, int n) {
    if (!(dt_s > 0.0)) throw std::invalid_argument("UpDownCounter: dt must be > 0");
    if (!enabled_) return;
    double acc = tick_accumulator_;
    std::int64_t count = count_;
    std::uint64_t active = active_ticks_;
    // dt * clock is recomputed per call in step(); the product is the
    // same every sample, so hoisting it preserves bit-identity.
    const double inc = dt_s * clock_hz_;
    const int words = util::bits::words_for(n);
    for (int w = 0; w < words; ++w) {
        const std::uint64_t h = high[w];
        std::uint64_t clocked = valid[w] & util::bits::low_mask(util::bits::bits_in_word(n, w));
        if (hardware_engaged_) {
            for (; clocked != 0; clocked &= clocked - 1) {
                const int j = std::countr_zero(clocked);
                const std::int64_t ticks = clock_step(acc, inc);
                count += ((h >> j) & 1) != 0 ? ticks : -ticks;
                active += static_cast<std::uint64_t>(ticks);
                apply_hardware(count);
            }
            continue;
        }
        // Up while high, down while low: the word moves the count by
        // sum(high ? t : -t) = 2 sum(high * t) - sum(t), exact in
        // integers.
        std::int64_t ticks_all = 0;
        std::int64_t ticks_high = 0;
        for (; clocked != 0; clocked &= clocked - 1) {
            const int j = std::countr_zero(clocked);
            const std::int64_t ticks = clock_step(acc, inc);
            ticks_all += ticks;
            ticks_high += ticks & -static_cast<std::int64_t>((h >> j) & 1);
        }
        count += 2 * ticks_high - ticks_all;
        active += static_cast<std::uint64_t>(ticks_all);
    }
    tick_accumulator_ = acc;
    count_ = count;
    active_ticks_ = active;
}

void UpDownCounter::reset() noexcept {
    tick_accumulator_ = 0.0;
    count_ = 0;
    active_ticks_ = 0;
    enabled_ = true;
    overflowed_ = false;
    trap_pending_ = false;
}

}  // namespace fxg::digital
