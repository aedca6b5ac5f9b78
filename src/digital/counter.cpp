#include "digital/counter.hpp"

#include <bit>
#include <iterator>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/exact.hpp"
#include "util/simd.hpp"

namespace fxg::digital {

namespace {

namespace v = util::simd;

/// k >= 1 clock steps from accumulator `a` by `m` (units of 2^-52, both
/// below 2^52): bit j (j < k) set when step j + 1 ticks, that is when
/// its remainder (a + (j + 1) m) mod 2^52 is below m. A remainder r is
/// compared as the double 1 + r 2^-52: the sum's bits ORed into those
/// of 1.0. The sum's bits 52 and up (it stays below 2^59) land on the
/// low bits of 1.0's exponent field, 0x3FF, which are all set already,
/// so the OR keeps the exponent and leaves r in the fraction field.
std::uint64_t rotation_ticks(std::uint64_t a, std::uint64_t m, int k) noexcept {
    alignas(64) static constexpr std::int64_t kLaneSteps[] = {1, 2, 3, 4, 5, 6, 7, 8};
    static_assert(std::size(kLaneSteps) >= v::kLanes);
    const v::ivec m_v = v::i_splat(static_cast<std::int64_t>(m));
    v::ivec sum = v::i_add(v::i_splat(static_cast<std::int64_t>(a)),
                           v::i_mul(v::i_load(kLaneSteps), m_v));
    const v::ivec stride = v::i_splat(static_cast<std::int64_t>(v::kLanes * m));
    const v::ivec one = v::i_splat(std::bit_cast<std::int64_t>(1.0));
    const v::dvec limit = v::splat(1.0 + static_cast<double>(m) * 0x1p-52);
    std::uint64_t ticks = 0;
    for (int j = 0; j < k; j += v::kLanes) {
        const v::dvec rem = v::as_d(v::i_or(sum, one));
        ticks |= std::uint64_t{v::movemask(v::cmp_gt(limit, rem))} << j;
        sum = v::i_add(sum, stride);
    }
    return ticks & util::bits::low_mask(k);
}

}  // namespace

bool UpDownCounter::rotates(double acc, double inc) noexcept {
    return one_bit_clock(acc, inc) && util::on_unit_grid(acc) && util::on_unit_grid(inc);
}

std::uint64_t UpDownCounter::tick_word(double& acc, double inc, std::uint64_t valid) noexcept {
    if (valid == 0) return 0;
    const int first = std::countr_zero(valid);
    const std::uint64_t run = valid >> first;
    if ((run & (run + 1)) == 0 && rotates(acc, inc)) {
        // 0 <= acc < 1 and 0 < inc < 1, so the sums stay below 2 and
        // below 2^59 units over a word.
        constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
        const int k = std::popcount(run);
        const auto a = static_cast<std::uint64_t>(acc * 0x1p52);
        const auto m = static_cast<std::uint64_t>(inc * 0x1p52);
        acc = static_cast<double>((a + static_cast<std::uint64_t>(k) * m) & kFraction) * 0x1p-52;
        return rotation_ticks(a, m, k) << first;
    }
    std::uint64_t ticks = 0;
    for (; valid != 0; valid &= valid - 1) {
        ticks |= static_cast<std::uint64_t>(clock_step(acc, inc)) << std::countr_zero(valid);
    }
    return ticks;
}

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
    State s = save_state();
    // dt * clock is recomputed per call in step(); the product is the
    // same every sample, so hoisting it preserves bit-identity.
    const double inc = dt_s * clock_hz_;
    const bool one_bit = !hardware_engaged_ && one_bit_clock(s.tick_accumulator, inc);
    const int words = util::bits::words_for(n);
    for (int w = 0; w < words; ++w) {
        const std::uint64_t h = high[w];
        std::uint64_t clocked = valid[w] & util::bits::low_mask(util::bits::bits_in_word(n, w));
        if (one_bit) {
            fold_ticks(tick_word(s.tick_accumulator, inc, clocked), h, s);
            continue;
        }
        if (hardware_engaged_) {
            for (; clocked != 0; clocked &= clocked - 1) {
                const int j = std::countr_zero(clocked);
                const std::int64_t ticks = clock_step(s.tick_accumulator, inc);
                s.count += ((h >> j) & 1) != 0 ? ticks : -ticks;
                s.active_ticks += static_cast<std::uint64_t>(ticks);
                apply_hardware(s.count);
            }
            continue;
        }
        // A clock that can tick more than once a sample: up while high,
        // down while low moves the count by sum(high ? t : -t) =
        // 2 sum(high * t) - sum(t), exact in integers.
        std::int64_t ticks_all = 0;
        std::int64_t ticks_high = 0;
        for (; clocked != 0; clocked &= clocked - 1) {
            const int j = std::countr_zero(clocked);
            const std::int64_t ticks = clock_step(s.tick_accumulator, inc);
            ticks_all += ticks;
            ticks_high += ticks & -static_cast<std::int64_t>((h >> j) & 1);
        }
        s.count += 2 * ticks_high - ticks_all;
        s.active_ticks += static_cast<std::uint64_t>(ticks_all);
    }
    load_state(s);
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
