#pragma once

/// \file counter.hpp
/// The pulse-count part (paper section 4): a high-frequency
/// (4.194304 MHz = 2^22 Hz, the watch-crystal multiple) up/down counter
/// samples the pulse-position detector output — up while high, down
/// while low — so after an integer number of excitation periods the
/// count is directly proportional to the measured field component
/// (derivation in DESIGN.md section 5). A gate-level realisation is
/// generated by rtl::structural::updown_counter; this class is the
/// behavioural model used inside the compass pipeline.

#include <bit>
#include <cmath>
#include <cstdint>

namespace fxg::digital {

/// Physical register constraints of the counter — the paper's real
/// counter is a finite-width hardware register, not an ideal integer.
/// Defaults keep the ideal behaviour (back-compat); a finite width adds
/// two's-complement wrap-around with a sticky overflow flag the fault
/// subsystem's HealthMonitor consumes, and `stuck_bit` injects a
/// stuck-at fault on one register bit.
struct CounterHardware {
    /// Register width in bits (signed two's complement); 0 = unbounded.
    int width_bits = 0;
    /// Bit index forced to `stuck_high` after every clock tick; -1 = none.
    int stuck_bit = -1;
    bool stuck_high = false;
    /// Latch a pending trap at the tick that wraps (models a hardware
    /// overflow interrupt instead of silent wrap-around). The register
    /// keeps counting modulo 2^w — step()/step_block() never throw —
    /// and the pipeline raises std::overflow_error from service_trap()
    /// at the end of the count window. Deferring the throw to the
    /// window boundary keeps the abort point (and every piece of
    /// front-end/counter state at the abort) bit-identical between the
    /// scalar and block engines, which consume the window in different
    /// chunk sizes.
    bool trap_on_overflow = false;
};

/// Behavioural up/down counter with fractional-tick bookkeeping so it
/// can be driven from an analogue simulation with an arbitrary dt.
class UpDownCounter {
public:
    /// \param clock_hz counting clock; the paper's value is 4.194304 MHz.
    explicit UpDownCounter(double clock_hz = 4194304.0);

    /// Advances by dt with the detector output held at `high`;
    /// accumulates the integer clock ticks that fall in the interval.
    void step(bool high, double dt_s);

    /// One clock step of the fractional-tick bookkeeping: adds `inc`
    /// clock periods to the accumulator `acc`, leaves the remainder in
    /// it and returns the whole ticks that fell inside the step. step(),
    /// step_block()'s clocks outside the one-bit clock and tick_word()
    /// off the 2^-52 grid call this, so every path emits the same tick
    /// sequence.
    ///
    /// The result is that of the floor() form
    ///     s = acc + inc;  whole = floor(s);  acc = s - whole;  ticks = whole
    /// bit for bit. For 0 < s < 2 a compare and a subtract replace the
    /// floor(): whole is 0 or 1, s - 0 is s, and s - 1 is exact on
    /// [1, 2) by Sterbenz's lemma. That holds on every sample whenever
    /// acc is in [0, 1) and 0 < inc < 1 (0.256 at the paper's design
    /// point). Every other s, including +-0, takes floor().
    [[nodiscard]] static std::int64_t clock_step(double& acc, double inc) noexcept {
        const double s = acc + inc;
        if (s > 0.0 && s < 2.0) {
            const double carry = s >= 1.0 ? 1.0 : 0.0;
            acc = s - carry;
            return static_cast<std::int64_t>(carry);
        }
        const double whole = std::floor(s);
        acc = s - whole;
        return static_cast<std::int64_t>(whole);
    }

    /// The one-bit condition: 0 < inc < 1 and acc in [0, 1). Then every
    /// clock_step() from `acc` on takes its fast path, adds 0 or 1 tick
    /// and leaves acc in [0, 1) (acc + inc < 2 under rounding: both are
    /// at most 1 - 2^-53), so the condition holds for the whole stream.
    [[nodiscard]] static bool one_bit_clock(double acc, double inc) noexcept {
        return inc > 0.0 && inc < 1.0 && acc >= 0.0 && acc < 1.0;
    }

    /// True when tick_word(acc, inc, ...) takes the rotation for a word
    /// whose valid bits are one run: one_bit_clock(acc, inc), with acc
    /// and inc multiples of 2^-52, so every clock step is exact.
    [[nodiscard]] static bool rotates(double acc, double inc) noexcept;

    /// Under one_bit_clock(acc, inc): one clock_step(acc, inc) for each
    /// set bit of `valid`, in sample order, and the word of the samples
    /// that ticked. When acc and inc are multiples of 2^-52 (as at the
    /// paper's design point: a 2^22 Hz clock steps 0.256 per sample at
    /// 2,048 samples per 8 kHz period) every step is exact, so the
    /// accumulator after j clocked samples is the rotation
    /// (A + j M) mod 2^52 in units of 2^-52, and clocked sample j ticks
    /// when floor((A + j M) / 2^52) steps: a word whose valid bits are
    /// one run takes that as vectors. Other words, and acc or inc off
    /// the grid, run the clock_step loop. step_block() and the lane
    /// engine's cohort clocks call this, so every path emits the same
    /// ticks.
    [[nodiscard]] static std::uint64_t tick_word(double& acc, double inc,
                                                 std::uint64_t valid) noexcept;

    /// Fused block form over one-bit streams (util/bits.hpp: bit j of
    /// word w is sample 64w + j): for each of the `n` samples whose
    /// valid bit is set, performs exactly what step(high bit, dt_s)
    /// would (samples with a clear valid bit are skipped, i.e. not
    /// clocked at all — the blanking the control logic applies while the
    /// mux settles). Bit-identical to the equivalent scalar call
    /// sequence: the clock steps over the valid samples only, and an
    /// ideal register adds 2·Σ(high·ticks) − Σticks per word
    /// (fold_ticks() on tick_word(), under one_bit_clock()); an engaged
    /// hardware model wraps and sticks per tick.
    void step_block(const std::uint64_t* high, const std::uint64_t* valid, double dt_s,
                    int n);

    /// Enables/disables counting (the control logic power-gates the
    /// counter between measurements).
    void enable(bool on) noexcept { enabled_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Current signed count.
    [[nodiscard]] std::int64_t count() const noexcept { return count_; }

    /// Total clock ticks consumed while enabled (for the power model).
    [[nodiscard]] std::uint64_t active_ticks() const noexcept { return active_ticks_; }

    /// Clears the count (start of a measurement window). The sticky
    /// overflow flag survives — the control logic reads it per
    /// measurement, not per axis window.
    void clear() noexcept { count_ = 0; }

    /// Full reset including the clock-phase accumulator and the sticky
    /// overflow flag.
    void reset() noexcept;

    /// Reconfigures the hardware register model (validated: width 0 or
    /// in [2, 62], stuck bit inside the register).
    void set_hardware(const CounterHardware& hw);
    [[nodiscard]] const CounterHardware& hardware() const noexcept { return hardware_; }

    /// Sticky: a finite-width register wrapped at least once since the
    /// last reset()/clear_overflow().
    [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }
    void clear_overflow() noexcept { overflowed_ = false; }

    /// A wrap occurred with trap_on_overflow set and the trap has not
    /// been serviced yet.
    [[nodiscard]] bool trap_pending() const noexcept { return trap_pending_; }

    /// Raises the pending trap, if any: clears the pending flag and
    /// throws std::overflow_error. The plan executor calls this at the
    /// end of every count window; the register holds the wrapped count
    /// and overflowed() stays sticky when the exception propagates.
    void service_trap();

    [[nodiscard]] double clock_hz() const noexcept { return clock_hz_; }

    /// True when the finite-width/stuck-bit register model is active.
    /// A lane whose counter has it engaged advances through its own
    /// engine on every counting advance (sim::LaneEngine::plain), so the
    /// wrap and trap logic stays in one place; ideal counters under the
    /// one-bit clock fold inside the lane kernel.
    [[nodiscard]] bool hardware_engaged() const noexcept { return hardware_engaged_; }

    /// Evolving counting state, for the lane engine's gather/scatter
    /// seam. Only used for lanes *without* an engaged hardware model,
    /// so the wrap/stuck/trap flags are deliberately not part of it.
    struct State {
        double tick_accumulator = 0.0;
        std::int64_t count = 0;
        std::uint64_t active_ticks = 0;
    };

    [[nodiscard]] State save_state() const noexcept {
        return {tick_accumulator_, count_, active_ticks_};
    }
    void load_state(const State& s) noexcept {
        tick_accumulator_ = s.tick_accumulator;
        count_ = s.count;
        active_ticks_ = s.active_ticks;
    }

    /// Counts one word of one-bit ticks into an ideal register, up while
    /// `high` and down while low: the count moves by
    /// 2·popcount(ticks & high) − popcount(ticks), exact in integers, and
    /// the active ticks by popcount(ticks). step_block() and the lane
    /// engine both count through it.
    static void fold_ticks(std::uint64_t ticks, std::uint64_t high, State& s) noexcept {
        const int all = std::popcount(ticks);
        s.count += 2 * std::popcount(ticks & high) - all;
        s.active_ticks += static_cast<std::uint64_t>(all);
    }

    /// Complete register state including the enable gate and the
    /// sticky/trap flags the lane State deliberately excludes — the
    /// snapshot layer's seam. Hardware geometry is restored separately
    /// through set_hardware() (which validates and keeps counting state),
    /// then load_full_state() overwrites the counting state and flags.
    struct FullState {
        State state{};
        bool enabled = true;
        bool overflowed = false;
        bool trap_pending = false;
    };

    [[nodiscard]] FullState save_full_state() const noexcept {
        return {save_state(), enabled_, overflowed_, trap_pending_};
    }
    void load_full_state(const FullState& s) noexcept {
        load_state(s.state);
        enabled_ = s.enabled;
        overflowed_ = s.overflowed;
        trap_pending_ = s.trap_pending;
    }

private:
    /// Applies wrap + stuck-bit to a freshly updated count, in place.
    /// Only called while the hardware model is engaged. Never throws:
    /// an overflow sets the sticky flag and latches the pending trap.
    void apply_hardware(std::int64_t& count);

    double clock_hz_;
    double tick_accumulator_ = 0.0;  ///< fractional pending clock edges
    std::int64_t count_ = 0;
    std::uint64_t active_ticks_ = 0;
    bool enabled_ = true;
    CounterHardware hardware_;
    bool hardware_engaged_ = false;  ///< width or stuck bit active
    bool overflowed_ = false;        ///< sticky wrap flag
    bool trap_pending_ = false;      ///< unserviced overflow trap
};

}  // namespace fxg::digital
