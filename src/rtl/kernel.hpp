#pragma once

/// \file kernel.hpp
/// Event-driven digital simulation kernel with VHDL-style delta cycles.
///
/// The kernel owns a set of named signals and a set of processes. A
/// process runs whenever a signal on its sensitivity list changes value;
/// it reads signals and schedules new values, either after a physical
/// delay or in the next delta cycle (zero delay). Simulated time is in
/// integer picoseconds so the 4.194304 MHz counter clock and the 8 kHz
/// excitation period divide exactly.

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "rtl/logic.hpp"

namespace fxg::rtl {

/// Simulated time in picoseconds.
using Time = std::uint64_t;

/// One picosecond.
inline constexpr Time kPs = 1;
/// One nanosecond in kernel time units.
inline constexpr Time kNs = 1000;
/// One microsecond in kernel time units.
inline constexpr Time kUs = 1000 * kNs;
/// One millisecond in kernel time units.
inline constexpr Time kMs = 1000 * kUs;

/// Handle to a signal owned by the kernel.
using SignalId = std::uint32_t;
/// Handle to a process owned by the kernel.
using ProcessId = std::uint32_t;

class Kernel;

/// Process body; receives the kernel to read/schedule signals.
using ProcessFn = std::function<void(Kernel&)>;

/// Event-driven simulator.
class Kernel {
public:
    Kernel() = default;
    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    // ------------------------------------------------------------ signals

    /// Creates a named signal with the given initial value.
    SignalId create_signal(std::string name, Logic init = Logic::X);

    /// Current value of a signal.
    [[nodiscard]] Logic read(SignalId id) const;

    /// Value the signal held before its most recent change (for edge
    /// detection inside processes).
    [[nodiscard]] Logic previous(SignalId id) const;

    /// True if `id` changed to L1 from a non-L1 value in the delta that
    /// woke the currently-running process.
    [[nodiscard]] bool rising_edge(SignalId id) const;

    /// True if `id` changed to L0 from a non-L0 value in that delta.
    [[nodiscard]] bool falling_edge(SignalId id) const;

    /// Schedules `value` on `id` after `delay` (0 = next delta cycle).
    /// Last-write-wins per (signal, time): a later schedule to the same
    /// signal and time overwrites the earlier one, like a VHDL signal
    /// assignment in one process.
    void schedule(SignalId id, Logic value, Time delay = 0);

    /// Immediately forces a value outside the event loop (testbench use).
    void deposit(SignalId id, Logic value);

    [[nodiscard]] const std::string& signal_name(SignalId id) const;

    // ---------------------------------------------------------- processes

    /// Registers a process sensitive to the given signals. The process
    /// runs once at time 0 (initialisation pass) and then on every value
    /// change of a sensitivity signal.
    ProcessId add_process(std::string name, std::vector<SignalId> sensitivity,
                          ProcessFn fn);

    // ------------------------------------------------------------ running

    /// Runs until the event queue is empty or simulated time would pass
    /// `t_end`; time stops at exactly `t_end`.
    void run_until(Time t_end);

    /// Runs for `dt` from the current time.
    void run_for(Time dt) { run_until(now_ + dt); }

    /// Executes the time-0 initialisation pass if it has not run yet.
    /// run_until() calls this automatically.
    void initialise();

    [[nodiscard]] Time now() const noexcept { return now_; }

    // -------------------------------------------------------------- stats

    /// Total delta cycles executed (simulation activity measure; the
    /// power model uses signal toggle counts instead).
    [[nodiscard]] std::uint64_t delta_cycles() const noexcept { return delta_cycles_; }

    /// Total process activations.
    [[nodiscard]] std::uint64_t activations() const noexcept { return activations_; }

    /// Number of value changes on a given signal since construction —
    /// the toggle count used by the SoG dynamic-power estimate.
    [[nodiscard]] std::uint64_t toggle_count(SignalId id) const;

    /// Hook invoked on every committed signal change (used by the VCD
    /// writer). Receives (signal, new value, time).
    using ChangeHook = std::function<void(SignalId, Logic, Time)>;
    void set_change_hook(ChangeHook hook) { change_hook_ = std::move(hook); }

    /// Limit on deltas at one time point before declaring oscillation.
    static constexpr std::uint64_t kMaxDeltasPerInstant = 10000;

private:
    struct SignalState {
        std::string name;
        Logic value = Logic::X;
        Logic prev = Logic::X;
        bool changed_this_delta = false;
        std::uint64_t toggles = 0;
        std::vector<ProcessId> fanout;
    };

    struct Process {
        std::string name;
        ProcessFn fn;
    };

    struct Transaction {
        SignalId signal;
        Logic value;
    };

    /// Applies all transactions for the current instant's next delta and
    /// wakes sensitive processes. Returns false when the instant settles.
    bool run_one_delta(std::vector<Transaction>& pending);

    std::vector<SignalState> signals_;
    std::vector<Process> processes_;
    // time -> list of transactions (later schedules override earlier via
    // last-write-wins during application).
    std::map<Time, std::vector<Transaction>> queue_;
    std::vector<Transaction> delta_queue_;
    Time now_ = 0;
    bool initialised_ = false;
    std::uint64_t delta_cycles_ = 0;
    std::uint64_t activations_ = 0;
    ChangeHook change_hook_;
};

/// Converts a frequency in Hz to the kernel-time period, rounded to the
/// nearest picosecond.
Time period_from_hz(double hz);

}  // namespace fxg::rtl
