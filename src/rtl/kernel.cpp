#include "rtl/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fxg::rtl {

SignalId Kernel::create_signal(std::string name, Logic init) {
    SignalState s;
    s.name = std::move(name);
    s.value = init;
    s.prev = init;
    signals_.push_back(std::move(s));
    return static_cast<SignalId>(signals_.size() - 1);
}

Logic Kernel::read(SignalId id) const { return signals_.at(id).value; }

bool Kernel::rising_edge(SignalId id) const {
    const SignalState& s = signals_.at(id);
    return s.changed_this_delta && s.value == Logic::L1 && s.prev != Logic::L1;
}

bool Kernel::falling_edge(SignalId id) const {
    const SignalState& s = signals_.at(id);
    return s.changed_this_delta && s.value == Logic::L0 && s.prev != Logic::L0;
}

void Kernel::schedule(SignalId id, Logic value, Time delay) {
    if (id >= signals_.size()) throw std::out_of_range("Kernel::schedule: bad signal");
    if (delay == 0) {
        delta_queue_.push_back({id, value});
    } else {
        queue_[now_ + delay].push_back({id, value});
    }
}

void Kernel::deposit(SignalId id, Logic value) { schedule(id, value, 0); }

const std::string& Kernel::signal_name(SignalId id) const {
    return signals_.at(id).name;
}

ProcessId Kernel::add_process(std::string name, std::vector<SignalId> sensitivity,
                              ProcessFn fn) {
    Process p;
    p.name = std::move(name);
    p.fn = std::move(fn);
    processes_.push_back(std::move(p));
    const auto pid = static_cast<ProcessId>(processes_.size() - 1);
    for (SignalId sid : sensitivity) {
        auto& fan = signals_.at(sid).fanout;
        if (std::find(fan.begin(), fan.end(), pid) == fan.end()) fan.push_back(pid);
    }
    return pid;
}

std::uint64_t Kernel::toggle_count(SignalId id) const {
    return signals_.at(id).toggles;
}

bool Kernel::run_one_delta(std::vector<Transaction>& pending) {
    if (pending.empty()) return false;
    ++delta_cycles_;

    // Apply transactions in order; a later write to the same signal in
    // the same delta overwrites the earlier one (last-write-wins).
    std::vector<SignalId> changed;
    for (const Transaction& t : pending) {
        SignalState& s = signals_[t.signal];
        if (s.value == t.value) continue;
        if (!s.changed_this_delta) {
            s.prev = s.value;
            s.changed_this_delta = true;
            changed.push_back(t.signal);
        }
        s.value = t.value;
        ++s.toggles;
        if (change_hook_) change_hook_(t.signal, t.value, now_);
    }
    // A signal that was written back to its original value in the same
    // delta did not actually change.
    std::erase_if(changed, [this](SignalId id) {
        SignalState& s = signals_[id];
        if (s.value == s.prev) {
            s.changed_this_delta = false;
            return true;
        }
        return false;
    });
    if (changed.empty()) return false;

    // Wake every process sensitive to a changed signal, once each,
    // in deterministic (id) order.
    std::vector<ProcessId> woken;
    for (SignalId sid : changed) {
        for (ProcessId pid : signals_[sid].fanout) woken.push_back(pid);
    }
    std::sort(woken.begin(), woken.end());
    woken.erase(std::unique(woken.begin(), woken.end()), woken.end());
    for (ProcessId pid : woken) {
        ++activations_;
        processes_[pid].fn(*this);
    }
    for (SignalId sid : changed) signals_[sid].changed_this_delta = false;
    return true;
}

void Kernel::initialise() {
    if (initialised_) return;
    initialised_ = true;
    // VHDL-style initialisation: every process runs once at time zero.
    for (Process& p : processes_) {
        ++activations_;
        p.fn(*this);
    }
}

void Kernel::run_until(Time t_end) {
    initialise();
    auto settle = [this] {
        std::uint64_t deltas = 0;
        while (!delta_queue_.empty()) {
            std::vector<Transaction> pending;
            pending.swap(delta_queue_);
            run_one_delta(pending);
            if (++deltas > kMaxDeltasPerInstant) {
                throw std::runtime_error("Kernel: combinational oscillation at t=" +
                                         std::to_string(now_) + " ps");
            }
        }
    };
    settle();
    while (!queue_.empty()) {
        const auto it = queue_.begin();
        if (it->first > t_end) break;
        now_ = it->first;
        delta_queue_.insert(delta_queue_.end(), it->second.begin(), it->second.end());
        queue_.erase(it);
        settle();
    }
    now_ = std::max(now_, t_end);
}

Time period_from_hz(double hz) {
    if (!(hz > 0.0)) throw std::invalid_argument("period_from_hz: hz must be > 0");
    return static_cast<Time>(std::llround(1e12 / hz));
}

}  // namespace fxg::rtl
