#include "magnetics/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace fxg::magnetics {

// --- Scenario builder sugar ---------------------------------------------

Scenario& Scenario::hold(double duration_s) {
    motion.push_back({duration_s, 0.0});
    return *this;
}

Scenario& Scenario::turn(double rate_deg_per_s, double duration_s) {
    motion.push_back({duration_s, rate_deg_per_s});
    return *this;
}

Scenario& Scenario::anomaly(double start_s, double duration_s, double dhx_a_per_m,
                            double dhy_a_per_m) {
    anomalies.push_back({start_s, duration_s, dhx_a_per_m, dhy_a_per_m});
    return *this;
}

Scenario& Scenario::burst(double start_s, double duration_s,
                          double amplitude_a_per_m, double frequency_hz,
                          double phase_rad) {
    bursts.push_back(
        {start_s, duration_s, amplitude_a_per_m, frequency_hz, phase_rad, true, true});
    return *this;
}

Scenario& Scenario::hard_iron(double offset_x_a_per_m, double offset_y_a_per_m) {
    iron.offset_x_a_per_m = offset_x_a_per_m;
    iron.offset_y_a_per_m = offset_y_a_per_m;
    return *this;
}

Scenario& Scenario::soft_iron(double sxx, double sxy, double syx, double syy) {
    iron.sxx = sxx;
    iron.sxy = sxy;
    iron.syx = syx;
    iron.syy = syy;
    return *this;
}

Scenario& Scenario::temperature(double time_s, double temp_c) {
    temperature_points.push_back({time_s, temp_c});
    return *this;
}

// --- CompiledScenario ----------------------------------------------------

namespace {

/// The sample-grid point at or after time t. Event times are resolved
/// to ticks exactly once, here; field_at() then compares integer ticks
/// only, so no later floating-point rounding can move a boundary.
std::uint64_t tick_ceil(double time_s, double dt_s) {
    if (time_s <= 0.0) return 0;
    const double t = std::ceil(time_s / dt_s);
    if (t >= static_cast<double>(FieldSource::kForever)) return FieldSource::kForever;
    return static_cast<std::uint64_t>(t);
}

}  // namespace

std::uint64_t CompiledScenario::tick_of(double time_s) const {
    return tick_ceil(time_s, dt_s_);
}

std::uint64_t CompiledScenario::motion_end_tick() const noexcept {
    return motion_end_tick_;
}

double CompiledScenario::heading_deg_at(std::uint64_t tick) const {
    if (tick >= motion_end_tick_) return final_heading_deg_;
    // Last segment whose start_tick <= tick.
    auto it = std::upper_bound(
        segments_.begin(), segments_.end(), tick,
        [](std::uint64_t t, const Segment& s) { return t < s.start_tick; });
    const Segment& seg = *(it - 1);
    if (seg.rate_deg_per_s == 0.0) return seg.heading0_deg;
    return seg.heading0_deg +
           seg.rate_deg_per_s * dt_s_ * static_cast<double>(tick - seg.start_tick);
}

double CompiledScenario::temp_at(std::uint64_t tick) const {
    if (temp_points_.empty()) return 25.0;
    if (tick <= temp_points_.front().tick) return temp_points_.front().temp_c;
    if (tick >= temp_points_.back().tick) return temp_points_.back().temp_c;
    auto it = std::upper_bound(
        temp_points_.begin(), temp_points_.end(), tick,
        [](std::uint64_t t, const TempPoint& p) { return t < p.tick; });
    const TempPoint& hi = *it;
    const TempPoint& lo = *(it - 1);
    if (hi.temp_c == lo.temp_c) return lo.temp_c;
    const double frac = static_cast<double>(tick - lo.tick) /
                        static_cast<double>(hi.tick - lo.tick);
    return lo.temp_c + (hi.temp_c - lo.temp_c) * frac;
}

double CompiledScenario::true_heading_deg(std::uint64_t sample_index) const {
    double h = std::fmod(heading_deg_at(sample_index), 360.0);
    if (h < 0.0) h += 360.0;
    return h;
}

FieldTick CompiledScenario::field_at(std::uint64_t sample_index) const {
    const HorizontalField clean = field_.at_heading(heading_deg_at(sample_index));
    double hx = clean.hx_a_per_m;
    double hy = clean.hy_a_per_m;
    for (std::size_t i = 0; i < anomaly_windows_.size(); ++i) {
        const Window& w = anomaly_windows_[i];
        if (sample_index >= w.start_tick && sample_index < w.end_tick) {
            hx += anomalies_[i].dhx_a_per_m;
            hy += anomalies_[i].dhy_a_per_m;
        }
    }
    for (std::size_t i = 0; i < burst_windows_.size(); ++i) {
        const Window& w = burst_windows_[i];
        if (sample_index >= w.start_tick && sample_index < w.end_tick) {
            const InterferenceBurst& b = bursts_[i];
            const double t =
                static_cast<double>(sample_index - w.start_tick) * dt_s_;
            const double s =
                b.amplitude_a_per_m *
                std::sin(2.0 * std::numbers::pi * b.frequency_hz * t + b.phase_rad);
            if (b.on_x) hx += s;
            if (b.on_y) hy += s;
        }
    }
    if (!iron_identity_) {
        const double dx = iron_.sxx * hx + iron_.sxy * hy + iron_.offset_x_a_per_m;
        const double dy = iron_.syx * hx + iron_.syy * hy + iron_.offset_y_a_per_m;
        hx = dx;
        hy = dy;
    }
    return FieldTick{hx, hy, temp_at(sample_index)};
}

bool CompiledScenario::varying_at(std::uint64_t tick) const {
    if (tick < motion_end_tick_) {
        auto it = std::upper_bound(
            segments_.begin(), segments_.end(), tick,
            [](std::uint64_t t, const Segment& s) { return t < s.start_tick; });
        if ((it - 1)->rate_deg_per_s != 0.0) return true;
    }
    for (const Window& w : burst_windows_) {
        if (tick >= w.start_tick && tick < w.end_tick) return true;
    }
    // >= on the front point: interpolation toward the next point is
    // already in progress on the segment's first tick.
    if (!temp_points_.empty() && tick >= temp_points_.front().tick &&
        tick < temp_points_.back().tick) {
        auto it = std::upper_bound(
            temp_points_.begin(), temp_points_.end(), tick,
            [](std::uint64_t t, const TempPoint& p) { return t < p.tick; });
        if (it->temp_c != (it - 1)->temp_c) return true;
    }
    return false;
}

std::uint64_t CompiledScenario::constant_until(std::uint64_t begin,
                                               FieldTick* tick) const {
    if (tick != nullptr) *tick = field_at(begin);
    if (begin == kForever) return kForever;
    if (varying_at(begin)) return begin + 1;
    auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), begin);
    return it == boundaries_.end() ? kForever : *it;
}

std::shared_ptr<const CompiledScenario> compile_scenario(const Scenario& scenario,
                                                         double dt_s) {
    if (!(dt_s > 0.0) || !std::isfinite(dt_s)) {
        throw std::invalid_argument("compile_scenario: dt_s must be positive");
    }
    auto cs = std::make_shared<CompiledScenario>();
    cs->label_ = scenario.label;
    cs->dt_s_ = dt_s;
    cs->field_ = scenario.field;

    std::vector<std::uint64_t> boundaries;

    // Motion programme -> cumulative (start_tick, heading0, rate) table.
    // Headings at segment starts are accumulated on the tick grid so a
    // ramp's end heading is exactly the next segment's start heading.
    double time_s = 0.0;
    double heading = scenario.initial_heading_deg;
    std::uint64_t start_tick = 0;
    for (const auto& m : scenario.motion) {
        if (m.duration_s < 0.0 || !std::isfinite(m.duration_s)) {
            throw std::invalid_argument(
                "compile_scenario: motion duration must be >= 0");
        }
        const std::uint64_t end_tick = tick_ceil(time_s + m.duration_s, dt_s);
        if (end_tick > start_tick) {
            cs->segments_.push_back({start_tick, heading, m.turn_rate_deg_per_s});
            heading += m.turn_rate_deg_per_s * dt_s *
                       static_cast<double>(end_tick - start_tick);
            boundaries.push_back(end_tick);
            start_tick = end_tick;
        }
        time_s += m.duration_s;
    }
    if (cs->segments_.empty()) {
        cs->segments_.push_back({0, heading, 0.0});
    }
    cs->motion_end_tick_ = start_tick;
    cs->final_heading_deg_ = heading;

    auto add_window = [&](double start_s, double duration_s,
                          const char* what) -> CompiledScenario::Window {
        if (duration_s < 0.0 || !std::isfinite(start_s) || !std::isfinite(duration_s)) {
            throw std::invalid_argument(std::string("compile_scenario: bad ") + what +
                                        " window");
        }
        CompiledScenario::Window w{tick_ceil(start_s, dt_s),
                                   tick_ceil(start_s + duration_s, dt_s)};
        boundaries.push_back(w.start_tick);
        boundaries.push_back(w.end_tick);
        return w;
    };

    for (const auto& a : scenario.anomalies) {
        cs->anomaly_windows_.push_back(add_window(a.start_s, a.duration_s, "anomaly"));
        cs->anomalies_.push_back(a);
    }
    for (const auto& b : scenario.bursts) {
        cs->burst_windows_.push_back(add_window(b.start_s, b.duration_s, "burst"));
        cs->bursts_.push_back(b);
    }

    cs->iron_ = scenario.iron;
    cs->iron_identity_ = scenario.iron.is_identity();

    double prev_time = -1.0;
    for (const auto& p : scenario.temperature_points) {
        if (!std::isfinite(p.time_s) || !std::isfinite(p.temp_c) ||
            p.time_s <= prev_time) {
            throw std::invalid_argument(
                "compile_scenario: temperature points must have finite, strictly "
                "increasing times");
        }
        prev_time = p.time_s;
        const std::uint64_t tick = tick_ceil(p.time_s, dt_s);
        // Two points landing on one grid tick: the later value wins.
        if (!cs->temp_points_.empty() && cs->temp_points_.back().tick == tick) {
            cs->temp_points_.back().temp_c = p.temp_c;
        } else {
            cs->temp_points_.push_back({tick, p.temp_c});
        }
        boundaries.push_back(tick);
    }

    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    cs->boundaries_ = std::move(boundaries);
    return cs;
}

}  // namespace fxg::magnetics
