#include "core/plan.hpp"

#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/compass.hpp"
#include "sim/lane_engine.hpp"
#include "util/angle.hpp"

namespace fxg::compass {

const char* to_string(StageKind kind) noexcept {
    switch (kind) {
        case StageKind::PowerUp: return "PowerUp";
        case StageKind::MuxSwitch: return "MuxSwitch";
        case StageKind::Settle: return "Settle";
        case StageKind::Count: return "Count";
        case StageKind::PowerDown: return "PowerDown";
        case StageKind::Cordic: return "Cordic";
        case StageKind::ReExcite: return "ReExcite";
    }
    return "?";
}

bool MeasurementPlan::complete() const noexcept {
    for (const PlanStage& s : stages) {
        if (s.kind == StageKind::Cordic) return true;
    }
    return false;
}

bool MeasurementPlan::counts(analog::Channel channel) const noexcept {
    for (const PlanStage& s : stages) {
        if (s.kind == StageKind::Count && s.channel == channel) return true;
    }
    return false;
}

std::uint64_t MeasurementPlan::total_steps() const noexcept {
    std::uint64_t steps = 0;
    for (const PlanStage& s : stages) {
        if (s.kind == StageKind::Settle || s.kind == StageKind::Count) {
            steps += static_cast<std::uint64_t>(s.periods) *
                     static_cast<std::uint64_t>(steps_per_period);
        }
    }
    return steps;
}

namespace {
std::atomic<std::uint64_t> g_compile_plan_calls{0};
}  // namespace

std::uint64_t compile_plan_count() noexcept {
    return g_compile_plan_calls.load(std::memory_order_relaxed);
}

MeasurementPlan compile_plan(const CompassConfig& config) {
    if (config.periods_per_axis < 1 || config.settle_periods < 0) {
        throw std::invalid_argument("compile_plan: bad period configuration");
    }
    if (config.steps_per_period < 64) {
        throw std::invalid_argument("compile_plan: steps_per_period must be >= 64");
    }
    MeasurementPlan plan;
    plan.steps_per_period = config.steps_per_period;
    plan.dt_s = (1.0 / config.front_end.oscillator.frequency_hz) /
                config.steps_per_period;
    plan.stages.push_back({StageKind::PowerUp});
    for (const auto ch : {analog::Channel::X, analog::Channel::Y}) {
        plan.stages.push_back({StageKind::MuxSwitch, ch});
        plan.stages.push_back({StageKind::Settle, ch, config.settle_periods});
        plan.stages.push_back({StageKind::Count, ch, config.periods_per_axis});
    }
    plan.stages.push_back({StageKind::PowerDown});
    plan.stages.push_back({StageKind::Cordic});
    g_compile_plan_calls.fetch_add(1, std::memory_order_relaxed);
    return plan;
}

MeasurementPlan with_re_excite(const MeasurementPlan& plan) {
    MeasurementPlan out = plan;
    out.stages.insert(out.stages.begin(), PlanStage{StageKind::ReExcite});
    return out;
}

MeasurementPlan truncate_to_axis(const MeasurementPlan& plan,
                                 analog::Channel keep) {
    MeasurementPlan out;
    out.steps_per_period = plan.steps_per_period;
    out.dt_s = plan.dt_s;
    for (const PlanStage& s : plan.stages) {
        switch (s.kind) {
            case StageKind::MuxSwitch:
            case StageKind::Settle:
            case StageKind::Count:
                if (s.channel == keep) out.stages.push_back(s);
                break;
            case StageKind::Cordic:
                break;
            default:
                out.stages.push_back(s);
        }
    }
    return out;
}

namespace {

// Per-member actions around the stage loop. PlanRun and the lane batch
// of PlanExecutor::run_lanes both call these.

/// Entry actions of a fresh measurement: a fresh observation window
/// (the front-end stream statistics used by the fault subsystem's
/// health checks and the telemetry probes describe exactly this plan
/// execution) and the range check. The pulse-position method needs
/// cleanly separated pulses, i.e. the core must pass well beyond its
/// knee in both directions on each axis: |H_ext| + margin * Hk < Ha.
void open_measurement(Compass& c, Measurement& m) {
    c.front_end().reset_window();
    const CompassConfig& cfg = c.config();
    const double ha = cfg.front_end.oscillator.amplitude_a *
                      cfg.front_end.sensor.field_per_amp();
    const double hk = cfg.front_end.sensor.hk_a_per_m;
    for (const auto ch : {analog::Channel::X, analog::Channel::Y}) {
        const double h = c.front_end().sensor(ch).external_field();
        if (std::fabs(h) + cfg.saturation_margin * hk >= ha) {
            m.field_in_range = false;
        }
    }
}

/// Calibrates one channel's raw count into `m` (hard-iron offset;
/// soft-iron rescale of y into the circular domain the arctan assumes,
/// rounded back to the integer counts the hardware would carry).
void calibrate_count(const Compass& c, analog::Channel channel, std::int64_t count,
                     Measurement& m) {
    const CountCalibration& cal = c.calibration();
    if (channel == analog::Channel::X) {
        m.count_x = count - cal.offset_x;
        return;
    }
    m.count_y = count - cal.offset_y;
    // Temperature compensation rides on the soft-iron gain: with it
    // disabled `scale` is exactly scale_y, so the historic count path is
    // bit-identical.
    double scale = cal.scale_y;
    if (cal.temp.enabled()) {
        scale *= cal.temp.gain_at(c.front_end().ambient_temp_c());
    }
    if (scale != 1.0) {
        m.count_y = static_cast<std::int64_t>(
            std::llround(static_cast<double>(m.count_y) * scale));
    }
}

/// CORDIC heading, its floating-point reference and the display update.
/// `detail` (nullable) receives the CORDIC trace.
void update_heading(Compass& c, Measurement& m, digital::CordicResult* detail) {
    m.heading_deg = c.cordic().heading_deg(m.count_x, m.count_y, detail);
    m.heading_float_deg = magnetics::EarthField::heading_from_components(
        static_cast<double>(m.count_x), static_cast<double>(m.count_y));
    c.display().show_direction(m.heading_deg);
}

/// Close-out: average power, watch tick and — when `sink` is set and the
/// plan produced a heading — one MeasurementSample. A truncated plan
/// has no heading and only one live channel, so its probes would be
/// garbage. Returns the finished measurement.
Measurement close_measurement(Compass& c, PlanRun::State& st,
                              telemetry::TelemetrySink* sink,
                              telemetry::Clock::time_point wall_start) {
    Measurement& m = st.m;
    m.avg_power_w = m.duration_s > 0.0 ? m.energy_j / m.duration_s : 0.0;
    c.watch().tick(static_cast<std::uint64_t>(
        std::llround(m.duration_s * c.config().counter_clock_hz)));
    if (sink == nullptr || !st.ran_cordic) return m;
    const analog::StreamStatsSnapshot stats = c.front_end().snapshot();
    const analog::StreamStats& sx = stats[analog::Channel::X];
    const analog::StreamStats& sy = stats[analog::Channel::Y];
    telemetry::MeasurementSample s;
    s.member = c.telemetry_member();
    s.raw_count_x = st.raw_x;
    s.raw_count_y = st.raw_y;
    s.count_x = m.count_x;
    s.count_y = m.count_y;
    s.duty_x = sx.duty();
    s.duty_y = sy.duty();
    s.pulse_shift_x = sx.pulse_shift();
    s.pulse_shift_y = sy.pulse_shift();
    s.valid_fraction_x = sx.valid_fraction();
    s.valid_fraction_y = sy.valid_fraction();
    s.edges_x = sx.edges;
    s.edges_y = sy.edges;
    s.cordic_rotations = st.cordic.rotations;
    s.cordic_residual_deg =
        util::angular_abs_diff_deg(m.heading_deg, m.heading_float_deg);
    s.heading_deg = m.heading_deg;
    s.duration_s = m.duration_s;
    s.latency_s =
        std::chrono::duration<double>(telemetry::Clock::now() - wall_start).count();
    s.energy_j = m.energy_j;
    s.field_in_range = m.field_in_range;
    sink->on_sample(s);
    return m;
}

}  // namespace

PlanRun::PlanRun(Compass& compass, const MeasurementPlan& plan)
    : compass_(compass),
      plan_(plan),
      // Wall-clock latency is only metered while someone listens — the
      // disabled path must not even read a clock.
      wall_start_(compass.telemetry_ != nullptr ? telemetry::Clock::now()
                                                : telemetry::Clock::time_point{}),
      spans_(compass.telemetry_) {
    open_measurement(compass_, state_.m);
}

std::optional<PlanRun::Advance> PlanRun::begin_stage(Compass& c,
                                                     const MeasurementPlan& plan,
                                                     State& s, Spans& spans) {
    const PlanStage& stage = plan.stages[s.next_stage];
    const int ch = static_cast<int>(stage.channel);
    const int steps = stage.periods * plan.steps_per_period;

    // The "axis" span groups one channel's excite/settle/count stages
    // exactly as the historical call sites nested them.
    switch (stage.kind) {
        case StageKind::ReExcite:
            c.re_excite();
            break;
        case StageKind::PowerUp:
            if (c.config_.power_gating) c.front_end_.enable(true);
            c.counter_.enable(true);
            break;
        case StageKind::MuxSwitch: {
            spans.axis.emplace(spans.sink, "axis", ch);
            // Excite: route the excitation onto this channel (the
            // per-axis power-up the control logic performs before
            // the mux settles).
            telemetry::Span excite(spans.sink, "excite", ch);
            c.front_end_.select(stage.channel);
            break;
        }
        case StageKind::Settle:
            spans.stage.emplace(spans.sink, "settle", ch);
            spans.stage->set_value(steps);
            return Advance{stage.channel, steps, nullptr};
        case StageKind::Count:
            c.counter_.clear();
            spans.stage.emplace(spans.sink, "count", ch);
            return Advance{stage.channel, steps, &c.counter_};
        case StageKind::PowerDown:
            c.counter_.enable(false);
            if (c.config_.power_gating) c.front_end_.enable(false);
            break;
        case StageKind::Cordic: {
            telemetry::Span cordic_span(spans.sink, "cordic");
            update_heading(c, s.m, c.telemetry_ != nullptr ? &s.cordic : nullptr);
            cordic_span.set_value(s.cordic.rotations);
            s.ran_cordic = true;
            break;
        }
    }
    return std::nullopt;
}

void PlanRun::end_stage(Compass& c, const MeasurementPlan& plan, State& s,
                        Spans& spans) {
    const PlanStage& stage = plan.stages[s.next_stage];
    const int steps = stage.periods * plan.steps_per_period;
    if (stage.kind == StageKind::Settle) {
        spans.stage.reset();
        s.pending_settle_steps += steps;
    } else if (stage.kind == StageKind::Count) {
        // An overflow trap aborts here, at the window boundary —
        // identical state whichever engine (and block size) consumed
        // the window.
        c.counter_.service_trap();
        const std::int64_t count = c.counter_.count();
        if (spans.stage) {
            spans.stage->set_value(count);
            spans.stage.reset();
        }
        // Settle steps are folded into the duration here, so the
        // floating-point sum matches the historical one bit for bit.
        s.m.duration_s += (s.pending_settle_steps + steps) * plan.dt_s;
        s.pending_settle_steps = 0;
        (stage.channel == analog::Channel::X ? s.raw_x : s.raw_y) = count;
        calibrate_count(c, stage.channel, count, s.m);
        if (spans.axis) {
            spans.axis->set_value(count);
            spans.axis.reset();
        }
    }
    ++s.next_stage;
}

bool PlanRun::step() {
    if (done()) return false;
    if (const std::optional<Advance> a = begin_stage(compass_, plan_, state_, spans_)) {
        compass_.engine_->advance(compass_.front_end_, a->channel, a->steps, plan_.dt_s,
                                  a->counter, state_.m.energy_j);
    }
    end_stage(compass_, plan_, state_, spans_);
    return true;
}

Measurement PlanRun::finish() {
    const Measurement m = close_measurement(compass_, state_, spans_.sink, wall_start_);
    spans_.root.reset();
    return m;
}

bool PlanRun::reachable(const MeasurementPlan& plan, const State& s) noexcept {
    if (s.next_stage > plan.stages.size()) return false;
    int pending_settle_steps = 0;
    bool ran_cordic = false;
    for (std::size_t k = 0; k < s.next_stage; ++k) {
        const PlanStage& stage = plan.stages[k];
        if (stage.kind == StageKind::Settle) {
            pending_settle_steps += stage.periods * plan.steps_per_period;
        }
        if (stage.kind == StageKind::Count) pending_settle_steps = 0;
        if (stage.kind == StageKind::Cordic) ran_cordic = true;
    }
    return s.pending_settle_steps == pending_settle_steps && s.ran_cordic == ran_cordic;
}

void PlanRun::load_state(const State& s) {
    if (!reachable(plan_, s)) {
        throw std::invalid_argument(
            "PlanRun::load_state: no run of the plan stands at this position");
    }
    state_ = s;
}

Measurement PlanExecutor::run(const MeasurementPlan& plan) {
    PlanRun run(compass_, plan);
    while (run.step()) {
    }
    return run.finish();
}

void PlanExecutor::run_lanes(const MeasurementPlan& plan,
                             std::span<Compass* const> lanes,
                             std::span<LaneOutcome> outcomes) {
    const std::size_t n = lanes.size();
    if (n == 0) return;
    if (outcomes.size() < n) {
        throw std::invalid_argument(
            "PlanExecutor::run_lanes: one outcome slot per lane required");
    }
    bool any_traced = false;
    for (const Compass* c : lanes) any_traced = any_traced || c->telemetry_ != nullptr;
    const telemetry::Clock::time_point wall_start =
        any_traced ? telemetry::Clock::now() : telemetry::Clock::time_point{};

    // One span tree per batch, on lanes[0]'s sink; every traced lane
    // still gets its own MeasurementSample at the end.
    PlanRun::Spans spans(lanes[0]->telemetry_);
    PlanRun::Spans quiet(nullptr);
    // Scratch per thread, kept across batches, like the lane kernel's
    // records: a sweep allocates none of it once the thread has run a
    // batch as large.
    thread_local std::vector<PlanRun::State> states;
    thread_local std::vector<sim::LanePort> ports;
    states.assign(n, PlanRun::State{});
    for (std::size_t i = 0; i < n; ++i) {
        outcomes[i] = LaneOutcome{};
        open_measurement(*lanes[i], states[i].m);
    }

    // Calls action(i, spans) on every lane still in the batch, handing
    // the batch's spans to the first of them. A lane that throws leaves
    // the batch there: a counter trap at its count window is exactly
    // where run() would have thrown.
    const auto each_lane = [&](const auto& action) {
        PlanRun::Spans* tree = &spans;
        for (std::size_t i = 0; i < n; ++i) {
            LaneOutcome& slot = outcomes[i];
            if (slot.aborted) continue;
            try {
                action(i, *tree);
                tree = &quiet;
            } catch (const std::exception& e) {
                slot.aborted = true;
                slot.error = e.what();
                slot.error_ptr = std::current_exception();
            } catch (...) {
                slot.aborted = true;
                slot.error = "unknown error";
                slot.error_ptr = std::current_exception();
            }
        }
    };

    sim::LaneEngine engine;
    for (std::size_t k = 0; k < plan.stages.size(); ++k) {
        std::optional<PlanRun::Advance> advance;
        ports.clear();
        each_lane([&](std::size_t i, PlanRun::Spans& tree) {
            Compass& c = *lanes[i];
            double& energy_j = states[i].m.energy_j;
            advance = PlanRun::begin_stage(c, plan, states[i], tree);
            if (!advance) return;
            const sim::LanePort port{&c.front_end_, advance->counter, &energy_j};
            if (sim::LaneEngine::plain(port, advance->channel, advance->steps, plan.dt_s)) {
                ports.push_back(port);
            } else {
                c.engine_->advance(c.front_end_, advance->channel, advance->steps,
                                   plan.dt_s, advance->counter, energy_j);
            }
        });
        if (!ports.empty()) {
            telemetry::Span lanes_span(spans.sink, "engine.lanes",
                                       static_cast<int>(advance->channel));
            lanes_span.set_value(advance->steps);
            engine.advance(ports.data(), static_cast<int>(ports.size()),
                           advance->channel, advance->steps, plan.dt_s);
        }
        each_lane([&](std::size_t i, PlanRun::Spans& tree) {
            PlanRun::end_stage(*lanes[i], plan, states[i], tree);
        });
    }

    // An evicted lane keeps the partial measurement of its abort point.
    for (std::size_t i = 0; i < n; ++i) {
        outcomes[i].measurement =
            outcomes[i].aborted
                ? states[i].m
                : close_measurement(*lanes[i], states[i], lanes[i]->telemetry_,
                                    wall_start);
    }
}

}  // namespace fxg::compass
