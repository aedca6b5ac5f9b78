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

// Per-member plan actions. PlanRun and the lane batch of
// PlanExecutor::run_lanes both call these, so the two paths compute
// every member's measurement with the same expressions.

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
/// garbage.
void close_measurement(Compass& c, Measurement& m, telemetry::TelemetrySink* sink,
                       std::int64_t raw_x, std::int64_t raw_y,
                       const digital::CordicResult& cordic, bool ran_cordic,
                       telemetry::Clock::time_point wall_start) {
    m.avg_power_w = m.duration_s > 0.0 ? m.energy_j / m.duration_s : 0.0;
    c.watch().tick(static_cast<std::uint64_t>(
        std::llround(m.duration_s * c.config().counter_clock_hz)));
    if (sink == nullptr || !ran_cordic) return;
    const analog::StreamStatsSnapshot stats = c.front_end().snapshot();
    const analog::StreamStats& sx = stats[analog::Channel::X];
    const analog::StreamStats& sy = stats[analog::Channel::Y];
    telemetry::MeasurementSample s;
    s.member = c.telemetry_member();
    s.raw_count_x = raw_x;
    s.raw_count_y = raw_y;
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
    s.cordic_rotations = cordic.rotations;
    s.cordic_residual_deg =
        util::angular_abs_diff_deg(m.heading_deg, m.heading_float_deg);
    s.heading_deg = m.heading_deg;
    s.duration_s = m.duration_s;
    s.latency_s =
        std::chrono::duration<double>(telemetry::Clock::now() - wall_start).count();
    s.energy_j = m.energy_j;
    s.field_in_range = m.field_in_range;
    sink->on_sample(s);
}

}  // namespace

PlanRun::PlanRun(Compass& compass, const MeasurementPlan& plan)
    : compass_(compass),
      plan_(plan),
      sink_(compass.telemetry_),
      // Wall-clock latency is only metered while someone listens — the
      // disabled path must not even read a clock.
      traced_(sink_ != nullptr),
      wall_start_(traced_ ? telemetry::Clock::now()
                          : telemetry::Clock::time_point{}) {
    root_.emplace(sink_, "measure");
    open_measurement(compass_, m_);
}

bool PlanRun::done() const noexcept {
    return next_stage_ >= plan_.stages.size();
}

bool PlanRun::step() {
    if (done()) return false;
    Compass& c = compass_;
    const CompassConfig& cfg = c.config_;
    const MeasurementPlan& plan = plan_;
    const PlanStage& stage = plan.stages[next_stage_];

    // The "axis" span groups one channel's excite/settle/count stages
    // exactly as the historical call sites nested them; settle steps are
    // folded into the duration at the Count stage so the floating-point
    // sum matches bit for bit.
    switch (stage.kind) {
        case StageKind::ReExcite:
            c.re_excite();
            break;
        case StageKind::PowerUp:
            if (cfg.power_gating) c.front_end_.enable(true);
            c.counter_.enable(true);
            break;
        case StageKind::MuxSwitch: {
            const int ch = static_cast<int>(stage.channel);
            axis_.emplace(sink_, "axis", ch);
            // Excite: route the excitation onto this channel (the
            // per-axis power-up the control logic performs before
            // the mux settles).
            telemetry::Span excite(sink_, "excite", ch);
            c.front_end_.select(stage.channel);
            break;
        }
        case StageKind::Settle: {
            const int ch = static_cast<int>(stage.channel);
            const int steps = stage.periods * plan.steps_per_period;
            telemetry::Span settle(sink_, "settle", ch);
            settle.set_value(steps);
            c.engine_->advance(c.front_end_, stage.channel, steps,
                               plan.dt_s, nullptr, m_.energy_j);
            pending_settle_steps_ += steps;
            break;
        }
        case StageKind::Count: {
            const int ch = static_cast<int>(stage.channel);
            const int steps = stage.periods * plan.steps_per_period;
            c.counter_.clear();
            std::int64_t count;
            {
                telemetry::Span count_span(sink_, "count", ch);
                c.engine_->advance(c.front_end_, stage.channel, steps,
                                   plan.dt_s, &c.counter_, m_.energy_j);
                // An overflow trap aborts here, at the window
                // boundary — identical state whichever engine (and
                // block size) consumed the window.
                c.counter_.service_trap();
                count = c.counter_.count();
                count_span.set_value(count);
            }
            m_.duration_s += (pending_settle_steps_ + steps) * plan.dt_s;
            pending_settle_steps_ = 0;
            raw_[ch] = count;
            calibrate_count(c, stage.channel, count, m_);
            if (axis_) {
                axis_->set_value(count);
                axis_.reset();
            }
            break;
        }
        case StageKind::PowerDown:
            c.counter_.enable(false);
            if (cfg.power_gating) c.front_end_.enable(false);
            break;
        case StageKind::Cordic: {
            telemetry::Span cordic_span(sink_, "cordic");
            update_heading(c, m_, traced_ ? &cordic_detail_ : nullptr);
            cordic_span.set_value(cordic_detail_.rotations);
            ran_cordic_ = true;
            break;
        }
    }
    ++next_stage_;
    return true;
}

Measurement PlanRun::finish() {
    close_measurement(compass_, m_, sink_, raw_[0], raw_[1], cordic_detail_,
                      ran_cordic_, wall_start_);
    root_.reset();
    return m_;
}

PlanRun::State PlanRun::save_state() const noexcept {
    State s;
    s.next_stage = static_cast<std::uint32_t>(next_stage_);
    s.m = m_;
    s.raw_x = raw_[0];
    s.raw_y = raw_[1];
    s.pending_settle_steps = pending_settle_steps_;
    s.ran_cordic = ran_cordic_;
    s.cordic = cordic_detail_;
    return s;
}

void PlanRun::load_state(const State& s) {
    if (s.next_stage > plan_.stages.size()) {
        throw std::invalid_argument(
            "PlanRun::load_state: next_stage beyond the plan's stage count");
    }
    next_stage_ = s.next_stage;
    m_ = s.m;
    raw_[0] = s.raw_x;
    raw_[1] = s.raw_y;
    pending_settle_steps_ = s.pending_settle_steps;
    ran_cordic_ = s.ran_cordic;
    cordic_detail_ = s.cordic;
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
    const int n = static_cast<int>(lanes.size());
    if (n == 0) return;
    if (outcomes.size() < lanes.size()) {
        throw std::invalid_argument(
            "PlanExecutor::run_lanes: one outcome slot per lane required");
    }
    for (int i = 0; i < n; ++i) outcomes[static_cast<std::size_t>(i)] = LaneOutcome{};

    // Batch eligibility: every lane's front end must fit a SIMD lane,
    // and ReExcite (a whole-pipeline power cycle) only exists on the
    // per-member path. Ineligible batches run member by member with the
    // identical outcome contract.
    bool batchable = true;
    for (const PlanStage& s : plan.stages) {
        if (s.kind == StageKind::ReExcite) batchable = false;
    }
    for (int i = 0; batchable && i < n; ++i) {
        if (!sim::LaneEngine::eligible(lanes[i]->front_end_)) batchable = false;
    }

    if (!batchable) {
        for (int i = 0; i < n; ++i) {
            LaneOutcome& slot = outcomes[static_cast<std::size_t>(i)];
            try {
                slot.measurement = PlanExecutor(*lanes[i]).run(plan);
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
        return;
    }

    // Batch spans live on lanes[0]'s sink (one tree per batch); every
    // traced lane still gets its own MeasurementSample at the end.
    telemetry::TelemetrySink* sink = lanes[0]->telemetry_;
    bool any_traced = false;
    for (int i = 0; i < n; ++i) {
        if (lanes[i]->telemetry_ != nullptr) any_traced = true;
    }
    const telemetry::Clock::time_point wall_start =
        any_traced ? telemetry::Clock::now() : telemetry::Clock::time_point{};
    telemetry::Span root(sink, "measure");

    std::vector<char> active(static_cast<std::size_t>(n), 1);
    std::vector<std::int64_t> raw_x(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> raw_y(static_cast<std::size_t>(n), 0);
    std::vector<digital::CordicResult> details(static_cast<std::size_t>(n));

    for (int i = 0; i < n; ++i) {
        open_measurement(*lanes[i], outcomes[static_cast<std::size_t>(i)].measurement);
    }

    sim::LaneEngine engine;
    std::vector<sim::LanePort> ports;
    ports.reserve(static_cast<std::size_t>(n));
    const auto build_ports = [&](bool counting) {
        ports.clear();
        for (int i = 0; i < n; ++i) {
            if (!active[static_cast<std::size_t>(i)]) continue;
            Compass& c = *lanes[i];
            ports.push_back({&c.front_end_, counting ? &c.counter_ : nullptr,
                             &outcomes[static_cast<std::size_t>(i)]
                                  .measurement.energy_j});
        }
    };

    std::optional<telemetry::Span> axis;
    bool axis_value_set = false;
    int pending_settle_steps = 0;
    bool ran_cordic = false;

    for (const PlanStage& stage : plan.stages) {
        switch (stage.kind) {
            case StageKind::ReExcite:
                break;  // filtered by the batchable check above
            case StageKind::PowerUp:
                for (int i = 0; i < n; ++i) {
                    if (!active[static_cast<std::size_t>(i)]) continue;
                    Compass& c = *lanes[i];
                    if (c.config_.power_gating) c.front_end_.enable(true);
                    c.counter_.enable(true);
                }
                break;
            case StageKind::MuxSwitch: {
                const int ch = static_cast<int>(stage.channel);
                axis.emplace(sink, "axis", ch);
                axis_value_set = false;
                telemetry::Span excite(sink, "excite", ch);
                for (int i = 0; i < n; ++i) {
                    if (!active[static_cast<std::size_t>(i)]) continue;
                    lanes[i]->front_end_.select(stage.channel);
                }
                break;
            }
            case StageKind::Settle: {
                const int ch = static_cast<int>(stage.channel);
                const int steps = stage.periods * plan.steps_per_period;
                telemetry::Span settle(sink, "settle", ch);
                settle.set_value(steps);
                {
                    telemetry::Span eng_span(sink, "engine.lanes", ch);
                    eng_span.set_value(steps);
                    build_ports(/*counting=*/false);
                    engine.advance(ports.data(), static_cast<int>(ports.size()),
                                   stage.channel, steps, plan.dt_s);
                }
                pending_settle_steps += steps;
                break;
            }
            case StageKind::Count: {
                const int ch = static_cast<int>(stage.channel);
                const int steps = stage.periods * plan.steps_per_period;
                for (int i = 0; i < n; ++i) {
                    if (active[static_cast<std::size_t>(i)]) {
                        lanes[i]->counter_.clear();
                    }
                }
                {
                    telemetry::Span count_span(sink, "count", ch);
                    {
                        telemetry::Span eng_span(sink, "engine.lanes", ch);
                        eng_span.set_value(steps);
                        build_ports(/*counting=*/true);
                        engine.advance(ports.data(), static_cast<int>(ports.size()),
                                       stage.channel, steps, plan.dt_s);
                    }
                    bool span_value_set = false;
                    for (int i = 0; i < n; ++i) {
                        if (!active[static_cast<std::size_t>(i)]) continue;
                        Compass& c = *lanes[i];
                        LaneOutcome& slot = outcomes[static_cast<std::size_t>(i)];
                        try {
                            // A pending overflow trap evicts this lane at
                            // the window boundary — the identical abort
                            // point (state, energy, no duration update, no
                            // watch tick, no sample) of a run() throw.
                            c.counter_.service_trap();
                        } catch (const std::exception& e) {
                            active[static_cast<std::size_t>(i)] = 0;
                            slot.aborted = true;
                            slot.error = e.what();
                            slot.error_ptr = std::current_exception();
                            continue;
                        }
                        const std::int64_t count = c.counter_.count();
                        if (!span_value_set) {
                            count_span.set_value(count);
                            span_value_set = true;
                        }
                        Measurement& m = slot.measurement;
                        m.duration_s += (pending_settle_steps + steps) * plan.dt_s;
                        (stage.channel == analog::Channel::X ? raw_x : raw_y)[
                            static_cast<std::size_t>(i)] = count;
                        calibrate_count(c, stage.channel, count, m);
                        if (axis && !axis_value_set) {
                            axis->set_value(count);
                            axis_value_set = true;
                        }
                    }
                }
                pending_settle_steps = 0;
                axis.reset();
                break;
            }
            case StageKind::PowerDown:
                for (int i = 0; i < n; ++i) {
                    if (!active[static_cast<std::size_t>(i)]) continue;
                    Compass& c = *lanes[i];
                    c.counter_.enable(false);
                    if (c.config_.power_gating) c.front_end_.enable(false);
                }
                break;
            case StageKind::Cordic: {
                telemetry::Span cordic_span(sink, "cordic");
                bool span_value_set = false;
                for (int i = 0; i < n; ++i) {
                    if (!active[static_cast<std::size_t>(i)]) continue;
                    Compass& c = *lanes[i];
                    Measurement& m = outcomes[static_cast<std::size_t>(i)].measurement;
                    const bool traced_lane = c.telemetry_ != nullptr;
                    update_heading(c, m,
                                   traced_lane ? &details[static_cast<std::size_t>(i)]
                                               : nullptr);
                    if (!span_value_set) {
                        cordic_span.set_value(
                            details[static_cast<std::size_t>(i)].rotations);
                        span_value_set = true;
                    }
                }
                ran_cordic = true;
                break;
            }
        }
    }

    for (int i = 0; i < n; ++i) {
        const auto li = static_cast<std::size_t>(i);
        if (!active[li]) continue;
        close_measurement(*lanes[i], outcomes[li].measurement, lanes[i]->telemetry_,
                          raw_x[li], raw_y[li], details[li], ran_cordic, wall_start);
    }
}

}  // namespace fxg::compass
