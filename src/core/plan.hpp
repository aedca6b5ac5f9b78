#pragma once

/// \file plan.hpp
/// The measurement-plan layer: the compass control sequence as *data*.
///
/// The paper's control logic is a fixed sequencer — enable the front
/// end, settle, count x, switch the multiplexer, count y, CORDIC.
/// Instead of re-stating that sequence imperatively in every caller
/// (Compass::measure, the supervisor's retry ladder, sweep benches),
/// compile_plan() turns a CompassConfig into an explicit stage list,
/// and PlanExecutor runs any such list over the compass's simulation
/// engine. The executor — not the call sites — owns the per-stage
/// telemetry spans, so every way of running a measurement traces
/// identically.
///
/// Plan grammar (DESIGN.md section 10):
///
///   plan     := ReExcite? PowerUp axis+ PowerDown Cordic?
///   axis     := MuxSwitch Settle Count        (all on one channel)
///
/// Rewrites produce the supervisor's degradation-ladder vocabulary
/// from the same compiled plan:
///   * with_re_excite(plan)          — retry: power-cycle, then the plan
///   * truncate_to_axis(plan, ch)    — degraded mode: only the healthy
///     axis is measured; no Cordic (a single count cannot make a
///     heading — the supervisor reconstructs it from history).
///
/// Executing the full compiled plan is bit-identical — counter values,
/// heading, energy — to the historical hand-sequenced measure() path on
/// both engines (asserted by tests/plan_test.cpp).

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analog/mux.hpp"
#include "digital/cordic.hpp"
#include "telemetry/sink.hpp"

namespace fxg::digital {
class UpDownCounter;
}  // namespace fxg::digital

namespace fxg::compass {

struct CompassConfig;
class Compass;

/// One step of the control sequence.
enum class StageKind : std::uint8_t {
    PowerUp,    ///< enable the analogue section (if gated) and the counter
    MuxSwitch,  ///< route the excitation onto `channel`
    Settle,     ///< advance `periods` excitation periods, counter deaf
    Count,      ///< clear the counter, advance `periods` periods counting
    PowerDown,  ///< gate the counter and the analogue section back off
    Cordic,     ///< calibrated counts -> heading, update the display
    ReExcite,   ///< power-cycle front end + counter (fault recovery)
};

[[nodiscard]] const char* to_string(StageKind kind) noexcept;

/// One stage. `channel` and `periods` are meaningful only for the
/// stage kinds that name them in the grammar above.
struct PlanStage {
    StageKind kind = StageKind::PowerUp;
    analog::Channel channel = analog::Channel::X;  ///< MuxSwitch/Settle/Count
    int periods = 0;                               ///< Settle/Count

    friend bool operator==(const PlanStage&, const PlanStage&) = default;
};

/// A compiled measurement: the stage list plus the timing the stages
/// execute under (both derived from the CompassConfig).
struct MeasurementPlan {
    std::vector<PlanStage> stages;
    int steps_per_period = 0;  ///< analogue samples per excitation period
    double dt_s = 0.0;         ///< analogue simulation step [s]

    /// A complete plan ends in a Cordic stage and therefore yields a
    /// heading; truncated (single-axis) plans do not.
    [[nodiscard]] bool complete() const noexcept;

    /// True when the plan contains a Count stage on `channel`.
    [[nodiscard]] bool counts(analog::Channel channel) const noexcept;

    /// Analogue samples the plan will consume when executed.
    [[nodiscard]] std::uint64_t total_steps() const noexcept;
};

/// Compiles a configuration into the paper's canonical control
/// sequence: PowerUp, then MuxSwitch/Settle/Count for x and y, then
/// PowerDown and Cordic. Throws std::invalid_argument on the same
/// configuration errors the Compass constructor rejects.
[[nodiscard]] MeasurementPlan compile_plan(const CompassConfig& config);

/// Process-wide number of successful compile_plan() calls. Regression
/// seam for the one-compile-per-config contract: a CompassFleet of N
/// members must compile its shared plan once, not N times
/// (tests/lane_engine_test.cpp asserts the delta across a fleet build).
[[nodiscard]] std::uint64_t compile_plan_count() noexcept;

/// Retry rewrite: the same plan prefixed with a ReExcite power cycle.
[[nodiscard]] MeasurementPlan with_re_excite(const MeasurementPlan& plan);

/// Degraded-mode rewrite: drops every per-axis stage not on `keep` and
/// the Cordic stage (one axis cannot produce a heading on its own).
[[nodiscard]] MeasurementPlan truncate_to_axis(const MeasurementPlan& plan,
                                               analog::Channel keep);

/// One complete compass measurement. (Defined here — not in
/// compass.hpp — because the plan layer produces it: run() returns one
/// and LaneOutcome carries one per lane.)
struct Measurement {
    double heading_deg = 0.0;        ///< digital (CORDIC) heading
    double heading_float_deg = 0.0;  ///< atan2 of the same counts (reference)
    std::int64_t count_x = 0;        ///< up/down counter result, x axis
    std::int64_t count_y = 0;
    double duration_s = 0.0;         ///< wall-clock time of the measurement
    double energy_j = 0.0;           ///< front-end energy over the measurement
    double avg_power_w = 0.0;        ///< mean front-end power while measuring
    bool field_in_range = true;      ///< core saturated both ways on both axes
};

/// Outcome of one lane of a PlanExecutor::run_lanes batch. A lane that
/// throws — a counter trap (register overflow with trap_on_overflow
/// set) at the count-window boundary, the exact point run() would have
/// thrown — leaves the batch and is reported here instead of by
/// exception, so one faulty member never aborts its batch.
struct LaneOutcome {
    Measurement measurement{};     ///< complete only when !aborted
    bool aborted = false;          ///< lane evicted by a counter trap / error
    std::string error;             ///< exception text when aborted
    std::exception_ptr error_ptr;  ///< the same error, rethrowable
};

/// Runs MeasurementPlans over one Compass's pipeline. The executor owns
/// the per-stage telemetry spans ("measure" root, "axis" grouping with
/// "excite"/"settle"/"count" children, "cordic") and emits the
/// MeasurementSample for complete plans — call sites no longer place
/// instrumentation by hand. Stateless between run() calls; constructing
/// one is free (it holds a reference).
class PlanExecutor {
public:
    /// Non-owning: `compass` must outlive the executor.
    explicit PlanExecutor(Compass& compass) noexcept : compass_(compass) {}

    /// Executes `plan` against the compass. For a complete plan the
    /// returned Measurement is exactly what the historical measure()
    /// produced; for a truncated plan only the counted axis' count (and
    /// duration/energy) are meaningful and no heading is computed.
    Measurement run(const MeasurementPlan& plan);

    /// Executes one plan across a batch of compasses. Each lane keeps
    /// its own PlanRun::State and runs PlanRun's own stage code; only the
    /// engine advance is batched: at every Settle/Count the lanes the SoA
    /// lane engine takes for that advance (sim/lane_engine.hpp,
    /// LaneEngine::plain) advance together in one SIMD kernel sweep, and
    /// any other lane advances through its own engine. The
    /// per-stage telemetry spans ("measure"/"axis"/"settle"/"count" plus
    /// an "engine.lanes" advance span) form one tree per batch on
    /// lanes[0]'s sink, written through the first lane still in the
    /// batch. Per-lane results — counts, heading, energy, duration,
    /// stream statistics, trap abort point — are bit-identical to
    /// PlanExecutor(*lanes[i]).run(plan) member by member; traced lanes
    /// still emit their own MeasurementSample on their own sink.
    ///
    /// Total: a lane that throws leaves the batch at that point and is
    /// reported in its LaneOutcome; the other lanes carry on. `lanes`
    /// must be distinct, non-null, and outcomes.size() >= lanes.size().
    static void run_lanes(const MeasurementPlan& plan,
                          std::span<Compass* const> lanes,
                          std::span<LaneOutcome> outcomes);

private:
    Compass& compass_;
};

/// Resumable stage-stepped execution of one plan against one compass —
/// the unit the snapshot layer (src/snapshot) suspends and restores.
/// PlanExecutor::run(plan) is exactly: construct, step() until false,
/// finish(); but a PlanRun can also stop at any stage boundary,
/// serialize its position (save_state), and a freshly constructed
/// PlanRun over an equally restored compass can load_state() and
/// continue bit-identically.
///
/// A run is its State plus the spans it holds open; the stage code is
/// split at the engine advance (begin_stage, end_stage), so a lane
/// batch (PlanExecutor::run_lanes) runs the same code over one State
/// per lane and batches only the advance.
///
/// Restore ordering contract: construct the PlanRun FIRST (construction
/// starts a fresh observation window and runs the field range check,
/// like any fresh measurement), then restore the compass pipeline
/// state, then load_state(). Two trace-only differences on a resumed
/// run: the wall-clock latency restarts at construction, and a run
/// restored mid-axis does not reopen the surrounding "axis" span.
/// Measurement bits are unaffected by both.
class PlanRun {
public:
    /// Opens the root "measure" span, starts a fresh observation window
    /// and runs the field range check — the entry actions of a fresh
    /// measurement. Non-owning: compass and plan must outlive the run.
    PlanRun(Compass& compass, const MeasurementPlan& plan);

    /// Executes the next stage; returns false (doing nothing) once all
    /// stages have run. May throw (counter overflow trap at a Count
    /// boundary) — the run is then spent, like an aborted measurement.
    bool step();

    [[nodiscard]] bool done() const noexcept {
        return state_.next_stage >= plan_.stages.size();
    }

    /// Index of the next stage to execute (== plan().stages.size() when
    /// done) — the resume position a snapshot records.
    [[nodiscard]] std::size_t next_stage() const noexcept { return state_.next_stage; }

    [[nodiscard]] const MeasurementPlan& plan() const noexcept { return plan_; }

    /// Final power accounting, watch tick and (when traced) the
    /// MeasurementSample emission; closes the root span and returns the
    /// measurement. Call once, after done().
    Measurement finish();

    /// Execution position at a stage boundary (snapshot seam): all the
    /// between-stage state the stage loop carries.
    struct State {
        std::uint32_t next_stage = 0;
        Measurement m{};
        std::int64_t raw_x = 0;
        std::int64_t raw_y = 0;
        int pending_settle_steps = 0;
        bool ran_cordic = false;
        digital::CordicResult cordic{};
    };

    [[nodiscard]] State save_state() const noexcept { return state_; }

    /// Overwrites the execution position. Throws std::invalid_argument
    /// when no run of the plan stands at `s` (reachable()).
    void load_state(const State& s);

    /// True when a run of `plan` can stand at `s` between two stages:
    /// next_stage is within the stage count, and pending_settle_steps
    /// and ran_cordic are what the stages before next_stage leave.
    /// load_state and the snapshot restore refuse any other position.
    [[nodiscard]] static bool reachable(const MeasurementPlan& plan,
                                        const State& s) noexcept;

private:
    friend class PlanExecutor;  // run_lanes drives the stage code below

    /// The spans a run holds open between calls, all on one sink: the
    /// root "measure", the current "axis" and an open "settle"/"count".
    struct Spans {
        explicit Spans(telemetry::TelemetrySink* s)
            : sink(s), root(std::in_place, s, "measure") {}
        telemetry::TelemetrySink* sink;
        std::optional<telemetry::Span> root;
        std::optional<telemetry::Span> axis;
        std::optional<telemetry::Span> stage;
    };

    /// The engine advance of a Settle or Count stage.
    struct Advance {
        analog::Channel channel;
        int steps;
        digital::UpDownCounter* counter;  ///< null while settling
    };

    /// Runs stage s.next_stage up to its engine advance and returns
    /// that advance (none for a stage that does not advance).
    static std::optional<Advance> begin_stage(Compass& c, const MeasurementPlan& plan,
                                              State& s, Spans& spans);

    /// Finishes the stage after its advance — the trap check, the count,
    /// its calibration and the duration — and moves to the next stage.
    static void end_stage(Compass& c, const MeasurementPlan& plan, State& s,
                          Spans& spans);

    Compass& compass_;
    const MeasurementPlan& plan_;
    telemetry::Clock::time_point wall_start_;
    State state_;
    Spans spans_;
};

}  // namespace fxg::compass
