#pragma once

/// \file compass_fleet.hpp
/// A fleet of independent simulated compasses batched through the
/// simulation engine — the serving substrate for sweep benches and
/// many-client workloads. Each member owns its full mixed-signal
/// pipeline (distinct heading, field, calibration, noise stream), so a
/// fleet measurement is embarrassingly parallel: measure_all() fans the
/// members' plan executions out over a persistent util::TaskPool
/// (shared across fleets and calls — no per-batch thread churn) and
/// returns every result in member order. Results are identical to
/// measuring each compass serially — threading changes wall-clock
/// time, nothing else.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compass.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/introspect.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probes.hpp"
#include "util/task_pool.hpp"

namespace fxg::compass {

/// Outcome of one fleet member's measurement. A member that threw does
/// not poison the batch: its slot carries ok = false plus the error
/// text, and every other member's Measurement is still delivered.
struct FleetResult {
    Measurement measurement{};  ///< valid only when ok
    bool ok = false;
    std::string error;          ///< exception message when !ok
};

/// How measure_all dispatches members.
enum class FleetExecution {
    /// Run consecutive members, up to one lane-kernel batch
    /// (sim::LaneEngine::kBatchLanes) per pool task, through the SoA
    /// SIMD lane engine (PlanExecutor::run_lanes) — bit-identical
    /// results, several members per vector instruction; a member the
    /// lane engine cannot take advances through its own engine inside
    /// its batch. Only a task holding a member whose sink needs its own
    /// span tree runs per member (run_lanes emits one batch tree).
    Auto,
    /// Always one plan execution per member (the reference path).
    PerMember,
};

/// N independent compasses measured as one batch.
class CompassFleet {
public:
    /// Builds `count` compasses, all from the same configuration
    /// (members can be reconfigured individually through at()).
    /// Batches are scheduled on `pool` — by default the process-wide
    /// util::TaskPool::shared(), so every fleet in the process reuses
    /// one persistent set of worker threads. The pool must outlive the
    /// fleet.
    explicit CompassFleet(int count, const CompassConfig& config = {},
                          util::TaskPool& pool = util::TaskPool::shared());

    [[nodiscard]] int size() const noexcept {
        return static_cast<int>(members_.size());
    }

    /// Members of one lane group (two stripes on AVX-512): the step by
    /// which measure_all shortens a task, a run of up to
    /// sim::LaneEngine::kBatchLanes members, until every thread has one
    /// while the groups allow.
    static constexpr int kLaneGroupSize = 16;

    /// Dispatch strategy for measure_all (default Auto — lane-batched;
    /// results are bit-identical either way).
    void set_execution(FleetExecution execution) noexcept { execution_ = execution; }
    [[nodiscard]] FleetExecution execution() const noexcept { return execution_; }

    /// The control sequence every member executes — compiled exactly
    /// once per fleet and shared by all members.
    [[nodiscard]] const MeasurementPlan& plan() const noexcept { return *plan_; }

    /// Member access (bounds-checked).
    [[nodiscard]] Compass& at(int i);
    [[nodiscard]] const Compass& at(int i) const;

    /// Places member i in `field` at a physical heading [deg].
    void set_environment(int i, const magnetics::EarthField& field,
                         double heading_deg);

    /// Places every member in `field`, member i at headings[i] (the
    /// headings vector must match size()).
    void set_environments(const magnetics::EarthField& field,
                          const std::vector<double>& headings_deg);

    /// Installs one shared per-tick environment provider (typically a
    /// compiled Scenario) on every member. FieldSource is immutable and
    /// queried const from the engines, so a single compiled scenario is
    /// safely shared across all members and worker threads; each member
    /// still samples it at its own playhead.
    void set_field_source(std::shared_ptr<const magnetics::FieldSource> source);

    /// Attaches one shared telemetry sink to every member and stamps
    /// each member's index into its samples, so fleet-wide traces and
    /// metrics aggregate in a single sink and a trace still names each
    /// sample's member. The black box's registry keys no series by
    /// member, so it stays the same size at any fleet size. The sink
    /// must be thread-safe (TraceSession, PhysicsProbes and TeeSink all
    /// are) — measure_all's workers feed it concurrently; span nesting
    /// stays correct because sessions track nesting per thread.
    ///
    /// The fleet's built-in black box (flight recorder + physics
    /// probes) is always attached alongside: passing a sink joins it
    /// to the recorder and probes in one tee, passing nullptr reverts
    /// to the black box alone — members never actually run sinkless.
    /// Lane batching survives unless the user sink
    /// requires_member_trace() (a TraceSession does; the black box
    /// does not).
    void set_telemetry(telemetry::TelemetrySink* sink) noexcept;

    // ------------------------------------------------------ black box

    /// The always-on metrics registry the built-in probes feed.
    [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept {
        return registry_;
    }
    [[nodiscard]] const telemetry::MetricsRegistry& metrics() const noexcept {
        return registry_;
    }

    /// The always-on flight recorder retaining the recent past.
    [[nodiscard]] telemetry::FlightRecorder& flight_recorder() noexcept {
        return recorder_;
    }

    /// Called (from worker threads — must be thread-safe) for every
    /// member whose measurement threw, with the member index and the
    /// exception text. This is the postmortem trigger seam: a black-box
    /// owner freezes the recorder and emits a bundle from here.
    void set_member_failure_hook(
        std::function<void(int, const std::string&)> hook) {
        failure_hook_ = std::move(hook);
    }

    /// Extra lines appended to the /healthz body (e.g. a supervisor's
    /// ladder status). Called from the introspection thread.
    void set_health_extra(std::function<std::string()> extra) {
        health_extra_ = std::move(extra);
    }

    /// Plain-text liveness summary served at /healthz.
    [[nodiscard]] std::string health_text() const;

    // -------------------------------------------------- introspection

    /// Starts the HTTP introspection endpoint on 127.0.0.1:`port`
    /// (0 = kernel-assigned) serving /metrics, /trace and /healthz from
    /// the black box, plus /snapshot when `snapshot_provider` is given
    /// (the fleet itself cannot produce .fxgsnap bytes — the snapshot
    /// codec lives above core in the dependency order, so the owner
    /// supplies it; see examples/compass_watch). Returns the bound
    /// port. The accept loop runs on this fleet's TaskPool.
    int start_introspection(
        int port = 0,
        std::function<std::vector<std::uint8_t>()> snapshot_provider = {});

    /// Stops the endpoint (idempotent; blocks until the loop exits).
    void stop_introspection();

    [[nodiscard]] bool introspection_running() const;

    /// Bound port while running (0 otherwise).
    [[nodiscard]] int introspection_port() const;

    /// Runs one measurement on every member and returns a per-member
    /// FleetResult in member order. A member that throws is reported in
    /// its own slot (ok = false + error text) and never aborts the rest
    /// of the batch — one faulty compass cannot take the fleet down.
    /// `threads` <= 1 measures serially on the calling thread; otherwise
    /// up to that many workers from the persistent pool split the fleet
    /// (0 = one per hardware thread).
    std::vector<FleetResult> measure_all_results(int threads = 1);

    /// Throwing convenience for callers that expect an all-healthy
    /// fleet: measures everything (every member still runs to
    /// completion), then rethrows the first member's exception if any
    /// failed, otherwise returns the bare Measurements in member order.
    std::vector<Measurement> measure_all(int threads = 1);

private:
    /// Shared batch driver: fills `results` in member order and returns
    /// the first caught exception (nullptr when all ok).
    std::exception_ptr measure_all_impl(int threads, std::vector<FleetResult>& results);

    /// Installs `user_sink` (may be null) teed with the black box on
    /// every member.
    void attach_sinks(telemetry::TelemetrySink* user_sink) noexcept;

    // unique_ptr: Compass is neither copyable nor movable (it owns its
    // engine), and fleet members must keep stable addresses for the
    // worker threads.
    std::vector<std::unique_ptr<Compass>> members_;
    /// One compile per fleet, shared by every member.
    std::shared_ptr<const MeasurementPlan> plan_;
    util::TaskPool& pool_;  ///< non-owning; outlives the fleet
    FleetExecution execution_ = FleetExecution::Auto;

    // Black box, always attached (declaration order matters: probes
    // and the tee reference earlier members).
    telemetry::MetricsRegistry registry_;
    telemetry::FlightRecorder recorder_;
    telemetry::PhysicsProbes probes_;
    telemetry::TeeSink black_box_;
    /// Tee of {recorder, probes, user sink} when a user sink is
    /// attached (one tee, so tee locks never nest here).
    std::unique_ptr<telemetry::TeeSink> user_tee_;

    std::function<void(int, const std::string&)> failure_hook_;
    std::function<std::string()> health_extra_;
    std::unique_ptr<telemetry::IntrospectionServer> introspection_;

    // Batch statistics for /healthz.
    std::atomic<int> measuring_{0};  ///< batches currently in flight
    std::atomic<std::uint64_t> batches_total_{0};
    std::atomic<std::uint64_t> members_measured_{0};
    std::atomic<std::uint64_t> member_errors_{0};
};

}  // namespace fxg::compass
