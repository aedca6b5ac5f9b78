#pragma once

/// \file sink.hpp
/// The telemetry hook every instrumented component sees: a single
/// abstract TelemetrySink plus the RAII Span that feeds it. The design
/// rule is that instrumentation must cost nothing when nobody listens —
/// a component holds a plain `TelemetrySink*` (nullptr by default), and
/// every touchpoint is one pointer test on the disabled path: no locks,
/// no allocation, no clock reads (verified by bench_telemetry_overhead,
/// budget < 1 % of a measure()).
///
/// Concrete sinks:
///  * TraceSession  (trace.hpp)  — spans + events with monotonic
///    timestamps and parent/child nesting, JSONL/VCD exportable;
///  * PhysicsProbes (probes.hpp) — folds MeasurementSamples and events
///    into a MetricsRegistry (counters / gauges / histograms);
///  * FlightRecorder (flight_recorder.hpp) — the always-on black box:
///    per-thread rings of the recent spans, events and samples;
///  * TeeSink       (below)      — fans one hook out to several sinks.
///
/// Names passed to begin_span()/event() must be string literals (or
/// otherwise outlive the sink): sinks store the pointer, not a copy, so
/// the hot path never allocates.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fxg::telemetry {

/// Monotonic clock all telemetry timestamps come from.
using Clock = std::chrono::steady_clock;

/// Handle to an open span, scoped to one sink. 0 = "no span".
using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

/// Channel annotation on a span: 0 = x, 1 = y, kNoChannel = systemic.
inline constexpr int kNoChannel = -1;

/// One measurement's physics, as fed to the probe layer by
/// Compass::measure() when a sink is attached. Plain numbers only, so
/// the telemetry library stays below the pipeline layers in the
/// dependency order.
struct MeasurementSample {
    int member = 0;  ///< fleet member index (0 for a lone compass)

    std::int64_t raw_count_x = 0;  ///< up/down counter, before calibration
    std::int64_t raw_count_y = 0;
    std::int64_t count_x = 0;      ///< after hard/soft-iron calibration
    std::int64_t count_y = 0;

    double duty_x = 0.0;           ///< detector duty over the valid window
    double duty_y = 0.0;
    double pulse_shift_x = 0.0;    ///< duty - 1/2: normalised pulse-position shift
    double pulse_shift_y = 0.0;
    double valid_fraction_x = 0.0; ///< share of the window the channel was valid
    double valid_fraction_y = 0.0;
    std::uint64_t edges_x = 0;     ///< detector transitions in the window
    std::uint64_t edges_y = 0;

    int cordic_rotations = 0;        ///< pseudo-rotations the arctan applied
    double cordic_residual_deg = 0.0;///< |CORDIC - float atan2| of the counts

    double heading_deg = 0.0;
    double duration_s = 0.0;  ///< simulated measurement time
    double latency_s = 0.0;   ///< wall-clock cost of measure()
    double energy_j = 0.0;
    bool field_in_range = true;
};

/// Abstract telemetry hook. All methods must be thread-safe: a fleet
/// shares one sink across its worker threads.
class TelemetrySink {
public:
    virtual ~TelemetrySink() = default;

    /// Opens a span. `name` must be a string literal; `channel` is 0/1
    /// for per-axis spans, kNoChannel otherwise. Returns a handle for
    /// end_span (kNoSpan if the sink does not trace).
    virtual SpanId begin_span(const char* name, int channel) = 0;

    /// Closes a span; `value` is a span-defined payload (counts for a
    /// count phase, steps for an engine advance, rotations for the
    /// CORDIC, ladder status for a supervised measure).
    virtual void end_span(SpanId id, std::int64_t value) = 0;

    /// Instantaneous annotated point (supervisor retries, health
    /// findings, ladder transitions). Attached to the calling thread's
    /// innermost open span where the sink tracks nesting.
    virtual void event(const char* name, double value) = 0;

    /// One measurement's physics (Compass::measure() emits exactly one
    /// per completed measurement).
    virtual void on_sample(const MeasurementSample& sample) = 0;

    /// Whether a fleet member carrying this sink needs the per-member
    /// execution path. Sinks that reconstruct per-member span nesting
    /// (TraceSession) return true — the default — and CompassFleet
    /// falls back to member-at-a-time dispatch for their lane group.
    /// Sinks that only aggregate (FlightRecorder, PhysicsProbes) return
    /// false so the SoA lane engine keeps its batch speedup; a TeeSink
    /// is the OR of its children.
    [[nodiscard]] virtual bool requires_member_trace() const noexcept {
        return true;
    }
};

/// RAII span: begin on construction, end on destruction. With a null
/// sink both are a single pointer test — this is the zero-overhead
/// guarantee every instrumented call site relies on.
class Span {
public:
    Span(TelemetrySink* sink, const char* name, int channel = kNoChannel)
        : sink_(sink),
          id_(sink != nullptr ? sink->begin_span(name, channel) : kNoSpan) {}

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Payload reported with end_span (e.g. the counts of a count phase).
    void set_value(std::int64_t value) noexcept { value_ = value; }

    ~Span() {
        if (sink_ != nullptr) sink_->end_span(id_, value_);
    }

private:
    TelemetrySink* sink_;
    SpanId id_;
    std::int64_t value_ = 0;
};

/// Fans one sink hook out to several sinks (e.g. a TraceSession plus a
/// PhysicsProbes feeding a registry). Children must outlive the tee.
/// Span begins and ends reach the children under the tee's lock, so a
/// child that is itself a tee locks after its parent; no sink calls
/// back into a tee, so tee locks are always taken tee → child.
class TeeSink final : public TelemetrySink {
public:
    explicit TeeSink(std::vector<TelemetrySink*> children);

    SpanId begin_span(const char* name, int channel) override;
    void end_span(SpanId id, std::int64_t value) override;
    void event(const char* name, double value) override;
    void on_sample(const MeasurementSample& sample) override;
    [[nodiscard]] bool requires_member_trace() const noexcept override;

private:
    std::vector<TelemetrySink*> children_;
    std::mutex mutex_;
    SpanId next_id_ = 1;
    /// Open spans, one entry each of 1 + children_.size() ids: the
    /// tee's id, then each child's (children allocate their own). Its
    /// capacity is kept, so a span allocates nothing once warm.
    std::vector<SpanId> open_;
};

}  // namespace fxg::telemetry
