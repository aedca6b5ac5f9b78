#pragma once

/// \file probes.hpp
/// PhysicsProbes: the sink that turns raw telemetry into the metrics
/// catalogue. Every MeasurementSample a Compass emits is folded into a
/// MetricsRegistry:
///
///   counters    fxg_measurements_total, fxg_out_of_range_total and one
///               fxg_event_<name>_total per distinct event (supervisor
///               retries, health findings, ladder transitions);
///   gauges      raw counts, duty cycle, pulse-position shift, valid
///               fraction (per axis), CORDIC residual/rotations,
///               heading, energy;
///   histograms  fxg_measure_latency_seconds (wall-clock cost of a
///               measure; the name is a constructor argument) and
///               fxg_count_abs (|raw counts|, transfer-law full scale is
///               ~2097 at the design point).
///
/// That is 16 instruments plus two per distinct event name, whatever
/// the number of members feeding them: no series is keyed by member.
/// A lane batch closes every member out against one start time, so a
/// per-member latency would only restate the batch's wall time; the
/// latency histogram holds every sample.
///
/// The probe layer deliberately takes only plain numbers (see
/// MeasurementSample) — it has no view of the pipeline objects, so it
/// sits below core/fault in the dependency order and any component can
/// feed it.

#include <mutex>
#include <string>
#include <unordered_map>

#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace fxg::telemetry {

class PhysicsProbes final : public TelemetrySink {
public:
    /// The registry must outlive the probes. Probes that watch
    /// different populations (engines, fleets) on one registry give
    /// each its own `latency_name`; every other instrument is shared by
    /// name.
    explicit PhysicsProbes(MetricsRegistry& registry,
                           const std::string& latency_name = "fxg_measure_latency_seconds");

    /// Probes do not trace; spans pass through unrecorded.
    SpanId begin_span(const char* name, int channel) override;
    void end_span(SpanId id, std::int64_t value) override;

    /// Each distinct event name gets a counter fxg_event_<name>_total
    /// (dots mapped to underscores) plus a last-value gauge
    /// fxg_event_<name>.
    void event(const char* name, double value) override;

    void on_sample(const MeasurementSample& sample) override;

    /// Probes only aggregate into the registry; they never need the
    /// per-member execution path, so lane batching stays intact.
    [[nodiscard]] bool requires_member_trace() const noexcept override {
        return false;
    }

private:
    MetricsRegistry& registry_;

    // Hot instruments resolved once at construction (registry lookups
    // take a lock; sample folding should not).
    Counter& measurements_;
    Counter& out_of_range_;
    Gauge& count_raw_x_;
    Gauge& count_raw_y_;
    Gauge& duty_x_;
    Gauge& duty_y_;
    Gauge& pulse_shift_x_;
    Gauge& pulse_shift_y_;
    Gauge& valid_fraction_x_;
    Gauge& valid_fraction_y_;
    Gauge& cordic_rotations_;
    Gauge& cordic_residual_deg_;
    Gauge& heading_deg_;
    Gauge& energy_j_;
    Histogram& latency_;
    Histogram& count_abs_;

    std::mutex event_mutex_;
    struct EventInstruments {
        Counter* total;
        Gauge* last;
    };
    std::unordered_map<std::string, EventInstruments> event_cache_;
};

}  // namespace fxg::telemetry
