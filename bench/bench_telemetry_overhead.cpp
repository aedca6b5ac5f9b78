/// \file bench_telemetry_overhead.cpp
/// Acceptance gate for the telemetry subsystem's zero-cost contract:
/// with telemetry compiled in but NO sink attached, a Compass::measure()
/// must be within 1 % of an uninstrumented build. CI runs this binary
/// and fails the build on a violation (non-zero exit).
///
/// Methodology — the disabled path cannot be compiled out at run time,
/// so the bench decomposes it:
///
///   1. t_measure: median wall time of a design-point measure() with no
///      sink attached (this already INCLUDES the disabled touchpoints);
///   2. touchpoints: spans + events + samples one traced measure()
///      emits — the exact number of `sink != nullptr` tests paid;
///   3. t_touch: measured cost of one disabled RAII Span (two pointer
///      tests through an optimizer-opaque volatile load — an upper
///      bound on any single touchpoint);
///   4. disabled overhead = touchpoints * t_touch relative to the
///      touchpoint-free remainder of t_measure.
///
/// The enabled-path cost (TraceSession + PhysicsProbes attached) is
/// reported for information, and bit-identity of the measurement with
/// and without a sink is asserted outright. Results go to
/// BENCH_telemetry.json as {name, value, unit} records sourced from a
/// telemetry MetricsRegistry.
///
/// The always-on FlightRecorder gets the same treatment: its per-record
/// ring push is timed in a hot loop and multiplied by the touchpoint
/// count, and that cost must ALSO stay under the 1 % budget — the black
/// box rides along on every fleet by default, so it is held to the
/// disabled-path standard, not the enabled-path one. Bit-identity with
/// the recorder attached is asserted as well.
///
/// A fleet's black box also snapshots its metrics registry, so it is
/// timed once more the way a fleet feeds it: recorder and PhysicsProbes
/// on one registry, teed in CompassFleet's order, and samples from
/// kFleetMembers members over several sweeps, so the timed samples pay
/// the renders due once per FlightRecorder::kSnapshotEvery samples.
/// That per-sample cost, against one measure(), is held to the same 1 %.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/compass.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/trace.hpp"

using namespace fxg;

namespace {

double seconds_since(telemetry::Clock::time_point t0) {
    return std::chrono::duration<double>(telemetry::Clock::now() - t0).count();
}

/// Median wall time of one measure() over `reps` batches of `n`.
double time_measure_s(compass::Compass& compass, int n, int reps) {
    std::vector<double> batches;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = telemetry::Clock::now();
        for (int i = 0; i < n; ++i) static_cast<void>(compass.measure());
        batches.push_back(seconds_since(t0) / n);
    }
    std::sort(batches.begin(), batches.end());
    return batches[batches.size() / 2];
}

/// The optimiser must treat the sink pointer as unknown, or the whole
/// disabled-span loop folds to nothing.
telemetry::TelemetrySink* volatile g_null_sink = nullptr;

}  // namespace

int main() {
    std::puts("=== telemetry overhead: disabled path must cost < 1% ===\n");

    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    compass::CompassConfig cfg;  // the paper's design point

    // --- 1. base: measure() with telemetry compiled in, no sink ------
    compass::Compass bare(cfg);
    bare.set_environment(field, 123.0);
    static_cast<void>(bare.measure());  // warm-up
    constexpr int kPerBatch = 20;
    constexpr int kBatches = 5;
    const double t_measure = time_measure_s(bare, kPerBatch, kBatches);

    // --- 2. touchpoints one traced measure() pays --------------------
    telemetry::TraceSession session;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink tee({&session, &probes});
    compass::Compass traced(cfg);
    traced.set_environment(field, 123.0);
    traced.set_telemetry(&tee);
    static_cast<void>(traced.measure());
    const std::size_t touchpoints =
        session.span_count() + session.events().size() + 1 /* sample */;

    // --- 3. cost of one disabled touchpoint --------------------------
    constexpr int kNullSpans = 20'000'000;
    const auto t0 = telemetry::Clock::now();
    for (int i = 0; i < kNullSpans; ++i) {
        telemetry::Span span(g_null_sink, "overhead.probe");
        span.set_value(i);
    }
    const double t_touch = seconds_since(t0) / kNullSpans;

    const double disabled_cost = static_cast<double>(touchpoints) * t_touch;
    const double disabled_pct = 100.0 * disabled_cost / (t_measure - disabled_cost);

    // --- 3b. cost of one always-on black-box record ------------------
    telemetry::FlightRecorder recorder;
    constexpr int kRecorderEvents = 2'000'000;
    const auto tr0 = telemetry::Clock::now();
    for (int i = 0; i < kRecorderEvents; ++i) {
        recorder.event("overhead.blackbox", static_cast<double>(i));
    }
    const double t_record = seconds_since(tr0) / kRecorderEvents;
    const double recorder_cost = static_cast<double>(touchpoints) * t_record;
    const double recorder_pct =
        100.0 * recorder_cost / (t_measure - disabled_cost);

    // --- 3c. the black box at fleet scale ----------------------------
    constexpr int kFleetMembers = 8192;
    telemetry::MetricsRegistry fleet_registry;
    telemetry::FlightRecorder fleet_recorder;
    fleet_recorder.attach_registry(&fleet_registry);
    telemetry::PhysicsProbes fleet_probes(fleet_registry);
    telemetry::TeeSink fleet_black_box({&fleet_recorder, &fleet_probes});
    telemetry::MeasurementSample fleet_sample;
    fleet_sample.latency_s = t_measure;
    constexpr int kFleetSamples = 8 * kFleetMembers;
    const auto tf0 = telemetry::Clock::now();
    for (int i = 0; i < kFleetSamples; ++i) {
        fleet_sample.member = i % kFleetMembers;
        fleet_black_box.on_sample(fleet_sample);
    }
    const double t_fleet_sample = seconds_since(tf0) / kFleetSamples;
    const double recorder_fleet_pct =
        100.0 * t_fleet_sample / (t_measure - disabled_cost);

    // --- 4. enabled path, for information ----------------------------
    session.clear();
    const double t_enabled = time_measure_s(traced, kPerBatch, kBatches);
    const double enabled_pct = 100.0 * (t_enabled - t_measure) / t_measure;

    // --- 5. telemetry must not perturb the physics -------------------
    compass::Compass control(cfg);
    control.set_environment(field, 123.0);
    traced.set_telemetry(nullptr);
    const compass::Measurement mc = control.measure();
    compass::Compass resinked(cfg);
    resinked.set_environment(field, 123.0);
    telemetry::TraceSession check_session;
    resinked.set_telemetry(&check_session);
    const compass::Measurement mt = resinked.measure();
    const bool bit_identical = mc.count_x == mt.count_x && mc.count_y == mt.count_y &&
                               mc.heading_deg == mt.heading_deg &&
                               mc.energy_j == mt.energy_j;
    compass::Compass recorded(cfg);
    recorded.set_environment(field, 123.0);
    telemetry::FlightRecorder check_recorder;
    recorded.set_telemetry(&check_recorder);
    const compass::Measurement mr = recorded.measure();
    const bool recorder_identical =
        mc.count_x == mr.count_x && mc.count_y == mr.count_y &&
        mc.heading_deg == mr.heading_deg && mc.energy_j == mr.energy_j;

    std::printf("measure() no sink        : %.3f ms\n", t_measure * 1e3);
    std::printf("touchpoints per measure  : %zu\n", touchpoints);
    std::printf("disabled touchpoint cost : %.2f ns\n", t_touch * 1e9);
    std::printf("disabled-path overhead   : %.4f %%   (budget 1 %%)\n", disabled_pct);
    std::printf("black-box record cost    : %.2f ns\n", t_record * 1e9);
    std::printf("black-box overhead       : %.4f %%   (budget 1 %%, always on)\n",
                recorder_pct);
    std::printf("black box, %d-member fleet: %.2f us per sample (snapshots amortized)\n",
                kFleetMembers, t_fleet_sample * 1e6);
    std::printf("black-box fleet overhead : %.4f %%   (budget 1 %%, always on)\n",
                recorder_fleet_pct);
    std::printf("enabled-path overhead    : %.2f %%   (trace + probes attached)\n",
                enabled_pct);
    std::printf("bit-identical with sink  : %s\n", bit_identical ? "yes" : "NO");
    std::printf("bit-identical w/recorder : %s\n", recorder_identical ? "yes" : "NO");

    // --- export: the metrics registry is the JSON source -------------
    registry.gauge("fxg_overhead_disabled_pct", "%").set(disabled_pct);
    registry.gauge("fxg_overhead_enabled_pct", "%").set(enabled_pct);
    registry.gauge("fxg_touchpoints_per_measure", "touchpoints")
        .set(static_cast<double>(touchpoints));
    registry.gauge("fxg_disabled_touchpoint_ns", "ns").set(t_touch * 1e9);
    registry.gauge("fxg_overhead_recorder_pct", "%").set(recorder_pct);
    registry.gauge("fxg_recorder_record_ns", "ns").set(t_record * 1e9);
    registry.gauge("fxg_overhead_recorder_fleet_pct", "%").set(recorder_fleet_pct);
    registry.gauge("fxg_recorder_fleet_sample_us", "us").set(t_fleet_sample * 1e6);
    registry.gauge("fxg_measure_no_sink_ms", "ms").set(t_measure * 1e3);
    registry.gauge("fxg_measure_traced_ms", "ms").set(t_enabled * 1e3);
    telemetry::write_bench_json("BENCH_telemetry.json",
                                telemetry::bench_json_records(registry));
    std::puts("\nwrote BENCH_telemetry.json");

    const bool pass = disabled_pct < 1.0 && recorder_pct < 1.0 &&
                      recorder_fleet_pct < 1.0 && bit_identical && recorder_identical;
    std::printf("\nzero-cost contract (no sink => < 1%% measure() slowdown, "
                "black box < 1%%)  ->  %s\n",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
