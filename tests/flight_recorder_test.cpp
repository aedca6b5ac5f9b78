/// \file flight_recorder_test.cpp
/// The always-on black box (telemetry::FlightRecorder): JSONL drains
/// that round-trip through parse_trace_jsonl, bounded-ring overwrite
/// accounting, the freeze protocol (writers drop instead of mutating a
/// frozen cut — including under concurrent hammering, the TSan leg's
/// main course), periodic metric snapshots spaced by the registry's
/// size (rendered from concurrent writers too), and the two fleet-level
/// guarantees the recorder was built around: a fleet carrying it on
/// every member keeps the SoA lane-batched dispatch, and arming it
/// never changes a measurement's bits.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

using namespace fxg;

namespace {

magnetics::EarthField site() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

compass::CompassConfig small_config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 64;
    cfg.periods_per_axis = 1;
    cfg.settle_periods = 1;
    return cfg;
}

const telemetry::ParsedSpan* find_span(const telemetry::ParsedTrace& trace,
                                       const std::string& name) {
    for (const auto& s : trace.spans) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

void expect_equal_measurements(const compass::Measurement& a,
                               const compass::Measurement& b) {
    EXPECT_EQ(a.count_x, b.count_x);
    EXPECT_EQ(a.count_y, b.count_y);
    EXPECT_EQ(a.heading_deg, b.heading_deg);
    EXPECT_EQ(a.heading_float_deg, b.heading_float_deg);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.field_in_range, b.field_in_range);
}

}  // namespace

TEST(FlightRecorderTest, DrainRoundTripsThroughTraceParser) {
    telemetry::FlightRecorder recorder;

    const telemetry::SpanId outer = recorder.begin_span("measure",
                                                        telemetry::kNoChannel);
    const telemetry::SpanId inner = recorder.begin_span("settle", 0);
    recorder.end_span(inner, 64);
    recorder.event("ladder", 2.0);
    telemetry::MeasurementSample sample;
    sample.member = 3;
    sample.count_x = 550;
    sample.count_y = -320;
    sample.heading_deg = 123.5;
    recorder.on_sample(sample);
    recorder.end_span(outer, 0);

    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder.trace_jsonl());

    const telemetry::ParsedSpan* settle = find_span(trace, "settle");
    ASSERT_NE(settle, nullptr);
    EXPECT_EQ(settle->channel, 0);
    EXPECT_EQ(settle->value, 64);
    const telemetry::ParsedSpan* measure = find_span(trace, "measure");
    ASSERT_NE(measure, nullptr);
    EXPECT_EQ(settle->parent, measure->id);
    EXPECT_GE(measure->end_ns, measure->start_ns);

    // The sample expands to four "sample.*" events; the ladder event
    // rides along with its double payload intact.
    std::vector<std::string> event_names;
    event_names.reserve(trace.events.size());
    for (const auto& e : trace.events) event_names.push_back(e.name);
    EXPECT_NE(std::find(event_names.begin(), event_names.end(), "ladder"),
              event_names.end());
    for (const char* name : {"sample.member", "sample.count_x",
                             "sample.count_y", "sample.heading_deg"}) {
        EXPECT_NE(std::find(event_names.begin(), event_names.end(), name),
                  event_names.end())
            << name;
    }
    for (const auto& e : trace.events) {
        if (e.name == "sample.heading_deg") {
            EXPECT_DOUBLE_EQ(e.value, 123.5);
        }
        if (e.name == "sample.count_x") {
            EXPECT_DOUBLE_EQ(e.value, 550.0);
        }
    }
}

TEST(FlightRecorderTest, RingWrapForgetsOldestAndCountsDropped) {
    telemetry::FlightRecorder::Config cfg;
    cfg.ring_capacity = 16;  // already a power of two
    telemetry::FlightRecorder recorder(cfg);

    for (int i = 0; i < 100; ++i) recorder.event("tick", i);

    EXPECT_EQ(recorder.retained(), 16u);
    EXPECT_EQ(recorder.dropped(), 84u);

    // The drain holds exactly the newest window, still parseable.
    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder.trace_jsonl());
    ASSERT_EQ(trace.events.size(), 16u);
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        EXPECT_DOUBLE_EQ(trace.events[i].value, 84.0 + static_cast<double>(i));
    }
}

TEST(FlightRecorderTest, FreezeDropsWritesUntilUnfrozen) {
    telemetry::FlightRecorder recorder;
    recorder.event("before", 1.0);

    recorder.freeze();
    EXPECT_TRUE(recorder.frozen());
    recorder.event("during", 2.0);  // dropped, not recorded
    EXPECT_EQ(recorder.dropped(), 1u);
    EXPECT_EQ(recorder.retained(), 1u);

    // Nested freeze: still frozen until the outer unfreeze.
    recorder.freeze();
    recorder.unfreeze();
    EXPECT_TRUE(recorder.frozen());
    recorder.unfreeze();
    EXPECT_FALSE(recorder.frozen());

    recorder.event("after", 3.0);
    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder.trace_jsonl());
    ASSERT_EQ(trace.events.size(), 2u);
    EXPECT_EQ(trace.events[0].name, "before");
    EXPECT_EQ(trace.events[1].name, "after");
}

TEST(FlightRecorderTest, OpenSpanAtTheCutGetsPlaceholderEnd) {
    telemetry::FlightRecorder recorder;
    const telemetry::SpanId id = recorder.begin_span("unfinished", 1);
    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder.trace_jsonl());
    ASSERT_EQ(trace.spans.size(), 1u);
    EXPECT_EQ(trace.spans[0].name, "unfinished");
    EXPECT_EQ(trace.spans[0].end_ns, trace.spans[0].start_ns);
    recorder.end_span(id, 0);
}

TEST(FlightRecorderTest, PeriodicMetricSnapshotsAreBounded) {
    telemetry::MetricsRegistry registry;
    auto& measurements = registry.counter("fxg_measurements_total");

    telemetry::FlightRecorder::Config cfg;
    cfg.metrics_snapshot_every = 2;
    cfg.metrics_snapshots_kept = 3;
    telemetry::FlightRecorder recorder(cfg);
    recorder.attach_registry(&registry);

    telemetry::MeasurementSample sample;
    for (int i = 0; i < 20; ++i) {
        measurements.inc();
        recorder.on_sample(sample);
    }

    const std::vector<std::string> snaps = recorder.metric_snapshots();
    ASSERT_EQ(snaps.size(), 3u);  // bounded by metrics_snapshots_kept
    for (const std::string& s : snaps) {
        EXPECT_NE(s.find("fxg_measurements_total"), std::string::npos);
    }
    // Oldest first: the counter value grows across retained snapshots.
    EXPECT_LT(snaps.front().find("fxg_measurements_total 16"), snaps.front().size());
    EXPECT_LT(snaps.back().find("fxg_measurements_total 20"), snaps.back().size());
}

TEST(FlightRecorderTest, SnapshotSpacingFollowsRegistrySize) {
    // A render costs O(entries); a fleet's registry holds one gauge per
    // member. After a snapshot the next is due max(every, entries)
    // samples later, so a 1000-entry registry is rendered at most once
    // per 1000 samples, not once per 64.
    telemetry::MetricsRegistry registry;
    auto& measurements = registry.counter("fxg_measurements_total");
    for (int i = 0; i < 999; ++i) {
        registry.gauge("fxg_member_latency_seconds{member=\"" + std::to_string(i) +
                       "\"}");
    }

    telemetry::FlightRecorder::Config cfg;
    cfg.metrics_snapshot_every = 64;
    cfg.metrics_snapshots_kept = 4;
    telemetry::FlightRecorder recorder(cfg);
    recorder.attach_registry(&registry);

    telemetry::MeasurementSample sample;
    for (int i = 0; i < 10'000; ++i) {
        measurements.inc();
        recorder.on_sample(sample);
    }

    const std::vector<std::string> snaps = recorder.metric_snapshots();
    ASSERT_EQ(snaps.size(), 4u);
    std::vector<long long> counts;
    for (const std::string& s : snaps) {
        const std::string key = "\nfxg_measurements_total ";
        const std::size_t at = s.find(key);
        ASSERT_NE(at, std::string::npos);
        counts.push_back(std::stoll(s.substr(at + key.size())));
    }
    for (std::size_t i = 1; i < counts.size(); ++i) {
        EXPECT_GE(counts[i] - counts[i - 1], 1000) << "snapshots " << i - 1 << ", " << i;
    }
}

TEST(FlightRecorderTest, FleetKeepsLaneBatchedDispatchWithBlackBoxOn) {
    // The load-bearing seam: the always-on recorder answers
    // requires_member_trace() == false, so the Auto dispatch must stay
    // on the SoA lane path — visible as "engine.lanes" spans (the
    // per-member fallback would emit "engine.block"/"engine.scalar").
    compass::CompassFleet fleet(4, small_config());
    std::vector<double> headings{10.0, 100.0, 190.0, 280.0};
    fleet.set_environments(site(), headings);
    static_cast<void>(fleet.measure_all());

    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(fleet.flight_recorder().trace_jsonl());
    EXPECT_NE(find_span(trace, "engine.lanes"), nullptr)
        << "black box forced the fleet off the lane-batched path";
    EXPECT_EQ(find_span(trace, "engine.block"), nullptr);

    // Every member's sample landed in the shared recorder.
    int samples = 0;
    for (const auto& e : trace.events) {
        if (e.name == "sample.member") ++samples;
    }
    EXPECT_EQ(samples, 4);
}

TEST(FlightRecorderTest, RecorderNeverChangesMeasurementBits) {
    const compass::CompassConfig cfg = small_config();

    compass::Compass bare(cfg);
    bare.set_environment(site(), 241.0);
    const compass::Measurement expected = bare.measure();

    telemetry::FlightRecorder recorder;
    compass::Compass recorded(cfg);
    recorded.set_environment(site(), 241.0);
    recorded.set_telemetry(&recorder);
    const compass::Measurement got = recorded.measure();

    expect_equal_measurements(got, expected);
    EXPECT_GT(recorder.retained(), 0u);
}

TEST(FlightRecorderTest, ConcurrentWritersSurviveFreezeDrainCycles) {
    // The TSan-leg stress: four writer threads hammer spans, events and
    // samples while the main thread repeatedly freezes, drains and
    // parses. Every drain must parse cleanly (no torn records) and no
    // freeze may be lost (writers observe the freeze via the busy/
    // frozen handshake, so retained() is stable across a frozen cut).
    telemetry::FlightRecorder::Config cfg;
    cfg.ring_capacity = 256;
    telemetry::FlightRecorder recorder(cfg);

    std::atomic<bool> stop{false};
    std::atomic<int> writing{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&recorder, &stop, &writing, t] {
            telemetry::MeasurementSample sample;
            sample.member = t;
            bool counted = false;
            while (!stop.load(std::memory_order_relaxed)) {
                const telemetry::SpanId id = recorder.begin_span("work", t);
                recorder.event("step", 1.0);
                recorder.on_sample(sample);
                recorder.end_span(id, 7);
                if (!counted) {
                    counted = true;
                    writing.fetch_add(1);
                }
            }
        });
    }
    // The rounds below must race live writers: on a loaded host a
    // writer thread can start after the main thread has finished them.
    while (writing.load() < 4) std::this_thread::yield();

    for (int round = 0; round < 50; ++round) {
        const std::string jsonl = recorder.trace_jsonl();
        EXPECT_NO_THROW(static_cast<void>(telemetry::parse_trace_jsonl(jsonl)))
            << "round " << round;

        telemetry::FlightRecorder::Freeze freeze(recorder);
        const std::size_t a = recorder.retained();
        std::this_thread::yield();
        const std::size_t b = recorder.retained();
        EXPECT_EQ(a, b) << "writers mutated a frozen cut (lost freeze)";
    }

    stop.store(true, std::memory_order_relaxed);
    for (auto& th : writers) th.join();

    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder.trace_jsonl());
    EXPECT_GT(trace.spans.size() + trace.events.size(), 0u);
}

TEST(FlightRecorderTest, ConcurrentWritersShareTheSnapshotPath) {
    // The TSan-leg stress for metric snapshots: four writers update a
    // registry and emit samples, so due snapshots are claimed and
    // rendered from whichever writer reaches them, while the main
    // thread reads the retained snapshots and freezes the recorder.
    telemetry::MetricsRegistry registry;
    auto& measurements = registry.counter("fxg_measurements_total");
    std::vector<telemetry::Gauge*> gauges;
    for (int i = 0; i < 100; ++i) {
        gauges.push_back(&registry.gauge("fxg_member_latency_seconds{member=\"" +
                                         std::to_string(i) + "\"}"));
    }

    telemetry::FlightRecorder::Config cfg;
    cfg.ring_capacity = 256;
    cfg.metrics_snapshot_every = 8;
    telemetry::FlightRecorder recorder(cfg);
    recorder.attach_registry(&registry);

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&recorder, &measurements, &gauges, &stop, t] {
            telemetry::MeasurementSample sample;
            sample.member = t;
            for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
                measurements.inc();
                gauges[i % gauges.size()]->set(static_cast<double>(i));
                recorder.on_sample(sample);
            }
        });
    }

    // Snapshots fall due every 101 samples (the registry's size), so
    // the writers render about 200 of them while this loop runs.
    while (recorder.metric_snapshots().empty()) std::this_thread::yield();
    for (int round = 0; measurements.value() < 20000; ++round) {
        const std::vector<std::string> snaps = recorder.metric_snapshots();
        EXPECT_LE(snaps.size(), cfg.metrics_snapshots_kept) << "round " << round;
        for (const std::string& s : snaps) {
            EXPECT_NE(s.find("# TYPE fxg_measurements_total counter\n"),
                      std::string::npos);
        }
        telemetry::FlightRecorder::Freeze freeze(recorder);
        std::this_thread::yield();
    }

    stop.store(true, std::memory_order_relaxed);
    for (auto& th : writers) th.join();
    EXPECT_LE(recorder.metric_snapshots().size(), cfg.metrics_snapshots_kept);
}
