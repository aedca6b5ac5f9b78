/// \file flight_recorder_test.cpp
/// The always-on black box (telemetry::FlightRecorder): JSONL drains
/// that round-trip through parse_trace_jsonl, bounded-ring overwrite
/// accounting, the per-thread ring lookup (one ring per thread per
/// recorder, never a destroyed recorder's), the records one measure()
/// writes, the freeze protocol (writers drop instead of mutating a
/// frozen cut — including under concurrent hammering, the TSan leg's
/// main course), metric snapshots once per kSnapshotEvery samples
/// (rendered from concurrent writers too), and the two fleet-level
/// guarantees the recorder was built around: a fleet carrying it on
/// every member keeps the SoA lane-batched dispatch, and arming it
/// never changes a measurement's bits.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
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
#include "telemetry/probes.hpp"
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
    constexpr std::size_t kRing = telemetry::FlightRecorder::kRingCapacity;
    constexpr std::size_t kOverwritten = 84;
    telemetry::FlightRecorder recorder;

    for (std::size_t i = 0; i < kRing + kOverwritten; ++i) {
        recorder.event("tick", static_cast<double>(i));
    }

    EXPECT_EQ(recorder.retained(), kRing);
    EXPECT_EQ(recorder.dropped(), kOverwritten);

    // The drain holds exactly the newest window, still parseable.
    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder.trace_jsonl());
    ASSERT_EQ(trace.events.size(), kRing);
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        EXPECT_DOUBLE_EQ(trace.events[i].value, static_cast<double>(kOverwritten + i));
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
    constexpr std::uint64_t kEvery = telemetry::FlightRecorder::kSnapshotEvery;
    constexpr std::size_t kKept = telemetry::FlightRecorder::kSnapshotsKept;
    telemetry::MetricsRegistry registry;
    auto& measurements = registry.counter("fxg_measurements_total");

    telemetry::FlightRecorder recorder;
    recorder.attach_registry(&registry);

    // Two more snapshots fall due than the deque keeps, plus a partial
    // interval that renders none.
    constexpr std::uint64_t kSamples = (kKept + 2) * kEvery + kEvery / 2;
    telemetry::MeasurementSample sample;
    for (std::uint64_t i = 0; i < kSamples; ++i) {
        measurements.inc();
        recorder.on_sample(sample);
    }

    const std::vector<std::string> snaps = recorder.metric_snapshots();
    ASSERT_EQ(snaps.size(), kKept);
    // Oldest first, one every kEvery samples: of the snapshots taken at
    // kEvery, 2 kEvery, ..., (kKept + 2) kEvery, the third on.
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const std::string line =
            "fxg_measurements_total " + std::to_string((i + 3) * kEvery) + "\n";
        EXPECT_NE(snaps[i].find(line), std::string::npos) << "snapshot " << i;
    }
}

TEST(FlightRecorderTest, FleetKeepsLaneBatchedDispatchWithBlackBoxOn) {
    // The load-bearing seam: the always-on recorder answers
    // requires_member_trace() == false, so the Auto dispatch must stay
    // on the SoA lane path — visible as "engine.lanes" spans (the
    // per-member fallback would emit "engine.block"/"engine.scalar").
    // 1,024 samples per period keep the counters under the one-bit
    // clock, so every advance of these plain members takes the kernel.
    compass::CompassConfig cfg = small_config();
    cfg.steps_per_period = 1024;
    compass::CompassFleet fleet(4, cfg);
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
    // Each drain parses up to four full rings of kRingCapacity records.
    telemetry::FlightRecorder recorder;

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
    // The TSan-leg stress for metric snapshots: four writers feed a
    // recorder and probes on one registry, as a fleet's black box
    // does, so due snapshots are claimed and rendered from whichever
    // writer reaches them while the other writers update the registry,
    // and the main thread reads the retained snapshots and freezes the
    // recorder.
    constexpr std::uint64_t kEvery = telemetry::FlightRecorder::kSnapshotEvery;
    constexpr std::size_t kKept = telemetry::FlightRecorder::kSnapshotsKept;
    telemetry::MetricsRegistry registry;
    telemetry::FlightRecorder recorder;
    recorder.attach_registry(&registry);
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink black_box({&recorder, &probes});
    const telemetry::Counter& measurements = registry.counter("fxg_measurements_total");

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&black_box, &stop, t] {
            telemetry::MeasurementSample sample;
            sample.member = t;
            for (std::int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
                sample.raw_count_x = i;
                sample.latency_s = 1e-6 * static_cast<double>(i % 1000);
                black_box.on_sample(sample);
            }
        });
    }

    // The writers render about 32 snapshots while this loop runs.
    while (recorder.metric_snapshots().empty()) std::this_thread::yield();
    for (int round = 0; measurements.value() < 32 * kEvery; ++round) {
        const std::vector<std::string> snaps = recorder.metric_snapshots();
        EXPECT_LE(snaps.size(), kKept) << "round " << round;
        for (const std::string& s : snaps) {
            EXPECT_NE(s.find("# TYPE fxg_measurements_total counter\n"),
                      std::string::npos);
        }
        telemetry::FlightRecorder::Freeze freeze(recorder);
        std::this_thread::yield();
    }

    stop.store(true, std::memory_order_relaxed);
    for (auto& th : writers) th.join();
    EXPECT_LE(recorder.metric_snapshots().size(), kKept);
}

TEST(FlightRecorderTest, DefaultMeasureRetainsTwoRecordsPerSpanAndOneSample) {
    // A span writes two records (begin and end) and a sample one, so a
    // span added to the default plan shows up here as a count before it
    // shows up as black-box overhead in bench_telemetry_overhead.
    compass::Compass compass{compass::CompassConfig{}};
    compass.set_environment(site(), 123.0);
    telemetry::FlightRecorder recorder;
    compass.set_telemetry(&recorder);
    static_cast<void>(compass.measure());

    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(recorder.trace_jsonl());
    EXPECT_EQ(trace.spans.size(), 14u);
    EXPECT_EQ(recorder.retained(), 2 * trace.spans.size() + 1);
    EXPECT_EQ(recorder.retained(), 29u);
    EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderTest, OneThreadAlternatingRecordersKeepsOneRingInEach) {
    // Every record below misses the thread's one-entry ring cache; the
    // miss must find the thread's ring in that recorder, not add one.
    constexpr std::size_t kRing = telemetry::FlightRecorder::kRingCapacity;
    telemetry::FlightRecorder a;
    telemetry::FlightRecorder b;
    for (std::size_t i = 0; i < kRing; ++i) {
        a.event("a", static_cast<double>(i));
        b.event("b", static_cast<double>(i));
    }
    for (telemetry::FlightRecorder* r : {&a, &b}) {
        EXPECT_EQ(r->retained(), kRing);
        EXPECT_EQ(r->dropped(), 0u);
        const telemetry::ParsedTrace trace =
            telemetry::parse_trace_jsonl(r->trace_jsonl());
        ASSERT_EQ(trace.events.size(), kRing);
        std::size_t out_of_place = 0;
        for (std::size_t i = 0; i < kRing; ++i) {
            if (trace.events[i].value != static_cast<double>(i)) ++out_of_place;
        }
        EXPECT_EQ(out_of_place, 0u);
        // One ring per recorder, and it is full: one more record wraps it.
        r->event("wrap", 0.0);
        EXPECT_EQ(r->retained(), kRing);
        EXPECT_EQ(r->dropped(), 1u);
    }
}

TEST(FlightRecorderTest, EachThreadGetsItsOwnRing) {
    constexpr std::size_t kRing = telemetry::FlightRecorder::kRingCapacity;
    telemetry::FlightRecorder recorder;
    for (std::size_t i = 0; i < kRing; ++i) recorder.event("main", 1.0);

    // A second thread, and a third started after the second ended, each
    // write a ring of their own: nothing of the main thread's full ring
    // is overwritten.
    std::thread([&recorder] { recorder.event("second", 2.0); }).join();
    std::thread([&recorder] { recorder.event("third", 3.0); }).join();
    EXPECT_EQ(recorder.retained(), kRing + 2);
    EXPECT_EQ(recorder.dropped(), 0u);

    recorder.event("main", 1.0);
    EXPECT_EQ(recorder.retained(), kRing + 2);
    EXPECT_EQ(recorder.dropped(), 1u);
}

TEST(FlightRecorderTest, RecorderBornWhereAnotherDiedWritesOnlyItsOwnRing) {
    // The second recorder takes the first one's address, and this
    // thread's ring cache still names the first one's freed ring; a
    // write through that entry is a heap use-after-free under ASan.
    std::optional<telemetry::FlightRecorder> slot;
    slot.emplace();
    slot->event("old", 1.0);
    slot.reset();
    slot.emplace();
    slot->event("new", 2.0);

    EXPECT_EQ(slot->retained(), 1u);
    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(slot->trace_jsonl());
    ASSERT_EQ(trace.events.size(), 1u);
    EXPECT_EQ(trace.events[0].name, "new");
}

TEST(FlightRecorderTest, DroppedCountsOverwritesAndFrozenDropsExactly) {
    constexpr std::size_t kRing = telemetry::FlightRecorder::kRingCapacity;
    telemetry::FlightRecorder recorder;
    for (std::size_t i = 0; i < kRing + 7; ++i) recorder.event("main", 1.0);
    std::thread([&recorder] {
        for (std::size_t i = 0; i < kRing + 2; ++i) recorder.event("other", 2.0);
    }).join();
    EXPECT_EQ(recorder.dropped(), 7u + 2u);

    {
        telemetry::FlightRecorder::Freeze freeze(recorder);
        for (int i = 0; i < 3; ++i) recorder.event("frozen", 3.0);
        // A thread whose first record comes while frozen drops it too.
        std::thread([&recorder] { recorder.event("frozen", 4.0); }).join();
    }
    EXPECT_EQ(recorder.dropped(), 7u + 2u + 3u + 1u);
    EXPECT_EQ(recorder.retained(), 2 * kRing);
}
