/// \file telemetry_test.cpp
/// The telemetry subsystem's contracts: manual span nesting and
/// ordering, the log-linear histogram's layout and quantile error, the
/// JSONL round trip, Prometheus rendering, physics probes fed by a real
/// measurement, fleet aggregation from worker threads, the VCD bridge,
/// and — the load-bearing one — that attaching or detaching a sink
/// never changes a measurement's bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "sim/engine.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/vcd_bridge.hpp"

using namespace fxg;

namespace {

magnetics::EarthField site() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

compass::Compass& at_design_point(compass::Compass& c, double heading = 123.0) {
    c.set_environment(site(), heading);
    return c;
}

const telemetry::SpanRecord* find_span(const std::vector<telemetry::SpanRecord>& spans,
                                       const std::string& name,
                                       int channel = telemetry::kNoChannel) {
    for (const auto& s : spans) {
        if (name == s.name && s.channel == channel) return &s;
    }
    return nullptr;
}

/// The `le` lines of histogram family `base` in Prometheus `text`, as
/// (edge, cumulative count) pairs; +Inf reads as infinity.
std::vector<std::pair<double, std::uint64_t>> le_lines(const std::string& text,
                                                       const std::string& base) {
    const std::string prefix = base + "_bucket{le=\"";
    std::vector<std::pair<double, std::uint64_t>> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(prefix, 0) != 0) continue;
        const std::size_t close = line.find('"', prefix.size());
        const std::string le = line.substr(prefix.size(), close - prefix.size());
        lines.emplace_back(le == "+Inf" ? std::numeric_limits<double>::infinity()
                                        : std::stod(le),
                           std::stoull(line.substr(close + 3)));
    }
    return lines;
}

/// The value on the `<base>_count` line of Prometheus `text`.
std::uint64_t count_line(const std::string& text, const std::string& base) {
    const std::string prefix = "\n" + base + "_count ";
    const std::size_t at = text.find(prefix);
    return at == std::string::npos ? 0 : std::stoull(text.substr(at + prefix.size()));
}

// ------------------------------------------------------------ TraceSession

TEST(TraceSession, RecordsNestingAndGlobalOrder) {
    telemetry::TraceSession session;
    {
        telemetry::Span outer(&session, "outer");
        {
            telemetry::Span inner(&session, "inner", 1);
            inner.set_value(42);
        }
        telemetry::Span sibling(&session, "sibling");
        session.event("tick", 7.0);
    }
    const auto spans = session.spans();
    ASSERT_EQ(spans.size(), 3u);

    const auto* outer = find_span(spans, "outer");
    const auto* inner = find_span(spans, "inner", 1);
    const auto* sibling = find_span(spans, "sibling");
    ASSERT_TRUE(outer && inner && sibling);

    EXPECT_EQ(outer->parent, telemetry::kNoSpan);
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_EQ(sibling->parent, outer->id);
    EXPECT_EQ(inner->value, 42);
    EXPECT_EQ(inner->channel, 1);

    // Monotonic timestamps and a consistent global sequence.
    EXPECT_LE(outer->start_ns, inner->start_ns);
    EXPECT_LE(inner->end_ns, outer->end_ns);
    EXPECT_LT(outer->seq_begin, inner->seq_begin);
    EXPECT_LT(inner->seq_end, sibling->seq_begin);
    EXPECT_LT(sibling->seq_end, outer->seq_end);

    // The event hangs off the innermost open span at call time — the
    // still-live sibling, not the enclosing outer.
    const auto events = session.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].parent, sibling->id);
    EXPECT_DOUBLE_EQ(events[0].value, 7.0);

    session.clear();
    EXPECT_EQ(session.span_count(), 0u);
    EXPECT_TRUE(session.events().empty());
}

TEST(TraceSession, NullSinkSpanIsANoOp) {
    // The disabled path: a Span on a null sink must not touch anything.
    telemetry::Span span(nullptr, "never");
    span.set_value(1);
    SUCCEED();
}

// ------------------------------------------------------------ metrics

TEST(Metrics, HistogramBucketMath) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("h", "s");
    // Bucket 0 takes values <= 0; each octave splits into 32 sub-buckets
    // 1/32 of its lower edge wide: [1, 1.03125) holds 1.0 and 1.01.
    for (const double x : {-1.0, 0.0, 1.0, 1.01, 1.04, 1.5, 3.0}) h.observe(x);

    const std::size_t one = telemetry::Histogram::bucket_of(1.0);
    EXPECT_EQ(h.bucket_count(0), 2u);             // -1, 0
    EXPECT_EQ(h.bucket_count(one), 2u);           // 1.0, 1.01
    EXPECT_EQ(h.bucket_count(one + 1), 1u);       // 1.04
    EXPECT_EQ(h.bucket_count(one + 16), 1u);      // 1.5
    EXPECT_EQ(h.bucket_count(one + 32 + 16), 1u); // 3.0 = 2 * 1.5
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(), 6.55);

    // Same name, different kind: the registry refuses.
    EXPECT_THROW(registry.counter("h"), std::invalid_argument);
    // Same name, same kind: same instrument.
    EXPECT_EQ(&registry.histogram("h", "s"), &h);
}

TEST(Metrics, HistogramEdgesAreContiguousAndStrictlyIncreasing) {
    using H = telemetry::Histogram;
    ASSERT_EQ(H::kBuckets, 2049u);
    EXPECT_EQ(H::upper_edge(0), 0.0);
    EXPECT_EQ(H::upper_edge(H::kBuckets - 1), std::numeric_limits<double>::infinity());
    // Bucket i holds [upper_edge(i - 1), upper_edge(i)): the largest
    // double below an edge falls in the bucket the edge closes, the edge
    // itself in the next one, so the buckets leave no gap and overlap
    // nowhere. No bucket is wider than 1/32 of its lower edge.
    for (std::size_t i = 1; i + 1 < H::kBuckets; ++i) {
        const double hi = H::upper_edge(i);
        ASSERT_LT(H::upper_edge(i - 1), hi) << i;
        EXPECT_EQ(H::bucket_of(std::nextafter(hi, 0.0)), i) << i;
        EXPECT_EQ(H::bucket_of(hi), i + 1) << i;
        if (i > 1) {
            const double lo = H::upper_edge(i - 1);
            EXPECT_LE((hi - lo) / lo, 1.0 / 32.0) << i;
        }
    }
    EXPECT_EQ(H::bucket_of(0x1p-32), 1u);
    EXPECT_EQ(H::upper_edge(H::kBuckets - 2), 0x1p32 * (63.0 / 64.0));
    // Outside the layout: non-positive and NaN in bucket 0, tiny values
    // in bucket 1, huge ones in the top bucket.
    EXPECT_EQ(H::bucket_of(-0.0), 0u);
    EXPECT_EQ(H::bucket_of(-5.0), 0u);
    EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
    EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::denorm_min()), 1u);
    EXPECT_EQ(H::bucket_of(1e-12), 1u);
    EXPECT_EQ(H::bucket_of(0x1p32), H::kBuckets - 1);
    EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::infinity()), H::kBuckets - 1);
}

TEST(Metrics, RegistryIsConcurrencySafe) {
    telemetry::MetricsRegistry registry;
    auto& counter = registry.counter("hits");
    constexpr int kThreads = 4;
    constexpr int kIncs = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kIncs; ++i) counter.inc();
        });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

// ------------------------------------------------------------ pipeline trace

TEST(PipelineTrace, MeasureEmitsNestedPhaseSpansForBothChannels) {
    telemetry::TraceSession session;
    compass::Compass compass;
    at_design_point(compass);
    compass.set_telemetry(&session);
    static_cast<void>(compass.measure());

    const auto spans = session.spans();
    const auto* measure = find_span(spans, "measure");
    ASSERT_NE(measure, nullptr);
    EXPECT_EQ(measure->parent, telemetry::kNoSpan);

    for (const int ch : {0, 1}) {
        const auto* axis = find_span(spans, "axis", ch);
        ASSERT_NE(axis, nullptr) << "channel " << ch;
        EXPECT_EQ(axis->parent, measure->id);
        for (const char* phase : {"excite", "settle", "count"}) {
            const auto* span = find_span(spans, phase, ch);
            ASSERT_NE(span, nullptr) << phase << " ch " << ch;
            EXPECT_EQ(span->parent, axis->id);
        }
        // The engine batches nest under the phases that advance time.
        const auto* settle = find_span(spans, "settle", ch);
        bool engine_under_settle = false;
        for (const auto& s : spans) {
            if (std::string(s.name).rfind("engine.", 0) == 0 &&
                s.parent == settle->id) {
                engine_under_settle = true;
            }
        }
        EXPECT_TRUE(engine_under_settle) << "ch " << ch;
    }
    const auto* cordic = find_span(spans, "cordic");
    ASSERT_NE(cordic, nullptr);
    EXPECT_EQ(cordic->parent, measure->id);
    EXPECT_GT(cordic->value, 0);  // rotation count
}

TEST(PipelineTrace, SupervisorWrapsMeasureAndEmitsLadderEvents) {
    telemetry::TraceSession session;
    compass::Compass compass;
    at_design_point(compass);
    compass.set_telemetry(&session);
    fault::MeasurementSupervisor supervisor(compass);
    static_cast<void>(supervisor.measure());  // healthy baseline

    fault::FaultInjector injector;
    injector.add({.fault = fault::FaultClass::DetectorStuckLow,
                  .channel = analog::Channel::Y});
    injector.arm(compass);
    const auto degraded = supervisor.measure();
    EXPECT_EQ(degraded.status, fault::SupervisedStatus::DegradedSingleAxis);

    const auto spans = session.spans();
    const auto* supervise = find_span(spans, "supervise");
    ASSERT_NE(supervise, nullptr);
    const auto* measure = find_span(spans, "measure");
    ASSERT_NE(measure, nullptr);
    EXPECT_EQ(measure->parent, supervise->id);

    std::map<std::string, int> event_names;
    for (const auto& e : session.events()) ++event_names[e.name];
    EXPECT_EQ(event_names.count("supervisor.ok"), 1u);
    EXPECT_GE(event_names["supervisor.re_excite"], 1);
    EXPECT_EQ(event_names["supervisor.degraded_single_axis"], 1);
}

// ------------------------------------------------------------ no-perturbation

TEST(ZeroCost, SinkAttachmentNeverChangesMeasurementBits) {
    for (const auto kind : {sim::EngineKind::Scalar, sim::EngineKind::Block}) {
        compass::CompassConfig cfg;
        cfg.engine = kind;

        compass::Compass plain(cfg);
        at_design_point(plain);
        const compass::Measurement a = plain.measure();

        telemetry::TraceSession session;
        telemetry::MetricsRegistry registry;
        telemetry::PhysicsProbes probes(registry);
        telemetry::TeeSink tee({&session, &probes});
        compass::Compass traced(cfg);
        at_design_point(traced);
        traced.set_telemetry(&tee);
        const compass::Measurement b = traced.measure();

        EXPECT_EQ(a.count_x, b.count_x) << sim::to_string(kind);
        EXPECT_EQ(a.count_y, b.count_y) << sim::to_string(kind);
        EXPECT_EQ(a.heading_deg, b.heading_deg) << sim::to_string(kind);
        EXPECT_EQ(a.heading_float_deg, b.heading_float_deg) << sim::to_string(kind);
        EXPECT_EQ(a.energy_j, b.energy_j) << sim::to_string(kind);

        // And detaching restores the plain path.
        traced.set_telemetry(nullptr);
        const compass::Measurement c = traced.measure();
        const compass::Measurement d = plain.measure();
        EXPECT_EQ(c.count_x, d.count_x) << sim::to_string(kind);
        EXPECT_EQ(c.heading_deg, d.heading_deg) << sim::to_string(kind);
    }
}

TEST(ZeroCost, ScalarAndBlockStayBitIdenticalWhileTraced) {
    telemetry::TraceSession session;
    compass::Measurement results[2];
    for (const auto kind : {sim::EngineKind::Scalar, sim::EngineKind::Block}) {
        compass::CompassConfig cfg;
        cfg.engine = kind;
        compass::Compass compass(cfg);
        at_design_point(compass, 287.0);
        compass.set_telemetry(&session);
        results[kind == sim::EngineKind::Block ? 1 : 0] = compass.measure();
    }
    EXPECT_EQ(results[0].count_x, results[1].count_x);
    EXPECT_EQ(results[0].count_y, results[1].count_y);
    EXPECT_EQ(results[0].heading_deg, results[1].heading_deg);
}

// ------------------------------------------------------------ probes

TEST(PhysicsProbes, OneMeasurementPopulatesTheRegistry) {
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    compass::Compass compass;
    at_design_point(compass);
    compass.set_telemetry(&probes);
    const compass::Measurement m = compass.measure();

    EXPECT_EQ(registry.counter("fxg_measurements_total").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge("fxg_heading_deg").value(), m.heading_deg);
    // Transfer law: duty = 1/2 + Hext/(2 Ha), so the recorded duty must
    // sit on the same side of 1/2 as the count.
    const double duty_x = registry.gauge("fxg_duty_x").value();
    EXPECT_GT(duty_x, 0.0);
    EXPECT_LT(duty_x, 1.0);
    // No calibration attached, so raw count == delivered count.
    EXPECT_DOUBLE_EQ(registry.gauge("fxg_count_raw_x").value(),
                     static_cast<double>(m.count_x));
    EXPECT_EQ(m.count_x > 0, duty_x > 0.5);
    EXPECT_GT(registry.gauge("fxg_cordic_rotations").value(), 0.0);
    EXPECT_GE(registry.gauge("fxg_cordic_residual_deg").value(), 0.0);

    auto& latency = registry.histogram("fxg_measure_latency_seconds");
    EXPECT_EQ(latency.count(), 1u);
    EXPECT_GT(latency.sum(), 0.0);
}

// ------------------------------------------------------------ exporters

TEST(Exporters, JsonlRoundTripsSpansAndEvents) {
    telemetry::TraceSession session;
    compass::Compass compass;
    at_design_point(compass);
    compass.set_telemetry(&session);
    static_cast<void>(compass.measure());
    session.event("marker", 2.5);

    const std::string text = telemetry::trace_to_jsonl(session);
    const telemetry::ParsedTrace parsed = telemetry::parse_trace_jsonl(text);

    const auto spans = session.spans();
    ASSERT_EQ(parsed.spans.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(parsed.spans[i].id, spans[i].id);
        EXPECT_EQ(parsed.spans[i].parent, spans[i].parent);
        EXPECT_EQ(parsed.spans[i].name, spans[i].name);
        EXPECT_EQ(parsed.spans[i].channel, spans[i].channel);
        EXPECT_EQ(parsed.spans[i].start_ns, spans[i].start_ns);
        EXPECT_EQ(parsed.spans[i].end_ns, spans[i].end_ns);
        EXPECT_EQ(parsed.spans[i].value, spans[i].value);
    }
    ASSERT_EQ(parsed.events.size(), 1u);
    EXPECT_EQ(parsed.events[0].name, "marker");
    EXPECT_DOUBLE_EQ(parsed.events[0].value, 2.5);

    EXPECT_THROW(telemetry::parse_trace_jsonl("{\"type\":\"span\"}"),
                 std::runtime_error);
}

TEST(Exporters, PrometheusTextHasCumulativeBucketsAndTypes) {
    telemetry::MetricsRegistry registry;
    registry.counter("requests_total").inc(3);
    registry.gauge("temp_c").set(21.5);
    auto& h = registry.histogram("lat", "s");
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> decades(-6.0, 1.0);
    for (int i = 0; i < 500; ++i) h.observe(std::pow(10.0, decades(rng)));
    for (const double x : {0.0, 0.0, 2.0, 2.0, 2.0}) h.observe(x);

    const std::string text = telemetry::prometheus_text(registry);
    EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
    EXPECT_NE(text.find("requests_total 3"), std::string::npos);
    EXPECT_NE(text.find("temp_c 21.5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
    EXPECT_NE(text.find("lat_count 505"), std::string::npos);

    // One `le` line per non-empty bucket: edges strictly increasing,
    // counts cumulative, +Inf equal to _count, and every line counting
    // exactly the observations at or below its edge.
    const auto lines = le_lines(text, "lat");
    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines.front(), std::make_pair(0.0, std::uint64_t{2}));
    EXPECT_EQ(lines.back().first, std::numeric_limits<double>::infinity());
    EXPECT_EQ(lines.back().second, h.count());
    EXPECT_EQ(count_line(text, "lat"), h.count());
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_LT(lines[i - 1].first, lines[i].first) << i;
        EXPECT_LE(lines[i - 1].second, lines[i].second) << i;
        if (i + 1 < lines.size()) {  // a finite line adds a non-empty bucket
            EXPECT_LT(lines[i - 1].second, lines[i].second) << i;
        }
    }
    EXPECT_NE(text.find("lat_bucket{le=\"2.0625\"} "), std::string::npos) << text;

    const std::string csv = telemetry::metrics_csv(registry);
    EXPECT_NE(csv.find("requests_total"), std::string::npos);
    EXPECT_NE(csv.find("lat_p99"), std::string::npos);

    const auto records = telemetry::bench_json_records(registry);
    const std::string json = telemetry::bench_json_text(records);
    EXPECT_NE(json.find("{\"name\":\"requests_total\",\"value\":3,"), std::string::npos);
    EXPECT_NE(json.find("lat_mean"), std::string::npos);
}

TEST(Exporters, PrometheusTextKeepsEachFamilyInOneGroup) {
    // Labelled series register lazily, so another instrument can land
    // between two series of one family. The exposition format wants
    // the family's lines together under one TYPE line.
    telemetry::MetricsRegistry registry;
    registry.gauge("a{member=\"0\"}").set(1.0);
    registry.counter("b").inc();
    registry.gauge("a{member=\"1\"}").set(2.0);

    const std::string text = telemetry::prometheus_text(registry);
    EXPECT_EQ(text,
              "# TYPE a gauge\n"
              "a{member=\"0\"} 1\n"
              "a{member=\"1\"} 2\n"
              "# TYPE b counter\n"
              "b 1\n");
}

// ------------------------------------------------------------ fleet

TEST(Fleet, SharedSinkAggregatesAcrossWorkerThreads) {
    constexpr int kFleet = 6;
    telemetry::TraceSession session;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink tee({&session, &probes});

    compass::CompassFleet fleet(kFleet);
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 60.0 + 5.0);
    fleet.set_environments(site(), headings);
    fleet.set_telemetry(&tee);
    const auto results = fleet.measure_all_results(4);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kFleet));
    for (const auto& r : results) EXPECT_TRUE(r.ok);

    // Every member contributed one complete, correctly-nested tree.
    const auto spans = session.spans();
    int roots = 0;
    for (const auto& s : spans) {
        if (std::string(s.name) == "measure") {
            ++roots;
            EXPECT_EQ(s.parent, telemetry::kNoSpan);
        } else if (std::string(s.name) == "axis") {
            // A nested span's parent must exist and enclose it in time.
            ASSERT_NE(s.parent, telemetry::kNoSpan);
            const auto& p = spans[s.parent - 1];
            EXPECT_LE(p.start_ns, s.start_ns);
            EXPECT_GE(p.end_ns, s.end_ns);
        }
    }
    EXPECT_EQ(roots, kFleet);

    EXPECT_EQ(registry.counter("fxg_measurements_total").value(),
              static_cast<std::uint64_t>(kFleet));
    EXPECT_EQ(registry.histogram("fxg_measure_latency_seconds").count(),
              static_cast<std::uint64_t>(kFleet));
    // No series is keyed by member, so the registry does not grow with
    // the fleet (CompassFleet.RegistryDoesNotGrowWithTheFleet).
    for (const telemetry::MetricsRegistry::Entry& e : registry.entries()) {
        EXPECT_EQ(e.name.find("member="), std::string::npos) << e.name;
    }
}

// ------------------------------------------------------------ VCD bridge

TEST(VcdBridge, SpansBecomeWaveforms) {
    telemetry::TraceSession session;
    compass::Compass compass;
    at_design_point(compass);
    compass.set_telemetry(&session);
    static_cast<void>(compass.measure());

    const std::string vcd = telemetry::trace_to_vcd(session);
    EXPECT_NE(vcd.find("$timescale"), std::string::npos);
    // One wire per distinct span name/channel, x/y suffixed.
    EXPECT_NE(vcd.find("measure"), std::string::npos);
    EXPECT_NE(vcd.find("excite_x"), std::string::npos);
    EXPECT_NE(vcd.find("count_y"), std::string::npos);
    EXPECT_NE(vcd.find("cordic"), std::string::npos);
    // Value changes exist (a rising and a falling edge at minimum).
    EXPECT_NE(vcd.find("\n1"), std::string::npos);
    EXPECT_NE(vcd.find("\n0"), std::string::npos);
}

// ------------------------------------------------------------ tee

TEST(TeeSink, FansOutToAllChildrenWithIdMapping) {
    telemetry::TraceSession a;
    telemetry::TraceSession b;
    telemetry::TeeSink tee({&a, &b});
    {
        telemetry::Span outer(&tee, "outer");
        telemetry::Span inner(&tee, "inner", 0);
        inner.set_value(5);
    }
    tee.event("e", 1.0);
    for (const auto* s : {&a, &b}) {
        const auto spans = s->spans();
        ASSERT_EQ(spans.size(), 2u);
        const auto* inner = find_span(spans, "inner", 0);
        ASSERT_NE(inner, nullptr);
        EXPECT_EQ(inner->value, 5);
        EXPECT_EQ(inner->parent, find_span(spans, "outer")->id);
        EXPECT_EQ(s->events().size(), 1u);
    }
}

TEST(TeeSink, SpansClosedOutOfNestingOrderReachTheirChildSpans) {
    telemetry::TraceSession a;
    telemetry::TraceSession b;
    telemetry::TeeSink tee({&a, &b});
    const telemetry::SpanId first = tee.begin_span("first", 0);
    const telemetry::SpanId second = tee.begin_span("second", 1);
    const telemetry::SpanId third = tee.begin_span("third", 0);
    tee.end_span(second, 2);
    tee.end_span(first, 1);
    tee.end_span(telemetry::kNoSpan, 9);  // unknown to the tee: ignored
    tee.end_span(third, 3);
    for (const auto* s : {&a, &b}) {
        const auto spans = s->spans();
        ASSERT_EQ(spans.size(), 3u);
        const struct {
            const char* name;
            int channel;
            std::int64_t value;
        } expected[] = {{"first", 0, 1}, {"second", 1, 2}, {"third", 0, 3}};
        for (const auto& e : expected) {
            const auto* span = find_span(spans, e.name, e.channel);
            ASSERT_NE(span, nullptr) << e.name;
            EXPECT_EQ(span->value, e.value) << e.name;
            EXPECT_NE(span->seq_end, 0u) << e.name;  // closed
        }
    }
}

// ------------------------------------------------------------ quantiles

TEST(Metrics, QuantileOfEmptyHistogramIsZero) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("empty", "s");
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Metrics, QuantileHitsExactBucketBoundaries) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("edges", "s");
    for (const double x : {0.5, 1.5, 3.0, 9.0}) h.observe(x);

    // q = k/4 exhausts exactly k observations: the cumulative count
    // meets the target in the k-th observation's bucket, not the next.
    const auto mid = [](double x) {
        const std::size_t i = telemetry::Histogram::bucket_of(x);
        return 0.5 * (telemetry::Histogram::upper_edge(i - 1) +
                      telemetry::Histogram::upper_edge(i));
    };
    EXPECT_EQ(h.quantile(0.25), mid(0.5));
    EXPECT_EQ(h.quantile(0.5), mid(1.5));
    EXPECT_EQ(h.quantile(0.75), mid(3.0));
    EXPECT_EQ(h.quantile(1.0), mid(9.0));
    EXPECT_EQ(h.quantile(0.0), mid(0.5));
    // Out-of-range q is clamped, not UB.
    EXPECT_EQ(h.quantile(-0.5), h.quantile(0.0));
    EXPECT_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(Metrics, QuantileIsWithinTwoPercentOfTheRankedSample) {
    std::mt19937_64 rng(20260);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> spread(0.0, 0.15);
    std::vector<double> log_uniform, bimodal, integers;
    for (int i = 0; i < 20000; ++i) {
        log_uniform.push_back(std::pow(10.0, -6.0 + 7.0 * unit(rng)));  // 1 us .. 10 s
        bimodal.push_back((unit(rng) < 0.8 ? 0.7e-3 : 3.6e-3) * std::exp(spread(rng)));
        // Skewed toward 0 (about 6 % zeros), like |counts| near a null.
        integers.push_back(std::floor(4097.0 * std::pow(unit(rng), 3.0)));
    }
    for (auto* samples : {&log_uniform, &bimodal, &integers}) {
        telemetry::Histogram h;
        for (const double x : *samples) h.observe(x);
        std::sort(samples->begin(), samples->end());
        const double n = static_cast<double>(samples->size());
        for (const double q : {0.001, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            const auto rank = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q * n)));
            const double want = (*samples)[rank - 1];
            const double got = h.quantile(q);
            if (want == 0.0) {
                EXPECT_EQ(got, 0.0) << "q " << q;
            } else {
                EXPECT_LE(std::fabs(got - want) / want, 0.02)
                    << "q " << q << ": " << got << " vs " << want;
            }
        }
    }
    EXPECT_EQ(integers[static_cast<std::size_t>(0.01 * 20000) - 1], 0.0);
}

TEST(Telemetry, HistogramObserveFromManyThreadsLosesNothing) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("fxg_concurrent_seconds", "s");
    constexpr int kThreads = 4;
    constexpr int kObserves = 5000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&h, t] {
            for (int i = 0; i < kObserves; ++i) h.observe(0.25 * (t + 1));
        });
    }
    // Exporters read while the writers run; every scrape stays valid
    // exposition: `le` lines strictly increasing and cumulative, +Inf
    // equal to _count.
    for (int i = 0; i < 20; ++i) {
        const std::string text = telemetry::prometheus_text(registry);
        const auto lines = le_lines(text, "fxg_concurrent_seconds");
        if (lines.empty()) {  // no ASSERT: it would return past joinable threads
            ADD_FAILURE() << "no le lines";
            continue;
        }
        for (std::size_t j = 1; j < lines.size(); ++j) {
            EXPECT_LT(lines[j - 1].first, lines[j].first) << j;
            EXPECT_LE(lines[j - 1].second, lines[j].second) << j;
        }
        EXPECT_EQ(lines.back().first, std::numeric_limits<double>::infinity());
        EXPECT_EQ(lines.back().second, count_line(text, "fxg_concurrent_seconds"));
        EXPECT_GE(h.quantile(0.5), 0.0);
    }
    for (auto& th : pool) th.join();

    EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kObserves);
    EXPECT_EQ(h.sum(), 0.25 * kObserves * (1 + 2 + 3 + 4));
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(h.bucket_count(telemetry::Histogram::bucket_of(0.25 * (t + 1))),
                  std::uint64_t{kObserves});
    }
}

// ---------------------------------------------------- malformed JSONL

TEST(Exporters, ParserNamesTheOffendingLine) {
    const std::string good =
        "{\"type\":\"event\",\"parent\":0,\"name\":\"ok\",\"t_ns\":1,"
        "\"seq\":1,\"value\":2}";

    const auto line_of = [](const std::string& text) -> std::size_t {
        try {
            static_cast<void>(telemetry::parse_trace_jsonl(text));
        } catch (const telemetry::TraceParseError& e) {
            return e.line();
        }
        return 0;  // no throw
    };

    // Truncated record (no closing brace) on line 2.
    EXPECT_EQ(line_of(good + "\n{\"type\":\"event\",\"name\":\"x"), 2u);
    // Not a JSON object at all.
    EXPECT_EQ(line_of("hello world\n"), 1u);
    // Missing a required field.
    EXPECT_EQ(line_of(good + "\n{\"type\":\"event\",\"name\":\"x\"}"), 2u);
    // Garbage where a number belongs.
    EXPECT_EQ(line_of("{\"type\":\"event\",\"parent\":0,\"name\":\"x\","
                      "\"t_ns\":banana,\"seq\":1,\"value\":2}"),
              1u);
    // Unterminated string value (every other field is well-formed).
    EXPECT_EQ(line_of("{\"type\":\"span\",\"id\":1,\"parent\":0,"
                      "\"ch\":-1,\"start_ns\":1,\"end_ns\":2,"
                      "\"seq\":1,\"value\":0,\"name\":\"oops}"),
              1u);
    // Unknown record type.
    EXPECT_EQ(line_of("{\"type\":\"widget\",\"name\":\"x\"}"), 1u);

    // The error text carries the line number for humans too.
    try {
        static_cast<void>(telemetry::parse_trace_jsonl(good + "\nnope"));
        FAIL() << "expected TraceParseError";
    } catch (const telemetry::TraceParseError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }

    // And the good line alone still parses.
    EXPECT_NO_THROW(static_cast<void>(telemetry::parse_trace_jsonl(good)));
}

// ------------------------------------------------------- bench records

TEST(Exporters, BenchJsonRoundTripsAndCarriesQuantiles) {
    telemetry::MetricsRegistry registry;
    registry.counter("fxg_measurements_total").inc(5);
    registry.gauge("fxg_heading_deg").set(123.5);
    auto& h = registry.histogram("fxg_stage_settle_seconds", "s");
    for (const double x : {0.5, 1.5, 3.0, 9.0}) h.observe(x);

    const std::vector<telemetry::BenchRecord> records =
        telemetry::bench_json_records(registry);
    const auto find = [&](const std::string& name) -> const telemetry::BenchRecord* {
        for (const auto& r : records) {
            if (r.name == name) return &r;
        }
        return nullptr;
    };
    // Histograms flatten to _count/_sum/_mean plus the sentry quantiles.
    for (const char* suffix : {"_count", "_sum", "_mean", "_p50", "_p99", "_p999"}) {
        EXPECT_NE(find(std::string("fxg_stage_settle_seconds") + suffix), nullptr)
            << suffix;
    }
    EXPECT_DOUBLE_EQ(find("fxg_stage_settle_seconds_p50")->value, h.quantile(0.5));

    // Text → records → text is lossless (the bench_diff contract).
    const std::string text = telemetry::bench_json_text(records);
    const std::vector<telemetry::BenchRecord> reparsed =
        telemetry::parse_bench_json(text);
    ASSERT_EQ(reparsed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(reparsed[i].name, records[i].name);
        EXPECT_DOUBLE_EQ(reparsed[i].value, records[i].value);
        EXPECT_EQ(reparsed[i].unit, records[i].unit);
        EXPECT_EQ(reparsed[i].text, records[i].text);
    }

    // Malformed bench JSON names its line.
    try {
        static_cast<void>(telemetry::parse_bench_json("[\n{\"name\": 12}\n]\n"));
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }
}

}  // namespace
