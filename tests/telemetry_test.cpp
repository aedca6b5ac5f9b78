/// \file telemetry_test.cpp
/// The telemetry subsystem's contracts: manual span nesting and
/// ordering, histogram bucket math, the JSONL round trip, Prometheus
/// rendering, physics probes fed by a real measurement, fleet
/// aggregation from worker threads, the VCD bridge, and — the load-
/// bearing one — that attaching or detaching a sink never changes a
/// measurement's bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
    auto& h = registry.histogram("h", {1.0, 2.0, 4.0}, "s");
    // Edges are inclusive upper bounds; above the last edge -> overflow.
    for (const double x : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0}) h.observe(x);

    EXPECT_EQ(h.bucket_count(0), 2u);  // 0.5, 1.0
    EXPECT_EQ(h.bucket_count(1), 2u);  // 1.5, 2.0
    EXPECT_EQ(h.bucket_count(2), 2u);  // 3.0, 4.0
    EXPECT_EQ(h.bucket_count(3), 1u);  // 9.0 overflow
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(), 21.0);

    EXPECT_THROW(registry.histogram("bad", {2.0, 2.0}, ""), std::invalid_argument);
    // Same name, different kind: the registry refuses.
    EXPECT_THROW(registry.counter("h"), std::invalid_argument);
    // Same name, same kind: same instrument.
    EXPECT_EQ(&registry.histogram("h", {1.0}, "s"), &h);
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

    auto& latency = registry.histogram("fxg_measure_latency_seconds", {1.0});
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
    auto& h = registry.histogram("lat", {1.0, 2.0}, "s");
    h.observe(0.5);
    h.observe(1.5);
    h.observe(9.0);

    const std::string text = telemetry::prometheus_text(registry);
    EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
    EXPECT_NE(text.find("requests_total 3"), std::string::npos);
    EXPECT_NE(text.find("temp_c 21.5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
    // Cumulative: le="2" includes the le="1" observation.
    EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1"), std::string::npos);
    EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2"), std::string::npos);
    EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("lat_count 3"), std::string::npos);

    const std::string csv = telemetry::metrics_csv(registry);
    EXPECT_NE(csv.find("requests_total"), std::string::npos);
    EXPECT_NE(csv.find("lat_sum"), std::string::npos);

    const auto records = telemetry::bench_json_records(registry);
    const std::string json = telemetry::bench_json_text(records);
    EXPECT_NE(json.find("{\"name\":\"requests_total\",\"value\":3,"), std::string::npos);
    EXPECT_NE(json.find("lat_mean"), std::string::npos);
}

TEST(Exporters, PrometheusTextKeepsEachFamilyInOneGroup) {
    // Labelled series register lazily, so another instrument can land
    // between two series of one family (a fleet's per-member gauges
    // and the supervisor's event counters). The exposition format
    // wants the family's lines together under one TYPE line.
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
    EXPECT_EQ(registry.histogram("fxg_measure_latency_seconds", {1.0}).count(),
              static_cast<std::uint64_t>(kFleet));
    // Per-member latency gauges, stamped by member index.
    for (int i = 0; i < kFleet; ++i) {
        const std::string name =
            "fxg_member_latency_seconds{member=\"" + std::to_string(i) + "\"}";
        EXPECT_GT(registry.gauge(name).value(), 0.0) << name;
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

// ------------------------------------------------------------ quantiles

TEST(Metrics, QuantileOfEmptyHistogramIsZero) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("empty", {1.0, 2.0}, "s");
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Metrics, QuantileWithAllMassInOneBucketInterpolatesWithinIt) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("one_bucket", {1.0, 2.0, 4.0}, "s");
    for (int i = 0; i < 10; ++i) h.observe(1.5);  // all in (1, 2]

    // Every quantile lands inside the (1, 2] bucket, linearly.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
    EXPECT_GT(h.quantile(0.1), 1.0);
    EXPECT_LT(h.quantile(0.1), 1.5);
    // Out-of-range q is clamped, not UB.
    EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(Metrics, QuantileInOverflowBucketReturnsLastFiniteEdge) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("overflow", {1.0, 2.0}, "s");
    h.observe(0.5);
    for (int i = 0; i < 9; ++i) h.observe(100.0);  // 90% beyond the last edge

    // The overflow bucket has no upper edge to interpolate toward: the
    // honest answer is the last finite bound.
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
    // ...while the finite mass below still resolves normally.
    EXPECT_LE(h.quantile(0.05), 1.0);
}

TEST(Metrics, QuantileHitsExactBucketBoundaries) {
    telemetry::MetricsRegistry registry;
    auto& h = registry.histogram("edges", {1.0, 2.0, 4.0}, "s");
    h.observe(0.5);  // bucket 0: (min(0,1), 1]
    h.observe(1.5);  // bucket 1: (1, 2]
    h.observe(3.0);  // bucket 2: (2, 4]
    h.observe(9.0);  // overflow

    // q = k/4 exhausts exactly k observations: the cumulative count
    // meets the target right at each bucket's upper edge.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
    // The first bucket's lower edge is min(0, bounds[0]) = 0.
    EXPECT_GT(h.quantile(0.125), 0.0);
    EXPECT_LT(h.quantile(0.125), 1.0);
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
    auto& h = registry.histogram("fxg_stage_settle_seconds", {1.0, 2.0, 4.0}, "s");
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
