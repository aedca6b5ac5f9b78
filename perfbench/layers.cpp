/// \file layers.cpp
/// The traced run: per-layer metrics measured from outside. Every probe
/// times calls into one module's public functions on a small replica,
/// each call wrapped in a span of one telemetry::TraceSession, and every
/// metric is computed from the recorded span durations. A fixed cost is
/// the fastest of its repeats (outside load on the host only adds time);
/// service figures are means and medians over their phase. The probe
/// suite is the same whichever workload is named; README.md lists, per
/// metric, the end-to-end metric it should move and on which workload.

#include <algorithm>
#include <cstring>
#include <thread>

#include "common.hpp"
#include "core/compass_fleet.hpp"
#include "digital/cordic.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "loadgen.hpp"
#include "sim/engine.hpp"
#include "snapshot/state.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

using fxg::compass::Compass;
using fxg::compass::CompassConfig;
using fxg::compass::CompassFleet;
using fxg::compass::LaneOutcome;
using fxg::compass::PlanExecutor;
using fxg::telemetry::TraceSession;

constexpr int kGroup = CompassFleet::kLaneGroupSize;

/// Runs fn inside a span `name`.
template <class F>
void traced(TraceSession& tr, const char* name, F&& fn) {
    const fxg::telemetry::Span span(&tr, name);
    fn();
}

/// Durations [s] of the spans called `name`, among the spans recorded
/// after the first `from`.
std::vector<double> span_seconds(const TraceSession& tr, const char* name, std::size_t from) {
    std::vector<double> d;
    const std::vector<fxg::telemetry::SpanRecord> spans = tr.spans();
    for (std::size_t i = from; i < spans.size(); ++i) {
        if (std::strcmp(spans[i].name, name) == 0) {
            d.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9);
        }
    }
    return d;
}

/// Calls fn inside a span `name` until `seconds` have passed and at
/// least `min_reps` calls were made; returns the span durations [s].
template <class F>
std::vector<double> repeat(TraceSession& tr, const char* name, double seconds, int min_reps,
                           F&& fn) {
    const std::size_t from = tr.span_count();
    const Clock::time_point start = Clock::now();
    for (int reps = 0; reps < min_reps || seconds_since(start) < seconds; ++reps) {
        traced(tr, name, fn);
    }
    return span_seconds(tr, name, from);
}

/// Seeded environments for a replica fleet.
void place(CompassFleet& fleet, SeededRng& rng) {
    for (int i = 0; i < fleet.size(); ++i) apply_environment(fleet.at(i), draw_environment(rng));
}

/// Settle periods scale with the count periods so both lane-fit points
/// mix settle and count samples in the same proportion.
CompassConfig config_with(int periods_per_axis, double pickup_noise_v) {
    CompassConfig c;
    c.periods_per_axis = periods_per_axis;
    c.settle_periods = std::max(1, periods_per_axis / 4);
    c.front_end.pickup_noise_rms_v = pickup_noise_v;
    return c;
}

/// One lane group run through PlanExecutor::run_lanes.
struct LaneGroup {
    CompassFleet fleet;
    std::vector<Compass*> lanes;
    std::vector<LaneOutcome> outcomes;

    LaneGroup(const CompassConfig& cfg, SeededRng& rng) : fleet(kGroup, cfg), outcomes(kGroup) {
        place(fleet, rng);
        for (int i = 0; i < kGroup; ++i) lanes.push_back(&fleet.at(i));
    }
    void run() { PlanExecutor::run_lanes(fleet.plan(), lanes, outcomes); }
    [[nodiscard]] bool all_ok() const {
        return std::none_of(outcomes.begin(), outcomes.end(),
                            [](const LaneOutcome& o) { return o.aborted; });
    }
};

/// Fastest run_lanes time [s] of one group and its samples per member.
struct LanePoint {
    double seconds;
    double samples_per_member;
};

/// Two lane groups timed alternately, so both fit points see the same
/// host conditions.
std::pair<LanePoint, LanePoint> lane_points(TraceSession& tr, Result& r, const CompassConfig& a_cfg,
                                            const CompassConfig& b_cfg, SeededRng& rng,
                                            double budget_s) {
    LaneGroup a(a_cfg, rng);
    LaneGroup b(b_cfg, rng);
    a.run();  // warm-up
    b.run();
    const std::size_t from = tr.span_count();
    const Clock::time_point start = Clock::now();
    for (int reps = 0; reps < 5 || seconds_since(start) < budget_s; ++reps) {
        traced(tr, "core.plan.run_lanes[short]", [&] { a.run(); });
        traced(tr, "core.plan.run_lanes[long]", [&] { b.run(); });
    }
    r.check(a.all_ok() && b.all_ok(), "run_lanes lanes completed");
    return {{fastest(span_seconds(tr, "core.plan.run_lanes[short]", from)),
             static_cast<double>(a.fleet.plan().total_steps())},
            {fastest(span_seconds(tr, "core.plan.run_lanes[long]", from)),
             static_cast<double>(b.fleet.plan().total_steps())}};
}

/// Slope [ns per member-sample] and intercept [us per lane] of run_lanes
/// time against count length, from two periods_per_axis.
std::pair<double, double> lane_fit(const LanePoint& a, const LanePoint& b) {
    const double slope_s = (b.seconds - a.seconds) / ((b.samples_per_member - a.samples_per_member) * kGroup);
    const double fixed_s = (a.seconds - slope_s * a.samples_per_member * kGroup) / kGroup;
    return {slope_s * 1e9, fixed_s * 1e6};
}

/// Sum and count of the service's admission -> ready histogram.
std::pair<double, double> server_latency(fxg::service::CompassService& service) {
    for (const auto& entry : service.metrics().entries()) {
        if (entry.name == "fxg_service_latency_seconds" && entry.histogram != nullptr) {
            return {entry.histogram->sum(), static_cast<double>(entry.histogram->count())};
        }
    }
    throw std::runtime_error("service latency histogram not registered");
}

}  // namespace

Result run_layers(const Options& opt, TraceSession& tr) {
    Result r;
    SeededRng rng(opt.seed);
    const double b = opt.seconds;  // budget, shared out by weight below
    const int cpus = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const CompassConfig clean;

    // core: plan compile.
    {
        std::size_t stages = 0;
        const auto d = repeat(tr, "core.plan.compile_plan[x64]", 0.03 * b, 5, [&] {
            for (int i = 0; i < 64; ++i) stages += fxg::compass::compile_plan(clean).stages.size();
        });
        r.check(stages > 0, "compile_plan produced stages");
        r.add("core.plan.compile_us", fastest(d) / 64 * 1e6, "us");
    }

    // digital: CORDIC heading over seeded counter pairs.
    {
        const fxg::digital::CordicUnit unit;
        std::vector<std::pair<std::int64_t, std::int64_t>> xy(4096);
        for (auto& p : xy) {
            p = {static_cast<std::int64_t>(rng.uniform(-30000.0, 30000.0)),
                 static_cast<std::int64_t>(rng.uniform(-30000.0, 30000.0))};
        }
        double sum = 0.0;
        const auto d = repeat(tr, "digital.cordic.heading_deg[x4096]", 0.02 * b, 5, [&] {
            for (const auto& [x, y] : xy) sum += unit.heading_deg(x, y);
        });
        r.check(sum > 0.0, "CORDIC headings computed");
        r.add("digital.cordic.ns_per_heading", fastest(d) / xy.size() * 1e9, "ns");
    }

    // sim: block engine advance over eight excitation periods.
    {
        Compass c;
        apply_environment(c, draw_environment(rng));
        c.front_end().enable(true);
        fxg::digital::UpDownCounter counter;
        fxg::sim::BlockEngine engine;
        const int steps = 8 * c.plan().steps_per_period;
        double energy = 0.0;
        const auto d = repeat(tr, "sim.block.advance", 0.06 * b, 5, [&] {
            engine.advance(c.front_end(), fxg::analog::Channel::X, steps, c.plan().dt_s,
                           &counter, energy);
        });
        r.check(energy > 0.0, "block engine burned energy");
        r.add("sim.block.ns_per_sample", fastest(d) / steps * 1e9, "ns");
    }

    // sim: lane kernel slope and intercept, clean and with pickup noise.
    {
        const auto [c4, c16] =
            lane_points(tr, r, config_with(4, 0.0), config_with(16, 0.0), rng, 0.10 * b);
        const auto [n4, n16] = lane_points(tr, r, config_with(4, 0.25e-3),
                                           config_with(16, 0.25e-3), rng, 0.12 * b);
        LaneGroup dflt(clean, rng);
        dflt.run();  // warm-up
        const double dflt_s = fastest(repeat(tr, "core.plan.run_lanes", 0.05 * b, 5, [&] { dflt.run(); }));
        r.check(dflt.all_ok(), "run_lanes lanes completed");
        const auto [clean_ns, fixed_us] = lane_fit(c4, c16);
        const double noisy_ns = lane_fit(n4, n16).first;
        r.add("sim.lane.ns_per_member_sample", clean_ns, "ns");
        r.add("sim.lane.fixed_us_per_lane", fixed_us, "us");
        r.add("sim.lane.noise_ns_per_member_sample", noisy_ns - clean_ns, "ns");
        r.add("core.plan.run_lanes_ms_per_group", dflt_s * 1e3, "ms");
    }

    // core: plan stage times from the compass's own stage spans, which
    // nest under each probe span when the session is its telemetry sink.
    {
        Compass c;
        apply_environment(c, draw_environment(rng));
        c.set_telemetry(&tr);
        const std::size_t from = tr.span_count();
        repeat(tr, "core.compass.measure", 0.06 * b, 5, [&] { static_cast<void>(c.measure()); });
        c.set_telemetry(nullptr);
        std::vector<double> settle_us, count_us, cordic_us;
        const std::vector<fxg::telemetry::SpanRecord> spans = tr.spans();
        for (std::size_t i = from; i < spans.size(); ++i) {
            const auto& s = spans[i];
            const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
            if (std::strcmp(s.name, "core.compass.measure") == 0) {
                settle_us.push_back(0.0);
                count_us.push_back(0.0);
                cordic_us.push_back(0.0);
            } else if (std::strcmp(s.name, "settle") == 0) {
                settle_us.back() += us;
            } else if (std::strcmp(s.name, "count") == 0) {
                count_us.back() += us;
            } else if (std::strcmp(s.name, "cordic") == 0) {
                cordic_us.back() += us;
            }
        }
        r.add("core.compass.stage_settle_us", fastest(settle_us), "us");
        r.add("core.compass.stage_count_us", fastest(count_us), "us");
        r.add("core.compass.stage_cordic_us", fastest(cordic_us), "us");
    }

    // core: fleet sweeps. dispatch_share compares a sweep with the same
    // groups run through run_lanes directly, interleaved.
    {
        CompassFleet f16(kGroup, clean);
        place(f16, rng);
        static_cast<void>(f16.measure_all_results(1));
        const auto d16 = repeat(tr, "core.fleet.measure_all_results[16]", 0.04 * b, 5,
                                [&] { static_cast<void>(f16.measure_all_results(1)); });
        r.add("core.fleet.sweep16_ms", fastest(d16) * 1e3, "ms");

        const int groups = 4;
        CompassFleet f(groups * kGroup, clean);
        place(f, rng);
        std::vector<std::vector<Compass*>> lanes(groups);
        for (int i = 0; i < f.size(); ++i) lanes[static_cast<std::size_t>(i / kGroup)].push_back(&f.at(i));
        std::vector<LaneOutcome> outcomes(kGroup);
        static_cast<void>(f.measure_all_results(1));
        bool ok = true;
        const std::size_t from = tr.span_count();
        const Clock::time_point start = Clock::now();
        for (int reps = 0; reps < 5 || seconds_since(start) < 0.08 * b; ++reps) {
            traced(tr, "core.fleet.measure_all_results[64]", [&] {
                for (const auto& res : f.measure_all_results(1)) ok = ok && res.ok;
            });
            traced(tr, "core.plan.run_lanes[4 groups]", [&] {
                for (const auto& g : lanes) {
                    traced(tr, "core.plan.run_lanes",
                           [&] { PlanExecutor::run_lanes(f.plan(), g, outcomes); });
                }
            });
        }
        r.check(ok, "fleet sweeps completed");
        r.add("core.fleet.dispatch_share",
              1.0 - fastest(span_seconds(tr, "core.plan.run_lanes[4 groups]", from)) /
                        fastest(span_seconds(tr, "core.fleet.measure_all_results[64]", from)),
              "ratio");
    }

    // util: pool dispatch cost and thread scaling of a warmed fleet.
    {
        fxg::util::TaskPool pool(cpus);
        const auto noop = [](int) {};
        for (int i = 0; i < 50; ++i) pool.parallel_for(cpus, cpus, noop);
        const auto d = repeat(tr, "util.pool.parallel_for[x100]", 0.03 * b, 5, [&] {
            for (int i = 0; i < 100; ++i) pool.parallel_for(cpus, cpus, noop);
        });
        r.add("util.pool.parallel_for_us", fastest(d) / 100 * 1e6, "us");

        CompassFleet f(2 * cpus * kGroup, clean);
        place(f, rng);
        static_cast<void>(f.measure_all_results(1));
        static_cast<void>(f.measure_all_results(cpus));
        const std::size_t from = tr.span_count();
        const Clock::time_point start = Clock::now();
        for (int reps = 0; reps < 3 || seconds_since(start) < 0.08 * b; ++reps) {
            traced(tr, "core.fleet.measure_all_results[1 thread]",
                   [&] { static_cast<void>(f.measure_all_results(1)); });
            traced(tr, "core.fleet.measure_all_results[nproc threads]",
                   [&] { static_cast<void>(f.measure_all_results(cpus)); });
        }
        r.add("util.pool.scaling_x",
              fastest(span_seconds(tr, "core.fleet.measure_all_results[1 thread]", from)) /
                  fastest(span_seconds(tr, "core.fleet.measure_all_results[nproc threads]", from)),
              "x");
    }

    // snapshot: encode and decode of a swept noisy replica fleet.
    {
        const int n = 4 * kGroup;
        CompassFleet f(n, config_with(8, 0.25e-3));
        CompassFleet twin(n, config_with(8, 0.25e-3));
        place(f, rng);
        static_cast<void>(f.measure_all_results(1));
        std::vector<std::uint8_t> snap;
        const std::size_t from = tr.span_count();
        const Clock::time_point start = Clock::now();
        for (int reps = 0; reps < 3 || seconds_since(start) < 0.06 * b; ++reps) {
            traced(tr, "snapshot.snapshot_fleet", [&] { snap = fxg::snapshot::snapshot_fleet(f); });
            traced(tr, "snapshot.restore_fleet", [&] { fxg::snapshot::restore_fleet(snap, twin); });
        }
        r.check(fxg::snapshot::snapshot_fleet(twin) == snap, "restored fleet re-encodes identically");
        r.add("snapshot.encode_us_per_member",
              fastest(span_seconds(tr, "snapshot.snapshot_fleet", from)) / n * 1e6, "us");
        r.add("snapshot.decode_us_per_member",
              fastest(span_seconds(tr, "snapshot.restore_fleet", from)) / n * 1e6, "us");
    }

    // fault: one supervisor ladder on a compass whose x detector is stuck
    // low after a healthy anchor measurement (the daemon's faulted member).
    {
        Compass c;
        apply_environment(c, draw_environment(rng));
        fxg::fault::MeasurementSupervisor sup(c);
        static_cast<void>(sup.measure());
        fxg::fault::FaultInjector injector;
        fxg::fault::FaultSpec spec;
        spec.fault = fxg::fault::FaultClass::DetectorStuckLow;
        spec.channel = fxg::analog::Channel::X;
        injector.add(spec);
        injector.arm(c);
        bool served = true;
        const auto d = repeat(tr, "fault.supervisor.measure", 0.05 * b, 5, [&] {
            served = served && sup.measure().status != fxg::fault::SupervisedStatus::Failed;
        });
        injector.disarm();
        r.check(served, "faulted supervisor served a heading");
        r.add("fault.ladder_ms", fastest(d) * 1e3, "ms");
    }

    // service: the daemon replica at light load (batching, server and io
    // split, faulted-member latency), then heavy load (generator lateness).
    {
        const std::vector<Environment> envs = service_environments();
        ServiceRig rig(envs);
        fxg::service::CompassService& service = rig.service();
        const auto s0 = service.stats();
        const auto h0 = server_latency(service);
        LoadRun light;
        traced(tr, "service.open_loop[light]", [&] {
            light = run_open_loop(service.port(),
                                  poisson_schedule(rng, kLightLoadPerS, 0.16 * b));
        });
        const auto s1 = service.stats();
        const auto h1 = server_latency(service);
        LoadRun heavy;
        traced(tr, "service.open_loop[heavy]", [&] {
            heavy = run_open_loop(service.port(),
                                  poisson_schedule(rng, kHeavyLoadPerS, 0.05 * b));
        });

        std::vector<double> client_ms, degraded_ms, late_ms;
        for (const LoadRun* run : {&light, &heavy}) {
            for (const Query& q : run->queries) {
                r.check(q.done_s >= 0.0 && q.reply.member < envs.size() &&
                            (q.reply.status == fxg::service::ReplyStatus::Ok ||
                             q.reply.member == ServiceRig::kFaultedMember),
                        "service probe reply");
                if (q.done_s < 0.0) continue;
                late_ms.push_back((q.sent_s - q.due_s) * 1e3);
                if (run != &light) continue;
                client_ms.push_back((q.done_s - q.sent_s) * 1e3);
                if (q.reply.member == ServiceRig::kFaultedMember) {
                    degraded_ms.push_back((q.done_s - q.due_s) * 1e3);
                }
            }
        }
        const double batch_mean = static_cast<double>(s1.requests - s0.requests) /
                                  static_cast<double>(std::max<std::uint64_t>(1, s1.batches - s0.batches));
        const double server_ms = (h1.first - h0.first) / std::max(1.0, h1.second - h0.second) * 1e3;
        r.add("service.batch_mean", batch_mean, "count");
        r.add("service.useful_sweep_ratio",
              std::min(batch_mean, static_cast<double>(ServiceRig::kMembers)) / ServiceRig::kMembers,
              "ratio");
        r.add("service.server_ms_mean", server_ms, "ms");
        r.add("service.io_ms_mean", mean(client_ms) - server_ms, "ms");
        r.add("service.degraded_ms_p50", median(degraded_ms), "ms");
        r.add("loadgen.late_ms_p99", quantile(late_ms, 0.99), "ms");
    }

    // Tracing's own cost, traced minus untraced, each the fastest of
    // alternating repeats: a span around single CORDIC headings, and a
    // span around the short lane-fit point (one run_lanes call).
    {
        const fxg::digital::CordicUnit unit;
        constexpr int kCalls = 1024;
        double sum = 0.0;
        std::vector<double> bare_s, spanned_s;
        for (int reps = 0; reps < 20; ++reps) {
            Clock::time_point t = Clock::now();
            for (int i = 0; i < kCalls; ++i) sum += unit.heading_deg(1000 + i, 2000);
            bare_s.push_back(seconds_since(t));
            t = Clock::now();
            for (int i = 0; i < kCalls; ++i) {
                traced(tr, "trace.cordic", [&] { sum += unit.heading_deg(1000 + i, 2000); });
            }
            spanned_s.push_back(seconds_since(t));
        }
        r.check(sum > 0.0, "CORDIC headings computed");
        r.add("trace.overhead_ns_per_span", (fastest(spanned_s) - fastest(bare_s)) / kCalls * 1e9,
              "ns");

        LaneGroup g(config_with(4, 0.0), rng);
        g.run();  // warm-up
        bare_s.clear();
        spanned_s.clear();
        const Clock::time_point start = Clock::now();
        for (int reps = 0; reps < 5 || seconds_since(start) < 0.03 * b; ++reps) {
            Clock::time_point t = Clock::now();
            g.run();
            bare_s.push_back(seconds_since(t));
            t = Clock::now();
            traced(tr, "core.plan.run_lanes[short]", [&] { g.run(); });
            spanned_s.push_back(seconds_since(t));
        }
        r.check(g.all_ok(), "run_lanes lanes completed");
        r.add("trace.overhead_pct", 100.0 * (fastest(spanned_s) / fastest(bare_s) - 1.0), "%");
    }
    return r;
}

}  // namespace perfbench
