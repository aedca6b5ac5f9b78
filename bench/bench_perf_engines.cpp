/// \file bench_perf_engines.cpp
/// PERF — google-benchmark timings of the simulation substrates
/// themselves: the MNA transient engine, the event-driven digital
/// kernel (gate-level CORDIC), the behavioural sensor model and the
/// CORDIC unit. These are engineering metrics of the reproduction, not
/// paper results; they bound how fast the experiment suite can sweep.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "sim/engine.hpp"
#include "digital/cordic.hpp"
#include "digital/cordic_gate.hpp"
#include "magnetics/units.hpp"
#include "sensor/fluxgate.hpp"
#include "sensor/fluxgate_device.hpp"
#include "spice/analysis.hpp"
#include "spice/devices.hpp"
#include "sim/lane_engine.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/trace.hpp"
#include "util/simd.hpp"

using namespace fxg;

namespace {

void BM_SpiceRcTransient(benchmark::State& state) {
    for (auto _ : state) {
        spice::Circuit ckt;
        const int in = ckt.node("in");
        const int out = ckt.node("out");
        ckt.add<spice::VoltageSource>("v1", in, spice::kGround,
                                      std::make_unique<spice::SinWave>(0.0, 1.0, 1e4));
        ckt.add<spice::Resistor>("r1", in, out, 1e3);
        ckt.add<spice::Capacitor>("c1", out, spice::kGround, 10e-9);
        spice::TransientSpec spec;
        spec.tstop = 1e-3;
        spec.dt = 1e-6;
        spec.start_from_op = false;
        benchmark::DoNotOptimize(run_transient(ckt, spec));
    }
    state.SetItemsProcessed(state.iterations() * 1000);  // steps per run
}
BENCHMARK(BM_SpiceRcTransient)->Unit(benchmark::kMillisecond);

void BM_SpiceFluxgatePeriod(benchmark::State& state) {
    spice::Circuit ckt;
    const int ep = ckt.node("ep");
    const int pp = ckt.node("pp");
    ckt.add<spice::CurrentSource>(
        "iexc", spice::kGround, ep,
        std::make_unique<spice::TriangleWave>(0.0, 6e-3, 8000.0));
    ckt.add<sensor::FluxgateDevice>("xfg", ep, spice::kGround, pp, spice::kGround,
                                    sensor::FluxgateParams::design_target());
    ckt.add<spice::Resistor>("rload", pp, spice::kGround, 1e6);
    spice::TransientSpec spec;
    spec.tstop = 125e-6;
    spec.dt = 125e-6 / 1024;
    spec.method = spice::Method::BackwardEuler;
    spec.start_from_op = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_transient(ckt, spec));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SpiceFluxgatePeriod)->Unit(benchmark::kMillisecond);

void BM_BehaviouralSensorStep(benchmark::State& state) {
    sensor::FluxgateSensor fg(sensor::FluxgateParams::design_target());
    fg.set_external_field(15.0);
    double t = 0.0;
    const double dt = 125e-6 / 2048;
    for (auto _ : state) {
        t += dt;
        double phase = t * 8000.0;
        phase -= std::floor(phase);
        const double unit = phase < 0.25   ? 4.0 * phase
                            : phase < 0.75 ? 2.0 - 4.0 * phase
                                           : -4.0 + 4.0 * phase;
        benchmark::DoNotOptimize(fg.step(6e-3 * unit, dt));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BehaviouralSensorStep);

void BM_CordicHeading(benchmark::State& state) {
    const digital::CordicUnit unit(8, 7);
    std::int64_t x = 1997;
    std::int64_t y = -1234;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.heading_deg(x, y));
        x = (x * 31 + 7) % 4000 + 1;
        y = (y * 17 + 3) % 4000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CordicHeading);

void BM_GateLevelCordic(benchmark::State& state) {
    const digital::CordicNetlist unit = digital::build_cordic_netlist(12, 8, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(digital::simulate_cordic_netlist(unit, 523, 211));
    }
    state.SetItemsProcessed(state.iterations() * 9);  // clock cycles per op
}
BENCHMARK(BM_GateLevelCordic)->Unit(benchmark::kMillisecond);

void BM_FullCompassMeasurement(benchmark::State& state) {
    compass::Compass compass;
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    compass.set_environment(field, 123.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compass.measure());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullCompassMeasurement)->Unit(benchmark::kMillisecond);

// ---- simulation engines: scalar reference vs block stepping ----------
//
// Same measurement (paper design point), different engine underneath.
// items/sec = analogue samples/sec; the measurements/s counter is the
// end-to-end fix rate. The block engine is the bit-identical fast path,
// so block/scalar is the headline speedup of the sim layer.

void BM_CompassMeasureEngine(benchmark::State& state) {
    const auto kind = state.range(0) == 0 ? sim::EngineKind::Scalar
                                          : sim::EngineKind::Block;
    compass::CompassConfig cfg;
    cfg.engine = kind;
    compass::Compass compass(cfg);
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    compass.set_environment(field, 123.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compass.measure());
    }
    const double samples_per_measurement =
        2.0 * (cfg.settle_periods + cfg.periods_per_axis) * cfg.steps_per_period;
    state.SetItemsProcessed(static_cast<std::int64_t>(
        static_cast<double>(state.iterations()) * samples_per_measurement));
    state.counters["measurements/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
    state.SetLabel(sim::to_string(kind));
}
BENCHMARK(BM_CompassMeasureEngine)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- fleet throughput: N compasses per batch, optional thread pool --
//
// threads x kLaneGroupSize members (distinct headings), so every worker
// has at least one lane group to run. measurements/s should scale
// near-linearly with threads up to the core count; threads=1 is the
// serial baseline.

void BM_FleetMeasure(benchmark::State& state) {
    const int threads = static_cast<int>(state.range(0));
    const int fleet_n = threads * compass::CompassFleet::kLaneGroupSize;
    compass::CompassFleet fleet(fleet_n);
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    std::vector<double> headings;
    for (int i = 0; i < fleet_n; ++i) headings.push_back(i * 360.0 / fleet_n + 3.0);
    fleet.set_environments(field, headings);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.measure_all(threads));
    }
    state.SetItemsProcessed(state.iterations() * fleet_n);
    state.counters["measurements/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * fleet_n),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetMeasure)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- machine-readable summary: BENCH_perf.json ----------------------
//
// A second, self-timed pass over the headline engine/fleet workloads,
// instrumented through the telemetry metrics registry; the registry is
// then flattened into {name, value, unit} records. This keeps the JSON
// in lockstep with what the pipeline actually reports (latency
// histograms, raw counts, duty cycle) instead of duplicating timing
// code in the bench.

/// Mean of n + 1 measure()s (the first is a warm-up, counted) through
/// probes whose latency histogram is `latency` and holds nothing else.
double mean_latency_ms(compass::Compass& compass, telemetry::PhysicsProbes& probes,
                       const telemetry::Histogram& latency, int n) {
    compass.set_telemetry(&probes);
    for (int i = 0; i <= n; ++i) static_cast<void>(compass.measure());
    compass.set_telemetry(nullptr);
    return 1e3 * latency.sum() / static_cast<double>(latency.count());
}

/// Sets member i of `fleet` in `field` at heading i * 360 / size + 3.
void spread_headings(compass::CompassFleet& fleet, const magnetics::EarthField& field) {
    std::vector<double> headings;
    headings.reserve(static_cast<std::size_t>(fleet.size()));
    for (int i = 0; i < fleet.size(); ++i) headings.push_back(i * 360.0 / fleet.size() + 3.0);
    fleet.set_environments(field, headings);
}

/// Single-thread throughput [measurements/s] of `fleet`: one warm-up
/// sweep, then the median rate of `reps` timed sweeps.
double median_sweep_rate(compass::CompassFleet& fleet, int reps) {
    static_cast<void>(fleet.measure_all(1));  // warm-up
    std::vector<double> rates;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = telemetry::Clock::now();
        static_cast<void>(fleet.measure_all(1));
        const double elapsed =
            std::chrono::duration<double>(telemetry::Clock::now() - t0).count();
        rates.push_back(elapsed > 0.0 ? fleet.size() / elapsed : 0.0);
    }
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
}

/// Single-thread lane-engine throughput [measurements/s] of a fleet with
/// 0.25 mV pickup noise and one distinct noise key per member.
double noisy_lane_rate(int fleet_n, int reps, const magnetics::EarthField& field) {
    compass::CompassConfig cfg;
    cfg.front_end.pickup_noise_rms_v = 0.25e-3;
    compass::CompassFleet fleet(fleet_n, cfg);
    spread_headings(fleet, field);
    for (int i = 0; i < fleet_n; ++i) {
        fleet.at(i).front_end().pickup_noise().rng().engine().seed(
            static_cast<std::uint64_t>(i) + 1);
    }
    return median_sweep_rate(fleet, reps);
}

/// Single-thread lane-engine throughput [measurements/s] of a default
/// fleet whose member i first runs ahead(i) measurements alone: members
/// at distinct offsets are distinct cohorts, and a lane group runs one
/// excitation pass per cohort it holds (DESIGN.md section 12).
double diverged_lane_rate(int fleet_n, int reps, const magnetics::EarthField& field,
                          int (*ahead)(int)) {
    compass::CompassFleet fleet(fleet_n);
    spread_headings(fleet, field);
    for (int i = 0; i < fleet_n; ++i) {
        for (int k = 0; k < ahead(i); ++k) static_cast<void>(fleet.at(i).measure());
    }
    return median_sweep_rate(fleet, reps);
}

/// The measure-latency histogram of one population of measurements.
std::string latency_name(const std::string& population) {
    return "fxg_measure_latency_" + population + "_seconds";
}

void write_perf_json(bool large) {
    telemetry::MetricsRegistry registry;
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    constexpr int kReps = 20;

    // Scalar measure()s, block measure()s and fleet-member samples each
    // get their own probes and so their own latency histogram: pooled,
    // the p50 would switch population as the host's load changed. The
    // probes share every other instrument by name.
    double engine_ms[2] = {0.0, 0.0};
    for (const auto kind : {sim::EngineKind::Scalar, sim::EngineKind::Block}) {
        compass::CompassConfig cfg;
        cfg.engine = kind;
        compass::Compass compass(cfg);
        compass.set_environment(field, 123.0);
        const std::string name = latency_name(sim::to_string(kind));
        telemetry::PhysicsProbes probes(registry, name);
        const double ms =
            mean_latency_ms(compass, probes, registry.histogram(name), kReps);
        engine_ms[kind == sim::EngineKind::Block ? 1 : 0] = ms;
        registry
            .gauge(std::string("fxg_measure_") + sim::to_string(kind) + "_ms", "ms")
            .set(ms);
    }
    if (engine_ms[1] > 0.0) {
        registry.gauge("fxg_engine_speedup_block_over_scalar", "x")
            .set(engine_ms[0] / engine_ms[1]);
    }

    // Fleet throughput at full hardware concurrency, at both ends of the
    // batch-size range: N=8 is dominated by dispatch overhead (where the
    // persistent TaskPool earns its keep vs per-batch threads), N=64 by
    // the simulation itself. The small fleet's samples feed its own
    // latency histogram (fleet8).
    double fleet_meas_per_s = 0.0;
    telemetry::PhysicsProbes fleet_probes(registry, latency_name("fleet8"));
    for (const int fleet_n : {8, 64}) {
        compass::CompassFleet fleet(fleet_n);
        std::vector<double> headings;
        for (int i = 0; i < fleet_n; ++i) headings.push_back(i * 45.0 + 3.0);
        fleet.set_environments(field, headings);
        if (fleet_n == 8) fleet.set_telemetry(&fleet_probes);
        static_cast<void>(fleet.measure_all(0));  // warm-up
        const auto t0 = telemetry::Clock::now();
        const int reps = fleet_n <= 8 ? 5 : 2;
        for (int r = 0; r < reps; ++r) static_cast<void>(fleet.measure_all(0));
        const double elapsed =
            std::chrono::duration<double>(telemetry::Clock::now() - t0).count();
        fleet.set_telemetry(nullptr);
        const double rate = reps * fleet_n / elapsed;
        registry
            .gauge("fxg_fleet_n" + std::to_string(fleet_n) + "_measurements_per_s",
                   "1/s")
            .set(rate);
        if (fleet_n == 8) {
            fleet_meas_per_s = rate;  // historic headline gauge: the N=8 batch
            registry.gauge("fxg_fleet_measurements_per_s", "1/s").set(rate);
        }
    }

    // Lane engine vs block engine at fleet scale, equal thread count
    // (one): the block fleet is pinned PerMember (one block-engine plan
    // execution per member, the previous production path), the lane
    // fleet keeps Auto (SoA lane groups through run_lanes). n=1k is
    // small enough that gather/scatter overhead still shows; n=64k is
    // simulation-bound. The speedup gauges are the headline acceptance
    // numbers of the lane engine.
    registry.gauge("fxg_simd_lanes_per_stripe", "lanes")
        .set(static_cast<double>(sim::LaneEngine::lanes_per_stripe()));
    double lane_rate[2] = {0.0, 0.0};  // n=1k, n=64k
    for (const int n : {1000, 64000}) {
        const int reps = n <= 1000 ? 5 : 1;
        const auto rate = [&](compass::FleetExecution exec) {
            compass::CompassFleet fleet(n);
            fleet.set_execution(exec);
            spread_headings(fleet, field);
            return median_sweep_rate(fleet, reps);
        };
        const double block = rate(compass::FleetExecution::PerMember);
        const double lane = rate(compass::FleetExecution::Auto);
        const std::string tag = "_n" + std::to_string(n);
        registry.gauge("fxg_fleet_block" + tag + "_measurements_per_s", "1/s")
            .set(block);
        registry.gauge("fxg_fleet_lane" + tag + "_measurements_per_s", "1/s")
            .set(lane);
        registry.gauge("fxg_lane_speedup_over_block" + tag, "x")
            .set(block > 0.0 ? lane / block : 0.0);
        std::printf("fleet n=%d [%s]: block %.1f meas/s, lane %.1f meas/s (%.2fx)\n",
                    n, sim::LaneEngine::backend_name(), block, lane,
                    block > 0.0 ? lane / block : 0.0);
        lane_rate[n == 1000 ? 0 : 1] = lane;
    }
    // Per-member lane cost should not grow with the fleet: n=64k over
    // n=1k throughput, targeted at >= 0.9.
    const double scaling = lane_rate[0] > 0.0 ? lane_rate[1] / lane_rate[0] : 0.0;
    registry.gauge("fxg_lane_scaling_n64000_over_n1000", "x").set(scaling);
    std::printf("lane scaling n=64000 / n=1000: %.2f\n", scaling);
    // The noise path of the lane kernel (counter-based draws through
    // vgauss): without this record a return to per-lane scalar noise
    // would pass the bench_diff gate.
    {
        const double lane = noisy_lane_rate(1000, 3, field);
        registry.gauge("fxg_fleet_lane_noisy_n1000_measurements_per_s", "1/s").set(lane);
        std::printf("fleet n=1000 noisy [%s]: lane %.1f meas/s\n",
                    sim::LaneEngine::backend_name(), lane);
    }
    // Lane groups of several cohorts: one member in 16 one measurement
    // ahead, and member i (i mod 16) measurements ahead, so a 16-lane
    // group holds 16 cohorts. Reported, not gated.
    {
        const double one = diverged_lane_rate(256, 3, field,
                                              [](int i) { return i % 16 == 0 ? 1 : 0; });
        const double all = diverged_lane_rate(256, 3, field, [](int i) { return i % 16; });
        registry.gauge("fxg_fleet_lane_one_ahead_n256_measurements_per_s", "1/s").set(one);
        registry.gauge("fxg_fleet_lane_staggered_n256_measurements_per_s", "1/s").set(all);
        std::printf("fleet n=256 diverged [%s]: lane %.1f meas/s (one in 16 ahead), "
                    "%.1f meas/s (member i i mod 16 ahead)\n",
                    sim::LaneEngine::backend_name(), one, all);
    }
    if (large) {
        // One-million-member lane-only gauge (a warm-up and a timed
        // sweep, several minutes of simulation): opt-in via --large,
        // excluded from routine runs.
        compass::CompassFleet fleet(1000000);
        spread_headings(fleet, field);
        const double lane = median_sweep_rate(fleet, 1);
        registry.gauge("fxg_fleet_lane_n1000000_measurements_per_s", "1/s")
            .set(lane);
        std::printf("fleet n=1000000 [%s]: lane %.1f meas/s\n",
                    sim::LaneEngine::backend_name(), lane);
    }

    // Per-plan-stage latency: trace a batch of measurements and fold
    // every span's wall-clock duration into a per-stage histogram
    // (fxg_stage_<name>_seconds). bench_json_records flattens each into
    // _count/_sum/_mean plus the _p50/_p99/_p999 quantiles — the
    // per-stage trajectory bench_diff guards against regression.
    {
        compass::Compass compass;
        compass.set_environment(field, 123.0);
        telemetry::TraceSession trace;
        compass.set_telemetry(&trace);
        for (int i = 0; i < kReps; ++i) static_cast<void>(compass.measure());
        compass.set_telemetry(nullptr);
        for (const telemetry::SpanRecord& s : trace.spans()) {
            std::string stage(s.name);
            for (char& c : stage) {
                if (c == '.') c = '_';
            }
            registry
                .histogram("fxg_stage_" + stage + "_seconds", "s")
                .observe(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
        }
    }

    telemetry::write_bench_json("BENCH_perf.json",
                                telemetry::bench_json_records(registry));
    std::printf("\nscalar %.3f ms, block %.3f ms (%.2fx), fleet(n=8) %.1f meas/s\n",
                engine_ms[0], engine_ms[1],
                engine_ms[1] > 0.0 ? engine_ms[0] / engine_ms[1] : 0.0,
                fleet_meas_per_s);
    std::puts("wrote BENCH_perf.json");
}

}  // namespace

int main(int argc, char** argv) {
    // --large opts into the n=1M lane gauge; strip it before the
    // benchmark library sees (and rejects) it.
    bool large = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--large") == 0) {
            large = true;
            for (int j = i; j < argc - 1; ++j) argv[j] = argv[j + 1];
            --argc;
            --i;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    write_perf_json(large);
    return 0;
}
