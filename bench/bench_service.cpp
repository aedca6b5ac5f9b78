/// \file bench_service.cpp
/// Load generator for compassd (DESIGN.md §16): drives an in-process
/// CompassService with open-loop Poisson arrivals at two offered-load
/// points (light: well under batch capacity; heavy: near saturation,
/// where coalescing and admission control do the work), while a chaos
/// thread connects, fires queries and slams its connections shut
/// mid-stream, and one fleet member serves with a DetectorStuckLow
/// fault armed (after the service's warmup pass, so the degradation
/// ladder has its last-good anchor).
///
/// Open-loop means arrival times are drawn up front from a seeded
/// exponential inter-arrival process and never gated on completions;
/// each worker owns one persistent connection and sends at its assigned
/// instants (a worker whose previous query is still in flight sends
/// late — with enough workers per offered load this stays rare, and the
/// lateness is *recorded* as latency, not hidden).
///
/// Reported per load point, via a telemetry::MetricsRegistry flattened
/// into BENCH_service.json: latency p50/p99/p999 (client-observed,
/// send -> reply) over every reply and over Ok replies alone, goodput
/// (Ok + Degraded replies per second — Shed is not goodput), and
/// shed/degraded counts. The bench FAILS (non-zero
/// exit) if the daemon stops running, any client sees a protocol
/// error, the faulted member is never served degraded, or goodput is
/// zero at either load point — the "survives load + chaos + faults"
/// acceptance gate, not just a stopwatch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_injector.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "service/client.hpp"
#include "service/compassd.hpp"
#include "telemetry/exporters.hpp"

using namespace fxg;
using Clock = std::chrono::steady_clock;

namespace {

struct LoadPoint {
    const char* name;       ///< suffix for metric names
    double offered_per_s;   ///< Poisson arrival rate
    double duration_s;
    int workers;            ///< persistent connections serving arrivals
};

struct LoadResult {
    std::uint64_t ok = 0;
    std::uint64_t degraded = 0;  ///< Degraded + Stale replies
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;    ///< Error replies + transport failures
    double elapsed_s = 0.0;
};

/// Runs one offered-load point against the service, recording client-
/// observed latency into `latency` and, for Ok replies only, into
/// `ok_latency` (seconds).
LoadResult run_load(int port, const LoadPoint& point,
                    telemetry::Histogram& latency,
                    telemetry::Histogram& ok_latency) {
    // Arrival schedule, drawn up front (seeded: the offered load is
    // part of the bench's identity, not a run-to-run variable).
    std::mt19937_64 rng(0xC0FFEEu ^ static_cast<std::uint64_t>(point.workers));
    std::exponential_distribution<double> interarrival(point.offered_per_s);
    std::vector<std::vector<double>> schedule(
        static_cast<std::size_t>(point.workers));
    std::size_t total = 0;
    for (double t = interarrival(rng); t < point.duration_s;
         t += interarrival(rng)) {
        schedule[total % schedule.size()].push_back(t);
        ++total;
    }

    std::atomic<std::uint64_t> ok{0}, degraded{0}, shed{0}, errors{0};
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(schedule.size());
    for (std::size_t w = 0; w < schedule.size(); ++w) {
        workers.emplace_back([&, w] {
            try {
                service::QueryClient client(port);
                std::uint64_t id = (w << 32) + 1;
                for (const double t : schedule[w]) {
                    std::this_thread::sleep_until(
                        start + std::chrono::duration<double>(t));
                    const Clock::time_point t0 = Clock::now();
                    const service::HeadingReply reply = client.query(id++);
                    const double seconds =
                        std::chrono::duration<double>(Clock::now() - t0).count();
                    latency.observe(seconds);
                    switch (reply.status) {
                        case service::ReplyStatus::Ok:
                            ok_latency.observe(seconds);
                            ++ok;
                            break;
                        case service::ReplyStatus::Degraded:
                        case service::ReplyStatus::Stale: ++degraded; break;
                        case service::ReplyStatus::Shed: ++shed; break;
                        case service::ReplyStatus::Error: ++errors; break;
                    }
                }
            } catch (const std::exception&) {
                ++errors;  // transport/protocol failure kills this worker
            }
        });
    }
    for (std::thread& t : workers) t.join();

    LoadResult r;
    r.ok = ok.load();
    r.degraded = degraded.load();
    r.shed = shed.load();
    r.errors = errors.load();
    r.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
    return r;
}

}  // namespace

int main() {
    std::puts("=== compassd load generator: Poisson sweep + chaos ===\n");

    service::ServiceConfig cfg;
    cfg.members = 8;
    cfg.max_connections = 128;
    cfg.max_pending = 256;
    service::CompassService service(cfg);

    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    for (int i = 0; i < cfg.members; ++i) {
        service.fleet().set_environment(i, field, 45.0 * i);
    }
    service.start();  // includes the warmup pass (last-good anchors)

    // Member 0 loses its x-axis detector AFTER warmup: every query it
    // serves from here on must come back marked Degraded (single-axis
    // reconstruction), never as an error.
    fault::FaultInjector injector;
    fault::FaultSpec spec;
    spec.fault = fault::FaultClass::DetectorStuckLow;
    spec.channel = analog::Channel::X;
    injector.add(spec);
    injector.arm(service.fleet().at(0));

    // Chaos: connections that appear, fire, and vanish mid-stream —
    // the daemon must shrug (MSG_NOSIGNAL + per-connection cleanup).
    std::atomic<bool> chaos_stop{false};
    std::atomic<std::uint64_t> chaos_conns{0};
    std::thread chaos([&] {
        std::uint64_t id = 1;
        while (!chaos_stop.load()) {
            try {
                service::QueryClient victim(service.port());
                victim.send(id++);
                // Slam shut without reading the reply: the server is
                // now (or soon) writing into a dead socket.
                victim.close();
                ++chaos_conns;
            } catch (const std::exception&) {
                // Connect refused under churn is the daemon's right.
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });

    telemetry::MetricsRegistry registry;
    const std::vector<LoadPoint> sweep = {
        {"light", 200.0, 1.5, 8},
        {"heavy", 2000.0, 1.5, 48},
    };

    bool pass = true;
    for (const LoadPoint& point : sweep) {
        telemetry::Histogram& latency = registry.histogram(
            "fxg_service_latency_" + std::string(point.name) + "_seconds", "s");
        // Healthy replies alone: the faulted member's ladder does not
        // hide inside these percentiles.
        telemetry::Histogram& ok_latency = registry.histogram(
            "fxg_service_ok_latency_" + std::string(point.name) + "_seconds", "s");
        const LoadResult r =
            run_load(service.port(), point, latency, ok_latency);
        const double goodput =
            static_cast<double>(r.ok + r.degraded) / r.elapsed_s;
        registry
            .gauge("fxg_service_goodput_" + std::string(point.name) + "_per_s",
                   "1/s")
            .set(goodput);
        registry
            .gauge("fxg_service_offered_" + std::string(point.name) + "_per_s",
                   "1/s")
            .set(point.offered_per_s);
        registry.gauge("fxg_service_shed_" + std::string(point.name), "")
            .set(static_cast<double>(r.shed));
        registry.gauge("fxg_service_degraded_" + std::string(point.name), "")
            .set(static_cast<double>(r.degraded));

        std::printf(
            "%-6s offered %7.0f /s  goodput %7.1f /s  p50 %7.3f ms  "
            "p99 %7.3f ms  p999 %7.3f ms  (Ok p50 %7.3f ms  p99 %7.3f ms)  "
            "ok %llu  degraded %llu  shed %llu  errors %llu\n",
            point.name, point.offered_per_s, goodput,
            latency.quantile(0.5) * 1e3, latency.quantile(0.99) * 1e3,
            latency.quantile(0.999) * 1e3, ok_latency.quantile(0.5) * 1e3,
            ok_latency.quantile(0.99) * 1e3,
            static_cast<unsigned long long>(r.ok),
            static_cast<unsigned long long>(r.degraded),
            static_cast<unsigned long long>(r.shed),
            static_cast<unsigned long long>(r.errors));

        pass = pass && goodput > 0.0 && r.degraded > 0 && r.errors == 0;
    }

    chaos_stop.store(true);
    chaos.join();

    // The daemon must still be serving after the sweep + chaos.
    bool survived = service.running();
    if (survived) {
        try {
            service::QueryClient probe(service.port());
            const service::HeadingReply reply = probe.query(0xFEEDu);
            survived = reply.status == service::ReplyStatus::Ok ||
                       reply.status == service::ReplyStatus::Degraded;
        } catch (const std::exception&) {
            survived = false;
        }
    }

    const service::ServiceStats stats = service.stats();
    std::printf(
        "\nserver: %llu admitted, %llu batches (mean batch %.1f), "
        "%llu shed, %llu disconnects, %llu protocol errors, "
        "%llu chaos connections\n",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.batches),
        stats.batches ? static_cast<double>(stats.requests) /
                            static_cast<double>(stats.batches)
                      : 0.0,
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.disconnects),
        static_cast<unsigned long long>(stats.protocol_errors),
        static_cast<unsigned long long>(chaos_conns.load()));

    registry.gauge("fxg_service_batch_mean", "")
        .set(stats.batches ? static_cast<double>(stats.requests) /
                                 static_cast<double>(stats.batches)
                           : 0.0);
    registry.gauge("fxg_service_chaos_connections", "")
        .set(static_cast<double>(chaos_conns.load()));

    injector.disarm();
    service.stop();

    telemetry::write_bench_json("BENCH_service.json",
                                telemetry::bench_json_records(registry));
    std::puts("wrote BENCH_service.json");

    pass = pass && survived && stats.protocol_errors == 0;
    std::printf("\nsurvives load + chaos + faulted member  ->  %s\n",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
