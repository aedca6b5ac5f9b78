/// \file workloads.cpp
/// The four end-to-end workloads (README.md says why each exists). Every
/// workload reports the same nine metrics, each defined in the README
/// per workload, and checks its outputs as it goes. Every timing is taken
/// on a thread a HostSpeed samples and divided by its host factor.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "hostspeed.hpp"
#include "core/compass_fleet.hpp"
#include "loadgen.hpp"
#include "service/client.hpp"
#include "snapshot/state.hpp"

namespace perfbench {

namespace {

using fxg::compass::Compass;
using fxg::compass::CompassConfig;
using fxg::compass::CompassFleet;
using fxg::compass::FleetResult;
using fxg::compass::Measurement;

/// Set-ups are repeated for at least this long, and at least kMinReps
/// times, per run; the median is reported.
constexpr double kSetupSeconds = 0.5;
constexpr int kMinReps = 5;
constexpr int kMaxReps = 1000;
/// Checkpoints run in short bursts spread over the run (between chunks
/// of fixes or sweeps); the median is reported. The service can only be
/// checkpointed once stopped, so it gets one longer burst.
constexpr double kCheckpointBurstSeconds = 0.15;
constexpr double kServiceCheckpointSeconds = 2.0;
/// Service set-ups per run: a fixed, small number, because each is
/// followed by a stop() that can hang (see ServiceRig::stop).
constexpr int kServiceSetups = 7;

/// Pickup noise of fleet_noisy: the level bench_fault_coverage and
/// bench_scenario_matrix use.
constexpr double kNoisyPickupV = 0.25e-3;
/// With that noise the count jitter widens the error beyond the paper's
/// noise-free 1 degree; this bound is the noisy correctness check.
constexpr double kNoisyBoundDeg = 3.0;

/// Handheld fixes are normalized in chunks of this many (≈ 0.1 s), and a
/// checkpoint burst runs before every kBurstEveryChunks-th chunk.
constexpr std::size_t kChunkFixes = 64;
constexpr std::size_t kBurstEveryChunks = 24;

/// p99s are taken per stretch of this many samples (15 beyond each p99)
/// and the median over stretches is reported.
constexpr std::size_t kP99Segment = 1500;

/// The handheld digest covers this many first fixes, so it does not
/// depend on how many fixes fit into the run.
constexpr std::size_t kDigestFixes = 1000;

/// compassd capacity: a closed loop with this many queries in flight, for
/// kSaturationSeconds of the run (at most a quarter of it), split into one
/// burst before and one after the open-loop phase. Replies are counted in
/// windows of kSaturationWindowSeconds; the median window is reported.
constexpr int kSaturationInFlight = 24;
constexpr double kSaturationSeconds = 3.0;
constexpr double kSaturationWindowSeconds = 0.25;

/// The nine end-to-end metrics, in BENCHMARK.json order.
struct EndToEnd {
    double setup_s = 0.0;
    double heading_err_p99_deg = 0.0;
    double meas_per_s = 0.0;
    double latency_ms_p50 = 0.0;
    double latency_ms_p99 = 0.0;
    double rss_kib_per_member = 0.0;
    double checkpoint_ms_per_member = 0.0;
    double snapshot_bytes_per_member = 0.0;
};

void report(Result& r, const EndToEnd& e) {
    r.add("setup_s", e.setup_s, "s");
    r.add("ok_ratio", r.ok_ratio(), "ratio");
    r.add("heading_err_p99_deg", e.heading_err_p99_deg, "deg");
    r.add("meas_per_s", e.meas_per_s, "1/s");
    r.add("latency_ms_p50", e.latency_ms_p50, "ms");
    r.add("latency_ms_p99", e.latency_ms_p99, "ms");
    r.add("rss_kib_per_member", e.rss_kib_per_member, "KiB");
    r.add("checkpoint_ms_per_member", e.checkpoint_ms_per_member, "ms");
    r.add("snapshot_bytes_per_member", e.snapshot_bytes_per_member, "B");
}

// ------------------------------------------------------------ handheld

}  // namespace

Result run_handheld(const Options& opt) {
    Result r;
    EndToEnd e;
    SeededRng rng(opt.seed);
    const Environment first = draw_environment(rng);
    const HostSpeed host;

    // Set-up: construction (compiles the plan), environment, one warm-up
    // measure(). RSS growth is read across the first set-up only.
    std::unique_ptr<Compass> compass;
    bool first_setup = true;
    const Clock::time_point phase = Clock::now();
    const std::vector<double> setup_s = repeat_for(kSetupSeconds, kMinReps, kMaxReps, [&] {
        compass.reset();
        const double rss0 = rss_kib();
        const Stopwatch sw;
        compass = std::make_unique<Compass>();
        apply_environment(*compass, first);
        static_cast<void>(compass->measure());
        const double s = sw.seconds();
        if (first_setup) e.rss_kib_per_member = rss_kib() - rss0;
        first_setup = false;
        return s;
    });
    e.setup_s = median(setup_s) / host.factor(phase, Clock::now());

    // Checkpoint: snapshot the compass and restore it into a twin, in a
    // burst between chunks of fixes.
    Compass twin;
    std::size_t bytes = 0;
    std::vector<double> ckpt_ms;
    const auto checkpoint_burst = [&] {
        const Clock::time_point begin = Clock::now();
        const std::vector<double> d = repeat_for(kCheckpointBurstSeconds, 1, kMaxReps, [&] {
            const Stopwatch sw;
            const std::vector<std::uint8_t> snap = fxg::snapshot::snapshot_compass(*compass);
            fxg::snapshot::restore_compass(snap, twin);
            bytes = snap.size();
            return sw.seconds();
        });
        const double f = host.factor(begin, Clock::now());
        for (const double s : d) ckpt_ms.push_back(s * 1e3 / f);
    };

    // Closed loop, one caller: new seeded environment, then one fix. Fixes
    // are timed in chunks, each normalized by its own host factor.
    struct Chunk {
        std::vector<double> ms;  ///< each fix, raw
        std::vector<bool> interrupted;
        Clock::time_point begin, end;
        double seconds = 0.0;    ///< the whole chunk, environment changes included
    };
    std::vector<double> err_deg;
    std::vector<Chunk> chunks;
    Stopwatch chunk_sw;
    Digest digest;
    Environment env = first;
    const Clock::time_point start = Clock::now();
    for (std::size_t calls = 0; calls < kDigestFixes || seconds_since(start) < opt.seconds; ++calls) {
        if (chunks.empty() || chunks.back().ms.size() == kChunkFixes) {
            if (!chunks.empty()) {
                chunks.back().seconds = chunk_sw.seconds();
                chunks.back().end = Clock::now();
            }
            if (chunks.size() % kBurstEveryChunks == 0) checkpoint_burst();
            chunks.emplace_back();
            chunk_sw = Stopwatch();
            chunks.back().begin = chunk_sw.t0;
        }
        env = draw_environment(rng);
        apply_environment(*compass, env);
        const Stopwatch sw;
        Measurement m;
        try {
            m = compass->measure();
        } catch (const std::exception& ex) {
            r.check(false, std::string("measure() threw: ") + ex.what());
            continue;
        }
        chunks.back().ms.push_back(sw.seconds() * 1e3);
        chunks.back().interrupted.push_back(sw.interrupted());
        const double err = heading_error_deg(m.heading_deg, env.heading_deg);
        if (calls < kDigestFixes) digest.add(m);
        err_deg.push_back(err);
        if (m.field_in_range && err <= kAccuracyBoundDeg) {
            r.pass();
        } else {
            r.fail("handheld: error " + std::to_string(err) + " deg at heading " +
                   std::to_string(env.heading_deg) + ", " + std::to_string(env.field_ut) +
                   " uT");
        }
    }
    // The last chunk is cut short by the deadline or a burst.
    chunks.pop_back();
    if (chunks.empty()) throw std::runtime_error("run too short for one chunk of fixes");
    std::vector<double> fix_ms, raw_ms;
    double fixes = 0.0, busy_s = 0.0;
    for (const Chunk& c : chunks) {
        const double f = host.factor(c.begin, c.end);
        for (std::size_t i = 0; i < c.ms.size(); ++i) {
            if (!c.interrupted[i]) fix_ms.push_back(c.ms[i] / f);
        }
        raw_ms.insert(raw_ms.end(), c.ms.begin(), c.ms.end());
        fixes += static_cast<double>(c.ms.size());
        busy_s += c.seconds / f;
    }
    e.latency_ms_p50 = quantile(fix_ms, 0.50);
    e.latency_ms_p99 = segmented_quantile(fix_ms, 0.99, kP99Segment);
    e.meas_per_s = fixes / busy_s;
    e.heading_err_p99_deg = quantile(err_deg, 0.99);
    e.checkpoint_ms_per_member = median(ckpt_ms);
    e.snapshot_bytes_per_member = static_cast<double>(bytes);
    std::printf("host ref median %.2f us over %zu samples; raw fix p50 %.4f ms, %zu fixes\n",
                host.median_ref_us(), host.samples(), quantile(raw_ms, 0.5), fix_ms.size());

    // The twin restored last must continue bit-identically.
    checkpoint_burst();
    apply_environment(twin, env);
    r.check(same_bits(compass->measure(), twin.measure()),
            "restored compass continues bit-identically");

    std::printf("digest handheld %s over the first %zu fixes\n", digest.hex().c_str(),
                kDigestFixes);
    report(r, e);
    return r;
}

// -------------------------------------------------------------- fleets

namespace {

struct FleetSpec {
    const char* name;
    int members;
    double pickup_noise_v;
    double bound_deg;
    /// true: snapshot_fleet + restore_fleet of the whole fleet into a twin
    /// whose next sweep must match the original's; false: snapshot_member
    /// / restore_member on seeded members.
    bool whole_checkpoint;
};

struct FleetInputs {
    CompassConfig config;
    std::vector<Environment> envs;
    std::vector<std::uint64_t> noise_seeds;
};

FleetInputs fleet_inputs(const FleetSpec& spec, SeededRng& rng) {
    FleetInputs in;
    in.config.front_end.pickup_noise_rms_v = spec.pickup_noise_v;
    for (int i = 0; i < spec.members; ++i) {
        in.envs.push_back(draw_environment(rng));
        in.noise_seeds.push_back(rng.next());
    }
    return in;
}

/// Members [first, first + count) of the seeded fleet, each with its own
/// environment and its own pickup-noise stream.
std::unique_ptr<CompassFleet> build_fleet(const FleetInputs& in, int first, int count) {
    auto fleet = std::make_unique<CompassFleet>(count, in.config);
    for (int i = 0; i < count; ++i) {
        const std::size_t src = static_cast<std::size_t>(first + i);
        apply_environment(fleet->at(i), in.envs[src]);
        fleet->at(i).front_end().pickup_noise().rng().engine().seed(in.noise_seeds[src]);
    }
    return fleet;
}

/// Counts and checks one sweep's results.
void account(Result& r, const FleetSpec& spec, const FleetInputs& in,
             const std::vector<FleetResult>& results, std::vector<double>& err_deg) {
    for (std::size_t i = 0; i < results.size(); ++i) {
        const FleetResult& res = results[i];
        if (!res.ok) {
            r.check(false, "member failed: " + res.error);
            continue;
        }
        const double err =
            heading_error_deg(res.measurement.heading_deg, in.envs[i].heading_deg);
        err_deg.push_back(err);
        if (res.measurement.field_in_range && err <= spec.bound_deg) {
            r.pass();
        } else {
            r.fail(std::string(spec.name) + " member " + std::to_string(i) + ": error " +
                   std::to_string(err) + " deg at heading " +
                   std::to_string(in.envs[i].heading_deg) + ", " +
                   std::to_string(in.envs[i].field_ut) + " uT");
        }
    }
}

Result run_fleet(const Options& opt, const FleetSpec& spec) {
    Result r;
    EndToEnd e;
    SeededRng rng(opt.seed);
    const FleetInputs in = fleet_inputs(spec, rng);
    const int n = spec.members;
    const int group_size = CompassFleet::kLaneGroupSize;
    const HostSpeed host;

    // Set-up: construction (one plan compile), environments, noise seeds.
    std::vector<double> setup_s;
    const double rss0 = rss_kib();
    std::unique_ptr<CompassFleet> fleet;
    setup_s.push_back(host.time([&] { fleet = build_fleet(in, 0, n); }));

    // The first sweep warms up and is checked, but not timed. RSS growth
    // is read across construction and this sweep. It is the workload's
    // digest: the timed sweeps that follow are as many as fit the run.
    std::vector<double> err_deg;
    const std::vector<FleetResult> first = fleet->measure_all_results(1);
    e.rss_kib_per_member = (rss_kib() - rss0) / n;
    account(r, spec, in, first, err_deg);
    Digest digest;
    for (const FleetResult& res : first) digest.add(res.measurement);
    std::printf("digest %s %s over the first sweep (%d members)\n", spec.name,
                digest.hex().c_str(), n);

    // One seeded lane group, rebuilt fresh and measured per member, must
    // match the lane-batched first sweep bit for bit.
    const int group = static_cast<int>(rng.next() % static_cast<std::uint64_t>(n / group_size));
    std::unique_ptr<CompassFleet> ref = build_fleet(in, group * group_size, group_size);
    ref->set_execution(fxg::compass::FleetExecution::PerMember);
    const std::vector<FleetResult> ref_results = ref->measure_all_results(1);
    bool group_same = true;
    for (int k = 0; k < group_size; ++k) {
        const FleetResult& a = first[static_cast<std::size_t>(group * group_size + k)];
        const FleetResult& b = ref_results[static_cast<std::size_t>(k)];
        group_same = group_same && a.ok && b.ok && same_bits(a.measurement, b.measurement);
    }
    r.check(group_same, "lane group matches FleetExecution::PerMember");

    // Checkpoint bursts, spread over the run. Whole fleet: snapshot_fleet +
    // restore_fleet into a twin, once before and once after the timed
    // sweeps; the twin's next sweep must match the original's first timed
    // sweep. Otherwise: snapshot_member + restore_member of seeded members
    // before every timed sweep.
    std::vector<double> ckpt_ms;
    double bytes = 0.0;  ///< summed over the snapshots taken
    int last_member = 0;
    const std::unique_ptr<CompassFleet> twin = spec.whole_checkpoint ? build_fleet(in, 0, n) : nullptr;
    const auto checkpoint_burst = [&] {
        if (twin) {
            ckpt_ms.push_back(1e3 / n * host.time([&] {
                const std::vector<std::uint8_t> snap = fxg::snapshot::snapshot_fleet(*fleet);
                fxg::snapshot::restore_fleet(snap, *twin);
                bytes += static_cast<double>(snap.size()) / n;
            }));
            return;
        }
        const Clock::time_point begin = Clock::now();
        const std::vector<double> d = repeat_for(kCheckpointBurstSeconds, 1, kMaxReps, [&] {
            last_member = static_cast<int>(rng.next() % static_cast<std::uint64_t>(n));
            const Stopwatch sw;
            const std::vector<std::uint8_t> snap =
                fxg::snapshot::snapshot_member(*fleet, last_member);
            fxg::snapshot::restore_member(snap, *ref, 0);
            bytes += static_cast<double>(snap.size());
            return sw.seconds() * 1e3;
        });
        const double f = host.factor(begin, Clock::now());
        for (const double ms : d) ckpt_ms.push_back(ms / f);
    };
    checkpoint_burst();
    const std::vector<FleetResult> twin_next =
        twin ? twin->measure_all_results(1) : std::vector<FleetResult>{};

    // Timed single-thread sweeps.
    std::vector<double> sweep_s, raw_s;
    const Clock::time_point start = Clock::now();
    while (sweep_s.size() < 3 || seconds_since(start) < opt.seconds) {
        if (!twin && !sweep_s.empty()) checkpoint_burst();
        const Stopwatch sw;
        const std::vector<FleetResult> results = fleet->measure_all_results(1);
        raw_s.push_back(sw.seconds());
        sweep_s.push_back(raw_s.back() / host.factor(sw.t0, Clock::now()));
        account(r, spec, in, results, err_deg);
        if (sweep_s.size() == 1 && twin) {
            bool same = results.size() == twin_next.size();
            for (std::size_t i = 0; same && i < results.size(); ++i) {
                same = results[i].ok && twin_next[i].ok &&
                       same_bits(results[i].measurement, twin_next[i].measurement);
            }
            r.check(same, "restored fleet's next sweep matches the original");
        }
    }
    checkpoint_burst();
    e.checkpoint_ms_per_member = median(ckpt_ms);
    e.snapshot_bytes_per_member = bytes / static_cast<double>(ckpt_ms.size());
    if (!twin) {
        apply_environment(ref->at(0), in.envs[static_cast<std::size_t>(last_member)]);
        r.check(same_bits(fleet->at(last_member).measure(), ref->at(0).measure()),
                "restored member continues bit-identically");
    }
    // A sweep is one latency sample, and a run has too few for a p99, so
    // both latency metrics are the median sweep: n / meas_per_s, not a
    // separate check.
    e.latency_ms_p50 = e.latency_ms_p99 = median(sweep_s) * 1e3;
    e.meas_per_s = n / median(sweep_s);
    e.heading_err_p99_deg = quantile(err_deg, 0.99);
    std::printf("sweeps [ms, raw/normalized]:");
    for (std::size_t i = 0; i < sweep_s.size(); ++i) {
        std::printf(" %.1f/%.1f", raw_s[i] * 1e3, sweep_s[i] * 1e3);
    }
    std::printf("\nhost ref median %.2f us over %zu samples\n", host.median_ref_us(),
                host.samples());

    // Remaining set-ups, timed after the main fleet is released so at
    // most one fleet is resident.
    fleet.reset();
    const std::vector<double> more = repeat_for(kSetupSeconds, kMinReps - 1, kMaxReps, [&] {
        return host.time([&] { const std::unique_ptr<CompassFleet> again = build_fleet(in, 0, n); });
    });
    setup_s.insert(setup_s.end(), more.begin(), more.end());
    e.setup_s = median(setup_s);
    report(r, e);
    return r;
}

}  // namespace

Result run_fleet_large(const Options& opt) {
    return run_fleet(opt, {"fleet_large", 8192, 0.0, kAccuracyBoundDeg, false});
}

Result run_fleet_noisy(const Options& opt) {
    return run_fleet(opt, {"fleet_noisy", 1024, kNoisyPickupV, kNoisyBoundDeg, true});
}

// ------------------------------------------------------------ compassd

namespace {

namespace svc = fxg::service;

/// Checks one reply against its member's seeded truth.
bool reply_correct(const svc::HeadingReply& reply, const std::vector<Environment>& envs) {
    if (reply.member >= envs.size()) return false;
    if (reply.member == ServiceRig::kFaultedMember) {
        return reply.status == svc::ReplyStatus::Degraded ||
               reply.status == svc::ReplyStatus::Stale;
    }
    return reply.status == svc::ReplyStatus::Ok &&
           heading_error_deg(reply.heading_deg, envs[reply.member].heading_deg) <=
               kAccuracyBoundDeg;
}

}  // namespace

Result run_compassd(const Options& opt, double offered_per_s) {
    Result r;
    EndToEnd e;
    SeededRng rng(opt.seed);
    const std::vector<Environment> envs = service_environments();
    const int n = ServiceRig::kMembers;

    // The service's threads and the generator's share this thread's vCPU,
    // so the host-speed samples taken here describe the vCPU the service
    // runs on (the speed of a shared VM differs per vCPU).
    pin_to_current_cpu();
    const HostSpeed host;

    // Set-up: build the service, place members, start (supervisor
    // warm-up pass), arm the fault.
    std::vector<double> setup_s;
    const double rss0 = rss_kib();
    std::unique_ptr<ServiceRig> rig;
    setup_s.push_back(host.time([&] { rig = std::make_unique<ServiceRig>(envs); }));
    e.rss_kib_per_member = (rss_kib() - rss0) / n;
    const int port = rig->service().port();

    // Warm-up: two synchronous rounds over the members. Each query rides
    // its own batch, so these replies are deterministic; they are the
    // workload's digest.
    Digest digest;
    {
        svc::QueryClient client(port);
        for (int i = 0; i < 2 * n; ++i) {
            const svc::HeadingReply reply = client.query(static_cast<std::uint64_t>(i));
            digest.add(static_cast<std::uint64_t>(reply.status));
            digest.add(reply.member);
            digest.add(static_cast<std::uint64_t>(reply.count_x));
            digest.add(static_cast<std::uint64_t>(reply.count_y));
            digest.add(std::bit_cast<std::uint64_t>(reply.heading_deg));
            r.check(reply.member == static_cast<std::uint32_t>(i % n) &&
                        reply_correct(reply, envs),
                    "warm-up reply correct");
        }
    }
    std::printf("digest %s %s over %d warm-up replies\n", opt.workload.c_str(),
                digest.hex().c_str(), 2 * n);

    // Capacity: correct replies per second in the median window of the
    // saturation bursts (the open-loop phase's reply rate is its offered
    // load for as long as the service keeps up).
    const double saturation_s = std::min(kSaturationSeconds, opt.seconds / 4);
    std::vector<double> window_rates;
    std::size_t saturated_replies = 0;
    std::uint64_t saturated_requests = 0, saturated_batches = 0;
    const auto saturation_burst = [&] {
        const svc::ServiceStats s0 = rig->service().stats();
        const SaturatedRun sat = run_saturated(port, kSaturationInFlight, saturation_s / 2);
        const svc::ServiceStats s1 = rig->service().stats();
        saturated_replies += sat.replies.size();
        saturated_requests += s1.requests - s0.requests;
        saturated_batches += s1.batches - s0.batches;
        r.check(sat.transport_errors == 0, "saturation transport");
        // The last, partial window holds the drain after the burst.
        std::vector<double> replies(
            static_cast<std::size_t>(saturation_s / 2 / kSaturationWindowSeconds), 0.0);
        const auto at = [&](double s) {
            return sat.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(s));
        };
        for (std::size_t i = 0; i < sat.replies.size(); ++i) {
            const bool ok = reply_correct(sat.replies[i], envs);
            r.check(ok, std::string("saturation reply status ") +
                            svc::to_string(sat.replies[i].status) + " from member " +
                            std::to_string(sat.replies[i].member));
            const std::size_t w = static_cast<std::size_t>(sat.done_s[i] / kSaturationWindowSeconds);
            if (ok && w < replies.size()) replies[w] += 1.0;
        }
        for (std::size_t w = 0; w < replies.size(); ++w) {
            const double f = host.factor(at(w * kSaturationWindowSeconds),
                                         at((w + 1) * kSaturationWindowSeconds));
            window_rates.push_back(replies[w] / kSaturationWindowSeconds * f);
        }
    };

    // Saturation burst, open-loop phase, saturation burst.
    const svc::ServiceStats initial = rig->service().stats();
    saturation_burst();
    const std::vector<double> due =
        poisson_schedule(rng, offered_per_s, opt.seconds - saturation_s);
    const svc::ServiceStats before = rig->service().stats();
    const LoadRun run = run_open_loop(port, due);
    const svc::ServiceStats after = rig->service().stats();
    saturation_burst();
    const svc::ServiceStats drained = rig->service().stats();

    const auto at = [&](double s) {
        return run.start +
               std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };
    std::vector<double> ok_ms, raw_ok_ms, err_deg, late_ms, degraded_ms;
    for (const Query& q : run.queries) {
        if (q.done_s < 0.0) {
            r.check(false, "query unanswered");
            continue;
        }
        late_ms.push_back((q.sent_s - q.due_s) * 1e3);
        const double latency_ms = (q.done_s - q.due_s) * 1e3;
        const bool ok = reply_correct(q.reply, envs);
        r.check(ok, std::string("reply status ") + svc::to_string(q.reply.status) +
                        " from member " + std::to_string(q.reply.member));
        if (!ok) continue;
        if (q.reply.status == svc::ReplyStatus::Ok) {
            raw_ok_ms.push_back(latency_ms);
            ok_ms.push_back(latency_ms / host.factor(at(q.due_s), at(q.done_s)));
            err_deg.push_back(
                heading_error_deg(q.reply.heading_deg, envs[q.reply.member].heading_deg));
        } else {
            degraded_ms.push_back(latency_ms);
        }
    }
    r.check(run.transport_errors == 0 && run.id_errors == 0, "load generator transport");
    r.check(drained.protocol_errors == initial.protocol_errors, "no protocol errors");
    if (ok_ms.empty()) throw std::runtime_error("no Ok replies");
    if (window_rates.empty()) throw std::runtime_error("run too short for a saturation window");
    e.latency_ms_p50 = quantile(ok_ms, 0.50);
    e.latency_ms_p99 = segmented_quantile(ok_ms, 0.99, kP99Segment);
    e.meas_per_s = median(window_rates);
    e.heading_err_p99_deg = quantile(err_deg, 0.99);
    std::printf(
        "load %s: raw Ok p50 %.3f ms p99 %.3f ms; %zu queries at %.0f/s over %d "
        "connections, %zu Ok, %zu degraded (p50 %.3f ms), late p99 %.3f ms, mean batch "
        "%.2f; saturated %zu replies, mean batch %.2f\n",
        opt.workload.c_str(), quantile(raw_ok_ms, 0.5), quantile(raw_ok_ms, 0.99),
        run.queries.size(), offered_per_s, run.connections,
        ok_ms.size(), degraded_ms.size(),
        degraded_ms.empty() ? 0.0 : median(degraded_ms),
        late_ms.empty() ? 0.0 : quantile(late_ms, 0.99),
        after.batches > before.batches
            ? static_cast<double>(after.requests - before.requests) /
                  static_cast<double>(after.batches - before.batches)
            : 0.0,
        saturated_replies,
        saturated_batches > 0
            ? static_cast<double>(saturated_requests) / static_cast<double>(saturated_batches)
            : 0.0);

    // Checkpoint the served fleet (stopped, fault disarmed) into a twin
    // fleet; the twin's next sweep must match.
    rig->stop();
    CompassFleet& served = rig->service().fleet();
    CompassFleet twin(n, ServiceRig::config().compass);
    for (int i = 0; i < n; ++i) apply_environment(twin.at(i), envs[static_cast<std::size_t>(i)]);
    std::size_t bytes = 0;
    const std::vector<double> ckpt_s =
        repeat_for(kServiceCheckpointSeconds, kMinReps, kMaxReps, [&] {
            return host.time([&] {
                const std::vector<std::uint8_t> snap = fxg::snapshot::snapshot_fleet(served);
                fxg::snapshot::restore_fleet(snap, twin);
                bytes = snap.size();
            });
        });
    e.checkpoint_ms_per_member = 1e3 / n * median(ckpt_s);
    e.snapshot_bytes_per_member = static_cast<double>(bytes) / n;
    const std::vector<FleetResult> a = served.measure_all_results(1);
    const std::vector<FleetResult> b = twin.measure_all_results(1);
    bool same = true;
    for (int i = 0; i < n; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        same = same && a[k].ok && b[k].ok && same_bits(a[k].measurement, b[k].measurement);
    }
    r.check(same, "restored service fleet continues bit-identically");

    rig.reset();
    const std::vector<double> more = repeat_for(0.0, kServiceSetups - 1, kServiceSetups - 1, [&] {
        std::unique_ptr<ServiceRig> again;
        return host.time([&] { again = std::make_unique<ServiceRig>(envs); });
    });
    setup_s.insert(setup_s.end(), more.begin(), more.end());
    e.setup_s = median(setup_s);
    report(r, e);
    return r;
}

}  // namespace perfbench
