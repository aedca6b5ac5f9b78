#include "verify/fuzz.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/scenario.hpp"
#include "magnetics/units.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/state.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/trace.hpp"
#include "util/angle.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace fxg::verify {

namespace {

template <typename... Args>
std::string format(const char* fmt, Args... args) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

/// One random FaultSpec. `width_bits` bounds the CounterStuckBit
/// geometry (the injector validates stuck_bit < width); `window` scales
/// the stream-fault activity windows to the measurement length;
/// `allow_counter_stuck` is off for oracles whose identity a stuck
/// register bit genuinely breaks (CounterWidth congruence).
fault::FaultSpec random_fault_spec(util::Rng& rng, int width_bits,
                                   std::uint64_t window, bool allow_counter_stuck) {
    using fault::FaultClass;
    using fault::Persistence;
    static constexpr FaultClass kClasses[] = {
        FaultClass::DetectorStuckLow,      FaultClass::DetectorStuckHigh,
        FaultClass::PickupOpen,            FaultClass::NoiseBurst,
        FaultClass::ComparatorOffsetDrift, FaultClass::OscFrequencyDrift,
        FaultClass::OscAmplitudeDrift,     FaultClass::OscDcOffsetDrift,
        FaultClass::ExcitationCollapse,    FaultClass::MuxStuck,
        FaultClass::CounterStuckBit,
    };
    fault::FaultSpec spec;
    do {
        spec.fault = kClasses[rng.uniform_int(0, 10)];
    } while (spec.fault == FaultClass::CounterStuckBit && !allow_counter_stuck);
    spec.channel = rng.chance(0.5) ? analog::Channel::X : analog::Channel::Y;
    if (fault::is_stream_fault(spec.fault)) {
        const auto kind = rng.uniform_int(0, 2);
        spec.persistence = kind == 0   ? Persistence::Permanent
                           : kind == 1 ? Persistence::Transient
                                       : Persistence::Intermittent;
        spec.start_sample =
            static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(window / 2)));
        if (spec.persistence != Persistence::Permanent) {
            spec.duration_samples = static_cast<std::uint64_t>(
                rng.uniform_int(1, static_cast<std::int64_t>(window / 4) + 1));
        }
        if (spec.persistence == Persistence::Intermittent) {
            spec.period_samples =
                spec.duration_samples +
                static_cast<std::uint64_t>(
                    rng.uniform_int(1, static_cast<std::int64_t>(window / 4) + 1));
        }
    }
    switch (spec.fault) {
        case FaultClass::NoiseBurst:
            spec.magnitude = rng.uniform(0.05, 0.4);
            spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
            break;
        case FaultClass::ComparatorOffsetDrift:
            spec.magnitude = rng.uniform(-0.05, 0.05);
            break;
        case FaultClass::OscFrequencyDrift:
            spec.magnitude = rng.uniform(0.6, 1.4);
            break;
        case FaultClass::OscAmplitudeDrift:
            spec.magnitude = rng.uniform(0.3, 1.3);
            break;
        case FaultClass::OscDcOffsetDrift:
            spec.magnitude = rng.uniform(-2.0e-3, 2.0e-3);
            break;
        case FaultClass::CounterStuckBit: {
            const int max_bit = width_bits > 0 ? width_bits - 2 : 24;
            spec.bit = static_cast<int>(rng.uniform_int(0, std::max(0, max_bit)));
            spec.bit_high = rng.chance(0.5);
            break;
        }
        default:
            break;
    }
    return spec;
}

compass::CompassConfig rig_config(const FuzzCase& c, sim::EngineKind kind) {
    compass::CompassConfig cfg = c.config;
    cfg.engine = kind;
    return cfg;
}

/// One pipeline instance built from a case: compass + environment +
/// register geometry + armed fault schedule.
struct Rig {
    compass::Compass compass;
    fault::FaultInjector injector;

    Rig(const FuzzCase& c, sim::EngineKind kind, int width_bits, bool trap)
        : compass(rig_config(c, kind)) {
        compass.set_environment(
            magnetics::EarthField(magnetics::microtesla(c.field_ut),
                                  c.inclination_deg),
            c.heading_deg);
        digital::CounterHardware hw;
        hw.width_bits = width_bits;
        hw.trap_on_overflow = trap;
        compass.counter().set_hardware(hw);
        for (const fault::FaultSpec& spec : c.faults) injector.add(spec);
        if (!c.faults.empty()) injector.arm(compass);
    }
};

/// Everything one run exposes that an identity can be checked on: the
/// measurement, the abort outcome, and the post-run pipeline state.
struct Outcome {
    bool aborted = false;
    std::string error;
    compass::Measurement m;
    std::int64_t reg_count = 0;
    bool overflowed = false;
    std::uint64_t samples = 0;
    analog::StreamStats stats[2];
};

void capture_state(compass::Compass& comp, Outcome& o) {
    o.reg_count = comp.counter().count();
    o.overflowed = comp.counter().overflowed();
    o.samples = comp.front_end().samples_stepped();
    o.stats[0] = comp.front_end().stream_stats(analog::Channel::X);
    o.stats[1] = comp.front_end().stream_stats(analog::Channel::Y);
}

Outcome measure_outcome(compass::Compass& comp) {
    Outcome o;
    try {
        o.m = comp.measure();
    } catch (const std::exception& e) {
        o.aborted = true;
        o.error = e.what();
    }
    capture_state(comp, o);
    return o;
}

/// Runs one measurement of every compass through the SoA lane engine as
/// one batch (PlanExecutor::run_lanes, under `plan` or else the first
/// compass's plan) and captures, per lane, the same Outcome the scalar
/// and block rigs expose. An aborted lane reports its (partial)
/// measurement through the LaneOutcome slot; the per-member path loses
/// it to the exception, so mirror that here and compare the abort point
/// through the captured pipeline state instead.
std::vector<Outcome> lanes_outcomes(std::initializer_list<compass::Compass*> comps,
                                    const compass::MeasurementPlan* plan = nullptr) {
    const std::vector<compass::Compass*> lanes(comps);
    std::vector<compass::LaneOutcome> slots(lanes.size());
    compass::PlanExecutor::run_lanes(plan != nullptr ? *plan : lanes.front()->plan(),
                                     lanes, slots);
    std::vector<Outcome> out(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        out[i].aborted = slots[i].aborted;
        out[i].error = slots[i].error;
        if (!slots[i].aborted) out[i].m = slots[i].measurement;
        capture_state(*lanes[i], out[i]);
    }
    return out;
}

/// A batch of one (under `plan` when given).
Outcome lanes_outcome(compass::Compass& comp,
                      const compass::MeasurementPlan* plan = nullptr) {
    return lanes_outcomes({&comp}, plan).front();
}

Outcome plan_outcome(compass::Compass& comp, const compass::MeasurementPlan& plan) {
    Outcome o;
    compass::PlanExecutor executor(comp);
    try {
        o.m = executor.run(plan);
    } catch (const std::exception& e) {
        o.aborted = true;
        o.error = e.what();
    }
    capture_state(comp, o);
    return o;
}

/// Exact (bit-level) comparison of two outcomes. Doubles compare with
/// ==: every oracle pair promises identical arithmetic, not proximity.
std::optional<std::string> diff_outcomes(const Outcome& a, const Outcome& b) {
    if (a.aborted != b.aborted) {
        return format("abort mismatch: %d (%s) vs %d (%s)", a.aborted ? 1 : 0,
                      a.error.c_str(), b.aborted ? 1 : 0, b.error.c_str());
    }
    if (a.m.count_x != b.m.count_x || a.m.count_y != b.m.count_y) {
        return format("counts (%" PRId64 ", %" PRId64 ") vs (%" PRId64 ", %" PRId64 ")",
                      a.m.count_x, a.m.count_y, b.m.count_x, b.m.count_y);
    }
    if (a.m.heading_deg != b.m.heading_deg) {
        return format("heading %.17g vs %.17g", a.m.heading_deg, b.m.heading_deg);
    }
    if (a.m.heading_float_deg != b.m.heading_float_deg) {
        return format("heading_float %.17g vs %.17g", a.m.heading_float_deg,
                      b.m.heading_float_deg);
    }
    if (a.m.duration_s != b.m.duration_s) {
        return format("duration %.17g vs %.17g", a.m.duration_s, b.m.duration_s);
    }
    if (a.m.energy_j != b.m.energy_j) {
        return format("energy %.17g vs %.17g", a.m.energy_j, b.m.energy_j);
    }
    if (a.m.avg_power_w != b.m.avg_power_w) {
        return format("avg_power %.17g vs %.17g", a.m.avg_power_w, b.m.avg_power_w);
    }
    if (a.m.field_in_range != b.m.field_in_range) return "field_in_range differs";
    if (a.reg_count != b.reg_count) {
        return format("register %" PRId64 " vs %" PRId64, a.reg_count, b.reg_count);
    }
    if (a.overflowed != b.overflowed) return "sticky overflow flag differs";
    if (a.samples != b.samples) {
        return format("samples stepped %" PRIu64 " vs %" PRIu64, a.samples, b.samples);
    }
    for (int ch = 0; ch < 2; ++ch) {
        const analog::StreamStats& sa = a.stats[ch];
        const analog::StreamStats& sb = b.stats[ch];
        if (sa.samples != sb.samples || sa.valid_samples != sb.valid_samples ||
            sa.high_samples != sb.high_samples || sa.edges != sb.edges) {
            return format("stream stats[%c] differ: %" PRIu64 "/%" PRIu64 "/%" PRIu64
                          "/%" PRIu64 " vs %" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                          ch == 0 ? 'x' : 'y', sa.samples, sa.valid_samples,
                          sa.high_samples, sa.edges, sb.samples, sb.valid_samples,
                          sb.high_samples, sb.edges);
        }
    }
    return std::nullopt;
}

/// Two's-complement truncation of `v` to a `width`-bit signed register,
/// via unsigned arithmetic (no UB at any input).
std::int64_t sign_extend(std::int64_t v, int width) {
    const int shift = 64 - width;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) << shift) >> shift;
}

// ----------------------------------------------------------- oracles

std::optional<std::string> run_engine_parity(const FuzzCase& c) {
    // Three-way: scalar vs block vs SoA lane engine, the latter both
    // bare and with a trace+probes sink attached (a batch of one) —
    // batch spans and per-lane samples must not perturb the arithmetic.
    // The bare lane rig runs beside a mate, which has its own scalar
    // reference: on rep 0 a lockstep twin (the group is one cohort), on
    // rep 1 diverged in one excitation input — one extra measurement or
    // an oscillator frequency fault — so the group runs two cohorts.
    Rig scalar(c, sim::EngineKind::Scalar, c.counter_width_bits, c.trap_on_overflow);
    Rig block(c, sim::EngineKind::Block, c.counter_width_bits, c.trap_on_overflow);
    Rig lane(c, sim::EngineKind::Block, c.counter_width_bits, c.trap_on_overflow);
    Rig mate(c, sim::EngineKind::Block, c.counter_width_bits, c.trap_on_overflow);
    Rig mate_ref(c, sim::EngineKind::Scalar, c.counter_width_bits, c.trap_on_overflow);
    Rig lane_traced(c, sim::EngineKind::Block, c.counter_width_bits,
                    c.trap_on_overflow);
    telemetry::TraceSession trace;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink tee({&trace, &probes});
    lane_traced.compass.set_telemetry(&tee);
    // Seam identity: set_environment installs a ConstantFieldSource.
    // This rig detaches the source and writes the same axis fields
    // directly into the sensors — the pre-seam plumbing — which must
    // stay bit-identical on every engine.
    Rig direct(c, sim::EngineKind::Block, c.counter_width_bits, c.trap_on_overflow);
    {
        const magnetics::HorizontalField hf =
            magnetics::EarthField(magnetics::microtesla(c.field_ut),
                                  c.inclination_deg)
                .at_heading(c.heading_deg);
        direct.compass.set_field_source(nullptr);
        direct.compass.front_end().set_field(analog::Channel::X, hf.hx_a_per_m);
        direct.compass.front_end().set_field(analog::Channel::Y, hf.hy_a_per_m);
    }
    for (int rep = 0; rep < 2; ++rep) {
        const Outcome a = measure_outcome(scalar.compass);
        const Outcome b = measure_outcome(block.compass);
        if (auto d = diff_outcomes(a, b)) {
            return format("engine parity (scalar vs block), rep %d: %s", rep,
                          d->c_str());
        }
        if (rep == 1) {
            if (c.index % 2 == 0) {
                const Outcome mb = measure_outcome(mate.compass);
                const Outcome ms = measure_outcome(mate_ref.compass);
                if (auto d = diff_outcomes(ms, mb)) {
                    return format("engine parity (mate's extra measurement, "
                                  "scalar vs block): %s",
                                  d->c_str());
                }
            } else {
                for (Rig* r : {&mate, &mate_ref}) {
                    analog::TriangleOscillator& osc = r->compass.front_end().oscillator();
                    analog::OscillatorFault f = osc.fault();
                    f.frequency_scale *= 1.01;
                    osc.set_fault(f);
                }
            }
        }
        const std::vector<Outcome> batch = lanes_outcomes({&lane.compass, &mate.compass});
        if (auto d = diff_outcomes(a, batch[0])) {
            return format("engine parity (scalar vs lanes, %s mate), rep %d: %s",
                          rep == 0 ? "lockstep" : "diverged", rep, d->c_str());
        }
        if (auto d = diff_outcomes(measure_outcome(mate_ref.compass), batch[1])) {
            return format("engine parity (scalar vs lanes, %s mate's lane), rep %d: %s",
                          rep == 0 ? "lockstep" : "diverged", rep, d->c_str());
        }
        const Outcome lt = lanes_outcome(lane_traced.compass);
        if (auto d = diff_outcomes(a, lt)) {
            return format("engine parity (scalar vs traced lanes), rep %d: %s",
                          rep, d->c_str());
        }
        const Outcome dr = measure_outcome(direct.compass);
        if (auto d = diff_outcomes(b, dr)) {
            return format("engine parity (ConstantFieldSource vs direct fields), "
                          "rep %d: %s",
                          rep, d->c_str());
        }
    }
    return std::nullopt;
}

std::optional<std::string> run_plan_rewrite(const FuzzCase& c) {
    const sim::EngineKind kind = c.config.engine;
    const compass::MeasurementPlan plan = compass::compile_plan(rig_config(c, kind));
    const compass::MeasurementPlan re = compass::with_re_excite(plan);
    const compass::MeasurementPlan tx =
        compass::truncate_to_axis(plan, analog::Channel::X);
    const compass::MeasurementPlan ty =
        compass::truncate_to_axis(plan, analog::Channel::Y);

    // Stage algebra first: the rewrites must transform the stage list,
    // not just happen to execute alike.
    if (re.stages.size() != plan.stages.size() + 1 ||
        re.stages.front().kind != compass::StageKind::ReExcite) {
        return "with_re_excite did not prepend exactly one ReExcite stage";
    }
    if (!plan.complete() || tx.complete() || ty.complete()) {
        return "complete() wrong across truncation";
    }
    if (!tx.counts(analog::Channel::X) || tx.counts(analog::Channel::Y) ||
        !ty.counts(analog::Channel::Y) || ty.counts(analog::Channel::X)) {
        return "counts() wrong across truncation";
    }
    if (tx.total_steps() + ty.total_steps() != plan.total_steps()) {
        return format("total_steps: trunc %" PRIu64 " + %" PRIu64 " != full %" PRIu64,
                      tx.total_steps(), ty.total_steps(), plan.total_steps());
    }

    auto run = [&](const compass::MeasurementPlan& p) {
        Rig rig(c, kind, c.counter_width_bits, false);
        return plan_outcome(rig.compass, p);
    };

    // Re-excite on a fresh pipeline is the identity rewrite.
    const Outcome a = run(plan);
    const Outcome b = run(re);
    if (auto d = diff_outcomes(a, b)) {
        return format("with_re_excite(plan) != plan: %s", d->c_str());
    }
    // The lane batch runs ReExcite as a per-lane stage: a batch of one
    // matches the per-member run.
    {
        Rig rig(c, kind, c.counter_width_bits, false);
        if (auto d = diff_outcomes(b, lanes_outcome(rig.compass, &re))) {
            return format("run_lanes(with_re_excite(plan)) != run: %s", d->c_str());
        }
    }
    // Truncating to the first axis keeps an identical stage prefix, so
    // the kept axis's count is bit-identical to the full plan's.
    const Outcome cx = run(tx);
    if (cx.aborted != a.aborted || (!a.aborted && cx.m.count_x != a.m.count_x)) {
        return format("truncate_to_axis(x) count_x %" PRId64 " != full plan %" PRId64,
                      cx.m.count_x, a.m.count_x);
    }
    // Re-excite idempotence also holds on the truncated (y) rewrite.
    const Outcome dy = run(compass::with_re_excite(ty));
    const Outcome ey = run(ty);
    if (auto d = diff_outcomes(dy, ey)) {
        return format("with_re_excite(truncate(y)) != truncate(y): %s", d->c_str());
    }
    return std::nullopt;
}

std::optional<std::string> run_cordic_atan(const FuzzCase& c) {
    const digital::CordicUnit cordic(c.config.cordic_cycles, c.config.cordic_frac_bits);
    double hd = 0.0;
    try {
        hd = cordic.heading_deg(c.raw_x, c.raw_y);
    } catch (const std::exception& e) {
        return format("heading_deg(%" PRId64 ", %" PRId64 ") threw: %s", c.raw_x,
                      c.raw_y, e.what());
    }
    if (!std::isfinite(hd) || hd < 0.0 || hd >= 360.0) {
        return format("heading_deg(%" PRId64 ", %" PRId64 ") = %.17g out of [0, 360)",
                      c.raw_x, c.raw_y, hd);
    }
    if (c.raw_x == 0 && c.raw_y == 0) {
        return hd == 0.0 ? std::nullopt
                         : std::optional<std::string>(
                               format("heading_deg(0, 0) = %.17g, want 0", hd));
    }
    // Exact cardinals when one axis count is exactly zero — the paper's
    // y-count = 0 edge case must neither NaN nor flip by 180.
    const double cardinal = c.raw_y == 0 ? (c.raw_x > 0 ? 0.0 : 180.0)
                            : c.raw_x == 0 ? (c.raw_y < 0 ? 90.0 : 270.0)
                                           : -1.0;
    if (cardinal >= 0.0 && hd != cardinal) {
        return format("heading_deg(%" PRId64 ", %" PRId64 ") = %.17g, want exactly %g",
                      c.raw_x, c.raw_y, hd, cardinal);
    }
    // Against std::atan2. int64 -> double conversion costs < 1e-13 deg,
    // negligible against the CORDIC bound. The bound itself is the
    // documented residual (last ROM angle + one accumulator LSB) plus
    // the worst-case accumulated ROM rounding (cycles half-LSBs).
    const double ref = magnetics::EarthField::heading_from_components(
        static_cast<double>(c.raw_x), static_cast<double>(c.raw_y));
    const double lsb =
        1.0 / static_cast<double>(std::int64_t{1} << cordic.frac_bits());
    const double bound =
        cordic.error_bound_deg() + 0.5 * cordic.cycles() * lsb + 1e-6;
    const double diff = util::angular_abs_diff_deg(hd, ref);
    if (diff > bound) {
        return format("heading_deg(%" PRId64 ", %" PRId64 ") = %.9f vs atan2 %.9f: "
                      "|diff| %.9f > bound %.9f (cycles=%d frac=%d)",
                      c.raw_x, c.raw_y, hd, ref, diff, bound, cordic.cycles(),
                      cordic.frac_bits());
    }
    return std::nullopt;
}

std::optional<std::string> run_counter_width(const FuzzCase& c) {
    const int w = c.counter_width_bits;
    Rig finite(c, c.config.engine, w, false);
    Rig unbounded(c, c.config.engine, 0, false);
    for (int rep = 0; rep < 2; ++rep) {
        const Outcome f = measure_outcome(finite.compass);
        const Outcome u = measure_outcome(unbounded.compass);
        if (f.aborted || u.aborted) {
            return format("rep %d aborted without a trap: %s%s", rep, f.error.c_str(),
                          u.error.c_str());
        }
        // The register width is purely digital: the analog layer must
        // not notice it.
        if (f.samples != u.samples || f.m.duration_s != u.m.duration_s ||
            f.m.energy_j != u.m.energy_j ||
            f.m.field_in_range != u.m.field_in_range) {
            return format("rep %d: width %d perturbed the analog layer", rep, w);
        }
        for (int ch = 0; ch < 2; ++ch) {
            if (f.stats[ch].samples != u.stats[ch].samples ||
                f.stats[ch].valid_samples != u.stats[ch].valid_samples ||
                f.stats[ch].high_samples != u.stats[ch].high_samples ||
                f.stats[ch].edges != u.stats[ch].edges) {
                return format("rep %d: width %d perturbed stream stats[%d]", rep, w, ch);
            }
        }
        // Wrap is congruence: the finite register equals the unbounded
        // count truncated to w bits, tick for tick.
        if (f.m.count_x != sign_extend(u.m.count_x, w) ||
            f.m.count_y != sign_extend(u.m.count_y, w)) {
            return format("rep %d: width %d counts (%" PRId64 ", %" PRId64
                          ") not congruent to unbounded (%" PRId64 ", %" PRId64 ")",
                          rep, w, f.m.count_x, f.m.count_y, u.m.count_x, u.m.count_y);
        }
        // And with the sticky flag clear, the register never wrapped:
        // results must be exactly the unbounded ones, heading included.
        if (!f.overflowed &&
            (f.m.count_x != u.m.count_x || f.m.count_y != u.m.count_y ||
             f.m.heading_deg != u.m.heading_deg ||
             f.m.heading_float_deg != u.m.heading_float_deg)) {
            return format("rep %d: width %d diverged with overflow flag clear", rep, w);
        }
    }
    return std::nullopt;
}

/// A Rig plus its own trace+probes sink (attached when the case asks
/// for telemetry): the snapshot oracle runs three of these and the
/// sinks must never leak state between them.
struct SnapRig {
    Rig rig;
    telemetry::TraceSession trace;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes;
    telemetry::TeeSink tee;

    explicit SnapRig(const FuzzCase& c)
        : rig(c, c.config.engine, c.counter_width_bits, c.trap_on_overflow),
          probes(registry),
          tee({&trace, &probes}) {
        if (c.with_telemetry) rig.compass.set_telemetry(&tee);
    }
};

std::optional<std::string> run_snapshot_roundtrip(const FuzzCase& c) {
    // Three rigs. A runs all T ticks uninterrupted (the reference) and
    // records each tick's axis fields into a replay log. B runs the
    // same ticks but is snapshotted at the tick-k boundary — its ticks
    // must still match A's (taking a snapshot is observation, not
    // perturbation). C is a fresh rig restored from B's snapshot that
    // replays ticks k..T-1 from the log — every continued tick and the
    // final re-snapshot bytes must be bit-identical to A's.
    const magnetics::EarthField field(magnetics::microtesla(c.field_ut),
                                      c.inclination_deg);
    const int T = c.ticks;
    const int k = c.snapshot_at;

    auto tick = [&](SnapRig& r) {
        return c.use_lanes ? lanes_outcome(r.rig.compass)
                           : measure_outcome(r.rig.compass);
    };
    auto save_opts = [](SnapRig& r) {
        snapshot::SaveOptions opts;
        if (r.rig.injector.armed()) opts.injector = &r.rig.injector;
        return opts;
    };

    SnapRig a(c);
    SnapRig b(c);
    snapshot::ReplayWriter replay;
    std::vector<Outcome> ref;
    std::vector<std::uint8_t> snap;

    for (int t = 0; t < T; ++t) {
        if (t == k) snap = snapshot::snapshot_compass(b.rig.compass, save_opts(b));
        // The per-tick input: a slow heading sweep, recorded as the
        // exact axis fields the sensors saw.
        const double heading = util::wrap_deg_360(c.heading_deg + 23.7 * t);
        a.rig.compass.set_environment(field, heading);
        b.rig.compass.set_environment(field, heading);
        const analog::FrontEnd& fe = a.rig.compass.front_end();
        replay.append({static_cast<std::uint64_t>(t),
                       fe.sensor(analog::Channel::X).external_field(),
                       fe.sensor(analog::Channel::Y).external_field()});
        ref.push_back(tick(a));
        const Outcome ob = tick(b);
        if (auto d = diff_outcomes(ref.back(), ob)) {
            return format("snapshot at boundary %d perturbed the donor, tick %d: %s",
                          k, t, d->c_str());
        }
    }

    SnapRig cc(c);
    try {
        snapshot::RestoreTargets targets;
        if (cc.rig.injector.armed()) targets.injector = &cc.rig.injector;
        snapshot::restore_compass(snap, cc.rig.compass, targets);
    } catch (const std::exception& e) {
        return format("restore at boundary %d failed: %s", k, e.what());
    }

    snapshot::ReplayLog log;
    try {
        log = snapshot::read_replay(replay.bytes());
    } catch (const std::exception& e) {
        return format("replay log round-trip failed: %s", e.what());
    }
    if (log.ticks.size() != static_cast<std::size_t>(T)) {
        return format("replay log has %zu ticks, recorded %d", log.ticks.size(), T);
    }

    for (int t = k; t < T; ++t) {
        const snapshot::TickInput& in = log.ticks[static_cast<std::size_t>(t)];
        if (in.tick != static_cast<std::uint64_t>(t)) {
            return format("replay log tick %d stored as %" PRIu64, t, in.tick);
        }
        cc.rig.compass.set_axis_fields(in.hx_a_per_m, in.hy_a_per_m);
        const Outcome oc = tick(cc);
        if (auto d = diff_outcomes(ref[static_cast<std::size_t>(t)], oc)) {
            return format("restored run diverged at tick %d (snapshot at %d): %s",
                          t, k, d->c_str());
        }
    }

    // Strongest check: the complete serialized state after the final
    // tick — every register, RNG stream, latch and sticky flag — is
    // byte-identical across all three runs.
    const std::vector<std::uint8_t> end_a =
        snapshot::snapshot_compass(a.rig.compass, save_opts(a));
    if (snapshot::snapshot_compass(b.rig.compass, save_opts(b)) != end_a) {
        return "donor's final snapshot bytes diverged from the reference";
    }
    if (snapshot::snapshot_compass(cc.rig.compass, save_opts(cc)) != end_a) {
        return "restored run's final snapshot bytes diverged from the reference";
    }
    return std::nullopt;
}

std::optional<std::string> run_telemetry_identity(const FuzzCase& c) {
    Rig plain(c, c.config.engine, c.counter_width_bits, false);
    Rig traced(c, c.config.engine, c.counter_width_bits, false);
    telemetry::TraceSession trace;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink tee({&trace, &probes});
    traced.compass.set_telemetry(&tee);
    for (int rep = 0; rep < 2; ++rep) {
        const Outcome a = measure_outcome(plain.compass);
        const Outcome b = measure_outcome(traced.compass);
        if (auto d = diff_outcomes(a, b)) {
            return format("telemetry on/off, rep %d: %s", rep, d->c_str());
        }
    }
    if (trace.spans().empty()) {
        return "telemetry identity vacuous: sink attached but nothing traced";
    }
    return std::nullopt;
}

std::optional<std::string> run_scenario_determinism(const FuzzCase& c) {
    // One compiled time-varying scenario (turn leg, optional anomaly,
    // optional interference burst, temperature ramp over temp-sensitive
    // sensors), shared by every rig. Identities checked per tick while
    // the playhead advances across measurements:
    //   * determinism — two identical scalar rigs stay bit-identical;
    //   * scalar vs block — step_block's constant_until chunking;
    //   * scalar vs lanes — run_lanes, which routes the lane per advance
    //     (LaneEngine::plain);
    //   * telemetry — a traced block rig must not perturb anything.
    const compass::MeasurementPlan plan =
        compass::compile_plan(rig_config(c, sim::EngineKind::Scalar));
    const double tick_s = static_cast<double>(plan.total_steps()) * plan.dt_s;
    const double total_s = tick_s * c.ticks;

    magnetics::Scenario scn;
    scn.label = "fuzz";
    scn.field = magnetics::EarthField(magnetics::microtesla(c.field_ut),
                                      c.inclination_deg);
    scn.initial_heading_deg = c.heading_deg;
    scn.hold(0.2 * total_s).turn(c.scn_rate_deg_s, 0.5 * total_s).hold(0.3 * total_s);
    if (c.scn_anomaly_a_per_m != 0.0) {
        scn.anomaly(0.15 * total_s, 0.3 * total_s, c.scn_anomaly_a_per_m,
                    -0.5 * c.scn_anomaly_a_per_m);
    }
    if (c.scn_burst_a_per_m != 0.0) {
        scn.burst(0.45 * total_s, 0.35 * total_s, c.scn_burst_a_per_m,
                  c.scn_burst_hz);
    }
    // The temperature ramps over the turn only, so the stretches before
    // the anomaly and after the burst hold and a lane rig takes the lane
    // kernel there (the compiled scenario clamps outside its points).
    scn.temperature(0.2 * total_s, 25.0).temperature(0.7 * total_s, c.scn_temp_hi_c);

    std::shared_ptr<const magnetics::CompiledScenario> src;
    try {
        src = magnetics::compile_scenario(scn, plan.dt_s);
    } catch (const std::exception& e) {
        return format("compile_scenario failed: %s", e.what());
    }

    Rig s1(c, sim::EngineKind::Scalar, c.counter_width_bits, c.trap_on_overflow);
    Rig s2(c, sim::EngineKind::Scalar, c.counter_width_bits, c.trap_on_overflow);
    Rig bk(c, sim::EngineKind::Block, c.counter_width_bits, c.trap_on_overflow);
    Rig ln(c, sim::EngineKind::Block, c.counter_width_bits, c.trap_on_overflow);
    Rig tr(c, sim::EngineKind::Block, c.counter_width_bits, c.trap_on_overflow);
    s1.compass.set_field_source(src);
    s2.compass.set_field_source(src);
    bk.compass.set_field_source(src);
    ln.compass.set_field_source(src);
    tr.compass.set_field_source(src);
    telemetry::TraceSession trace;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink tee({&trace, &probes});
    if (c.with_telemetry) tr.compass.set_telemetry(&tee);

    for (int t = 0; t < c.ticks; ++t) {
        const double want = src->true_heading_deg(
            s1.compass.front_end().save_window_state().sample_index);
        if (!std::isfinite(want) || want < 0.0 || want >= 360.0) {
            return format("true_heading_deg out of [0, 360) at tick %d: %.17g", t,
                          want);
        }
        const Outcome a = measure_outcome(s1.compass);
        const Outcome a2 = measure_outcome(s2.compass);
        if (auto d = diff_outcomes(a, a2)) {
            return format("scenario determinism, tick %d: %s", t, d->c_str());
        }
        const Outcome b = measure_outcome(bk.compass);
        if (auto d = diff_outcomes(a, b)) {
            return format("scenario scalar vs block, tick %d: %s", t, d->c_str());
        }
        if (c.use_lanes) {
            const Outcome l = lanes_outcome(ln.compass);
            if (auto d = diff_outcomes(a, l)) {
                return format("scenario scalar vs lanes, tick %d: %s", t,
                              d->c_str());
            }
        }
        if (c.with_telemetry) {
            const Outcome o = measure_outcome(tr.compass);
            if (auto d = diff_outcomes(b, o)) {
                return format("scenario telemetry on/off, tick %d: %s", t,
                              d->c_str());
            }
        }
    }
    return std::nullopt;
}

}  // namespace

const char* to_string(Oracle oracle) noexcept {
    switch (oracle) {
        case Oracle::EngineParity: return "EngineParity";
        case Oracle::PlanRewrite: return "PlanRewrite";
        case Oracle::CordicAtan: return "CordicAtan";
        case Oracle::CounterWidth: return "CounterWidth";
        case Oracle::TelemetryIdentity: return "TelemetryIdentity";
        case Oracle::SnapshotRoundTrip: return "SnapshotRoundTrip";
        case Oracle::ScenarioDeterminism: return "ScenarioDeterminism";
    }
    return "?";
}

FuzzCase generate_case(std::uint64_t seed, std::uint64_t index,
                       std::optional<Oracle> force) {
    // splitmix64 over the golden-ratio-stepped index keys the case's
    // counter-based stream: nearby (seed, index) pairs get unrelated
    // streams.
    util::Rng rng(util::splitmix64(seed, index));
    FuzzCase c;
    c.seed = seed;
    c.index = index;
    c.oracle = force.value_or(static_cast<Oracle>(index % kOracleCount));

    compass::CompassConfig& cfg = c.config;
    static constexpr int kSteps[] = {64, 96, 128, 256};
    cfg.steps_per_period = kSteps[rng.uniform_int(0, 3)];
    cfg.periods_per_axis = static_cast<int>(rng.uniform_int(1, 4));
    cfg.settle_periods = static_cast<int>(rng.uniform_int(0, 2));
    cfg.power_gating = rng.chance(0.8);
    cfg.engine = rng.chance(0.5) ? sim::EngineKind::Block : sim::EngineKind::Scalar;
    if (rng.chance(0.4)) {
        // Off-paper CORDIC geometries (the default stays the majority).
        cfg.cordic_cycles = static_cast<int>(rng.uniform_int(6, 12));
        cfg.cordic_frac_bits = static_cast<int>(rng.uniform_int(6, 10));
    }
    // Excitation ratio: scale the drive around the design point (the
    // ratio Ha/Hext is the transfer-law knob the paper sweeps).
    cfg.front_end.oscillator.amplitude_a *= rng.uniform(0.7, 1.3);
    cfg.front_end.sensor_mismatch = rng.uniform(-0.02, 0.02);
    if (rng.chance(0.5)) {
        cfg.front_end.pickup_noise_rms_v = rng.uniform(0.0, 4.0e-3);
        cfg.front_end.noise_seed =
            static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
    }

    c.field_ut = rng.uniform(25.0, 65.0);
    c.inclination_deg = rng.uniform(0.0, 75.0);
    static constexpr double kCardinals[] = {0.0, 90.0, 180.0, 270.0};
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.25) {
        c.heading_deg = kCardinals[rng.uniform_int(0, 3)];
    } else if (pick < 0.40) {
        c.heading_deg = util::wrap_deg_360(kCardinals[rng.uniform_int(0, 3)] +
                                           rng.uniform(-0.5, 0.5));
    } else {
        c.heading_deg = rng.uniform(0.0, 360.0);
    }

    // Stream-fault windows scale with the samples two measurements consume.
    const std::uint64_t window =
        2ull * static_cast<std::uint64_t>(cfg.settle_periods + cfg.periods_per_axis) *
        static_cast<std::uint64_t>(cfg.steps_per_period) * 2ull;

    switch (c.oracle) {
        case Oracle::EngineParity: {
            if (rng.chance(0.4)) {
                // Narrow enough that realistic counts actually wrap.
                c.counter_width_bits = static_cast<int>(rng.uniform_int(8, 14));
                c.trap_on_overflow = rng.chance(0.4);
            }
            const int n = static_cast<int>(rng.uniform_int(0, 2));
            for (int i = 0; i < n; ++i) {
                c.faults.push_back(
                    random_fault_spec(rng, c.counter_width_bits, window, true));
            }
            if (c.counter_width_bits == 0 && rng.chance(0.5)) {
                // A clock below one period per sample, so an ideal
                // register counts under the one-bit clock (the lane
                // kernel's fold); the default clock ticks 2.048 to 8.192
                // times a sample at these step counts.
                const double sample_hz =
                    cfg.front_end.oscillator.frequency_hz * cfg.steps_per_period;
                cfg.counter_clock_hz = std::round(sample_hz * rng.uniform(0.25, 0.95));
            }
            break;
        }
        case Oracle::PlanRewrite: {
            if (rng.chance(0.3)) {
                c.counter_width_bits = static_cast<int>(rng.uniform_int(8, 16));
            }
            const int n = static_cast<int>(rng.uniform_int(0, 2));
            for (int i = 0; i < n; ++i) {
                c.faults.push_back(
                    random_fault_spec(rng, c.counter_width_bits, window, true));
            }
            break;
        }
        case Oracle::CordicAtan: {
            auto component = [&rng]() -> std::int64_t {
                const double r = rng.uniform(0.0, 1.0);
                if (r < 0.08) return 0;
                if (r < 0.12) return std::numeric_limits<std::int64_t>::min();
                if (r < 0.16) return std::numeric_limits<std::int64_t>::max();
                // Log-uniform magnitude across the full register range.
                const int bits = static_cast<int>(rng.uniform_int(1, 62));
                const std::int64_t mag = rng.uniform_int(1, std::int64_t{1} << bits);
                return rng.chance(0.5) ? -mag : mag;
            };
            c.raw_x = component();
            c.raw_y = component();
            if (rng.chance(0.25)) {
                // +-1 LSB around a cardinal: one axis almost zero.
                const std::int64_t lsb = rng.uniform_int(-1, 1);
                if (rng.chance(0.5)) {
                    c.raw_y = lsb;
                } else {
                    c.raw_x = lsb;
                }
            }
            break;
        }
        case Oracle::CounterWidth: {
            // Mostly narrow (wrapping) registers, sometimes wide ones
            // that must pass through untouched.
            c.counter_width_bits = rng.chance(0.7)
                                       ? static_cast<int>(rng.uniform_int(8, 16))
                                       : static_cast<int>(rng.uniform_int(17, 62));
            const int n = static_cast<int>(rng.uniform_int(0, 1));
            for (int i = 0; i < n; ++i) {
                // A stuck register bit genuinely breaks the congruence —
                // every other fault lives upstream of the register.
                c.faults.push_back(
                    random_fault_spec(rng, c.counter_width_bits, window, false));
            }
            break;
        }
        case Oracle::TelemetryIdentity: {
            if (rng.chance(0.3)) {
                c.counter_width_bits = static_cast<int>(rng.uniform_int(8, 14));
            }
            const int n = static_cast<int>(rng.uniform_int(0, 1));
            for (int i = 0; i < n; ++i) {
                c.faults.push_back(
                    random_fault_spec(rng, c.counter_width_bits, window, true));
            }
            break;
        }
        case Oracle::SnapshotRoundTrip: {
            if (rng.chance(0.4)) {
                c.counter_width_bits = static_cast<int>(rng.uniform_int(8, 14));
                c.trap_on_overflow = rng.chance(0.4);
            }
            const int n = static_cast<int>(rng.uniform_int(0, 2));
            for (int i = 0; i < n; ++i) {
                c.faults.push_back(
                    random_fault_spec(rng, c.counter_width_bits, window, true));
            }
            c.ticks = static_cast<int>(rng.uniform_int(2, 4));
            c.snapshot_at = static_cast<int>(rng.uniform_int(1, c.ticks - 1));
            c.with_telemetry = rng.chance(0.5);
            c.use_lanes = rng.chance(0.5);
            break;
        }
        case Oracle::ScenarioDeterminism: {
            // Thermal coefficients so the temperature ramp exercises the
            // core/sensitivity model; the per-axis mismatch is what makes
            // the drift heading-visible.
            cfg.front_end.sensor.ms_temp_coeff_per_c = rng.uniform(-4e-4, 4e-4);
            cfg.front_end.sensor.hk_temp_coeff_per_c = rng.uniform(-4e-4, 4e-4);
            cfg.front_end.sensor.sens_temp_coeff_per_c = rng.uniform(-3e-4, 3e-4);
            cfg.front_end.sensor_temp_mismatch_per_c = rng.uniform(-2e-4, 2e-4);
            if (rng.chance(0.3)) {
                c.counter_width_bits = static_cast<int>(rng.uniform_int(8, 14));
                c.trap_on_overflow = rng.chance(0.4);
            }
            const int n = static_cast<int>(rng.uniform_int(0, 1));
            for (int i = 0; i < n; ++i) {
                c.faults.push_back(
                    random_fault_spec(rng, c.counter_width_bits, window, true));
            }
            c.ticks = static_cast<int>(rng.uniform_int(2, 4));
            c.with_telemetry = rng.chance(0.4);
            c.use_lanes = rng.chance(0.7);
            // A tick lasts a few oscillator periods, so rates/frequencies
            // are scaled up to make the field move visibly inside a run.
            c.scn_rate_deg_s = rng.uniform(-2.0e4, 2.0e4);
            if (rng.chance(0.6)) c.scn_anomaly_a_per_m = rng.uniform(-6.0, 6.0);
            if (rng.chance(0.6)) {
                c.scn_burst_a_per_m = rng.uniform(0.5, 4.0);
                c.scn_burst_hz = rng.uniform(200.0, 5000.0);
            }
            c.scn_temp_hi_c = rng.uniform(-20.0, 60.0);
            break;
        }
    }
    return c;
}

std::optional<std::string> run_case(const FuzzCase& c) {
    switch (c.oracle) {
        case Oracle::EngineParity: return run_engine_parity(c);
        case Oracle::PlanRewrite: return run_plan_rewrite(c);
        case Oracle::CordicAtan: return run_cordic_atan(c);
        case Oracle::CounterWidth: return run_counter_width(c);
        case Oracle::TelemetryIdentity: return run_telemetry_identity(c);
        case Oracle::SnapshotRoundTrip: return run_snapshot_roundtrip(c);
        case Oracle::ScenarioDeterminism: return run_scenario_determinism(c);
    }
    return "unknown oracle";
}

std::string FuzzCase::to_literal() const {
    std::string out = format(
        "verify::FuzzCase{seed=%" PRIu64 ", index=%" PRIu64 ", oracle=%s, "
        "config={engine=%s, spp=%d, periods=%d, settle=%d, gating=%d, "
        "cordic=%d/%d, osc_amp=%.6g, mismatch=%.4g, noise=%.4g/seed %" PRIu64 ", "
        "clock=%.17gHz}, field=%.4guT@%.4gdeg, heading=%.10g, width=%d, trap=%d",
        seed, index, verify::to_string(oracle),
        config.engine == sim::EngineKind::Block ? "Block" : "Scalar",
        config.steps_per_period, config.periods_per_axis, config.settle_periods,
        config.power_gating ? 1 : 0, config.cordic_cycles, config.cordic_frac_bits,
        config.front_end.oscillator.amplitude_a, config.front_end.sensor_mismatch,
        config.front_end.pickup_noise_rms_v, config.front_end.noise_seed,
        config.counter_clock_hz, field_ut,
        inclination_deg, heading_deg, counter_width_bits, trap_on_overflow ? 1 : 0);
    if (oracle == Oracle::CordicAtan) {
        out += format(", raw=(%" PRId64 ", %" PRId64 ")", raw_x, raw_y);
    }
    if (oracle == Oracle::SnapshotRoundTrip) {
        out += format(", ticks=%d, snapshot_at=%d, telemetry=%d, lanes=%d", ticks,
                      snapshot_at, with_telemetry ? 1 : 0, use_lanes ? 1 : 0);
    }
    if (oracle == Oracle::ScenarioDeterminism) {
        out += format(", ticks=%d, telemetry=%d, lanes=%d, scn={rate=%.6g, "
                      "anomaly=%.6g, burst=%.6g@%.6gHz, temp_hi=%.6g, "
                      "tempco=%.4g/%.4g/%.4g, mismatch=%.4g}",
                      ticks, with_telemetry ? 1 : 0, use_lanes ? 1 : 0,
                      scn_rate_deg_s, scn_anomaly_a_per_m, scn_burst_a_per_m,
                      scn_burst_hz, scn_temp_hi_c,
                      config.front_end.sensor.ms_temp_coeff_per_c,
                      config.front_end.sensor.hk_temp_coeff_per_c,
                      config.front_end.sensor.sens_temp_coeff_per_c,
                      config.front_end.sensor_temp_mismatch_per_c);
    }
    out += ", faults=[";
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const fault::FaultSpec& f = faults[i];
        if (i > 0) out += ", ";
        out += format("%s{ch=%c, %s, mag=%.4g, bit=%d/%d, start=%" PRIu64
                      ", dur=%" PRIu64 ", per=%" PRIu64 ", seed=%" PRIu64 "}",
                      fault::to_string(f.fault),
                      f.channel == analog::Channel::X ? 'x' : 'y',
                      fault::to_string(f.persistence), f.magnitude, f.bit,
                      f.bit_high ? 1 : 0, f.start_sample, f.duration_samples,
                      f.period_samples, f.seed);
    }
    out += "]}";
    return out;
}

FuzzReport run_corpus(std::uint64_t seed, std::uint64_t cases,
                      std::size_t max_failures, int threads,
                      std::optional<Oracle> force) {
    FuzzReport report;
    report.cases = cases;
    if (cases == 0) return report;

    std::mutex mutex;
    auto run_one = [&](int i) {
        const FuzzCase c = generate_case(seed, static_cast<std::uint64_t>(i), force);
        std::optional<std::string> mismatch;
        try {
            mismatch = run_case(c);
        } catch (const std::exception& e) {
            mismatch = format("harness exception: %s", e.what());
        }
        if (mismatch) {
            const std::lock_guard<std::mutex> lock(mutex);
            ++report.mismatches;
            report.failures.push_back({c, std::move(*mismatch)});
        }
    };

    if (threads <= 1) {
        for (std::uint64_t i = 0; i < cases; ++i) run_one(static_cast<int>(i));
    } else {
        // Cases are pure functions of (seed, index): fanning them out
        // over the pool cannot change the outcome, only the order
        // failures are observed in — sorted back below.
        util::TaskPool pool;
        pool.parallel_for(static_cast<int>(cases), threads, run_one);
    }

    std::sort(report.failures.begin(), report.failures.end(),
              [](const FuzzFailure& a, const FuzzFailure& b) {
                  return a.failing.index < b.failing.index;
              });
    if (report.failures.size() > max_failures) report.failures.resize(max_failures);
    return report;
}

ChunkResult run_chunk(std::uint64_t seed, std::uint64_t first, std::uint64_t count,
                      int threads, std::optional<Oracle> force) {
    ChunkResult result;
    result.ok.assign(count, 0);
    if (count == 0) return result;

    std::mutex mutex;
    auto run_one = [&](int i) {
        const std::uint64_t index = first + static_cast<std::uint64_t>(i);
        const FuzzCase c = generate_case(seed, index, force);
        std::optional<std::string> mismatch;
        try {
            mismatch = run_case(c);
        } catch (const std::exception& e) {
            mismatch = format("harness exception: %s", e.what());
        }
        if (mismatch) {
            const std::lock_guard<std::mutex> lock(mutex);
            result.failures.push_back({c, std::move(*mismatch)});
        } else {
            // ok[] slots are disjoint per task: no lock needed.
            result.ok[static_cast<std::size_t>(i)] = 1;
        }
    };

    if (threads <= 1) {
        for (std::uint64_t i = 0; i < count; ++i) run_one(static_cast<int>(i));
    } else {
        util::TaskPool pool;
        pool.parallel_for(static_cast<int>(count), threads, run_one);
    }

    std::sort(result.failures.begin(), result.failures.end(),
              [](const FuzzFailure& a, const FuzzFailure& b) {
                  return a.failing.index < b.failing.index;
              });
    return result;
}

}  // namespace fxg::verify
