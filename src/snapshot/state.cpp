#include "snapshot/state.hpp"

#include <array>
#include <bit>
#include <optional>
#include <utility>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace fxg::snapshot {

namespace {

namespace tags {
constexpr std::uint32_t kConfig = section_tag('C', 'F', 'G', '0');
constexpr std::uint32_t kFrontEnd = section_tag('F', 'E', 'N', 'D');
constexpr std::uint32_t kCounter = section_tag('C', 'N', 'T', 'R');
constexpr std::uint32_t kCalibration = section_tag('C', 'A', 'L', '0');
constexpr std::uint32_t kDisplay = section_tag('D', 'I', 'S', 'P');
constexpr std::uint32_t kWatch = section_tag('W', 'T', 'C', 'H');
constexpr std::uint32_t kFaultTap = section_tag('T', 'A', 'P', '0');
constexpr std::uint32_t kPlanRun = section_tag('P', 'R', 'U', 'N');
constexpr std::uint32_t kFleet = section_tag('F', 'L', 'T', '0');
constexpr std::uint32_t kMember = section_tag('M', 'E', 'M', 'B');
constexpr std::uint32_t kSupervisor = section_tag('S', 'U', 'P', 'V');
constexpr std::uint32_t kMetrics = section_tag('M', 'T', 'R', 'S');
}  // namespace tags

// --------------------------------------------------------- fingerprint

/// FNV-1a-64 accumulator over a canonical field encoding (doubles as
/// their IEEE bit patterns, enums as u32, strings length-prefixed).
class Fingerprint {
public:
    void u8(std::uint8_t v) noexcept {
        h_ = (h_ ^ v) * 0x100000001b3ull;
    }
    void u32(std::uint32_t v) noexcept {
        for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) noexcept {
        for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i32(int v) noexcept { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
    void b(bool v) noexcept { u8(v ? 1 : 0); }
    void str(const std::string& s) noexcept {
        u64(s.size());
        for (const char c : s) u8(static_cast<std::uint8_t>(c));
    }

    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV-1a-64 offset basis
};

}  // namespace

std::uint64_t config_fingerprint(const compass::CompassConfig& config) {
    Fingerprint fp;
    const analog::FrontEndConfig& fe = config.front_end;
    fp.f64(fe.oscillator.amplitude_a);
    fp.f64(fe.oscillator.frequency_hz);
    fp.f64(fe.oscillator.dc_offset_a);
    fp.f64(fe.oscillator.amplitude_error);
    fp.f64(fe.oscillator.curvature);
    fp.b(fe.oscillator.offset_correction);
    fp.f64(fe.oscillator.correction_gain);
    fp.f64(fe.oscillator.timing_capacitor_f);
    fp.f64(fe.oscillator.external_resistor_ohm);
    fp.f64(fe.vi.supply_v);
    fp.f64(fe.vi.headroom_v);
    fp.f64(fe.vi.gain_error);
    fp.f64(fe.vi.nonlinearity);
    fp.f64(fe.vi.full_scale_a);
    fp.f64(fe.vi.linearising_r_ohm);
    fp.b(fe.vi.balanced_differential);
    fp.f64(fe.detector.threshold_v);
    fp.f64(fe.detector.comparator_offset_v);
    fp.f64(fe.detector.comparator_hysteresis_v);
    fp.str(fe.sensor.label);
    fp.f64(fe.sensor.n_excitation);
    fp.f64(fe.sensor.n_pickup);
    fp.f64(fe.sensor.r_excitation_ohm);
    fp.f64(fe.sensor.r_pickup_ohm);
    fp.f64(fe.sensor.core_area_m2);
    fp.f64(fe.sensor.core_length_m);
    fp.f64(fe.sensor.ms_a_per_m);
    fp.f64(fe.sensor.hk_a_per_m);
    fp.u32(static_cast<std::uint32_t>(fe.core_kind));
    fp.u32(static_cast<std::uint32_t>(fe.mode));
    fp.f64(fe.mux_settle_s);
    fp.f64(fe.sensor_mismatch);
    fp.f64(fe.pickup_noise_rms_v);
    fp.f64(fe.pickup_noise_bandwidth_hz);
    fp.u64(fe.noise_seed);
    fp.f64(fe.supply_v);
    fp.f64(fe.osc_bias_a);
    fp.f64(fe.vi_bias_a);
    fp.f64(fe.det_bias_a);
    fp.f64(fe.leakage_a);
    fp.f64(config.counter_clock_hz);
    fp.i32(config.periods_per_axis);
    fp.i32(config.settle_periods);
    fp.i32(config.steps_per_period);
    fp.i32(config.cordic_cycles);
    fp.i32(config.cordic_frac_bits);
    fp.b(config.power_gating);
    fp.f64(config.saturation_margin);
    fp.u32(static_cast<std::uint32_t>(config.engine));
    return fp.value();
}

namespace {

// ------------------------------------------------------ field codecs

void put_measurement(SnapshotWriter& w, const compass::Measurement& m) {
    w.put_f64(m.heading_deg);
    w.put_f64(m.heading_float_deg);
    w.put_i64(m.count_x);
    w.put_i64(m.count_y);
    w.put_f64(m.duration_s);
    w.put_f64(m.energy_j);
    w.put_f64(m.avg_power_w);
    w.put_bool(m.field_in_range);
}

compass::Measurement get_measurement(SnapshotReader& r) {
    compass::Measurement m;
    m.heading_deg = r.get_f64();
    m.heading_float_deg = r.get_f64();
    m.count_x = r.get_i64();
    m.count_y = r.get_i64();
    m.duration_s = r.get_f64();
    m.energy_j = r.get_f64();
    m.avg_power_w = r.get_f64();
    m.field_in_range = r.get_bool();
    return m;
}

void put_oscillator(SnapshotWriter& w, const analog::TriangleOscillator& osc) {
    const analog::TriangleOscillator::State s = osc.save_state();
    w.put_f64(s.time_s);
    w.put_f64(s.phase);
    w.put_f64(s.output);
    w.put_f64(s.correction_a);
    w.put_f64(s.period_integral);
    w.put_f64(s.period_time);
    const analog::OscillatorFault& f = osc.fault();
    w.put_f64(f.frequency_scale);
    w.put_f64(f.amplitude_scale);
    w.put_f64(f.extra_dc_a);
    w.put_bool(f.correction_stuck);
}

struct OscillatorState {
    analog::TriangleOscillator::State state;
    analog::OscillatorFault fault;
};

OscillatorState get_oscillator(SnapshotReader& r) {
    OscillatorState o;
    o.state.time_s = r.get_f64();
    o.state.phase = r.get_f64();
    o.state.output = r.get_f64();
    o.state.correction_a = r.get_f64();
    o.state.period_integral = r.get_f64();
    o.state.period_time = r.get_f64();
    o.fault.frequency_scale = r.get_f64();
    o.fault.amplitude_scale = r.get_f64();
    o.fault.extra_dc_a = r.get_f64();
    o.fault.correction_stuck = r.get_bool();
    return o;
}

// ------------------------------------------------------ staging state

/// Everything a compass snapshot carries, decoded but not yet applied.
struct CompassState {
    std::uint64_t fingerprint = 0;

    // FEND
    bool fe_enabled = true;
    analog::FrontEnd::StreamWindowState window;
    std::uint32_t mux_channel = 0;
    double mux_since_switch_s = 0.0;
    bool mux_stuck = false;
    std::uint32_t mux_stuck_channel = 0;
    double noise_filter_state = 0.0;
    std::uint64_t noise_key = 0;
    std::uint64_t noise_counter = 0;
    OscillatorState osc_x;
    OscillatorState osc_y;
    struct SensorState {
        sensor::FluxgateSensor::State state;
        double h_ext = 0.0;
        std::vector<double> core;
    };
    std::array<SensorState, 2> sensors;
    struct DetectorState {
        analog::PulsePositionDetector::State state;
        double offset_fault_v = 0.0;
    };
    std::array<DetectorState, 2> detectors;

    // CNTR
    digital::CounterHardware counter_hw;
    digital::UpDownCounter::FullState counter;

    // CAL0 / DISP / WTCH
    compass::CountCalibration calibration;
    std::uint32_t display_mode = 0;
    std::array<digital::SegmentPattern, 4> display_digits{};
    std::array<int, 4> display_values{};
    digital::Watch::State watch;

    // TAP0 (optional)
    bool has_tap = false;
    fault::FaultInjector::TapState tap;

    // PRUN (optional)
    bool has_plan_run = false;
    compass::PlanRun::State plan_run;
};

// ------------------------------------------------------------- saving

void save_front_end(SnapshotWriter& w, analog::FrontEnd& fe) {
    w.begin_section(tags::kFrontEnd);
    w.put_bool(fe.enabled());

    const analog::FrontEnd::StreamWindowState win = fe.save_window_state();
    for (const analog::StreamStats& st : win.stats) {
        w.put_u64(st.samples);
        w.put_u64(st.valid_samples);
        w.put_u64(st.high_samples);
        w.put_u64(st.edges);
    }
    w.put_u8(win.prev[0]);
    w.put_u8(win.prev[1]);
    w.put_bool(win.has_prev[0]);
    w.put_bool(win.has_prev[1]);
    w.put_u64(win.sample_index);

    const analog::AnalogMux::State mux = fe.mux().save_state();
    w.put_u32(static_cast<std::uint32_t>(mux.channel));
    w.put_f64(mux.since_switch_s);
    w.put_bool(fe.mux_stuck());
    w.put_u32(static_cast<std::uint32_t>(fe.mux_stuck_channel()));

    w.put_f64(fe.noise_filter_state());
    const util::CounterEngine& noise = fe.pickup_noise().rng().engine();
    w.put_u64(noise.key());
    w.put_u64(noise.counter());

    put_oscillator(w, fe.oscillator());
    put_oscillator(w, fe.oscillator_y());

    for (const analog::Channel ch : {analog::Channel::X, analog::Channel::Y}) {
        const sensor::FluxgateSensor& s = fe.sensor(ch);
        const sensor::FluxgateSensor::State st = s.save_state();
        w.put_f64(st.h_core);
        w.put_f64(st.b_core);
        w.put_f64(st.v_pickup);
        w.put_f64(st.v_excitation);
        w.put_f64(st.lambda_pickup_prev);
        w.put_f64(st.lambda_exc_prev);
        w.put_bool(st.first_step);
        w.put_f64(s.external_field());
        const std::vector<double> core = s.core().save_state();
        w.put_u64(core.size());
        for (const double v : core) w.put_f64(v);
    }

    for (const analog::Channel ch : {analog::Channel::X, analog::Channel::Y}) {
        analog::PulsePositionDetector& d = fe.detector(ch);
        const analog::PulsePositionDetector::State st = d.save_state();
        w.put_bool(st.positive);
        w.put_bool(st.negative);
        w.put_bool(st.prev_pos);
        w.put_bool(st.prev_neg);
        w.put_bool(st.out);
        w.put_f64(d.comparator_offset_fault());
    }
    w.end_section();
}

// ------------------------------------------------------------ parsing

void parse_front_end(SnapshotReader& r, CompassState& st) {
    r.enter_section(tags::kFrontEnd);
    st.fe_enabled = r.get_bool();

    for (analog::StreamStats& stats : st.window.stats) {
        stats.samples = r.get_u64();
        stats.valid_samples = r.get_u64();
        stats.high_samples = r.get_u64();
        stats.edges = r.get_u64();
    }
    st.window.prev[0] = r.get_u8();
    st.window.prev[1] = r.get_u8();
    st.window.has_prev[0] = r.get_bool();
    st.window.has_prev[1] = r.get_bool();
    st.window.sample_index = r.get_u64();

    st.mux_channel = r.get_u32();
    st.mux_since_switch_s = r.get_f64();
    st.mux_stuck = r.get_bool();
    st.mux_stuck_channel = r.get_u32();

    st.noise_filter_state = r.get_f64();
    st.noise_key = r.get_u64();
    st.noise_counter = r.get_u64();

    st.osc_x = get_oscillator(r);
    st.osc_y = get_oscillator(r);

    for (CompassState::SensorState& s : st.sensors) {
        s.state.h_core = r.get_f64();
        s.state.b_core = r.get_f64();
        s.state.v_pickup = r.get_f64();
        s.state.v_excitation = r.get_f64();
        s.state.lambda_pickup_prev = r.get_f64();
        s.state.lambda_exc_prev = r.get_f64();
        s.state.first_step = r.get_bool();
        s.h_ext = r.get_f64();
        // No reserve(n): n comes from the file, and the bounds-checked
        // reads must be what rejects a hostile count.
        const std::uint64_t n = r.get_u64();
        s.core.clear();
        for (std::uint64_t i = 0; i < n; ++i) s.core.push_back(r.get_f64());
    }

    for (CompassState::DetectorState& d : st.detectors) {
        d.state.positive = r.get_bool();
        d.state.negative = r.get_bool();
        d.state.prev_pos = r.get_bool();
        d.state.prev_neg = r.get_bool();
        d.state.out = r.get_bool();
        d.offset_fault_v = r.get_f64();
    }
    r.leave_section();
}

CompassState parse_compass_sections(SnapshotReader& r) {
    CompassState st;

    r.enter_section(tags::kConfig);
    st.fingerprint = r.get_u64();
    r.leave_section();

    parse_front_end(r, st);

    r.enter_section(tags::kCounter);
    st.counter_hw.width_bits = static_cast<int>(r.get_i64());
    st.counter_hw.stuck_bit = static_cast<int>(r.get_i64());
    st.counter_hw.stuck_high = r.get_bool();
    st.counter_hw.trap_on_overflow = r.get_bool();
    st.counter.state.tick_accumulator = r.get_f64();
    st.counter.state.count = r.get_i64();
    st.counter.state.active_ticks = r.get_u64();
    st.counter.enabled = r.get_bool();
    st.counter.overflowed = r.get_bool();
    st.counter.trap_pending = r.get_bool();
    r.leave_section();

    r.enter_section(tags::kCalibration);
    st.calibration.offset_x = r.get_i64();
    st.calibration.offset_y = r.get_i64();
    st.calibration.scale_y = r.get_f64();
    r.leave_section();

    r.enter_section(tags::kDisplay);
    st.display_mode = r.get_u32();
    for (digital::SegmentPattern& p : st.display_digits) p = r.get_u8();
    for (int& v : st.display_values) v = static_cast<int>(r.get_i64());
    r.leave_section();

    r.enter_section(tags::kWatch);
    st.watch.phase = r.get_u64();
    st.watch.hours = static_cast<int>(r.get_i64());
    st.watch.minutes = static_cast<int>(r.get_i64());
    st.watch.seconds = static_cast<int>(r.get_i64());
    st.watch.rollovers = r.get_u64();
    st.watch.alarm_armed = r.get_bool();
    st.watch.alarm_fired = r.get_bool();
    st.watch.alarm_second = static_cast<int>(r.get_i64());
    r.leave_section();

    while (!r.at_end()) {
        const std::uint32_t tag = r.peek_tag();
        if (tag == tags::kFaultTap) {
            r.enter_section(tags::kFaultTap);
            st.has_tap = true;
            st.tap.base_sample = r.get_u64();
            const std::uint64_t n = r.get_u64();
            st.tap.frozen.clear();
            st.tap.has_frozen.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                st.tap.frozen.push_back(r.get_u8());
                st.tap.has_frozen.push_back(r.get_u8());
            }
            r.leave_section();
        } else if (tag == tags::kPlanRun) {
            r.enter_section(tags::kPlanRun);
            st.has_plan_run = true;
            st.plan_run.next_stage = r.get_u32();
            st.plan_run.m = get_measurement(r);
            st.plan_run.raw_x = r.get_i64();
            st.plan_run.raw_y = r.get_i64();
            st.plan_run.pending_settle_steps = static_cast<int>(r.get_i64());
            st.plan_run.ran_cordic = r.get_bool();
            st.plan_run.cordic.angle_deg = r.get_f64();
            st.plan_run.cordic.res_raw = r.get_i64();
            st.plan_run.cordic.rotations = static_cast<int>(r.get_i64());
            st.plan_run.cordic.x_final = r.get_i64();
            st.plan_run.cordic.y_final = r.get_i64();
            r.leave_section();
        } else {
            break;  // not ours (e.g. the next MEMB in a fleet container)
        }
    }
    return st;
}

// --------------------------------------------------------- validating

/// Cross-checks the staged state against the live target. Throws
/// SnapshotError; the target is not touched.
void validate_compass_state(const CompassState& st, compass::Compass& target,
                            const RestoreTargets& targets) {
    const std::uint64_t want = config_fingerprint(target.config());
    if (st.fingerprint != want) {
        throw SnapshotError(
            "snapshot config fingerprint mismatch: state only restores onto "
            "an identically configured compass");
    }
    if (st.mux_channel > 1 || st.mux_stuck_channel > 1) {
        throw SnapshotError("snapshot mux channel out of range");
    }
    if (st.display_mode > 1) {
        throw SnapshotError("snapshot display mode out of range");
    }

    analog::FrontEnd& fe = target.front_end();
    for (int ch = 0; ch < 2; ++ch) {
        const std::size_t expect =
            fe.sensor(static_cast<analog::Channel>(ch)).core().save_state().size();
        if (st.sensors[static_cast<std::size_t>(ch)].core.size() != expect) {
            throw SnapshotError("snapshot core-model state size mismatch");
        }
    }

    try {
        digital::UpDownCounter scratch;
        scratch.set_hardware(st.counter_hw);
    } catch (const std::invalid_argument& e) {
        throw SnapshotError(std::string("snapshot counter hardware invalid: ") +
                            e.what());
    }

    const bool injector_armed =
        targets.injector != nullptr && targets.injector->armed();
    if (st.has_tap != injector_armed) {
        throw SnapshotError(
            st.has_tap
                ? "snapshot carries fault-tap state but no armed injector target"
                : "armed injector target but the snapshot carries no fault-tap state");
    }
    if (st.has_tap &&
        st.tap.frozen.size() != targets.injector->specs().size()) {
        throw SnapshotError("snapshot fault-tap spec count mismatch");
    }

    if (st.has_plan_run != (targets.plan_run != nullptr)) {
        throw SnapshotError(
            st.has_plan_run
                ? "snapshot carries a plan-run position but no PlanRun target"
                : "PlanRun target but the snapshot carries no plan-run position");
    }
    if (st.has_plan_run &&
        st.plan_run.next_stage > targets.plan_run->plan().stages.size()) {
        throw SnapshotError("snapshot plan-run stage index out of range");
    }
}

// ----------------------------------------------------------- applying

/// Pure noexcept-seam mutation; every operation below was validated.
void apply_compass_state(CompassState& st, compass::Compass& target,
                         const RestoreTargets& targets) {
    analog::FrontEnd& fe = target.front_end();
    fe.enable(st.fe_enabled);
    fe.load_window_state(st.window);
    fe.mux().load_state({static_cast<analog::Channel>(st.mux_channel),
                         st.mux_since_switch_s});
    fe.restore_mux_stuck(st.mux_stuck,
                         static_cast<analog::Channel>(st.mux_stuck_channel));
    fe.set_noise_filter_state(st.noise_filter_state);
    util::CounterEngine& noise = fe.pickup_noise().rng().engine();
    noise.seed(st.noise_key);
    noise.discard(st.noise_counter);

    fe.oscillator().load_state(st.osc_x.state);
    fe.oscillator().set_fault(st.osc_x.fault);
    fe.oscillator_y().load_state(st.osc_y.state);
    fe.oscillator_y().set_fault(st.osc_y.fault);

    for (int ch = 0; ch < 2; ++ch) {
        const auto channel = static_cast<analog::Channel>(ch);
        CompassState::SensorState& src = st.sensors[static_cast<std::size_t>(ch)];
        sensor::FluxgateSensor& s = fe.sensor_mut(channel);
        s.load_state(src.state);
        s.set_external_field(src.h_ext);
        s.core_mut().load_state(src.core);  // size pre-validated

        CompassState::DetectorState& dsrc =
            st.detectors[static_cast<std::size_t>(ch)];
        analog::PulsePositionDetector& d = fe.detector(channel);
        d.load_state(dsrc.state);
        d.set_comparator_offset_fault(dsrc.offset_fault_v);
    }

    target.counter().set_hardware(st.counter_hw);  // geometry pre-validated
    target.counter().load_full_state(st.counter);

    target.set_calibration(st.calibration);

    target.display().load_state(
        {static_cast<digital::DisplayMode>(st.display_mode), st.display_digits,
         st.display_values});
    target.watch().load_state(st.watch);

    if (st.has_tap) {
        targets.injector->load_tap_state(st.tap);  // spec count pre-validated
    }
    if (st.has_plan_run) {
        targets.plan_run->load_state(st.plan_run);  // stage pre-validated
    }
}

}  // namespace

// -------------------------------------------------------- compass API

void save_compass_sections(SnapshotWriter& w, compass::Compass& compass,
                           const SaveOptions& opts) {
    w.begin_section(tags::kConfig);
    w.put_u64(config_fingerprint(compass.config()));
    w.end_section();

    save_front_end(w, compass.front_end());

    const digital::UpDownCounter& counter = compass.counter();
    w.begin_section(tags::kCounter);
    w.put_i64(counter.hardware().width_bits);
    w.put_i64(counter.hardware().stuck_bit);
    w.put_bool(counter.hardware().stuck_high);
    w.put_bool(counter.hardware().trap_on_overflow);
    const digital::UpDownCounter::FullState full = counter.save_full_state();
    w.put_f64(full.state.tick_accumulator);
    w.put_i64(full.state.count);
    w.put_u64(full.state.active_ticks);
    w.put_bool(full.enabled);
    w.put_bool(full.overflowed);
    w.put_bool(full.trap_pending);
    w.end_section();

    w.begin_section(tags::kCalibration);
    w.put_i64(compass.calibration().offset_x);
    w.put_i64(compass.calibration().offset_y);
    w.put_f64(compass.calibration().scale_y);
    w.end_section();

    const digital::DisplayDriver::State disp = compass.display().save_state();
    w.begin_section(tags::kDisplay);
    w.put_u32(static_cast<std::uint32_t>(disp.mode));
    for (const digital::SegmentPattern p : disp.digits) w.put_u8(p);
    for (const int v : disp.values) w.put_i64(v);
    w.end_section();

    const digital::Watch::State watch = compass.watch().save_state();
    w.begin_section(tags::kWatch);
    w.put_u64(watch.phase);
    w.put_i64(watch.hours);
    w.put_i64(watch.minutes);
    w.put_i64(watch.seconds);
    w.put_u64(watch.rollovers);
    w.put_bool(watch.alarm_armed);
    w.put_bool(watch.alarm_fired);
    w.put_i64(watch.alarm_second);
    w.end_section();

    if (opts.injector != nullptr && opts.injector->armed()) {
        const fault::FaultInjector::TapState tap = opts.injector->save_tap_state();
        w.begin_section(tags::kFaultTap);
        w.put_u64(tap.base_sample);
        w.put_u64(tap.frozen.size());
        for (std::size_t i = 0; i < tap.frozen.size(); ++i) {
            w.put_u8(tap.frozen[i]);
            w.put_u8(tap.has_frozen[i]);
        }
        w.end_section();
    }

    if (opts.plan_run != nullptr) {
        const compass::PlanRun::State run = opts.plan_run->save_state();
        w.begin_section(tags::kPlanRun);
        w.put_u32(run.next_stage);
        put_measurement(w, run.m);
        w.put_i64(run.raw_x);
        w.put_i64(run.raw_y);
        w.put_i64(run.pending_settle_steps);
        w.put_bool(run.ran_cordic);
        w.put_f64(run.cordic.angle_deg);
        w.put_i64(run.cordic.res_raw);
        w.put_i64(run.cordic.rotations);
        w.put_i64(run.cordic.x_final);
        w.put_i64(run.cordic.y_final);
        w.end_section();
    }
}

std::vector<std::uint8_t> snapshot_compass(compass::Compass& compass,
                                           const SaveOptions& opts) {
    SnapshotWriter w;
    save_compass_sections(w, compass, opts);
    return w.finish();
}

void restore_compass_sections(SnapshotReader& r, compass::Compass& compass,
                              const RestoreTargets& targets) {
    CompassState st = parse_compass_sections(r);
    validate_compass_state(st, compass, targets);
    apply_compass_state(st, compass, targets);
}

void restore_compass(std::span<const std::uint8_t> bytes,
                     compass::Compass& compass, const RestoreTargets& targets) {
    SnapshotReader r(bytes);
    restore_compass_sections(r, compass, targets);
}

// ---------------------------------------------------------- fleet API

std::vector<std::uint8_t> snapshot_fleet(compass::CompassFleet& fleet) {
    SnapshotWriter w;
    w.begin_section(tags::kFleet);
    w.put_u64(static_cast<std::uint64_t>(fleet.size()));
    w.end_section();
    for (int i = 0; i < fleet.size(); ++i) {
        w.begin_section(tags::kMember);
        w.put_u64(static_cast<std::uint64_t>(i));
        save_compass_sections(w, fleet.at(i));
        w.end_section();
    }
    return w.finish();
}

void restore_fleet(std::span<const std::uint8_t> bytes,
                   compass::CompassFleet& fleet) {
    SnapshotReader r(bytes);
    r.enter_section(tags::kFleet);
    const std::uint64_t count = r.get_u64();
    r.leave_section();
    if (count != static_cast<std::uint64_t>(fleet.size())) {
        throw SnapshotError("snapshot fleet size mismatch: file has " +
                            std::to_string(count) + " members, fleet has " +
                            std::to_string(fleet.size()));
    }

    // Parse and validate every member before mutating any — a bad
    // member anywhere leaves the whole fleet untouched.
    std::vector<CompassState> staged;
    staged.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < fleet.size(); ++i) {
        r.enter_section(tags::kMember);
        const std::uint64_t index = r.get_u64();
        if (index != static_cast<std::uint64_t>(i)) {
            throw SnapshotError("snapshot fleet member index out of order");
        }
        CompassState st = parse_compass_sections(r);
        r.leave_section();
        validate_compass_state(st, fleet.at(i), {});
        staged.push_back(std::move(st));
    }

    for (int i = 0; i < fleet.size(); ++i) {
        apply_compass_state(staged[static_cast<std::size_t>(i)], fleet.at(i), {});
    }
}

std::vector<std::uint8_t> snapshot_member(compass::CompassFleet& fleet,
                                          int index, const SaveOptions& opts) {
    return snapshot_compass(fleet.at(index), opts);
}

void restore_member(std::span<const std::uint8_t> bytes,
                    compass::CompassFleet& fleet, int index,
                    const RestoreTargets& targets) {
    restore_compass(bytes, fleet.at(index), targets);
}

// ----------------------------------------------------- supervisor API

namespace {

void put_health_report(SnapshotWriter& w, const fault::HealthReport& h) {
    w.put_bool(h.ok);
    w.put_u64(h.findings.size());
    for (const fault::HealthFinding& f : h.findings) {
        w.put_u32(static_cast<std::uint32_t>(f.code));
        w.put_u32(static_cast<std::uint32_t>(f.channel));
        w.put_bool(f.channel_specific);
        w.put_string(f.detail);
    }
    w.put_f64(h.est_hx_a_per_m);
    w.put_f64(h.est_hy_a_per_m);
    w.put_f64(h.est_horizontal_ut);
    w.put_f64(h.duty_x);
    w.put_f64(h.duty_y);
    w.put_f64(h.edge_rate_x);
    w.put_f64(h.edge_rate_y);
}

fault::HealthReport get_health_report(SnapshotReader& r) {
    fault::HealthReport h;
    h.ok = r.get_bool();
    const std::uint64_t n = r.get_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        fault::HealthFinding f;
        const std::uint32_t code = r.get_u32();
        const std::uint32_t channel = r.get_u32();
        if (code > static_cast<std::uint32_t>(fault::FaultCode::MeasurementAborted) ||
            channel > 1) {
            throw SnapshotError("snapshot health finding out of range");
        }
        f.code = static_cast<fault::FaultCode>(code);
        f.channel = static_cast<analog::Channel>(channel);
        f.channel_specific = r.get_bool();
        f.detail = r.get_string();
        h.findings.push_back(std::move(f));
    }
    h.est_hx_a_per_m = r.get_f64();
    h.est_hy_a_per_m = r.get_f64();
    h.est_horizontal_ut = r.get_f64();
    h.duty_x = r.get_f64();
    h.duty_y = r.get_f64();
    h.edge_rate_x = r.get_f64();
    h.edge_rate_y = r.get_f64();
    return h;
}

}  // namespace

std::vector<std::uint8_t> snapshot_supervisor(
    const fault::MeasurementSupervisor& supervisor) {
    const fault::MeasurementSupervisor::LadderState ladder =
        supervisor.save_ladder_state();
    SnapshotWriter w;
    w.begin_section(tags::kSupervisor);
    w.put_bool(ladder.last_good.has_value());
    if (ladder.last_good.has_value()) {
        const fault::SupervisedMeasurement& sm = *ladder.last_good;
        put_measurement(w, sm.measurement);
        put_health_report(w, sm.health);
        w.put_u32(static_cast<std::uint32_t>(sm.status));
        w.put_f64(sm.heading_deg);
        w.put_i64(sm.attempts);
        w.put_bool(sm.stale);
        w.put_f64(sm.staleness_s);
        w.put_string(sm.diagnostics);
    }
    w.put_f64(ladder.staleness_s);
    w.put_f64(ladder.filter.x);
    w.put_f64(ladder.filter.y);
    w.put_bool(ladder.filter.primed);
    w.end_section();
    return w.finish();
}

void restore_supervisor(std::span<const std::uint8_t> bytes,
                        fault::MeasurementSupervisor& supervisor) {
    SnapshotReader r(bytes);
    fault::MeasurementSupervisor::LadderState ladder;
    r.enter_section(tags::kSupervisor);
    if (r.get_bool()) {
        fault::SupervisedMeasurement sm;
        sm.measurement = get_measurement(r);
        sm.health = get_health_report(r);
        const std::uint32_t status = r.get_u32();
        if (status > static_cast<std::uint32_t>(fault::SupervisedStatus::Failed)) {
            throw SnapshotError("snapshot supervised status out of range");
        }
        sm.status = static_cast<fault::SupervisedStatus>(status);
        sm.heading_deg = r.get_f64();
        sm.attempts = static_cast<int>(r.get_i64());
        sm.stale = r.get_bool();
        sm.staleness_s = r.get_f64();
        sm.diagnostics = r.get_string();
        ladder.last_good = std::move(sm);
    }
    ladder.staleness_s = r.get_f64();
    ladder.filter.x = r.get_f64();
    ladder.filter.y = r.get_f64();
    ladder.filter.primed = r.get_bool();
    r.leave_section();
    supervisor.load_ladder_state(ladder);
}

// -------------------------------------------------------- metrics API

std::vector<std::uint8_t> snapshot_metrics(
    const telemetry::MetricsRegistry& registry) {
    const std::vector<telemetry::MetricsRegistry::Entry> entries =
        registry.entries();
    SnapshotWriter w;
    w.begin_section(tags::kMetrics);
    w.put_u64(entries.size());
    for (const telemetry::MetricsRegistry::Entry& e : entries) {
        w.put_u8(static_cast<std::uint8_t>(e.kind));
        w.put_string(e.name);
        w.put_string(e.unit);
        switch (e.kind) {
            case telemetry::MetricKind::Counter:
                w.put_u64(e.counter->value());
                break;
            case telemetry::MetricKind::Gauge:
                w.put_f64(e.gauge->value());
                break;
            case telemetry::MetricKind::Histogram: {
                const std::vector<double>& bounds = e.histogram->bounds();
                w.put_u64(bounds.size());
                for (const double b : bounds) w.put_f64(b);
                for (std::size_t i = 0; i <= bounds.size(); ++i) {
                    w.put_u64(e.histogram->bucket_count(i));
                }
                w.put_u64(e.histogram->count());
                w.put_f64(e.histogram->sum());
                break;
            }
        }
    }
    w.end_section();
    return w.finish();
}

namespace {

struct MetricState {
    telemetry::MetricKind kind = telemetry::MetricKind::Counter;
    std::string name;
    std::string unit;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t hist_count = 0;
    double hist_sum = 0.0;
};

}  // namespace

void restore_metrics(std::span<const std::uint8_t> bytes,
                     telemetry::MetricsRegistry& registry) {
    SnapshotReader r(bytes);
    r.enter_section(tags::kMetrics);
    const std::uint64_t n = r.get_u64();
    std::vector<MetricState> staged;  // no reserve: n comes from the file
    for (std::uint64_t i = 0; i < n; ++i) {
        MetricState m;
        const std::uint8_t kind = r.get_u8();
        if (kind > static_cast<std::uint8_t>(telemetry::MetricKind::Histogram)) {
            throw SnapshotError("snapshot metric kind out of range");
        }
        m.kind = static_cast<telemetry::MetricKind>(kind);
        m.name = r.get_string();
        m.unit = r.get_string();
        switch (m.kind) {
            case telemetry::MetricKind::Counter:
                m.counter_value = r.get_u64();
                break;
            case telemetry::MetricKind::Gauge:
                m.gauge_value = r.get_f64();
                break;
            case telemetry::MetricKind::Histogram: {
                const std::uint64_t nb = r.get_u64();
                for (std::uint64_t b = 0; b < nb; ++b) {
                    m.bounds.push_back(r.get_f64());
                }
                for (std::uint64_t b = 0; b <= nb; ++b) {
                    m.buckets.push_back(r.get_u64());
                }
                m.hist_count = r.get_u64();
                m.hist_sum = r.get_f64();
                if (m.bounds.empty()) {
                    throw SnapshotError("snapshot histogram without bounds");
                }
                for (std::size_t b = 1; b < m.bounds.size(); ++b) {
                    if (!(m.bounds[b - 1] < m.bounds[b])) {
                        throw SnapshotError(
                            "snapshot histogram bounds not strictly increasing");
                    }
                }
                break;
            }
        }
        staged.push_back(std::move(m));
    }
    r.leave_section();

    // Validate against what the registry already holds before touching
    // anything: a kind conflict (or histogram-bounds conflict) anywhere
    // must leave every instrument unchanged.
    const std::vector<telemetry::MetricsRegistry::Entry> existing =
        registry.entries();
    for (const MetricState& m : staged) {
        for (const telemetry::MetricsRegistry::Entry& e : existing) {
            if (e.name != m.name) continue;
            if (e.kind != m.kind) {
                throw SnapshotError("snapshot metric '" + m.name +
                                    "' conflicts with a registered instrument "
                                    "of another kind");
            }
            if (m.kind == telemetry::MetricKind::Histogram &&
                e.histogram->bounds() != m.bounds) {
                throw SnapshotError("snapshot histogram '" + m.name +
                                    "' bounds conflict with the registered "
                                    "instrument");
            }
        }
    }

    for (const MetricState& m : staged) {
        switch (m.kind) {
            case telemetry::MetricKind::Counter:
                registry.counter(m.name, m.unit).load(m.counter_value);
                break;
            case telemetry::MetricKind::Gauge:
                registry.gauge(m.name, m.unit).set(m.gauge_value);
                break;
            case telemetry::MetricKind::Histogram:
                registry.histogram(m.name, m.bounds, m.unit)
                    .load(m.buckets, m.hist_count, m.hist_sum);
                break;
        }
    }
}

}  // namespace fxg::snapshot
