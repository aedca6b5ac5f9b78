#include "snapshot/state.hpp"

#include <array>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/compass_fleet.hpp"
#include "snapshot/fields.hpp"
#include "telemetry/metrics.hpp"
#include "util/endian.hpp"
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

// ------------------------------------------------------ staging state

struct OscillatorState {
    analog::TriangleOscillator::State state;
    analog::OscillatorFault fault;
};

template <class Io, record_of<OscillatorState> S>
void fields(Io& io, S& s) {
    auto& [state, fault] = s;
    walk(io, state, fault);
}

struct SensorState {
    sensor::FluxgateSensor::State state;
    double h_ext = 0.0;
    std::vector<double> core;
};

template <class Io, record_of<SensorState> S>
void fields(Io& io, S& s) {
    auto& [state, h_ext, core] = s;
    walk(io, state, h_ext, core);
}

struct DetectorState {
    analog::PulsePositionDetector::State state;
    double offset_fault_v = 0.0;
};

template <class Io, record_of<DetectorState> S>
void fields(Io& io, S& s) {
    auto& [state, offset_fault_v] = s;
    walk(io, state, offset_fault_v);
}

/// The FEND section: the front end's complete analogue state.
struct FrontEndState {
    bool enabled = true;
    analog::FrontEnd::StreamWindowState window;
    analog::AnalogMux::State mux;
    bool mux_stuck = false;
    analog::Channel mux_stuck_channel = analog::Channel::X;
    double noise_filter_state = 0.0;
    std::uint64_t noise_key = 0;  ///< pickup-noise CounterEngine
    std::uint64_t noise_counter = 0;
    std::array<OscillatorState, 2> oscillators;  ///< x, then y
    std::array<SensorState, 2> sensors;
    std::array<DetectorState, 2> detectors;
};

template <class Io, record_of<FrontEndState> S>
void fields(Io& io, S& s) {
    auto& [enabled, window, mux, mux_stuck, mux_stuck_channel, noise_filter_state,
           noise_key, noise_counter, oscillators, sensors, detectors] = s;
    walk(io, enabled, window, mux, mux_stuck, mux_stuck_channel, noise_filter_state,
         noise_key, noise_counter, oscillators, sensors, detectors);
}

/// Everything a compass snapshot carries, one member per section.
struct CompassState {
    std::uint64_t fingerprint = 0;
    FrontEndState front_end;
    digital::CounterHardware counter_hw;
    digital::UpDownCounter::FullState counter;
    compass::CountCalibration calibration;
    digital::DisplayDriver::State display;
    digital::Watch::State watch;
    std::optional<fault::FaultInjector::TapState> tap;
    std::optional<compass::PlanRun::State> plan_run;
};

template <class Io, record_of<CompassState> S>
void fields(Io& io, S& s) {
    auto& [fingerprint, front_end, counter_hw, counter, calibration, display, watch,
           tap, plan_run] = s;
    io.section(tags::kConfig, [&] { walk(io, fingerprint); });
    io.section(tags::kFrontEnd, [&] { walk(io, front_end); });
    io.section(tags::kCounter, [&] { walk(io, counter_hw, counter); });
    io.section(tags::kCalibration, [&] { walk(io, calibration); });
    io.section(tags::kDisplay, [&] { walk(io, display); });
    io.section(tags::kWatch, [&] { walk(io, watch); });
    optional_section(io, tags::kFaultTap, tap);
    optional_section(io, tags::kPlanRun, plan_run);
}

/// FNV-1a-64 over the bytes a SnapshotWriter would emit, folded in as
/// the walk emits them.
class ConfigHasher {
public:
    static constexpr bool kReads = false;

    template <class T>
    void operator()(const T& v) {
        emit(*this, v);
    }

    template <class W>
    void put_word(W w) noexcept {
        std::uint8_t b[sizeof w];
        util::store_le(b, w);
        put_bytes(b, sizeof w);
    }

    void put_bytes(const std::uint8_t* data, std::size_t n) noexcept {
        for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ data[i]) * 0x100000001b3ull;
    }

    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV-1a-64 offset basis
};

}  // namespace

std::uint64_t config_fingerprint(const compass::CompassConfig& config) {
    ConfigHasher h;
    fields(h, config);
    return h.value();
}

namespace {

// ---------------------------------------------------------- capturing

/// The live compass as a staging record: the mirror of
/// apply_compass_state.
CompassState capture(compass::Compass& c, const SaveOptions& opts) {
    CompassState st;
    st.fingerprint = config_fingerprint(c.config());

    analog::FrontEnd& fe = c.front_end();
    FrontEndState& f = st.front_end;
    f.enabled = fe.enabled();
    f.window = fe.save_window_state();
    f.mux = fe.mux().save_state();
    f.mux_stuck = fe.mux_stuck();
    f.mux_stuck_channel = fe.mux_stuck_channel();
    f.noise_filter_state = fe.noise_filter_state();
    const util::CounterEngine& noise = fe.pickup_noise().rng().engine();
    f.noise_key = noise.key();
    f.noise_counter = noise.counter();
    f.oscillators = {
        OscillatorState{fe.oscillator().save_state(), fe.oscillator().fault()},
        OscillatorState{fe.oscillator_y().save_state(), fe.oscillator_y().fault()}};
    for (std::size_t ch = 0; ch < 2; ++ch) {
        const auto channel = static_cast<analog::Channel>(ch);
        const sensor::FluxgateSensor& s = fe.sensor(channel);
        f.sensors[ch] = {s.save_state(), s.external_field(), s.core().save_state()};
        const analog::PulsePositionDetector& d = fe.detector(channel);
        f.detectors[ch] = {d.save_state(), d.comparator_offset_fault()};
    }

    st.counter_hw = c.counter().hardware();
    st.counter = c.counter().save_full_state();
    st.calibration = c.calibration();
    st.display = c.display().save_state();
    st.watch = c.watch().save_state();
    if (opts.injector != nullptr && opts.injector->armed()) {
        st.tap = opts.injector->save_tap_state();
    }
    if (opts.plan_run != nullptr) st.plan_run = opts.plan_run->save_state();
    return st;
}

// --------------------------------------------------------- validating

/// An enum read from a file is in range when its wire value does not
/// exceed the last enumerator's.
template <class E>
bool within(E v, E last) noexcept {
    return to_wire(v) <= to_wire(last);
}

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
    const FrontEndState& f = st.front_end;
    if (!within(f.mux.channel, analog::Channel::Y) ||
        !within(f.mux_stuck_channel, analog::Channel::Y)) {
        throw SnapshotError("snapshot mux channel out of range");
    }
    if (!within(st.display.mode, digital::DisplayMode::Time)) {
        throw SnapshotError("snapshot display mode out of range");
    }

    analog::FrontEnd& fe = target.front_end();
    for (std::size_t ch = 0; ch < 2; ++ch) {
        const std::size_t expect =
            fe.sensor(static_cast<analog::Channel>(ch)).core().save_state().size();
        if (f.sensors[ch].core.size() != expect) {
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
    // UpDownCounter::clock_step always leaves the accumulator in [0, 1);
    // anything else (NaN included) is a state no run can reach, and a
    // huge one would overflow the tick count's integer conversion.
    const double acc = st.counter.state.tick_accumulator;
    if (!(acc >= 0.0 && acc < 1.0)) {
        throw SnapshotError("snapshot counter tick accumulator outside [0, 1)");
    }

    const bool injector_armed =
        targets.injector != nullptr && targets.injector->armed();
    if (st.tap.has_value() != injector_armed) {
        throw SnapshotError(
            st.tap.has_value()
                ? "snapshot carries fault-tap state but no armed injector target"
                : "armed injector target but the snapshot carries no fault-tap state");
    }
    if (st.tap.has_value() &&
        st.tap->frozen.size() != targets.injector->specs().size()) {
        throw SnapshotError("snapshot fault-tap spec count mismatch");
    }

    if (st.plan_run.has_value() != (targets.plan_run != nullptr)) {
        throw SnapshotError(
            st.plan_run.has_value()
                ? "snapshot carries a plan-run position but no PlanRun target"
                : "PlanRun target but the snapshot carries no plan-run position");
    }
    if (st.plan_run.has_value() &&
        !compass::PlanRun::reachable(targets.plan_run->plan(), *st.plan_run)) {
        throw SnapshotError("snapshot plan-run position no run of the plan reaches");
    }
}

// ----------------------------------------------------------- applying

/// Pure noexcept-seam mutation; every operation below was validated.
void apply_compass_state(const CompassState& st, compass::Compass& target,
                         const RestoreTargets& targets) {
    analog::FrontEnd& fe = target.front_end();
    const FrontEndState& f = st.front_end;
    fe.enable(f.enabled);
    fe.load_window_state(f.window);
    fe.mux().load_state(f.mux);
    fe.restore_mux_stuck(f.mux_stuck, f.mux_stuck_channel);
    fe.set_noise_filter_state(f.noise_filter_state);
    util::CounterEngine& noise = fe.pickup_noise().rng().engine();
    noise.seed(f.noise_key);
    noise.discard(f.noise_counter);

    analog::TriangleOscillator* oscillators[2] = {&fe.oscillator(), &fe.oscillator_y()};
    for (std::size_t ch = 0; ch < 2; ++ch) {
        oscillators[ch]->load_state(f.oscillators[ch].state);
        oscillators[ch]->set_fault(f.oscillators[ch].fault);

        const auto channel = static_cast<analog::Channel>(ch);
        sensor::FluxgateSensor& s = fe.sensor_mut(channel);
        s.load_state(f.sensors[ch].state);
        s.set_external_field(f.sensors[ch].h_ext);
        s.core_mut().load_state(f.sensors[ch].core);  // size pre-validated

        analog::PulsePositionDetector& d = fe.detector(channel);
        d.load_state(f.detectors[ch].state);
        d.set_comparator_offset_fault(f.detectors[ch].offset_fault_v);
    }

    target.counter().set_hardware(st.counter_hw);  // geometry pre-validated
    target.counter().load_full_state(st.counter);
    target.set_calibration(st.calibration);
    target.display().load_state(st.display);
    target.watch().load_state(st.watch);

    if (st.tap.has_value()) {
        targets.injector->load_tap_state(*st.tap);  // spec count pre-validated
    }
    if (st.plan_run.has_value()) {
        targets.plan_run->load_state(*st.plan_run);  // position pre-validated
    }
}

/// The fleet container: FLT0 holds the member count, then one MEMB
/// section per member holds its index and the compass sections that
/// `member(i)` walks. Members stream through one at a time, so a
/// snapshot never holds a second copy of the fleet's state.
template <class Io, class Member>
void fleet_fields(Io& io, std::uint64_t& count, Member&& member) {
    io.section(tags::kFleet, [&] { walk(io, count); });
    for (std::uint64_t i = 0; i < count; ++i) {
        io.section(tags::kMember, [&] {
            std::uint64_t index = i;
            walk(io, index);
            if (index != i) {
                throw SnapshotError("snapshot fleet member index out of order");
            }
            member(i);
        });
    }
}

}  // namespace

// -------------------------------------------------------- compass API

void save_compass_sections(SnapshotWriter& w, compass::Compass& compass,
                           const SaveOptions& opts) {
    const CompassState st = capture(compass, opts);
    fields(w, st);
}

std::vector<std::uint8_t> snapshot_compass(compass::Compass& compass,
                                           const SaveOptions& opts) {
    SnapshotWriter w;
    save_compass_sections(w, compass, opts);
    return w.finish();
}

void restore_compass_sections(SnapshotReader& r, compass::Compass& compass,
                              const RestoreTargets& targets) {
    CompassState st;
    fields(r, st);
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
    std::uint64_t count = static_cast<std::uint64_t>(fleet.size());
    fleet_fields(w, count, [&](std::uint64_t i) {
        const CompassState st = capture(fleet.at(static_cast<int>(i)), {});
        fields(w, st);
    });
    return w.finish();
}

void restore_fleet(std::span<const std::uint8_t> bytes,
                   compass::CompassFleet& fleet) {
    SnapshotReader r(bytes);
    std::vector<CompassState> staged;
    // Sized by the live fleet, never by the file's count.
    staged.reserve(static_cast<std::size_t>(fleet.size()));
    std::uint64_t count = 0;
    fleet_fields(r, count, [&](std::uint64_t) { fields(r, staged.emplace_back()); });
    if (count != static_cast<std::uint64_t>(fleet.size())) {
        throw SnapshotError("snapshot fleet size mismatch: file has " +
                            std::to_string(count) + " members, fleet has " +
                            std::to_string(fleet.size()));
    }
    // Validate every member before mutating any — a bad member anywhere
    // leaves the whole fleet untouched.
    for (int i = 0; i < fleet.size(); ++i) {
        validate_compass_state(staged[static_cast<std::size_t>(i)], fleet.at(i), {});
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

std::vector<std::uint8_t> snapshot_supervisor(
    const fault::MeasurementSupervisor& supervisor) {
    const fault::MeasurementSupervisor::LadderState ladder =
        supervisor.save_ladder_state();
    SnapshotWriter w;
    w.section(tags::kSupervisor, [&] { walk(w, ladder); });
    return w.finish();
}

void restore_supervisor(std::span<const std::uint8_t> bytes,
                        fault::MeasurementSupervisor& supervisor) {
    SnapshotReader r(bytes);
    fault::MeasurementSupervisor::LadderState ladder;
    r.section(tags::kSupervisor, [&] { walk(r, ladder); });
    if (ladder.last_good.has_value()) {
        const fault::SupervisedMeasurement& sm = *ladder.last_good;
        if (!within(sm.status, fault::SupervisedStatus::Failed)) {
            throw SnapshotError("snapshot supervised status out of range");
        }
        for (const fault::HealthFinding& f : sm.health.findings) {
            if (!within(f.code, fault::FaultCode::MeasurementAborted) ||
                !within(f.channel, analog::Channel::Y)) {
                throw SnapshotError("snapshot health finding out of range");
            }
        }
    }
    supervisor.load_ladder_state(ladder);
}

// -------------------------------------------------------- metrics API

namespace {

/// One registered instrument. `kind` is a telemetry::MetricKind, kept
/// as the u8 it travels as. A histogram travels as its non-empty
/// buckets, (index, count) in increasing index order, then its count
/// and sum.
struct MetricState {
    std::uint8_t kind = 0;
    std::string name;
    std::string unit;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    std::vector<std::uint32_t> bucket_index;
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t hist_count = 0;
    double hist_sum = 0.0;
};

template <class Io, record_of<MetricState> S>
void fields(Io& io, S& s) {
    auto& [kind, name, unit, counter_value, gauge_value, bucket_index,
           bucket_counts, hist_count, hist_sum] = s;
    walk(io, kind, name, unit);
    if (kind > static_cast<std::uint8_t>(telemetry::MetricKind::Histogram)) {
        throw SnapshotError("snapshot metric kind out of range");
    }
    switch (static_cast<telemetry::MetricKind>(kind)) {
        case telemetry::MetricKind::Counter:
            walk(io, counter_value);
            break;
        case telemetry::MetricKind::Gauge:
            walk(io, gauge_value);
            break;
        case telemetry::MetricKind::Histogram:
            elements(io, bucket_index, bucket_counts);
            walk(io, hist_count, hist_sum);
            break;
    }
}

/// Rejects, before anything is applied, every staged instrument that
/// the registry could not take: a histogram whose bucket indices are
/// out of range or not strictly increasing, or whose bucket counts do
/// not add up to its count; a name the file lists twice; and a name the
/// registry already holds with another kind.
void validate_metrics(const std::vector<MetricState>& staged,
                      const telemetry::MetricsRegistry& registry) {
    std::unordered_map<std::string_view, const MetricState*> by_name;
    for (const MetricState& m : staged) {
        std::uint64_t total = 0;  // kept <= hist_count, so it never wraps
        for (std::size_t b = 0; b < m.bucket_index.size(); ++b) {
            if (m.bucket_index[b] >= telemetry::Histogram::kBuckets ||
                (b > 0 && m.bucket_index[b] <= m.bucket_index[b - 1])) {
                throw SnapshotError("snapshot histogram bucket index out of range "
                                    "or not increasing");
            }
            if (m.bucket_counts[b] > m.hist_count - total) {
                throw SnapshotError("snapshot histogram bucket counts exceed its count");
            }
            total += m.bucket_counts[b];
        }
        if (total != m.hist_count) {
            throw SnapshotError("snapshot histogram bucket counts do not sum to its count");
        }
        if (!by_name.emplace(m.name, &m).second) {
            throw SnapshotError("snapshot metric '" + m.name +
                                "' is listed twice: the second entry would "
                                "conflict with the first");
        }
    }
    for (const telemetry::MetricsRegistry::Entry& e : registry.entries()) {
        const auto it = by_name.find(e.name);
        if (it != by_name.end() && static_cast<std::uint8_t>(e.kind) != it->second->kind) {
            throw SnapshotError("snapshot metric '" + e.name +
                                "' conflicts with a registered instrument "
                                "of another kind");
        }
    }
}

}  // namespace

std::vector<std::uint8_t> snapshot_metrics(
    const telemetry::MetricsRegistry& registry) {
    std::vector<MetricState> metrics;
    for (const telemetry::MetricsRegistry::Entry& e : registry.entries()) {
        MetricState& m = metrics.emplace_back();
        m.kind = static_cast<std::uint8_t>(e.kind);
        m.name = e.name;
        m.unit = e.unit;
        switch (e.kind) {
            case telemetry::MetricKind::Counter:
                m.counter_value = e.counter->value();
                break;
            case telemetry::MetricKind::Gauge:
                m.gauge_value = e.gauge->value();
                break;
            case telemetry::MetricKind::Histogram:
                // The count is taken from the same bucket reads, so the
                // record adds up even while observe() runs elsewhere.
                for (std::size_t b = 0; b < telemetry::Histogram::kBuckets; ++b) {
                    if (const std::uint64_t c = e.histogram->bucket_count(b)) {
                        m.bucket_index.push_back(static_cast<std::uint32_t>(b));
                        m.bucket_counts.push_back(c);
                        m.hist_count += c;
                    }
                }
                m.hist_sum = e.histogram->sum();
                break;
        }
    }
    SnapshotWriter w;
    w.section(tags::kMetrics, [&] { walk(w, metrics); });
    return w.finish();
}

void restore_metrics(std::span<const std::uint8_t> bytes,
                     telemetry::MetricsRegistry& registry) {
    SnapshotReader r(bytes);
    std::vector<MetricState> staged;
    r.section(tags::kMetrics, [&] { walk(r, staged); });
    validate_metrics(staged, registry);
    for (const MetricState& m : staged) {
        switch (static_cast<telemetry::MetricKind>(m.kind)) {
            case telemetry::MetricKind::Counter:
                registry.counter(m.name, m.unit).load(m.counter_value);
                break;
            case telemetry::MetricKind::Gauge:
                registry.gauge(m.name, m.unit).set(m.gauge_value);
                break;
            case telemetry::MetricKind::Histogram:
                registry.histogram(m.name, m.unit)
                    .load(m.bucket_index, m.bucket_counts, m.hist_count, m.hist_sum);
                break;
        }
    }
}

}  // namespace fxg::snapshot
