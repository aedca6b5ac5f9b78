#include "fault/fault_injector.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace fxg::fault {

namespace {

/// Uniform double in [0, 1) from a hash value.
double unit_double(std::uint64_t h) noexcept {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(FaultClass fault) noexcept {
    switch (fault) {
        case FaultClass::DetectorStuckLow: return "DetectorStuckLow";
        case FaultClass::DetectorStuckHigh: return "DetectorStuckHigh";
        case FaultClass::PickupOpen: return "PickupOpen";
        case FaultClass::NoiseBurst: return "NoiseBurst";
        case FaultClass::ComparatorOffsetDrift: return "ComparatorOffsetDrift";
        case FaultClass::OscFrequencyDrift: return "OscFrequencyDrift";
        case FaultClass::OscAmplitudeDrift: return "OscAmplitudeDrift";
        case FaultClass::OscDcOffsetDrift: return "OscDcOffsetDrift";
        case FaultClass::ExcitationCollapse: return "ExcitationCollapse";
        case FaultClass::MuxStuck: return "MuxStuck";
        case FaultClass::CounterStuckBit: return "CounterStuckBit";
    }
    return "?";
}

bool is_stream_fault(FaultClass fault) noexcept {
    switch (fault) {
        case FaultClass::DetectorStuckLow:
        case FaultClass::DetectorStuckHigh:
        case FaultClass::PickupOpen:
        case FaultClass::NoiseBurst:
            return true;
        default:
            return false;
    }
}

const char* to_string(Persistence persistence) noexcept {
    switch (persistence) {
        case Persistence::Permanent: return "permanent";
        case Persistence::Transient: return "transient";
        case Persistence::Intermittent: return "intermittent";
    }
    return "?";
}

FaultInjector::~FaultInjector() { disarm(); }

void FaultInjector::add(const FaultSpec& spec) {
    if (armed()) {
        throw std::logic_error("FaultInjector::add: disarm before editing the schedule");
    }
    if (!is_stream_fault(spec.fault) && spec.persistence != Persistence::Permanent) {
        throw std::invalid_argument(
            "FaultInjector: parametric faults are permanent (windowing them would "
            "break the engine bit-identity contract)");
    }
    if (spec.fault == FaultClass::NoiseBurst &&
        !(spec.magnitude >= 0.0 && spec.magnitude <= 1.0)) {
        throw std::invalid_argument("FaultInjector: NoiseBurst magnitude is a probability");
    }
    if (spec.persistence == Persistence::Intermittent &&
        (spec.period_samples == 0 || spec.duration_samples > spec.period_samples)) {
        throw std::invalid_argument(
            "FaultInjector: intermittent fault needs duration <= period, period > 0");
    }
    specs_.push_back(spec);
}

void FaultInjector::clear() {
    if (armed()) {
        throw std::logic_error("FaultInjector::clear: disarm before editing the schedule");
    }
    specs_.clear();
}

void FaultInjector::arm(compass::Compass& compass) {
    if (armed()) throw std::logic_error("FaultInjector::arm: already armed");
    analog::FrontEnd& fe = compass.front_end();

    // Capture the healthy state first so a throw below leaves nothing
    // half-applied that disarm() could not undo.
    saved_osc_fault_ = fe.oscillator().fault();
    saved_comparator_offset_ = {
        fe.detector(analog::Channel::X).comparator_offset_fault(),
        fe.detector(analog::Channel::Y).comparator_offset_fault(),
    };
    saved_counter_hw_ = compass.counter().hardware();
    saved_mux_stuck_ = fe.mux_stuck();
    saved_tap_ = fe.sample_tap();
    base_sample_ = fe.samples_stepped();

    // Parametric faults merge into the current stage state (several
    // specs may hit the same stage).
    analog::OscillatorFault osc = saved_osc_fault_;
    digital::CounterHardware hw = saved_counter_hw_;
    for (const FaultSpec& spec : specs_) {
        switch (spec.fault) {
            case FaultClass::ComparatorOffsetDrift: {
                analog::PulsePositionDetector& det = fe.detector(spec.channel);
                det.set_comparator_offset_fault(det.comparator_offset_fault() +
                                                spec.magnitude);
                break;
            }
            case FaultClass::OscFrequencyDrift:
                osc.frequency_scale *= spec.magnitude;
                break;
            case FaultClass::OscAmplitudeDrift:
                osc.amplitude_scale *= spec.magnitude;
                break;
            case FaultClass::OscDcOffsetDrift:
                // A drifted offset the correction loop would simply
                // remove is not a fault; the modelled failure is the
                // drift plus a frozen correction loop.
                osc.extra_dc_a += spec.magnitude;
                osc.correction_stuck = true;
                break;
            case FaultClass::ExcitationCollapse:
                osc.amplitude_scale = 0.0;
                break;
            case FaultClass::MuxStuck:
                fe.set_mux_stuck(spec.channel);
                break;
            case FaultClass::CounterStuckBit:
                hw.stuck_bit = spec.bit;
                hw.stuck_high = spec.bit_high;
                break;
            default:
                break;  // stream fault, handled in on_samples()
        }
    }
    fe.oscillator().set_fault(osc);
    compass.counter().set_hardware(hw);

    states_.assign(specs_.size(), StreamState{});
    fe.set_sample_tap(this);
    target_ = &compass;
}

void FaultInjector::disarm() {
    if (!armed()) return;
    analog::FrontEnd& fe = target_->front_end();
    fe.oscillator().set_fault(saved_osc_fault_);
    fe.detector(analog::Channel::X)
        .set_comparator_offset_fault(saved_comparator_offset_[0]);
    fe.detector(analog::Channel::Y)
        .set_comparator_offset_fault(saved_comparator_offset_[1]);
    target_->counter().set_hardware(saved_counter_hw_);
    if (!saved_mux_stuck_) fe.clear_mux_stuck();
    if (fe.sample_tap() == this) fe.set_sample_tap(saved_tap_);
    target_ = nullptr;
}

FaultInjector::TapState FaultInjector::save_tap_state() const {
    if (!armed()) {
        throw std::logic_error("FaultInjector::save_tap_state: not armed");
    }
    TapState s;
    s.base_sample = base_sample_;
    s.frozen.reserve(states_.size());
    s.has_frozen.reserve(states_.size());
    for (const StreamState& st : states_) {
        s.frozen.push_back(st.frozen);
        s.has_frozen.push_back(st.has_frozen ? 1 : 0);
    }
    return s;
}

void FaultInjector::load_tap_state(const TapState& s) {
    if (!armed()) {
        throw std::invalid_argument("FaultInjector::load_tap_state: not armed");
    }
    if (s.frozen.size() != specs_.size() || s.has_frozen.size() != specs_.size()) {
        throw std::invalid_argument(
            "FaultInjector::load_tap_state: spec count mismatch");
    }
    base_sample_ = s.base_sample;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        states_[i].frozen = s.frozen[i];
        states_[i].has_frozen = s.has_frozen[i] != 0;
    }
}

bool FaultInjector::active(const FaultSpec& spec, std::uint64_t rel) noexcept {
    if (rel < spec.start_sample) return false;
    const std::uint64_t offset = rel - spec.start_sample;
    switch (spec.persistence) {
        case Persistence::Permanent: return true;
        case Persistence::Transient: return offset < spec.duration_samples;
        case Persistence::Intermittent:
            return (offset % spec.period_samples) < spec.duration_samples;
    }
    return false;
}

void FaultInjector::on_samples(std::uint64_t first_index, int n,
                               std::uint8_t* detector_x, std::uint8_t* detector_y,
                               std::uint8_t* /*valid_x*/, std::uint8_t* /*valid_y*/) {
    std::array<std::uint8_t*, 2> detector{detector_x, detector_y};
    // Spec-outer loop: each spec transforms the whole block before the
    // next spec sees it. Since every transform at sample k reads only
    // sample k of its input stream plus its own sequential state, this
    // ordering gives the same result for any chunking of the stream.
    for (std::size_t s = 0; s < specs_.size(); ++s) {
        const FaultSpec& spec = specs_[s];
        if (!is_stream_fault(spec.fault)) continue;
        std::uint8_t* const stream = detector[static_cast<std::size_t>(spec.channel)];
        StreamState& state = states_[s];
        for (int k = 0; k < n; ++k) {
            const std::uint64_t rel = first_index + static_cast<std::uint64_t>(k) -
                                      base_sample_;
            const bool on = active(spec, rel);
            switch (spec.fault) {
                case FaultClass::DetectorStuckLow:
                    if (on) stream[k] = 0;
                    break;
                case FaultClass::DetectorStuckHigh:
                    if (on) stream[k] = 1;
                    break;
                case FaultClass::PickupOpen:
                    // No signal reaches the comparators, so the detector
                    // latch holds whatever it last resolved (low if the
                    // winding was open from the start).
                    if (on) {
                        stream[k] = state.has_frozen ? state.frozen : std::uint8_t{0};
                    } else {
                        state.frozen = stream[k];
                        state.has_frozen = true;
                    }
                    break;
                case FaultClass::NoiseBurst:
                    // A stateless hash of seed ^ absolute sample index
                    // gives every sample an independent, order-free
                    // draw, so NoiseBurst decisions cannot depend on
                    // block boundaries by construction.
                    if (on && unit_double(util::splitmix64(
                                  spec.seed ^
                                      (first_index + static_cast<std::uint64_t>(k)),
                                  0)) < spec.magnitude) {
                        stream[k] ^= std::uint8_t{1};
                    }
                    break;
                default:
                    break;
            }
        }
    }
}

}  // namespace fxg::fault
