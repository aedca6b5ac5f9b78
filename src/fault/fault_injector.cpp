#include "fault/fault_injector.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace fxg::fault {

namespace {

/// Uniform double in [0, 1) from a hash value.
double unit_double(std::uint64_t h) noexcept {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Bit j set where `spec` is active at sample rel0 + j (relative to
/// arm(), mod 2^64), for j < nb.
std::uint64_t active_mask(const FaultSpec& spec, std::uint64_t rel0, int nb) noexcept {
    // Walks the runs of equal activity: rel < start is inactive up to
    // start; past it the offset from start decides, per persistence.
    // rel wraps to 0 after 2^64 - rel samples, where the schedule starts
    // over, so no run reaches past that.
    std::uint64_t mask = 0;
    int j = 0;
    while (j < nb) {
        const std::uint64_t rel = rel0 + static_cast<std::uint64_t>(j);
        bool on = false;
        std::uint64_t run = ~std::uint64_t{0};
        if (rel < spec.start_sample) {
            run = spec.start_sample - rel;
        } else {
            const std::uint64_t offset = rel - spec.start_sample;
            switch (spec.persistence) {
                case Persistence::Permanent:
                    on = true;
                    break;
                case Persistence::Transient:
                    on = offset < spec.duration_samples;
                    if (on) run = spec.duration_samples - offset;
                    break;
                case Persistence::Intermittent: {
                    const std::uint64_t phase = offset % spec.period_samples;
                    on = phase < spec.duration_samples;
                    run = on ? spec.duration_samples - phase : spec.period_samples - phase;
                    break;
                }
            }
            if (rel != 0) run = std::min(run, std::uint64_t{0} - rel);
        }
        const int end =
            j + static_cast<int>(std::min(run, static_cast<std::uint64_t>(nb - j)));
        if (on) mask |= util::bits::low_mask(end) & ~util::bits::low_mask(j);
        j = end;
    }
    return mask;
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

void FaultInjector::on_samples(std::uint64_t first_index, int n,
                               std::uint64_t* detector_x, std::uint64_t* detector_y,
                               std::uint64_t* /*valid_x*/, std::uint64_t* /*valid_y*/) {
    std::array<std::uint64_t*, 2> detector{detector_x, detector_y};
    const int words = util::bits::words_for(n);
    // Spec-outer loop: each spec transforms the whole block before the
    // next spec sees it. Since every transform at sample k reads only
    // sample k of its input stream plus its own sequential state, this
    // ordering gives the same result for any chunking of the stream.
    for (std::size_t s = 0; s < specs_.size(); ++s) {
        const FaultSpec& spec = specs_[s];
        if (!is_stream_fault(spec.fault)) continue;
        std::uint64_t* const stream = detector[static_cast<std::size_t>(spec.channel)];
        StreamState& state = states_[s];
        for (int w = 0; w < words; ++w) {
            const int nb = util::bits::bits_in_word(n, w);
            const std::uint64_t index0 = first_index + 64 * static_cast<std::uint64_t>(w);
            const std::uint64_t on = active_mask(spec, index0 - base_sample_, nb);
            std::uint64_t& bits = stream[w];
            switch (spec.fault) {
                case FaultClass::DetectorStuckLow:
                    bits &= ~on;
                    break;
                case FaultClass::DetectorStuckHigh:
                    bits |= on;
                    break;
                case FaultClass::PickupOpen:
                    // No signal reaches the comparators, so the detector
                    // latch holds whatever it last resolved (low if the
                    // winding was open from the start).
                    for (int j = 0; j < nb; ++j) {
                        const std::uint64_t bit = std::uint64_t{1} << j;
                        if ((on & bit) != 0) {
                            const bool high = state.has_frozen && state.frozen != 0;
                            bits = high ? bits | bit : bits & ~bit;
                        } else {
                            state.frozen = static_cast<std::uint8_t>((bits >> j) & 1);
                            state.has_frozen = true;
                        }
                    }
                    break;
                case FaultClass::NoiseBurst:
                    // A stateless hash of seed ^ absolute sample index
                    // gives every sample an independent, order-free
                    // draw, so NoiseBurst decisions cannot depend on
                    // block boundaries by construction.
                    for (std::uint64_t m = on; m != 0; m &= m - 1) {
                        const int j = std::countr_zero(m);
                        const std::uint64_t index = index0 + static_cast<std::uint64_t>(j);
                        if (unit_double(util::splitmix64(spec.seed ^ index, 0)) <
                            spec.magnitude) {
                            bits ^= std::uint64_t{1} << j;
                        }
                    }
                    break;
                default:
                    break;
            }
        }
    }
}

}  // namespace fxg::fault
