#pragma once

/// \file fault_injector.hpp
/// Declarative fault injection for the compass pipeline. A FaultInjector
/// holds a list of FaultSpec entries and arms them onto a live Compass:
///
///  - *Stream faults* (detector stuck-at, pickup-winding open, noise
///    bursts) are applied through the FrontEnd's SampleTap seam, i.e. on
///    the per-sample detector/valid streams AFTER the analogue stages.
///    Because the tap sees the identical sample sequence under a
///    ScalarEngine (one sample per call) and a BlockEngine (a block per
///    call), and every transform here is a pure sequential function of
///    the stream, an armed injector is bit-identical across engines.
///    Stream faults support the full persistence model (permanent /
///    transient / intermittent), windowed per sample.
///
///  - *Parametric faults* (comparator offset drift, oscillator
///    frequency / amplitude / dc drift, excitation collapse, stuck
///    multiplexer, counter stuck bit) reconfigure a stage through its
///    fault seam at arm() time and are undone by disarm(). They are
///    permanent by construction: engaging a parametric fault mid-block
///    would make results depend on block boundaries, which the engine
///    bit-identity contract forbids.
///
/// Fault windows are expressed in samples relative to the arm() call;
/// the front end's sample index is monotone across reset(), so a
/// re-excitation power cycle does not re-run an expired transient.

#include <array>
#include <cstdint>
#include <vector>

#include "analog/front_end.hpp"
#include "analog/mux.hpp"
#include "analog/oscillator.hpp"
#include "core/compass.hpp"
#include "digital/counter.hpp"

namespace fxg::fault {

/// The modelled failure modes, grouped by injection mechanism.
enum class FaultClass {
    // Stream faults (applied on the emitted detector stream).
    DetectorStuckLow,       ///< detector output forced low
    DetectorStuckHigh,      ///< detector output forced high
    PickupOpen,             ///< open pickup winding: output freezes at its last value
    NoiseBurst,             ///< EMI burst: detector bit flips with probability `magnitude`

    // Parametric faults (applied to stage state at arm() time).
    ComparatorOffsetDrift,  ///< extra comparator input offset of `magnitude` [V]
    OscFrequencyDrift,      ///< oscillator frequency multiplied by `magnitude`
    OscAmplitudeDrift,      ///< excitation amplitude multiplied by `magnitude`
    OscDcOffsetDrift,       ///< drifted dc offset of `magnitude` [A], correction loop stuck
    ExcitationCollapse,     ///< excitation amplitude collapses to zero
    MuxStuck,               ///< multiplexer latched on `channel`
    CounterStuckBit,        ///< counter register bit `bit` stuck at `bit_high`
};

[[nodiscard]] const char* to_string(FaultClass fault) noexcept;

/// True for the classes injected through the sample-stream tap.
[[nodiscard]] bool is_stream_fault(FaultClass fault) noexcept;

/// Temporal behaviour of a stream fault.
enum class Persistence {
    Permanent,     ///< active from start_sample on
    Transient,     ///< active for duration_samples, then gone
    Intermittent,  ///< active duration_samples out of every period_samples
};

[[nodiscard]] const char* to_string(Persistence persistence) noexcept;

/// One declarative fault.
struct FaultSpec {
    FaultClass fault = FaultClass::DetectorStuckLow;
    Persistence persistence = Persistence::Permanent;

    /// Afflicted channel (stream faults, ComparatorOffsetDrift, MuxStuck).
    analog::Channel channel = analog::Channel::X;

    /// Class-specific magnitude: flip probability (NoiseBurst), extra
    /// offset [V] (ComparatorOffsetDrift), scale factor (frequency /
    /// amplitude drift), extra dc [A] (OscDcOffsetDrift). Unused
    /// otherwise.
    double magnitude = 0.0;

    // CounterStuckBit geometry.
    int bit = 20;
    bool bit_high = true;

    // Activity window, in samples relative to arm() (stream faults).
    std::uint64_t start_sample = 0;
    std::uint64_t duration_samples = ~std::uint64_t{0};
    std::uint64_t period_samples = 0;  ///< Intermittent cycle length

    /// Per-spec RNG seed (NoiseBurst bit flips).
    std::uint64_t seed = 1;
};

/// Schedules faults into a Compass. Non-owning: the target compass must
/// outlive the armed injector (or the injector must be disarmed first).
class FaultInjector final : public analog::SampleTap {
public:
    FaultInjector() = default;
    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;
    ~FaultInjector() override;

    /// Adds a fault to the schedule (validated; rejects non-permanent
    /// parametric faults — see file comment). Must not be armed.
    void add(const FaultSpec& spec);

    /// Drops all scheduled faults. Must not be armed.
    void clear();

    /// Applies the parametric faults to `compass`'s stages, saves their
    /// healthy state, and attaches this injector as the front end's
    /// sample tap. Only one compass at a time.
    void arm(compass::Compass& compass);

    /// Restores every stage to its pre-arm state and detaches the tap.
    /// No-op when not armed.
    void disarm();

    [[nodiscard]] bool armed() const noexcept { return target_ != nullptr; }
    [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
        return specs_;
    }

    /// SampleTap: applies the scheduled stream faults in spec order,
    /// a word of 64 samples at a time: each spec's activity window
    /// becomes a per-word mask, stuck-at faults are one mask operation,
    /// and only PickupOpen (sequential freeze latch) and NoiseBurst
    /// (one hash draw per active sample) walk bits.
    void on_samples(std::uint64_t first_index, int n, std::uint64_t* detector_x,
                    std::uint64_t* detector_y, std::uint64_t* valid_x,
                    std::uint64_t* valid_y) override;

    /// Sequential stream-fault state (snapshot seam): the arm-time
    /// sample base plus each spec's PickupOpen freeze latch. NoiseBurst
    /// is stateless (its flips hash the spec seed with the absolute
    /// sample index), so this is the injector's entire evolving state.
    struct TapState {
        std::uint64_t base_sample = 0;
        std::vector<std::uint8_t> frozen;      ///< per spec, in add() order
        std::vector<std::uint8_t> has_frozen;  ///< per spec, 0/1
    };

    /// Requires the injector to be armed (the state is only meaningful
    /// relative to an armed spec list).
    [[nodiscard]] TapState save_tap_state() const;

    /// Restores the stream state onto an injector armed with the same
    /// number of specs; throws std::invalid_argument otherwise.
    void load_tap_state(const TapState& s);

private:
    /// Sequential per-spec state (PickupOpen freeze value).
    struct StreamState {
        std::uint8_t frozen = 0;
        bool has_frozen = false;
    };

    std::vector<FaultSpec> specs_;
    std::vector<StreamState> states_;

    compass::Compass* target_ = nullptr;
    std::uint64_t base_sample_ = 0;  ///< front-end sample index at arm()

    // Healthy state captured at arm() for disarm().
    analog::OscillatorFault saved_osc_fault_;
    std::array<double, 2> saved_comparator_offset_{};
    digital::CounterHardware saved_counter_hw_;
    bool saved_mux_stuck_ = false;
    analog::SampleTap* saved_tap_ = nullptr;
};

}  // namespace fxg::fault
