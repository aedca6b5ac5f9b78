#pragma once

/// \file lane_engine.hpp
/// Structure-of-arrays SIMD lane engine: one compiled plan, N fleet
/// members per instruction.
///
/// The scalar and block engines advance ONE front end at a time; their
/// inner loop is a chain of dependent scalar operations (oscillator ->
/// V-I -> core tanh -> detector -> counter) that leaves the vector
/// units idle. The lane engine turns the fleet dimension into the
/// vector dimension instead: it gathers the evolving per-sample state
/// of up to util::simd::kLanes independent members into SoA registers
/// (oscillator phase/correction, noise filter, flux linkages,
/// comparator latches, counter accumulator, energy), advances all of
/// them in lockstep with the identical per-sample arithmetic, and
/// scatters the state back through the stages' save/load seams at
/// stage boundaries.
///
/// Contract: bit-identical to advancing every member through
/// FrontEnd::step() / UpDownCounter::step() individually — counter
/// values, noise streams, energy sums, stream statistics and the abort
/// point of an overflow trap (asserted three ways against the scalar
/// and block engines by tests/lane_engine_test.cpp and the
/// EngineParity fuzz oracle in src/verify/).
///
/// Per-member fault isolation is preserved by construction:
///  * Parametric faults (oscillator drift, comparator offset, stuck
///    mux) are per-lane constants — a drifting lane computes with its
///    own constants and perturbs no neighbour.
///  * Stream faults arrive through the member's SampleTap. Lanes with
///    a tap attached stay in the SIMD path for the analogue stages;
///    their emitted detector/valid streams are captured per sample
///    (one movemask each), transposed into per-lane one-bit words and
///    replayed through FrontEnd::ingest_samples(), so the tap sees
///    exactly the chunks, bits and statistics of the per-member path.
///    Counting for those lanes runs the member's
///    UpDownCounter::step_block over the post-tap words.
///  * Members with an engaged counter hardware model (finite width /
///    stuck bit) likewise keep their counter on the member object so
///    wrap, stuck-bit and trap latching stay in one place; the
///    analogue pipeline still runs in SIMD. A lane whose counter traps
///    is evicted by the caller (PlanExecutor::run_lanes) at the count
///    window boundary — the scalar abort point — without perturbing
///    the other lanes.
///
/// Lockstep cohorts: members built from one config and swept together
/// hold bit-identical oscillator, mux and counter-clock state, and
/// nothing upstream of the sensor depends on the field. A group whose
/// lanes all share those inputs runs the excitation (oscillator, V-I
/// drive, mux settling, supply power) once through the stages' own
/// block code and broadcasts it; its counters share one clock when the
/// accumulators match too. The choice is made from the inputs, per
/// group advance, and changes no output bit.

#include <cstdint>
#include <vector>

#include "analog/front_end.hpp"
#include "analog/mux.hpp"
#include "digital/counter.hpp"

namespace fxg::sim {

/// One fleet member's slice of a lane batch: the front end to advance,
/// the counter to clock (null during a settle phase, exactly like the
/// null-counter contract of SimEngine::advance) and the member's
/// running energy sum.
struct LanePort {
    analog::FrontEnd* front_end = nullptr;
    digital::UpDownCounter* counter = nullptr;  ///< null => settling (deaf)
    double* energy_j = nullptr;
};

/// Process-wide count of LaneEngine group advances that shared one
/// excitation pass across a lockstep cohort, and of those that ran the
/// per-lane vector pass. Each group advance bumps exactly one of them
/// (relaxed atomics, once per group, never per sample).
[[nodiscard]] std::uint64_t shared_excitation_count() noexcept;
[[nodiscard]] std::uint64_t per_lane_excitation_count() noexcept;

/// SoA batch engine over independent front ends. Owns only scratch
/// buffers; all simulation state lives in the member objects and
/// round-trips per advance() through the stages' State seams.
class LaneEngine {
public:
    LaneEngine() = default;

    /// True when `front_end`'s configuration can run in a SIMD lane:
    /// the paper's multiplexed architecture. Pickup noise,
    /// parametric/stream faults, an engaged counter hardware model and
    /// non-tanh cores are all lane-compatible. Enabled/gating state is a
    /// precondition of advance(), not of eligibility.
    [[nodiscard]] static bool eligible(const analog::FrontEnd& front_end) noexcept;

    /// Lanes advanced per vector instruction (the active simd width).
    [[nodiscard]] static int lanes_per_stripe() noexcept;

    /// Active simd backend ("avx512", "avx2", "neon", "scalar").
    [[nodiscard]] static const char* backend_name() noexcept;

    /// Advances every lane by `steps` samples of `dt_s`, mirroring
    /// SimEngine::advance per lane: energy accumulates in sample order
    /// onto each lane's energy_j, and every settled sample of
    /// `channel`'s detector output is clocked into the lane's counter
    /// (when non-null). Preconditions: every front end eligible() and
    /// enabled (the plan's PowerUp stage has run). Lanes are
    /// independent; any subset of the same calls on the per-member
    /// path yields bit-identical member state.
    void advance(const LanePort* lanes, int n_lanes, analog::Channel channel,
                 int steps, double dt_s);

private:
    /// Advances one group of S consecutive stripes (n <= S*kLanes
    /// lanes) through a single interleaved kernel loop. Each sample's
    /// sensor spine (h / hk -> exp polynomial -> tanh divide -> pickup
    /// derivative) is a long serial dependency chain; the sensor pass
    /// runs U samples of all S stripes statement by statement through
    /// one body, which gives the out-of-order core U*S independent
    /// chains to overlap, and divides by hk and dt through their
    /// reciprocals (simd::div_by). Lanes never interact and every lane
    /// keeps its operations and their order, so the result is
    /// bit-identical to per-member stepping.
    template <int S>
    void advance_group(const LanePort* lanes, int n, analog::Channel channel,
                       int steps, double dt_s);

    // Per-group emitted streams, one bit per group lane per sample
    // (movemask, stripe s in bits [s*kLanes, (s+1)*kLanes)), consumed
    // by tap replay and delegated counters. Sized only by groups that
    // have such a lane.
    std::vector<std::uint16_t> det_bits_;
    std::vector<std::uint16_t> valid_bits_;
    // One lane's one-bit streams (det x/y, valid x/y), util/bits.hpp
    // words, transposed from det_bits_/valid_bits_.
    std::vector<std::uint64_t> words_;
    // Time-varying environment scratch, filled only when some lane's
    // FieldSource actually varies within the advance (constant sources
    // never touch these): per-sample interleaved active-axis field and
    // temperature-derived core/sensitivity parameters
    // [sample * group_width + lane], per-tile change flags (0 =
    // unchanged, 1 = reload at tile start, 2 = per-sample), and
    // per-lane contiguous idle-axis field / ambient temperature
    // streams replayed through FluxgateSensor::step_block_env.
    std::vector<double> env_h_, env_ms_, env_hk_, env_fpa_;
    std::vector<double> idle_h_, idle_t_;
    std::vector<std::uint8_t> tile_env_;
};

}  // namespace fxg::sim
