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
/// and the hoisted constants of up to util::simd::kLanes independent
/// members into SoA registers through the stages' own calls (the
/// sensor's constants(), the detector's levels(), their save_state()),
/// advances all of them in lockstep with the identical per-sample
/// arithmetic, and scatters the state back through the stages' seams
/// (FluxgateSensor::end_block, load_state) at stage boundaries.
///
/// One kind of lane: the kernel advances only *plain* lanes (plain()),
/// the paper's compass as the fleet runs it — a multiplexed, enabled
/// front end with tanh cores, its mux on the advance's channel, no
/// sample tap, a field that holds over the advance, and a counter that
/// is either not clocked or an ideal register under the one-bit clock. PlanExecutor::run_lanes sends
/// every other lane through its own engine inside the batch, per
/// advance, and advance() refuses it. Both paths leave bit-identical
/// state, so a lane may take either on any advance.
///
/// Contract: bit-identical to advancing every member through
/// FrontEnd::step() / UpDownCounter::step() individually — counter
/// values, noise streams, energy sums and stream statistics (asserted
/// against the scalar and block engines by tests/lane_engine_test.cpp
/// and the EngineParity fuzz oracle in src/verify/). Parametric faults
/// are per-lane inputs: a comparator offset is a lane constant, and a
/// drifting oscillator puts its lane in a cohort of its own, so a
/// faulted lane perturbs no neighbour.
///
/// Batches and cohorts: nothing upstream of the sensor depends on the
/// field, so lanes whose oscillator, V-I converter, mux timer, supply
/// model and (when counted) counter clock match bit for bit compute the
/// same drive current, supply power, settle flags and ticks. advance()
/// takes its lanes in batches of up to kBatchLanes and splits each
/// batch into such cohorts. Per 64-sample tile, every cohort's
/// excitation runs once, through its lead lane's own block code, and
/// then the batch's groups (two stripes each) advance that tile one
/// after the other; a counted cohort's clock steps beside the compares
/// of the first group that holds it, and each lane takes its cohort's
/// values. Members built from one config and swept together form one
/// cohort. The split is made from the inputs, per batch advance, and
/// changes no output bit.

#include <cstdint>

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

/// Process-wide counts (relaxed atomics, bumped once per batch advance,
/// never per sample): LaneEngine group advances (one per group of up to
/// two stripes), the excitation passes their batches ran (one per
/// cohort per batch advance), and the group tiles whose sensor pass
/// divided through div_by's checked form because the numerator proof
/// of DESIGN.md section 12 did not hold for them. A batch advance of one
/// cohort adds one pass, however many groups it holds.
[[nodiscard]] std::uint64_t group_advance_count() noexcept;
[[nodiscard]] std::uint64_t excitation_pass_count() noexcept;
[[nodiscard]] std::uint64_t checked_division_tile_count() noexcept;

/// SoA batch engine over independent front ends. Owns no state; all
/// simulation state lives in the member objects and round-trips per
/// advance() through the stages' State seams.
class LaneEngine {
public:
    /// Lanes one batch takes: 8 groups of 16 on AVX-512, 16 groups of 8
    /// on AVX2 and the scalar backend.
    static constexpr int kBatchLanes = 128;

    /// True when the kernel advances `port` by `steps` samples of `dt_s`
    /// on `channel`: the lane is plain. Its front end is multiplexed and
    /// enabled, its mux sits on `channel`, both cores are TanhCore, it
    /// has no sample tap, its field source (if any) holds over the
    /// advance, and its counter is not clocked by this advance (null or
    /// disabled) or is an ideal register under
    /// UpDownCounter::one_bit_clock. Reads the sample index and the
    /// counter state; copies nothing else.
    [[nodiscard]] static bool plain(const LanePort& port, analog::Channel channel, int steps,
                                    double dt_s);

    /// Lanes advanced per vector instruction (the active simd width).
    [[nodiscard]] static int lanes_per_stripe() noexcept;

    /// Active simd backend ("avx512", "avx2", "scalar").
    [[nodiscard]] static const char* backend_name() noexcept;

    /// Advances every lane by `steps` samples of `dt_s`, mirroring
    /// SimEngine::advance per lane: energy accumulates in sample order
    /// onto each lane's energy_j, and every settled sample of
    /// `channel`'s detector output is clocked into the lane's counter
    /// (when non-null). Throws std::invalid_argument, before it touches
    /// any member, unless dt_s > 0 and every lane is plain(). Lanes are
    /// independent; any subset of the same calls on the per-member
    /// path yields bit-identical member state.
    ///
    /// Each batch's groups hold S <= 2 consecutive stripes. Each
    /// sample's sensor spine (h / hk -> exp polynomial -> tanh divide
    /// -> pickup derivative) is a long serial dependency chain; the
    /// sensor pass runs U samples of a group's S stripes statement by
    /// statement through one body, which gives the out-of-order core
    /// U*S independent chains to overlap, and divides by hk and dt
    /// through their reciprocals (simd::div_by_in_range on tiles whose
    /// numerators are proven in range, simd::div_by on the others). The
    /// digital pass runs each lane's detector, statistics and counter
    /// on 64-sample words transposed from per-sample lane bytes, through
    /// the block path's word code. Lanes never interact and every lane
    /// keeps its operations and their order, so the result is
    /// bit-identical to per-member stepping.
    void advance(const LanePort* lanes, int n_lanes, analog::Channel channel,
                 int steps, double dt_s);
};

}  // namespace fxg::sim
