#include "sim/lane_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "magnetics/core_model.hpp"
#include "magnetics/field_source.hpp"
#include "magnetics/units.hpp"
#include "sensor/fluxgate.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace fxg::sim {

namespace v = util::simd;

namespace {

constexpr int W = v::kLanes;
/// Lanes of a group: two stripes, whose dependency chains one body
/// interleaves.
constexpr int kGroupLanes = 2 * W;
/// Samples per tile: one settle or tick word per cohort and tile.
constexpr int T = 64;
// Pass C's lane bytes: stripe s holds bits [(s * W) % 8, + W) of byte
// plane (s * W) / 8, so a group fills one plane per 8 lanes.
static_assert(8 % W == 0 && kGroupLanes <= 16);

/// Builds a per-lane mask from a vector of 0.0/1.0 lanes.
inline v::mask mask_from01(v::dvec b01) { return v::cmp_gt(b01, v::splat(0.5)); }

/// lo <= x <= hi (false for NaN).
constexpr bool within(double x, double lo, double hi) { return x >= lo && x <= hi; }

// Pass B's numerator proof (DESIGN.md section 12). Pass B divides h by
// Hk and each linkage step by dt; both divisors are checked against
// div_by's range once per advance, and both numerators are proven
// inside it from these bounds, so a proven tile divides through
// div_by_in_range with no per-vector check:
//   - per lane at gather: |fpa| and |N A| in [2^-100, 2^100], H_ext = 0
//     or |H_ext| in [2^-300, 2^300], and 0 < Ms <= 2^100;
//   - per cohort and tile: every drive current 0 or |i| in
//     [2^-200, 2^100];
//   - per group and tile: the carried linkage 0 or |lambda| in
//     [2^-472, 2^383].
// Then h is +-0 or |h| in [2^-352, 2^301], lambda stays in the carried
// linkage's bound, and each linkage step is +-0 or in [2^-524, 2^384].
constexpr double kFactorMin = 0x1p-100, kFactorMax = 0x1p100;
constexpr double kFieldMin = 0x1p-300, kFieldMax = 0x1p300;
constexpr double kDriveMin = 0x1p-200, kDriveMax = 0x1p100;
constexpr double kLinkageMin = 0x1p-472, kLinkageMax = 0x1p383;
static_assert(0x1p-524 >= v::kDivByMinNumerator && 0x1p384 <= v::kDivByMaxNumerator);

constexpr bool divisor_in_range(double b) {
    return within(b, v::kDivByMinDivisor, v::kDivByMaxDivisor);
}

/// Every drive current of a cohort's tile is 0 or inside the proof's
/// bound.
bool drive_in_range(const double* i, int tn) {
    bool in = true;
    for (int t = 0; t < tn; ++t) {
        const double a = std::fabs(i[t]);
        in = in && (a == 0.0 || within(a, kDriveMin, kDriveMax));
    }
    return in;
}

/// Every lane of a carried linkage is 0 or inside the proof's bound.
bool linkage_in_range(v::dvec lambda) {
    const v::dvec a = v::bit_andnot(v::splat(-0.0), lambda);
    const v::mask in = v::m_or(v::cmp_eq(a, v::splat(0.0)),
                               v::m_and(v::cmp_ge(a, v::splat(kLinkageMin)),
                                        v::cmp_ge(v::splat(kLinkageMax), a)));
    return v::movemask(in) == (1u << W) - 1;
}

using SensorConstants = sensor::FluxgateSensor::Constants;
using SensorState = sensor::FluxgateSensor::State;
using Levels = analog::PulsePositionDetector::Levels;
using NoiseShape = analog::FrontEnd::NoiseShape;

bool has_pickup_noise(const analog::FrontEnd& f) {
    return f.config().pickup_noise_rms_v != 0.0;
}

/// One lane's inputs, each read through its member's own stage call at
/// gather: the active sensor's constants and carried state, its tanh
/// core's knee and saturation, the active detector's levels, the
/// pickup noise's shape, filter state and stream position, and the
/// running energy.
struct LaneIn {
    SensorConstants sensor;
    SensorState sensor_state;
    double hk, ms;
    Levels levels;
    NoiseShape noise{0.0, 0.0};
    double noise_state = 0.0;
    std::uint64_t noise_key = 0, noise_counter = 0;
    bool noisy = false;
    double energy_j;
};

/// The lane's inputs lie inside the numerator proof's per-lane bounds,
/// and its knee field inside div_by's divisor range.
bool lane_in_range(const LaneIn& x) {
    const SensorConstants& c = x.sensor;
    return within(std::fabs(c.field_per_amp), kFactorMin, kFactorMax) &&
           within(std::fabs(c.na_pickup), kFactorMin, kFactorMax) &&
           (c.h_ext == 0.0 || within(std::fabs(c.h_ext), kFieldMin, kFieldMax)) &&
           x.ms > 0.0 && x.ms <= kFactorMax && divisor_in_range(x.hk);
}

/// The vector of one LaneIn field, named by its member path (e.g.
/// &LaneIn::levels, &Levels::rise), across the W lanes from `g` on.
template <class... Path>
v::dvec across(const LaneIn* g, Path... path) {
    alignas(64) double a[W];
    for (int l = 0; l < W; ++l) a[l] = static_cast<double>((g[l] .* ... .* path));
    return v::load(a);
}

/// The bits of everything a cohort's excitation block code reads: the
/// oscillator's config, fault and state, the V-I config and its load,
/// the mux's settle time and timer, the supply constants and, when the
/// advance clocks the lane's counter, its accumulator and increment.
/// Lanes whose keys are equal compute the same drive current, supply
/// power, settle flags and ticks on every sample.
using CohortKey = std::array<std::uint64_t, 34>;

CohortKey cohort_key(analog::FrontEnd& f, bool counts, double acc, double inc) {
    const analog::FrontEndConfig& c = f.config();
    const analog::TriangleOscillator& osc = f.oscillator();
    const analog::TriangleOscillatorConfig& oc = osc.config();
    const analog::OscillatorFault& of = osc.fault();
    const analog::TriangleOscillator::State os = osc.save_state();
    const analog::ViConverterConfig& vc = f.vi_converter().config();
    const double in[] = {
        oc.amplitude_a, oc.frequency_hz, oc.dc_offset_a, oc.amplitude_error, oc.curvature,
        oc.offset_correction ? 1.0 : 0.0, oc.correction_gain,
        of.frequency_scale, of.amplitude_scale, of.extra_dc_a, of.correction_stuck ? 1.0 : 0.0,
        os.time_s, os.phase, os.output, os.correction_a, os.period_integral, os.period_time,
        vc.supply_v, vc.headroom_v, vc.gain_error, vc.nonlinearity, vc.full_scale_a,
        vc.linearising_r_ohm, vc.balanced_differential ? 1.0 : 0.0, c.sensor.r_excitation_ohm,
        f.mux().settle_time_s(), f.mux().save_state().since_switch_s,
        c.supply_v, c.osc_bias_a, c.vi_bias_a, c.det_bias_a,
        counts ? 1.0 : 0.0, counts ? acc : 0.0, counts ? inc : 0.0};
    static_assert(std::size(in) == std::tuple_size_v<CohortKey>);
    CohortKey key;
    std::transform(std::begin(in), std::end(in), key.begin(),
                   [](double x) { return std::bit_cast<std::uint64_t>(x); });
    return key;
}

/// Pass C's lane streams: the four comparator decisions.
enum Stream { kRisePos, kFallPos, kRiseNeg, kFallNeg, kStreams };

/// One real lane's share of Pass C's word code: its detector latches,
/// stream-window statistics and counter.
struct WordLane {
    analog::PulsePositionDetector::State det;
    analog::FrontEnd::StreamWindowState win;
    digital::UpDownCounter::State ctr;
    int cohort = 0;     ///< whose settle and tick words the lane takes
    bool fold = false;  ///< counter clocked by this advance, counted here
};

/// Pass C's word code for one tile of `nb` samples of channel `ch`: lane
/// l's comparator words are words[c][l], and its settle and tick words
/// are its cohort's, settle[cohort] and ticks[cohort].
void step_word_lanes(WordLane* lanes, int n, int nb, std::size_t ch,
                     const std::uint64_t* const* words, const std::uint64_t* settle,
                     const std::uint64_t* ticks) {
    const std::uint64_t* const rise_p = words[kRisePos];
    const std::uint64_t* const fall_p = words[kFallPos];
    const std::uint64_t* const rise_n = words[kRiseNeg];
    const std::uint64_t* const fall_n = words[kFallNeg];
    for (int l = 0; l < n; ++l) {
        WordLane& lane = lanes[l];
        const std::uint64_t out = analog::PulsePositionDetector::step_word(
            {rise_p[l], fall_p[l], rise_n[l], fall_n[l]}, nb, lane.det);
        analog::fold_stream_word(lane.win.stats[ch], lane.win.prev[ch], lane.win.has_prev[ch],
                                 out, settle[lane.cohort], nb);
        if (lane.fold) digital::UpDownCounter::fold_ticks(ticks[lane.cohort], out, lane.ctr);
    }
}

std::atomic<std::uint64_t> g_group_advances{0};
std::atomic<std::uint64_t> g_excitation_passes{0};
std::atomic<std::uint64_t> g_checked_tiles{0};

/// One cohort of a batch: its key, the lead lane whose own stages run
/// its excitation, its clock, and the current tile's excitation.
struct Cohort {
    CohortKey key;
    analog::FrontEnd* lead;
    bool counts;      ///< its counters are clocked by this advance
    double acc, inc;  ///< its clock's accumulator and increment
    bool proven = false;  ///< the tile's drive currents lie in the proof's bound
    double i[T]{}, p[T]{};  ///< the tile's drive current and supply power
};

/// One group of a batch: up to two stripes of consecutive lanes, the
/// constants its tiles read, and the vectors they carry from one tile
/// to the next. A tile loads them at its start and stores the carried
/// ones at its end.
struct Group {
    int first;  ///< its first lane in the batch
    int n;      ///< its real lanes; pad lanes copy lane 0
    int k;      ///< cohorts among its lanes
    int coh[kGroupLanes];              ///< their ids; coh[0] is lane 0's
    v::mask in_coh[kGroupLanes][2];    ///< lanes of coh[j], for j >= 1
    bool noisy;                        ///< any lane draws pickup noise
    bool proven;  ///< its inputs and divisors lie in the proof's bounds
    v::dvec fpa[2], hext[2], hk[2], rhk[2], ms[2], nap[2];
    v::dvec off[2], fall[2], rise[2];
    v::dvec nalpha[2], ndrive[2];
    v::mask noisy_m[2];
    std::uint64_t noise_key[kGroupLanes], noise_counter[kGroupLanes];
    // Carried: the first-step flag, energy, noise filter state, and the
    // last sample's H, B, B before it, pickup linkage and voltage.
    v::mask first_m[2];
    v::dvec e[2], nst[2], h[2], b[2], bprev[2], lpprev[2], vpick[2];
};

/// A batch's records, kept per thread and grown to the largest batch
/// the thread has advanced: a few KiB per group and lane, no
/// whole-advance buffer (the tiles' scratch is on the stack). Cohorts
/// are added as the gather finds them, so a thread holds only as many
/// cohort records as its batches have had.
struct Batch {
    std::vector<Group> groups;
    std::vector<WordLane> lanes;
    std::vector<Cohort> cohorts;
    std::vector<std::uint64_t> settle, ticks;  ///< per cohort, the tile's words
};

Batch& batch_for(int n_lanes, int n_groups) {
    thread_local Batch b;
    const auto grow = [](auto& vec, int n) {
        if (vec.size() < static_cast<std::size_t>(n)) vec.resize(static_cast<std::size_t>(n));
    };
    grow(b.groups, n_groups);
    grow(b.lanes, n_lanes);
    grow(b.settle, n_lanes);
    grow(b.ticks, n_lanes);
    b.cohorts.clear();
    return b;
}

/// Gathers group g (lanes[g.first, g.first + g.n)). Each lane's LaneIn
/// comes from its stages' own calls (the values their step() and
/// step_block() hoist), so the per-lane arithmetic in the kernel is
/// bit-identical to the per-member path; the vectors go into g and the
/// word state into wl. Each lane joins the first of the batch's cohorts
/// with its key, or leads a new one. Pad lanes
/// (l >= n) copy lane 0's inputs: the vector ops are lane-independent,
/// so pad lanes are inert ballast whose results are never scattered.
void gather_group(Group& g, const LanePort* lanes, analog::Channel channel, double dt_s,
                  WordLane* wl, std::vector<Cohort>& coh) {
    const auto ch = static_cast<std::size_t>(channel);
    LaneIn in[kGroupLanes];
    g.k = 0;
    g.noisy = false;
    g.proven = divisor_in_range(dt_s);

    for (int l = 0; l < g.n; ++l) {
        const LanePort& port = lanes[g.first + l];
        analog::FrontEnd& f = *port.front_end;

        // The field holds over the advance (plain()), so the tick the
        // scalar step() would apply before every sample is the entry
        // sample's: apply it once, and every field- and
        // temperature-derived value gathered below is what step() sees.
        if (const magnetics::FieldSource* src = f.field_source()) {
            f.apply_field_tick(src->field_at(f.samples_stepped()));
        }

        // The mux sits on `channel` (plain()): its sensor and detector
        // are the active ones.
        const sensor::FluxgateSensor& sen = f.sensor(channel);
        analog::PulsePositionDetector& det = f.detector(channel);
        LaneIn& x = in[l];
        x.sensor = sen.constants();
        x.sensor_state = sen.save_state();
        x.hk = sen.core().knee_field();
        x.ms = sen.core().saturation_magnetisation();
        x.levels = det.levels();
        // Band-limited pickup noise (FrontEnd::add_noise_block hoists).
        // The member's stream is counter-based, so its key and counter
        // are all the kernel needs to draw exactly the variates the
        // scalar run would consume.
        x.noisy = has_pickup_noise(f);
        if (x.noisy) {
            x.noise = f.noise_shape(dt_s);
            x.noise_state = f.noise_filter_state();
            const util::CounterEngine& stream = f.pickup_noise().rng().engine();
            x.noise_key = stream.key();
            x.noise_counter = stream.counter();
            g.noisy = true;
        }
        x.energy_j = *port.energy_j;
        g.proven = g.proven && lane_in_range(x);

        WordLane& w = wl[l];
        w.det = det.save_state();
        w.win = f.save_window_state();
        w.win.prev[ch] = w.win.prev[ch] != 0 ? 1 : 0;

        // Counter. One that this advance clocks is an ideal register
        // under the one-bit clock (plain()), counted by Pass C from its
        // tick and output words.
        const digital::UpDownCounter* ctr = port.counter;
        w.fold = ctr != nullptr && ctr->enabled();
        w.ctr = w.fold ? ctr->save_state() : digital::UpDownCounter::State{};
        const double inc = w.fold ? dt_s * ctr->clock_hz() : 0.0;

        // The lane joins the first cohort with its key, or leads a new one.
        const CohortKey key = cohort_key(f, w.fold, w.ctr.tick_accumulator, inc);
        const auto c = static_cast<int>(
            std::find_if(coh.begin(), coh.end(), [&](const Cohort& x) { return x.key == key; }) -
            coh.begin());
        if (c == static_cast<int>(coh.size())) {
            coh.push_back({key, &f, w.fold, w.ctr.tick_accumulator, inc});
        }
        w.cohort = c;
        if (std::find(g.coh, g.coh + g.k, c) == g.coh + g.k) g.coh[g.k++] = c;
    }
    std::fill(in + g.n, in + kGroupLanes, in[0]);

    // The lanes of the group's cohorts after its first (every other
    // lane, pads included, takes the first's values).
    for (int j = 1; j < g.k; ++j) {
        alignas(64) double in01[kGroupLanes];
        for (int l = 0; l < kGroupLanes; ++l) {
            in01[l] = l < g.n && wl[l].cohort == g.coh[j] ? 1.0 : 0.0;
        }
        for (int s = 0; s < 2; ++s) g.in_coh[j][s] = mask_from01(v::load(in01 + s * W));
    }

    const v::dvec one_v = v::splat(1.0);
    const v::dvec zero_v = v::splat(0.0);
    for (int s = 0; s < 2; ++s) {
        const LaneIn* x = in + s * W;
        g.fpa[s] = across(x, &LaneIn::sensor, &SensorConstants::field_per_amp);
        g.hext[s] = across(x, &LaneIn::sensor, &SensorConstants::h_ext);
        g.nap[s] = across(x, &LaneIn::sensor, &SensorConstants::na_pickup);
        g.hk[s] = across(x, &LaneIn::hk);
        g.rhk[s] = v::div(one_v, g.hk[s]);
        g.ms[s] = across(x, &LaneIn::ms);
        g.off[s] = across(x, &LaneIn::levels, &Levels::offset);
        g.fall[s] = across(x, &LaneIn::levels, &Levels::fall);
        g.rise[s] = across(x, &LaneIn::levels, &Levels::rise);
        g.nalpha[s] = across(x, &LaneIn::noise, &NoiseShape::alpha);
        g.ndrive[s] = across(x, &LaneIn::noise, &NoiseShape::drive_rms);
        g.noisy_m[s] = mask_from01(across(x, &LaneIn::noisy));

        g.first_m[s] = mask_from01(across(x, &LaneIn::sensor_state, &SensorState::first_step));
        g.e[s] = across(x, &LaneIn::energy_j);
        g.nst[s] = across(x, &LaneIn::noise_state);
        g.lpprev[s] = across(x, &LaneIn::sensor_state, &SensorState::lambda_pickup_prev);
        g.h[s] = zero_v;
        g.b[s] = zero_v;
        g.bprev[s] = zero_v;
        g.vpick[s] = zero_v;
    }
    for (int l = 0; l < kGroupLanes; ++l) {
        g.noise_key[l] = in[l].noise_key;
        g.noise_counter[l] = in[l].noise_counter;
    }
}

/// Advances group g's S stripes through one tile of `tn` samples,
/// samples k0 .. k0 + tn - 1 of the advance, from the cohorts' tile of
/// excitation: each lane's drive and energy, Pass B, the pickup noise
/// and Pass C. Every statement runs across the group's S stripes (tiny
/// inner loops the compiler unrolls completely) before the next, so the
/// S per-stripe dependency spines sit interleaved in the instruction
/// stream and execute concurrently; the sensor pass interleaves U
/// samples of them as well. Returns true when the tile's numerators
/// were not proven in range, so Pass B divided through div_by's check.
template <int S>
bool advance_tile(Group& g, WordLane* wl, const Cohort* coh, const std::uint64_t* settle,
                  const std::uint64_t* ticks, std::size_t ch, int k0, int tn, double dt_s) {
    constexpr int GW = S * W;  // lanes in the group
    constexpr int kBytePlanes = (GW + 7) / 8;

    const v::dvec dt_v = v::splat(dt_s);
    const v::dvec rdt_v = v::splat(1.0 / dt_s);
    const v::dvec zero_v = v::splat(0.0);
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec mu0_v = v::splat(magnetics::kMu0);

    v::dvec fpa_v[S], hext_v[S], hk_v[S], rhk_v[S], ms_v[S], nap_v[S];
    v::dvec off_v[S], fall_v[S], rise_v[S];
    v::dvec lpprev_v[S], e_v[S], h_v[S], b_v[S], bprev_v[S], vpick_v[S];
    v::mask first_m[S];
    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        fpa_v[s] = g.fpa[s];
        hext_v[s] = g.hext[s];
        hk_v[s] = g.hk[s];
        rhk_v[s] = g.rhk[s];
        ms_v[s] = g.ms[s];
        nap_v[s] = g.nap[s];
        off_v[s] = g.off[s];
        fall_v[s] = g.fall[s];
        rise_v[s] = g.rise[s];
        lpprev_v[s] = g.lpprev[s];
        e_v[s] = g.e[s];
        h_v[s] = g.h[s];
        b_v[s] = g.b[s];
        bprev_v[s] = g.bprev[s];
        vpick_v[s] = g.vpick[s];
        first_m[s] = g.first_m[s];
    }

    // The numerator proof for this tile: the group's inputs, every one
    // of its cohorts' drive currents and the linkage it carries in.
    bool proven = g.proven;
    for (int j = 0; j < g.k; ++j) proven = proven && coh[g.coh[j]].proven;
    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) proven = proven && linkage_in_range(lpprev_v[s]);
    const auto divide = [proven]<int K>(v::dvec (&a)[K], const v::dvec (&b)[K],
                                        const v::dvec (&y)[K]) __attribute__((always_inline)) {
        if (proven) {
            v::div_by_in_range(a, b, y);
        } else {
            v::div_by(a, b, y);
        }
    };

    // The sample loop is tiled and split into three passes. One fused
    // per-sample body carries ~30 live vectors per stripe — far beyond
    // the register file — so the compiler spills and reloads most
    // state on every sample. Each pass below keeps only its own
    // stage's state live (inter-pass values ride in small L1-resident
    // tile buffers), and successive samples within a pass are nearly
    // independent, so the out-of-order core overlaps their long
    // divide/exp chains. The per-lane arithmetic and its ordering are
    // untouched: every lane still executes exactly the scalar
    // sequence, sample by sample.
    v::dvec bidrv[S * T];
    v::dvec bvdet[S * T];

    // Pass A: every lane takes its cohort's drive current and energy
    // increment (the cohorts' excitation ran through their leads'
    // stages for the whole batch), the group's first cohort's
    // broadcast with the others blended in by lane mask.
    {
        const Cohort& c0 = coh[g.coh[0]];
        for (int t = 0; t < tn; ++t) {
            v::dvec i_v[S], e_inc[S];
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                i_v[s] = v::splat(c0.i[t]);
                e_inc[s] = v::splat(c0.p[t] * dt_s);
            }
            for (int j = 1; j < g.k; ++j) {
                const Cohort& c = coh[g.coh[j]];
                const v::dvec ic = v::splat(c.i[t]);
                const v::dvec ec = v::splat(c.p[t] * dt_s);
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    i_v[s] = v::blend(g.in_coh[j][s], ic, i_v[s]);
                    e_inc[s] = v::blend(g.in_coh[j][s], ec, e_inc[s]);
                }
            }
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                bidrv[s * T + t] = i_v[s];
                e_v[s] = v::add(e_v[s], e_inc[s]);
            }
        }
    }

    // Pass B's pickup stage for samples t .. t + NU - 1 of the tile,
    // from their flux densities (FluxgateSensor::step): the pickup
    // linkage, its derivative against the previous sample's linkage,
    // and the detector input. Sample u's previous linkage is sample
    // u - 1's, and sample 0's is the one carried from the last call.
    // The last two flux densities are kept for the scatter
    // (FluxgateSensor::end_block).
    const auto pickup = [&]<int NU>(int t, const v::dvec (&bd)[NU][S])
                            __attribute__((always_inline)) {
        v::dvec lp[NU][S], vp[NU * S], dt[NU * S], rdt[NU * S];
        #pragma GCC unroll 8
        for (int u = 0; u < NU; ++u) {
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) lp[u][s] = v::mul(nap_v[s], bd[u][s]);
        }
        #pragma GCC unroll 8
        for (int u = 0; u < NU; ++u) {
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                const v::dvec prev = u == 0 ? lpprev_v[s] : lp[u - 1][s];
                vp[u * S + s] = v::sub(lp[u][s], prev);
                dt[u * S + s] = dt_v;
                rdt[u * S + s] = rdt_v;
            }
        }
        divide(vp, dt, rdt);
        if (k0 == 0 && t == 0) {
            // No derivative exists on a fresh sensor's first sample.
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                vp[s] = v::blend(first_m[s], zero_v, vp[s]);
                first_m[s] = v::m_splat(false);
            }
        }
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) {
            #pragma GCC unroll 8
            for (int u = 0; u < NU; ++u) bvdet[s * T + t + u] = vp[u * S + s];
            if constexpr (NU >= 2) {
                bprev_v[s] = bd[NU - 2][s];
            } else {
                bprev_v[s] = b_v[s];
            }
            lpprev_v[s] = lp[NU - 1][s];
            vpick_v[s] = vp[(NU - 1) * S + s];
            b_v[s] = bd[NU - 1][s];
        }
    };

    // Pass B: fluxgate sensor chain and pickup noise -> the detector's
    // input voltage. TanhCore::advance: ms * tanh(h / hk). The body
    // advances NU samples of all S stripes, and each of its statements
    // runs over all K = NU * S vectors before the next, so K independent
    // divide/exp chains overlap (one K-wide tanh). h / hk and the pickup
    // derivative divide through the reciprocals (divide), which leaves
    // the tanh quotient as each sample's one divider operation. vtanh and
    // both divisions are lane-independent, so each lane equals the
    // member's call. A tile's tail runs at NU = 1.
    const auto tanh_body = [&](auto nu, int t) {
        constexpr int NU = decltype(nu)::value;
        v::dvec h[NU][S], ms[NU][S], x[NU * S], hk[NU * S], rhk[NU * S], bd[NU][S];
        #pragma GCC unroll 8
        for (int u = 0; u < NU; ++u) {
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                // Active fluxgate sensor (FluxgateSensor::step).
                h[u][s] = v::add(v::mul(fpa_v[s], bidrv[s * T + t + u]), hext_v[s]);
                x[u * S + s] = h[u][s];
                hk[u * S + s] = hk_v[s];
                rhk[u * S + s] = rhk_v[s];
                ms[u][s] = ms_v[s];
            }
        }
        divide(x, hk, rhk);
        v::vtanh(x);
        #pragma GCC unroll 8
        for (int u = 0; u < NU; ++u) {
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                bd[u][s] = v::mul(mu0_v, v::add(h[u][s], v::mul(ms[u][s], x[u * S + s])));
            }
        }
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) h_v[s] = h[NU - 1][s];
        pickup(t, bd);
    };
    {
        constexpr int U = 4;
        int t = 0;
        for (; t + U <= tn; t += U) tanh_body(std::integral_constant<int, U>{}, t);
        for (; t < tn; ++t) tanh_body(std::integral_constant<int, 1>{}, t);
    }

    // Pickup noise for the whole tile, only in groups that carry any,
    // and with its state loaded and stored per tile, so the noise-free
    // kernel above carries nothing extra. Draw k of a lane is
    // splitmix64(key, counter + k): its pre-mix value
    // key + gamma (counter + k + 1) steps by gamma per draw (exact mod
    // 2^64), and a stripe of lanes is mixed at a time. The draws are
    // turned into deviates and shaped by the one-pole filter as vectors
    // with FrontEnd::add_noise_block's arithmetic, in the same order.
    // Noise-free lanes keep their voltage (blend).
    if (g.noisy) {
        alignas(64) std::int64_t nbits[T * GW];  // tile draws [sample * GW + lane]
        alignas(64) std::int64_t premix[GW];
        for (int l = 0; l < GW; ++l) {
            premix[l] = static_cast<std::int64_t>(util::splitmix64_premix(
                g.noise_key[l], g.noise_counter[l] + static_cast<std::uint64_t>(k0)));
        }
        const v::ivec gamma_v = v::i_splat(static_cast<std::int64_t>(util::kSplitmix64Gamma));
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) {
            v::ivec z = v::i_load(premix + s * W);
            for (int t = 0; t < tn; ++t) {
                v::i_store(nbits + t * GW + s * W, util::splitmix64_mix(z));
                z = v::i_add(z, gamma_v);
            }
        }
        v::dvec state_v[S], nalpha_v[S], ndrive_v[S];
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) {
            state_v[s] = g.nst[s];
            nalpha_v[s] = g.nalpha[s];
            ndrive_v[s] = g.ndrive[s];
        }
        for (int t = 0; t < tn; ++t) {
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                const v::dvec w = v::vgauss(v::i_load(nbits + t * GW + s * W));
                state_v[s] = v::add(
                    state_v[s], v::mul(nalpha_v[s], v::sub(v::mul(w, ndrive_v[s]), state_v[s])));
                bvdet[s * T + t] = v::blend(g.noisy_m[s], v::add(bvdet[s * T + t], state_v[s]),
                                            bvdet[s * T + t]);
            }
        }
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) g.nst[s] = state_v[s];
    }

    // Pass C: the detector, the stream statistics and the counters, on
    // 64-sample words (DESIGN.md section 12). The comparator inputs are
    // compared as vectors, and each compare's lane mask is stored as
    // one byte per sample. Each 64-byte plane is transposed into one
    // word per lane, and each real lane runs the block path's word
    // code, with its cohort's settle and tick words:
    // PulsePositionDetector::step_word, analog::fold_stream_word and
    // UpDownCounter::fold_ticks. The byte planes are zeroed, so a short
    // tile transposes no indeterminate byte.
    alignas(32) std::uint8_t lane_bytes[kStreams][kBytePlanes][T]{};
    alignas(64) std::uint64_t lane_words[kStreams][8 * kBytePlanes];
    const std::uint64_t* const lane_word_ptr[kStreams] = {
        lane_words[kRisePos], lane_words[kFallPos], lane_words[kRiseNeg], lane_words[kFallNeg]};
    const auto put = [&](int c, int t, const v::mask (&m)[S]) __attribute__((always_inline)) {
        unsigned b[kBytePlanes] = {};
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) b[s * W / 8] |= v::movemask(m[s]) << (s * W % 8);
        #pragma GCC unroll 8
        for (int p = 0; p < kBytePlanes; ++p) lane_bytes[c][p][t] = static_cast<std::uint8_t>(b[p]);
    };
    for (int t = 0; t < tn; ++t) {
        v::mask rise_p[S], fall_p[S], rise_n[S], fall_n[S];
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) {
            // The negative comparator is fed -v, an exact sign flip.
            const v::dvec vdet = bvdet[s * T + t];
            const v::dvec vpos = v::sub(vdet, off_v[s]);
            const v::dvec vneg = v::sub(v::bit_xor(vdet, sign_v), off_v[s]);
            rise_p[s] = v::cmp_gt(vpos, rise_v[s]);
            fall_p[s] = v::cmp_gt(fall_v[s], vpos);
            rise_n[s] = v::cmp_gt(vneg, rise_v[s]);
            fall_n[s] = v::cmp_gt(fall_v[s], vneg);
        }
        put(kRisePos, t, rise_p);
        put(kFallPos, t, fall_p);
        put(kRiseNeg, t, rise_n);
        put(kFallNeg, t, fall_n);
    }

    #pragma GCC unroll 4
    for (int c = 0; c < kStreams; ++c) {
        #pragma GCC unroll 2
        for (int p = 0; p < kBytePlanes; ++p) {
            util::bits::transpose_lanes(lane_bytes[c][p], lane_words[c] + 8 * p);
        }
    }

    step_word_lanes(wl, g.n, tn, ch, lane_word_ptr, settle, ticks);

    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        g.first_m[s] = first_m[s];
        g.e[s] = e_v[s];
        g.h[s] = h_v[s];
        g.b[s] = b_v[s];
        g.bprev[s] = bprev_v[s];
        g.lpprev[s] = lpprev_v[s];
        g.vpick[s] = vpick_v[s];
    }
    return !proven;
}

/// Writes group g's lanes back through the stages' seams after the
/// advance's last tile.
void scatter_group(const Group& g, const LanePort* lanes, const WordLane* wl,
                   const Cohort* coh, analog::Channel channel, int steps, double dt_s) {
    using analog::Channel;
    alignas(64) double h_a[kGroupLanes], b_a[kGroupLanes], bprev_a[kGroupLanes];
    alignas(64) double vp_a[kGroupLanes], e_a[kGroupLanes], nst_a[kGroupLanes];
    for (int s = 0; s < 2; ++s) {
        const int l = s * W;
        v::store(h_a + l, g.h[s]);
        v::store(b_a + l, g.b[s]);
        v::store(bprev_a + l, g.bprev[s]);
        v::store(vp_a + l, g.vpick[s]);
        v::store(e_a + l, g.e[s]);
        v::store(nst_a + l, g.nst[s]);
    }

    const int last = (steps - 1) % T;  // the last sample's place in its tile
    const Channel idle = channel == Channel::X ? Channel::Y : Channel::X;
    for (int l = 0; l < g.n; ++l) {
        const LanePort& port = lanes[g.first + l];
        analog::FrontEnd& f = *port.front_end;
        const WordLane& w = wl[l];
        const Cohort& c = coh[w.cohort];

        // Every lane of a cohort ends in its lead's oscillator and mux
        // state (the lead's own stages stepped in place).
        f.oscillator().load_state(c.lead->oscillator().save_state());
        f.mux().load_state(c.lead->mux().save_state());

        sensor::FluxgateSensor& sen = f.sensor_mut(channel);
        sen.end_block(steps, dt_s, c.i[last], h_a[l], b_a[l], bprev_a[l], vp_a[l]);
        // Re-sync the TanhCore's remembered field; the model is
        // otherwise stateless, so one advance() at the final H
        // reproduces the state after every per-sample call.
        sen.core_mut().advance(h_a[l]);
        f.sensor_mut(idle).step_block_constant(0.0, dt_s, steps);

        f.detector(channel).load_state(w.det);

        if (has_pickup_noise(f)) {
            f.set_noise_filter_state(nst_a[l]);
            f.pickup_noise().rng().engine().discard(static_cast<std::uint64_t>(steps));
        }

        // Fold this advance into the member's window.
        analog::FrontEnd::StreamWindowState win = w.win;
        win.stats[0].samples += static_cast<std::uint64_t>(steps);
        win.stats[1].samples += static_cast<std::uint64_t>(steps);
        win.sample_index += static_cast<std::uint64_t>(steps);
        f.load_window_state(win);

        if (w.fold) {
            port.counter->load_state({c.acc, w.ctr.count, w.ctr.active_ticks});
        }

        *port.energy_j = e_a[l];
    }
}

/// Advances one batch of n <= LaneEngine::kBatchLanes plain lanes:
/// gathers every group and joins its lanes to the batch's cohorts;
/// then, tile by tile, runs each cohort's excitation once through its
/// lead lane's own block code and advances each group through the
/// tile; then scatters every group.
void advance_batch(const LanePort* lanes, int n, analog::Channel channel, int steps,
                   double dt_s) {
    // Pair stripes whenever more than one stripe of lanes remains: the
    // interleaved body overlaps their dependency chains. A trailing
    // partial stripe rides along as pad lanes.
    const auto group_lanes = [](int rem) { return rem > W ? std::min(kGroupLanes, rem) : rem; };
    int n_groups = 0;
    for (int base = 0; base < n; base += group_lanes(n - base)) ++n_groups;
    Batch& batch = batch_for(n, n_groups);
    Group* const groups = batch.groups.data();
    WordLane* const wl = batch.lanes.data();
    for (int gi = 0, base = 0; gi < n_groups; ++gi) {
        Group& g = groups[gi];
        g.first = base;
        g.n = group_lanes(n - base);
        gather_group(g, lanes, channel, dt_s, wl + base, batch.cohorts);
        base += g.n;
    }
    const int k = static_cast<int>(batch.cohorts.size());
    Cohort* const coh = batch.cohorts.data();
    std::uint64_t* const settle = batch.settle.data();
    std::uint64_t* const ticks = batch.ticks.data();
    g_group_advances.fetch_add(static_cast<std::uint64_t>(n_groups), std::memory_order_relaxed);
    g_excitation_passes.fetch_add(static_cast<std::uint64_t>(k), std::memory_order_relaxed);

    const auto ch = static_cast<std::size_t>(channel);
    std::uint64_t checked = 0;
    for (int k0 = 0; k0 < steps; k0 += T) {
        const int tn = std::min(T, steps - k0);
        // Oscillator, V-I converter, mux settling, the counter clock and
        // supply power: each cohort runs its lead lane's own stages once
        // for the batch (the member path's block code), and a counting
        // cohort's clock ticks over the settled samples, as its lanes'
        // counters' step_block would.
        for (int c = 0; c < k; ++c) {
            Cohort& x = coh[c];
            analog::FrontEnd& f = *x.lead;
            f.oscillator().step_block(dt_s, tn, x.i);
            f.vi_converter().drive_block(x.i, f.config().sensor.r_excitation_ohm, tn, x.i);
            f.mux().step_block(dt_s, tn, &settle[c]);
            ticks[c] = x.counts ? digital::UpDownCounter::tick_word(x.acc, x.inc, settle[c]) : 0;
            f.supply_power_block(x.i, tn, x.p);
            x.proven = drive_in_range(x.i, tn);
        }
        for (int gi = 0; gi < n_groups; ++gi) {
            Group& g = groups[gi];
            const bool tile_checked =
                g.n > W ? advance_tile<2>(g, wl + g.first, coh, settle, ticks, ch, k0, tn, dt_s)
                        : advance_tile<1>(g, wl + g.first, coh, settle, ticks, ch, k0, tn, dt_s);
            checked += tile_checked ? 1 : 0;
        }
    }
    if (checked != 0) g_checked_tiles.fetch_add(checked, std::memory_order_relaxed);

    for (int gi = 0; gi < n_groups; ++gi) {
        scatter_group(groups[gi], lanes, wl + groups[gi].first, coh, channel, steps, dt_s);
    }
}

}  // namespace

std::uint64_t group_advance_count() noexcept {
    return g_group_advances.load(std::memory_order_relaxed);
}

std::uint64_t excitation_pass_count() noexcept {
    return g_excitation_passes.load(std::memory_order_relaxed);
}

std::uint64_t checked_division_tile_count() noexcept {
    return g_checked_tiles.load(std::memory_order_relaxed);
}

bool LaneEngine::plain(const LanePort& port, analog::Channel channel, int steps,
                       double dt_s) {
    // Simultaneous mode duplicates the whole chain (two oscillators,
    // per-sample interleaved noise draws); it, a gated-off section,
    // other core models, taps, moving fields and a mux stuck on the
    // other channel stay with the member's own engine.
    const analog::FrontEnd& f = *port.front_end;
    if (f.config().mode != analog::FrontEndMode::Multiplexed || !f.enabled() ||
        f.sample_tap() != nullptr || f.selected() != channel) {
        return false;
    }
    for (const analog::Channel ch : {analog::Channel::X, analog::Channel::Y}) {
        if (dynamic_cast<const magnetics::TanhCore*>(&f.sensor(ch).core()) == nullptr) {
            return false;
        }
    }
    if (const magnetics::FieldSource* src = f.field_source()) {
        const std::uint64_t k = f.samples_stepped();
        if (!src->constant_over(k, k + static_cast<std::uint64_t>(steps))) return false;
    }
    // A counter that this advance clocks must be an ideal register
    // under the one-bit clock, which Pass C folds.
    const digital::UpDownCounter* ctr = port.counter;
    if (ctr == nullptr || !ctr->enabled()) return true;
    return !ctr->hardware_engaged() &&
           digital::UpDownCounter::one_bit_clock(ctr->save_state().tick_accumulator,
                                                 dt_s * ctr->clock_hz());
}

int LaneEngine::lanes_per_stripe() noexcept { return v::kLanes; }

const char* LaneEngine::backend_name() noexcept { return v::backend_name(); }

void LaneEngine::advance(const LanePort* lanes, int n_lanes, analog::Channel channel,
                         int steps, double dt_s) {
    // A zero-step advance performs no member work at all on the scalar
    // path (no samples, no index motion) — mirror that.
    if (n_lanes <= 0 || steps <= 0) return;
    // Every check runs before the first gather, so a refused advance
    // leaves every member as it was.
    if (!(dt_s > 0.0)) throw std::invalid_argument("LaneEngine::advance: dt must be > 0");
    for (int l = 0; l < n_lanes; ++l) {
        if (!plain(lanes[l], channel, steps, dt_s)) {
            throw std::invalid_argument("LaneEngine::advance: lane is not plain");
        }
    }
    for (int base = 0; base < n_lanes; base += kBatchLanes) {
        advance_batch(lanes + base, std::min(kBatchLanes, n_lanes - base), channel, steps, dt_s);
    }
}

}  // namespace fxg::sim
