#include "sim/lane_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <type_traits>

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

/// Builds a per-lane mask from a vector of 0.0/1.0 lanes.
inline v::mask mask_from01(v::dvec b01) { return v::cmp_gt(b01, v::splat(0.5)); }

using SensorConstants = sensor::FluxgateSensor::Constants;
using SensorState = sensor::FluxgateSensor::State;
using Levels = analog::PulsePositionDetector::Levels;
using NoiseShape = analog::FrontEnd::NoiseShape;

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

}  // namespace

std::uint64_t group_advance_count() noexcept {
    return g_group_advances.load(std::memory_order_relaxed);
}

std::uint64_t excitation_pass_count() noexcept {
    return g_excitation_passes.load(std::memory_order_relaxed);
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
    for (int base = 0; base < n_lanes;) {
        const int rem = n_lanes - base;
        // Pair stripes whenever more than one stripe of lanes remains:
        // the interleaved kernel overlaps their dependency chains. A
        // trailing partial stripe rides along as pad lanes.
        const int take = rem > W ? std::min(2 * W, rem) : rem;
        if (take > W) {
            advance_group<2>(lanes + base, take, channel, steps, dt_s);
        } else {
            advance_group<1>(lanes + base, take, channel, steps, dt_s);
        }
        base += take;
    }
}

template <int S>
void LaneEngine::advance_group(const LanePort* lanes, int n, analog::Channel channel,
                               int steps, double dt_s) {
    using analog::Channel;
    constexpr int GW = S * W;  // lanes in the group
    // Pass C's lane bytes: stripe s holds bits [(s * W) % 8, + W) of
    // byte plane (s * W) / 8, so a group fills one plane per 8 lanes.
    static_assert(8 % W == 0 && GW <= 16);
    constexpr int kBytePlanes = (GW + 7) / 8;

    // ---- Gather: per-lane constants and evolving state ----------------
    //
    // Each lane's LaneIn comes from its stages' own calls (the values
    // their step() and step_block() hoist), so the per-lane arithmetic
    // in the kernel is bit-identical to the per-member path. Remainder
    // lanes (l >= n) copy lane 0's inputs: the vector ops are
    // lane-independent, so pad lanes are inert ballast whose results
    // are never scattered.

    const auto ch = static_cast<std::size_t>(channel);
    LaneIn in[GW];
    WordLane wl[GW];  // Pass C's per-lane word state (real lanes only)

    // Cohorts: lanes whose keys match bit for bit. Cohort c's lead lane
    // (its first) runs the excitation for all of them.
    CohortKey keys[GW];
    analog::FrontEnd* lead[GW]{};
    bool counts[GW]{};  // the cohort's counters are clocked by this advance
    v::dvec acc_v[GW], inc_v[GW];
    int k = 0;

    bool stripe_noise = false;

    for (int l = 0; l < n; ++l) {
        analog::FrontEnd& f = *lanes[l].front_end;

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
        x.noisy = f.config().pickup_noise_rms_v != 0.0;
        if (x.noisy) {
            x.noise = f.noise_shape(dt_s);
            x.noise_state = f.noise_filter_state();
            const util::CounterEngine& stream = f.pickup_noise().rng().engine();
            x.noise_key = stream.key();
            x.noise_counter = stream.counter();
            stripe_noise = true;
        }
        x.energy_j = *lanes[l].energy_j;

        WordLane& w = wl[l];
        w.det = det.save_state();
        w.win = f.save_window_state();
        w.win.prev[ch] = w.win.prev[ch] != 0 ? 1 : 0;

        // Counter. One that this advance clocks is an ideal register
        // under the one-bit clock (plain()), counted by Pass C from its
        // tick and output words.
        const digital::UpDownCounter* ctr = lanes[l].counter;
        w.fold = ctr != nullptr && ctr->enabled();
        w.ctr = w.fold ? ctr->save_state() : digital::UpDownCounter::State{};
        const double inc = w.fold ? dt_s * ctr->clock_hz() : 0.0;

        // The lane joins the first cohort with its key, or leads a new one.
        const CohortKey key = cohort_key(f, w.fold, w.ctr.tick_accumulator, inc);
        w.cohort = static_cast<int>(std::find(keys, keys + k, key) - keys);
        if (w.cohort == k) {
            keys[k] = key;
            lead[k] = &f;
            counts[k] = w.fold;
            acc_v[k] = v::splat(w.ctr.tick_accumulator);
            inc_v[k] = v::splat(inc);
            ++k;
        }
    }
    std::fill(in + n, in + GW, in[0]);
    g_group_advances.fetch_add(1, std::memory_order_relaxed);
    g_excitation_passes.fetch_add(static_cast<std::uint64_t>(k), std::memory_order_relaxed);

    // Cohort c's lanes, for c >= 1 (cohort 0 is every other lane, pads
    // included).
    v::mask in_cohort[GW][S];
    for (int c = 1; c < k; ++c) {
        alignas(64) double in01[GW];
        for (int l = 0; l < GW; ++l) in01[l] = l < n && wl[l].cohort == c ? 1.0 : 0.0;
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) in_cohort[c][s] = mask_from01(v::load(in01 + s * W));
    }

    // ---- Vector kernel: all lanes of the group -------------------------
    //
    // Every statement runs across the group's S stripes (tiny inner
    // loops the compiler unrolls completely) before the next, so the
    // S per-stripe dependency spines sit interleaved in the
    // instruction stream and execute concurrently; the sensor pass
    // interleaves U samples of them as well.

    const v::dvec dt_v = v::splat(dt_s);
    const v::dvec rdt_v = v::splat(1.0 / dt_s);
    const v::dvec zero_v = v::splat(0.0);
    const v::dvec one_v = v::splat(1.0);
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec mu0_v = v::splat(magnetics::kMu0);

    v::dvec fpa_v[S], hext_v[S], hk_v[S], rhk_v[S], ms_v[S], nap_v[S];
    v::dvec off_v[S], fall_v[S], rise_v[S];
    v::dvec lpprev_v[S];
    v::mask first_m[S];
    v::dvec e_v[S];
    v::dvec nalpha_v[S], ndrive_v[S], nst_v[S];
    v::mask noisy_m[S];
    // Loop-carried last-sample values needed at scatter: H, B, the B of
    // the sample before it, and the pickup voltage.
    v::dvec h_v[S], b_v[S], bprev_v[S], vpick_v[S];

    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        const LaneIn* g = in + s * W;
        fpa_v[s] = across(g, &LaneIn::sensor, &SensorConstants::field_per_amp);
        hext_v[s] = across(g, &LaneIn::sensor, &SensorConstants::h_ext);
        nap_v[s] = across(g, &LaneIn::sensor, &SensorConstants::na_pickup);
        hk_v[s] = across(g, &LaneIn::hk);
        rhk_v[s] = v::div(one_v, hk_v[s]);
        ms_v[s] = across(g, &LaneIn::ms);
        off_v[s] = across(g, &LaneIn::levels, &Levels::offset);
        fall_v[s] = across(g, &LaneIn::levels, &Levels::fall);
        rise_v[s] = across(g, &LaneIn::levels, &Levels::rise);

        lpprev_v[s] = across(g, &LaneIn::sensor_state, &SensorState::lambda_pickup_prev);
        first_m[s] = mask_from01(across(g, &LaneIn::sensor_state, &SensorState::first_step));
        e_v[s] = across(g, &LaneIn::energy_j);
        nalpha_v[s] = across(g, &LaneIn::noise, &NoiseShape::alpha);
        ndrive_v[s] = across(g, &LaneIn::noise, &NoiseShape::drive_rms);
        nst_v[s] = across(g, &LaneIn::noise_state);
        noisy_m[s] = mask_from01(across(g, &LaneIn::noisy));
        h_v[s] = zero_v;
        b_v[s] = zero_v;
        bprev_v[s] = zero_v;
        vpick_v[s] = zero_v;
    }

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
    constexpr int T = 64;  // one settle or tick word per cohort and tile
    v::dvec bidrv[S * T];
    v::dvec bvdet[S * T];
    // Pass C's byte planes (zeroed, so a short tile transposes no
    // indeterminate byte) and the lane words transposed from them.
    alignas(32) std::uint8_t lane_bytes[kStreams][kBytePlanes][T]{};
    alignas(64) std::uint64_t lane_words[kStreams][8 * kBytePlanes];
    const std::uint64_t* const lane_word_ptr[kStreams] = {
        lane_words[kRisePos], lane_words[kFallPos], lane_words[kRiseNeg],
        lane_words[kFallNeg]};
    alignas(64) std::int64_t nbits[T * GW];  // tile draws [sample * GW + lane]
    // Each cohort's excitation tile: drive current and supply power per
    // sample, and the settle flags and ticks as one word each.
    double coh_i[GW][T], coh_p[GW][T];
    std::uint64_t settle_w[GW]{}, tick_w[GW]{};
    // Cohort 0's clock, in registers across the tile loop.
    v::dvec acc0_v = acc_v[0];
    const v::dvec inc0_v = inc_v[0];

    for (int k0 = 0; k0 < steps; k0 += T) {
        const int tn = std::min(T, steps - k0);
        // Pass A: oscillator, V-I converter, mux settling, supply
        // power/energy. Each cohort runs its lead lane's own stages
        // once (the member path's block code); every lane takes its
        // cohort's drive and energy increment, cohort 0's broadcast
        // with the others blended in by lane mask.
        for (int c = 0; c < k; ++c) {
            analog::FrontEnd& f = *lead[c];
            f.oscillator().step_block(dt_s, tn, coh_i[c]);
            f.vi_converter().drive_block(coh_i[c], f.config().sensor.r_excitation_ohm, tn,
                                         coh_i[c]);
            f.mux().step_block(dt_s, tn, &settle_w[c]);
            f.supply_power_block(coh_i[c], tn, coh_p[c]);
        }
        for (int t = 0; t < tn; ++t) {
            v::dvec i_v[S], e_inc[S];
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                i_v[s] = v::splat(coh_i[0][t]);
                e_inc[s] = v::splat(coh_p[0][t] * dt_s);
            }
            for (int c = 1; c < k; ++c) {
                const v::dvec ic = v::splat(coh_i[c][t]);
                const v::dvec ec = v::splat(coh_p[c][t] * dt_s);
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    i_v[s] = v::blend(in_cohort[c][s], ic, i_v[s]);
                    e_inc[s] = v::blend(in_cohort[c][s], ec, e_inc[s]);
                }
            }
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                bidrv[s * T + t] = i_v[s];
                e_v[s] = v::add(e_v[s], e_inc[s]);
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
            v::div_by(vp, dt, rdt);
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

        // Pass B: fluxgate sensor chain and pickup noise -> the
        // detector's input voltage. TanhCore::advance: ms * tanh(h / hk).
        // The body advances NU samples of all S stripes, and each of its
        // statements runs over all K = NU * S vectors before the next, so
        // K independent divide/exp chains overlap (one K-wide tanh). h / hk
        // and the pickup derivative divide through the reciprocals
        // (v::div_by), which leaves the tanh quotient as each sample's one
        // divider operation. vtanh and div_by are lane-independent, so
        // each lane equals the member's call. A tile's tail runs at NU = 1.
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
            v::div_by(x, hk, rhk);
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

        // Pickup noise for the whole tile, only in groups that carry
        // any, and with its state loaded and stored per tile, so the
        // noise-free kernel above carries nothing extra. Draw k of a
        // lane is splitmix64(key, counter + k): its pre-mix value
        // key + gamma (counter + k + 1) steps by gamma per draw (exact
        // mod 2^64), and a stripe of lanes is mixed at a time. The
        // draws are turned into deviates and shaped by the one-pole
        // filter as vectors with FrontEnd::add_noise_block's
        // arithmetic, in the same order. Noise-free lanes keep their
        // voltage (blend).
        if (stripe_noise) {
            alignas(64) std::int64_t premix[GW];
            for (int l = 0; l < GW; ++l) {
                premix[l] = static_cast<std::int64_t>(util::splitmix64_premix(
                    in[l].noise_key, in[l].noise_counter + static_cast<std::uint64_t>(k0)));
            }
            const v::ivec gamma_v =
                v::i_splat(static_cast<std::int64_t>(util::kSplitmix64Gamma));
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                v::ivec z = v::i_load(premix + s * W);
                for (int t = 0; t < tn; ++t) {
                    v::i_store(nbits + t * GW + s * W, util::splitmix64_mix(z));
                    z = v::i_add(z, gamma_v);
                }
            }
            v::dvec state_v[S];
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) state_v[s] = nst_v[s];
            for (int t = 0; t < tn; ++t) {
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    const v::dvec w = v::vgauss(v::i_load(nbits + t * GW + s * W));
                    state_v[s] = v::add(
                        state_v[s],
                        v::mul(nalpha_v[s], v::sub(v::mul(w, ndrive_v[s]), state_v[s])));
                    bvdet[s * T + t] = v::blend(noisy_m[s],
                                                v::add(bvdet[s * T + t], state_v[s]),
                                                bvdet[s * T + t]);
                }
            }
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) nst_v[s] = state_v[s];
        }

        // Pass C: the detector, the stream statistics and the counters,
        // on 64-sample words (DESIGN.md section 12). The comparator
        // inputs are compared as vectors, and each compare's lane mask
        // is stored as one byte per sample. Each 64-byte plane is
        // transposed into one word per lane, and each real lane runs
        // the block path's word code, with its cohort's settle and tick
        // words: PulsePositionDetector::step_word,
        // analog::fold_stream_word and UpDownCounter::fold_ticks.
        const auto put = [&](int c, int t, const v::mask (&m)[S])
                             __attribute__((always_inline)) {
            unsigned b[kBytePlanes] = {};
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) b[s * W / 8] |= v::movemask(m[s]) << (s * W % 8);
            #pragma GCC unroll 8
            for (int p = 0; p < kBytePlanes; ++p) {
                lane_bytes[c][p][t] = static_cast<std::uint8_t>(b[p]);
            }
        };
        // A counting cohort's clock: UpDownCounter::clock_step under the
        // one-bit condition, on a vector whose lanes all hold the
        // cohort's accumulator. 0 < acc + inc < 2, so the carry is
        // (acc + inc >= 1) and s - 0 is s. Sample t ticks if its settle
        // flag is set and the carry comes.
        const auto step_clock = [&](v::dvec& acc, v::dvec inc, std::uint64_t settle,
                                    std::uint64_t& ticks, int t)
                                    __attribute__((always_inline)) {
            const v::mask clocked = v::m_splat(((settle >> t) & 1) != 0);
            const v::dvec sum = v::add(acc, inc);
            const v::mask carry = v::cmp_ge(sum, one_v);
            acc = v::blend(clocked, v::blend(carry, v::sub(sum, one_v), sum), acc);
            ticks |= std::uint64_t{v::movemask(v::m_and(carry, clocked)) & 1u} << t;
        };
        std::uint64_t ticks0 = 0;
        std::fill_n(tick_w, k, 0);
        for (int t = 0; t < tn; ++t) {
            // Each counting cohort's clock steps once, beside the
            // compares, which hide its branch-free serial chain.
            if (counts[0]) step_clock(acc0_v, inc0_v, settle_w[0], ticks0, t);
            for (int c = 1; c < k; ++c) {
                if (counts[c]) step_clock(acc_v[c], inc_v[c], settle_w[c], tick_w[c], t);
            }
            v::mask rise_p[S], fall_p[S], rise_n[S], fall_n[S];
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                // The negative comparator is fed -v, an exact sign
                // flip.
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
        tick_w[0] = ticks0;

        #pragma GCC unroll 4
        for (int c = 0; c < kStreams; ++c) {
            #pragma GCC unroll 2
            for (int p = 0; p < kBytePlanes; ++p) {
                util::bits::transpose_lanes(lane_bytes[c][p], lane_words[c] + 8 * p);
            }
        }

        step_word_lanes(wl, n, tn, ch, lane_word_ptr, settle_w, tick_w);
    }
    acc_v[0] = acc0_v;

    // ---- Scatter: write state back through the stages' seams ----------

    alignas(64) double h_a[GW], b_a[GW], bprev_a[GW], vp_a[GW], e_a[GW], nst_a[GW];
    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        const int g = s * W;
        v::store(h_a + g, h_v[s]);
        v::store(b_a + g, b_v[s]);
        v::store(bprev_a + g, bprev_v[s]);
        v::store(vp_a + g, vpick_v[s]);
        v::store(e_a + g, e_v[s]);
        v::store(nst_a + g, nst_v[s]);
    }

    const int last = (steps - 1) % T;  // the last sample's place in its tile
    const Channel idle = channel == Channel::X ? Channel::Y : Channel::X;
    for (int l = 0; l < n; ++l) {
        analog::FrontEnd& f = *lanes[l].front_end;
        const int c = wl[l].cohort;

        // Every lane of a cohort ends in its lead's oscillator and mux
        // state (the lead's own stages stepped in place).
        f.oscillator().load_state(lead[c]->oscillator().save_state());
        f.mux().load_state(lead[c]->mux().save_state());

        sensor::FluxgateSensor& sen = f.sensor_mut(channel);
        sen.end_block(steps, dt_s, coh_i[c][last], h_a[l], b_a[l], bprev_a[l], vp_a[l]);
        // Re-sync the TanhCore's remembered field; the model is
        // otherwise stateless, so one advance() at the final H
        // reproduces the state after every per-sample call.
        sen.core_mut().advance(h_a[l]);
        f.sensor_mut(idle).step_block_constant(0.0, dt_s, steps);

        f.detector(channel).load_state(wl[l].det);

        if (in[l].noisy) {
            f.set_noise_filter_state(nst_a[l]);
            f.pickup_noise().rng().engine().discard(static_cast<std::uint64_t>(steps));
        }

        // Fold this advance into the member's window.
        analog::FrontEnd::StreamWindowState& win = wl[l].win;
        win.stats[0].samples += static_cast<std::uint64_t>(steps);
        win.stats[1].samples += static_cast<std::uint64_t>(steps);
        win.sample_index += static_cast<std::uint64_t>(steps);
        f.load_window_state(win);

        if (wl[l].fold) {
            lanes[l].counter->load_state(
                {v::first(acc_v[c]), wl[l].ctr.count, wl[l].ctr.active_ticks});
        }

        *lanes[l].energy_j = e_a[l];
    }
}

}  // namespace fxg::sim
