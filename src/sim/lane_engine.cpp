#include "sim/lane_engine.hpp"

#include <algorithm>
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

/// Builds a per-lane mask from a 0.0/1.0 array.
inline v::mask mask_from01(const double* b01) {
    return v::cmp_gt(v::load(b01), v::splat(0.5));
}

/// True when lanes [1, n) of `a` hold exactly lane 0's bits.
inline bool lanes_match(const double* a, int n) {
    const auto bits0 = std::bit_cast<std::uint64_t>(a[0]);
    for (int l = 1; l < n; ++l) {
        if (std::bit_cast<std::uint64_t>(a[l]) != bits0) return false;
    }
    return true;
}

/// Pass C's streams: the four comparator decisions, a per-lane group's
/// settle flags and a per-lane clock's ticks.
enum Stream { kRisePos, kFallPos, kRiseNeg, kFallNeg, kSettle, kTick, kStreams };

/// One real lane's share of Pass C's word code: its detector latches,
/// stream-window statistics and counter.
struct WordLane {
    analog::PulsePositionDetector::State det;
    analog::FrontEnd::StreamWindowState win;
    digital::UpDownCounter::State ctr;
    std::size_t ch = 0;  ///< active channel
    bool fold = false;   ///< counter clocked by this advance, counted here
};

/// Pass C's word code for one tile of `nb` samples: lane l's comparator
/// words are words[c][l]. The settle flags come from words[kSettle]
/// (per-lane excitation) or `shared_settle`, the ticks from
/// words[kTick] (per-lane clock) or `shared_ticks`.
void step_word_lanes(WordLane* lanes, int n, int nb, const std::uint64_t* const* words,
                     std::uint64_t shared_settle, std::uint64_t shared_ticks) {
    const std::uint64_t* const rise_p = words[kRisePos];
    const std::uint64_t* const fall_p = words[kFallPos];
    const std::uint64_t* const rise_n = words[kRiseNeg];
    const std::uint64_t* const fall_n = words[kFallNeg];
    const std::uint64_t* const settle = words[kSettle];
    const std::uint64_t* const tick = words[kTick];
    const std::uint64_t live = util::bits::low_mask(nb);
    for (int l = 0; l < n; ++l) {
        WordLane& lane = lanes[l];
        const std::uint64_t out = analog::PulsePositionDetector::step_word(
            {rise_p[l], fall_p[l], rise_n[l], fall_n[l]}, nb, lane.det);
        const std::uint64_t valid = settle != nullptr ? settle[l] & live : shared_settle;
        analog::fold_stream_word(lane.win.stats[lane.ch], lane.win.prev[lane.ch],
                                 lane.win.has_prev[lane.ch], out, valid, nb);
        if (lane.fold) {
            digital::UpDownCounter::fold_ticks(tick != nullptr ? tick[l] & live : shared_ticks,
                                               out, lane.ctr);
        }
    }
}

std::atomic<std::uint64_t> g_shared_excitation{0};
std::atomic<std::uint64_t> g_per_lane_excitation{0};

}  // namespace

std::uint64_t shared_excitation_count() noexcept {
    return g_shared_excitation.load(std::memory_order_relaxed);
}

std::uint64_t per_lane_excitation_count() noexcept {
    return g_per_lane_excitation.load(std::memory_order_relaxed);
}

bool LaneEngine::plain(const LanePort& port, analog::Channel channel, int steps,
                       double dt_s) {
    // Simultaneous mode duplicates the whole chain (two oscillators,
    // per-sample interleaved noise draws); it, a gated-off section,
    // other core models, taps and moving fields stay with the member's
    // own engine.
    const analog::FrontEnd& f = *port.front_end;
    if (f.config().mode != analog::FrontEndMode::Multiplexed || !f.enabled() ||
        f.sample_tap() != nullptr) {
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
    // A counter that sees this channel's samples must be an ideal
    // register under the one-bit clock, which Pass C folds.
    const digital::UpDownCounter* ctr = port.counter;
    if (ctr == nullptr || !ctr->enabled() || f.selected() != channel) return true;
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
    // Every constant below is computed with exactly the expression the
    // corresponding stage's step()/step_block() hoists, so the per-lane
    // arithmetic in the kernel is bit-identical to the per-member path.
    // Remainder lanes (l >= n) replicate lane 0's values with all
    // member-touching flags off: the vector ops are lane-independent,
    // so pad lanes are inert ballast whose results are never scattered.

    analog::FrontEnd* fe[GW];
    digital::UpDownCounter* ctr[GW];
    Channel active_ch[GW];
    bool lane_noise[GW];
    bool lane_first[GW];

    alignas(64) double freq_a[GW], gain_a[GW], curv_a[GW], dc_a[GW], cgain_a[GW],
        correct01_a[GW];
    alignas(64) double vig_a[GW], fs_a[GW], linfs_a[GW], lim_a[GW], neglim_a[GW];
    alignas(64) double fpa_a[GW], hext_a[GW], hk_a[GW], ms_a[GW], nap_a[GW],
        nae_a[GW];
    double r_exc_a[GW];
    alignas(64) double settle_a[GW], off_a[GW], fall_a[GW], rise_a[GW];
    alignas(64) double bias_a[GW], supply_a[GW];
    alignas(64) double inc_a[GW], count01_a[GW], first01_a[GW];
    alignas(64) double nalpha[GW], ndrive[GW], nst[GW], noise01_a[GW];
    std::uint64_t nkey[GW], nctr[GW];

    alignas(64) double time_a[GW], phase_a[GW], corr_a[GW], pint_a[GW], ptime_a[GW];
    alignas(64) double since_a[GW], lp_a[GW], le_a[GW], acc_a[GW], e_a[GW];
    WordLane wl[GW];  // Pass C's per-lane word state (real lanes only)

    bool stripe_noise = false;

    for (int l = 0; l < GW; ++l) {
        if (l >= n) {
            // Pad lane: copy lane 0's numeric inputs, disable everything.
            fe[l] = nullptr;
            ctr[l] = nullptr;
            active_ch[l] = active_ch[0];
            lane_noise[l] = lane_first[l] = false;
            freq_a[l] = freq_a[0]; gain_a[l] = gain_a[0]; curv_a[l] = curv_a[0];
            dc_a[l] = dc_a[0]; cgain_a[l] = cgain_a[0]; correct01_a[l] = correct01_a[0];
            vig_a[l] = vig_a[0]; fs_a[l] = fs_a[0]; linfs_a[l] = linfs_a[0];
            lim_a[l] = lim_a[0]; neglim_a[l] = neglim_a[0];
            fpa_a[l] = fpa_a[0]; hext_a[l] = hext_a[0]; hk_a[l] = hk_a[0];
            ms_a[l] = ms_a[0]; nap_a[l] = nap_a[0]; nae_a[l] = nae_a[0];
            r_exc_a[l] = r_exc_a[0];
            settle_a[l] = settle_a[0]; off_a[l] = off_a[0]; fall_a[l] = fall_a[0];
            rise_a[l] = rise_a[0];
            bias_a[l] = bias_a[0]; supply_a[l] = supply_a[0];
            inc_a[l] = inc_a[0]; count01_a[l] = 0.0; first01_a[l] = first01_a[0];
            nalpha[l] = ndrive[l] = nst[l] = noise01_a[l] = 0.0;
            nkey[l] = nctr[l] = 0;
            time_a[l] = time_a[0]; phase_a[l] = phase_a[0]; corr_a[l] = corr_a[0];
            pint_a[l] = pint_a[0]; ptime_a[l] = ptime_a[0]; since_a[l] = since_a[0];
            lp_a[l] = lp_a[0]; le_a[l] = le_a[0]; acc_a[l] = acc_a[0];
            e_a[l] = e_a[0];
            continue;
        }

        analog::FrontEnd& f = *lanes[l].front_end;
        fe[l] = &f;
        ctr[l] = lanes[l].counter;
        const analog::FrontEndConfig& c = f.config();
        const Channel ach = f.selected();
        active_ch[l] = ach;
        const auto ai = static_cast<std::size_t>(ach);
        WordLane& w = wl[l];
        w.ch = ai;
        w.win = f.save_window_state();
        w.win.prev[ai] = w.win.prev[ai] != 0 ? 1 : 0;

        // Oscillator (TriangleOscillator::step_block hoists).
        const analog::TriangleOscillator& osc = f.oscillator();
        const analog::TriangleOscillatorConfig& oc = osc.config();
        const analog::OscillatorFault& ofault = osc.fault();
        freq_a[l] = oc.frequency_hz * ofault.frequency_scale;
        gain_a[l] = oc.amplitude_a * (1.0 + oc.amplitude_error) *
                    ofault.amplitude_scale;
        curv_a[l] = oc.curvature;
        dc_a[l] = oc.dc_offset_a + ofault.extra_dc_a;
        correct01_a[l] =
            (oc.offset_correction && !ofault.correction_stuck) ? 1.0 : 0.0;
        cgain_a[l] = oc.correction_gain;
        const analog::TriangleOscillator::State os = osc.save_state();
        time_a[l] = os.time_s;
        phase_a[l] = os.phase;
        corr_a[l] = os.correction_a;
        pint_a[l] = os.period_integral;
        ptime_a[l] = os.period_time;

        // V-I converter (ViConverter::drive_block hoists; the converter
        // is pure configuration, reconstructed here).
        const analog::ViConverterConfig& vc = c.vi;
        const double r_load = c.sensor.r_excitation_ohm;
        const double lin = vc.nonlinearity / (1.0 + r_load / vc.linearising_r_ohm);
        double swing = vc.supply_v - 2.0 * vc.headroom_v;
        if (!vc.balanced_differential) swing *= 0.5;
        const double limit = swing / r_load;
        vig_a[l] = 1.0 + vc.gain_error;
        fs_a[l] = vc.full_scale_a;
        linfs_a[l] = lin * vc.full_scale_a;
        lim_a[l] = limit;
        neglim_a[l] = -limit;

        // The field holds over the advance (plain()), so the tick the
        // scalar step() would apply before every sample is the entry
        // sample's: apply it once, and every field- and
        // temperature-derived value gathered below is what step() sees.
        if (const magnetics::FieldSource* src = f.field_source()) {
            f.apply_field_tick(src->field_at(f.samples_stepped()));
        }

        // Active sensor (FluxgateSensor::step_block hoists). The stuck
        // mux makes the active channel a per-lane property.
        const sensor::FluxgateSensor& sen = f.sensor(ach);
        const sensor::FluxgateParams& sp = sen.params();
        fpa_a[l] = sen.effective_field_per_amp();
        hext_a[l] = sen.external_field();
        nap_a[l] = sp.n_pickup * sp.core_area_m2;
        nae_a[l] = sp.n_excitation * sp.core_area_m2;
        r_exc_a[l] = sp.r_excitation_ohm;
        hk_a[l] = sen.core().knee_field();
        ms_a[l] = sen.core().saturation_magnetisation();
        const sensor::FluxgateSensor::State ss = sen.save_state();
        lp_a[l] = ss.lambda_pickup_prev;
        le_a[l] = ss.lambda_exc_prev;
        lane_first[l] = ss.first_step;
        first01_a[l] = ss.first_step ? 1.0 : 0.0;

        // Mux.
        settle_a[l] = f.mux().settle_time_s();
        since_a[l] = f.mux().save_state().since_switch_s;

        // Active detector (PulsePositionDetector::step_block hoists).
        analog::PulsePositionDetector& det = f.detector(ach);
        const analog::DetectorConfig& dcf = det.config();
        const double half_hyst = 0.5 * dcf.comparator_hysteresis_v;
        off_a[l] = dcf.comparator_offset_v + det.comparator_offset_fault();
        fall_a[l] = dcf.threshold_v - half_hyst;
        rise_a[l] = dcf.threshold_v + half_hyst;
        w.det = det.save_state();

        // Power model (FrontEnd::step_block hoists; multiplexed =>
        // oscillator_count() == instances == 1).
        bias_a[l] = c.osc_bias_a * f.oscillator_count() +
                    (c.vi_bias_a + c.det_bias_a) * 1;
        supply_a[l] = c.supply_v;

        // Band-limited pickup noise (FrontEnd::add_noise_block hoists).
        // The member's stream is counter-based, so its key and counter
        // are all the kernel needs to draw exactly the variates the
        // scalar run would consume.
        lane_noise[l] = c.pickup_noise_rms_v != 0.0;
        if (lane_noise[l]) {
            const analog::FrontEnd::NoiseShape shape = f.noise_shape(dt_s);
            nalpha[l] = shape.alpha;
            ndrive[l] = shape.drive_rms;
            nst[l] = f.noise_filter_state();
            noise01_a[l] = 1.0;
            const util::CounterEngine& stream = f.pickup_noise().rng().engine();
            nkey[l] = stream.key();
            nctr[l] = stream.counter();
            stripe_noise = true;
        } else {
            nalpha[l] = ndrive[l] = nst[l] = noise01_a[l] = 0.0;
            nkey[l] = nctr[l] = 0;
        }

        // Counter. One that sees this channel's samples is an ideal
        // register under the one-bit clock (plain()), counted by Pass C
        // from its tick and output words.
        w.fold = ctr[l] != nullptr && ctr[l]->enabled() && ach == channel;
        inc_a[l] = ctr[l] != nullptr ? dt_s * ctr[l]->clock_hz() : 0.0;
        w.ctr = w.fold ? ctr[l]->save_state() : digital::UpDownCounter::State{};
        count01_a[l] = w.fold ? 1.0 : 0.0;
        acc_a[l] = w.ctr.tick_accumulator;

        e_a[l] = *lanes[l].energy_j;
    }

    // ---- Lockstep cohort -------------------------------------------------
    //
    // Nothing upstream of the sensor depends on the field, so lanes
    // whose Pass A inputs equal lane 0's bit for bit would compute lane
    // 0's drive current, settle flag and supply power on every sample.
    // Such a group runs that excitation once, through lane 0's own
    // stages, and broadcasts it. The clock shares under a second key:
    // with the same accumulator, increment and count flag, and the
    // shared settle flags, every lane's counter sees the same ticks.
    const double* const excitation_key[] = {
        freq_a, gain_a, curv_a, dc_a, cgain_a, correct01_a,  // oscillator
        vig_a, fs_a, linfs_a, lim_a,                         // V-I converter
        settle_a, bias_a, supply_a,                          // mux, supply
        time_a, phase_a, corr_a, pint_a, ptime_a, since_a};  // evolving state
    const double* const clock_key[] = {acc_a, inc_a, count01_a};
    const auto match = [n](const double* a) { return lanes_match(a, n); };
    const bool shared = std::all_of(std::begin(excitation_key),
                                    std::end(excitation_key), match);
    const bool shared_clock =
        shared && std::all_of(std::begin(clock_key), std::end(clock_key), match);
    (shared ? g_shared_excitation : g_per_lane_excitation)
        .fetch_add(1, std::memory_order_relaxed);
    analog::TriangleOscillator shared_osc = fe[0]->oscillator();
    analog::AnalogMux shared_mux = fe[0]->mux();
    const double r_load0 = fe[0]->config().sensor.r_excitation_ohm;
    double shared_last_i = 0.0;
    const bool shared_ticking = shared_clock && count01_a[0] > 0.5;
    // Otherwise each counted lane steps its own clock as a vector.
    const bool lane_clock =
        !shared_ticking &&
        std::any_of(wl, wl + n, [](const WordLane& w) { return w.fold; });

    // ---- Vector kernel: all lanes of the group -------------------------
    //
    // Every statement runs across the group's S stripes (tiny inner
    // loops the compiler unrolls completely) before the next, so the
    // S per-stripe dependency spines sit interleaved in the
    // instruction stream and execute concurrently; the sensor pass
    // interleaves U samples of them as well.

    const v::dvec dt_v = v::splat(dt_s);
    const v::dvec rdt_v = v::splat(1.0 / dt_s);
    // A cohort's shared clock: lane 0's accumulator and increment.
    v::dvec shared_acc_v = v::splat(acc_a[0]);
    const v::dvec shared_inc_v = v::splat(inc_a[0]);
    const v::dvec zero_v = v::splat(0.0);
    const v::dvec one_v = v::splat(1.0);
    const v::dvec two_v = v::splat(2.0);
    const v::dvec four_v = v::splat(4.0);
    const v::dvec neg4_v = v::splat(-4.0);
    const v::dvec quarter_v = v::splat(0.25);
    const v::dvec threeq_v = v::splat(0.75);
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec mu0_v = v::splat(magnetics::kMu0);

    v::dvec freq_v[S], gain_v[S], curv_v[S], dc_v[S], cgain_v[S];
    v::mask correct_m[S];
    v::dvec vig_v[S], fs_v[S], linfs_v[S], lim_v[S], neglim_v[S];
    v::dvec fpa_v[S], hext_v[S], hk_v[S], rhk_v[S], ms_v[S], nap_v[S], nae_v[S];
    v::dvec settle_v[S], off_v[S], fall_v[S], rise_v[S];
    v::dvec bias_v[S], supply_v[S], inc_v[S];
    v::mask count_m[S];

    v::dvec time_v[S], phase_v[S], corr_v[S], pint_v[S], ptime_v[S];
    v::dvec since_v[S], lpprev_v[S], leprev_v[S], leold_v[S];
    v::mask first_m[S];
    v::dvec acc_v[S], e_v[S];
    // Loop-carried last-sample values needed at scatter.
    v::dvec o_v[S], idrv_v[S], h_v[S], b_v[S], vpick_v[S];

    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        const int g = s * W;
        freq_v[s] = v::load(freq_a + g);
        gain_v[s] = v::load(gain_a + g);
        curv_v[s] = v::load(curv_a + g);
        dc_v[s] = v::load(dc_a + g);
        cgain_v[s] = v::load(cgain_a + g);
        correct_m[s] = mask_from01(correct01_a + g);
        vig_v[s] = v::load(vig_a + g);
        fs_v[s] = v::load(fs_a + g);
        linfs_v[s] = v::load(linfs_a + g);
        lim_v[s] = v::load(lim_a + g);
        neglim_v[s] = v::load(neglim_a + g);
        fpa_v[s] = v::load(fpa_a + g);
        hext_v[s] = v::load(hext_a + g);
        hk_v[s] = v::load(hk_a + g);
        rhk_v[s] = v::div(one_v, hk_v[s]);
        ms_v[s] = v::load(ms_a + g);
        nap_v[s] = v::load(nap_a + g);
        nae_v[s] = v::load(nae_a + g);
        settle_v[s] = v::load(settle_a + g);
        off_v[s] = v::load(off_a + g);
        fall_v[s] = v::load(fall_a + g);
        rise_v[s] = v::load(rise_a + g);
        bias_v[s] = v::load(bias_a + g);
        supply_v[s] = v::load(supply_a + g);
        inc_v[s] = v::load(inc_a + g);
        count_m[s] = mask_from01(count01_a + g);

        time_v[s] = v::load(time_a + g);
        phase_v[s] = v::load(phase_a + g);
        corr_v[s] = v::load(corr_a + g);
        pint_v[s] = v::load(pint_a + g);
        ptime_v[s] = v::load(ptime_a + g);
        since_v[s] = v::load(since_a + g);
        lpprev_v[s] = v::load(lp_a + g);
        leprev_v[s] = v::load(le_a + g);
        leold_v[s] = leprev_v[s];
        first_m[s] = mask_from01(first01_a + g);
        acc_v[s] = v::load(acc_a + g);
        e_v[s] = v::load(e_a + g);
        o_v[s] = zero_v;
        idrv_v[s] = zero_v;
        h_v[s] = zero_v;
        b_v[s] = zero_v;
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
    constexpr int T = 64;  // 3 buffers * S * T * sizeof(dvec) stays in L1
    v::dvec bidrv[S * T];
    v::dvec bvdet[S * T];
    v::mask bsettle[S * T];  // per-lane excitation only
    // Pass C's byte planes (zeroed, so a short tile transposes no
    // indeterminate byte) and the lane words transposed from them.
    alignas(32) std::uint8_t lane_bytes[kStreams][kBytePlanes][T]{};
    alignas(64) std::uint64_t lane_words[kStreams][8 * kBytePlanes];
    const std::uint64_t* const lane_word_ptr[kStreams] = {
        lane_words[kRisePos], lane_words[kFallPos],
        lane_words[kRiseNeg], lane_words[kFallNeg],
        shared ? nullptr : lane_words[kSettle], lane_clock ? lane_words[kTick] : nullptr};
    alignas(64) std::int64_t nbits[T * GW];  // tile draws [sample * GW + lane]
    // Shared excitation tile: drive current and supply power per
    // sample, and the settle flags as one word (T = 64).
    static_assert(T == 64);
    double sh_i[T]{}, sh_p[T]{};
    std::uint64_t sh_settle = 0;

    for (int k0 = 0; k0 < steps; k0 += T) {
        const int tn = std::min(T, steps - k0);
        // Pass A: oscillator, V-I converter, mux settling, supply
        // power/energy. A lockstep cohort runs lane 0's stages once
        // (the member path's block code) and broadcasts the results.
        if (shared) {
            shared_osc.step_block(dt_s, tn, sh_i);
            fe[0]->vi_converter().drive_block(sh_i, r_load0, tn, sh_i);
            shared_mux.step_block(dt_s, tn, &sh_settle);
            fe[0]->supply_power_block(sh_i, tn, sh_p);
            shared_last_i = sh_i[tn - 1];
            for (int t = 0; t < tn; ++t) {
                const v::dvec i_v = v::splat(sh_i[t]);
                const v::dvec e_inc = v::splat(sh_p[t] * dt_s);
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    bidrv[s * T + t] = i_v;
                    e_v[s] = v::add(e_v[s], e_inc);
                }
            }
        } else {
            for (int t = 0; t < tn; ++t) {
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    // Oscillator (TriangleOscillator::step).
                    time_v[s] = v::add(time_v[s], dt_v);
                    phase_v[s] = v::add(phase_v[s], v::mul(dt_v, freq_v[s]));
                    const v::mask wrapped = v::cmp_ge(phase_v[s], one_v);
                    // A wrap happens once per excitation period
                    // (1/steps_per_period samples); the wrap bookkeeping —
                    // including a vector divide — is skipped entirely on
                    // the other samples. The blends are identity when
                    // `wrapped` is all-false, so the skip is exact.
                    const bool any_wrap = v::movemask(wrapped) != 0;
                    if (any_wrap) {
                        phase_v[s] = v::blend(
                            wrapped, v::sub(phase_v[s], v::floor(phase_v[s])),
                            phase_v[s]);
                    }
                    const v::dvec f4p = v::mul(four_v, phase_v[s]);
                    const v::mask seg1 = v::cmp_gt(quarter_v, phase_v[s]);
                    const v::mask seg2 = v::cmp_gt(threeq_v, phase_v[s]);
                    const v::dvec w = v::blend(
                        seg1, f4p,
                        v::blend(seg2, v::sub(two_v, f4p), v::add(neg4_v, f4p)));
                    const v::dvec shaped = v::add(
                        w, v::mul(curv_v[s], v::sub(v::mul(v::mul(w, w), w), w)));
                    o_v[s] =
                        v::add(v::add(v::mul(gain_v[s], shaped), dc_v[s]), corr_v[s]);
                    pint_v[s] = v::add(pint_v[s], v::mul(o_v[s], dt_v));
                    ptime_v[s] = v::add(ptime_v[s], dt_v);
                    if (any_wrap) {
                        const v::mask upd = v::m_and(
                            wrapped,
                            v::m_and(correct_m[s], v::cmp_gt(ptime_v[s], zero_v)));
                        corr_v[s] = v::blend(
                            upd,
                            v::sub(corr_v[s],
                                   v::mul(cgain_v[s], v::div(pint_v[s], ptime_v[s]))),
                            corr_v[s]);
                        pint_v[s] = v::blend(wrapped, zero_v, pint_v[s]);
                        ptime_v[s] = v::blend(wrapped, zero_v, ptime_v[s]);
                    }

                    // V-I converter (ViConverter::drive).
                    const v::dvec u = v::div(o_v[s], fs_v[s]);
                    idrv_v[s] = v::add(v::mul(vig_v[s], o_v[s]),
                                       v::mul(v::mul(v::mul(linfs_v[s], u), u), u));
                    idrv_v[s] = v::min(v::max(idrv_v[s], neglim_v[s]), lim_v[s]);

                    // Mux settling.
                    since_v[s] = v::add(since_v[s], dt_v);

                    // Supply power and energy (FrontEnd::step_block tail;
                    // the energy chain continues each member's running
                    // sum).
                    const v::dvec drive = v::bit_andnot(sign_v, idrv_v[s]);  // fabs
                    const v::dvec p = v::mul(v::add(bias_v[s], drive), supply_v[s]);
                    e_v[s] = v::add(e_v[s], v::mul(p, dt_v));

                    bidrv[s * T + t] = idrv_v[s];
                    bsettle[s * T + t] = v::cmp_ge(since_v[s], settle_v[s]);
                }
            }
        }

        // Pass B's pickup stage for samples t .. t + NU - 1 of the tile,
        // from their flux densities (FluxgateSensor::step): the linkages,
        // the derivative against the previous sample's linkage, and the
        // detector input. Sample u's previous linkage is sample u - 1's, and
        // sample 0's is the one carried from the last call.
        const auto pickup = [&]<int NU>(int t, const v::dvec (&bd)[NU][S])
                                __attribute__((always_inline)) {
            v::dvec lp[NU][S], le[NU][S], vp[NU * S], dt[NU * S], rdt[NU * S];
            #pragma GCC unroll 8
            for (int u = 0; u < NU; ++u) {
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    lp[u][s] = v::mul(nap_v[s], bd[u][s]);
                    le[u][s] = v::mul(nae_v[s], bd[u][s]);
                }
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
                    leold_v[s] = le[NU - 2][s];
                } else {
                    leold_v[s] = leprev_v[s];
                }
                lpprev_v[s] = lp[NU - 1][s];
                leprev_v[s] = le[NU - 1][s];
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
                    nkey[l], nctr[l] + static_cast<std::uint64_t>(k0)));
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
            v::dvec alpha_v[S], drive_v[S], state_v[S];
            v::mask on_m[S];
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                alpha_v[s] = v::load(nalpha + s * W);
                drive_v[s] = v::load(ndrive + s * W);
                state_v[s] = v::load(nst + s * W);
                on_m[s] = mask_from01(noise01_a + s * W);
            }
            for (int t = 0; t < tn; ++t) {
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    const v::dvec w = v::vgauss(v::i_load(nbits + t * GW + s * W));
                    state_v[s] = v::add(
                        state_v[s],
                        v::mul(alpha_v[s], v::sub(v::mul(w, drive_v[s]), state_v[s])));
                    bvdet[s * T + t] = v::blend(on_m[s],
                                                v::add(bvdet[s * T + t], state_v[s]),
                                                bvdet[s * T + t]);
                }
            }
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) v::store(nst + s * W, state_v[s]);
        }

        // Pass C: the detector, the stream statistics and the counters,
        // on 64-sample words (DESIGN.md section 12). The comparator
        // inputs are compared as vectors, and each compare's lane mask
        // is stored as one byte per sample, as are a per-lane group's
        // settle flags and a per-lane clock's ticks. Each 64-byte plane
        // is transposed into one word per lane, and each real lane runs
        // the block path's word code: PulsePositionDetector::step_word,
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
        // UpDownCounter::clock_step under the one-bit condition, as
        // vectors: 0 < acc + inc < 2, so the carry is (acc + inc >= 1)
        // and s - 0 is s. Returns the lanes that ticked.
        const auto step_clock = [&](v::dvec& acc, v::dvec inc, v::mask clocked)
                                    __attribute__((always_inline)) {
            const v::dvec sum = v::add(acc, inc);
            const v::mask carry = v::cmp_ge(sum, one_v);
            acc = v::blend(clocked, v::blend(carry, v::sub(sum, one_v), sum), acc);
            return v::m_and(carry, clocked);
        };
        std::uint64_t shared_ticks = 0;
        const auto compare_tile = [&](auto lane_settle, auto lane_clk, auto shared_clk)
                                      __attribute__((always_inline)) {
            constexpr bool kLaneSettle = decltype(lane_settle)::value;
            constexpr bool kLaneClock = decltype(lane_clk)::value;
            for (int t = 0; t < tn; ++t) {
                if constexpr (decltype(shared_clk)::value) {
                    // A shared clock ticks once for the cohort, branch-free
                    // beside the compares, which hide its serial chain.
                    const v::mask ticked = step_clock(
                        shared_acc_v, shared_inc_v, v::m_splat(((sh_settle >> t) & 1) != 0));
                    shared_ticks |= std::uint64_t{v::movemask(ticked) & 1u} << t;
                }
                v::mask rise_p[S], fall_p[S], rise_n[S], fall_n[S], settled[S], tick[S];
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
                    if constexpr (kLaneSettle) {
                        settled[s] = bsettle[s * T + t];
                    } else {
                        settled[s] = v::m_splat(((sh_settle >> t) & 1) != 0);
                    }
                    if constexpr (kLaneClock) {
                        tick[s] = step_clock(acc_v[s], inc_v[s], v::m_and(settled[s], count_m[s]));
                    }
                }
                put(kRisePos, t, rise_p);
                put(kFallPos, t, fall_p);
                put(kRiseNeg, t, rise_n);
                put(kFallNeg, t, fall_n);
                if constexpr (kLaneSettle) put(kSettle, t, settled);
                if constexpr (kLaneClock) put(kTick, t, tick);
            }
        };
        constexpr std::false_type no{};
        constexpr std::true_type yes{};
        if (shared_ticking) {
            compare_tile(no, no, yes);
        } else if (shared) {
            if (lane_clock) {
                compare_tile(no, yes, no);
            } else {
                compare_tile(no, no, no);
            }
        } else {
            if (lane_clock) {
                compare_tile(yes, yes, no);
            } else {
                compare_tile(yes, no, no);
            }
        }

        const auto transpose = [&](int c) __attribute__((always_inline)) {
            #pragma GCC unroll 2
            for (int p = 0; p < kBytePlanes; ++p) {
                util::bits::transpose_lanes(lane_bytes[c][p], lane_words[c] + 8 * p);
            }
        };
        transpose(kRisePos);
        transpose(kFallPos);
        transpose(kRiseNeg);
        transpose(kFallNeg);
        if (!shared) transpose(kSettle);
        if (lane_clock) transpose(kTick);


        step_word_lanes(wl, n, tn, lane_word_ptr, sh_settle, shared_ticks);
    }

    // A cohort's lanes all end in the shared stages' state.
    if (shared) {
        const analog::TriangleOscillator::State os = shared_osc.save_state();
        const double since = shared_mux.save_state().since_switch_s;
        #pragma GCC unroll 8
        for (int s = 0; s < S; ++s) {
            time_v[s] = v::splat(os.time_s);
            phase_v[s] = v::splat(os.phase);
            o_v[s] = v::splat(os.output);
            corr_v[s] = v::splat(os.correction_a);
            pint_v[s] = v::splat(os.period_integral);
            ptime_v[s] = v::splat(os.period_time);
            since_v[s] = v::splat(since);
            idrv_v[s] = v::splat(shared_last_i);
            if (shared_clock) acc_v[s] = shared_acc_v;
        }
    }

    // ---- Scatter: write state back through the stages' seams ----------

    alignas(64) double o_a[GW], i_a[GW], hfin_a[GW], bfin_a[GW], vp_a[GW],
        leold_a[GW];
    #pragma GCC unroll 8
    for (int s = 0; s < S; ++s) {
        const int g = s * W;
        v::store(time_a + g, time_v[s]);
        v::store(phase_a + g, phase_v[s]);
        v::store(corr_a + g, corr_v[s]);
        v::store(pint_a + g, pint_v[s]);
        v::store(ptime_a + g, ptime_v[s]);
        v::store(since_a + g, since_v[s]);
        v::store(lp_a + g, lpprev_v[s]);
        v::store(le_a + g, leprev_v[s]);
        v::store(o_a + g, o_v[s]);
        v::store(i_a + g, idrv_v[s]);
        v::store(hfin_a + g, h_v[s]);
        v::store(bfin_a + g, b_v[s]);
        v::store(vp_a + g, vpick_v[s]);
        v::store(leold_a + g, leold_v[s]);
        v::store(acc_a + g, acc_v[s]);
        v::store(e_a + g, e_v[s]);
    }

    for (int l = 0; l < n; ++l) {
        analog::FrontEnd& f = *fe[l];
        const Channel ach = active_ch[l];
        const auto ai = static_cast<std::size_t>(ach);
        const auto ii = 1 - ai;

        f.oscillator().load_state(
            {time_a[l], phase_a[l], o_a[l], corr_a[l], pint_a[l], ptime_a[l]});
        f.mux().load_state({ach, since_a[l]});

        // Active sensor. v_excitation is a pure function of the last
        // two flux linkages (or the resistive drop alone right after
        // the very first sample), recomputed with the step() ops.
        double vexc;
        if (lane_first[l] && steps == 1) {
            vexc = r_exc_a[l] * i_a[l];
        } else {
            vexc = r_exc_a[l] * i_a[l] + (le_a[l] - leold_a[l]) / dt_s;
        }
        sensor::FluxgateSensor& sen = f.sensor_mut(ach);
        sen.load_state({hfin_a[l], bfin_a[l], vp_a[l], vexc, lp_a[l], le_a[l],
                        /*first_step=*/false});
        // Re-sync the TanhCore's remembered field; the model is
        // otherwise stateless, so one advance() at the final H
        // reproduces the state after every per-sample call.
        sen.core_mut().advance(hfin_a[l]);
        f.sensor_mut(ach == Channel::X ? Channel::Y : Channel::X)
            .step_block_constant(0.0, dt_s, steps);

        f.detector(ach).load_state(wl[l].det);

        if (lane_noise[l]) {
            f.set_noise_filter_state(nst[l]);
            f.pickup_noise().rng().engine().discard(static_cast<std::uint64_t>(steps));
        }

        // Fold this advance into the member's window.
        analog::FrontEnd::StreamWindowState& win = wl[l].win;
        win.stats[ai].samples += static_cast<std::uint64_t>(steps);
        win.stats[ii].samples += static_cast<std::uint64_t>(steps);
        win.sample_index += static_cast<std::uint64_t>(steps);
        f.load_window_state(win);

        if (wl[l].fold) {
            ctr[l]->load_state({acc_a[l], wl[l].ctr.count, wl[l].ctr.active_ticks});
        }

        *lanes[l].energy_j = e_a[l];
    }
}

}  // namespace fxg::sim
