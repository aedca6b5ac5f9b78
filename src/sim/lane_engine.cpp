#include "sim/lane_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
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

inline bool bit_of(unsigned bits, int lane) { return ((bits >> lane) & 1u) != 0; }

/// True when lanes [1, n) of `a` hold exactly lane 0's bits.
inline bool lanes_match(const double* a, int n) {
    const auto bits0 = std::bit_cast<std::uint64_t>(a[0]);
    for (int l = 1; l < n; ++l) {
        if (std::bit_cast<std::uint64_t>(a[l]) != bits0) return false;
    }
    return true;
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

bool LaneEngine::eligible(const analog::FrontEnd& front_end) noexcept {
    // Simultaneous mode duplicates the whole chain (two oscillators,
    // per-sample interleaved noise draws) — per-member engines handle
    // it.
    return front_end.config().mode == analog::FrontEndMode::Multiplexed;
}

int LaneEngine::lanes_per_stripe() noexcept { return v::kLanes; }

const char* LaneEngine::backend_name() noexcept { return v::backend_name(); }

void LaneEngine::advance(const LanePort* lanes, int n_lanes, analog::Channel channel,
                         int steps, double dt_s) {
    // A zero-step advance performs no member work at all on the scalar
    // path (no samples, no tap call, no index motion) — mirror that.
    if (n_lanes <= 0 || steps <= 0) return;
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
    // det_bits_/valid_bits_ pack one bit per group lane into 16 bits.
    static_assert(GW <= 16);
    // Sample-loop tile length (declared here because the environment
    // change flags below are per tile).
    constexpr int T = 64;  // 3 buffers * S * T * sizeof(dvec) stays in L1

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
    magnetics::CoreModel* core[GW];
    const magnetics::FieldSource* src[GW];
    std::uint64_t lidx0[GW];
    Channel active_ch[GW];
    bool lane_tap[GW];
    bool lane_hw[GW];
    bool lane_noise[GW];
    bool lane_first[GW];
    bool lane_soa_count[GW];
    bool lane_dyn[GW];   ///< field source varies within this advance
    bool lane_tdyn[GW];  ///< lane_dyn and the sensors are temp-sensitive

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
    alignas(64) double pos01_a[GW], neg01_a[GW], prevpos01_a[GW], prevneg01_a[GW],
        out01_a[GW], statprev01_a[GW], hasprev01_a[GW];
    alignas(64) std::int64_t cnt_a[GW], act_a[GW];

    bool stripe_generic = false;
    bool stripe_noise = false;
    bool stripe_capture = false;
    bool group_dyn = false;
    bool group_tdyn = false;

    for (int l = 0; l < GW; ++l) {
        if (l >= n) {
            // Pad lane: copy lane 0's numeric inputs, disable everything.
            fe[l] = nullptr;
            ctr[l] = nullptr;
            core[l] = nullptr;
            src[l] = nullptr;
            lidx0[l] = 0;
            active_ch[l] = active_ch[0];
            lane_tap[l] = lane_hw[l] = lane_noise[l] = lane_first[l] = false;
            lane_soa_count[l] = false;
            lane_dyn[l] = lane_tdyn[l] = false;
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
            pos01_a[l] = pos01_a[0]; neg01_a[l] = neg01_a[0];
            prevpos01_a[l] = prevpos01_a[0]; prevneg01_a[l] = prevneg01_a[0];
            out01_a[l] = out01_a[0]; statprev01_a[l] = statprev01_a[0];
            hasprev01_a[l] = hasprev01_a[0];
            cnt_a[l] = 0; act_a[l] = 0;
            continue;
        }

        analog::FrontEnd& f = *lanes[l].front_end;
        fe[l] = &f;
        ctr[l] = lanes[l].counter;
        const analog::FrontEndConfig& c = f.config();
        const Channel ach = f.selected();
        active_ch[l] = ach;

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

        // Time-varying environment: resolve the lane's field source at
        // its entry sample index and apply that tick now, so every
        // field/temperature-derived value gathered below is exactly
        // what the scalar step() would see on the first sample. A
        // constant source reports kForever and takes no further part
        // in the kernel.
        src[l] = f.field_source();
        lidx0[l] = 0;
        lane_dyn[l] = lane_tdyn[l] = false;
        if (src[l] != nullptr) {
            lidx0[l] = f.save_window_state().sample_index;
            magnetics::FieldTick tick;
            const std::uint64_t end = src[l]->constant_until(lidx0[l], &tick);
            f.apply_field_tick(tick);
            lane_dyn[l] =
                end < lidx0[l] + static_cast<std::uint64_t>(steps);
            if (lane_dyn[l]) {
                group_dyn = true;
                if (f.sensor(ach).temperature_sensitive()) {
                    lane_tdyn[l] = true;
                    group_tdyn = true;
                }
            }
        }

        // Active sensor (FluxgateSensor::step_block hoists). The stuck
        // mux makes the active channel a per-lane property.
        sensor::FluxgateSensor& sen = f.sensor_mut(ach);
        const sensor::FluxgateParams& sp = sen.params();
        fpa_a[l] = sen.effective_field_per_amp();
        hext_a[l] = sen.external_field();
        nap_a[l] = sp.n_pickup * sp.core_area_m2;
        nae_a[l] = sp.n_excitation * sp.core_area_m2;
        r_exc_a[l] = sp.r_excitation_ohm;
        core[l] = &sen.core_mut();
        hk_a[l] = core[l]->knee_field();
        ms_a[l] = core[l]->saturation_magnetisation();
        if (dynamic_cast<const magnetics::TanhCore*>(core[l]) == nullptr) {
            stripe_generic = true;
        }
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
        const analog::PulsePositionDetector::State ds = det.save_state();
        pos01_a[l] = ds.positive ? 1.0 : 0.0;
        neg01_a[l] = ds.negative ? 1.0 : 0.0;
        prevpos01_a[l] = ds.prev_pos ? 1.0 : 0.0;
        prevneg01_a[l] = ds.prev_neg ? 1.0 : 0.0;
        out01_a[l] = ds.out ? 1.0 : 0.0;

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

        // Stream-window statistics of the active channel.
        const analog::FrontEnd::StreamWindowState ws = f.save_window_state();
        const auto ai = static_cast<std::size_t>(ach);
        statprev01_a[l] = ws.prev[ai] ? 1.0 : 0.0;
        hasprev01_a[l] = ws.has_prev[ai] ? 1.0 : 0.0;

        // Counter: ideal counters fold in SoA; lanes with a tap or an
        // engaged hardware register delegate to the member object over
        // the captured byte streams (wrap/stuck/trap logic and the tap
        // contract both live there).
        lane_tap[l] = f.sample_tap() != nullptr;
        lane_hw[l] = ctr[l] != nullptr && ctr[l]->hardware_engaged();
        lane_soa_count[l] = ctr[l] != nullptr && !lane_tap[l] && !lane_hw[l] &&
                            ctr[l]->enabled() && ach == channel;
        count01_a[l] = lane_soa_count[l] ? 1.0 : 0.0;
        inc_a[l] = ctr[l] != nullptr ? dt_s * ctr[l]->clock_hz() : 0.0;
        if (lane_soa_count[l]) {
            const digital::UpDownCounter::State cs = ctr[l]->save_state();
            acc_a[l] = cs.tick_accumulator;
            cnt_a[l] = cs.count;
            act_a[l] = static_cast<std::int64_t>(cs.active_ticks);
        } else {
            acc_a[l] = 0.0;
            cnt_a[l] = 0;
            act_a[l] = 0;
        }

        e_a[l] = *lanes[l].energy_j;

        if (lane_tap[l] || (lane_hw[l] && ach == channel)) stripe_capture = true;
    }

    // Only tap and hardware-counter lanes read the emitted streams.
    if (stripe_capture) {
        det_bits_.resize(static_cast<std::size_t>(steps));
        valid_bits_.resize(static_cast<std::size_t>(steps));
        words_.resize(static_cast<std::size_t>(util::bits::words_for(steps)) * 4);
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
    double shared_acc = acc_a[0];
    const bool shared_ticking = shared_clock && count01_a[0] > 0.5;

    // ---- Time-varying environment streams ------------------------------
    //
    // Only when some lane's field actually changes inside this advance:
    // per-sample interleaved buffers carry the active-axis field (and,
    // for temperature-sensitive sensors, the Ms/Hk/sensitivity values
    // the scalar set_temperature() would install) so Pass B can reload
    // its stripe vectors; per-lane contiguous buffers carry the
    // idle-axis field and temperature for the scatter-time
    // step_block_env replay. Each value is computed with exactly the
    // member-path expression (TanhCore::ms_at/hk_at,
    // FluxgateSensor::fpa_scale_at), so the lanes stay bit-identical.
    const int ntiles = (steps + T - 1) / T;
    if (group_dyn) {
        const auto ns = static_cast<std::size_t>(steps);
        env_h_.resize(ns * GW);
        idle_h_.resize(ns * GW);
        idle_t_.resize(ns * GW);
        if (group_tdyn) {
            env_ms_.resize(ns * GW);
            env_hk_.resize(ns * GW);
            env_fpa_.resize(ns * GW);
        }
        // Seed every column with the gather constants (pad lanes
        // replicated lane 0's), then overwrite the varying lanes.
        for (std::size_t k = 0; k < ns; ++k) {
            for (int l = 0; l < GW; ++l) env_h_[k * GW + l] = hext_a[l];
            if (group_tdyn) {
                for (int l = 0; l < GW; ++l) {
                    env_ms_[k * GW + l] = ms_a[l];
                    env_hk_[k * GW + l] = hk_a[l];
                    env_fpa_[k * GW + l] = fpa_a[l];
                }
            }
        }
        for (int l = 0; l < n; ++l) {
            if (!lane_dyn[l]) continue;
            const sensor::FluxgateSensor& sen = fe[l]->sensor(active_ch[l]);
            const auto* tc = dynamic_cast<const magnetics::TanhCore*>(core[l]);
            const double fpa0 = sen.params().field_per_amp();
            int k = 0;
            while (k < steps) {
                magnetics::FieldTick tick;
                const std::uint64_t begin = lidx0[l] + static_cast<std::uint64_t>(k);
                const std::uint64_t end = src[l]->constant_until(begin, &tick);
                const std::uint64_t span = end > begin ? end - begin : 1;
                const int run = static_cast<int>(std::min(
                    span, static_cast<std::uint64_t>(steps - k)));
                const double hact =
                    active_ch[l] == Channel::X ? tick.hx_a_per_m : tick.hy_a_per_m;
                const double hidl =
                    active_ch[l] == Channel::X ? tick.hy_a_per_m : tick.hx_a_per_m;
                double msv = ms_a[l];
                double hkv = hk_a[l];
                double fpav = fpa_a[l];
                if (lane_tdyn[l]) {
                    if (tc != nullptr) {
                        msv = tc->ms_at(tick.temp_c);
                        hkv = tc->hk_at(tick.temp_c);
                    }
                    fpav = fpa0 * sen.fpa_scale_at(tick.temp_c);
                }
                for (int j = k; j < k + run; ++j) {
                    env_h_[static_cast<std::size_t>(j) * GW + l] = hact;
                    idle_h_[static_cast<std::size_t>(l) * ns +
                            static_cast<std::size_t>(j)] = hidl;
                    idle_t_[static_cast<std::size_t>(l) * ns +
                            static_cast<std::size_t>(j)] = tick.temp_c;
                    if (group_tdyn) {
                        env_ms_[static_cast<std::size_t>(j) * GW + l] = msv;
                        env_hk_[static_cast<std::size_t>(j) * GW + l] = hkv;
                        env_fpa_[static_cast<std::size_t>(j) * GW + l] = fpav;
                    }
                }
                k += run;
            }
        }
        // Classify each tile: 0 = every varying lane holds the value
        // already loaded in the stripe vectors (skip — the common case
        // between scenario events), 1 = constant inside the tile but
        // changed at its boundary (one reload), 2 = changes inside the
        // tile (per-sample reloads).
        tile_env_.assign(static_cast<std::size_t>(ntiles), 0);
        const auto env_differs = [&](int l, std::size_t i, std::size_t j) {
            if (env_h_[i * GW + l] != env_h_[j * GW + l]) return true;
            if (!group_tdyn || !lane_tdyn[l]) return false;
            return env_ms_[i * GW + l] != env_ms_[j * GW + l] ||
                   env_hk_[i * GW + l] != env_hk_[j * GW + l] ||
                   env_fpa_[i * GW + l] != env_fpa_[j * GW + l];
        };
        for (int ti = 0; ti < ntiles; ++ti) {
            const auto a = static_cast<std::size_t>(ti) * T;
            const auto b = std::min(a + T, ns);
            std::uint8_t flag = 0;
            for (int l = 0; l < n && flag < 2; ++l) {
                if (!lane_dyn[l]) continue;
                if (a > 0 && env_differs(l, a, a - 1)) flag = 1;
                for (std::size_t k = a + 1; k < b; ++k) {
                    if (env_differs(l, k, a)) {
                        flag = 2;
                        break;
                    }
                }
            }
            tile_env_[static_cast<std::size_t>(ti)] = flag;
        }
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
    const v::dvec two_v = v::splat(2.0);
    const v::dvec four_v = v::splat(4.0);
    const v::dvec neg4_v = v::splat(-4.0);
    const v::dvec quarter_v = v::splat(0.25);
    const v::dvec threeq_v = v::splat(0.75);
    const v::dvec sign_v = v::splat(-0.0);
    const v::dvec mu0_v = v::splat(magnetics::kMu0);
    const v::ivec izero_v = v::i_splat(0);

    v::dvec freq_v[S], gain_v[S], curv_v[S], dc_v[S], cgain_v[S];
    v::mask correct_m[S];
    v::dvec vig_v[S], fs_v[S], linfs_v[S], lim_v[S], neglim_v[S];
    v::dvec fpa_v[S], hext_v[S], hk_v[S], rhk_v[S], ms_v[S], nap_v[S], nae_v[S];
    v::dvec settle_v[S], off_v[S], fall_v[S], rise_v[S];
    v::dvec bias_v[S], supply_v[S], inc_v[S];
    v::mask count_m[S];

    v::dvec time_v[S], phase_v[S], corr_v[S], pint_v[S], ptime_v[S];
    v::dvec since_v[S], lpprev_v[S], leprev_v[S], leold_v[S];
    v::mask first_m[S], pos_m[S], neg_m[S], prevpos_m[S], prevneg_m[S];
    v::mask out_m[S], statprev_m[S], hasprev_m[S];
    v::dvec acc_v[S], e_v[S];
    v::ivec cnt_v[S], act_v[S], vs_v[S], hs_v[S], edges_v[S];
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
        pos_m[s] = mask_from01(pos01_a + g);
        neg_m[s] = mask_from01(neg01_a + g);
        prevpos_m[s] = mask_from01(prevpos01_a + g);
        prevneg_m[s] = mask_from01(prevneg01_a + g);
        out_m[s] = mask_from01(out01_a + g);
        statprev_m[s] = mask_from01(statprev01_a + g);
        hasprev_m[s] = mask_from01(hasprev01_a + g);
        acc_v[s] = v::load(acc_a + g);
        cnt_v[s] = v::i_load(cnt_a + g);
        act_v[s] = v::i_load(act_a + g);
        vs_v[s] = izero_v;
        hs_v[s] = izero_v;
        edges_v[s] = izero_v;
        e_v[s] = v::load(e_a + g);
        o_v[s] = zero_v;
        idrv_v[s] = zero_v;
        h_v[s] = zero_v;
        b_v[s] = zero_v;
        vpick_v[s] = zero_v;
    }

    alignas(64) double h_s[GW], m_s[GW];

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
    v::mask bsettle[S * T];
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
                const v::mask settled = v::m_splat(((sh_settle >> t) & 1) != 0);
                const v::dvec e_inc = v::splat(sh_p[t] * dt_s);
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    bidrv[s * T + t] = i_v;
                    bsettle[s * T + t] = settled;
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

        // Loads sample k's environment into the stripe vectors (and, when
        // Hk varies, its reciprocal).
        const auto load_env = [&](int k) {
            const std::size_t gk = static_cast<std::size_t>(k) * GW;
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                hext_v[s] = v::load(env_h_.data() + gk + s * W);
                if (group_tdyn) {
                    ms_v[s] = v::load(env_ms_.data() + gk + s * W);
                    hk_v[s] = v::load(env_hk_.data() + gk + s * W);
                    rhk_v[s] = v::div(one_v, hk_v[s]);
                    fpa_v[s] = v::load(env_fpa_.data() + gk + s * W);
                }
            }
        };

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
        // detector's input voltage.
        //
        // Environment reload for this tile (movemask-of-change style:
        // the flag was precomputed at gather, and 0 — the constant-
        // field case and the span between scenario events — costs one
        // predictable branch).
        std::uint8_t envf = 0;
        if (group_dyn) {
            envf = tile_env_[static_cast<std::size_t>(k0 / T)];
            if (envf != 0) load_env(k0);
        }

        if (!stripe_generic) {
            // TanhCore::advance: ms * tanh(h / hk). The body advances NU
            // samples of all S stripes, and each of its statements runs
            // over all K = NU * S vectors before the next, so K
            // independent divide/exp chains overlap (one K-wide tanh).
            // h / hk and the pickup derivative divide through the
            // reciprocals (v::div_by), which leaves the tanh quotient as
            // each sample's one divider operation. vtanh and div_by are
            // lane-independent, so each lane equals the member's call.
            // A tile whose environment changes per sample loads each
            // sample's values inside the body; its tail runs at NU = 1.
            const auto tanh_body = [&](auto nu, auto env, int t) {
                constexpr int NU = decltype(nu)::value;
                v::dvec h[NU][S], ms[NU][S], x[NU * S], hk[NU * S], rhk[NU * S], bd[NU][S];
                #pragma GCC unroll 8
                for (int u = 0; u < NU; ++u) {
                    if constexpr (decltype(env)::value) load_env(k0 + t + u);
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
            const auto run_tile = [&](auto env) {
                constexpr int U = 4;
                int t = 0;
                for (; t + U <= tn; t += U) tanh_body(std::integral_constant<int, U>{}, env, t);
                for (; t < tn; ++t) tanh_body(std::integral_constant<int, 1>{}, env, t);
            };
            if (envf == 2) {
                run_tile(std::true_type{});
            } else {
                run_tile(std::false_type{});
            }
        } else {
            // A non-tanh (hysteretic/Langevin) core in the group:
            // advance every lane's core through exact virtual dispatch,
            // in sample order per lane. This also keeps each core's
            // internal history current, so no scatter-time resync.
            for (int t = 0; t < tn; ++t) {
                if (envf == 2) load_env(k0 + t);
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    h_v[s] = v::add(v::mul(fpa_v[s], bidrv[s * T + t]), hext_v[s]);
                    v::store(h_s + s * W, h_v[s]);
                }
                for (int l = 0; l < n; ++l) {
                    if (lane_tdyn[l]) {
                        // Scalar order: the sensor applies the tick's
                        // temperature to the core before each advance.
                        core[l]->set_temperature(
                            idle_t_[static_cast<std::size_t>(l) *
                                        static_cast<std::size_t>(steps) +
                                    static_cast<std::size_t>(k0 + t)]);
                    }
                    m_s[l] = core[l]->advance(h_s[l]);
                }
                for (int l = n; l < GW; ++l) m_s[l] = 0.0;
                v::dvec bd[1][S];
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    bd[0][s] = v::mul(mu0_v, v::add(h_v[s], v::load(m_s + s * W)));
                }
                pickup(t, bd);
            }
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

        // Pass C: detector latches, stream statistics, SoA counters,
        // emitted-stream capture.
        for (int t = 0; t < tn; ++t) {
            // A shared clock steps once for the cohort
            // (UpDownCounter::step_block's clock step).
            const std::int64_t shared_ticks =
                shared_ticking && ((sh_settle >> t) & 1) != 0
                    ? digital::UpDownCounter::clock_step(shared_acc, inc_a[0])
                    : 0;
            #pragma GCC unroll 8
            for (int s = 0; s < S; ++s) {
                const v::dvec vdet = bvdet[s * T + t];
                const v::mask settled = bsettle[s * T + t];

                // Pulse-position detector: two latching comparators
                // (the negative one fed -v, an exact sign flip) plus
                // set/clear edge logic — clear wins when both fire, as
                // in the scalar step.
                const v::dvec vpos = v::sub(vdet, off_v[s]);
                const v::dvec vneg = v::sub(v::bit_xor(vdet, sign_v), off_v[s]);
                const v::mask fall_p = v::cmp_gt(fall_v[s], vpos);
                const v::mask rise_p = v::cmp_gt(vpos, rise_v[s]);
                pos_m[s] = v::m_or(v::m_andnot(fall_p, pos_m[s]),
                                   v::m_andnot(pos_m[s], rise_p));
                const v::mask fall_n = v::cmp_gt(fall_v[s], vneg);
                const v::mask rise_n = v::cmp_gt(vneg, rise_v[s]);
                neg_m[s] = v::m_or(v::m_andnot(fall_n, neg_m[s]),
                                   v::m_andnot(neg_m[s], rise_n));
                const v::mask set_e = v::m_andnot(pos_m[s], prevpos_m[s]);
                const v::mask clr_e = v::m_andnot(neg_m[s], prevneg_m[s]);
                out_m[s] = v::m_andnot(clr_e, v::m_or(out_m[s], set_e));
                prevpos_m[s] = pos_m[s];
                prevneg_m[s] = neg_m[s];

                // Stream statistics of the active channel (valid
                // samples only).
                vs_v[s] = v::i_add(vs_v[s], v::mask01(settled));
                hs_v[s] =
                    v::i_add(hs_v[s], v::mask01(v::m_and(settled, out_m[s])));
                edges_v[s] = v::i_add(
                    edges_v[s],
                    v::mask01(v::m_and(v::m_and(settled, hasprev_m[s]),
                                       v::m_xor(out_m[s], statprev_m[s]))));
                statprev_m[s] = v::m_or(v::m_and(settled, out_m[s]),
                                        v::m_andnot(settled, statprev_m[s]));
                hasprev_m[s] = v::m_or(hasprev_m[s], settled);

                // Ideal up/down counters in SoA
                // (UpDownCounter::step_block): invalid lanes hold acc
                // in [0, 1), so floor() contributes exactly zero ticks
                // there.
                v::ivec ticks = v::i_splat(shared_ticks);
                if (!shared_clock) {
                    const v::mask cval = v::m_and(settled, count_m[s]);
                    acc_v[s] = v::blend(cval, v::add(acc_v[s], inc_v[s]), acc_v[s]);
                    const v::dvec whole = v::floor(acc_v[s]);
                    acc_v[s] = v::sub(acc_v[s], whole);
                    ticks = v::d2i_exact(whole);
                }
                cnt_v[s] = v::i_add(
                    cnt_v[s],
                    v::i_blend(out_m[s], ticks, v::i_sub(izero_v, ticks)));
                act_v[s] = v::i_add(act_v[s], ticks);
            }

            // Emitted streams for tap replay / delegated counters, one
            // bit per group lane (stripe s in bits [s*W, s*W+W)).
            if (stripe_capture) {
                unsigned db = 0;
                unsigned vb = 0;
                #pragma GCC unroll 8
                for (int s = 0; s < S; ++s) {
                    db |= v::movemask(out_m[s]) << (s * W);
                    vb |= v::movemask(bsettle[s * T + t]) << (s * W);
                }
                det_bits_[static_cast<std::size_t>(k0 + t)] =
                    static_cast<std::uint16_t>(db);
                valid_bits_[static_cast<std::size_t>(k0 + t)] =
                    static_cast<std::uint16_t>(vb);
            }
        }
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
            if (shared_clock) acc_v[s] = v::splat(shared_acc);
        }
    }

    // ---- Scatter: write state back through the stages' seams ----------

    alignas(64) double o_a[GW], i_a[GW], hfin_a[GW], bfin_a[GW], vp_a[GW],
        leold_a[GW];
    alignas(64) std::int64_t vs_a[GW], hs_a[GW], edges_a[GW];
    unsigned pos_b = 0, neg_b = 0, prevpos_b = 0, prevneg_b = 0, out_b = 0,
             statprev_b = 0, hasprev_b = 0;
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
        v::i_store(cnt_a + g, cnt_v[s]);
        v::i_store(act_a + g, act_v[s]);
        v::i_store(vs_a + g, vs_v[s]);
        v::i_store(hs_a + g, hs_v[s]);
        v::i_store(edges_a + g, edges_v[s]);
        v::store(e_a + g, e_v[s]);
        pos_b |= v::movemask(pos_m[s]) << g;
        neg_b |= v::movemask(neg_m[s]) << g;
        prevpos_b |= v::movemask(prevpos_m[s]) << g;
        prevneg_b |= v::movemask(prevneg_m[s]) << g;
        out_b |= v::movemask(out_m[s]) << g;
        statprev_b |= v::movemask(statprev_m[s]) << g;
        hasprev_b |= v::movemask(hasprev_m[s]) << g;
    }

    // Per-lane one-bit streams (util/bits.hpp) for tap replay and
    // delegated counters, transposed from the captured per-sample lane
    // bits.
    const auto nwords = static_cast<std::size_t>(util::bits::words_for(steps));
    std::uint64_t* dx = nullptr;
    std::uint64_t* dy = nullptr;
    std::uint64_t* vx = nullptr;
    std::uint64_t* vy = nullptr;
    if (stripe_capture) {
        dx = words_.data();
        dy = dx + nwords;
        vx = dy + nwords;
        vy = vx + nwords;
    }
    const auto unpack_lane = [&](int l, std::uint64_t* det, std::uint64_t* valid) {
        std::fill_n(det, nwords, 0);
        std::fill_n(valid, nwords, 0);
        for (int k = 0; k < steps; ++k) {
            det[k / 64] |= std::uint64_t{(det_bits_[k] >> l) & 1u} << (k % 64);
            valid[k / 64] |= std::uint64_t{(valid_bits_[k] >> l) & 1u} << (k % 64);
        }
    };

    for (int l = 0; l < n; ++l) {
        analog::FrontEnd& f = *fe[l];
        const Channel ach = active_ch[l];
        const auto ai = static_cast<std::size_t>(ach);
        const auto ii = 1 - ai;

        f.oscillator().load_state(
            {time_a[l], phase_a[l], o_a[l], corr_a[l], pint_a[l], ptime_a[l]});
        f.mux().load_state({ach, since_a[l]});

        // Dynamic environment: land on the last sample's tick exactly
        // as the scalar path would have left it (h_ext on both sensors,
        // ambient temperature, and — before the TanhCore re-sync below
        // — the final effective Ms/Hk/sensitivity).
        if (lane_dyn[l]) {
            f.apply_field_tick(src[l]->field_at(
                lidx0[l] + static_cast<std::uint64_t>(steps) - 1));
        }

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
        if (!stripe_generic) {
            // Re-sync the TanhCore's remembered field; the model is
            // otherwise stateless, so one advance() at the final H
            // reproduces the state after every per-sample call.
            core[l]->advance(hfin_a[l]);
        }
        sensor::FluxgateSensor& idle_sen =
            f.sensor_mut(ach == Channel::X ? Channel::Y : Channel::X);
        if (lane_dyn[l]) {
            // A varying axial field induces real pickup voltage even at
            // zero drive, so the idle sensor replays the per-sample
            // environment instead of taking the stationary shortcut.
            const auto off = static_cast<std::size_t>(l) *
                             static_cast<std::size_t>(steps);
            idle_sen.step_block_env(
                0.0, idle_h_.data() + off,
                idle_sen.temperature_sensitive() ? idle_t_.data() + off : nullptr,
                dt_s, steps);
        } else {
            idle_sen.step_block_constant(0.0, dt_s, steps);
        }

        f.detector(ach).load_state({bit_of(pos_b, l), bit_of(neg_b, l),
                                    bit_of(prevpos_b, l), bit_of(prevneg_b, l),
                                    bit_of(out_b, l)});

        if (lane_noise[l]) {
            f.set_noise_filter_state(nst[l]);
            f.pickup_noise().rng().engine().discard(static_cast<std::uint64_t>(steps));
        }

        if (lane_tap[l]) {
            // Replay the emitted streams through the member's tap ->
            // index -> statistics pipeline, then clock the member's
            // counter over the post-tap words — exactly the block
            // engine's ordering with one chunk per stage.
            std::uint64_t* d_idl = ach == Channel::X ? dy : dx;
            std::uint64_t* v_idl = ach == Channel::X ? vy : vx;
            std::fill_n(d_idl, nwords, 0);
            std::fill_n(v_idl, nwords, 0);
            unpack_lane(l, ach == Channel::X ? dx : dy, ach == Channel::X ? vx : vy);
            f.ingest_samples(steps, dx, dy, vx, vy);
            if (ctr[l] != nullptr) {
                const std::uint64_t* dch = channel == Channel::X ? dx : dy;
                const std::uint64_t* vch = channel == Channel::X ? vx : vy;
                ctr[l]->step_block(dch, vch, dt_s, steps);
            }
        } else {
            // Fold this advance's statistics into the member's window.
            analog::FrontEnd::StreamWindowState ws = f.save_window_state();
            ws.stats[ai].samples += static_cast<std::uint64_t>(steps);
            ws.stats[ai].valid_samples += static_cast<std::uint64_t>(vs_a[l]);
            ws.stats[ai].high_samples += static_cast<std::uint64_t>(hs_a[l]);
            ws.stats[ai].edges += static_cast<std::uint64_t>(edges_a[l]);
            ws.stats[ii].samples += static_cast<std::uint64_t>(steps);
            ws.prev[ai] = bit_of(statprev_b, l) ? 1 : 0;
            ws.has_prev[ai] = bit_of(hasprev_b, l);
            ws.sample_index += static_cast<std::uint64_t>(steps);
            f.load_window_state(ws);

            if (lane_hw[l] && ach == channel) {
                // Hardware-register counter: member object applies
                // wrap/stuck/trap per tick over the emitted words.
                unpack_lane(l, dx, vx);
                ctr[l]->step_block(dx, vx, dt_s, steps);
            } else if (lane_soa_count[l]) {
                ctr[l]->load_state({acc_a[l], cnt_a[l],
                                    static_cast<std::uint64_t>(act_a[l])});
            }
        }

        *lanes[l].energy_j = e_a[l];
    }
}

}  // namespace fxg::sim
