#pragma once

/// \file fields.hpp
/// One field list per snapshot record (DESIGN.md §13). Every record the
/// .fxgsnap codecs carry, and the configuration the config fingerprint
/// covers, has one `fields(io, record)`. It opens with a structured
/// binding of the whole struct, so a member added to the struct without
/// being listed here fails to compile, and then walks the members in
/// wire order. A member that is deliberately not serialized is still
/// named in the binding and skipped with the reason.
///
/// The same walk writes (SnapshotWriter), reads (SnapshotReader) and
/// fingerprints (config_fingerprint). An `io` provides:
///   - `io(v)` for a scalar or a std::string (format.hpp's to_wire
///     mapping: bool u8, enum u32, int i64, double IEEE bits);
///   - `io.section(tag, body)` around a section's fields;
///   - `Io::kReads`, true when the walk fills the record from bytes.
/// Compound members map the same way for every io:
///   - a nested record: its own fields();
///   - std::array: its elements in order, with no count;
///   - std::vector: a u64 count, then the elements. A reader appends
///     them one at a time and never reserves from the count, so a
///     hostile count fails at the first bounds-checked read;
///   - std::optional: a bool (present), then the value if present.
/// Reading expects a default-constructed record.
///
/// fields() of the configuration and stage structs live here, ahead of
/// field(), so every io finds them; a record private to one codec keeps
/// its fields() beside it, in the record's own namespace.

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/compass.hpp"
#include "core/heading_filter.hpp"
#include "core/plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "snapshot/format.hpp"

namespace fxg::snapshot {

/// `S` is `T` or `const T`: writers and the fingerprint walk const
/// records, readers fill mutable ones.
template <class S, class T>
concept record_of = std::same_as<std::remove_const_t<S>, T>;

/// Walks one member by its kind (see the file comment).
template <class Io, class T>
void field(Io& io, T& v);

/// Walks members in the order given.
template <class Io, class... T>
void walk(Io& io, T&... v) {
    (field(io, v), ...);
}

/// Element `i` of a list walked front to back: the existing element
/// when writing, a new one appended when reading.
template <class Io, class L>
auto& element(Io&, L& list, std::uint64_t i) {
    if constexpr (Io::kReads) {
        return list.emplace_back();
    } else {
        return list[static_cast<std::size_t>(i)];
    }
}

/// A u64 count, then element i of every list in turn. One list is the
/// std::vector mapping; TAP0 interleaves two lists of equal length.
template <class Io, class... L>
void elements(Io& io, L&... lists) {
    std::uint64_t n = std::get<0>(std::tie(lists...)).size();
    io(n);
    for (std::uint64_t i = 0; i < n; ++i) (field(io, element(io, lists, i)), ...);
}

/// A section present only when `v` holds a value. A reader takes the
/// section when it is next in the current scope.
template <class Io, class T>
void optional_section(Io& io, std::uint32_t tag, T& v) {
    if constexpr (Io::kReads) {
        if (io.at_end() || io.peek_tag() != tag) return;
        v.emplace();
    } else if (!v.has_value()) {
        return;
    }
    io.section(tag, [&] { field(io, *v); });
}

// -------------------------------------------------- configuration

template <class Io, record_of<analog::TriangleOscillatorConfig> S>
void fields(Io& io, S& s) {
    auto& [amplitude_a, frequency_hz, dc_offset_a, amplitude_error, curvature,
           offset_correction, correction_gain, timing_capacitor_f,
           external_resistor_ohm] = s;
    walk(io, amplitude_a, frequency_hz, dc_offset_a, amplitude_error, curvature,
         offset_correction, correction_gain, timing_capacitor_f,
         external_resistor_ohm);
}

template <class Io, record_of<analog::ViConverterConfig> S>
void fields(Io& io, S& s) {
    auto& [supply_v, headroom_v, gain_error, nonlinearity, full_scale_a,
           linearising_r_ohm, balanced_differential] = s;
    walk(io, supply_v, headroom_v, gain_error, nonlinearity, full_scale_a,
         linearising_r_ohm, balanced_differential);
}

template <class Io, record_of<analog::DetectorConfig> S>
void fields(Io& io, S& s) {
    auto& [threshold_v, comparator_offset_v, comparator_hysteresis_v] = s;
    walk(io, threshold_v, comparator_offset_v, comparator_hysteresis_v);
}

template <class Io, record_of<sensor::FluxgateParams> S>
void fields(Io& io, S& s) {
    auto& [label, n_excitation, n_pickup, r_excitation_ohm, r_pickup_ohm,
           core_area_m2, core_length_m, ms_a_per_m, hk_a_per_m,
           ms_temp_coeff_per_c, hk_temp_coeff_per_c, t_ref_c,
           sens_temp_coeff_per_c] = s;
    walk(io, label, n_excitation, n_pickup, r_excitation_ohm, r_pickup_ohm,
         core_area_m2, core_length_m, ms_a_per_m, hk_a_per_m,
         ms_temp_coeff_per_c, hk_temp_coeff_per_c, t_ref_c,
         sens_temp_coeff_per_c);
}

template <class Io, record_of<analog::FrontEndConfig> S>
void fields(Io& io, S& s) {
    auto& [oscillator, vi, detector, sensor, core_kind, mode, mux_settle_s,
           sensor_mismatch, sensor_temp_mismatch_per_c, pickup_noise_rms_v,
           pickup_noise_bandwidth_hz, noise_seed, supply_v, osc_bias_a,
           vi_bias_a, det_bias_a, leakage_a] = s;
    walk(io, oscillator, vi, detector, sensor, core_kind, mode, mux_settle_s,
         sensor_mismatch, sensor_temp_mismatch_per_c, pickup_noise_rms_v,
         pickup_noise_bandwidth_hz, noise_seed, supply_v, osc_bias_a,
         vi_bias_a, det_bias_a, leakage_a);
}

template <class Io, record_of<compass::CompassConfig> S>
void fields(Io& io, S& s) {
    auto& [front_end, counter_clock_hz, periods_per_axis, settle_periods,
           steps_per_period, cordic_cycles, cordic_frac_bits, power_gating,
           saturation_margin, engine] = s;
    walk(io, front_end, counter_clock_hz, periods_per_axis, settle_periods,
         steps_per_period, cordic_cycles, cordic_frac_bits, power_gating,
         saturation_margin, engine);
}

// ---------------------------------------------------- stage state

template <class Io, record_of<analog::TriangleOscillator::State> S>
void fields(Io& io, S& s) {
    auto& [time_s, phase, output, correction_a, period_integral, period_time] = s;
    walk(io, time_s, phase, output, correction_a, period_integral, period_time);
}

template <class Io, record_of<analog::OscillatorFault> S>
void fields(Io& io, S& s) {
    auto& [frequency_scale, amplitude_scale, extra_dc_a, correction_stuck] = s;
    walk(io, frequency_scale, amplitude_scale, extra_dc_a, correction_stuck);
}

template <class Io, record_of<analog::StreamStats> S>
void fields(Io& io, S& s) {
    auto& [samples, valid_samples, high_samples, edges] = s;
    walk(io, samples, valid_samples, high_samples, edges);
}

template <class Io, record_of<analog::FrontEnd::StreamWindowState> S>
void fields(Io& io, S& s) {
    auto& [stats, prev, has_prev, sample_index] = s;
    walk(io, stats, prev, has_prev, sample_index);
}

template <class Io, record_of<analog::AnalogMux::State> S>
void fields(Io& io, S& s) {
    auto& [channel, since_switch_s] = s;
    walk(io, channel, since_switch_s);
}

template <class Io, record_of<sensor::FluxgateSensor::State> S>
void fields(Io& io, S& s) {
    auto& [h_core, b_core, v_pickup, v_excitation, lambda_pickup_prev,
           lambda_exc_prev, first_step] = s;
    walk(io, h_core, b_core, v_pickup, v_excitation, lambda_pickup_prev,
         lambda_exc_prev, first_step);
}

template <class Io, record_of<analog::PulsePositionDetector::State> S>
void fields(Io& io, S& s) {
    auto& [positive, negative, prev_pos, prev_neg, out] = s;
    walk(io, positive, negative, prev_pos, prev_neg, out);
}

template <class Io, record_of<digital::CounterHardware> S>
void fields(Io& io, S& s) {
    auto& [width_bits, stuck_bit, stuck_high, trap_on_overflow] = s;
    walk(io, width_bits, stuck_bit, stuck_high, trap_on_overflow);
}

template <class Io, record_of<digital::UpDownCounter::State> S>
void fields(Io& io, S& s) {
    auto& [tick_accumulator, count, active_ticks] = s;
    walk(io, tick_accumulator, count, active_ticks);
}

template <class Io, record_of<digital::UpDownCounter::FullState> S>
void fields(Io& io, S& s) {
    auto& [state, enabled, overflowed, trap_pending] = s;
    walk(io, state, enabled, overflowed, trap_pending);
}

template <class Io, record_of<compass::CountCalibration> S>
void fields(Io& io, S& s) {
    // `temp` is configuration like the field source: not serialized, and
    // reinstalled on a restored compass (see TempCompensation).
    auto& [offset_x, offset_y, scale_y, temp] = s;
    (void)temp;
    walk(io, offset_x, offset_y, scale_y);
}

template <class Io, record_of<digital::DisplayDriver::State> S>
void fields(Io& io, S& s) {
    auto& [mode, digits, values] = s;
    walk(io, mode, digits, values);
}

template <class Io, record_of<digital::Watch::State> S>
void fields(Io& io, S& s) {
    auto& [phase, hours, minutes, seconds, rollovers, alarm_armed, alarm_fired,
           alarm_second] = s;
    walk(io, phase, hours, minutes, seconds, rollovers, alarm_armed, alarm_fired,
         alarm_second);
}

template <class Io, record_of<fault::FaultInjector::TapState> S>
void fields(Io& io, S& s) {
    auto& [base_sample, frozen, has_frozen] = s;
    walk(io, base_sample);
    elements(io, frozen, has_frozen);
}

template <class Io, record_of<compass::Measurement> S>
void fields(Io& io, S& s) {
    auto& [heading_deg, heading_float_deg, count_x, count_y, duration_s, energy_j,
           avg_power_w, field_in_range] = s;
    walk(io, heading_deg, heading_float_deg, count_x, count_y, duration_s, energy_j,
         avg_power_w, field_in_range);
}

template <class Io, record_of<digital::CordicResult> S>
void fields(Io& io, S& s) {
    auto& [angle_deg, res_raw, rotations, x_final, y_final] = s;
    walk(io, angle_deg, res_raw, rotations, x_final, y_final);
}

template <class Io, record_of<compass::PlanRun::State> S>
void fields(Io& io, S& s) {
    auto& [next_stage, m, raw_x, raw_y, pending_settle_steps, ran_cordic, cordic] = s;
    walk(io, next_stage, m, raw_x, raw_y, pending_settle_steps, ran_cordic, cordic);
}

// ------------------------------------------------------ supervisor

template <class Io, record_of<fault::HealthFinding> S>
void fields(Io& io, S& s) {
    auto& [code, channel, channel_specific, detail] = s;
    walk(io, code, channel, channel_specific, detail);
}

template <class Io, record_of<fault::HealthReport> S>
void fields(Io& io, S& s) {
    auto& [ok, findings, est_hx_a_per_m, est_hy_a_per_m, est_horizontal_ut, duty_x,
           duty_y, edge_rate_x, edge_rate_y] = s;
    walk(io, ok, findings, est_hx_a_per_m, est_hy_a_per_m, est_horizontal_ut, duty_x,
         duty_y, edge_rate_x, edge_rate_y);
}

template <class Io, record_of<fault::SupervisedMeasurement> S>
void fields(Io& io, S& s) {
    auto& [measurement, health, status, heading_deg, attempts, stale, staleness_s,
           diagnostics] = s;
    walk(io, measurement, health, status, heading_deg, attempts, stale, staleness_s,
         diagnostics);
}

template <class Io, record_of<compass::HeadingFilter::State> S>
void fields(Io& io, S& s) {
    auto& [x, y, primed] = s;
    walk(io, x, y, primed);
}

template <class Io, record_of<fault::MeasurementSupervisor::LadderState> S>
void fields(Io& io, S& s) {
    auto& [last_good, staleness_s, filter] = s;
    walk(io, last_good, staleness_s, filter);
}

// ------------------------------------------------------------ field

namespace detail {

template <class T>
inline constexpr bool is_array = false;
template <class T, std::size_t N>
inline constexpr bool is_array<std::array<T, N>> = true;

template <class T>
inline constexpr bool is_vector = false;
template <class T, class A>
inline constexpr bool is_vector<std::vector<T, A>> = true;

template <class T>
inline constexpr bool is_optional = false;
template <class T>
inline constexpr bool is_optional<std::optional<T>> = true;

}  // namespace detail

template <class Io, class T>
void field(Io& io, T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (requires { fields(io, v); }) {
        fields(io, v);
    } else if constexpr (detail::is_array<U>) {
        for (auto& e : v) field(io, e);
    } else if constexpr (detail::is_vector<U>) {
        elements(io, v);
    } else if constexpr (detail::is_optional<U>) {
        bool present = v.has_value();
        io(present);
        if constexpr (Io::kReads) {
            if (present) field(io, v.emplace());
        } else if (present) {
            field(io, *v);
        }
    } else {
        io(v);
    }
}

}  // namespace fxg::snapshot
