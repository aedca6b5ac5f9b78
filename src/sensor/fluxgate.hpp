#pragma once

/// \file fluxgate.hpp
/// Behavioural (time-stepped) fluxgate sensor model.
///
/// Physics (paper section 2.1.1): the core is driven by the excitation
/// field H_exc = N_exc * i / l plus the external axial field H_ext. The
/// magnetisation follows the core model; the pickup coil sees
///   v_pick = -N_pick * A * dB/dt,   B = mu0 (H + M(H)).
/// With triangular excitation the pickup voltage is a train of pulses
/// centred where the core transits its permeable region; an external
/// field shifts the transit — and hence the pulses — in time. That
/// pulse-position shift is the measurand of the whole compass.

#include <functional>
#include <memory>

#include "magnetics/core_model.hpp"
#include "sensor/fluxgate_params.hpp"

namespace fxg::sensor {

/// Time-stepped fluxgate element driven by an excitation current.
class FluxgateSensor {
public:
    /// Builds a sensor; by default the core is a TanhCore with the
    /// parameter set's Ms and Hk. Pass a custom core (e.g. a
    /// JilesAthertonCore) to study model sensitivity.
    explicit FluxgateSensor(FluxgateParams params,
                            std::unique_ptr<magnetics::CoreModel> core = nullptr);

    FluxgateSensor(const FluxgateSensor& other);
    FluxgateSensor& operator=(const FluxgateSensor&) = delete;

    /// Sets the external field component along the sensor axis [A/m].
    void set_external_field(double h_a_per_m) noexcept { h_ext_ = h_a_per_m; }
    [[nodiscard]] double external_field() const noexcept { return h_ext_; }

    /// Sets the ambient core temperature [deg C]: updates the core
    /// model's Ms/Hk and the sensor's effective sensitivity. Applied
    /// only when the parameter set declares a nonzero temperature
    /// coefficient, so temperature-free sensors (the default) pay
    /// nothing and stay bit-identical to the historic model.
    void set_temperature(double temp_c) {
        if (temp_sensitive_) {
            core_->set_temperature(temp_c);
            fpa_scale_ = fpa_scale_at(temp_c);
        }
    }
    [[nodiscard]] bool temperature_sensitive() const noexcept {
        return temp_sensitive_;
    }

    /// Effective field-per-amp at the current temperature [A/m per A]:
    /// params().field_per_amp() times the sensitivity drift factor
    /// (exactly 1.0 when temperature-free). The one expression every
    /// engine path uses for the excitation field term.
    [[nodiscard]] double effective_field_per_amp() const noexcept {
        return params_.field_per_amp() * fpa_scale_;
    }

    /// The sensitivity drift factor at an arbitrary temperature — the
    /// exact expression set_temperature() installs.
    [[nodiscard]] double fpa_scale_at(double temp_c) const noexcept {
        const double v =
            1.0 + params_.sens_temp_coeff_per_c * (temp_c - params_.t_ref_c);
        return v > 1e-12 ? v : 1e-12;
    }

    /// What every step of a block reads besides the core: fixed while
    /// the field and the temperature hold. step(), step_block() and the
    /// lane engine's gather all take it from here.
    struct Constants {
        double field_per_amp;  ///< effective_field_per_amp() [A/m per A]
        double h_ext;          ///< external axial field [A/m]
        double na_pickup;      ///< N A of the pickup winding [m^2]
        double na_excitation;  ///< N A of the excitation winding [m^2]
        double r_excitation;   ///< excitation winding resistance [ohm]
    };
    [[nodiscard]] Constants constants() const noexcept {
        return {effective_field_per_amp(), h_ext_, params_.n_pickup * params_.core_area_m2,
                params_.n_excitation * params_.core_area_m2, params_.r_excitation_ohm};
    }

    /// Advances one time step with the given excitation current [A].
    /// Returns the open-circuit pickup voltage [V] over this step.
    double step(double i_excitation_a, double dt_s);

    /// Advances `n` steps with the excitation currents in `i_exc`,
    /// writing each step's pickup voltage into `v_out`. Bit-identical
    /// to n step() calls; the block form hoists parameter loads,
    /// advances the core model with one block call, computes H, B and
    /// the pickup derivative as util::simd vectors, and computes the
    /// excitation-winding voltage once, from the last two samples.
    void step_block(const double* i_exc, double dt_s, int n, double* v_out);

    /// Ends a block of `n` >= 1 steps of `dt_s`, leaving the state n
    /// step() calls leave: the last step's core field `h`, flux density
    /// `b`, pickup voltage `v_pickup` and excitation current `i_last`,
    /// the linkages of `b`, and the excitation-winding voltage from the
    /// last two excitation linkages, the one before the last being that
    /// of `b_prev` (the step before the last) or, in a one-step block,
    /// the carried one; a fresh sensor's one-step block has the
    /// resistive drop alone. step_block() and the lane engine's scatter
    /// both end through it; the core model's state is the caller's.
    void end_block(int n, double dt_s, double i_last, double h, double b, double b_prev,
                   double v_pickup) noexcept;

    /// Advances `n` steps at a constant excitation current. After the
    /// first two steps the sensor state is stationary (dB/dt = 0), so
    /// this costs O(1) instead of O(n) — the block engine's fast path
    /// for the de-selected (idle) sensor of a multiplexed front end.
    /// Bit-identical to n step(i, dt) calls.
    void step_block_constant(double i_excitation_a, double dt_s, int n);

    /// Open-circuit pickup voltage of the last step [V].
    [[nodiscard]] double pickup_voltage() const noexcept { return v_pickup_; }

    /// Voltage across the excitation coil over the last step [V]:
    /// resistive drop plus d(lambda_exc)/dt. Reproduces the impedance
    /// collapse at saturation visible in the paper's Figure 4.
    [[nodiscard]] double excitation_voltage() const noexcept { return v_excitation_; }

    /// Total core field H of the last step [A/m].
    [[nodiscard]] double core_field() const noexcept { return h_core_; }

    /// Core flux density B of the last step [T].
    [[nodiscard]] double flux_density() const noexcept { return b_core_; }

    /// True while |H| exceeds the knee field (core saturated).
    [[nodiscard]] bool saturated() const noexcept;

    /// Clears all dynamic state back to the demagnetised condition.
    void reset();

    /// Evolving sensor state (excluding the core model's own state, see
    /// core_mut()), for the lane engine's gather/scatter seam.
    struct State {
        double h_core = 0.0;
        double b_core = 0.0;
        double v_pickup = 0.0;
        double v_excitation = 0.0;
        double lambda_pickup_prev = 0.0;
        double lambda_exc_prev = 0.0;
        bool first_step = true;
    };

    [[nodiscard]] State save_state() const noexcept {
        return {h_core_,       b_core_,          v_pickup_, v_excitation_,
                lambda_pickup_prev_, lambda_exc_prev_, first_step_};
    }
    void load_state(const State& s) noexcept {
        h_core_ = s.h_core;
        b_core_ = s.b_core;
        v_pickup_ = s.v_pickup;
        v_excitation_ = s.v_excitation;
        lambda_pickup_prev_ = s.lambda_pickup_prev;
        lambda_exc_prev_ = s.lambda_exc_prev;
        first_step_ = s.first_step;
    }

    [[nodiscard]] const FluxgateParams& params() const noexcept { return params_; }
    [[nodiscard]] const magnetics::CoreModel& core() const noexcept { return *core_; }

    /// Mutable core access: the lane engine re-syncs its TanhCore's
    /// last H through one advance() at scatter time, and the snapshot
    /// layer restores core state through it.
    [[nodiscard]] magnetics::CoreModel& core_mut() noexcept { return *core_; }

private:
    FluxgateParams params_;
    std::unique_ptr<magnetics::CoreModel> core_;
    bool temp_sensitive_ = false;
    double fpa_scale_ = 1.0;  ///< sensitivity drift factor at current temp
    double h_ext_ = 0.0;
    double h_core_ = 0.0;
    double b_core_ = 0.0;
    double v_pickup_ = 0.0;
    double v_excitation_ = 0.0;
    double lambda_pickup_prev_ = 0.0;
    double lambda_exc_prev_ = 0.0;
    bool first_step_ = true;
};

/// Analytic prediction of the pulse-position detector duty cycle for a
/// triangular excitation field of amplitude `ha` and a core knee `hk`
/// with axial external field `hext` (all A/m):
///     D = 1/2 + hext / (2 ha)
/// Valid while |hext| + hk < ha (the core still saturates both ways).
/// Derivation in DESIGN.md section 5.
double ideal_duty_cycle(double ha, double hk, double hext);

}  // namespace fxg::sensor
