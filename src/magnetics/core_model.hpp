#pragma once

/// \file core_model.hpp
/// Ferromagnetic core magnetisation models for the fluxgate sensor.
///
/// A fluxgate is a transformer whose permalloy core is driven into
/// saturation periodically (paper section 2.1.1). The pickup voltage is
/// v = -N A dB/dt with B = mu0 (H + M(H)); the pulse shape therefore
/// depends entirely on the shape of M(H) near saturation. Three models
/// with a common interface are provided:
///
///  * TanhCore      — anhysteretic, M = Ms tanh(H/Hk). This is the
///                    behavioural workhorse: fast, smooth and monotone.
///  * LangevinCore  — anhysteretic Langevin function, a slightly softer
///                    knee; used for model-sensitivity checks.
///  * JilesAthertonCore — full hysteresis ODE model; used to verify that
///                    the pulse-position readout is insensitive to the
///                    (small) hysteresis of real permalloy.
///
/// All models are stateful via advance(): hysteretic cores remember
/// their magnetisation history; anhysteretic cores simply evaluate.

#include <memory>
#include <vector>

namespace fxg::magnetics {

/// Interface of a scalar core magnetisation model (single easy axis).
/// Fields in A/m, magnetisation in A/m.
class CoreModel {
public:
    virtual ~CoreModel() = default;

    /// Advances the model to applied field `h` [A/m] and returns the
    /// magnetisation M [A/m]. For hysteretic models the path matters, so
    /// callers must feed a time-ordered sequence of fields.
    virtual double advance(double h) = 0;

    /// Advances through `n` time-ordered fields, writing the
    /// magnetisation for each into `m_out`. Semantically identical to n
    /// advance() calls (bit-identical results); concrete models override
    /// it with a loop that skips the per-sample virtual dispatch, which
    /// is what the block simulation engine runs on.
    virtual void advance_block(const double* h, double* m_out, int n);

    /// Differential susceptibility dM/dH at the current state (used for
    /// the small-signal inductance of the excitation coil, which the
    /// paper's Figure 4 shows collapsing at saturation).
    [[nodiscard]] virtual double susceptibility() const = 0;

    /// Resets history to the demagnetised state.
    virtual void reset() = 0;

    /// Saturation magnetisation Ms [A/m].
    [[nodiscard]] virtual double saturation_magnetisation() const = 0;

    /// Field scale at which the knee of the curve sits [A/m]; the
    /// pulse-position method keys off this threshold.
    [[nodiscard]] virtual double knee_field() const = 0;

    /// Sets the ambient core temperature [deg C]. The behavioural
    /// TanhCore scales Ms and Hk linearly in (T - Tref) (see TanhCore);
    /// the model-sensitivity cores (Langevin, Jiles-Atherton) ignore it.
    /// Temperature is configuration-like, not evolving state: it is NOT
    /// part of save_state()/load_state() — the environment (FieldSource)
    /// re-applies it on every tick, so a restored core converges on the
    /// first sample after restore.
    virtual void set_temperature(double /*temp_c*/) {}

    /// Deep copy (models are value-like but used polymorphically).
    [[nodiscard]] virtual std::unique_ptr<CoreModel> clone() const = 0;

    /// Evolving state as an opaque double vector (snapshot seam). The
    /// layout is model-specific; load_state() requires a vector produced
    /// by save_state() of the same concrete model and throws
    /// std::invalid_argument on a size mismatch.
    [[nodiscard]] virtual std::vector<double> save_state() const = 0;
    virtual void load_state(const std::vector<double>& state) = 0;
};

/// Anhysteretic hyperbolic-tangent core: M(H) = Ms(T) * tanh(H / Hk(T)).
///
/// Temperature model (motivated by fluxgate temperature-compensation
/// practice): both material parameters drift linearly around a
/// reference temperature,
///     Ms(T) = Ms0 (1 + a_ms (T - Tref)),
///     Hk(T) = Hk0 (1 + a_hk (T - Tref)),
/// floored to a tiny positive value so a pathological scenario cannot
/// drive them through zero. The default coefficients are exactly 0, in
/// which case the effective values are bit-identical to Ms0/Hk0 and the
/// model behaves precisely as the historic temperature-free core.
class TanhCore final : public CoreModel {
public:
    /// \param ms saturation magnetisation at Tref [A/m]
    /// \param hk knee field at Tref [A/m] — M reaches 76% Ms at H = Hk.
    /// \param ms_temp_coeff_per_c relative Ms drift per deg C
    /// \param hk_temp_coeff_per_c relative Hk drift per deg C
    /// \param t_ref_c reference temperature [deg C]
    TanhCore(double ms, double hk, double ms_temp_coeff_per_c = 0.0,
             double hk_temp_coeff_per_c = 0.0, double t_ref_c = 25.0);

    double advance(double h) override;
    void advance_block(const double* h, double* m_out, int n) override;
    [[nodiscard]] double susceptibility() const override;
    void reset() override;
    [[nodiscard]] double saturation_magnetisation() const override { return ms_; }
    [[nodiscard]] double knee_field() const override { return hk_; }
    void set_temperature(double temp_c) override;
    [[nodiscard]] std::unique_ptr<CoreModel> clone() const override;
    [[nodiscard]] std::vector<double> save_state() const override;
    void load_state(const std::vector<double>& state) override;

    /// Closed-form magnetisation (stateless evaluation).
    [[nodiscard]] double magnetisation(double h) const;

    /// True when either temperature coefficient is nonzero.
    [[nodiscard]] bool temperature_sensitive() const noexcept {
        return ms_tc_ != 0.0 || hk_tc_ != 0.0;
    }

private:
    /// Effective Ms/Hk at an arbitrary temperature, as set_temperature()
    /// installs them.
    [[nodiscard]] double ms_at(double temp_c) const noexcept;
    [[nodiscard]] double hk_at(double temp_c) const noexcept;

    double ms_;        ///< effective Ms at the current temperature
    double hk_;        ///< effective Hk at the current temperature
    double ms0_;       ///< Ms at Tref
    double hk0_;       ///< Hk at Tref
    double ms_tc_;     ///< relative Ms drift [1/degC]
    double hk_tc_;     ///< relative Hk drift [1/degC]
    double t_ref_c_;   ///< reference temperature [degC]
    double last_h_ = 0.0;
};

/// Anhysteretic Langevin core: M(H) = Ms * (coth(H/a) - a/H).
class LangevinCore final : public CoreModel {
public:
    LangevinCore(double ms, double a);

    double advance(double h) override;
    void advance_block(const double* h, double* m_out, int n) override;
    [[nodiscard]] double susceptibility() const override;
    void reset() override;
    [[nodiscard]] double saturation_magnetisation() const override { return ms_; }
    [[nodiscard]] double knee_field() const override { return 3.0 * a_; }
    [[nodiscard]] std::unique_ptr<CoreModel> clone() const override;
    [[nodiscard]] std::vector<double> save_state() const override;
    void load_state(const std::vector<double>& state) override;

    [[nodiscard]] double magnetisation(double h) const;

private:
    double ms_;
    double a_;
    double last_h_ = 0.0;
};

/// Jiles–Atherton hysteresis model parameters.
struct JilesAthertonParams {
    double ms = 4.0e5;    ///< saturation magnetisation [A/m]
    double a = 30.0;      ///< anhysteretic shape parameter [A/m]
    double k = 15.0;      ///< pinning-site density (coercivity) [A/m]
    double c = 0.2;       ///< reversibility coefficient [0..1]
    double alpha = 1e-4;  ///< inter-domain coupling
};

/// Jiles–Atherton hysteresis model. Integrates
///   dM/dH = ((Man-M)/(delta k - alpha (Man-M)) + c dMan/dHe) / (1 + c ... )
/// with an explicit sub-stepped update; accurate enough for waveform-
/// level studies at the excitation frequencies of interest (8 kHz).
class JilesAthertonCore final : public CoreModel {
public:
    explicit JilesAthertonCore(const JilesAthertonParams& p);

    double advance(double h) override;
    [[nodiscard]] double susceptibility() const override { return last_dmdh_; }
    void reset() override;
    [[nodiscard]] double saturation_magnetisation() const override { return p_.ms; }
    [[nodiscard]] double knee_field() const override { return 3.0 * p_.a; }
    [[nodiscard]] std::unique_ptr<CoreModel> clone() const override;
    [[nodiscard]] std::vector<double> save_state() const override;
    void load_state(const std::vector<double>& state) override;

    [[nodiscard]] const JilesAthertonParams& params() const noexcept { return p_; }

private:
    /// Anhysteretic (Langevin) magnetisation at effective field he.
    [[nodiscard]] double anhysteretic(double he) const;
    [[nodiscard]] double anhysteretic_slope(double he) const;

    JilesAthertonParams p_;
    double m_ = 0.0;
    double h_ = 0.0;
    double last_dmdh_ = 0.0;
};

}  // namespace fxg::magnetics
