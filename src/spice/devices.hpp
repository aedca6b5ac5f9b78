#pragma once

/// \file devices.hpp
/// Standard device library for the MNA engine: passives, independent
/// and controlled sources, a junction diode and a voltage-controlled
/// switch. The fluxgate sensing element itself lives in
/// sensor/fluxgate_device.hpp — it is a custom Device subclass, playing
/// the role of the paper's ELDO sensor model.
///
/// Branch-current sign convention: positive current flows from the
/// first (positive) node through the device to the second node, so a
/// voltage source delivering power reports a negative branch current,
/// as in SPICE.

#include <memory>

#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace fxg::spice {

/// Linear resistor.
class Resistor final : public Device {
public:
    Resistor(std::string name, int a, int b, double ohms);
    void stamp(Stamp& s, const DeviceContext& ctx) override;
    [[nodiscard]] double resistance() const noexcept { return ohms_; }

private:
    int a_, b_;
    double ohms_;
};

/// Linear capacitor with BE/trapezoidal companion model.
class Capacitor final : public Device {
public:
    Capacitor(std::string name, int a, int b, double farads, double v_initial = 0.0);
    void stamp(Stamp& s, const DeviceContext& ctx) override;
    void stamp_ac(AcStamp& s, const AcContext& ctx) override;
    void commit(const DeviceContext& ctx) override;
    void reset() override;

private:
    int a_, b_;
    double farads_;
    double v_init_;
    double v_prev_;
    double i_prev_ = 0.0;
};

/// Linear inductor; takes one branch-current unknown.
class Inductor final : public Device {
public:
    Inductor(std::string name, int a, int b, double henries, double i_initial = 0.0);
    [[nodiscard]] int branch_count() const override { return 1; }
    void stamp(Stamp& s, const DeviceContext& ctx) override;
    void stamp_ac(AcStamp& s, const AcContext& ctx) override;
    void commit(const DeviceContext& ctx) override;
    void reset() override;

private:
    int a_, b_;
    double henries_;
    double i_init_;
    double i_prev_;
    double v_prev_ = 0.0;
};

/// Independent voltage source with an arbitrary waveform.
class VoltageSource final : public Device {
public:
    VoltageSource(std::string name, int a, int b, std::unique_ptr<Waveform> wave);
    VoltageSource(std::string name, int a, int b, double dc_volts);
    [[nodiscard]] int branch_count() const override { return 1; }
    void stamp(Stamp& s, const DeviceContext& ctx) override;
    void stamp_ac(AcStamp& s, const AcContext& ctx) override;
    [[nodiscard]] const Waveform& waveform() const { return *wave_; }
    /// Replaces the waveform (used by parameter sweeps).
    void set_waveform(std::unique_ptr<Waveform> wave) { wave_ = std::move(wave); }
    /// Small-signal excitation amplitude for AC analysis (SPICE "AC 1").
    void set_ac_magnitude(double mag) noexcept { ac_magnitude_ = mag; }

private:
    int a_, b_;
    std::unique_ptr<Waveform> wave_;
    double ac_magnitude_ = 0.0;
};

/// Independent current source; positive value drives current from the
/// first node through the source into the second node.
class CurrentSource final : public Device {
public:
    CurrentSource(std::string name, int a, int b, std::unique_ptr<Waveform> wave);
    CurrentSource(std::string name, int a, int b, double dc_amps);
    void stamp(Stamp& s, const DeviceContext& ctx) override;
    void stamp_ac(AcStamp& s, const AcContext& ctx) override;
    void set_waveform(std::unique_ptr<Waveform> wave) { wave_ = std::move(wave); }
    /// Small-signal excitation amplitude for AC analysis.
    void set_ac_magnitude(double mag) noexcept { ac_magnitude_ = mag; }

private:
    int a_, b_;
    std::unique_ptr<Waveform> wave_;
    double ac_magnitude_ = 0.0;
};

/// Junction diode: i = Is (exp(v / (n Vt)) - 1) with a linear
/// continuation above 40 n·Vt for Newton robustness.
class Diode final : public Device {
public:
    Diode(std::string name, int a, int b, double is_sat = 1e-14, double n = 1.0);
    void stamp(Stamp& s, const DeviceContext& ctx) override;

private:
    int a_, b_;
    double is_;
    double n_vt_;
};

/// Voltage-controlled voltage source (SPICE E element).
class Vcvs final : public Device {
public:
    Vcvs(std::string name, int a, int b, int c, int d, double gain);
    [[nodiscard]] int branch_count() const override { return 1; }
    void stamp(Stamp& s, const DeviceContext& ctx) override;

private:
    int a_, b_, c_, d_;
    double gain_;
};

/// Voltage-controlled current source (SPICE G element).
class Vccs final : public Device {
public:
    Vccs(std::string name, int a, int b, int c, int d, double gm);
    void stamp(Stamp& s, const DeviceContext& ctx) override;

private:
    int a_, b_, c_, d_;
    double gm_;
};

/// Current-controlled current source (SPICE F element); the controlling
/// current is the branch current of another device (e.g. a V source).
class Cccs final : public Device {
public:
    Cccs(std::string name, int a, int b, const Device* control, double gain);
    void stamp(Stamp& s, const DeviceContext& ctx) override;

private:
    int a_, b_;
    const Device* control_;
    double gain_;
};

/// Current-controlled voltage source (SPICE H element).
class Ccvs final : public Device {
public:
    Ccvs(std::string name, int a, int b, const Device* control, double rm);
    [[nodiscard]] int branch_count() const override { return 1; }
    void stamp(Stamp& s, const DeviceContext& ctx) override;

private:
    int a_, b_;
    const Device* control_;
    double rm_;
};

/// Smooth voltage-controlled switch: conductance interpolates between
/// 1/roff and 1/ron as the control voltage (c-d) crosses vt over a
/// transition width vw (logistic). Used for the sensor multiplexer.
class VSwitch final : public Device {
public:
    VSwitch(std::string name, int a, int b, int c, int d, double ron, double roff,
            double vt, double vw = 0.1);
    void stamp(Stamp& s, const DeviceContext& ctx) override;

private:
    [[nodiscard]] double conductance(double vc) const;
    [[nodiscard]] double conductance_slope(double vc) const;

    int a_, b_, c_, d_;
    double g_on_, g_off_, vt_, vw_;
};

}  // namespace fxg::spice
