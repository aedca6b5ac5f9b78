#pragma once

/// \file scenario.hpp
/// Declarative time-varying environment descriptions and their compiled
/// per-tick form.
///
/// A Scenario describes what happens to the compass platform and its
/// magnetic surroundings over wall-clock time: legs of motion (hold a
/// heading, turn at a rate), localized field anomalies, hard/soft-iron
/// distortion from nearby ferrous objects, narrow-band interference
/// bursts, and ambient temperature drift. compile_scenario() lowers the
/// description onto a fixed sample grid — mirroring how compile_plan()
/// lowers a MeasurementSpec onto the same grid — producing a
/// CompiledScenario, which is a FieldSource: a pure function from
/// sample index to {hx, hy, temp}.
///
/// Everything is resolved to integer sample ticks at compile time
/// (event times via ceil(time/dt)), so activity predicates are exact
/// tick comparisons: no floating-point boundary can disagree between
/// field_at() and constant_until(), and the same compiled scenario
/// replayed from any sample index — including one restored from a
/// snapshot — produces bit-identical ticks.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "magnetics/earth_field.hpp"
#include "magnetics/field_source.hpp"

namespace fxg::magnetics {

/// One leg of platform motion.
struct MotionSegment {
    double duration_s = 0.0;
    double turn_rate_deg_per_s = 0.0;  ///< 0 = hold the current heading
};

/// Localized additive field disturbance (e.g. passing a parked truck):
/// (dhx, dhy) added to the clean axis field inside the time window.
struct FieldAnomaly {
    double start_s = 0.0;
    double duration_s = 0.0;
    double dhx_a_per_m = 0.0;
    double dhy_a_per_m = 0.0;
};

/// Narrow-band interference burst: an additive sinusoid on the chosen
/// axes (mains hum, a nearby motor) inside the time window.
struct InterferenceBurst {
    double start_s = 0.0;
    double duration_s = 0.0;
    double amplitude_a_per_m = 0.0;
    double frequency_hz = 50.0;
    double phase_rad = 0.0;
    bool on_x = true;
    bool on_y = true;
};

/// Hard/soft-iron distortion from ferrous objects rigidly attached to
/// the platform: h' = S h + offset applied to the (anomaly-perturbed)
/// axis field. Identity by default.
struct IronDistortion {
    double sxx = 1.0, sxy = 0.0;   ///< soft-iron 2x2 row 1
    double syx = 0.0, syy = 1.0;   ///< soft-iron 2x2 row 2
    double offset_x_a_per_m = 0.0;  ///< hard-iron offset, x axis
    double offset_y_a_per_m = 0.0;  ///< hard-iron offset, y axis

    [[nodiscard]] bool is_identity() const noexcept {
        return sxx == 1.0 && sxy == 0.0 && syx == 0.0 && syy == 1.0 &&
               offset_x_a_per_m == 0.0 && offset_y_a_per_m == 0.0;
    }
};

/// Ambient temperature sample point; the compiled scenario linearly
/// interpolates between consecutive points and clamps outside them.
struct TemperaturePoint {
    double time_s = 0.0;
    double temp_c = 25.0;
};

/// Declarative environment description. Populate the fields directly or
/// chain the builder sugar:
///
///   Scenario s;
///   s.label = "city walk";
///   s.field = EarthField(50e-6, 60.0);
///   s.initial_heading_deg = 20.0;
///   s.hold(0.5).turn(90.0, 1.0).hold(0.5)       // 90 deg right turn
///    .anomaly(0.7, 0.2, 12.0, -4.0)             // ferrous clutter
///    .burst(1.4, 0.1, 3.0, 50.0)                // mains-hum burst
///    .temperature(0.0, 25.0).temperature(2.0, 45.0);  // warm-up drift
struct Scenario {
    std::string label = "scenario";
    EarthField field{50.0e-6, 0.0};
    double initial_heading_deg = 0.0;
    std::vector<MotionSegment> motion;  ///< empty = hold initial heading
    std::vector<FieldAnomaly> anomalies;
    std::vector<InterferenceBurst> bursts;
    IronDistortion iron;
    std::vector<TemperaturePoint> temperature_points;  ///< empty = 25 C

    // --- builder sugar (each returns *this for chaining) --------------
    Scenario& hold(double duration_s);
    Scenario& turn(double rate_deg_per_s, double duration_s);
    Scenario& anomaly(double start_s, double duration_s, double dhx_a_per_m,
                      double dhy_a_per_m);
    Scenario& burst(double start_s, double duration_s, double amplitude_a_per_m,
                    double frequency_hz, double phase_rad = 0.0);
    Scenario& hard_iron(double offset_x_a_per_m, double offset_y_a_per_m);
    Scenario& soft_iron(double sxx, double sxy, double syx, double syy);
    Scenario& temperature(double time_s, double temp_c);
};

/// A Scenario lowered onto the sample grid: a FieldSource whose tick
/// values are pure functions of the sample index. Shareable across a
/// fleet (const, no query state).
class CompiledScenario final : public FieldSource {
public:
    [[nodiscard]] FieldTick field_at(std::uint64_t sample_index) const override;
    [[nodiscard]] std::uint64_t constant_until(std::uint64_t begin,
                                               FieldTick* tick) const override;

    /// Ground-truth platform heading at a tick [deg, 0..360) — what a
    /// perfect compass without anomalies/iron/interference would read.
    [[nodiscard]] double true_heading_deg(std::uint64_t sample_index) const;

    [[nodiscard]] double dt_s() const noexcept { return dt_s_; }
    [[nodiscard]] const std::string& label() const noexcept { return label_; }

    /// First tick after the motion programme ends (ticks from there on
    /// hold the final heading).
    [[nodiscard]] std::uint64_t motion_end_tick() const noexcept;

    /// Tick corresponding to time t (the grid point at or after t).
    [[nodiscard]] std::uint64_t tick_of(double time_s) const;

private:
    friend std::shared_ptr<const CompiledScenario> compile_scenario(
        const Scenario& scenario, double dt_s);

    struct Segment {
        std::uint64_t start_tick;
        double heading0_deg;        ///< heading at start_tick
        double rate_deg_per_s;
    };
    struct Window {
        std::uint64_t start_tick;
        std::uint64_t end_tick;
    };
    struct TempPoint {
        std::uint64_t tick;
        double temp_c;
    };

    [[nodiscard]] double heading_deg_at(std::uint64_t tick) const;
    [[nodiscard]] double temp_at(std::uint64_t tick) const;
    [[nodiscard]] bool varying_at(std::uint64_t tick) const;

    std::string label_;
    double dt_s_ = 0.0;
    EarthField field_{50.0e-6, 0.0};
    std::vector<Segment> segments_;         ///< always >= 1 entry
    std::uint64_t motion_end_tick_ = 0;
    double final_heading_deg_ = 0.0;
    std::vector<FieldAnomaly> anomalies_;   ///< amplitudes (times unused)
    std::vector<Window> anomaly_windows_;
    std::vector<InterferenceBurst> bursts_;
    std::vector<Window> burst_windows_;
    IronDistortion iron_;
    bool iron_identity_ = true;
    std::vector<TempPoint> temp_points_;
    std::vector<std::uint64_t> boundaries_;  ///< sorted state-change ticks
};

/// Lowers a Scenario onto a dt_s sample grid (use the compiled plan's
/// dt, Plan::dt_s, so scenario time and engine time share the grid).
/// Throws std::invalid_argument on non-positive dt, negative durations,
/// or non-increasing temperature point times.
std::shared_ptr<const CompiledScenario> compile_scenario(const Scenario& scenario,
                                                         double dt_s);

}  // namespace fxg::magnetics
