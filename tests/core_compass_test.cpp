// System tests for the integrated compass: the paper's one-degree
// accuracy claim, magnitude insensitivity, power gating, measurement
// bookkeeping, hard-iron calibration and the sweep harness.

#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "core/compass.hpp"
#include "core/error_analysis.hpp"
#include "magnetics/units.hpp"
#include "util/angle.hpp"

namespace fxg::compass {
namespace {

magnetics::EarthField nominal_field() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

// ------------------------------------------------------------ measurement

class HeadingAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(HeadingAccuracy, WithinOneDegree) {
    Compass compass;
    compass.set_environment(nominal_field(), GetParam());
    const Measurement m = compass.measure();
    EXPECT_TRUE(m.field_in_range);
    EXPECT_LE(util::angular_abs_diff_deg(m.heading_deg, GetParam()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HeadingAccuracy,
                         ::testing::Values(0.0, 22.5, 45.0, 80.0, 90.0, 135.0, 180.0,
                                           200.0, 222.5, 270.0, 300.0, 359.0));

TEST(Compass, CountsMatchAnalyticTransfer) {
    // count = f_clk * N * T * Hext/Ha per axis (DESIGN.md section 5).
    Compass compass;
    const auto field = magnetics::EarthField(magnetics::microtesla(25.0), 0.0);
    compass.set_environment(field, 0.0);  // all field on the x axis
    const Measurement m = compass.measure();
    const auto& cfg = compass.config();
    const double ha = cfg.front_end.oscillator.amplitude_a *
                      cfg.front_end.sensor.field_per_amp();
    const double t_period = 1.0 / cfg.front_end.oscillator.frequency_hz;
    const double expected = cfg.counter_clock_hz * cfg.periods_per_axis * t_period *
                            field.horizontal_a_per_m() / ha;
    EXPECT_NEAR(static_cast<double>(m.count_x), expected, expected * 0.01 + 2.0);
    EXPECT_NEAR(static_cast<double>(m.count_y), 0.0, expected * 0.01 + 2.0);
}

TEST(Compass, FloatReferenceTracksCordic) {
    Compass compass;
    compass.set_environment(nominal_field(), 123.0);
    const Measurement m = compass.measure();
    // CORDIC differs from float atan2 of the same counts by its bound.
    EXPECT_LE(util::angular_abs_diff_deg(m.heading_deg, m.heading_float_deg),
              compass.cordic().error_bound_deg());
}

TEST(Compass, MagnitudeInsensitivity) {
    // Same heading at the paper's 25 uT and 65 uT sites (the latter at
    // polar dip, so the horizontal component stays in range).
    Compass compass;
    std::vector<double> readings;
    for (const auto& site : magnetics::paper_sites()) {
        compass.set_environment(magnetics::EarthField(site), 250.0);
        readings.push_back(compass.measure().heading_deg);
    }
    for (double r : readings) {
        EXPECT_LE(util::angular_abs_diff_deg(r, 250.0), 1.0);
    }
}

TEST(Compass, OutOfRangeFieldIsFlagged) {
    // A field so strong the core cannot saturate both ways anymore.
    Compass compass;
    compass.set_axis_fields(60.0, 0.0);  // |h| + hk = 100 > ha = 80
    const Measurement m = compass.measure();
    EXPECT_FALSE(m.field_in_range);
}

TEST(Compass, MeasurementBookkeeping) {
    Compass compass;
    compass.set_environment(nominal_field(), 10.0);
    const Measurement m = compass.measure();
    const auto& cfg = compass.config();
    const double t_period = 1.0 / cfg.front_end.oscillator.frequency_hz;
    const double expect_duration =
        2.0 * (cfg.settle_periods + cfg.periods_per_axis) * t_period;
    EXPECT_NEAR(m.duration_s, expect_duration, 1e-9);
    EXPECT_GT(m.energy_j, 0.0);
    EXPECT_NEAR(m.avg_power_w, m.energy_j / m.duration_s, 1e-12);
    // ~17.8 mW front-end power at 5 V (bias + average excitation drive).
    EXPECT_GT(m.avg_power_w, 5e-3);
    EXPECT_LT(m.avg_power_w, 40e-3);
}

TEST(Compass, DisplayAndWatchFollowMeasurements) {
    Compass compass;
    compass.set_environment(nominal_field(), 275.0);
    const Measurement m = compass.measure();
    // The display shows the measured (not the true) heading, rounded.
    const int shown = static_cast<int>(std::lround(m.heading_deg)) % 360;
    EXPECT_EQ(compass.display().text().substr(1), std::to_string(shown));
    const int secs_before = compass.watch().seconds();
    compass.idle(3.0);
    EXPECT_EQ(compass.watch().seconds(), (secs_before + 3) % 60);
}

TEST(Compass, PowerGatingReducesIdleDraw) {
    CompassConfig gated;
    gated.power_gating = true;
    Compass compass(gated);
    compass.set_environment(nominal_field(), 0.0);
    compass.measure();
    // After a gated measurement the front end must be disabled.
    EXPECT_FALSE(compass.front_end().enabled());

    CompassConfig always_on;
    always_on.power_gating = false;
    Compass compass2(always_on);
    compass2.set_environment(nominal_field(), 0.0);
    compass2.measure();
    EXPECT_TRUE(compass2.front_end().enabled());
}

TEST(Compass, MorePeriodsImproveResolution) {
    // Counter resolution grows linearly with integration periods.
    CompassConfig quick;
    quick.periods_per_axis = 2;
    CompassConfig slow;
    slow.periods_per_axis = 16;
    Compass cq(quick);
    Compass cs(slow);
    const auto field = nominal_field();
    cq.set_environment(field, 0.0);
    cs.set_environment(field, 0.0);
    const auto mq = cq.measure();
    const auto ms = cs.measure();
    EXPECT_NEAR(static_cast<double>(ms.count_x) / static_cast<double>(mq.count_x), 8.0,
                0.2);
}

TEST(Compass, ValidatesConfig) {
    CompassConfig bad;
    bad.periods_per_axis = 0;
    EXPECT_THROW(Compass{bad}, std::invalid_argument);
    bad = {};
    bad.steps_per_period = 16;
    EXPECT_THROW(Compass{bad}, std::invalid_argument);
    Compass ok;
    EXPECT_THROW(ok.idle(-1.0), std::invalid_argument);
}

// ------------------------------------------------------------ calibration

TEST(Calibration, CircleFitRecoversCenter) {
    std::vector<CountSample> samples;
    for (int k = 0; k < 12; ++k) {
        const double a = util::deg_to_rad(30.0 * k);
        samples.push_back({100.0 + 50.0 * std::cos(a), -40.0 + 50.0 * std::sin(a)});
    }
    const CircleFit fit = fit_circle(samples);
    EXPECT_NEAR(fit.center_x, 100.0, 1e-6);
    EXPECT_NEAR(fit.center_y, -40.0, 1e-6);
    EXPECT_NEAR(fit.radius, 50.0, 1e-6);
    EXPECT_NEAR(fit.rms_residual, 0.0, 1e-6);
}

TEST(Calibration, CircleFitValidates) {
    EXPECT_THROW(fit_circle({{0, 0}, {1, 1}}), std::invalid_argument);
    EXPECT_THROW(fit_circle({{0, 0}, {1, 1}, {2, 2}}), std::invalid_argument);
}

TEST(Calibration, HardIronRecovery) {
    // Inject a hard-iron offset by biasing the counter calibration the
    // wrong way, then let the calibration routine find the true centre.
    Compass compass;
    const auto field = nominal_field();
    // A magnetised case adds a constant count offset on both axes;
    // emulate it by pre-loading an adversarial calibration.
    compass.set_calibration({-300, 150, 1.0, {}});
    // Uncalibrated: heading is badly wrong somewhere on the circle.
    compass.set_environment(field, 90.0);
    const double bad_err = util::angular_abs_diff_deg(
        compass.measure().heading_deg, 90.0);
    EXPECT_GT(bad_err, 5.0);
    // The calibration routine measures around the circle; because our
    // "hard iron" lives in the calibration offsets themselves, ask it to
    // find the centre and verify it recovers those offsets.
    std::vector<CountSample> samples;
    for (int k = 0; k < 12; ++k) {
        compass.set_environment(field, 30.0 * k);
        const Measurement m = compass.measure();
        samples.push_back({static_cast<double>(m.count_x),
                           static_cast<double>(m.count_y)});
    }
    const CircleFit fit = fit_circle(samples);
    EXPECT_NEAR(fit.center_x, 300.0, 6.0);
    EXPECT_NEAR(fit.center_y, -150.0, 6.0);
}

TEST(Calibration, EndToEndHelperCentersLocus) {
    Compass compass;
    const auto field = nominal_field();
    const CountCalibration cal = calibrate_hard_iron(compass, field, 8);
    // A clean compass has (nearly) no hard iron: offsets ~ 0 counts.
    EXPECT_LE(std::llabs(cal.offset_x), 4);
    EXPECT_LE(std::llabs(cal.offset_y), 4);
    // And accuracy still holds afterwards.
    compass.set_environment(field, 222.0);
    EXPECT_LE(util::angular_abs_diff_deg(compass.measure().heading_deg, 222.0), 1.0);
}

// ------------------------------------------------------------------ sweep

TEST(Sweep, HarnessCollectsStatistics) {
    Compass compass;
    const HeadingSweep sweep = sweep_heading(compass, nominal_field(), 45.0);
    EXPECT_EQ(sweep.points.size(), 8u);
    EXPECT_TRUE(sweep.meets_one_degree());
    EXPECT_LE(sweep.rms_error_deg(), 0.5);
    // The float reference sees only count quantisation; the CORDIC adds
    // at most its algorithmic bound on top.
    EXPECT_LE(sweep.error_stats.max_abs(),
              sweep.float_error_stats.max_abs() + compass.cordic().error_bound_deg());
    for (const SweepPoint& p : sweep.points) EXPECT_TRUE(p.in_range);
}

TEST(Sweep, Validates) {
    Compass compass;
    EXPECT_THROW(sweep_heading(compass, nominal_field(), 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace fxg::compass
