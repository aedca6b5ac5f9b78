/// \file scenario_test.cpp
/// The time-varying environment layer: FieldSource seam semantics,
/// scenario DSL compilation (tick grid, constant_until runs, anomaly /
/// burst / iron / temperature features), cross-engine bit-identity of
/// compiled scenarios on the scalar, block and SoA lane engines, the
/// sensor's temperature seam, temperature-sweep calibration, and a
/// fleet sharing one compiled scenario across worker
/// threads (the TSan leg picks this file up by the "Scenario" in its
/// suite names). The randomized version of the engine identities is
/// verify::Oracle::ScenarioDeterminism in fuzz_test.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/calibration.hpp"
#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/field_source.hpp"
#include "magnetics/scenario.hpp"
#include "magnetics/units.hpp"
#include "sensor/fluxgate.hpp"
#include "sim/lane_engine.hpp"
#include "util/angle.hpp"

using namespace fxg;

namespace {

const magnetics::EarthField kField(magnetics::microtesla(48.0), 60.0);

compass::CompassConfig fast_config(sim::EngineKind kind = sim::EngineKind::Scalar) {
    compass::CompassConfig cfg;
    cfg.engine = kind;
    cfg.steps_per_period = 64;
    cfg.periods_per_axis = 1;
    cfg.settle_periods = 1;
    return cfg;
}

/// Thermal coefficients engaged on every sensor path, with the x/y
/// sensitivity mismatch that makes temperature drift heading-visible.
void add_tempcos(compass::CompassConfig& cfg) {
    cfg.front_end.sensor.ms_temp_coeff_per_c = 3.0e-4;
    cfg.front_end.sensor.hk_temp_coeff_per_c = -2.0e-4;
    cfg.front_end.sensor.sens_temp_coeff_per_c = 2.0e-4;
    cfg.front_end.sensor_temp_mismatch_per_c = 6.0e-4;
}

void expect_equal_measurements(const compass::Measurement& a,
                               const compass::Measurement& b) {
    EXPECT_EQ(a.count_x, b.count_x);
    EXPECT_EQ(a.count_y, b.count_y);
    EXPECT_EQ(a.heading_deg, b.heading_deg);
    EXPECT_EQ(a.heading_float_deg, b.heading_float_deg);
    EXPECT_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.energy_j, b.energy_j);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.field_in_range, b.field_in_range);
}

}  // namespace

// ---------------------------------------------------------- compilation

TEST(ScenarioCompile, RejectsBadInputs) {
    magnetics::Scenario scn;
    scn.hold(1.0);
    EXPECT_THROW(magnetics::compile_scenario(scn, 0.0), std::invalid_argument);
    EXPECT_THROW(magnetics::compile_scenario(scn, -1e-6), std::invalid_argument);

    magnetics::Scenario bad_motion;
    bad_motion.turn(10.0, -1.0);
    EXPECT_THROW(magnetics::compile_scenario(bad_motion, 1e-5),
                 std::invalid_argument);

    magnetics::Scenario bad_anomaly;
    bad_anomaly.anomaly(0.5, -0.1, 1.0, 0.0);
    EXPECT_THROW(magnetics::compile_scenario(bad_anomaly, 1e-5),
                 std::invalid_argument);

    magnetics::Scenario bad_temp;
    bad_temp.temperature(1.0, 25.0).temperature(1.0, 30.0);  // not increasing
    EXPECT_THROW(magnetics::compile_scenario(bad_temp, 1e-5),
                 std::invalid_argument);
}

TEST(ScenarioCompile, HeadingRampIsExactOnTheTickGrid) {
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.initial_heading_deg = 10.0;
    scn.hold(100 * dt).turn(90.0, 200 * dt).hold(50 * dt);
    const auto src = magnetics::compile_scenario(scn, dt);

    EXPECT_DOUBLE_EQ(src->true_heading_deg(0), 10.0);
    EXPECT_DOUBLE_EQ(src->true_heading_deg(99), 10.0);
    // One tick into the ramp: exactly rate * dt past the hold heading.
    EXPECT_DOUBLE_EQ(src->true_heading_deg(101), 10.0 + 90.0 * dt);
    // Ramp end heading accumulates on the tick grid, and the final hold
    // freezes it.
    const double end = 10.0 + 90.0 * dt * 200.0;
    EXPECT_DOUBLE_EQ(src->true_heading_deg(300), end);
    EXPECT_DOUBLE_EQ(src->true_heading_deg(350), end);
    EXPECT_DOUBLE_EQ(src->true_heading_deg(100000), end);
    EXPECT_EQ(src->motion_end_tick(), 350u);
}

TEST(ScenarioCompile, TrueHeadingWrapsInto0To360) {
    const double dt = 1e-3;
    magnetics::Scenario scn;
    scn.initial_heading_deg = 350.0;
    scn.turn(1000.0, 100 * dt);  // +100 degrees over the programme
    const auto src = magnetics::compile_scenario(scn, dt);
    for (std::uint64_t t = 0; t <= 110; t += 5) {
        const double h = src->true_heading_deg(t);
        EXPECT_GE(h, 0.0);
        EXPECT_LT(h, 360.0);
    }
    EXPECT_NEAR(src->true_heading_deg(100), 90.0, 1e-9);
}

// ------------------------------------------------------------- field_at

TEST(ScenarioFieldAt, AnomalyAppliesInsideItsWindowOnly) {
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.initial_heading_deg = 30.0;
    scn.hold(400 * dt);
    scn.anomaly(100 * dt, 100 * dt, 2.5, -1.0);
    const auto src = magnetics::compile_scenario(scn, dt);

    const magnetics::HorizontalField clean = kField.at_heading(30.0);
    const magnetics::FieldTick before = src->field_at(99);
    EXPECT_DOUBLE_EQ(before.hx_a_per_m, clean.hx_a_per_m);
    EXPECT_DOUBLE_EQ(before.hy_a_per_m, clean.hy_a_per_m);
    const magnetics::FieldTick inside = src->field_at(150);
    EXPECT_DOUBLE_EQ(inside.hx_a_per_m, clean.hx_a_per_m + 2.5);
    EXPECT_DOUBLE_EQ(inside.hy_a_per_m, clean.hy_a_per_m - 1.0);
    const magnetics::FieldTick after = src->field_at(200);
    EXPECT_DOUBLE_EQ(after.hx_a_per_m, clean.hx_a_per_m);
    EXPECT_DOUBLE_EQ(after.hy_a_per_m, clean.hy_a_per_m);
}

TEST(ScenarioFieldAt, BurstOscillatesAndStopsAtWindowEnd) {
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.hold(400 * dt);
    scn.burst(100 * dt, 100 * dt, 3.0, 250.0);
    const auto src = magnetics::compile_scenario(scn, dt);

    const magnetics::HorizontalField clean = kField.at_heading(0.0);
    // Phase 0 at the window start: sin(0) = 0.
    EXPECT_DOUBLE_EQ(src->field_at(100).hx_a_per_m, clean.hx_a_per_m);
    // A quarter period (10 ticks at 250 Hz / 1e-4 s) later: full swing.
    EXPECT_NEAR(src->field_at(110).hx_a_per_m, clean.hx_a_per_m + 3.0, 1e-9);
    // The burst rides on both axes and varies tick to tick inside.
    EXPECT_NE(src->field_at(111).hy_a_per_m, src->field_at(112).hy_a_per_m);
    // Outside the window the clean field is back.
    EXPECT_DOUBLE_EQ(src->field_at(200).hx_a_per_m, clean.hx_a_per_m);
    EXPECT_DOUBLE_EQ(src->field_at(200).hy_a_per_m, clean.hy_a_per_m);
}

TEST(ScenarioFieldAt, IronDistortionIsAnAffineMap) {
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.initial_heading_deg = 75.0;
    scn.hold(10 * dt);
    scn.hard_iron(1.5, -0.75).soft_iron(1.02, 0.01, -0.02, 0.97);
    const auto src = magnetics::compile_scenario(scn, dt);

    const magnetics::HorizontalField h = kField.at_heading(75.0);
    const magnetics::FieldTick tick = src->field_at(3);
    EXPECT_DOUBLE_EQ(tick.hx_a_per_m,
                     1.02 * h.hx_a_per_m + 0.01 * h.hy_a_per_m + 1.5);
    EXPECT_DOUBLE_EQ(tick.hy_a_per_m,
                     -0.02 * h.hx_a_per_m + 0.97 * h.hy_a_per_m - 0.75);
}

TEST(ScenarioFieldAt, TemperatureInterpolatesBetweenPoints) {
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.hold(10 * dt);
    scn.temperature(0.0, 20.0).temperature(100 * dt, 60.0);
    const auto src = magnetics::compile_scenario(scn, dt);
    EXPECT_DOUBLE_EQ(src->field_at(0).temp_c, 20.0);
    EXPECT_DOUBLE_EQ(src->field_at(50).temp_c, 40.0);
    EXPECT_DOUBLE_EQ(src->field_at(100).temp_c, 60.0);
    // Clamped constant outside the programme.
    EXPECT_DOUBLE_EQ(src->field_at(100000).temp_c, 60.0);
}

// -------------------------------------------------------- constant_until

TEST(ScenarioConstantUntil, ConstantSourceAnswersForever) {
    const magnetics::ConstantFieldSource src(12.0, -3.0, 31.0);
    magnetics::FieldTick tick;
    EXPECT_EQ(src.constant_until(0, &tick), magnetics::FieldSource::kForever);
    EXPECT_DOUBLE_EQ(tick.hx_a_per_m, 12.0);
    EXPECT_DOUBLE_EQ(tick.hy_a_per_m, -3.0);
    EXPECT_DOUBLE_EQ(tick.temp_c, 31.0);
    EXPECT_EQ(src.constant_until(1u << 20, nullptr),
              magnetics::FieldSource::kForever);
}

TEST(ScenarioConstantUntil, StaticScenarioIsConstantAfterItsLastBoundary) {
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.hold(100 * dt);
    const auto src = magnetics::compile_scenario(scn, dt);
    // Past every boundary the field can never change again.
    EXPECT_EQ(src->constant_until(100, nullptr), magnetics::FieldSource::kForever);
}

TEST(ScenarioConstantUntil, TemperatureRampVariesFromItsFirstTick) {
    // Regression: the first tick of an interpolating temperature segment
    // is already varying (field_at(1) != field_at(0)); constant_until(0)
    // claiming a long run here once made the block engine hold the
    // initial temperature across the whole ramp.
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.hold(10 * dt);
    scn.temperature(0.0, 25.0).temperature(100 * dt, 60.0);
    const auto src = magnetics::compile_scenario(scn, dt);
    EXPECT_EQ(src->constant_until(0, nullptr), 1u);
    EXPECT_NE(src->field_at(1).temp_c, src->field_at(0).temp_c);
}

TEST(ScenarioConstantUntil, RunsAreActuallyConstant) {
    // Property over a feature-dense scenario: within every run
    // constant_until reports, field_at must be bit-identical to the
    // run's first tick. (The converse — maximality — is not required
    // for correctness; boundaries may be degenerate.)
    const double dt = 1e-4;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.initial_heading_deg = 200.0;
    scn.hold(50 * dt).turn(-300.0, 100 * dt).hold(150 * dt);
    scn.anomaly(30 * dt, 60 * dt, 1.0, 0.5);
    scn.burst(170 * dt, 60 * dt, 2.0, 400.0);
    scn.temperature(0.0, 25.0).temperature(250 * dt, -10.0);
    const auto src = magnetics::compile_scenario(scn, dt);

    const std::uint64_t kEnd = 320;
    std::uint64_t t = 0;
    while (t < kEnd) {
        magnetics::FieldTick run_tick;
        const std::uint64_t end = src->constant_until(t, &run_tick);
        ASSERT_GT(end, t);
        const magnetics::FieldTick at_t = src->field_at(t);
        EXPECT_EQ(run_tick.hx_a_per_m, at_t.hx_a_per_m);
        EXPECT_EQ(run_tick.hy_a_per_m, at_t.hy_a_per_m);
        EXPECT_EQ(run_tick.temp_c, at_t.temp_c);
        const std::uint64_t stop = std::min(end, kEnd);
        for (std::uint64_t u = t + 1; u < stop; ++u) {
            const magnetics::FieldTick tick = src->field_at(u);
            ASSERT_EQ(tick.hx_a_per_m, run_tick.hx_a_per_m) << "tick " << u;
            ASSERT_EQ(tick.hy_a_per_m, run_tick.hy_a_per_m) << "tick " << u;
            ASSERT_EQ(tick.temp_c, run_tick.temp_c) << "tick " << u;
        }
        t = stop;
    }
}

// -------------------------------------------------------- seam identity

TEST(ScenarioSeam, SetAxisFieldsIsSugarForAConstantSource) {
    compass::Compass sugar(fast_config());
    compass::Compass explicit_src(fast_config());
    sugar.set_axis_fields(14.0, -9.0);
    explicit_src.set_field_source(magnetics::make_constant_field(14.0, -9.0));
    EXPECT_NE(sugar.front_end().field_source(), nullptr);
    for (int rep = 0; rep < 2; ++rep) {
        expect_equal_measurements(sugar.measure(), explicit_src.measure());
    }
}

TEST(ScenarioSeam, ConstantSourceMatchesTheDirectFieldPath) {
    // The pre-seam plumbing: no source attached, axis fields written
    // straight into the sensors. Must stay bit-identical to the
    // ConstantFieldSource path on repeated measurements.
    const magnetics::HorizontalField h = kField.at_heading(123.0);
    compass::Compass with_source(fast_config());
    with_source.set_environment(kField, 123.0);
    compass::Compass direct(fast_config());
    direct.set_field_source(nullptr);
    direct.front_end().set_field(analog::Channel::X, h.hx_a_per_m);
    direct.front_end().set_field(analog::Channel::Y, h.hy_a_per_m);
    for (int rep = 0; rep < 3; ++rep) {
        expect_equal_measurements(with_source.measure(), direct.measure());
    }
}

// ------------------------------------------------- cross-engine identity

TEST(ScenarioEngines, ScalarBlockAndLanesAgreeAcrossTicks) {
    compass::CompassConfig cfg = fast_config();
    add_tempcos(cfg);

    compass::Compass scalar(cfg);
    cfg.engine = sim::EngineKind::Block;
    compass::Compass block(cfg);
    compass::Compass lanes(cfg);

    const double dt = compass::compile_plan(cfg).dt_s;
    const std::uint64_t tick_steps = compass::compile_plan(cfg).total_steps();
    const double total_s = static_cast<double>(3 * tick_steps) * dt;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.initial_heading_deg = 77.0;
    scn.hold(0.2 * total_s).turn(5000.0, 0.5 * total_s).hold(0.3 * total_s);
    scn.anomaly(0.1 * total_s, 0.4 * total_s, -2.0, 1.0);
    scn.burst(0.5 * total_s, 0.4 * total_s, 1.5, 2.0 / (100.0 * dt));
    scn.temperature(0.0, 25.0).temperature(total_s, 55.0);
    const auto src = magnetics::compile_scenario(scn, dt);

    scalar.set_field_source(src);
    block.set_field_source(src);
    lanes.set_field_source(src);
    // The temperature ramps on every sample, so no advance of more than
    // one sample is plain: the batch's lane takes its own engine
    // throughout.
    double energy_j = 0.0;
    const sim::LanePort port{&lanes.front_end(), nullptr, &energy_j};
    ASSERT_TRUE(sim::LaneEngine::plain(port, analog::Channel::X, 1, dt));
    ASSERT_FALSE(sim::LaneEngine::plain(port, analog::Channel::X, 2, dt));

    for (int t = 0; t < 3; ++t) {
        SCOPED_TRACE(t);
        const compass::Measurement ms = scalar.measure();
        const compass::Measurement mb = block.measure();
        expect_equal_measurements(ms, mb);

        compass::Compass* lane_ptrs[1] = {&lanes};
        compass::LaneOutcome outcome[1];
        compass::PlanExecutor::run_lanes(lanes.plan(), lane_ptrs, outcome);
        ASSERT_FALSE(outcome[0].aborted) << outcome[0].error;
        expect_equal_measurements(ms, outcome[0].measurement);
        // All three playheads advanced in lockstep.
        EXPECT_EQ(scalar.front_end().save_window_state().sample_index,
                  lanes.front_end().save_window_state().sample_index);
    }
}

TEST(ScenarioEngines, LaneBatchWithDistinctScenariosMatchesPerMember) {
    // Five lanes, each with its own compiled scenario (different start
    // headings and turn rates), batched through the SoA engine against
    // five per-member scalar references.
    compass::CompassConfig cfg = fast_config(sim::EngineKind::Block);
    add_tempcos(cfg);
    const compass::MeasurementPlan plan = compass::compile_plan(cfg);
    const double total_s =
        static_cast<double>(2 * plan.total_steps()) * plan.dt_s;

    constexpr int kN = 5;
    std::vector<std::unique_ptr<compass::Compass>> batch;
    std::vector<std::unique_ptr<compass::Compass>> reference;
    for (int i = 0; i < kN; ++i) {
        magnetics::Scenario scn;
        scn.field = kField;
        scn.initial_heading_deg = 30.0 + 63.0 * i;
        scn.turn(1000.0 * (i - 2), total_s);
        scn.temperature(0.0, 25.0).temperature(total_s, 25.0 + 7.0 * i);
        const auto src = magnetics::compile_scenario(scn, plan.dt_s);
        batch.push_back(std::make_unique<compass::Compass>(cfg));
        reference.push_back(std::make_unique<compass::Compass>(cfg));
        batch.back()->set_field_source(src);
        reference.back()->set_field_source(src);
    }

    for (int t = 0; t < 2; ++t) {
        SCOPED_TRACE(t);
        std::vector<compass::Compass*> lanes;
        for (auto& c : batch) lanes.push_back(c.get());
        std::vector<compass::LaneOutcome> outcomes(kN);
        compass::PlanExecutor::run_lanes(plan, lanes, outcomes);
        for (int i = 0; i < kN; ++i) {
            SCOPED_TRACE(i);
            ASSERT_FALSE(outcomes[static_cast<std::size_t>(i)].aborted);
            expect_equal_measurements(
                reference[static_cast<std::size_t>(i)]->measure(),
                outcomes[static_cast<std::size_t>(i)].measurement);
        }
    }
}

// ---------------------------------------------------- sensor temperature

TEST(ScenarioSensor, TemperatureFreeSensorIgnoresSetTemperature) {
    sensor::FluxgateParams params;  // all tempcos zero
    sensor::FluxgateSensor hot(params);
    sensor::FluxgateSensor cold(hot);
    hot.set_temperature(85.0);
    EXPECT_FALSE(hot.temperature_sensitive());
    EXPECT_EQ(hot.effective_field_per_amp(), params.field_per_amp());
    const double dt = 1e-6;
    for (int k = 0; k < 32; ++k) {
        EXPECT_EQ(hot.step(0.005, dt), cold.step(0.005, dt));
    }
}

// -------------------------------------------- temperature compensation

TEST(ScenarioTempCal, FitNormalisesGainAtTref) {
    compass::CompassConfig cfg = fast_config();
    cfg.steps_per_period = 128;
    cfg.periods_per_axis = 4;
    add_tempcos(cfg);
    compass::Compass comp(cfg);
    const compass::TempCompensation fit = compass::fit_temp_compensation(
        comp, kField, {-20.0, 0.0, 25.0, 40.0, 60.0});
    ASSERT_TRUE(fit.enabled());
    EXPECT_DOUBLE_EQ(fit.gain_at(25.0), 1.0);
    EXPECT_TRUE(comp.calibration().temp.enabled());
}

TEST(ScenarioTempCal, FitValidates) {
    compass::Compass comp(fast_config());
    EXPECT_THROW(
        compass::fit_temp_compensation(comp, kField, {0.0, 25.0, 50.0}, 0),
        std::invalid_argument);
    EXPECT_THROW(compass::fit_temp_compensation(comp, kField, {0.0, 25.0}, 2),
                 std::invalid_argument);
}

TEST(ScenarioTempCal, CompensationShrinksHeadingErrorAcrossSweep) {
    // ISSUE acceptance: across a -20..60 degC sweep, the fitted
    // polynomial compensation must demonstrably shrink the heading
    // error the x/y sensitivity mismatch causes.
    // Full default analogue resolution (2048 steps/period): at coarser
    // sampling the pulse edges land on a grid whose quantisation
    // plateaus dominate the count-vs-temperature response and no smooth
    // gain polynomial can track it. The compensation corrects x/y
    // sensitivity-ratio drift, so that mismatch is the drift source.
    compass::CompassConfig cfg;
    cfg.engine = sim::EngineKind::Scalar;
    cfg.front_end.sensor.sens_temp_coeff_per_c = 2.0e-4;
    cfg.front_end.sensor_temp_mismatch_per_c = 6.0e-4;

    const std::vector<double> sweep = {-20.0, 0.0, 25.0, 40.0, 60.0};
    const std::vector<double> headings = {30.0, 110.0, 200.0, 310.0};

    auto max_error_deg = [&](compass::Compass& comp) {
        double worst = 0.0;
        for (const double t : sweep) {
            for (const double h : headings) {
                const magnetics::HorizontalField f = kField.at_heading(h);
                comp.set_field_source(
                    std::make_shared<magnetics::ConstantFieldSource>(
                        f.hx_a_per_m, f.hy_a_per_m, t));
                const double got = comp.measure().heading_float_deg;
                worst = std::max(worst, util::angular_abs_diff_deg(got, h));
            }
        }
        return worst;
    };

    compass::Compass uncompensated(cfg);
    const double raw = max_error_deg(uncompensated);

    compass::Compass compensated(cfg);
    compass::fit_temp_compensation(compensated, kField, sweep);
    const double fixed = max_error_deg(compensated);

    EXPECT_GT(raw, 0.15) << "mismatch too small for the check to mean anything";
    EXPECT_LT(fixed, 0.5 * raw)
        << "compensation did not shrink the error (raw " << raw << " deg, "
        << "compensated " << fixed << " deg)";
}

TEST(ScenarioTempCal, DisabledCompensationIsBitIdentical) {
    // An empty coefficient vector must leave the historic count path
    // untouched bit for bit.
    compass::CompassConfig cfg = fast_config();
    compass::Compass plain(cfg);
    compass::Compass with_empty(cfg);
    compass::CountCalibration cal = with_empty.calibration();
    cal.temp = compass::TempCompensation{};  // t_ref set, no coefficients
    with_empty.set_calibration(cal);
    plain.set_environment(kField, 141.0);
    with_empty.set_environment(kField, 141.0);
    for (int rep = 0; rep < 2; ++rep) {
        expect_equal_measurements(plain.measure(), with_empty.measure());
    }
}

// ------------------------------------------------- fleet / concurrency

TEST(ScenarioFleet, SharedCompiledScenarioAcrossWorkerThreads) {
    // One immutable compiled scenario, sampled concurrently by every
    // member from pool workers (both the lane-batched Auto path and the
    // per-member path). Results must be bit-identical to a serial fleet
    // — this is the TSan probe for the FieldSource seam.
    compass::CompassConfig cfg = fast_config(sim::EngineKind::Block);
    add_tempcos(cfg);
    constexpr int kMembers = 8;

    compass::CompassFleet threaded(kMembers, cfg);
    compass::CompassFleet serial(kMembers, cfg);
    const compass::MeasurementPlan& plan = threaded.plan();
    const double total_s =
        static_cast<double>(2 * plan.total_steps()) * plan.dt_s;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.initial_heading_deg = 220.0;
    scn.turn(-4000.0, total_s);
    scn.temperature(0.0, 25.0).temperature(total_s, 50.0);
    const auto src = magnetics::compile_scenario(scn, plan.dt_s);
    threaded.set_field_source(src);
    serial.set_field_source(src);
    serial.set_execution(compass::FleetExecution::PerMember);

    for (int batch = 0; batch < 2; ++batch) {
        SCOPED_TRACE(batch);
        const std::vector<compass::Measurement> a = threaded.measure_all(4);
        const std::vector<compass::Measurement> b = serial.measure_all(1);
        ASSERT_EQ(a.size(), b.size());
        for (int i = 0; i < kMembers; ++i) {
            SCOPED_TRACE(i);
            expect_equal_measurements(a[static_cast<std::size_t>(i)],
                                      b[static_cast<std::size_t>(i)]);
        }
    }
}
