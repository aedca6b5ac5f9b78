// Fault subsystem: declarative injection (FaultInjector), physics-based
// detection (HealthMonitor), and the supervised degradation ladder
// (MeasurementSupervisor). The monitor must catch every modelled fault
// class at representative magnitudes while a healthy heading sweep
// raises zero findings, and an armed injector must keep the engines
// bit-identical (the seams only ever transform the per-sample streams).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "digital/counter.hpp"
#include "fault/fault_injector.hpp"
#include "fault/health_monitor.hpp"
#include "fault/supervisor.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "snapshot/state.hpp"
#include "util/angle.hpp"

namespace fxg {
namespace {

using fault::FaultClass;
using fault::FaultCode;
using fault::FaultSpec;
using fault::Persistence;

// Mid-latitude site of the paper's design team: 48 uT at 67 deg dip,
// horizontal ~18.8 uT (~14.9 A/m).
magnetics::EarthField site() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

// Lighter than the design point so the campaign stays fast; detection
// physics is unchanged (full scale just shrinks with N).
compass::CompassConfig lite_config(sim::EngineKind engine = sim::EngineKind::Block) {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 1024;
    cfg.periods_per_axis = 4;
    cfg.engine = engine;
    return cfg;
}

// Samples one measurement consumes under lite_config: two axes of
// (settle + count) periods.
constexpr std::uint64_t kSamplesPerMeasurement = 2 * (1 + 4) * 1024;

// Site-aware monitor: the horizontal window narrowed to what this site
// can plausibly produce.
fault::HealthMonitorConfig site_monitor() {
    fault::HealthMonitorConfig cfg;
    cfg.min_horizontal_ut = 10.0;
    cfg.max_horizontal_ut = 30.0;
    return cfg;
}

fault::HealthReport check_with_fault(const FaultSpec& spec, double heading,
                                     sim::EngineKind engine = sim::EngineKind::Block) {
    compass::Compass compass(lite_config(engine));
    compass.set_environment(site(), heading);
    fault::FaultInjector injector;
    injector.add(spec);
    injector.arm(compass);
    const compass::Measurement m = compass.measure();
    fault::HealthMonitor monitor(site_monitor());
    return monitor.check(compass, m);
}

// --- Counter hardware model ------------------------------------------

TEST(CounterHardware, ValidatesGeometry) {
    digital::UpDownCounter counter(1.0e6);
    EXPECT_THROW(counter.set_hardware({.width_bits = 1}), std::invalid_argument);
    EXPECT_THROW(counter.set_hardware({.width_bits = 63}), std::invalid_argument);
    EXPECT_THROW(counter.set_hardware({.width_bits = 8, .stuck_bit = 8}),
                 std::invalid_argument);
    EXPECT_NO_THROW(counter.set_hardware({.width_bits = 8, .stuck_bit = 7}));
    EXPECT_NO_THROW(counter.set_hardware({}));
}

TEST(CounterHardware, WrapsTwosComplementWithStickyFlag) {
    digital::UpDownCounter counter(1.0e6);
    counter.set_hardware({.width_bits = 4});  // range [-8, 7]
    for (int i = 0; i < 7; ++i) counter.step(true, 1.0e-6);
    EXPECT_EQ(counter.count(), 7);
    EXPECT_FALSE(counter.overflowed());
    counter.step(true, 1.0e-6);  // 8 wraps to -8
    EXPECT_EQ(counter.count(), -8);
    EXPECT_TRUE(counter.overflowed());
    // clear() (per-axis window) keeps the sticky flag; reset() drops it.
    counter.clear();
    EXPECT_TRUE(counter.overflowed());
    counter.reset();
    EXPECT_FALSE(counter.overflowed());
}

TEST(CounterHardware, TrapLatchesPendingAndServicesAtWindowEnd) {
    digital::UpDownCounter counter(1.0e6);
    counter.set_hardware({.width_bits = 4, .trap_on_overflow = true});
    for (int i = 0; i < 7; ++i) counter.step(true, 1.0e-6);
    EXPECT_FALSE(counter.trap_pending());
    // The wrapping tick latches the trap but never throws mid-window:
    // the register keeps counting modulo 2^w.
    EXPECT_NO_THROW(counter.step(true, 1.0e-6));
    EXPECT_EQ(counter.count(), -8);
    EXPECT_TRUE(counter.overflowed());
    EXPECT_TRUE(counter.trap_pending());
    EXPECT_NO_THROW(counter.step(true, 1.0e-6));
    EXPECT_EQ(counter.count(), -7);
    // service_trap() raises once, clears pending, keeps the sticky flag.
    EXPECT_THROW(counter.service_trap(), std::overflow_error);
    EXPECT_FALSE(counter.trap_pending());
    EXPECT_TRUE(counter.overflowed());
    EXPECT_NO_THROW(counter.service_trap());
}

TEST(CounterHardware, WrapsAtBothRegisterExtremes) {
    // Down-counting through the most-negative register value must wrap
    // to the most-positive one (two's complement), set the sticky flag,
    // and involve no undefined arithmetic — the mirror image of the
    // positive-edge wrap above.
    digital::UpDownCounter counter(1.0e6);
    counter.set_hardware({.width_bits = 4});  // range [-8, 7]
    for (int i = 0; i < 8; ++i) counter.step(false, 1.0e-6);
    EXPECT_EQ(counter.count(), -8);
    EXPECT_FALSE(counter.overflowed());
    counter.step(false, 1.0e-6);  // -9 wraps to +7
    EXPECT_EQ(counter.count(), 7);
    EXPECT_TRUE(counter.overflowed());
    // And straight back across the positive edge in the same run.
    counter.step(true, 1.0e-6);  // 8 wraps to -8
    EXPECT_EQ(counter.count(), -8);
    EXPECT_TRUE(counter.overflowed());
}

TEST(CounterHardware, StuckBitForcesRegisterBit) {
    digital::UpDownCounter counter(1.0e6);
    counter.set_hardware({.stuck_bit = 2, .stuck_high = true});
    counter.step(true, 1.0e-6);  // 1 tick -> count 1 | 0b100 = 5
    EXPECT_EQ(counter.count(), 5);
}

TEST(CounterHardware, UnboundedDefaultUnchanged) {
    digital::UpDownCounter counter(1.0e6);
    for (int i = 0; i < 100; ++i) counter.step(true, 1.0e-6);
    EXPECT_EQ(counter.count(), 100);
    EXPECT_FALSE(counter.overflowed());
}

// --- Healthy operation: zero false positives -------------------------

TEST(HealthMonitor, HealthySweepRaisesNoFindings) {
    for (const auto engine : {sim::EngineKind::Scalar, sim::EngineKind::Block}) {
        compass::CompassConfig cfg = lite_config(engine);
        cfg.front_end.pickup_noise_rms_v = 0.25e-3;  // realistic pickup noise
        compass::Compass compass(cfg);
        fault::HealthMonitor monitor(site_monitor());
        for (int heading = 0; heading < 360; heading += 15) {
            compass.set_environment(site(), heading);
            const compass::Measurement m = compass.measure();
            const fault::HealthReport report = monitor.check(compass, m);
            EXPECT_TRUE(report.ok) << "heading " << heading << " engine "
                                   << sim::to_string(engine) << ": "
                                   << report.summary();
        }
    }
}

// --- Detection of every fault class ----------------------------------

TEST(HealthMonitor, DetectsDetectorStuck) {
    for (const auto cls : {FaultClass::DetectorStuckLow, FaultClass::DetectorStuckHigh}) {
        const auto report = check_with_fault({.fault = cls}, 30.0);
        EXPECT_FALSE(report.ok);
        EXPECT_TRUE(report.has(FaultCode::DetectorSilent)) << report.summary();
        EXPECT_TRUE(report.has(FaultCode::CountOutOfBounds)) << report.summary();
        EXPECT_TRUE(report.implicates(analog::Channel::X));
        EXPECT_FALSE(report.implicates(analog::Channel::Y));
    }
}

TEST(HealthMonitor, DetectsPickupOpen) {
    const auto report =
        check_with_fault({.fault = FaultClass::PickupOpen, .channel = analog::Channel::Y},
                         200.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::DetectorSilent)) << report.summary();
    EXPECT_TRUE(report.implicates(analog::Channel::Y));
}

TEST(HealthMonitor, DetectsNoiseBurst) {
    const auto report = check_with_fault(
        {.fault = FaultClass::NoiseBurst, .magnitude = 0.2, .seed = 99}, 120.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::EdgeRateHigh)) << report.summary();
}

TEST(HealthMonitor, DetectsComparatorOffsetDrift) {
    // 120 mV of drift puts the threshold beyond the pickup pulse peak:
    // the comparators never fire again.
    const auto report = check_with_fault(
        {.fault = FaultClass::ComparatorOffsetDrift, .magnitude = 0.12}, 75.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::DetectorSilent)) << report.summary();
}

TEST(HealthMonitor, DetectsOscillatorFrequencyDrift) {
    const auto report = check_with_fault(
        {.fault = FaultClass::OscFrequencyDrift, .magnitude = 1.4}, 10.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::EdgeRateHigh)) << report.summary();
}

TEST(HealthMonitor, DetectsOscillatorAmplitudeDrift) {
    // Severe drift (0.2x) stops the core saturating: no pulses, counts
    // rail at full scale — caught by several checks at once.
    const auto report = check_with_fault(
        {.fault = FaultClass::OscAmplitudeDrift, .magnitude = 0.2}, 45.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::DetectorSilent)) << report.summary();
    EXPECT_TRUE(report.has(FaultCode::CountOutOfBounds)) << report.summary();
}

TEST(HealthMonitor, ModerateAmplitudeDriftIsMaskedByRatiometricArctan) {
    // Down to roughly 0.4x the compass still *works*: both axes scale
    // identically, the arctan of their ratio cancels the drift (the
    // same insensitivity the paper claims for field magnitude), and the
    // pulse positions stay healthy. The monitor must NOT cry wolf over
    // a fault the architecture genuinely tolerates — and the heading
    // must in fact still be right.
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 135.0);
    fault::FaultInjector injector;
    injector.add({.fault = FaultClass::OscAmplitudeDrift, .magnitude = 0.5});
    injector.arm(compass);
    const compass::Measurement m = compass.measure();
    fault::HealthMonitor monitor(site_monitor());
    const auto report = monitor.check(compass, m);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_LT(util::angular_abs_diff_deg(m.heading_deg, 135.0), 1.0);
}

TEST(HealthMonitor, DetectsOscillatorDcDrift) {
    // 3 mA of drifted offset with a stuck correction loop shifts both
    // axes by 40 A/m — far outside the plausible field window.
    const auto report = check_with_fault(
        {.fault = FaultClass::OscDcOffsetDrift, .magnitude = 3.0e-3}, 300.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::FieldHigh) ||
                report.has(FaultCode::CountOutOfBounds) ||
                report.has(FaultCode::DutyOutOfRange))
        << report.summary();
}

TEST(HealthMonitor, DetectsExcitationCollapse) {
    const auto report =
        check_with_fault({.fault = FaultClass::ExcitationCollapse}, 220.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::DetectorSilent)) << report.summary();
    EXPECT_TRUE(report.implicates(analog::Channel::X));
    EXPECT_TRUE(report.implicates(analog::Channel::Y));
}

TEST(HealthMonitor, DetectsMuxStuck) {
    // Mux latched on X starves the Y channel of valid samples.
    const auto report = check_with_fault(
        {.fault = FaultClass::MuxStuck, .channel = analog::Channel::X}, 140.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::ChannelNeverValid)) << report.summary();
    EXPECT_TRUE(report.implicates(analog::Channel::Y));
}

TEST(HealthMonitor, DetectsCounterStuckBit) {
    const auto report = check_with_fault(
        {.fault = FaultClass::CounterStuckBit, .bit = 20, .bit_high = true}, 250.0);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::CountOutOfBounds)) << report.summary();
}

TEST(HealthMonitor, DetectsHeadingJumpWhenStationary) {
    compass::Compass compass(lite_config());
    fault::HealthMonitorConfig cfg = site_monitor();
    cfg.stationary = true;
    fault::HealthMonitor monitor(cfg);
    compass.set_environment(site(), 80.0);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(monitor.check(compass, compass.measure()).ok);
    }
    // A stationary mount cannot physically swing 90 deg between samples.
    compass.set_environment(site(), 170.0);
    const auto report = monitor.check(compass, compass.measure());
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.has(FaultCode::HeadingJump)) << report.summary();
}

TEST(HealthMonitor, HeadingJumpIsCircularAcrossTheSeam) {
    // Regression: the jump watchdog must use circular distance — a
    // 359 -> 3 transition is a 4-degree step, not a 356-degree one, and
    // must NOT trip a 30-degree threshold.
    compass::Compass compass(lite_config());
    fault::HealthMonitorConfig cfg = site_monitor();
    cfg.stationary = true;
    fault::HealthMonitor monitor(cfg);
    compass.set_environment(site(), 359.0);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(monitor.check(compass, compass.measure()).ok);
    }
    compass.set_environment(site(), 3.0);
    const auto seam = monitor.check(compass, compass.measure());
    EXPECT_TRUE(seam.ok) << seam.summary();
    // The watchdog is still armed: a genuine jump across the seam fires.
    compass.set_environment(site(), 120.0);
    const auto jump = monitor.check(compass, compass.measure());
    EXPECT_FALSE(jump.ok);
    EXPECT_TRUE(jump.has(FaultCode::HeadingJump)) << jump.summary();
}

TEST(HealthMonitor, ValidatesHeadingJumpThreshold) {
    // Circular distance never exceeds 180, so a larger threshold (or a
    // non-positive one) would silently disable the stationary watchdog.
    fault::HealthMonitorConfig cfg = site_monitor();
    cfg.stationary = true;
    cfg.max_heading_jump_deg = 0.0;
    EXPECT_THROW(fault::HealthMonitor{cfg}, std::invalid_argument);
    cfg.max_heading_jump_deg = 200.0;
    EXPECT_THROW(fault::HealthMonitor{cfg}, std::invalid_argument);
    cfg.max_heading_jump_deg = 180.0;
    EXPECT_NO_THROW(fault::HealthMonitor{cfg});
    // Non-stationary monitors never read the threshold; any value is fine.
    cfg.stationary = false;
    cfg.max_heading_jump_deg = 0.0;
    EXPECT_NO_THROW(fault::HealthMonitor{cfg});
}

// --- Injector mechanics ----------------------------------------------

TEST(FaultInjector, ValidatesSchedule) {
    fault::FaultInjector injector;
    EXPECT_THROW(injector.add({.fault = FaultClass::MuxStuck,
                               .persistence = Persistence::Transient}),
                 std::invalid_argument);
    EXPECT_THROW(injector.add({.fault = FaultClass::NoiseBurst, .magnitude = 1.5}),
                 std::invalid_argument);
    EXPECT_THROW(injector.add({.fault = FaultClass::NoiseBurst,
                               .persistence = Persistence::Intermittent,
                               .magnitude = 0.1,
                               .duration_samples = 10,
                               .period_samples = 0}),
                 std::invalid_argument);

    compass::Compass compass(lite_config());
    injector.add({.fault = FaultClass::DetectorStuckLow});
    injector.arm(compass);
    EXPECT_TRUE(injector.armed());
    EXPECT_THROW(injector.add({.fault = FaultClass::DetectorStuckLow}),
                 std::logic_error);
    EXPECT_THROW(injector.arm(compass), std::logic_error);
    injector.disarm();
    EXPECT_FALSE(injector.armed());
}

TEST(FaultInjector, DisarmRestoresHealthyBitIdentical) {
    compass::Compass reference(lite_config());
    compass::Compass faulted(lite_config());
    reference.set_environment(site(), 123.0);
    faulted.set_environment(site(), 123.0);

    fault::FaultInjector injector;
    injector.add({.fault = FaultClass::OscFrequencyDrift, .magnitude = 1.3});
    injector.add({.fault = FaultClass::ComparatorOffsetDrift, .magnitude = 0.05});
    injector.add({.fault = FaultClass::MuxStuck, .channel = analog::Channel::X});
    injector.add({.fault = FaultClass::CounterStuckBit, .bit = 5});
    injector.add({.fault = FaultClass::NoiseBurst, .magnitude = 0.3});
    injector.arm(faulted);
    static_cast<void>(faulted.measure());
    injector.disarm();
    // A disarmed compass must be indistinguishable from one that was
    // never armed (the analogue state advanced, so re-excite both).
    faulted.re_excite();
    reference.re_excite();
    const compass::Measurement a = reference.measure();
    const compass::Measurement b = faulted.measure();
    EXPECT_EQ(a.count_x, b.count_x);
    EXPECT_EQ(a.count_y, b.count_y);
    EXPECT_EQ(a.heading_deg, b.heading_deg);
}

// Scalar and block engines must stay bit-identical with faults armed:
// stream faults are per-sample transforms behind the engines, and
// parametric faults reconfigure stages both engines share.
TEST(FaultInjector, EnginesBitIdenticalUnderActiveFaults) {
    auto build = [](sim::EngineKind engine) {
        compass::CompassConfig cfg = lite_config(engine);
        cfg.front_end.pickup_noise_rms_v = 0.25e-3;
        return cfg;
    };
    compass::Compass scalar(build(sim::EngineKind::Scalar));
    compass::Compass block(build(sim::EngineKind::Block));

    auto schedule = [](fault::FaultInjector& injector) {
        injector.add({.fault = FaultClass::NoiseBurst,
                      .persistence = Persistence::Intermittent,
                      .magnitude = 0.1,
                      .duration_samples = 700,
                      .period_samples = 3000,
                      .seed = 7});
        injector.add({.fault = FaultClass::DetectorStuckHigh,
                      .persistence = Persistence::Transient,
                      .channel = analog::Channel::Y,
                      .start_sample = 2000,
                      .duration_samples = 1500});
        injector.add({.fault = FaultClass::OscFrequencyDrift, .magnitude = 1.15});
        injector.add({.fault = FaultClass::CounterStuckBit, .bit = 3});
    };
    fault::FaultInjector inj_scalar;
    fault::FaultInjector inj_block;
    schedule(inj_scalar);
    schedule(inj_block);
    inj_scalar.arm(scalar);
    inj_block.arm(block);

    for (const double heading : {15.0, 150.0, 285.0}) {
        scalar.set_environment(site(), heading);
        block.set_environment(site(), heading);
        const compass::Measurement ms = scalar.measure();
        const compass::Measurement mb = block.measure();
        EXPECT_EQ(ms.count_x, mb.count_x) << "heading " << heading;
        EXPECT_EQ(ms.count_y, mb.count_y) << "heading " << heading;
        EXPECT_EQ(ms.heading_deg, mb.heading_deg) << "heading " << heading;
        EXPECT_EQ(ms.energy_j, mb.energy_j) << "heading " << heading;
        for (const auto ch : {analog::Channel::X, analog::Channel::Y}) {
            const auto& ss = scalar.front_end().stream_stats(ch);
            const auto& sb = block.front_end().stream_stats(ch);
            EXPECT_EQ(ss.valid_samples, sb.valid_samples);
            EXPECT_EQ(ss.high_samples, sb.high_samples);
            EXPECT_EQ(ss.edges, sb.edges);
        }
    }
}

// --- Supervisor ladder -----------------------------------------------

TEST(Supervisor, HealthyMeasurementIsOk) {
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 274.0);
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    const auto result = supervisor.measure();
    EXPECT_EQ(result.status, fault::SupervisedStatus::Ok);
    EXPECT_EQ(result.attempts, 1);
    EXPECT_FALSE(result.stale);
    EXPECT_TRUE(supervisor.last_good().has_value());
}

TEST(Supervisor, TransientFaultRecoversOnRetry) {
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 60.0);
    fault::FaultInjector injector;
    // Stuck detector for exactly the first measurement's samples: gone
    // by the time the supervisor re-excites and retries.
    injector.add({.fault = FaultClass::DetectorStuckLow,
                  .persistence = Persistence::Transient,
                  .duration_samples = kSamplesPerMeasurement});
    injector.arm(compass);

    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    const auto result = supervisor.measure();
    EXPECT_EQ(result.status, fault::SupervisedStatus::RecoveredRetry);
    EXPECT_EQ(result.attempts, 2);
    EXPECT_TRUE(result.health.ok);
}

TEST(Supervisor, SingleAxisFaultDegradesToEstimate) {
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 200.0);
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    ASSERT_EQ(supervisor.measure().status, fault::SupervisedStatus::Ok);

    fault::FaultInjector injector;
    injector.add({.fault = FaultClass::DetectorStuckLow, .channel = analog::Channel::Y});
    injector.arm(compass);
    const auto result = supervisor.measure();
    EXPECT_EQ(result.status, fault::SupervisedStatus::DegradedSingleAxis);
    EXPECT_FALSE(result.stale);
    // The healthy X axis plus the remembered field magnitude pins the
    // heading to a few degrees.
    EXPECT_LT(util::angular_abs_diff_deg(result.heading_deg, 200.0), 5.0)
        << "estimated " << result.heading_deg;
}

TEST(Supervisor, AmbiguousSingleAxisGeometryHoldsInsteadOfGuessing) {
    // Regression: last good heading 90 deg, field now along x (the
    // surviving Y count is ~0). The two reconstruction candidates are
    // ~0 and ~180 deg — both ~90 deg from the track, so the branch
    // choice would be decided by noise and the loser is 180 deg off.
    // The supervisor must refuse the estimate and hold instead of
    // publishing a coin-flip heading.
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 90.0);
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    const auto good = supervisor.measure();
    ASSERT_EQ(good.status, fault::SupervisedStatus::Ok);

    compass.set_environment(site(), 0.0);
    fault::FaultInjector injector;
    injector.add({.fault = FaultClass::DetectorStuckLow, .channel = analog::Channel::X});
    injector.arm(compass);
    const auto result = supervisor.measure();
    EXPECT_EQ(result.status, fault::SupervisedStatus::HoldLastGood)
        << result.diagnostics;
    EXPECT_TRUE(result.stale);
    EXPECT_EQ(result.heading_deg, good.heading_deg);
}

TEST(Supervisor, UnambiguousSingleAxisGeometryStillDegrades) {
    // Control for the ambiguity guard: with the track well away from
    // the mirror axis the same X fault must still yield a live
    // single-axis estimate, not a hold.
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 340.0);
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    ASSERT_EQ(supervisor.measure().status, fault::SupervisedStatus::Ok);

    fault::FaultInjector injector;
    injector.add({.fault = FaultClass::DetectorStuckLow, .channel = analog::Channel::X});
    injector.arm(compass);
    const auto result = supervisor.measure();
    EXPECT_EQ(result.status, fault::SupervisedStatus::DegradedSingleAxis)
        << result.diagnostics;
    EXPECT_LT(util::angular_abs_diff_deg(result.heading_deg, 340.0), 5.0)
        << "estimated " << result.heading_deg;
}

TEST(Supervisor, TotalFaultHoldsLastGoodThenStale) {
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 310.0);
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    const auto good = supervisor.measure();
    ASSERT_EQ(good.status, fault::SupervisedStatus::Ok);

    fault::FaultInjector injector;
    injector.add({.fault = FaultClass::ExcitationCollapse});
    injector.arm(compass);
    const auto held = supervisor.measure();
    EXPECT_EQ(held.status, fault::SupervisedStatus::HoldLastGood);
    EXPECT_TRUE(held.stale);
    EXPECT_EQ(held.heading_deg, good.heading_deg);
    EXPECT_GT(held.staleness_s, 0.0);
}

TEST(Supervisor, NoHistoryAndTotalFaultFails) {
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 310.0);
    fault::FaultInjector injector;
    injector.add({.fault = FaultClass::ExcitationCollapse});
    injector.arm(compass);
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    const auto result = supervisor.measure();
    EXPECT_EQ(result.status, fault::SupervisedStatus::Failed);
    EXPECT_EQ(result.attempts, 1 + cfg.max_retries);
    EXPECT_FALSE(result.diagnostics.empty());
}

TEST(Supervisor, CounterTrapBecomesMeasurementAborted) {
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 45.0);
    // An 8-bit trapping register cannot hold the ~400-count swing.
    compass.counter().set_hardware(
        {.width_bits = 8, .trap_on_overflow = true});
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    const auto result = supervisor.measure();
    EXPECT_EQ(result.status, fault::SupervisedStatus::Failed);
    EXPECT_TRUE(result.health.has(FaultCode::MeasurementAborted))
        << result.diagnostics;
}

TEST(Supervisor, CallersFirstAttemptMatchesMeasure) {
    // measure(first) continues the ladder from an attempt 0 the caller
    // ran (one plain plan execution plus the supervisor's own health
    // check, what compassd takes from its lane sweep). On twin compasses
    // with the same dead detector it must serve what measure() serves
    // and leave compass and ladder in the same state, bit for bit.
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    compass::Compass a(lite_config());
    compass::Compass b(lite_config());
    a.set_environment(site(), 340.0);
    b.set_environment(site(), 340.0);
    fault::MeasurementSupervisor sa(a, cfg);
    fault::MeasurementSupervisor sb(b, cfg);
    ASSERT_EQ(sa.measure().status, fault::SupervisedStatus::Ok);
    ASSERT_EQ(sb.measure().status, fault::SupervisedStatus::Ok);

    fault::FaultInjector ia;
    fault::FaultInjector ib;
    for (fault::FaultInjector* inj : {&ia, &ib}) {
        inj->add({.fault = FaultClass::DetectorStuckLow, .channel = analog::Channel::X});
    }
    ia.arm(a);
    ib.arm(b);

    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (int round = 0; round < 2; ++round) {
        const fault::SupervisedMeasurement ra = sa.measure();

        fault::FirstAttempt first;
        first.measurement = compass::PlanExecutor(b).run(b.plan());
        first.health = sb.monitor().check(b, first.measurement);
        ASSERT_FALSE(first.health.ok);
        const fault::SupervisedMeasurement rb = sb.measure(first);

        EXPECT_EQ(ra.status, fault::SupervisedStatus::DegradedSingleAxis);
        EXPECT_EQ(rb.status, ra.status) << "round " << round;
        EXPECT_EQ(rb.attempts, ra.attempts);
        EXPECT_EQ(rb.stale, ra.stale);
        EXPECT_EQ(bits(rb.staleness_s), bits(ra.staleness_s));
        EXPECT_EQ(bits(rb.heading_deg), bits(ra.heading_deg));
        EXPECT_EQ(rb.measurement.count_x, ra.measurement.count_x);
        EXPECT_EQ(rb.measurement.count_y, ra.measurement.count_y);
        EXPECT_EQ(rb.diagnostics, ra.diagnostics);
        EXPECT_EQ(bits(sb.staleness_s()), bits(sa.staleness_s()));
        EXPECT_EQ(snapshot::snapshot_compass(b, {.injector = &ib}),
                  snapshot::snapshot_compass(a, {.injector = &ia}))
            << "round " << round;
    }
}

TEST(Supervisor, ThrownFirstAttemptAbortsAndFiresPostmortem) {
    // The caller's attempt 0 threw (a trapping counter register): the
    // ladder records a MeasurementAborted finding, retries, and the
    // on_abort trigger fires although the retry recovered.
    compass::Compass compass(lite_config());
    compass.set_environment(site(), 45.0);
    fault::SupervisorConfig cfg;
    cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, cfg);
    int fired = 0;
    supervisor.set_postmortem_hook(
        [&fired](const fault::SupervisedMeasurement&) { ++fired; },
        {.min_rung = fault::SupervisedStatus::Failed, .on_abort = true});

    compass.counter().set_hardware({.width_bits = 8, .trap_on_overflow = true});
    fault::FirstAttempt first;
    try {
        static_cast<void>(compass::PlanExecutor(compass).run(compass.plan()));
    } catch (const std::exception& e) {
        first.error = e.what();
    }
    ASSERT_TRUE(first.error.has_value()) << "the 8-bit trap did not fire";
    compass.counter().set_hardware({});  // the retry's register is sound

    const fault::SupervisedMeasurement result = supervisor.measure(first);
    EXPECT_EQ(result.status, fault::SupervisedStatus::RecoveredRetry)
        << result.diagnostics;
    EXPECT_EQ(result.attempts, 2);
    EXPECT_NE(result.diagnostics.find("MeasurementAborted"), std::string::npos)
        << result.diagnostics;
    EXPECT_NE(result.diagnostics.find(*first.error), std::string::npos);
    EXPECT_EQ(fired, 1);
}

// --- Fleet partial-failure isolation ---------------------------------

TEST(CompassFleet, MemberFailureIsIsolated) {
    compass::CompassConfig cfg = lite_config();
    constexpr int kFleet = 4;
    compass::CompassFleet fleet(kFleet, cfg);
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 90.0 + 10.0);
    fleet.set_environments(site(), headings);
    // Member 2's counter register traps: its measure() throws mid-batch.
    fleet.at(2).counter().set_hardware({.width_bits = 8, .trap_on_overflow = true});

    const auto results = fleet.measure_all_results(4);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kFleet));
    for (int i = 0; i < kFleet; ++i) {
        if (i == 2) {
            EXPECT_FALSE(results[2].ok);
            EXPECT_FALSE(results[2].error.empty());
        } else {
            EXPECT_TRUE(results[static_cast<std::size_t>(i)].ok) << "member " << i;
        }
    }
    // Healthy members must match an all-healthy fleet bit-for-bit.
    compass::CompassFleet clean(kFleet, cfg);
    clean.set_environments(site(), headings);
    const auto clean_results = clean.measure_all(1);
    for (const int i : {0, 1, 3}) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].measurement.heading_deg,
                  clean_results[static_cast<std::size_t>(i)].heading_deg);
    }

    // The convenience API still throws (after every member ran).
    fleet.at(2).re_excite();
    EXPECT_THROW(static_cast<void>(fleet.measure_all(2)), std::overflow_error);
}

}  // namespace
}  // namespace fxg
