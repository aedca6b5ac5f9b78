// Tests for the analogue front-end blocks: triangle oscillator (incl.
// the paper's dc-offset correction loop), V-I converter compliance
// (the 800 ohm / 5 V claim), comparators, the pulse-position detector
// semantics, the multiplexer and the composed FrontEnd with its power
// model, and FrontEnd::step_block(n) against n step() calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analog/detector.hpp"
#include "analog/front_end.hpp"
#include "analog/mux.hpp"
#include "analog/oscillator.hpp"
#include "analog/vi_converter.hpp"

namespace fxg::analog {
namespace {

// -------------------------------------------------------------oscillator

TEST(Oscillator, FrequencyAndAmplitude) {
    TriangleOscillator osc;
    const double dt = 1.0 / 8000.0 / 1024;
    double vmax = -1.0;
    double vmin = 1.0;
    int sign_changes = 0;
    double prev = 0.0;
    for (int i = 0; i < 8 * 1024; ++i) {
        const double v = osc.step(dt);
        vmax = std::max(vmax, v);
        vmin = std::min(vmin, v);
        if (i > 0 && (v > 0) != (prev > 0)) ++sign_changes;
        prev = v;
    }
    EXPECT_NEAR(vmax, 6e-3, 1e-5);
    EXPECT_NEAR(vmin, -6e-3, 1e-5);
    EXPECT_EQ(sign_changes, 16);  // 2 zero crossings per period, 8 periods
}

TEST(Oscillator, OffsetCorrectionLoopConverges) {
    TriangleOscillatorConfig cfg;
    cfg.dc_offset_a = 0.5e-3;  // sizeable offset error
    cfg.offset_correction = true;
    TriangleOscillator osc(cfg);
    const double dt = 1.0 / 8000.0 / 512;
    // Let the loop settle over 30 periods, then measure the mean.
    for (int i = 0; i < 30 * 512; ++i) osc.step(dt);
    double sum = 0.0;
    for (int i = 0; i < 8 * 512; ++i) sum += osc.step(dt);
    EXPECT_NEAR(sum / (8 * 512), 0.0, 10e-6);  // offset suppressed >50x
    EXPECT_NEAR(osc.correction(), -0.5e-3, 30e-6);
}

TEST(Oscillator, WithoutCorrectionOffsetRemains) {
    TriangleOscillatorConfig cfg;
    cfg.dc_offset_a = 0.5e-3;
    cfg.offset_correction = false;
    TriangleOscillator osc(cfg);
    const double dt = 1.0 / 8000.0 / 512;
    for (int i = 0; i < 10 * 512; ++i) osc.step(dt);
    double sum = 0.0;
    for (int i = 0; i < 8 * 512; ++i) sum += osc.step(dt);
    EXPECT_NEAR(sum / (8 * 512), 0.5e-3, 20e-6);
}

TEST(Oscillator, CurvatureKeepsZeroMean) {
    // "Linearity is not very essential": the bowing term must distort
    // the ramps without introducing a dc component.
    TriangleOscillatorConfig cfg;
    cfg.curvature = 0.2;
    cfg.offset_correction = false;
    TriangleOscillator osc(cfg);
    const double dt = 1.0 / 8000.0 / 1024;
    double sum = 0.0;
    for (int i = 0; i < 8 * 1024; ++i) sum += osc.step(dt);
    EXPECT_NEAR(sum / (8 * 1024), 0.0, 5e-6);
}

TEST(Oscillator, Validates) {
    TriangleOscillatorConfig cfg;
    cfg.amplitude_a = 0.0;
    EXPECT_THROW(TriangleOscillator{cfg}, std::invalid_argument);
    cfg = {};
    cfg.correction_gain = 1.5;
    EXPECT_THROW(TriangleOscillator{cfg}, std::invalid_argument);
    TriangleOscillator ok;
    EXPECT_THROW(ok.step(0.0), std::invalid_argument);
}

// Amplitude/frequency property: the oscillator hits its configured
// extremes and period for any setting.
class OscillatorSweep : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(OscillatorSweep, AmplitudeAndPeriodHold) {
    const auto [amplitude, freq] = GetParam();
    TriangleOscillatorConfig cfg;
    cfg.amplitude_a = amplitude;
    cfg.frequency_hz = freq;
    TriangleOscillator osc(cfg);
    const double dt = 1.0 / freq / 512;
    double vmax = -1e9;
    double vmin = 1e9;
    double sum = 0.0;
    const int steps = 4 * 512;
    for (int i = 0; i < steps; ++i) {
        const double v = osc.step(dt);
        vmax = std::max(vmax, v);
        vmin = std::min(vmin, v);
        sum += v;
    }
    EXPECT_NEAR(vmax, amplitude, amplitude * 0.01);
    EXPECT_NEAR(vmin, -amplitude, amplitude * 0.01);
    EXPECT_NEAR(sum / steps, 0.0, amplitude * 0.01);
    EXPECT_NEAR(osc.time(), 4.0 / freq, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Settings, OscillatorSweep,
                         ::testing::Values(std::make_pair(6e-3, 8e3),
                                           std::make_pair(3e-3, 8e3),
                                           std::make_pair(12e-3, 4e3),
                                           std::make_pair(1e-3, 32e3)));

// ------------------------------------------------ oscillator block path
//
// TriangleOscillator::step_block takes the rotation when the phase and
// the phase step are multiples of 2^-52, and the per-sample loop when
// they are not; both must match step() bit for bit. A dc offset and
// curvature make the correction move every period and the shaping run.

constexpr double kDefaultDt = (1.0 / 8000.0) / 2048;  // step 2^-11 at 8 kHz

TriangleOscillatorConfig moving_correction() {
    TriangleOscillatorConfig cfg;
    cfg.dc_offset_a = 0.4e-3;
    cfg.curvature = 0.15;
    return cfg;
}

/// Advances `blocked` by step_block in blocks of `block` and `stepped`
/// by step(), `total` samples, comparing every output and the state.
void expect_blocks_match_steps(TriangleOscillator& blocked, TriangleOscillator& stepped,
                               double dt, int block, int total) {
    std::vector<double> out(static_cast<std::size_t>(block));
    for (int done = 0; done < total;) {
        const int n = std::min(block, total - done);
        blocked.step_block(dt, n, out.data());
        for (int k = 0; k < n; ++k) {
            const double o = stepped.step(dt);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out[static_cast<std::size_t>(k)]),
                      std::bit_cast<std::uint64_t>(o))
                << "sample " << done + k;
        }
        done += n;
    }
    const TriangleOscillator::State b = blocked.save_state();
    const TriangleOscillator::State s = stepped.save_state();
    for (const auto field : {&TriangleOscillator::State::time_s, &TriangleOscillator::State::phase,
                             &TriangleOscillator::State::output,
                             &TriangleOscillator::State::correction_a,
                             &TriangleOscillator::State::period_integral,
                             &TriangleOscillator::State::period_time}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b.*field), std::bit_cast<std::uint64_t>(s.*field));
    }
}

TEST(OscillatorBlock, RotationMatchesStepAtEveryBlockSize) {
    for (const int block : {1, 7, 63, 64, 65, 2047, 2048, 4096}) {
        SCOPED_TRACE("block " + std::to_string(block));
        TriangleOscillator blocked(moving_correction()), stepped(moving_correction());
        ASSERT_TRUE(blocked.rotates(kDefaultDt));
        expect_blocks_match_steps(blocked, stepped, kDefaultDt, block, 5 * 2048 + 3);
        // Five wraps moved the correction.
        EXPECT_NE(blocked.correction(), 0.0);
    }
}

TEST(OscillatorBlock, WrapsOnABlocksFirstAndLastSample) {
    // From phase 1 - 2^-11 the first sample wraps, and every 2,048th
    // after it: 2,048-sample blocks wrap on their first sample, and the
    // first 2,049-sample block on its last.
    for (const int block : {1, 2048, 2049}) {
        SCOPED_TRACE("block " + std::to_string(block));
        TriangleOscillator blocked(moving_correction()), stepped(moving_correction());
        TriangleOscillator::State st;
        st.phase = 1.0 - 0x1p-11;
        st.correction_a = -0.2e-3;
        blocked.load_state(st);
        stepped.load_state(st);
        expect_blocks_match_steps(blocked, stepped, kDefaultDt, block, 4 * 2049);
    }
}

TEST(OscillatorBlock, RestoredMidPeriodStateMatchesStep) {
    // A restored state on the grid (the rotation) and off it (the loop),
    // mid-period with an integral and a correction under way.
    for (const double phase : {1234 * 0x1p-11 + 77 * 0x1p-52, 0.3}) {
        SCOPED_TRACE("phase " + std::to_string(phase));
        TriangleOscillator blocked(moving_correction()), stepped(moving_correction());
        const TriangleOscillator::State st{0.125, phase, 1.0e-3, -0.1e-3, 3.0e-8, 7.7e-5};
        blocked.load_state(st);
        stepped.load_state(st);
        EXPECT_EQ(blocked.rotates(kDefaultDt), phase != 0.3);
        expect_blocks_match_steps(blocked, stepped, kDefaultDt, 2048, 3 * 2048);
    }
}

TEST(OscillatorBlock, OffGridStepsTakeTheLoop) {
    // A drifting-oscillator fault and a period of 1,000 samples put the
    // phase step off the 2^-52 grid; the block path runs its loop.
    TriangleOscillator blocked(moving_correction()), stepped(moving_correction());
    OscillatorFault fault;
    fault.frequency_scale = 1.03;
    blocked.set_fault(fault);
    stepped.set_fault(fault);
    ASSERT_FALSE(blocked.rotates(kDefaultDt));
    expect_blocks_match_steps(blocked, stepped, kDefaultDt, 2048, 4 * 2048);

    TriangleOscillator blocked1000(moving_correction()), stepped1000(moving_correction());
    const double dt1000 = (1.0 / 8000.0) / 1000;
    ASSERT_FALSE(blocked1000.rotates(dt1000));
    expect_blocks_match_steps(blocked1000, stepped1000, dt1000, 1000, 4 * 1000 + 17);
}

TEST(MuxBlock, SettledRunsMatchStep) {
    // The settled part of a block takes util::repeated_add for its
    // elapsed time: blocks that settle inside, ones that start settled,
    // long settled runs and a step off any grid.
    for (const double dt : {kDefaultDt, 1.0e-7 / 3}) {
        for (const int block : {1, 63, 64, 65, 2048, 5000}) {
            SCOPED_TRACE("dt " + std::to_string(dt) + " block " + std::to_string(block));
            AnalogMux blocked(50.0e-6), stepped(50.0e-6);
            blocked.select(Channel::Y);
            stepped.select(Channel::Y);
            std::vector<std::uint64_t> words(static_cast<std::size_t>((block + 63) / 64));
            for (int done = 0; done < 40'000; done += block) {
                blocked.step_block(dt, block, words.data());
                for (int k = 0; k < block; ++k) {
                    const bool settled = stepped.step(dt);
                    ASSERT_EQ((words[static_cast<std::size_t>(k / 64)] >> (k % 64)) & 1,
                              settled ? 1u : 0u)
                        << "sample " << done + k;
                }
                ASSERT_EQ(std::bit_cast<std::uint64_t>(blocked.save_state().since_switch_s),
                          std::bit_cast<std::uint64_t>(stepped.save_state().since_switch_s));
            }
        }
    }
}

// ---------------------------------------------------------- VI converter

TEST(ViConverter, PaperComplianceClaim) {
    // "With the supply voltage at 5 Volt, sensors with a resistance as
    // high as 800 ohm can be driven" (at the 6 mA peak excitation).
    ViConverter vi;
    EXPECT_GE(vi.max_drivable_resistance(6e-3), 800.0);
    // At 800 ohm the full 6 mA still flows undistorted.
    EXPECT_NEAR(vi.drive(6e-3, 800.0), 6e-3, 1e-9);
}

TEST(ViConverter, ClipsAboveCompliance) {
    ViConverter vi;
    const double limit = vi.compliance_limit(1600.0);
    EXPECT_LT(limit, 6e-3);
    EXPECT_DOUBLE_EQ(vi.drive(6e-3, 1600.0), limit);
    EXPECT_DOUBLE_EQ(vi.drive(-6e-3, 1600.0), -limit);
}

TEST(ViConverter, SingleEndedHasHalfSwing) {
    ViConverterConfig cfg;
    cfg.balanced_differential = false;
    ViConverter single(cfg);
    ViConverter balanced;
    EXPECT_NEAR(single.max_drivable_resistance(6e-3),
                balanced.max_drivable_resistance(6e-3) / 2.0, 1e-9);
}

TEST(ViConverter, SensorResistanceLinearises) {
    ViConverterConfig cfg;
    cfg.nonlinearity = 0.05;
    ViConverter vi(cfg);
    // Cubic error at full scale, normalised: bigger load -> smaller error.
    const double err_low_r = std::fabs(vi.drive(6e-3, 1.0) - 6e-3);
    const double err_sensor = std::fabs(vi.drive(6e-3, 770.0) - 6e-3);
    EXPECT_LT(err_sensor, err_low_r / 1.8);
}

TEST(ViConverter, Validates) {
    ViConverterConfig cfg;
    cfg.headroom_v = 3.0;  // 2x headroom exceeds the 5 V supply
    EXPECT_THROW(ViConverter{cfg}, std::invalid_argument);
    ViConverter ok;
    EXPECT_THROW((void)ok.drive(1e-3, 0.0), std::invalid_argument);
    EXPECT_THROW((void)ok.max_drivable_resistance(0.0), std::invalid_argument);
}

// ------------------------------------------------------------ comparator
//
// The detector's two comparators are its latch bits: the positive one is
// fed v and the negative one -v, so each sees the same input sequence
// when the other's is sign-flipped.

/// Steps a fresh detector built from `cfg` with sign * v for each v,
/// and returns after each step the latch bit that saw v.
std::vector<bool> latch_trace(const DetectorConfig& cfg, double sign,
                              const std::vector<double>& inputs,
                              double offset_fault_v = 0.0) {
    PulsePositionDetector det(cfg);
    det.set_comparator_offset_fault(offset_fault_v);
    std::vector<bool> out;
    for (const double v : inputs) {
        static_cast<void>(det.step(sign * v));
        const PulsePositionDetector::State s = det.save_state();
        out.push_back(sign > 0.0 ? s.positive : s.negative);
    }
    return out;
}

TEST(Comparator, ThresholdAndHysteresis) {
    DetectorConfig cfg;
    cfg.threshold_v = 1.0;
    cfg.comparator_hysteresis_v = 0.2;
    for (const double sign : {1.0, -1.0}) {
        SCOPED_TRACE(sign > 0.0 ? "positive latch" : "negative latch");
        const std::vector<bool> q = latch_trace(cfg, sign, {1.05, 1.15, 0.95, 0.85});
        EXPECT_FALSE(q[0]);  // below the rising threshold (1.1)
        EXPECT_TRUE(q[1]);
        EXPECT_TRUE(q[2]);   // above the falling threshold (0.9)
        EXPECT_FALSE(q[3]);
    }
}

TEST(Comparator, OffsetShiftsThreshold) {
    DetectorConfig cfg;
    cfg.threshold_v = 1.0;
    cfg.comparator_offset_v = 0.3;
    cfg.comparator_hysteresis_v = 0.0;
    for (const double sign : {1.0, -1.0}) {
        SCOPED_TRACE(sign > 0.0 ? "positive latch" : "negative latch");
        const std::vector<bool> q = latch_trace(cfg, sign, {1.2, 1.4});
        EXPECT_FALSE(q[0]);  // 1.2 - 0.3 < 1.0
        EXPECT_TRUE(q[1]);
        // An offset fault adds to the configured offset.
        const std::vector<bool> f = latch_trace(cfg, sign, {1.4, 1.6}, 0.2);
        EXPECT_FALSE(f[0]);  // 1.4 - (0.3 + 0.2) < 1.0
        EXPECT_TRUE(f[1]);
    }
}

// -------------------------------------------------------------- detector

TEST(Detector, PaperSemantics) {
    // Output 1 after the falling edge of the positive pulse, 0 after the
    // rising edge of the negative pulse (paper section 3.2).
    DetectorConfig cfg;
    cfg.threshold_v = 0.5;
    cfg.comparator_hysteresis_v = 0.0;
    PulsePositionDetector det(cfg);
    EXPECT_FALSE(det.step(0.0));
    EXPECT_FALSE(det.step(1.0));   // inside the positive pulse
    EXPECT_TRUE(det.step(0.0));    // positive pulse ended -> set
    EXPECT_TRUE(det.step(-1.0));   // inside the negative pulse: still set
    EXPECT_FALSE(det.step(0.0));   // negative pulse ended -> cleared
    EXPECT_FALSE(det.step(0.2));
}

TEST(Detector, IgnoresSubThresholdWiggle) {
    DetectorConfig cfg;
    cfg.threshold_v = 0.5;
    PulsePositionDetector det(cfg);
    for (double v : {0.1, 0.4, -0.3, 0.45, -0.45}) EXPECT_FALSE(det.step(v));
}

TEST(Detector, DutyOnSyntheticTrain) {
    DetectorConfig cfg;
    cfg.threshold_v = 0.5;
    PulsePositionDetector det(cfg);
    // Period 100 samples: positive pulse ends at 20, negative at 70 ->
    // duty 0.5.
    int high = 0;
    const int periods = 10;
    for (int p = 0; p < periods; ++p) {
        for (int i = 0; i < 100; ++i) {
            double v = 0.0;
            if (i >= 10 && i < 20) v = 1.0;
            if (i >= 60 && i < 70) v = -1.0;
            if (det.step(v) && p > 0) ++high;  // skip warmup period
        }
    }
    EXPECT_NEAR(static_cast<double>(high) / (100 * (periods - 1)), 0.5, 0.02);
}

// ------------------------------------------------------------------- mux

TEST(Mux, SettlingBehaviour) {
    AnalogMux mux(50e-6);
    EXPECT_EQ(mux.selected(), Channel::X);
    mux.step(60e-6);
    EXPECT_TRUE(mux.settled());
    mux.select(Channel::Y);
    EXPECT_FALSE(mux.settled());
    mux.step(30e-6);
    EXPECT_FALSE(mux.settled());
    mux.step(30e-6);
    EXPECT_TRUE(mux.settled());
    // Re-selecting the same channel does not restart the timer.
    mux.select(Channel::Y);
    EXPECT_TRUE(mux.settled());
}

// -------------------------------------------------------------- frontend

TEST(FrontEnd, MultiplexedProducesDetectorActivity) {
    FrontEnd fe;
    fe.set_field(Channel::X, 15.0);
    const double dt = 125e-6 / 2048;
    int transitions = 0;
    bool prev = false;
    for (int i = 0; i < 4 * 2048; ++i) {
        const FrontEndSample s = fe.step(dt);
        if (s.detector[0] != prev) ++transitions;
        prev = s.detector[0];
    }
    EXPECT_GE(transitions, 6);  // toggles once per half excitation period
}

// Unvalidated, a NaN rms counts a silent 225-degree heading and a
// negative one turns noise off on the scalar path but not on the lane
// path, whose noise test is rms != 0. Both fail at construction, like
// the other stages' configuration checks.
TEST(FrontEnd, RejectsNonFiniteOrNegativeNoiseConfig) {
    for (const double rms : {std::nan(""), -1e-3, std::numeric_limits<double>::infinity()}) {
        FrontEndConfig cfg;
        cfg.pickup_noise_rms_v = rms;
        EXPECT_THROW(FrontEnd{cfg}, std::invalid_argument) << "rms " << rms;
    }
    for (const double bw : {0.0, -1e3, std::nan(""), std::numeric_limits<double>::infinity()}) {
        FrontEndConfig cfg;
        cfg.pickup_noise_rms_v = 0.25e-3;
        cfg.pickup_noise_bandwidth_hz = bw;
        EXPECT_THROW(FrontEnd{cfg}, std::invalid_argument) << "bandwidth " << bw;
    }
    FrontEndConfig quiet;
    EXPECT_NO_THROW(FrontEnd{quiet});
    FrontEndConfig noisy;
    noisy.pickup_noise_rms_v = 0.25e-3;
    EXPECT_NO_THROW(FrontEnd{noisy});
}

// A detector config that is not a comparator fails closed: with
// negative hysteresis one sample can cross both thresholds, and the
// latch would toggle every sample.
struct BadDetector {
    const char* name;
    double threshold_v, offset_v, hysteresis_v;
};

// ctest names each case after gtest's print of its parameter. Without a
// printer gtest prints the struct's raw bytes, name pointer included,
// and that address moves with every process's layout.
void PrintTo(const BadDetector& d, std::ostream* os) { *os << d.name; }

class FrontEndRejectsDetector : public ::testing::TestWithParam<BadDetector> {};

TEST_P(FrontEndRejectsDetector, Throws) {
    FrontEndConfig cfg;
    cfg.detector.threshold_v = GetParam().threshold_v;
    cfg.detector.comparator_offset_v = GetParam().offset_v;
    cfg.detector.comparator_hysteresis_v = GetParam().hysteresis_v;
    EXPECT_THROW(FrontEnd{cfg}, std::invalid_argument);
    EXPECT_THROW(PulsePositionDetector{cfg.detector}, std::invalid_argument);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

INSTANTIATE_TEST_SUITE_P(
    BadValues, FrontEndRejectsDetector,
    ::testing::Values(BadDetector{"NegativeHysteresis", 20e-3, 0.0, -1e-3},
                      BadDetector{"NaNHysteresis", 20e-3, 0.0, kNaN},
                      BadDetector{"InfiniteHysteresis", 20e-3, 0.0, kInf},
                      BadDetector{"NaNThreshold", kNaN, 0.0, 2e-3},
                      BadDetector{"InfiniteThreshold", -kInf, 0.0, 2e-3},
                      BadDetector{"NaNOffset", 20e-3, kNaN, 2e-3},
                      BadDetector{"InfiniteOffset", 20e-3, kInf, 2e-3}),
    [](const ::testing::TestParamInfo<BadDetector>& info) { return info.param.name; });

TEST(FrontEnd, AcceptsZeroHysteresis) {
    FrontEndConfig cfg;
    cfg.detector.comparator_hysteresis_v = 0.0;
    FrontEnd fe(cfg);
    fe.set_field(Channel::X, 15.0);
    FrontEndBlock block;
    fe.step_block(125e-6 / 2048, 4096, block);
    EXPECT_GT(fe.stream_stats(Channel::X).edges, 0u);
}

TEST(FrontEnd, PowerGatingDropsToLeakage) {
    FrontEndConfig cfg;
    FrontEnd fe(cfg);
    fe.enable(false);
    const FrontEndSample s = fe.step(1e-6);
    EXPECT_NEAR(s.power_w, cfg.leakage_a * cfg.supply_v, 1e-9);
    fe.enable(true);
    const FrontEndSample on = fe.step(1e-6);
    EXPECT_GT(on.power_w, 20.0 * s.power_w);
}

TEST(FrontEnd, SimultaneousModeUsesTwoOscillators) {
    FrontEndConfig multiplexed;
    FrontEndConfig simultaneous;
    simultaneous.mode = FrontEndMode::Simultaneous;
    FrontEnd fe_mux(multiplexed);
    FrontEnd fe_sim(simultaneous);
    EXPECT_EQ(fe_mux.oscillator_count(), 1);
    EXPECT_EQ(fe_sim.oscillator_count(), 2);
    // Momentary power at the same excitation current is higher when
    // everything is duplicated (the paper's argument for multiplexing).
    EXPECT_GT(fe_sim.momentary_power_w(6e-3), 1.5 * fe_mux.momentary_power_w(6e-3));
}

TEST(FrontEnd, SimultaneousModeServesBothChannels) {
    FrontEndConfig cfg;
    cfg.mode = FrontEndMode::Simultaneous;
    FrontEnd fe(cfg);
    const FrontEndSample s = fe.step(1e-6);
    EXPECT_TRUE(s.valid[0]);
    EXPECT_TRUE(s.valid[1]);
}

TEST(FrontEnd, StreamStatsSnapshotSurvivesWindowReset) {
    FrontEnd fe;
    fe.set_field(Channel::X, 15.0);
    const double dt = 125e-6 / 2048;
    for (int i = 0; i < 4 * 2048; ++i) fe.step(dt);

    const StreamStats& live = fe.stream_stats(Channel::X);
    EXPECT_EQ(live.samples, 4u * 2048u);
    EXPECT_GT(live.valid_samples, 0u);
    EXPECT_GT(live.edges, 0u);
    EXPECT_GT(live.duty(), 0.0);
    EXPECT_LT(live.duty(), 1.0);
    // pulse_shift is duty re-centred on the no-field point.
    EXPECT_DOUBLE_EQ(live.pulse_shift(), live.duty() - 0.5);
    EXPECT_NEAR(live.valid_fraction(),
                static_cast<double>(live.valid_samples) /
                    static_cast<double>(live.samples),
                1e-12);

    // A snapshot is a copy at this instant...
    const StreamStatsSnapshot snap = fe.snapshot();
    EXPECT_EQ(snap[Channel::X].samples, live.samples);
    EXPECT_EQ(snap[Channel::X].high_samples, live.high_samples);
    EXPECT_EQ(snap[Channel::X].edges, live.edges);
    EXPECT_DOUBLE_EQ(snap[Channel::X].duty(), live.duty());

    // ...so it survives the window reset that zeroes the live stats.
    fe.reset_window();
    EXPECT_EQ(fe.stream_stats(Channel::X).samples, 0u);
    EXPECT_EQ(fe.stream_stats(Channel::X).edges, 0u);
    EXPECT_EQ(snap[Channel::X].samples, 4u * 2048u);

    // The reset also clears the edge-detector memory: the first sample
    // of the new window must not pair with the last one of the old, so
    // one step can contribute at most zero edges.
    fe.step(dt);
    EXPECT_EQ(fe.stream_stats(Channel::X).edges, 0u);

    // And a fresh window accumulates the same statistics as the first
    // (the oscillator keeps running, so duty matches to a tolerance).
    for (int i = 1; i < 4 * 2048; ++i) fe.step(dt);
    EXPECT_NEAR(fe.stream_stats(Channel::X).duty(), snap[Channel::X].duty(), 0.02);
}

TEST(FrontEnd, MultiplexedInvalidWhileSettling) {
    FrontEndConfig cfg;
    cfg.mux_settle_s = 50e-6;
    FrontEnd fe(cfg);
    // Run long enough to settle channel X, then switch to Y.
    for (int i = 0; i < 100; ++i) fe.step(1e-6);
    fe.select(Channel::Y);
    const FrontEndSample s = fe.step(1e-6);
    EXPECT_FALSE(s.valid[1]);  // still settling
    for (int i = 0; i < 100; ++i) fe.step(1e-6);
    const FrontEndSample s2 = fe.step(1e-6);
    EXPECT_TRUE(s2.valid[1]);
}


// ------------------------------------------- block stepping vs step()
//
// FrontEnd::step_block(n) must emit the samples and leave every stage
// in the state that n step() calls do, bit for bit. The stages' vector
// loops run util::simd stripes with scalar tails, and the compass's own
// blocks (multiples of 64 samples) never reach the tails, so the sizes
// here straddle the stripe width. A fresh front end also runs the
// sensor's first-step path, where v_excitation = R i.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_oscillator(const TriangleOscillator::State& a,
                            const TriangleOscillator::State& b) {
    EXPECT_EQ(bits(a.time_s), bits(b.time_s));
    EXPECT_EQ(bits(a.phase), bits(b.phase));
    EXPECT_EQ(bits(a.output), bits(b.output));
    EXPECT_EQ(bits(a.correction_a), bits(b.correction_a));
    EXPECT_EQ(bits(a.period_integral), bits(b.period_integral));
    EXPECT_EQ(bits(a.period_time), bits(b.period_time));
}

void expect_same_stages(FrontEnd& a, FrontEnd& b) {
    expect_same_oscillator(a.oscillator().save_state(), b.oscillator().save_state());
    expect_same_oscillator(a.oscillator_y().save_state(), b.oscillator_y().save_state());
    EXPECT_EQ(a.mux().save_state().channel, b.mux().save_state().channel);
    EXPECT_EQ(bits(a.mux().save_state().since_switch_s),
              bits(b.mux().save_state().since_switch_s));
    for (const Channel ch : {Channel::X, Channel::Y}) {
        SCOPED_TRACE(ch == Channel::X ? "channel x" : "channel y");
        const sensor::FluxgateSensor::State sa = a.sensor(ch).save_state();
        const sensor::FluxgateSensor::State sb = b.sensor(ch).save_state();
        EXPECT_EQ(bits(sa.h_core), bits(sb.h_core));
        EXPECT_EQ(bits(sa.b_core), bits(sb.b_core));
        EXPECT_EQ(bits(sa.v_pickup), bits(sb.v_pickup));
        EXPECT_EQ(bits(sa.v_excitation), bits(sb.v_excitation));
        EXPECT_EQ(bits(sa.lambda_pickup_prev), bits(sb.lambda_pickup_prev));
        EXPECT_EQ(bits(sa.lambda_exc_prev), bits(sb.lambda_exc_prev));
        EXPECT_EQ(sa.first_step, sb.first_step);
        const std::vector<double> ca = a.sensor(ch).core().save_state();
        const std::vector<double> cb = b.sensor(ch).core().save_state();
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(bits(ca[i]), bits(cb[i])) << "core state " << i;
        }
        const PulsePositionDetector::State da = a.detector(ch).save_state();
        const PulsePositionDetector::State db = b.detector(ch).save_state();
        EXPECT_EQ(da.positive, db.positive);
        EXPECT_EQ(da.negative, db.negative);
        EXPECT_EQ(da.prev_pos, db.prev_pos);
        EXPECT_EQ(da.prev_neg, db.prev_neg);
        EXPECT_EQ(da.out, db.out);
    }
    const FrontEnd::StreamWindowState wa = a.save_window_state();
    const FrontEnd::StreamWindowState wb = b.save_window_state();
    for (std::size_t ch = 0; ch < 2; ++ch) {
        EXPECT_EQ(wa.stats[ch].samples, wb.stats[ch].samples);
        EXPECT_EQ(wa.stats[ch].valid_samples, wb.stats[ch].valid_samples);
        EXPECT_EQ(wa.stats[ch].high_samples, wb.stats[ch].high_samples);
        EXPECT_EQ(wa.stats[ch].edges, wb.stats[ch].edges);
        EXPECT_EQ(wa.prev[ch], wb.prev[ch]);
        EXPECT_EQ(wa.has_prev[ch], wb.has_prev[ch]);
    }
    EXPECT_EQ(wa.sample_index, wb.sample_index);
    EXPECT_EQ(bits(a.noise_filter_state()), bits(b.noise_filter_state()));
    EXPECT_EQ(a.pickup_noise().rng().engine().counter(),
              b.pickup_noise().rng().engine().counter());
}

struct BlockCase {
    FrontEndMode mode;
    double noise_rms_v;
    sensor::CoreKind core;
};

std::string case_name(const BlockCase& c) {
    std::string name = c.mode == FrontEndMode::Multiplexed ? "Multiplexed" : "Simultaneous";
    name += c.noise_rms_v > 0.0 ? "Noisy" : "Clean";
    name += c.core == sensor::CoreKind::Tanh ? "Tanh" : "JilesAtherton";
    return name;
}

// Named like BadDetector above: gtest's raw-byte print of this struct
// includes padding bytes that differ from build to build.
void PrintTo(const BlockCase& c, std::ostream* os) { *os << case_name(c); }

class StepBlockParity : public ::testing::TestWithParam<BlockCase> {};

TEST_P(StepBlockParity, EveryStageMatchesNSteps) {
    const BlockCase c = GetParam();
    FrontEndConfig cfg;
    cfg.mode = c.mode;
    cfg.pickup_noise_rms_v = c.noise_rms_v;
    cfg.core_kind = c.core;
    const double dt = 125e-6 / 2048;
    // Warmed: mid-period on channel x, then switched to channel y so
    // the block starts inside the mux's settling time.
    const auto prepare = [&](FrontEnd& fe, bool warm) {
        fe.set_field(Channel::X, 20.0);
        fe.set_field(Channel::Y, -12.0);
        if (!warm) return;
        for (int i = 0; i < 1000; ++i) fe.step(dt);
        fe.select(Channel::Y);
        for (int i = 0; i < 200; ++i) fe.step(dt);
    };
    for (const bool warm : {false, true}) {
        for (const int n : {1, 2, 3, 5, 63, 64, 65, 2048}) {
            SCOPED_TRACE(std::string(warm ? "warmed" : "fresh") + ", n = " +
                         std::to_string(n));
            FrontEnd stepped(cfg);
            FrontEnd blocked(cfg);
            prepare(stepped, warm);
            prepare(blocked, warm);

            std::vector<FrontEndSample> samples;
            for (int k = 0; k < n; ++k) samples.push_back(stepped.step(dt));
            FrontEndBlock block;
            blocked.step_block(dt, n, block);
            ASSERT_EQ(block.size(), n);
            // One bit per sample: bit j of word w is sample 64w + j.
            for (std::size_t ch = 0; ch < 2; ++ch) {
                std::vector<std::uint64_t> det((n + 63) / 64), valid((n + 63) / 64);
                for (int k = 0; k < n; ++k) {
                    const FrontEndSample& s = samples[static_cast<std::size_t>(k)];
                    det[static_cast<std::size_t>(k / 64)] |= std::uint64_t{s.detector[ch]}
                                                             << (k % 64);
                    valid[static_cast<std::size_t>(k / 64)] |= std::uint64_t{s.valid[ch]}
                                                               << (k % 64);
                }
                EXPECT_EQ(block.detector[ch], det) << "detector stream " << ch;
                EXPECT_EQ(block.valid[ch], valid) << "valid stream " << ch;
            }
            std::vector<std::uint64_t> power, block_power;
            for (int k = 0; k < n; ++k) {
                power.push_back(bits(samples[static_cast<std::size_t>(k)].power_w));
                block_power.push_back(bits(block.power_w[static_cast<std::size_t>(k)]));
            }
            EXPECT_EQ(block_power, power);
            if (!warm && n == 1) {
                EXPECT_EQ(bits(blocked.sensor(Channel::X).excitation_voltage()),
                          bits(cfg.sensor.r_excitation_ohm * samples[0].i_excitation_a));
            }
            expect_same_stages(stepped, blocked);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesNoiseCores, StepBlockParity,
    ::testing::Values(
        BlockCase{FrontEndMode::Multiplexed, 0.0, sensor::CoreKind::Tanh},
        BlockCase{FrontEndMode::Multiplexed, 2.0e-3, sensor::CoreKind::Tanh},
        BlockCase{FrontEndMode::Simultaneous, 0.0, sensor::CoreKind::Tanh},
        BlockCase{FrontEndMode::Simultaneous, 2.0e-3, sensor::CoreKind::Tanh},
        BlockCase{FrontEndMode::Multiplexed, 0.0, sensor::CoreKind::JilesAtherton},
        BlockCase{FrontEndMode::Multiplexed, 2.0e-3, sensor::CoreKind::JilesAtherton},
        BlockCase{FrontEndMode::Simultaneous, 0.0, sensor::CoreKind::JilesAtherton},
        BlockCase{FrontEndMode::Simultaneous, 2.0e-3, sensor::CoreKind::JilesAtherton}),
    [](const ::testing::TestParamInfo<BlockCase>& info) { return case_name(info.param); });

}  // namespace
}  // namespace fxg::analog
