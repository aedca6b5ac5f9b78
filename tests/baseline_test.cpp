// Tests for the second-harmonic baseline: the SAR ADC model, the
// Goertzel bin and the complete readout — including the physics fact
// the method rests on (no even harmonics without an external field).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "baseline/adc.hpp"
#include "baseline/goertzel.hpp"
#include "baseline/second_harmonic.hpp"

namespace fxg::baseline {
namespace {

// ------------------------------------------------------------------- adc

TEST(SarAdc, LsbAndMidscale) {
    SarAdcConfig cfg;
    cfg.bits = 10;
    cfg.vref_v = 2.0;
    SarAdc adc(cfg);
    EXPECT_NEAR(adc.lsb(), 4.0 / 1024.0, 1e-12);
    EXPECT_EQ(adc.convert(0.0), 0);
    EXPECT_EQ(adc.convert(adc.lsb() * 3.4), 3);
    EXPECT_EQ(adc.convert(-adc.lsb() * 3.4), -4);  // floor quantiser
}

TEST(SarAdc, ClipsAtRails) {
    SarAdc adc;
    EXPECT_EQ(adc.convert(100.0), 511);
    EXPECT_EQ(adc.convert(-100.0), -512);
}

TEST(SarAdc, QuantisedVoltageWithinHalfLsb) {
    SarAdc adc;
    for (double v = -2.0; v <= 2.0; v += 0.137) {
        EXPECT_NEAR(adc.convert_to_voltage(v), v, adc.lsb() * 0.5 + 1e-12);
    }
}

TEST(SarAdc, CountsComparatorDecisions) {
    SarAdcConfig cfg;
    cfg.bits = 12;
    SarAdc adc(cfg);
    static_cast<void>(adc.convert(0.1));
    static_cast<void>(adc.convert(0.2));
    EXPECT_EQ(adc.conversions(), 2u);
    EXPECT_EQ(adc.comparator_decisions(), 24u);
}

TEST(SarAdc, Validates) {
    SarAdcConfig cfg;
    cfg.bits = 0;
    EXPECT_THROW(SarAdc{cfg}, std::invalid_argument);
    cfg = {};
    cfg.vref_v = 0.0;
    EXPECT_THROW(SarAdc{cfg}, std::invalid_argument);
}

// -------------------------------------------------------------- goertzel

TEST(Goertzel, RecoversCosineAmplitude) {
    const double fs = 64000.0;
    const double f = 1000.0;
    std::vector<double> samples;
    for (int i = 0; i < 640; ++i) {  // 10 full cycles
        samples.push_back(3.0 * std::cos(2.0 * std::numbers::pi * f * i / fs));
    }
    const auto c = goertzel(samples, fs, f);
    EXPECT_NEAR(std::abs(c), 3.0, 0.01);
}

TEST(Goertzel, RejectsOtherBins) {
    const double fs = 64000.0;
    std::vector<double> samples;
    for (int i = 0; i < 640; ++i) {
        samples.push_back(std::sin(2.0 * std::numbers::pi * 1000.0 * i / fs));
    }
    // Probe 3 kHz: nothing there.
    EXPECT_NEAR(std::abs(goertzel(samples, fs, 3000.0)), 0.0, 0.02);
}

TEST(Goertzel, PhaseCarriesSign) {
    const double fs = 64000.0;
    const double f = 2000.0;
    auto tone = [&](double sign) {
        std::vector<double> s;
        for (int i = 0; i < 320; ++i) {
            s.push_back(sign * std::cos(2.0 * std::numbers::pi * f * i / fs));
        }
        return goertzel(s, fs, f);
    };
    const auto plus = tone(1.0);
    const auto minus = tone(-1.0);
    // Opposite signs -> opposite phasors.
    EXPECT_NEAR(std::abs(plus + minus), 0.0, 0.02);
}

TEST(Goertzel, StreamingMatchesBatch) {
    const double fs = 32000.0;
    GoertzelBin bin(fs, 500.0);
    std::vector<double> samples;
    for (int i = 0; i < 640; ++i) {
        const double v = std::cos(2.0 * std::numbers::pi * 500.0 * i / fs) +
                         0.3 * std::cos(2.0 * std::numbers::pi * 1500.0 * i / fs);
        samples.push_back(v);
        bin.push(v);
    }
    const auto batch = goertzel(samples, fs, 500.0);
    EXPECT_NEAR(std::abs(bin.amplitude() - batch), 0.0, 1e-12);
    bin.reset();
    EXPECT_EQ(bin.count(), 0u);
}

TEST(Goertzel, Validates) {
    EXPECT_THROW(GoertzelBin(1000.0, 600.0), std::invalid_argument);  // > fs/2
    EXPECT_THROW(GoertzelBin(0.0, 100.0), std::invalid_argument);
}

// ------------------------------------------------------- second harmonic

TEST(SecondHarmonic, NoFieldNoEvenHarmonic) {
    // Symmetric excitation of a symmetric core: the second harmonic is
    // (nearly) absent — the physical basis of the method.
    SecondHarmonicConfig cfg;
    cfg.adc.bits = 14;  // fine quantisation to see the floor
    SecondHarmonicReadout readout(cfg);
    readout.calibrate(10.0);
    const auto at_zero = readout.measure(0.0);
    const auto at_ref = readout.measure(10.0);
    EXPECT_LT(std::abs(at_zero.harmonic), 0.05 * std::abs(at_ref.harmonic));
}

TEST(SecondHarmonic, LinearAndSigned) {
    SecondHarmonicReadout readout;
    readout.calibrate(10.0);
    const auto p5 = readout.measure(5.0);
    const auto m5 = readout.measure(-5.0);
    const auto p10 = readout.measure(10.0);
    EXPECT_NEAR(p5.field_estimate_a_per_m, 5.0, 0.6);
    EXPECT_NEAR(m5.field_estimate_a_per_m, -5.0, 0.6);
    EXPECT_NEAR(p10.field_estimate_a_per_m, 10.0, 0.6);
}

TEST(SecondHarmonic, AccuracyAcrossRange) {
    SecondHarmonicReadout readout;
    readout.calibrate(15.0);
    for (double h : {-16.0, -12.0, -8.0, 4.0, 12.0, 16.0}) {
        const auto m = readout.measure(h);
        EXPECT_NEAR(m.field_estimate_a_per_m, h, std::max(1.0, 0.06 * std::fabs(h)))
            << "h = " << h;
    }
}

TEST(SecondHarmonic, CompressesOutsideLinearRange) {
    // A known drawback of one-point-calibrated harmonic readouts: the
    // response compresses as the field approaches the core knee. (The
    // pulse-position arctan is immune because the magnitude cancels.)
    SecondHarmonicReadout readout;
    readout.calibrate(15.0);
    const auto m = readout.measure(30.0);
    EXPECT_LT(m.field_estimate_a_per_m, 29.0);
    EXPECT_GT(m.field_estimate_a_per_m, 22.0);
}

TEST(SecondHarmonic, ReportsAdcCost) {
    SecondHarmonicConfig cfg;
    cfg.periods = 4;
    cfg.warmup_periods = 1;
    cfg.samples_per_period = 64;
    SecondHarmonicReadout readout(cfg);
    readout.calibrate(10.0);
    const auto m = readout.measure(5.0);
    EXPECT_EQ(m.adc_conversions, 4u * 64u);  // warmup periods skip the ADC
    EXPECT_EQ(m.comparator_decisions, m.adc_conversions * 10u);
}

TEST(SecondHarmonic, RequiresCalibration) {
    SecondHarmonicReadout readout;
    EXPECT_THROW((void)readout.measure(1.0), std::logic_error);
    EXPECT_THROW(readout.calibrate(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace fxg::baseline
