// Tests for the util module: angles, statistics, strings,
// CSV/table formatting, the RNG wrapper and repeated addition.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "util/angle.hpp"
#include "util/csv.hpp"
#include "util/exact.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace fxg::util {
namespace {

// ---------------------------------------------------------------- angles

TEST(Angle, DegRadRoundTrip) {
    EXPECT_DOUBLE_EQ(rad_to_deg(deg_to_rad(123.25)), 123.25);
    EXPECT_DOUBLE_EQ(deg_to_rad(180.0), std::numbers::pi);
}

TEST(Angle, Wrap360) {
    EXPECT_DOUBLE_EQ(wrap_deg_360(0.0), 0.0);
    EXPECT_DOUBLE_EQ(wrap_deg_360(360.0), 0.0);
    EXPECT_DOUBLE_EQ(wrap_deg_360(-10.0), 350.0);
    EXPECT_DOUBLE_EQ(wrap_deg_360(725.0), 5.0);
}

TEST(Angle, Wrap180) {
    EXPECT_DOUBLE_EQ(wrap_deg_180(179.0), 179.0);
    EXPECT_DOUBLE_EQ(wrap_deg_180(180.0), -180.0);
    EXPECT_DOUBLE_EQ(wrap_deg_180(-181.0), 179.0);
}

TEST(Angle, DiffCrossesSeam) {
    EXPECT_DOUBLE_EQ(angular_diff_deg(359.0, 1.0), -2.0);
    EXPECT_DOUBLE_EQ(angular_diff_deg(1.0, 359.0), 2.0);
    EXPECT_DOUBLE_EQ(angular_abs_diff_deg(359.0, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(angular_abs_diff_deg(90.0, 270.0), 180.0);
}

class AngleWrapProperty : public ::testing::TestWithParam<double> {};

TEST_P(AngleWrapProperty, WrapIsIdempotentAndInRange) {
    const double a = GetParam();
    const double w = wrap_deg_360(a);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, 360.0);
    EXPECT_NEAR(wrap_deg_360(w), w, 1e-12);
    // Wrapping preserves the angle modulo 360.
    EXPECT_NEAR(std::remainder(a - w, 360.0), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AngleWrapProperty,
                         ::testing::Values(-1080.0, -359.9, -180.0, -0.1, 0.0, 0.1,
                                           179.9, 359.9, 360.1, 1234.5));

// ------------------------------------------------------------ statistics

TEST(RunningStats, Basics) {
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.max_abs(), 9.0);
}

TEST(RunningStats, RmsOfSymmetricSamples) {
    RunningStats s;
    s.add(-3.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.rms(), 3.0);
    EXPECT_DOUBLE_EQ(s.max_abs(), 3.0);
}

TEST(RunningStats, EmptyIsZero) {
    const RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.rms(), 0.0);
}

TEST(Percentile, Interpolates) {
    std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Percentile, Validates) {
    EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
    EXPECT_THROW((void)percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(LinearFit, ExactLine) {
    std::vector<double> x{0, 1, 2, 3, 4};
    std::vector<double> y;
    for (double v : x) y.push_back(3.0 + 2.5 * v);
    const LinearFit fit = linear_fit(x, y);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
    EXPECT_NEAR(fit.slope, 2.5, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, DegenerateThrows) {
    EXPECT_THROW(linear_fit({1.0, 1.0}, {2.0, 3.0}), std::invalid_argument);
    EXPECT_THROW(linear_fit({1.0}, {2.0}), std::invalid_argument);
}

TEST(Histogram, BinningAndClamping) {
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.5);
    h.add(-100.0);  // clamps into bin 0
    h.add(100.0);   // clamps into bin 9
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

// --------------------------------------------------------------- strings

TEST(Strings, TrimSplitLower) {
    EXPECT_EQ(trim("  abc \t"), "abc");
    EXPECT_EQ(to_lower("AbC"), "abc");
    const auto tokens = split("a  b\tc", " \t");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[2], "c");
}

TEST(Strings, SpiceNumbers) {
    EXPECT_DOUBLE_EQ(*parse_spice_number("1k"), 1e3);
    EXPECT_DOUBLE_EQ(*parse_spice_number("10u"), 10e-6);
    EXPECT_DOUBLE_EQ(*parse_spice_number("12.5meg"), 12.5e6);
    EXPECT_DOUBLE_EQ(*parse_spice_number("10uF"), 10e-6);
    EXPECT_DOUBLE_EQ(*parse_spice_number("-3.3"), -3.3);
    EXPECT_DOUBLE_EQ(*parse_spice_number("5m"), 5e-3);
    EXPECT_DOUBLE_EQ(*parse_spice_number("2n"), 2e-9);
    EXPECT_DOUBLE_EQ(*parse_spice_number("7p"), 7e-12);
    EXPECT_DOUBLE_EQ(*parse_spice_number("1.5g"), 1.5e9);
    EXPECT_DOUBLE_EQ(*parse_spice_number("4t"), 4e12);
    EXPECT_DOUBLE_EQ(*parse_spice_number("1f"), 1e-15);
    EXPECT_DOUBLE_EQ(*parse_spice_number("5v"), 5.0);
    EXPECT_FALSE(parse_spice_number("abc").has_value());
    EXPECT_FALSE(parse_spice_number("").has_value());
}

TEST(Strings, Format) {
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(format("%.2f", 1.005), "1.00");
}

// ------------------------------------------------------------- csv/table

TEST(Csv, RowsAndRendering) {
    CsvWriter csv;
    csv.add_column("t");
    csv.add_column("v");
    csv.append_row({0.0, 1.5});
    csv.append_row({1.0, -2.5});
    EXPECT_EQ(csv.rows(), 2u);
    const std::string text = csv.to_string();
    EXPECT_NE(text.find("t,v"), std::string::npos);
    EXPECT_NE(text.find("1,-2.5"), std::string::npos);
}

TEST(Csv, RaggedColumnsPad) {
    CsvWriter csv;
    const auto a = csv.add_column("a");
    csv.add_column("b");
    csv.append(a, 1.0);
    EXPECT_EQ(csv.rows(), 1u);
    EXPECT_NE(csv.to_string().find("1,"), std::string::npos);
}

TEST(Csv, RowWidthValidated) {
    CsvWriter csv;
    csv.add_column("a");
    EXPECT_THROW(csv.append_row({1.0, 2.0}), std::invalid_argument);
}

TEST(Table, RendersAligned) {
    Table t("demo");
    t.set_header({"name", "value"});
    t.add_row({"x", "1"});
    t.add_row_values({2.25, 3.5}, 3);
    const std::string s = t.to_string();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("value"), std::string::npos);
    EXPECT_NE(s.find("2.25"), std::string::npos);
}

TEST(Table, WidthMismatchThrows) {
    Table t("demo");
    t.set_header({"a"});
    EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

// ------------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(a.gaussian(0, 1), b.gaussian(0, 1));
    }
}

TEST(Rng, GaussianMoments) {
    Rng rng(7);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(rng.gaussian(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

// The counter-based engine is a pure function of (key, index): seed()
// sets the key and rewinds, discard() jumps, and a draw never depends
// on how the counter got where it is. The lane engine and the snapshot
// codec rely on exactly this.
TEST(Rng, CounterEngineDrawIsSplitmixOfKeyAndIndex) {
    CounterEngine e(7);
    EXPECT_EQ(e.key(), 7u);
    EXPECT_EQ(e.counter(), 0u);
    EXPECT_EQ(e(), splitmix64(7, 0));
    EXPECT_EQ(e(), splitmix64(7, 1));
    e.discard(1000);
    EXPECT_EQ(e.counter(), 1002u);
    EXPECT_EQ(e(), splitmix64(7, 1002));
    e.seed(99);
    EXPECT_EQ(e.key(), 99u);
    EXPECT_EQ(e.counter(), 0u);
    EXPECT_EQ(e(), splitmix64(99, 0));
    // splitmix64's published first output for seed 0 (state += gamma,
    // then the finaliser).
    EXPECT_EQ(splitmix64(0, 0), 0xE220A8397B1DCDAFULL);
}

TEST(Rng, UniformBounds) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-1.0, 2.0);
        EXPECT_GE(v, -1.0);
        EXPECT_LT(v, 2.0);
        const auto n = rng.uniform_int(3, 6);
        EXPECT_GE(n, 3);
        EXPECT_LE(n, 6);
    }
}

// ------------------------------------------------------ repeated addition

double add_loop(double x, double d, std::int64_t n) {
    for (; n > 0; --n) x += d;
    return x;
}

/// repeated_add(x, d, n) returns the loop's bits.
::testing::AssertionResult same_as_loop(double x, double d, std::int64_t n) {
    const double got = repeated_add(x, d, n);
    const double want = add_loop(x, d, n);
    if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << std::hexfloat << "x " << x << " d " << d << " n "
                                         << n << ": " << got << ", the loop " << want;
}

TEST(RepeatedAdd, FromZeroAndSubnormals) {
    const double tiny = std::numeric_limits<double>::denorm_min();
    EXPECT_TRUE(same_as_loop(0.0, 0.1, 1'000'000));
    EXPECT_TRUE(same_as_loop(0.0, (1.0 / 8000.0) / 2048, 1'000'000));
    EXPECT_TRUE(same_as_loop(0.0, tiny, 1'000'000));
    EXPECT_TRUE(same_as_loop(0.0, 3 * tiny, 1000));
    EXPECT_TRUE(same_as_loop(DBL_MIN - 5 * tiny, 3 * tiny, 100));
    EXPECT_TRUE(same_as_loop(DBL_MIN, tiny, 1'000'000));
    EXPECT_TRUE(same_as_loop(1.0, tiny, 10));
    EXPECT_TRUE(same_as_loop(-0.0, 0.25, 3));
}

TEST(RepeatedAdd, TiesRoundToEvenOneAtATime) {
    // d mod u = u/2: x + d is a tie that rounds to an even significand,
    // so the step alternates between q and q + 1 units.
    EXPECT_TRUE(same_as_loop(0x1p52, 1.5, 1'000'000));
    EXPECT_TRUE(same_as_loop(0x1p52 + 1, 2.5, 1000));
    EXPECT_TRUE(same_as_loop(1.0, 3 * 0x1p-53, 1000));
    EXPECT_TRUE(same_as_loop(1.0 + 0x1p-52, 0x1p-53, 1000));
    EXPECT_TRUE(same_as_loop(0x1p-10, 5 * 0x1p-63, 5000));
}

TEST(RepeatedAdd, BinadeEdgesAndLargeSteps) {
    for (int e : {-1000, -20, -1, 0, 1, 30, 1000}) {
        const double edge = std::ldexp(1.0, e);
        for (const double x : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 2 * edge)}) {
            for (const double d : {std::ldexp(1.0, e - 53), std::ldexp(1.0, e - 52),
                                   std::ldexp(0.7, e - 40), edge, 3 * edge}) {
                EXPECT_TRUE(same_as_loop(x, d, 777));
            }
        }
    }
    EXPECT_TRUE(same_as_loop(1.0, 3.0, 100));        // d >= x
    EXPECT_TRUE(same_as_loop(1.0, 0x1p60, 100));     // d far above x
    EXPECT_TRUE(same_as_loop(1.0, 0x1p-54, 100));    // below u/2: x stays
    // The top binade (u = 2^971): below u/2, a tie, and one u, which
    // runs past DBL_MAX to +inf.
    EXPECT_TRUE(same_as_loop(DBL_MAX, 0x1p969, 10));
    EXPECT_TRUE(same_as_loop(0x1p1023, 0x1p970, 10));
    EXPECT_TRUE(same_as_loop(DBL_MAX, 0x1p970, 10));
    EXPECT_TRUE(same_as_loop(0x1p1023, 0x1p971, 1'000'000));
}

TEST(RepeatedAdd, RandomOperandsMatchTheLoop) {
    std::mt19937_64 rng(20261020);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 20'000; ++i) {
        const double x = i % 4 == 0 ? 0.0 : std::ldexp(unit(rng), -static_cast<int>(rng() % 40));
        const double d = std::ldexp(1.0 + unit(rng), -static_cast<int>(rng() % 60));
        const auto n = static_cast<std::int64_t>(1 + rng() % 3000);
        ASSERT_TRUE(same_as_loop(x, d, n));
    }
}

TEST(RepeatedAdd, OutsideItsDomainRunsTheLoop) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(same_as_loop(1.0, 0.0, 5));
    EXPECT_TRUE(same_as_loop(-0.0, 0.0, 5));
    EXPECT_TRUE(same_as_loop(1.0, -0.25, 5));
    EXPECT_TRUE(same_as_loop(-3.0, 0.25, 50));
    EXPECT_TRUE(same_as_loop(inf, 1.0, 5));
    EXPECT_TRUE(same_as_loop(1.0, inf, 5));
    EXPECT_TRUE(same_as_loop(nan, 1.0, 5));
    EXPECT_TRUE(same_as_loop(1.0, 2.0, 0));
    EXPECT_TRUE(same_as_loop(1.0, 2.0, -3));
}

TEST(OnUnitGrid, MultiplesOfTwoToTheMinus52) {
    EXPECT_TRUE(on_unit_grid(0.0));
    EXPECT_TRUE(on_unit_grid(0x1p-52));
    EXPECT_TRUE(on_unit_grid(0.256));  // 2^11 RN(1/8000): two low zero bits
    EXPECT_TRUE(on_unit_grid(1.0 - 0x1p-52));
    EXPECT_FALSE(on_unit_grid(0x1p-53));
    EXPECT_FALSE(on_unit_grid(0.1));
    EXPECT_FALSE(on_unit_grid(std::numeric_limits<double>::quiet_NaN()));
}

}  // namespace
}  // namespace fxg::util
