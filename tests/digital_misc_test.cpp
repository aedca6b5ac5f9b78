// Tests for the remaining digital blocks: the 4.194304 MHz up/down
// counter model, the LCD display driver, the watch chain and the
// boundary-scan TAP.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "digital/boundary_scan.hpp"
#include "digital/counter.hpp"
#include "digital/display.hpp"
#include "digital/watch.hpp"

namespace fxg::digital {
namespace {

// ----------------------------------------------------------------counter

TEST(UpDownCounter, CountsCleanDutyCycle) {
    UpDownCounter c(1e6);  // 1 MHz for easy numbers
    // 1 ms high, 1 ms low: net zero.
    c.step(true, 1e-3);
    c.step(false, 1e-3);
    EXPECT_EQ(c.count(), 0);
    // 60/40 duty over 10 ms: +2000 net.
    for (int i = 0; i < 10; ++i) {
        c.step(true, 0.6e-3);
        c.step(false, 0.4e-3);
    }
    EXPECT_EQ(c.count(), 2000);
}

TEST(UpDownCounter, FractionalTicksCarryExactly) {
    // dt chosen so each step is exactly 0.25 ticks (a binary fraction):
    // 8 steps accumulate exactly 2 ticks.
    UpDownCounter c(1e6);
    for (int i = 0; i < 8; ++i) c.step(true, 0.25e-6);
    EXPECT_EQ(c.count(), 2);
    // And never drifts over a long run.
    for (int i = 0; i < 4000 - 8; ++i) c.step(true, 0.25e-6);
    EXPECT_EQ(c.count(), 1000);
}

TEST(UpDownCounter, PaperClockOverOnePeriod) {
    // 4.194304 MHz over one 125 us excitation period = 524.288 ticks;
    // over 1000 periods the accumulated count is exact within 1 tick.
    UpDownCounter c;
    for (int i = 0; i < 1000; ++i) c.step(true, 125e-6);
    EXPECT_NEAR(static_cast<double>(c.count()), 524288.0, 1.0);
}

TEST(UpDownCounter, DisableFreezes) {
    UpDownCounter c(1e6);
    c.step(true, 1e-3);
    const auto frozen = c.count();
    c.enable(false);
    c.step(true, 1e-3);
    EXPECT_EQ(c.count(), frozen);
    c.enable(true);
    c.clear();
    EXPECT_EQ(c.count(), 0);
}

TEST(UpDownCounter, TracksActiveTicks) {
    UpDownCounter c(1e6);
    c.step(true, 1e-3);
    c.step(false, 1e-3);
    EXPECT_EQ(c.active_ticks(), 2000u);
    c.reset();
    EXPECT_EQ(c.active_ticks(), 0u);
}

TEST(UpDownCounter, Validates) {
    EXPECT_THROW(UpDownCounter(0.0), std::invalid_argument);
    UpDownCounter c;
    EXPECT_THROW(c.step(true, 0.0), std::invalid_argument);
}

/// clock_step's floor() form, the reference its compare form must
/// reproduce bit for bit.
std::int64_t clock_step_floor(double& acc, double inc) {
    acc += inc;
    const double whole = std::floor(acc);
    acc -= whole;
    return static_cast<std::int64_t>(whole);
}

/// One step of both forms from `acc`; true when the ticks are equal and
/// the accumulators have the same bits.
bool clock_forms_agree(double& acc, double inc, std::int64_t* ticks = nullptr) {
    double ref = acc;
    const std::int64_t t = UpDownCounter::clock_step(acc, inc);
    const std::int64_t t_ref = clock_step_floor(ref, inc);
    if (ticks != nullptr) *ticks = t;
    return t == t_ref && std::bit_cast<std::uint64_t>(acc) == std::bit_cast<std::uint64_t>(ref);
}

TEST(UpDownCounter, ClockStepCompareFormEqualsFloorForm) {
    // A million consecutive steps at the design point's 0.256 clock
    // periods per sample (4.194304 MHz, 2048 samples per 125 us).
    {
        double acc = 0.0;
        for (int i = 0; i < 1'000'000; ++i) {
            const double from = acc;
            if (!clock_forms_agree(acc, 0.256)) {
                FAIL() << "step " << i << " from acc " << from;
            }
        }
    }
    // The edges of [0, 1) against increments up to just below one tick.
    const double below_one = std::nextafter(1.0, 0.0);
    for (const double acc0 : {0.0, std::numeric_limits<double>::denorm_min(), below_one}) {
        for (const double inc : {0.256, 0.5, below_one}) {
            double acc = acc0;
            EXPECT_TRUE(clock_forms_agree(acc, inc)) << "acc " << acc0 << " inc " << inc;
        }
    }
    // steps_per_period = 64: 8.192 periods per sample, so every sum is
    // past 2 and takes the floor() branch.
    double acc = 0.0;
    for (int i = 0; i < 10'000; ++i) {
        std::int64_t ticks = 0;
        ASSERT_TRUE(clock_forms_agree(acc, 8.192, &ticks)) << "step " << i;
        ASSERT_TRUE(ticks == 8 || ticks == 9) << "step " << i << ": " << ticks;
    }
}

// ------------------------------------------------- one-bit clock words
//
// UpDownCounter::tick_word takes the rotation for a run of valid bits
// when the accumulator and the increment are multiples of 2^-52, and the
// clock_step loop otherwise; both must tick exactly as the loop does.

constexpr double kDefaultDt = (1.0 / 8000.0) / 2048;

/// The clock_step loop over the set bits of `valid`.
std::uint64_t loop_ticks(double& acc, double inc, std::uint64_t valid) {
    std::uint64_t ticks = 0;
    for (; valid != 0; valid &= valid - 1) {
        ticks |= static_cast<std::uint64_t>(UpDownCounter::clock_step(acc, inc))
                 << std::countr_zero(valid);
    }
    return ticks;
}

TEST(CounterRotation, EveryRunOfValidBitsTicksAsTheClockSteps) {
    // Every run [first, first + k) of a word, from accumulators at the
    // edges of [0, 1) and inside, at the paper's 0.256 and other
    // increments on the grid.
    for (const double inc : {kDefaultDt * 4194304.0, 3 * 0x1p-11, 0.5, 1.0 - 0x1p-52}) {
        for (const double acc0 : {0.0, 0x1p-52, 0.75 + 5 * 0x1p-52, 1.0 - 0x1p-52}) {
            ASSERT_TRUE(UpDownCounter::rotates(acc0, inc));
            for (int first = 0; first < 64; ++first) {
                for (int k = 1; first + k <= 64; ++k) {
                    const std::uint64_t run = (k == 64 ? ~std::uint64_t{0}
                                                       : (std::uint64_t{1} << k) - 1)
                                              << first;
                    double a = acc0, b = acc0;
                    const std::uint64_t got = UpDownCounter::tick_word(a, inc, run);
                    const std::uint64_t want = loop_ticks(b, inc, run);
                    ASSERT_EQ(got, want) << "inc " << inc << " acc " << acc0 << " first "
                                         << first << " k " << k;
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
                }
            }
        }
    }
}

/// Clocks `blocked` by step_block in blocks of `block` over `words` of
/// high and valid bits, and `stepped` by step() on the valid samples.
void expect_block_matches_step(UpDownCounter& blocked, UpDownCounter& stepped, double dt,
                               const std::vector<std::uint64_t>& high,
                               const std::vector<std::uint64_t>& valid, int n, int block) {
    for (int k = 0; k < n; ++k) {
        const auto w = static_cast<std::size_t>(k / 64);
        if (((valid[w] >> (k % 64)) & 1) != 0) stepped.step(((high[w] >> (k % 64)) & 1) != 0, dt);
    }
    std::vector<std::uint64_t> h, v;
    for (int done = 0; done < n; done += block) {
        const int m = std::min(block, n - done);  // blocks start on word edges
        h.assign(high.begin() + done / 64, high.begin() + (done + m + 63) / 64);
        v.assign(valid.begin() + done / 64, valid.begin() + (done + m + 63) / 64);
        blocked.step_block(h.data(), v.data(), dt, m);
    }
    EXPECT_EQ(blocked.count(), stepped.count());
    EXPECT_EQ(blocked.active_ticks(), stepped.active_ticks());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(blocked.save_state().tick_accumulator),
              std::bit_cast<std::uint64_t>(stepped.save_state().tick_accumulator));
}

TEST(CounterRotation, BlocksMatchStepOnAndOffTheGrid) {
    // The paper's clock (on the grid), a whole-Hz clock off it, and the
    // paper's clock from a restored accumulator off it; valid streams
    // that are all ones, that settle mid-word, that end a run mid-word
    // and that have holes.
    double off_grid_hz = 4'000'001.0;
    while (UpDownCounter::rotates(0.0, kDefaultDt * off_grid_hz)) off_grid_hz += 1.0;
    struct Clock {
        double hz;
        double acc;
    };
    const Clock clocks[] = {{4194304.0, 0.0}, {off_grid_hz, 0.0}, {4194304.0, 0.1}};
    ASSERT_TRUE(UpDownCounter::rotates(0.0, kDefaultDt * 4194304.0));
    ASSERT_FALSE(UpDownCounter::rotates(0.1, kDefaultDt * 4194304.0));
    constexpr int kWords = 70;
    std::uint64_t lfsr = 0x9E3779B97F4A7C15ull;
    const auto next = [&] {
        lfsr ^= lfsr << 13;
        lfsr ^= lfsr >> 7;
        lfsr ^= lfsr << 17;
        return lfsr;
    };
    std::vector<std::uint64_t> high(kWords);
    for (std::uint64_t& w : high) w = next();
    std::vector<std::vector<std::uint64_t>> valids(4, std::vector<std::uint64_t>(kWords, ~0ull));
    for (int w = 0; w < 12; ++w) valids[1][static_cast<std::size_t>(w)] = 0;
    valids[1][12] = ~0ull << 51;  // settles at sample 819
    for (int w = 0; w < kWords; w += 3) {
        valids[2][static_cast<std::size_t>(w)] = 0x00FFFFFFFFFF0000ull;  // a run mid-word
    }
    for (std::uint64_t& w : valids[3]) w = next() | next();  // holes
    for (const Clock& clock : clocks) {
        for (const int n : {1, 63, 64, 65, 2047, 2048, 64 * kWords - 5}) {
            for (std::size_t vi = 0; vi < valids.size(); ++vi) {
                SCOPED_TRACE("clock " + std::to_string(clock.hz) + " acc " +
                             std::to_string(clock.acc) + " n " + std::to_string(n) +
                             " valid " + std::to_string(vi));
                UpDownCounter blocked(clock.hz), stepped(clock.hz);
                blocked.load_state({clock.acc, 0, 0});
                stepped.load_state({clock.acc, 0, 0});
                expect_block_matches_step(blocked, stepped, kDefaultDt, high, valids[vi], n,
                                          2048);
            }
        }
    }
}

// ---------------------------------------------------------------- display

TEST(Display, EncodesDigits) {
    EXPECT_EQ(encode_digit(0), 0b0111111);
    EXPECT_EQ(encode_digit(8), 0b1111111);
    EXPECT_EQ(encode_digit(1), 0b0000110);
    EXPECT_THROW(encode_digit(16), std::out_of_range);
    EXPECT_THROW(encode_digit(-1), std::out_of_range);
}

TEST(Display, DirectionMode) {
    DisplayDriver d;
    d.show_direction(275.4);
    EXPECT_EQ(d.mode(), DisplayMode::Direction);
    EXPECT_EQ(d.text(), " 275");
    d.show_direction(359.6);  // rounds to 360 -> wraps to 0
    EXPECT_EQ(d.text(), "   0");
    d.show_direction(45.2);
    EXPECT_EQ(d.text(), "  45");
    d.show_direction(-10.0);
    EXPECT_EQ(d.text(), " 350");
}

TEST(Display, TimeMode) {
    DisplayDriver d;
    d.show_time(9, 5);
    EXPECT_EQ(d.mode(), DisplayMode::Time);
    EXPECT_EQ(d.text(), "0905");
    EXPECT_THROW(d.show_time(24, 0), std::out_of_range);
    EXPECT_THROW(d.show_time(0, 60), std::out_of_range);
}

TEST(Display, AsciiArtHasThreeRows) {
    DisplayDriver d;
    d.show_time(12, 34);
    const std::string art = d.ascii_art();
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);
    EXPECT_NE(art.find('_'), std::string::npos);
    EXPECT_NE(art.find('|'), std::string::npos);
}

TEST(Display, CardinalNames) {
    EXPECT_STREQ(DisplayDriver::cardinal_name(0.0), "N");
    EXPECT_STREQ(DisplayDriver::cardinal_name(11.0), "N");
    EXPECT_STREQ(DisplayDriver::cardinal_name(12.0), "NNE");
    EXPECT_STREQ(DisplayDriver::cardinal_name(90.0), "E");
    EXPECT_STREQ(DisplayDriver::cardinal_name(180.0), "S");
    EXPECT_STREQ(DisplayDriver::cardinal_name(270.0), "W");
    EXPECT_STREQ(DisplayDriver::cardinal_name(347.0), "NNW");
    EXPECT_STREQ(DisplayDriver::cardinal_name(348.75), "N");  // sector boundary
    EXPECT_STREQ(DisplayDriver::cardinal_name(355.0), "N");
}

// ------------------------------------------------------------------ watch

TEST(Watch, ExactSecondFromPowerOfTwoClock) {
    Watch w;  // 2^22 Hz
    w.tick(4194304ULL);
    EXPECT_EQ(w.seconds(), 1);
    EXPECT_EQ(w.subsecond_cycles(), 0u);
    w.tick(4194303ULL);
    EXPECT_EQ(w.seconds(), 1);  // one cycle short
    w.tick(1);
    EXPECT_EQ(w.seconds(), 2);
}

TEST(Watch, RollsThroughMidnight) {
    Watch w;
    w.set_time(23, 59, 58);
    w.advance_seconds(3);
    EXPECT_EQ(w.hours(), 0);
    EXPECT_EQ(w.minutes(), 0);
    EXPECT_EQ(w.seconds(), 1);
    EXPECT_EQ(w.rollovers(), 1u);
}

TEST(Watch, LongRunStaysConsistent) {
    Watch w;
    w.tick(4194304ULL * 86400ULL + 4194304ULL * 61ULL);  // one day + 61 s
    EXPECT_EQ(w.hours(), 0);
    EXPECT_EQ(w.minutes(), 1);
    EXPECT_EQ(w.seconds(), 1);
    EXPECT_EQ(w.rollovers(), 1u);
}

TEST(Watch, SetTimeValidates) {
    Watch w;
    EXPECT_THROW(w.set_time(24, 0, 0), std::out_of_range);
    EXPECT_THROW(w.set_time(0, -1, 0), std::out_of_range);
    EXPECT_THROW(Watch(0), std::invalid_argument);
}

// ---------------------------------------------------------- boundary scan

// Walks TMS=1,0 sequences and checks the 16-state diagram.
TEST(BoundaryScan, StateDiagramWalk) {
    BoundaryScan bs;
    EXPECT_EQ(bs.state(), TapState::TestLogicReset);
    bs.clock(false, false);
    EXPECT_EQ(bs.state(), TapState::RunTestIdle);
    bs.clock(true, false);
    EXPECT_EQ(bs.state(), TapState::SelectDrScan);
    bs.clock(false, false);
    EXPECT_EQ(bs.state(), TapState::CaptureDr);
    bs.clock(false, false);
    EXPECT_EQ(bs.state(), TapState::ShiftDr);
    bs.clock(true, false);
    EXPECT_EQ(bs.state(), TapState::Exit1Dr);
    bs.clock(false, false);
    EXPECT_EQ(bs.state(), TapState::PauseDr);
    bs.clock(true, false);
    EXPECT_EQ(bs.state(), TapState::Exit2Dr);
    bs.clock(true, false);
    EXPECT_EQ(bs.state(), TapState::UpdateDr);
    bs.clock(false, false);
    EXPECT_EQ(bs.state(), TapState::RunTestIdle);
}

TEST(BoundaryScan, FiveTmsHighResetsFromAnywhere) {
    BoundaryScan bs;
    // Wander into ShiftIr.
    for (bool tms : {false, true, true, false, false}) bs.clock(tms, false);
    EXPECT_EQ(bs.state(), TapState::ShiftIr);
    bs.reset();
    EXPECT_EQ(bs.state(), TapState::TestLogicReset);
    EXPECT_EQ(bs.instruction(), TapInstruction::Idcode);
}

// After reset the DR holds IDCODE; shifting 32 bits out reproduces it.
TEST(BoundaryScan, IdcodeShiftsOutLsbFirst) {
    const std::uint32_t idcode = 0x1A57'0F01u;
    BoundaryScan bs(8, idcode);
    bs.reset();
    // Go to ShiftDr: TMS 0 (idle), 1 (sel-dr), 0 (-> capture),
    // 0 (capture executes, -> shift).
    bs.clock(false, false);
    bs.clock(true, false);
    bs.clock(false, false);
    bs.clock(false, false);
    std::uint32_t out = 0;
    for (int i = 0; i < 32; ++i) {
        const bool tdo = bs.clock(false, false);  // stay in ShiftDr
        out |= (tdo ? 1u : 0u) << i;
    }
    EXPECT_EQ(out, idcode);
}

TEST(BoundaryScan, BypassIsOneBitDelay) {
    BoundaryScan bs;
    bs.reset();
    // Load BYPASS (1111) through the IR.
    bs.clock(false, false);  // idle
    bs.clock(true, false);   // sel-dr
    bs.clock(true, false);   // sel-ir
    bs.clock(false, false);  // -> capture-ir
    bs.clock(false, false);  // capture executes, -> shift-ir
    for (int i = 0; i < 3; ++i) bs.clock(false, true);  // shift 3 ones
    bs.clock(true, true);    // last bit on exit1-ir
    bs.clock(true, false);   // update-ir
    EXPECT_EQ(bs.instruction(), TapInstruction::Bypass);
    // Enter ShiftDr and push a pattern through the 1-bit bypass reg.
    bs.clock(true, false);   // sel-dr
    bs.clock(false, false);  // -> capture
    bs.clock(false, false);  // capture executes, -> shift
    const bool pattern[] = {true, false, true, true, false};
    bool prev = false;  // bypass captured 0
    for (bool bit : pattern) {
        const bool tdo = bs.clock(false, bit);
        EXPECT_EQ(tdo, prev);
        prev = bit;
    }
}

TEST(BoundaryScan, SampleCapturesPins) {
    BoundaryScan bs(4);
    bs.reset();
    bs.set_pin(0, true);
    bs.set_pin(2, true);
    // Load SAMPLE (0001).
    bs.clock(false, false);
    bs.clock(true, false);
    bs.clock(true, false);
    bs.clock(false, false);  // -> capture-ir
    bs.clock(false, false);  // capture executes, -> shift-ir
    bs.clock(false, true);   // shift bit0 = 1
    for (int i = 0; i < 2; ++i) bs.clock(false, false);
    bs.clock(true, false);   // exit1 with last bit 0
    bs.clock(true, false);   // update-ir
    EXPECT_EQ(bs.instruction(), TapInstruction::Sample);
    // Capture and shift the boundary register out.
    bs.clock(true, false);   // sel-dr
    bs.clock(false, false);  // -> capture-dr
    bs.clock(false, false);  // capture executes, -> shift-dr
    std::vector<bool> out;
    for (int i = 0; i < 4; ++i) out.push_back(bs.clock(false, false));
    EXPECT_EQ(out, (std::vector<bool>{true, false, true, false}));
}

TEST(BoundaryScan, Validation) {
    EXPECT_THROW(BoundaryScan(0), std::invalid_argument);
    EXPECT_THROW(BoundaryScan(4, 0x2u), std::invalid_argument);  // even idcode
    BoundaryScan bs(4);
    EXPECT_THROW(bs.set_pin(4, true), std::out_of_range);
    EXPECT_THROW((void)bs.driven(4), std::out_of_range);
    EXPECT_STREQ(tap_state_name(TapState::ShiftDr), "Shift-DR");
}

}  // namespace
}  // namespace fxg::digital
