// Cross-validation of the simulation-engine layer: the block engine
// must be a pure throughput upgrade over the scalar reference — every
// counter value, heading and energy sum bit-identical, across headings,
// both front-end architectures, and with band-limited pickup noise
// running (same seed on both sides by construction). A steady-state
// measure() allocates nothing on either engine, and block scratch is
// per thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "sim/engine.hpp"

// Every allocation this test binary makes is counted, and every block of
// 4 KiB or more also apart, so a test can bound the allocations of a run
// of measurements.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_large_blocks{0};
constexpr std::size_t kLargeBlock = 4096;
}  // namespace

// The replacement pair is malloc/free underneath; GCC cannot see that
// through inlining and would flag every delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size >= kLargeBlock) g_large_blocks.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fxg {
namespace {

compass::CompassConfig sweep_config(analog::FrontEndMode mode, double noise_rms_v,
                                    sim::EngineKind engine) {
    compass::CompassConfig cfg;
    // Lighter than the design point so the full sweep stays fast; the
    // design point itself is covered by DesignPointBitIdentical below.
    cfg.steps_per_period = 1024;
    cfg.periods_per_axis = 4;
    cfg.front_end.mode = mode;
    cfg.front_end.pickup_noise_rms_v = noise_rms_v;
    cfg.engine = engine;
    return cfg;
}

struct SweepCase {
    analog::FrontEndMode mode;
    double noise_rms_v;
};

std::string case_name(const SweepCase& c) {
    std::string name =
        c.mode == analog::FrontEndMode::Multiplexed ? "Multiplexed" : "Simultaneous";
    name += c.noise_rms_v > 0.0 ? "Noisy" : "Clean";
    return name;
}

// ctest names each case after gtest's print of its parameter. Without a
// printer gtest prints the struct's raw bytes, and its padding bytes
// differ from build to build.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << case_name(c); }

class EngineEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineEquivalence, BitIdenticalAcrossHeadings) {
    const SweepCase c = GetParam();
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    compass::Compass scalar(
        sweep_config(c.mode, c.noise_rms_v, sim::EngineKind::Scalar));
    compass::Compass block(sweep_config(c.mode, c.noise_rms_v, sim::EngineKind::Block));
    for (int heading = 0; heading < 360; heading += 15) {
        scalar.set_environment(field, heading);
        block.set_environment(field, heading);
        const compass::Measurement ms = scalar.measure();
        const compass::Measurement mb = block.measure();
        EXPECT_EQ(ms.count_x, mb.count_x) << "heading " << heading;
        EXPECT_EQ(ms.count_y, mb.count_y) << "heading " << heading;
        EXPECT_EQ(ms.heading_deg, mb.heading_deg) << "heading " << heading;
        EXPECT_EQ(ms.heading_float_deg, mb.heading_float_deg) << "heading " << heading;
        EXPECT_EQ(ms.energy_j, mb.energy_j) << "heading " << heading;
        EXPECT_EQ(ms.duration_s, mb.duration_s) << "heading " << heading;
        EXPECT_EQ(ms.field_in_range, mb.field_in_range) << "heading " << heading;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndNoise, EngineEquivalence,
    ::testing::Values(SweepCase{analog::FrontEndMode::Multiplexed, 0.0},
                      SweepCase{analog::FrontEndMode::Simultaneous, 0.0},
                      SweepCase{analog::FrontEndMode::Multiplexed, 2.0e-3},
                      SweepCase{analog::FrontEndMode::Simultaneous, 2.0e-3}),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return case_name(info.param); });

// The paper's design point (2048 steps/period, 8 periods/axis) must be
// bit-identical too — this is the configuration every headline bench
// runs, so the engines may not diverge there.
TEST(SimEngine, DesignPointBitIdentical) {
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    compass::CompassConfig scalar_cfg;
    scalar_cfg.engine = sim::EngineKind::Scalar;
    compass::CompassConfig block_cfg;
    block_cfg.engine = sim::EngineKind::Block;
    compass::Compass scalar(scalar_cfg);
    compass::Compass block(block_cfg);
    for (const double heading : {13.0, 123.0, 275.0}) {
        scalar.set_environment(field, heading);
        block.set_environment(field, heading);
        const compass::Measurement ms = scalar.measure();
        const compass::Measurement mb = block.measure();
        EXPECT_EQ(ms.count_x, mb.count_x) << "heading " << heading;
        EXPECT_EQ(ms.count_y, mb.count_y) << "heading " << heading;
        EXPECT_EQ(ms.heading_deg, mb.heading_deg) << "heading " << heading;
        EXPECT_EQ(ms.energy_j, mb.energy_j) << "heading " << heading;
    }
}

// Every buffer of the measurement path keeps its capacity across
// measurements, so once a default compass has measured, further
// measure() calls allocate nothing, on both engines. (set_environment
// allocates once, for its ConstantFieldSource.)
TEST(SimEngine, SteadyStateMeasureAllocatesNothing) {
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    for (const sim::EngineKind kind : {sim::EngineKind::Scalar, sim::EngineKind::Block}) {
        SCOPED_TRACE(sim::to_string(kind));
        compass::CompassConfig cfg;
        cfg.engine = kind;
        compass::Compass c(cfg);
        c.set_environment(field, 123.0);
        static_cast<void>(c.measure());
        const std::uint64_t before = g_allocations.load();
        for (int i = 0; i < 50; ++i) static_cast<void>(c.measure());
        EXPECT_EQ(g_allocations.load() - before, 0u);
    }
}

// The block path's scratch is per thread, not per member: on a thread
// that has measured one compass, a fresh compass's first measure()
// allocates no large block, so the memory each fleet member holds does
// not include block buffers.
TEST(SimEngine, FreshCompassReusesItsThreadsBlockScratch) {
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    std::uint64_t fresh_blocks = 0;
    std::thread([&] {
        compass::Compass warm;
        warm.set_environment(field, 30.0);
        static_cast<void>(warm.measure());
        compass::Compass fresh;
        fresh.set_environment(field, 210.0);
        const std::uint64_t before = g_large_blocks.load();
        static_cast<void>(fresh.measure());
        fresh_blocks = g_large_blocks.load() - before;
    }).join();
    EXPECT_EQ(fresh_blocks, 0u);
}

TEST(SimEngine, FactoryAndNames) {
    const auto scalar = sim::make_engine(sim::EngineKind::Scalar);
    const auto block = sim::make_engine(sim::EngineKind::Block);
    EXPECT_EQ(scalar->kind(), sim::EngineKind::Scalar);
    EXPECT_EQ(block->kind(), sim::EngineKind::Block);
    EXPECT_STREQ(scalar->name(), "scalar");
    EXPECT_STREQ(block->name(), "block");
    EXPECT_STREQ(sim::to_string(sim::EngineKind::Scalar), "scalar");
    EXPECT_STREQ(sim::to_string(sim::EngineKind::Block), "block");
}

// A threaded fleet must return exactly what the same members measured
// serially would: threading is wall-clock only, never results.
TEST(CompassFleet, ThreadedMatchesSerial) {
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    compass::CompassConfig cfg;
    cfg.steps_per_period = 512;
    cfg.periods_per_axis = 2;
    constexpr int kFleet = 8;
    std::vector<double> headings;
    headings.reserve(kFleet);
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 45.0 + 5.0);

    compass::CompassFleet serial(kFleet, cfg);
    compass::CompassFleet threaded(kFleet, cfg);
    serial.set_environments(field, headings);
    threaded.set_environments(field, headings);

    const auto serial_results = serial.measure_all(1);
    const auto threaded_results = threaded.measure_all(4);
    ASSERT_EQ(serial_results.size(), threaded_results.size());
    for (int i = 0; i < kFleet; ++i) {
        const auto& a = serial_results[static_cast<std::size_t>(i)];
        const auto& b = threaded_results[static_cast<std::size_t>(i)];
        EXPECT_EQ(a.count_x, b.count_x) << "member " << i;
        EXPECT_EQ(a.count_y, b.count_y) << "member " << i;
        EXPECT_EQ(a.heading_deg, b.heading_deg) << "member " << i;
        EXPECT_EQ(a.energy_j, b.energy_j) << "member " << i;
    }
}

TEST(CompassFleet, MemberIndependenceAndBounds) {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 512;
    cfg.periods_per_axis = 2;
    compass::CompassFleet fleet(3, cfg);
    EXPECT_EQ(fleet.size(), 3);
    EXPECT_THROW(static_cast<void>(fleet.at(3)), std::out_of_range);
    EXPECT_THROW(compass::CompassFleet(0), std::invalid_argument);
    EXPECT_THROW(
        fleet.set_environments(magnetics::EarthField(magnetics::microtesla(48.0), 67.0),
                               {0.0, 90.0}),
        std::invalid_argument);

    // Distinct calibrations stay distinct members' business.
    compass::CountCalibration cal;
    cal.offset_x = 42;
    fleet.at(1).set_calibration(cal);
    EXPECT_EQ(fleet.at(0).calibration().offset_x, 0);
    EXPECT_EQ(fleet.at(1).calibration().offset_x, 42);
}

}  // namespace
}  // namespace fxg
