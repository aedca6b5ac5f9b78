// Tests for the SoA SIMD lane engine (sim/lane_engine.hpp) and its
// integration seams: PlanExecutor::run_lanes, the CompassFleet Auto
// dispatch, the one-compile-per-fleet contract, per-lane fault
// eviction, lockstep cohorts and the sweep's allocations. The
// load-bearing property throughout is bit identity with the per-member
// scalar path — doubles compare with ==, counts with !=.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "digital/counter.hpp"
#include "fault/fault_injector.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "sim/lane_engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

// Every block of 4 KiB or more this test binary allocates is counted,
// so a test can bound the large allocations of one fleet sweep.
namespace {
std::atomic<std::uint64_t> g_large_blocks{0};
constexpr std::size_t kLargeBlock = 4096;
}  // namespace

// The replacement pair is malloc/free underneath; GCC cannot see that
// through inlining and would flag every delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
    if (size >= kLargeBlock) g_large_blocks.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace fxg;

magnetics::EarthField site() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

compass::CompassConfig lite_config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 256;
    cfg.periods_per_axis = 2;
    cfg.settle_periods = 1;
    return cfg;
}

void expect_bit_identical(const compass::Measurement& a,
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

void expect_same_pipeline_state(compass::Compass& a, compass::Compass& b) {
    EXPECT_EQ(a.counter().count(), b.counter().count());
    EXPECT_EQ(a.counter().overflowed(), b.counter().overflowed());
    EXPECT_EQ(a.front_end().samples_stepped(), b.front_end().samples_stepped());
    for (const auto ch : {analog::Channel::X, analog::Channel::Y}) {
        const analog::StreamStats sa = a.front_end().stream_stats(ch);
        const analog::StreamStats sb = b.front_end().stream_stats(ch);
        EXPECT_EQ(sa.samples, sb.samples);
        EXPECT_EQ(sa.valid_samples, sb.valid_samples);
        EXPECT_EQ(sa.high_samples, sb.high_samples);
        EXPECT_EQ(sa.edges, sb.edges);
    }
}

/// Builds `n` members from per-index configs/headings, runs the
/// reference members one by one with the scalar engine and the lane
/// members as one run_lanes batch, and asserts bit identity slot by
/// slot (results and post-run pipeline state). `customize` (optional)
/// is applied identically to both copies of member i after
/// construction — per-member calibration and the like.
void three_way_check(
    const std::vector<compass::CompassConfig>& configs,
    const std::vector<double>& headings,
    const std::function<void(int, compass::Compass&)>& customize = {}) {
    const int n = static_cast<int>(configs.size());
    std::vector<std::unique_ptr<compass::Compass>> ref;
    std::vector<std::unique_ptr<compass::Compass>> lane;
    for (int i = 0; i < n; ++i) {
        compass::CompassConfig scalar_cfg = configs[static_cast<std::size_t>(i)];
        scalar_cfg.engine = sim::EngineKind::Scalar;
        ref.push_back(std::make_unique<compass::Compass>(scalar_cfg));
        lane.push_back(std::make_unique<compass::Compass>(
            configs[static_cast<std::size_t>(i)]));
        ref.back()->set_environment(site(), headings[static_cast<std::size_t>(i)]);
        lane.back()->set_environment(site(), headings[static_cast<std::size_t>(i)]);
        if (customize) {
            customize(i, *ref.back());
            customize(i, *lane.back());
        }
    }
    std::vector<compass::Compass*> lanes;
    for (auto& c : lane) lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> outcomes(static_cast<std::size_t>(n));
    // Two measurements back to back: the second starts from evolved
    // pipeline state, so gather/scatter round-trip errors would surface.
    for (int rep = 0; rep < 2; ++rep) {
        compass::PlanExecutor::run_lanes(lane[0]->plan(), lanes, outcomes);
        for (int i = 0; i < n; ++i) {
            SCOPED_TRACE(testing::Message() << "rep " << rep << " member " << i);
            const compass::Measurement expect =
                ref[static_cast<std::size_t>(i)]->measure();
            ASSERT_FALSE(outcomes[static_cast<std::size_t>(i)].aborted)
                << outcomes[static_cast<std::size_t>(i)].error;
            expect_bit_identical(outcomes[static_cast<std::size_t>(i)].measurement,
                                 expect);
            expect_same_pipeline_state(*lane[static_cast<std::size_t>(i)],
                                       *ref[static_cast<std::size_t>(i)]);
        }
    }
}

// Each backend's name goes with its width (DESIGN.md section 12). That
// the test binary sees the same backend as fxg_sim is
// Simd.ConsumerSeesTheBackendItsLibrariesWereBuiltFor.
TEST(LaneEngine, BackendSanity) {
    const std::map<std::string, int> widths{
        {"avx512", 8}, {"avx2", 4}, {"neon", 2}, {"scalar", 4}};
    const auto it = widths.find(sim::LaneEngine::backend_name());
    ASSERT_NE(it, widths.end()) << sim::LaneEngine::backend_name();
    EXPECT_EQ(sim::LaneEngine::lanes_per_stripe(), it->second);
}

TEST(LaneEngine, Eligibility) {
    compass::Compass clean(lite_config());
    EXPECT_TRUE(sim::LaneEngine::eligible(clean.front_end()));

    compass::CompassConfig simultaneous = lite_config();
    simultaneous.front_end.mode = analog::FrontEndMode::Simultaneous;
    compass::Compass sim_mode(simultaneous);
    EXPECT_FALSE(sim::LaneEngine::eligible(sim_mode.front_end()));

    // Pickup noise is lane-compatible (per-lane draws from the member's
    // own RNG stream).
    compass::CompassConfig noisy_pickup = lite_config();
    noisy_pickup.front_end.pickup_noise_rms_v = 50e-6;
    compass::Compass np(noisy_pickup);
    EXPECT_TRUE(sim::LaneEngine::eligible(np.front_end()));
}

// One full stripe plus a remainder lane on AVX2 (5 = 4 + 1; a partial
// stripe of 5 lanes on AVX-512), with
// per-member differences the kernel must keep per lane: calibration,
// pickup noise, y-axis scale.
TEST(LaneEngine, BatchOfFiveMatchesScalarPerMember) {
    std::vector<compass::CompassConfig> configs;
    std::vector<double> headings;
    for (int i = 0; i < 5; ++i) {
        compass::CompassConfig cfg = lite_config();
        if (i == 2) cfg.front_end.pickup_noise_rms_v = 50e-6;
        if (i == 4) cfg.front_end.sensor_mismatch = 0.01;
        configs.push_back(cfg);
        headings.push_back(i * 67.0 + 3.0);
    }
    three_way_check(configs, headings, [](int i, compass::Compass& c) {
        if (i != 1) return;
        compass::CountCalibration cal;
        cal.offset_x = 37;
        cal.offset_y = -14;
        cal.scale_y = 1.0625;
        c.set_calibration(cal);
    });
}

// A paired group plus a remainder lane, every member noisy under its
// own key, set the way the fleet benchmark sets it: each lane must draw
// its member's stream and no other, so counts, filter state and stream
// position all match that member's scalar run.
TEST(LaneEngine, NoisyLanesDrawTheirOwnStreams) {
    const int n = 2 * util::simd::kLanes + 1;
    compass::CompassConfig cfg = lite_config();
    cfg.front_end.pickup_noise_rms_v = 0.25e-3;
    compass::CompassConfig scalar_cfg = cfg;
    scalar_cfg.engine = sim::EngineKind::Scalar;
    std::vector<std::unique_ptr<compass::Compass>> ref;
    std::vector<std::unique_ptr<compass::Compass>> lane;
    std::vector<compass::Compass*> lanes;
    for (int i = 0; i < n; ++i) {
        ref.push_back(std::make_unique<compass::Compass>(scalar_cfg));
        lane.push_back(std::make_unique<compass::Compass>(cfg));
        for (compass::Compass* c : {ref.back().get(), lane.back().get()}) {
            c->set_environment(site(), i * 41.0 + 5.0);
            c->front_end().pickup_noise().rng().engine().seed(0x5EED0000u + 17u * i);
        }
        lanes.push_back(lane.back().get());
    }
    std::vector<compass::LaneOutcome> outcomes(static_cast<std::size_t>(n));
    compass::PlanExecutor::run_lanes(lane[0]->plan(), lanes, outcomes);
    for (int i = 0; i < n; ++i) {
        SCOPED_TRACE(testing::Message() << "member " << i);
        const auto u = static_cast<std::size_t>(i);
        ASSERT_FALSE(outcomes[u].aborted) << outcomes[u].error;
        expect_bit_identical(outcomes[u].measurement, ref[u]->measure());
        analog::FrontEnd& a = lane[u]->front_end();
        analog::FrontEnd& b = ref[u]->front_end();
        const util::CounterEngine& sa = a.pickup_noise().rng().engine();
        const util::CounterEngine& sb = b.pickup_noise().rng().engine();
        EXPECT_EQ(sa.key(), sb.key());
        EXPECT_EQ(sa.counter(), sb.counter());
        EXPECT_GT(sa.counter(), 0u);
        EXPECT_EQ(a.noise_filter_state(), b.noise_filter_state());
    }
}

TEST(LaneEngine, BatchOfNineCoversRemainderStripes) {
    std::vector<compass::CompassConfig> configs;
    std::vector<double> headings;
    for (int i = 0; i < 9; ++i) {
        configs.push_back(lite_config());
        headings.push_back(i * 37.0 + 11.0);
    }
    three_way_check(configs, headings);
}

// Non-tanh magnetisation models take the per-lane virtual-dispatch
// path; mixing them with tanh lanes in one batch forces the generic
// stripe handling.
TEST(LaneEngine, GenericCoreModelsMatchScalar) {
    std::vector<compass::CompassConfig> configs;
    std::vector<double> headings;
    const sensor::CoreKind kinds[5] = {
        sensor::CoreKind::Tanh, sensor::CoreKind::Langevin,
        sensor::CoreKind::JilesAtherton, sensor::CoreKind::Tanh,
        sensor::CoreKind::Langevin};
    for (int i = 0; i < 5; ++i) {
        compass::CompassConfig cfg = lite_config();
        cfg.front_end.core_kind = kinds[i];
        configs.push_back(cfg);
        headings.push_back(i * 53.0 + 7.0);
    }
    three_way_check(configs, headings);
}

// Parametric faults are per-lane constants; a stream fault rides the
// tap-replay seam; a stuck mux changes one lane's active channel. All
// must stay in the SIMD path and match the scalar run bit for bit.
TEST(LaneEngine, FaultedLanesMatchScalar) {
    constexpr int kN = 4;
    std::vector<std::unique_ptr<compass::Compass>> ref;
    std::vector<std::unique_ptr<compass::Compass>> lane;
    std::vector<std::unique_ptr<fault::FaultInjector>> ref_inj;
    std::vector<std::unique_ptr<fault::FaultInjector>> lane_inj;
    const auto fault_for = [](int i) {
        fault::FaultSpec spec;
        switch (i) {
            case 0:
                spec.fault = fault::FaultClass::OscFrequencyDrift;
                spec.magnitude = 1.07;
                break;
            case 1:
                spec.fault = fault::FaultClass::MuxStuck;
                spec.channel = analog::Channel::Y;
                break;
            case 2:
                spec.fault = fault::FaultClass::DetectorStuckHigh;
                spec.channel = analog::Channel::X;
                spec.start_sample = 100;
                spec.duration_samples = 400;
                break;
            default:
                spec.fault = fault::FaultClass::ComparatorOffsetDrift;
                spec.channel = analog::Channel::X;
                spec.magnitude = 5e-3;
                break;
        }
        return spec;
    };
    for (int i = 0; i < kN; ++i) {
        compass::CompassConfig cfg = lite_config();
        cfg.engine = sim::EngineKind::Scalar;
        ref.push_back(std::make_unique<compass::Compass>(cfg));
        lane.push_back(std::make_unique<compass::Compass>(lite_config()));
        ref.back()->set_environment(site(), i * 90.0 + 15.0);
        lane.back()->set_environment(site(), i * 90.0 + 15.0);
        ref_inj.push_back(std::make_unique<fault::FaultInjector>());
        lane_inj.push_back(std::make_unique<fault::FaultInjector>());
        ref_inj.back()->add(fault_for(i));
        lane_inj.back()->add(fault_for(i));
        ref_inj.back()->arm(*ref[static_cast<std::size_t>(i)]);
        lane_inj.back()->arm(*lane[static_cast<std::size_t>(i)]);
    }
    std::vector<compass::Compass*> lanes;
    for (auto& c : lane) lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> outcomes(kN);
    for (int rep = 0; rep < 2; ++rep) {
        compass::PlanExecutor::run_lanes(lane[0]->plan(), lanes, outcomes);
        for (int i = 0; i < kN; ++i) {
            SCOPED_TRACE(testing::Message() << "rep " << rep << " member " << i);
            const compass::Measurement expect =
                ref[static_cast<std::size_t>(i)]->measure();
            ASSERT_FALSE(outcomes[static_cast<std::size_t>(i)].aborted);
            expect_bit_identical(outcomes[static_cast<std::size_t>(i)].measurement,
                                 expect);
            expect_same_pipeline_state(*lane[static_cast<std::size_t>(i)],
                                       *ref[static_cast<std::size_t>(i)]);
        }
    }
}

// A lane whose counter traps falls out of the batch at the count-window
// boundary without perturbing its neighbours: every other lane stays
// bit-identical to the same batch run without the faulty member.
TEST(LaneEngine, TrapEvictsOneLaneWithoutPerturbingNeighbours) {
    constexpr int kN = 5;
    constexpr int kBad = 2;
    const auto build = [&](bool with_trap) {
        std::vector<std::unique_ptr<compass::Compass>> members;
        for (int i = 0; i < kN; ++i) {
            members.push_back(std::make_unique<compass::Compass>(lite_config()));
            members.back()->set_environment(site(), i * 67.0 + 3.0);
            if (with_trap && i == kBad) {
                digital::CounterHardware hw;
                hw.width_bits = 8;  // narrow: intra-period swing wraps it
                hw.trap_on_overflow = true;
                members.back()->counter().set_hardware(hw);
            }
        }
        return members;
    };

    // Scalar reference: the trapped member alone throws.
    {
        auto members = build(true);
        EXPECT_THROW(static_cast<void>(members[kBad]->measure()),
                     std::overflow_error);
    }

    auto healthy = build(false);
    auto faulty = build(true);
    std::vector<compass::Compass*> healthy_lanes, faulty_lanes;
    for (auto& c : healthy) healthy_lanes.push_back(c.get());
    for (auto& c : faulty) faulty_lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> healthy_out(kN), faulty_out(kN);
    compass::PlanExecutor::run_lanes(healthy[0]->plan(), healthy_lanes, healthy_out);
    compass::PlanExecutor::run_lanes(faulty[0]->plan(), faulty_lanes, faulty_out);

    EXPECT_TRUE(faulty_out[kBad].aborted);
    EXPECT_EQ(faulty_out[kBad].error, "UpDownCounter: register overflow");
    ASSERT_TRUE(faulty_out[kBad].error_ptr);
    EXPECT_THROW(std::rethrow_exception(faulty_out[kBad].error_ptr),
                 std::overflow_error);
    EXPECT_TRUE(faulty[kBad]->counter().overflowed());

    for (int i = 0; i < kN; ++i) {
        if (i == kBad) continue;
        SCOPED_TRACE(testing::Message() << "member " << i);
        ASSERT_FALSE(faulty_out[static_cast<std::size_t>(i)].aborted);
        expect_bit_identical(faulty_out[static_cast<std::size_t>(i)].measurement,
                             healthy_out[static_cast<std::size_t>(i)].measurement);
        expect_same_pipeline_state(*faulty[static_cast<std::size_t>(i)],
                                   *healthy[static_cast<std::size_t>(i)]);
    }
}

// An ineligible lane (simultaneous front end) or a ReExcite plan sends
// the whole batch down the per-member fallback with the same outcomes.
TEST(LaneEngine, IneligibleBatchFallsBackPerMember) {
    compass::CompassConfig simultaneous = lite_config();
    simultaneous.front_end.mode = analog::FrontEndMode::Simultaneous;
    std::vector<compass::CompassConfig> configs = {lite_config(), simultaneous,
                                                   lite_config()};
    std::vector<double> headings = {10.0, 130.0, 250.0};
    // three_way_check exercises run_lanes, which must fall back
    // internally (member 1 is ineligible) and still match scalar.
    three_way_check(configs, headings);
}

TEST(LaneEngine, ReExcitePlanFallsBackPerMember) {
    compass::Compass ref(lite_config());
    compass::Compass lane(lite_config());
    ref.set_environment(site(), 42.0);
    lane.set_environment(site(), 42.0);
    const compass::MeasurementPlan re = compass::with_re_excite(ref.plan());
    const compass::Measurement expect = compass::PlanExecutor(ref).run(re);
    compass::Compass* lanes[1] = {&lane};
    compass::LaneOutcome out[1];
    compass::PlanExecutor::run_lanes(re, lanes, out);
    ASSERT_FALSE(out[0].aborted) << out[0].error;
    expect_bit_identical(out[0].measurement, expect);
}

// Batch telemetry: one "measure" span tree per batch (on lanes[0]'s
// sink), with "engine.lanes" advance spans, plus one MeasurementSample
// per traced lane — and tracing must not perturb the arithmetic.
TEST(LaneEngine, BatchEmitsOneSpanTreeAndPerLaneSamples) {
    constexpr int kN = 3;
    std::vector<std::unique_ptr<compass::Compass>> plain, traced;
    for (int i = 0; i < kN; ++i) {
        plain.push_back(std::make_unique<compass::Compass>(lite_config()));
        traced.push_back(std::make_unique<compass::Compass>(lite_config()));
        plain.back()->set_environment(site(), i * 111.0 + 9.0);
        traced.back()->set_environment(site(), i * 111.0 + 9.0);
    }
    telemetry::TraceSession session;
    telemetry::MetricsRegistry registry;
    telemetry::PhysicsProbes probes(registry);
    telemetry::TeeSink sink({&session, &probes});
    for (int i = 0; i < kN; ++i) {
        traced[static_cast<std::size_t>(i)]->set_telemetry(&sink);
        traced[static_cast<std::size_t>(i)]->set_telemetry_member(i);
    }
    std::vector<compass::Compass*> plain_lanes, traced_lanes;
    for (auto& c : plain) plain_lanes.push_back(c.get());
    for (auto& c : traced) traced_lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> plain_out(kN), traced_out(kN);
    compass::PlanExecutor::run_lanes(plain[0]->plan(), plain_lanes, plain_out);
    compass::PlanExecutor::run_lanes(traced[0]->plan(), traced_lanes, traced_out);

    for (int i = 0; i < kN; ++i) {
        SCOPED_TRACE(i);
        expect_bit_identical(traced_out[static_cast<std::size_t>(i)].measurement,
                             plain_out[static_cast<std::size_t>(i)].measurement);
    }
    int roots = 0, engine_spans = 0;
    for (const auto& s : session.spans()) {
        if (std::string(s.name) == "measure") ++roots;
        if (std::string(s.name) == "engine.lanes") ++engine_spans;
    }
    EXPECT_EQ(roots, 1);          // one batch tree, not one per lane
    EXPECT_EQ(engine_spans, 4);   // settle + count, two axes
    // One MeasurementSample per traced lane, delivered to the lane's
    // own sink after the batch completes.
    EXPECT_EQ(registry.counter("fxg_measurements_total").value(),
              static_cast<std::uint64_t>(kN));
}

// ------------------------------------------------------------- fleet

TEST(CompassFleet, AutoMatchesPerMemberBitForBit) {
    constexpr int kFleet = 37;  // 2 full lane groups + remainder of 5
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 9.7 + 1.0);

    compass::CompassFleet lane_fleet(kFleet, lite_config());
    compass::CompassFleet member_fleet(kFleet, lite_config());
    EXPECT_EQ(lane_fleet.execution(), compass::FleetExecution::Auto);
    member_fleet.set_execution(compass::FleetExecution::PerMember);
    lane_fleet.set_environments(site(), headings);
    member_fleet.set_environments(site(), headings);

    const auto a = lane_fleet.measure_all_results(3);
    const auto b = member_fleet.measure_all_results(3);
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < kFleet; ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(a[static_cast<std::size_t>(i)].ok);
        ASSERT_TRUE(b[static_cast<std::size_t>(i)].ok);
        expect_bit_identical(a[static_cast<std::size_t>(i)].measurement,
                             b[static_cast<std::size_t>(i)].measurement);
    }
}

TEST(CompassFleet, CompilesSharedPlanExactlyOnce) {
    const std::uint64_t before = compass::compile_plan_count();
    compass::CompassFleet fleet(100, lite_config());
    EXPECT_EQ(compass::compile_plan_count() - before, 1u);
    EXPECT_EQ(fleet.plan().stages.size(), fleet.at(0).plan().stages.size());
    // Members share the identical compiled object, not copies.
    EXPECT_EQ(&fleet.plan(), &fleet.at(0).plan());
    EXPECT_EQ(&fleet.at(0).plan(), &fleet.at(99).plan());
}

// The lane scratch for captured streams (6 bytes per step) is sized
// only by groups with a tap or a hardware counter, so a clean sweep of
// the default config's 16,384-step count windows allocates no large
// block. The first two sweeps let the black box reach its steady size.
TEST(CompassFleet, CleanSweepAllocatesNoLargeBlock) {
    constexpr int kFleet = 16;
    compass::CompassFleet fleet(kFleet);
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 22.5);
    fleet.set_environments(site(), headings);
    static_cast<void>(fleet.measure_all(1));
    static_cast<void>(fleet.measure_all(1));
    const std::uint64_t before = g_large_blocks.load();
    static_cast<void>(fleet.measure_all(1));
    EXPECT_EQ(g_large_blocks.load() - before, 0u);
}

TEST(CompassFleet, TrappedMembersReportDeterministicFirstError) {
    constexpr int kFleet = 20;
    compass::CompassFleet fleet(kFleet, lite_config());
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 18.0 + 4.0);
    fleet.set_environments(site(), headings);
    digital::CounterHardware hw;
    hw.width_bits = 8;
    hw.trap_on_overflow = true;
    fleet.at(7).counter().set_hardware(hw);
    fleet.at(13).counter().set_hardware(hw);

    const auto results = fleet.measure_all_results(2);
    for (int i = 0; i < kFleet; ++i) {
        SCOPED_TRACE(i);
        if (i == 7 || i == 13) {
            EXPECT_FALSE(results[static_cast<std::size_t>(i)].ok);
            EXPECT_EQ(results[static_cast<std::size_t>(i)].error,
                      "UpDownCounter: register overflow");
        } else {
            EXPECT_TRUE(results[static_cast<std::size_t>(i)].ok);
        }
    }
    // measure_all rethrows the lowest failing member's exception, not
    // whichever worker lost the race.
    EXPECT_THROW(static_cast<void>(fleet.measure_all(2)), std::overflow_error);
}

// ----------------------------------------------------- lockstep cohorts
//
// A group whose lanes hold bit-identical excitation inputs runs the
// excitation once (sim::shared_excitation_count); any differing lane
// sends the group down the per-lane pass (per_lane_excitation_count).
// Each case compares an Auto fleet with a PerMember twin bit for bit,
// excitation state included, and pins which groups shared.

constexpr int kCohortFleet = 16;
constexpr std::uint64_t kStagesPerSweep = 4;  // settle + count, two axes

/// Lane groups one advance of a kCohortFleet batch splits into.
std::uint64_t cohort_groups() {
    return kCohortFleet / (2 * sim::LaneEngine::lanes_per_stripe());
}

struct ExcitationCounts {
    std::uint64_t shared = 0;
    std::uint64_t per_lane = 0;
};

void expect_same_excitation_state(compass::Compass& a, compass::Compass& b) {
    expect_same_pipeline_state(a, b);
    const analog::TriangleOscillator::State oa = a.front_end().oscillator().save_state();
    const analog::TriangleOscillator::State ob = b.front_end().oscillator().save_state();
    EXPECT_EQ(oa.time_s, ob.time_s);
    EXPECT_EQ(oa.phase, ob.phase);
    EXPECT_EQ(oa.output, ob.output);
    EXPECT_EQ(oa.correction_a, ob.correction_a);
    EXPECT_EQ(oa.period_integral, ob.period_integral);
    EXPECT_EQ(oa.period_time, ob.period_time);
    EXPECT_EQ(a.front_end().mux().save_state().since_switch_s,
              b.front_end().mux().save_state().since_switch_s);
    const digital::UpDownCounter::State ca = a.counter().save_state();
    const digital::UpDownCounter::State cb = b.counter().save_state();
    EXPECT_EQ(ca.tick_accumulator, cb.tick_accumulator);
    EXPECT_EQ(ca.active_ticks, cb.active_ticks);
}

/// An Auto fleet and its PerMember reference, members at distinct
/// headings, changed only through both().
class CohortFleets {
public:
    CohortFleets() {
        reference_.set_execution(compass::FleetExecution::PerMember);
        std::vector<double> headings;
        for (int i = 0; i < kCohortFleet; ++i) headings.push_back(i * 21.0 + 2.0);
        lanes_.set_environments(site(), headings);
        reference_.set_environments(site(), headings);
    }

    /// Applies `f` to member i of both fleets.
    void both(int i, const std::function<void(compass::Compass&)>& f) {
        f(lanes_.at(i));
        f(reference_.at(i));
    }

    /// Sweeps both fleets, asserts they agree bit for bit and returns
    /// the Auto sweep's excitation choices.
    ExcitationCounts sweep() {
        const std::uint64_t shared0 = sim::shared_excitation_count();
        const std::uint64_t per_lane0 = sim::per_lane_excitation_count();
        const std::vector<compass::FleetResult> a = lanes_.measure_all_results(1);
        const ExcitationCounts counts{sim::shared_excitation_count() - shared0,
                                      sim::per_lane_excitation_count() - per_lane0};
        const std::vector<compass::FleetResult> b = reference_.measure_all_results(1);
        for (int i = 0; i < kCohortFleet; ++i) {
            SCOPED_TRACE(testing::Message() << "member " << i);
            const auto u = static_cast<std::size_t>(i);
            EXPECT_TRUE(a[u].ok) << a[u].error;
            EXPECT_TRUE(b[u].ok) << b[u].error;
            expect_bit_identical(a[u].measurement, b[u].measurement);
            expect_same_excitation_state(lanes_.at(i), reference_.at(i));
        }
        return counts;
    }

private:
    compass::CompassFleet lanes_{kCohortFleet, lite_config()};
    compass::CompassFleet reference_{kCohortFleet, lite_config()};
};

// (a) Members built from one config stay lockstep sweep after sweep.
TEST(LaneCohort, LockstepFleetSharesEveryGroupAdvance) {
    CohortFleets fleets;
    for (int sweep = 0; sweep < 2; ++sweep) {
        SCOPED_TRACE(sweep);
        const ExcitationCounts c = fleets.sweep();
        EXPECT_EQ(c.shared, kStagesPerSweep * cohort_groups());
        EXPECT_EQ(c.per_lane, 0u);
    }
}

// (b) One extra measurement moves a member's oscillator on: its group
// runs the per-lane pass on every stage, the other groups still share.
TEST(LaneCohort, ExtraMeasurementSplitsOnlyItsGroup) {
    CohortFleets fleets;
    static_cast<void>(fleets.sweep());
    fleets.both(3, [](compass::Compass& c) { static_cast<void>(c.measure()); });
    const ExcitationCounts c = fleets.sweep();
    EXPECT_EQ(c.shared, kStagesPerSweep * (cohort_groups() - 1));
    EXPECT_EQ(c.per_lane, kStagesPerSweep);
}

// (c) Oscillator faults are excitation inputs: a frequency or an
// amplitude fault splits the faulted member's group.
TEST(LaneCohort, OscillatorFaultSplitsItsGroup) {
    analog::OscillatorFault frequency;
    frequency.frequency_scale = 1.003;
    analog::OscillatorFault amplitude;
    amplitude.amplitude_scale = 0.97;
    for (const auto& [member, fault] :
         {std::pair{3, frequency}, std::pair{kCohortFleet - 3, amplitude}}) {
        SCOPED_TRACE(member);
        CohortFleets fleets;
        fleets.both(member, [&fault](compass::Compass& c) {
            c.front_end().oscillator().set_fault(fault);
        });
        const ExcitationCounts c = fleets.sweep();
        EXPECT_EQ(c.shared, kStagesPerSweep * (cohort_groups() - 1));
        EXPECT_EQ(c.per_lane, kStagesPerSweep);
    }
}

// (d) The mux's time since switch is part of the excitation key: a lane
// ahead on it splits its group on the x stages, and the switch to y
// (which restarts every lane's timer) brings the group back.
TEST(LaneCohort, MuxTimerSplitsItsGroupUntilTheNextSwitch) {
    CohortFleets fleets;
    fleets.both(5, [](compass::Compass& c) {
        c.front_end().mux().load_state({analog::Channel::X, 20e-6});
    });
    const ExcitationCounts c = fleets.sweep();
    EXPECT_EQ(c.shared, kStagesPerSweep * cohort_groups() - 2);
    EXPECT_EQ(c.per_lane, 2u);
}

// (d) The counter's accumulator is not an excitation input: a lane whose
// clock phase differs still shares the excitation, but its counter must
// keep its own clock.
TEST(LaneCohort, CounterAccumulatorSharesExcitationButNotTheClock) {
    CohortFleets fleets;
    fleets.both(kCohortFleet - 6, [](compass::Compass& c) {
        c.counter().load_state({0.5, 0, 0});
    });
    const ExcitationCounts c = fleets.sweep();
    EXPECT_EQ(c.shared, kStagesPerSweep * cohort_groups());
    EXPECT_EQ(c.per_lane, 0u);
}

}  // namespace
