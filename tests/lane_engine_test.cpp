// Tests for the SoA SIMD lane engine (sim/lane_engine.hpp) and its
// integration seams: the plain-lane predicate and the per-advance
// routing of PlanExecutor::run_lanes, the CompassFleet Auto dispatch,
// the one-compile-per-fleet contract, per-lane fault eviction, cohorts
// and the sweep's allocations. The load-bearing property
// throughout is bit identity with the per-member scalar path — doubles
// compare with ==, counts with !=.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
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
#include "magnetics/field_source.hpp"
#include "magnetics/scenario.hpp"
#include "magnetics/units.hpp"
#include "sim/engine.hpp"
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

/// Short windows at 0.512 clock periods per sample (1,024 samples per
/// 8 kHz period), so every counter is under the one-bit clock and a
/// plain lane's Count stages take the lane kernel.
compass::CompassConfig lite_config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 1024;
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

/// Pipeline state plus the excitation state cohorts share: the
/// oscillator, the mux timer and the counter clock.
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

/// Builds `n` members from per-index configs/headings, runs the
/// reference members one by one with the scalar engine and the lane
/// members as one run_lanes call, and asserts bit identity slot by
/// slot (results, post-run pipeline and excitation state). `customize` (optional)
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
            expect_same_excitation_state(*lane[static_cast<std::size_t>(i)],
                                         *ref[static_cast<std::size_t>(i)]);
        }
    }
}

// Each backend's name goes with its width (DESIGN.md section 12). That
// the test binary sees the same backend as fxg_sim is
// Simd.ConsumerSeesTheBackendItsLibrariesWereBuiltFor.
TEST(LaneEngine, BackendSanity) {
    const std::map<std::string, int> widths{
        {"avx512", 8}, {"avx2", 4}, {"scalar", 4}};
    const auto it = widths.find(sim::LaneEngine::backend_name());
    ASSERT_NE(it, widths.end()) << sim::LaneEngine::backend_name();
    EXPECT_EQ(sim::LaneEngine::lanes_per_stripe(), it->second);
}

/// A stream fault written for these tests: from sample 300 on it clears
/// the valid flag of every seventh sample of channel x and inverts the
/// detector on samples whose index has bit 4 set, a pure function of
/// the sample index as the SampleTap contract requires.
class StripeTap final : public analog::SampleTap {
public:
    void on_samples(std::uint64_t first_index, int n, std::uint64_t* detector_x,
                    std::uint64_t*, std::uint64_t* valid_x, std::uint64_t*) override {
        for (int k = 0; k < n; ++k) {
            const std::uint64_t index = first_index + static_cast<std::uint64_t>(k);
            if (index < 300) continue;
            const std::uint64_t bit = std::uint64_t{1} << (k % 64);
            if (index % 7 == 0) valid_x[k / 64] &= ~bit;
            if ((index & 16) != 0) detector_x[k / 64] ^= bit;
        }
    }
};

/// Holds one field up to sample 100 and another from there on.
class StepAt100Source final : public magnetics::FieldSource {
public:
    [[nodiscard]] magnetics::FieldTick field_at(std::uint64_t k) const override {
        return {k < 100 ? 20.0 : 35.0, -12.0, 25.0};
    }
    [[nodiscard]] std::uint64_t constant_until(std::uint64_t begin,
                                               magnetics::FieldTick* tick) const override {
        if (tick != nullptr) *tick = field_at(begin);
        return begin < 100 ? 100 : kForever;
    }
};

// The one predicate: a default lane is plain, and each clause refuses a
// lane on its own. The counter clauses apply only to an advance that
// clocks the counter.
TEST(LaneEngine, Eligibility) {
    // 2,048-sample advances at 0.256 clock periods per sample.
    const auto plain = [](analog::FrontEnd& fe, digital::UpDownCounter* counter,
                          int steps = 2048) {
        double energy_j = 0.0;
        return sim::LaneEngine::plain({&fe, counter, &energy_j}, analog::Channel::X, steps,
                                      125e-6 / 2048);
    };
    digital::UpDownCounter ideal;
    analog::FrontEnd clean;
    EXPECT_TRUE(plain(clean, &ideal));
    EXPECT_TRUE(plain(clean, nullptr));

    analog::FrontEndConfig simultaneous;
    simultaneous.mode = analog::FrontEndMode::Simultaneous;
    analog::FrontEnd sim_mode(simultaneous);
    EXPECT_FALSE(plain(sim_mode, &ideal));

    // Pickup noise rides along: each lane draws its member's stream.
    analog::FrontEndConfig noisy;
    noisy.pickup_noise_rms_v = 50e-6;
    analog::FrontEnd noisy_fe(noisy);
    EXPECT_TRUE(plain(noisy_fe, &ideal));

    StripeTap tap;
    analog::FrontEnd tapped;
    tapped.set_sample_tap(&tap);
    EXPECT_FALSE(plain(tapped, &ideal));
    EXPECT_FALSE(plain(tapped, nullptr));

    analog::FrontEnd gated;
    gated.enable(false);
    EXPECT_FALSE(plain(gated, &ideal));
    EXPECT_FALSE(plain(gated, nullptr));

    for (const sensor::CoreKind kind :
         {sensor::CoreKind::Langevin, sensor::CoreKind::JilesAtherton}) {
        analog::FrontEndConfig cfg;
        cfg.core_kind = kind;
        analog::FrontEnd other_core(cfg);
        EXPECT_FALSE(plain(other_core, &ideal));
        EXPECT_FALSE(plain(other_core, nullptr));
    }

    analog::FrontEnd moving;
    moving.set_field_source(std::make_shared<const StepAt100Source>());
    EXPECT_FALSE(plain(moving, &ideal));
    EXPECT_FALSE(plain(moving, nullptr));
    EXPECT_TRUE(plain(moving, &ideal, 64));  // holds over [0, 64)
    EXPECT_TRUE(plain(moving, &ideal, 100));

    // A register with an engaged hardware model, a clock at >= 1 period
    // per sample and a restored accumulator outside [0, 1) each refuse
    // a counting advance, and none refuses one the counter sits out. A
    // mux on the other channel refuses the advance, counting or not.
    digital::CounterHardware narrow;
    narrow.width_bits = 8;
    digital::UpDownCounter wraps;
    wraps.set_hardware(narrow);
    digital::UpDownCounter fast(4 * 4194304.0);  // 1.024 periods per sample
    digital::UpDownCounter restored;
    restored.load_state({1.5, 0, 0});
    for (digital::UpDownCounter* counter : {&wraps, &fast, &restored}) {
        EXPECT_FALSE(plain(clean, counter));
        counter->enable(false);
        EXPECT_TRUE(plain(clean, counter));
        counter->enable(true);
        clean.select(analog::Channel::Y);  // counting x, the mux on y
        EXPECT_FALSE(plain(clean, counter));
        EXPECT_FALSE(plain(clean, nullptr));
        clean.select(analog::Channel::X);
    }
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

// An armed injector taps its member, whatever the fault (a parametric
// oscillator or comparator fault, a stuck mux, a stream fault), so
// members 0-3 advance through their own engines inside the batch;
// member 4 (a register that wraps) does so on its Count stages, and
// member 5 carries no fault. At 256 samples per period the clock ticks
// 2.048 times a sample and every Count stage leaves the kernel; at
// 1,024 it ticks 0.512 times and the kernel counts member 5. Every
// member matches its scalar run bit for bit.
TEST(LaneEngine, FaultedLanesMatchScalar) {
    constexpr int kN = 6;
    constexpr int kFaulted = 4;
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
    for (const int steps_per_period : {256, 1024}) {
        SCOPED_TRACE(testing::Message() << steps_per_period << " samples per period");
        compass::CompassConfig base = lite_config();
        base.steps_per_period = steps_per_period;
        std::vector<std::unique_ptr<compass::Compass>> ref;
        std::vector<std::unique_ptr<compass::Compass>> lane;
        std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
        digital::CounterHardware narrow;
        narrow.width_bits = 8;
        for (int i = 0; i < kN; ++i) {
            compass::CompassConfig cfg = base;
            cfg.engine = sim::EngineKind::Scalar;
            ref.push_back(std::make_unique<compass::Compass>(cfg));
            lane.push_back(std::make_unique<compass::Compass>(base));
            for (compass::Compass* c : {ref.back().get(), lane.back().get()}) {
                c->set_environment(site(), i * 90.0 + 15.0);
                if (i < kFaulted) {
                    injectors.push_back(std::make_unique<fault::FaultInjector>());
                    injectors.back()->add(fault_for(i));
                    injectors.back()->arm(*c);
                } else if (i == kFaulted) {
                    c->counter().set_hardware(narrow);
                }
            }
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
        EXPECT_TRUE(lane[kFaulted]->counter().overflowed());
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

// An ineligible lane (simultaneous front end) stays in the batch and
// advances through its own engine, with the same outcomes.
TEST(LaneEngine, IneligibleLaneAdvancesThroughItsOwnEngineInTheBatch) {
    compass::CompassConfig simultaneous = lite_config();
    simultaneous.front_end.mode = analog::FrontEndMode::Simultaneous;
    std::vector<compass::CompassConfig> configs = {lite_config(), simultaneous,
                                                   lite_config()};
    std::vector<double> headings = {10.0, 130.0, 250.0};
    three_way_check(configs, headings);
}

// A member gated off for its whole measurement (no power gating in the
// plan, so nothing enables it) counts nothing and burns leakage power
// only; in a batch it advances through its own engine, as it does alone.
TEST(LaneEngine, GatedOffMemberMatchesItsScalarRun) {
    compass::CompassConfig cfg;
    cfg.power_gating = false;
    compass::CompassConfig scalar_cfg = cfg;
    scalar_cfg.engine = sim::EngineKind::Scalar;
    compass::Compass ref(scalar_cfg);
    compass::Compass lane(cfg);
    for (compass::Compass* c : {&ref, &lane}) {
        c->set_environment(site(), 100.0);
        c->front_end().enable(false);
    }
    compass::Compass* lanes[] = {&lane};
    compass::LaneOutcome out[1];
    compass::PlanExecutor::run_lanes(lane.plan(), lanes, out);
    const compass::Measurement expect = ref.measure();
    EXPECT_EQ(expect.count_x, 0);
    EXPECT_EQ(expect.count_y, 0);
    ASSERT_FALSE(out[0].aborted) << out[0].error;
    expect_bit_identical(out[0].measurement, expect);
    expect_same_pipeline_state(lane, ref);
}

// Routing is per advance: a lane whose scenario holds through one
// measurement, turns through the next and holds again takes the kernel,
// then its own engine, then the kernel again, and matches its scalar run
// after each measurement.
TEST(LaneEngine, ScenarioLaneTakesTheKernelOnlyWhileItsFieldHolds) {
    const compass::CompassConfig cfg = lite_config();
    const compass::MeasurementPlan plan = compass::compile_plan(cfg);
    const double measure_s = static_cast<double>(plan.total_steps()) * plan.dt_s;
    magnetics::Scenario scn;
    scn.field = site();
    scn.initial_heading_deg = 40.0;
    scn.hold(measure_s).turn(2.0e4, measure_s).hold(measure_s);
    const auto src = magnetics::compile_scenario(scn, plan.dt_s);
    compass::CompassConfig scalar_cfg = cfg;
    scalar_cfg.engine = sim::EngineKind::Scalar;
    compass::Compass ref(scalar_cfg);
    compass::Compass lane(cfg);
    ref.set_field_source(src);
    lane.set_field_source(src);
    compass::Compass* lanes[] = {&lane};
    for (const bool held : {true, false, true}) {
        SCOPED_TRACE(held ? "held" : "turning");
        const std::uint64_t before = sim::group_advance_count();
        compass::LaneOutcome out[1];
        compass::PlanExecutor::run_lanes(plan, lanes, out);
        ASSERT_FALSE(out[0].aborted) << out[0].error;
        expect_bit_identical(out[0].measurement, ref.measure());
        expect_same_pipeline_state(lane, ref);
        EXPECT_EQ(sim::group_advance_count() > before, held);
    }
}

// A ReExcite plan runs in the batch too: the power cycle is a per-lane
// stage, a simultaneous-mode lane advances through its own engine, a
// trapping lane leaves the batch, and the lane kernel still advances
// the others. Every lane matches its per-member scalar run.
TEST(LaneEngine, ReExcitePlanRunsThroughTheLaneKernel) {
    constexpr int kN = 9;  // a remainder stripe on both backends
    constexpr int kSimultaneous = 3;
    constexpr int kTrap = 6;
    const auto build = [&](sim::EngineKind engine) {
        std::vector<std::unique_ptr<compass::Compass>> members;
        for (int i = 0; i < kN; ++i) {
            compass::CompassConfig cfg = lite_config();
            cfg.engine = engine;
            if (i == kSimultaneous) {
                cfg.front_end.mode = analog::FrontEndMode::Simultaneous;
            }
            members.push_back(std::make_unique<compass::Compass>(cfg));
            members.back()->set_environment(site(), i * 37.0 + 11.0);
            // A first measurement leaves state for the power cycle to reset.
            static_cast<void>(members.back()->measure());
            if (i == kTrap) {
                digital::CounterHardware hw;
                hw.width_bits = 8;
                hw.trap_on_overflow = true;
                members.back()->counter().set_hardware(hw);
            }
        }
        return members;
    };
    auto ref = build(sim::EngineKind::Scalar);
    auto lane = build(sim::EngineKind::Block);
    const compass::MeasurementPlan re = compass::with_re_excite(lane[0]->plan());
    std::vector<compass::Compass*> lanes;
    for (auto& c : lane) lanes.push_back(c.get());
    std::vector<compass::LaneOutcome> out(kN);
    const std::uint64_t before = sim::group_advance_count();
    compass::PlanExecutor::run_lanes(re, lanes, out);
    EXPECT_GT(sim::group_advance_count(), before);

    for (int i = 0; i < kN; ++i) {
        SCOPED_TRACE(testing::Message() << "member " << i);
        const auto u = static_cast<std::size_t>(i);
        compass::PlanExecutor reference(*ref[u]);
        if (i == kTrap) {
            EXPECT_THROW(static_cast<void>(reference.run(re)), std::overflow_error);
            EXPECT_TRUE(out[u].aborted);
            EXPECT_EQ(out[u].error, "UpDownCounter: register overflow");
        } else {
            const compass::Measurement expect = reference.run(re);
            ASSERT_FALSE(out[u].aborted) << out[u].error;
            expect_bit_identical(out[u].measurement, expect);
        }
        expect_same_pipeline_state(*lane[u], *ref[u]);
    }
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

/// A span tree as text: name, channel (when set), "=" value, children
/// in begin order inside braces.
std::string render_tree(const std::vector<telemetry::SpanRecord>& spans,
                        telemetry::SpanId parent = telemetry::kNoSpan) {
    std::string out;
    for (const telemetry::SpanRecord& s : spans) {
        if (s.parent != parent) continue;
        if (!out.empty()) out += ' ';
        out += s.name;
        if (s.channel != telemetry::kNoChannel) out += std::to_string(s.channel);
        out += '=' + std::to_string(s.value);
        const std::string children = render_tree(spans, s.id);
        if (!children.empty()) out += '{' + children + '}';
    }
    return out;
}

// When lane 0 traps at its x count, the batch still emits one whole
// tree on lanes[0]'s sink, and the count values in it come from the
// first lane left in the batch (lane 1). Lane 0's register is not ideal,
// so its x count advances through its own engine, whose span joins the
// tree: every lane here traces into the one session.
TEST(LaneEngine, BatchTreeOutlivesATrapOnLaneZero) {
    constexpr int kN = 3;
    telemetry::TraceSession session;
    std::vector<std::unique_ptr<compass::Compass>> members;
    std::vector<compass::Compass*> lanes;
    for (int i = 0; i < kN; ++i) {
        members.push_back(std::make_unique<compass::Compass>(lite_config()));
        members.back()->set_environment(site(), i * 111.0 + 9.0);
        members.back()->set_telemetry(&session);
        lanes.push_back(members.back().get());
    }
    digital::CounterHardware hw;
    hw.width_bits = 8;
    hw.trap_on_overflow = true;
    members[0]->counter().set_hardware(hw);
    std::vector<compass::LaneOutcome> out(kN);
    compass::PlanExecutor::run_lanes(members[0]->plan(), lanes, out);
    ASSERT_TRUE(out[0].aborted);
    ASSERT_FALSE(out[1].aborted) << out[1].error;

    const compass::Measurement& m = out[1].measurement;
    digital::CordicResult cordic;
    static_cast<void>(members[1]->cordic().heading_deg(m.count_x, m.count_y, &cordic));
    const std::string settle = std::to_string(lite_config().settle_periods *
                                              lite_config().steps_per_period);
    const std::string count = std::to_string(lite_config().periods_per_axis *
                                             lite_config().steps_per_period);
    const auto axis = [&](int ch, std::int64_t value, const std::string& own_engine) {
        const std::string c = std::to_string(ch);
        const std::string v = std::to_string(value);
        return "axis" + c + "=" + v + "{excite" + c + "=0 settle" + c + "=" + settle +
               "{engine.lanes" + c + "=" + settle + "} count" + c + "=" + v + "{" +
               own_engine + "engine.lanes" + c + "=" + count + "}}";
    };
    EXPECT_EQ(render_tree(session.spans()),
              "measure=0{" + axis(0, m.count_x, "engine.block0=" + count + " ") + " " +
                  axis(1, m.count_y, "") + " cordic=" + std::to_string(cordic.rotations) +
                  "}");
}

// ------------------------------------------------ Pass B's sensor body
//
// The kernel advances U samples of every stripe per iteration of its
// tanh-core body, with a U = 1 tail. These tests drive LaneEngine
// directly with advances that end inside a U block, and compare every
// stage of every member with the member stepped alone through the
// scalar engine.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_front_end(analog::FrontEnd& a, analog::FrontEnd& b) {
    const analog::TriangleOscillator::State oa = a.oscillator().save_state();
    const analog::TriangleOscillator::State ob = b.oscillator().save_state();
    EXPECT_EQ(bits(oa.phase), bits(ob.phase));
    EXPECT_EQ(bits(oa.output), bits(ob.output));
    EXPECT_EQ(bits(oa.correction_a), bits(ob.correction_a));
    EXPECT_EQ(bits(a.mux().save_state().since_switch_s),
              bits(b.mux().save_state().since_switch_s));
    for (const analog::Channel ch : {analog::Channel::X, analog::Channel::Y}) {
        SCOPED_TRACE(ch == analog::Channel::X ? "channel x" : "channel y");
        const sensor::FluxgateSensor::State sa = a.sensor(ch).save_state();
        const sensor::FluxgateSensor::State sb = b.sensor(ch).save_state();
        EXPECT_EQ(bits(sa.h_core), bits(sb.h_core));
        EXPECT_EQ(bits(sa.b_core), bits(sb.b_core));
        EXPECT_EQ(bits(sa.v_pickup), bits(sb.v_pickup));
        EXPECT_EQ(bits(sa.v_excitation), bits(sb.v_excitation));
        EXPECT_EQ(bits(sa.lambda_pickup_prev), bits(sb.lambda_pickup_prev));
        EXPECT_EQ(bits(sa.lambda_exc_prev), bits(sb.lambda_exc_prev));
        EXPECT_EQ(sa.first_step, sb.first_step);
        EXPECT_EQ(a.sensor(ch).core().save_state(), b.sensor(ch).core().save_state());
        const analog::PulsePositionDetector::State da = a.detector(ch).save_state();
        const analog::PulsePositionDetector::State db = b.detector(ch).save_state();
        EXPECT_EQ(da.positive, db.positive);
        EXPECT_EQ(da.negative, db.negative);
        EXPECT_EQ(da.out, db.out);
        const analog::StreamStats st_a = a.stream_stats(ch);
        const analog::StreamStats st_b = b.stream_stats(ch);
        EXPECT_EQ(st_a.samples, st_b.samples);
        EXPECT_EQ(st_a.valid_samples, st_b.valid_samples);
        EXPECT_EQ(st_a.high_samples, st_b.high_samples);
        EXPECT_EQ(st_a.edges, st_b.edges);
    }
}

/// Members built from `configs` and set up by `prepare` advance by each
/// count in `advances` in turn, counting channel x: one LaneEngine batch
/// against every member alone on the scalar engine.
void expect_lane_advances_match_scalar(
    const std::vector<analog::FrontEndConfig>& configs, const std::vector<int>& advances,
    const std::function<void(int, analog::FrontEnd&)>& prepare, double dt_s = 125e-6 / 2048) {
    const std::size_t n = configs.size();
    std::vector<std::unique_ptr<analog::FrontEnd>> ref, lane;
    std::vector<digital::UpDownCounter> ref_ctr(n), lane_ctr(n);
    std::vector<double> ref_e(n, 0.0), lane_e(n, 0.0);
    std::vector<sim::LanePort> ports;
    for (std::size_t i = 0; i < n; ++i) {
        ref.push_back(std::make_unique<analog::FrontEnd>(configs[i]));
        lane.push_back(std::make_unique<analog::FrontEnd>(configs[i]));
        for (analog::FrontEnd* fe : {ref.back().get(), lane.back().get()}) {
            fe->enable(true);
            fe->set_field(analog::Channel::X, 20.0 + 3.0 * static_cast<double>(i));
            fe->set_field(analog::Channel::Y, -12.0 + static_cast<double>(i));
            prepare(static_cast<int>(i), *fe);
        }
        ports.push_back({lane.back().get(), &lane_ctr[i], &lane_e[i]});
    }
    sim::ScalarEngine scalar;
    sim::LaneEngine engine;
    int done = 0;
    for (const int steps : advances) {
        done += steps;
        SCOPED_TRACE(testing::Message() << "advance of " << steps << ", " << done << " samples");
        engine.advance(ports.data(), static_cast<int>(n), analog::Channel::X, steps, dt_s);
        for (std::size_t i = 0; i < n; ++i) {
            scalar.advance(*ref[i], analog::Channel::X, steps, dt_s, &ref_ctr[i], ref_e[i]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            SCOPED_TRACE(testing::Message() << "member " << i);
            expect_same_front_end(*ref[i], *lane[i]);
            EXPECT_EQ(ref_ctr[i].count(), lane_ctr[i].count());
            EXPECT_EQ(ref_ctr[i].active_ticks(), lane_ctr[i].active_ticks());
            EXPECT_EQ(bits(ref_ctr[i].save_state().tick_accumulator),
                      bits(lane_ctr[i].save_state().tick_accumulator));
            EXPECT_EQ(ref_ctr[i].overflowed(), lane_ctr[i].overflowed());
            EXPECT_EQ(bits(ref_e[i]), bits(lane_e[i]));
        }
    }
}

// Advances that end inside a U block and in its tail, advances that end
// on a block's last sample (4, 64, 128), then a whole excitation period,
// so the pickup pulses reach the detectors and counters.
const std::vector<int> kOddAdvances = {1, 2, 3, 5, 63, 65, 130, 4, 64, 128, 2048};

TEST(LaneEngine, AdvancesEndingInsideAWideBlockMatchScalar) {
    // Nine members: a full stripe plus a partial one on every backend.
    const std::vector<analog::FrontEndConfig> configs(9);
    expect_lane_advances_match_scalar(configs, kOddAdvances, [](int, analog::FrontEnd&) {});
}

TEST(LaneEngine, FreshSensorsFirstSampleInsideTheWideBodyMatchesScalar) {
    // The first advance is long, so a fresh sensor's first sample (the
    // one without a derivative) is sample 0 of a U-wide block, and
    // sample u's previous linkage is sample u - 1's from then on.
    const std::vector<analog::FrontEndConfig> configs(5);
    expect_lane_advances_match_scalar(configs, {128, 65, 63, 5, 3, 2, 1, 2048},
                                      [](int, analog::FrontEnd&) {});
}

TEST(LaneEngine, DivisorsOutsideTheReciprocalRangeTakeTheExactDivide) {
    // A subnormal Hk and a subnormal dt lie outside the range where
    // div_by's reciprocal path is exact (their reciprocals overflow, and
    // h * inf - h * inf is NaN where h / Hk is inf), so the kernel
    // divides through div on those branches and must still match.
    std::vector<analog::FrontEndConfig> configs(3);
    configs[1].sensor.hk_a_per_m = 1e-320;
    const std::uint64_t checked0 = sim::checked_division_tile_count();
    expect_lane_advances_match_scalar(configs, kOddAdvances, [](int, analog::FrontEnd&) {});
    expect_lane_advances_match_scalar(std::vector<analog::FrontEndConfig>(3), kOddAdvances,
                                      [](int, analog::FrontEnd&) {}, 1e-320);
    EXPECT_GT(sim::checked_division_tile_count(), checked0);
}

// Member 1's axial field is 1e-310 A/m and its excitation has collapsed
// (an amplitude fault of 0, so its drive current is 0), so its h is
// subnormal on every sample: outside the bounds from which the kernel
// proves Pass B's numerators in range (DESIGN.md section 12). Its group
// divides through div_by's checked form on every tile, which sends the
// subnormal quotients to div, and must match the scalar run.
TEST(LaneEngine, SubnormalFieldTakesTheCheckedDivisionAndMatchesScalar) {
    const std::uint64_t checked0 = sim::checked_division_tile_count();
    expect_lane_advances_match_scalar(std::vector<analog::FrontEndConfig>(3), kOddAdvances,
                                      [](int i, analog::FrontEnd& fe) {
                                          if (i != 1) return;
                                          fe.set_field(analog::Channel::X, 1e-310);
                                          analog::OscillatorFault collapse;
                                          collapse.amplitude_scale = 0.0;
                                          fe.oscillator().set_fault(collapse);
                                      });
    // One group of three lanes; every tile of every advance is checked.
    std::uint64_t tiles = 0;
    for (const int steps : kOddAdvances) tiles += static_cast<std::uint64_t>((steps + 63) / 64);
    EXPECT_EQ(sim::checked_division_tile_count() - checked0, tiles);
}

// ----------------------------------------------------- Pass C on words
//
// Pass C stores each comparison across the group's lanes as one byte per
// sample, transposes each 64-sample plane into one word per lane, and
// runs the block path's word code on each lane's words. The tests that
// drive LaneEngine directly run their counters at 0.256 clock periods per
// sample (dt = 125 us / 2048), under the one-bit clock; the batch-level
// tests put members that leave the kernel beside plain lanes.

/// Starts member `i`'s mux timer `since_s` into its settling time, so it
/// settles at its own sample and forms a cohort of its own.
void stagger_mux(analog::FrontEnd& fe, double since_s) {
    fe.mux().load_state({analog::Channel::X, since_s});
}

/// Group advances, excitation passes and checked division tiles `run`
/// adds.
struct CohortCounts {
    std::uint64_t groups = 0;
    std::uint64_t passes = 0;
    std::uint64_t checked = 0;
};

CohortCounts count_cohorts(const std::function<void()>& run) {
    const std::uint64_t groups0 = sim::group_advance_count();
    const std::uint64_t passes0 = sim::excitation_pass_count();
    const std::uint64_t checked0 = sim::checked_division_tile_count();
    run();
    return {sim::group_advance_count() - groups0, sim::excitation_pass_count() - passes0,
            sim::checked_division_tile_count() - checked0};
}

TEST(LaneEngine, SettleEdgeInsideATileMatchesScalarInOneAndManyCohortGroups) {
    // A fresh mux settles at sample 819 (50 us of 61 ns samples): inside
    // tile 7 of the 600-sample advance, so that tile's valid word has
    // holes and takes the statistics' per-bit path. In the second run
    // members 2 and 6 settle at samples 491 and 163 instead, inside
    // other tiles: each is a cohort of its own with its own settle word.
    const std::vector<int> advances = {1, 63, 64, 65, 130, 600, 2048};
    const std::vector<analog::FrontEndConfig> configs(9);
    const CohortCounts lockstep = count_cohorts([&] {
        expect_lane_advances_match_scalar(configs, advances, [](int, analog::FrontEnd&) {});
    });
    // One batch per advance, of one cohort (one group on AVX-512, two on
    // AVX2 and the scalar backend).
    EXPECT_GE(lockstep.groups, advances.size());
    EXPECT_EQ(lockstep.passes, advances.size());
    EXPECT_EQ(lockstep.checked, 0u);
    const CohortCounts staggered = count_cohorts([&] {
        expect_lane_advances_match_scalar(configs, advances, [](int i, analog::FrontEnd& fe) {
            if (i == 2) stagger_mux(fe, 20e-6);
            if (i == 6) stagger_mux(fe, 40e-6);
        });
    });
    // Members 2 and 6 are a cohort each in every batch.
    EXPECT_EQ(staggered.groups, lockstep.groups);
    EXPECT_EQ(staggered.passes, 3 * advances.size());
}

TEST(LaneEngine, ManyCohortGroupMatchesScalarAcrossWordBoundaries) {
    // Member 3 is one default measurement (2 x 9 periods) ahead, as a
    // member whose ladder ran is, so it forms a cohort of its own.
    // Members 4k + 1 are a further 700 k samples ahead, so the lanes'
    // detectors sit at different points of the period, each in a cohort
    // of its own, and each lane must carry its own latch state from tile
    // to tile and advance to advance. The 2,048-sample advances bring
    // the pickup pulses, so the latches toggle inside words and at their
    // edges.
    const std::vector<int> advances = {1, 63, 64, 65, 130, 2048, 1, 63, 64, 65, 130, 2048};
    const std::vector<analog::FrontEndConfig> configs(2 * util::simd::kLanes);
    const CohortCounts c = count_cohorts([&] {
        expect_lane_advances_match_scalar(configs, advances, [](int i, analog::FrontEnd& fe) {
            const int ahead = i == 3 ? 2 * 9 * 2048 : i % 4 == 1 ? 700 * (i / 4 + 1) : 0;
            for (int k = 0; k < ahead; ++k) static_cast<void>(fe.step(125e-6 / 2048));
        });
    });
    // One group per advance; the plain lanes, member 3 and each of the
    // kLanes / 2 members 4k + 1 are its cohorts.
    EXPECT_EQ(c.groups, advances.size());
    EXPECT_EQ(c.passes, c.groups * (2 + util::simd::kLanes / 2));
}

TEST(LaneEngine, CountersOutsideTheOneBitClockKeepTheirOwnClock) {
    // Member 2's clock runs at 1.28 periods per sample, so a sample can
    // carry two ticks; member 5 restarts from an accumulator of 1.5 at
    // 0.768 periods per sample, so its first sample carries two. Their
    // counting advances go through their own engines (member 5's only
    // until its accumulator is back in [0, 1), and from then on in a
    // cohort of its own, its clock being its own), the plain members'
    // through the kernel's one-bit fold. With member 4's mux staggered,
    // member 4 is a cohort of its own on the first measurement's two x
    // stages.
    std::vector<compass::CompassConfig> configs(7, lite_config());
    configs[2].counter_clock_hz = 2.5 * 4194304.0;
    configs[5].counter_clock_hz = 1.5 * 4194304.0;
    std::vector<double> headings;
    for (int i = 0; i < 7; ++i) headings.push_back(i * 47.0 + 13.0);
    CohortCounts counts[2];
    for (const bool stagger : {false, true}) {
        SCOPED_TRACE(stagger ? "member 4 staggered" : "no stagger");
        counts[stagger ? 1 : 0] = count_cohorts([&] {
            three_way_check(configs, headings, [stagger](int i, compass::Compass& c) {
                if (i == 5) c.counter().load_state({1.5, 0, 0});
                if (stagger && i == 4) {
                    c.front_end().mux().load_state({analog::Channel::X, 30e-6});
                }
            });
        });
    }
    // One batch per advance; member 5's cohort adds passes on the Count
    // stages where it is back under the one-bit clock.
    EXPECT_GT(counts[0].groups, 0u);
    EXPECT_GT(counts[0].passes, 2 * 4u);
    EXPECT_EQ(counts[1].groups, counts[0].groups);
    EXPECT_EQ(counts[1].passes, counts[0].passes + 2);
}

TEST(LaneEngine, TapHardwareCounterAndPlainLanesShareAGroup) {
    // Member 1 has a tap, member 4 a 3-bit register that wraps; the other
    // members are plain lanes whose counters the kernel folds. The tapped
    // member advances through its own engine throughout, the wrapping
    // one on its Count stages, beside the kernel's group.
    const int n = 2 * util::simd::kLanes - 1;
    std::vector<double> headings;
    for (int i = 0; i < n; ++i) headings.push_back(i * 29.0 + 7.0);
    StripeTap tap;
    digital::CounterHardware narrow;
    narrow.width_bits = 3;
    const CohortCounts c = count_cohorts([&] {
        three_way_check(std::vector<compass::CompassConfig>(n, lite_config()), headings,
                        [&](int i, compass::Compass& c) {
                            if (i == 1) c.front_end().set_sample_tap(&tap);
                            if (i == 4) c.counter().set_hardware(narrow);
                        });
    });
    EXPECT_GT(c.groups, 0u);
}

// A mux stuck on y with no injector armed (set_mux_stuck directly, as a
// restored snapshot of a faulted member can leave it) sits on y through
// the x stages too: there member 2 is not plain and advances through its
// own engine, and on the y stages it takes the kernel, a cohort of its
// own (its mux timer has run since it stuck). Every advance still runs
// one kernel group of the other lanes.
TEST(LaneEngine, StuckMuxMemberMatchesScalarBesideTheKernel) {
    const int n = util::simd::kLanes + 1;  // one group with or without member 2
    std::vector<double> headings;
    for (int i = 0; i < n; ++i) headings.push_back(i * 31.0 + 9.0);
    const CohortCounts c = count_cohorts([&] {
        three_way_check(std::vector<compass::CompassConfig>(n, lite_config()), headings,
                        [](int i, compass::Compass& c) {
                            if (i == 2) c.front_end().set_mux_stuck(analog::Channel::Y);
                        });
    });
    // Two measurements of four advances (settle and count per axis).
    EXPECT_EQ(c.groups, 8u);
    EXPECT_EQ(c.passes, c.groups + 4);
}

// A refused advance changes no member: a zero dt in a lockstep group and
// in a diverged one (member 1 one sample ahead, a cohort of its own),
// and a gated-off port beside a plain one, each throw before the first
// gather. The ports settle (no counter), so only the dt check
// refuses a zero dt.
TEST(LaneEngine, RefusedAdvanceChangesNoMember) {
    constexpr double kDt = 125e-6 / 2048;
    struct Case {
        const char* name;
        double dt_s;
        bool diverged;
        bool gated;
    };
    for (const Case& rc : {Case{"lockstep, dt = 0", 0.0, false, false},
                           Case{"diverged, dt = 0", 0.0, true, false},
                           Case{"gated-off port", kDt, false, true}}) {
        SCOPED_TRACE(rc.name);
        std::vector<std::unique_ptr<analog::FrontEnd>> lane, before;
        std::vector<double> lane_e(2, 0.5), before_e(2, 0.5);
        std::vector<sim::LanePort> ports;
        for (int i = 0; i < 2; ++i) {
            lane.push_back(std::make_unique<analog::FrontEnd>());
            before.push_back(std::make_unique<analog::FrontEnd>());
            for (analog::FrontEnd* fe : {lane.back().get(), before.back().get()}) {
                fe->set_field(analog::Channel::X, 20.0);
                if (rc.diverged && i == 1) static_cast<void>(fe->step(kDt));
                if (rc.gated && i == 1) fe->enable(false);
            }
            ports.push_back({lane.back().get(), nullptr, &lane_e[static_cast<std::size_t>(i)]});
        }
        sim::LaneEngine engine;
        EXPECT_THROW(engine.advance(ports.data(), 2, analog::Channel::X, 64, rc.dt_s),
                     std::invalid_argument);
        for (std::size_t i = 0; i < 2; ++i) {
            SCOPED_TRACE(testing::Message() << "member " << i);
            expect_same_front_end(*before[i], *lane[i]);
            EXPECT_EQ(before[i]->samples_stepped(), lane[i]->samples_stepped());
            EXPECT_EQ(before[i]->enabled(), lane[i]->enabled());
            EXPECT_EQ(bits(before[i]->noise_filter_state()), bits(lane[i]->noise_filter_state()));
            EXPECT_EQ(bits(before_e[i]), bits(lane_e[i]));
        }
    }
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

// The lane kernel's scratch is tile-sized: tile buffers on the stack
// and batch records the thread keeps from sweep to sweep, so a clean
// sweep of the default config's 16,384-step count windows allocates no
// large block. The first two sweeps let the black box and the thread's
// batch records reach their steady size.
/// Blocks of 4 KiB or more that the third measure_all(1) of a fresh
/// default fleet of `members` allocates.
std::uint64_t third_sweep_large_blocks(int members) {
    compass::CompassFleet fleet(members);
    std::vector<double> headings;
    for (int i = 0; i < members; ++i) headings.push_back(i * 22.5);
    fleet.set_environments(site(), headings);
    static_cast<void>(fleet.measure_all(1));
    static_cast<void>(fleet.measure_all(1));
    const std::uint64_t before = g_large_blocks.load();
    static_cast<void>(fleet.measure_all(1));
    return g_large_blocks.load() - before;
}

TEST(CompassFleet, CleanSweepAllocatesNoLargeBlock) {
    EXPECT_EQ(third_sweep_large_blocks(16), 0u);
    // At 1,024 members (8 tasks of one 128-lane batch each) the sweep
    // allocates only the per-member vectors it returns or fills: the
    // results, the error slots and measure_all's copy. Its last sample
    // also falls due for a black-box snapshot, a render of the
    // registry's fixed instruments. The tasks' lanes and outcomes and
    // run_lanes' states and ports are per-thread scratch.
    EXPECT_LE(third_sweep_large_blocks(1024), 3u);
}

// A fleet's black box registers a fixed set of instruments: no series
// is keyed by member, so a render costs the same at any fleet size.
TEST(CompassFleet, RegistryDoesNotGrowWithTheFleet) {
    const auto names_after_one_sweep = [](int members) {
        compass::CompassFleet fleet(members, lite_config());
        std::vector<double> headings;
        for (int i = 0; i < members; ++i) headings.push_back(i * 22.5);
        fleet.set_environments(site(), headings);
        static_cast<void>(fleet.measure_all());
        std::vector<std::string> names;
        for (const auto& e : fleet.metrics().entries()) names.push_back(e.name);
        return names;
    };
    const std::vector<std::string> small = names_after_one_sweep(16);
    EXPECT_EQ(small.size(), 16u);
    EXPECT_EQ(names_after_one_sweep(1024), small);
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

// ------------------------------------------------------------ cohorts
//
// Each batch advance splits its lanes into cohorts whose excitation and
// clock inputs match bit for bit, and runs one excitation pass per
// cohort for all of the batch's groups (sim::excitation_pass_count,
// beside sim::group_advance_count). Each case compares an Auto fleet with
// a PerMember twin bit for bit, excitation state included, and pins the
// passes of one sweep. A 16-member fleet is one batch: one group on
// AVX-512, two on AVX2 and the scalar backend, and one pass per cohort
// on every backend.

constexpr int kCohortFleet = 16;
constexpr std::uint64_t kStagesPerSweep = 4;   // settle + count, two axes
constexpr std::uint64_t kSettlesPerSweep = 2;  // one settle per axis

/// Lane groups one advance of a kCohortFleet batch splits into.
std::uint64_t cohort_groups() {
    return kCohortFleet / (2 * sim::LaneEngine::lanes_per_stripe());
}

/// An Auto fleet and its PerMember reference, members at distinct
/// headings, changed only through both().
class CohortFleets {
public:
    explicit CohortFleets(const compass::CompassConfig& config = lite_config())
        : lanes_(kCohortFleet, config), reference_(kCohortFleet, config) {
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
    /// the Auto sweep's group advances and excitation passes.
    CohortCounts sweep() {
        std::vector<compass::FleetResult> a;
        const CohortCounts counts =
            count_cohorts([&] { a = lanes_.measure_all_results(1); });
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
    compass::CompassFleet lanes_;
    compass::CompassFleet reference_;
};

// (a) Members built from one config stay one cohort sweep after sweep:
// one pass per stage, whatever the number of groups, and every tile's
// numerators proven in range.
TEST(LaneCohort, LockstepFleetSharesEveryGroupAdvance) {
    CohortFleets fleets;
    for (int sweep = 0; sweep < 2; ++sweep) {
        SCOPED_TRACE(sweep);
        const CohortCounts c = fleets.sweep();
        EXPECT_EQ(c.groups, kStagesPerSweep * cohort_groups());
        EXPECT_EQ(c.passes, kStagesPerSweep);
        EXPECT_EQ(c.checked, 0u);
    }
}

// (b) One extra measurement moves a member's oscillator on: it is a
// cohort of its own on every stage, one more pass per stage.
TEST(LaneCohort, ExtraMeasurementSplitsOnlyItsGroup) {
    CohortFleets fleets;
    static_cast<void>(fleets.sweep());
    fleets.both(3, [](compass::Compass& c) { static_cast<void>(c.measure()); });
    const CohortCounts c = fleets.sweep();
    EXPECT_EQ(c.groups, kStagesPerSweep * cohort_groups());
    EXPECT_EQ(c.passes, 2 * kStagesPerSweep);
}

// (c) Oscillator faults are excitation inputs: a frequency or an
// amplitude fault puts the faulted member in a cohort of its own.
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
        const CohortCounts c = fleets.sweep();
        EXPECT_EQ(c.groups, kStagesPerSweep * cohort_groups());
        EXPECT_EQ(c.passes, 2 * kStagesPerSweep);
    }
}

// (d) The mux's time since switch is part of the cohort key: a lane
// ahead on it is a cohort of its own on the x stages, and the switch to
// y (which restarts every lane's timer) brings it back.
TEST(LaneCohort, MuxTimerSplitsItsGroupUntilTheNextSwitch) {
    CohortFleets fleets;
    fleets.both(5, [](compass::Compass& c) {
        c.front_end().mux().load_state({analog::Channel::X, 20e-6});
    });
    const CohortCounts c = fleets.sweep();
    EXPECT_EQ(c.groups, kStagesPerSweep * cohort_groups());
    EXPECT_EQ(c.passes, kStagesPerSweep + 2);
}

// (e) The counter's accumulator is part of the key only where the
// advance clocks the counter. At 1,024 samples per period (0.512 clock
// periods per sample) a lane whose clock phase differs is a cohort of
// its own on both Count stages, with its own tick word; at 256 (2.048)
// no counter is under the one-bit clock, so every Count stage leaves the
// kernel and only the settles run there, as one cohort.
TEST(LaneCohort, CounterAccumulatorSplitsItsGroupOnlyWhereItCounts) {
    for (const int steps_per_period : {256, 1024}) {
        SCOPED_TRACE(steps_per_period);
        compass::CompassConfig config = lite_config();
        config.steps_per_period = steps_per_period;
        CohortFleets fleets(config);
        fleets.both(kCohortFleet - 6, [](compass::Compass& c) {
            c.counter().load_state({0.5, 0, 0});
        });
        const CohortCounts c = fleets.sweep();
        const bool counts_in_kernel = steps_per_period == 1024;
        const std::uint64_t stages = counts_in_kernel ? kStagesPerSweep : kSettlesPerSweep;
        EXPECT_EQ(c.groups, stages * cohort_groups());
        EXPECT_EQ(c.passes, stages + (counts_in_kernel ? 2 : 0));
    }
}

// (f) A tapped member leaves the kernel on every advance, so however far
// its ladder has moved it on, the other members stay one cohort: member
// 0 armed DetectorStuckLow and one measurement ahead, as after its
// ladder, and every batch advance of the sweep runs one pass.
TEST(LaneCohort, TappedMemberLeavesItsGroup) {
    CohortFleets fleets;
    fault::FaultSpec stuck;
    stuck.fault = fault::FaultClass::DetectorStuckLow;
    stuck.channel = analog::Channel::X;
    fault::FaultInjector injectors[2];
    int armed = 0;
    fleets.both(0, [&](compass::Compass& c) {
        fault::FaultInjector& injector = injectors[armed++];
        injector.add(stuck);
        injector.arm(c);
        static_cast<void>(c.measure());
    });
    const CohortCounts c = fleets.sweep();
    EXPECT_EQ(c.groups, kStagesPerSweep * cohort_groups());
    EXPECT_EQ(c.passes, kStagesPerSweep);
}

// (g) One group of many cohorts, each diverged in one input, beside
// plain lanes: member 1 has a frequency fault (its own drive and
// power), member 2 its mux timer ahead (its own settle word), member 3
// another clock phase (its own tick word) and member 4 one measurement
// more (its own oscillator state on every stage). All four lie inside
// the first two stripes, so they share a group on every backend, and
// each lane must take its own cohort's drive, energy increments, settle
// and tick words, and end in its cohort's oscillator and mux state.
TEST(LaneCohort, OneGroupOfManyCohortsMatchesPerMember) {
    ASSERT_GE(2 * sim::LaneEngine::lanes_per_stripe(), 5);
    CohortFleets fleets;
    analog::OscillatorFault frequency;
    frequency.frequency_scale = 1.003;
    fleets.both(1, [&](compass::Compass& c) { c.front_end().oscillator().set_fault(frequency); });
    fleets.both(2, [](compass::Compass& c) {
        c.front_end().mux().load_state({analog::Channel::X, 20e-6});
    });
    fleets.both(3, [](compass::Compass& c) { c.counter().load_state({0.5, 0, 0}); });
    fleets.both(4, [](compass::Compass& c) { static_cast<void>(c.measure()); });
    const CohortCounts c = fleets.sweep();
    EXPECT_EQ(c.groups, kStagesPerSweep * cohort_groups());
    // The batch's cohorts per stage: settle x holds the plain lanes
    // (member 3 among them: a settle clocks no counter) and members 1, 2
    // and 4; count x adds member 3; the switch to y restarts member 2's
    // timer, so settle y holds the plain lanes and members 1 and 4, and
    // count y adds member 3 again. The plain lanes of every other group
    // join the first group's plain cohort.
    EXPECT_EQ(c.passes, 4u + 5u + 3u + 4u);
}

// (h) Batches of many groups: 2 x 128 + 40 members, two full batches and
// a part one. One member per batch is one measurement ahead (a cohort of
// its own, led from a group after the first), so the batch's other
// groups take the plain cohort's excitation and tick words from a group
// before them, and every lane must end in its cohort's oscillator, mux
// and counter state. First one run_lanes batch of all members, every
// third drawing 0.25 mV of pickup noise, against each member alone on
// the scalar engine; then fleets without and with that noise, swept in
// Auto and PerMember over two sweeps at one thread (three tasks of whole
// batches) and at three (three runs of whole groups).
TEST(LaneCohort, FleetBatchesOfManyGroupsMatchPerMember) {
    constexpr int kBatch = sim::LaneEngine::kBatchLanes;
    constexpr int kFleet = 2 * kBatch + 40;
    const std::vector<int> ahead = {37, kBatch + 77, 2 * kBatch + 21};
    const auto is_ahead = [&ahead](int i) {
        return std::find(ahead.begin(), ahead.end(), i) != ahead.end();
    };
    std::vector<double> headings;
    for (int i = 0; i < kFleet; ++i) headings.push_back(i * 7.3 + 0.5);

    std::vector<compass::CompassConfig> configs(kFleet, lite_config());
    for (int i = 0; i < kFleet; i += 3) {
        configs[static_cast<std::size_t>(i)].front_end.pickup_noise_rms_v = 0.25e-3;
    }
    three_way_check(configs, headings, [&](int i, compass::Compass& c) {
        if (is_ahead(i)) static_cast<void>(c.measure());
    });

    for (const double noise_v : {0.0, 0.25e-3}) {
        compass::CompassConfig config = lite_config();
        config.front_end.pickup_noise_rms_v = noise_v;
        compass::CompassFleet lanes(kFleet, config);
        compass::CompassFleet reference(kFleet, config);
        reference.set_execution(compass::FleetExecution::PerMember);
        for (compass::CompassFleet* f : {&lanes, &reference}) {
            f->set_environments(site(), headings);
            for (const int i : ahead) static_cast<void>(f->at(i).measure());
        }
        for (const int threads : {1, 3}) {
            for (int sweep = 0; sweep < 2; ++sweep) {
                SCOPED_TRACE(testing::Message() << noise_v << " V noise, " << threads
                                                << " threads, sweep " << sweep);
                const auto a = lanes.measure_all_results(threads);
                const auto b = reference.measure_all_results(threads);
                for (int i = 0; i < kFleet; ++i) {
                    SCOPED_TRACE(testing::Message() << "member " << i);
                    const auto u = static_cast<std::size_t>(i);
                    ASSERT_TRUE(a[u].ok) << a[u].error;
                    ASSERT_TRUE(b[u].ok) << b[u].error;
                    expect_bit_identical(a[u].measurement, b[u].measurement);
                    expect_same_excitation_state(lanes.at(i), reference.at(i));
                }
            }
        }
    }
}

}  // namespace
