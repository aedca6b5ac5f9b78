/// \file fuzz_test.cpp
/// CI gate for the verify:: differential fuzz harness: the fixed-seed
/// corpus (10000 cases, every oracle pair) must report zero mismatches,
/// generation must be deterministic (failures replay by (seed, index)
/// alone), and the shrinker must actually minimize. Larger and
/// rotating-seed corpora run in bench_fuzz_soak.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

#include "core/plan.hpp"
#include "digital/counter.hpp"
#include "sim/lane_engine.hpp"
#include "verify/fuzz.hpp"
#include "verify/shrink.hpp"

using namespace fxg;

namespace {

/// The corpus seed CI pins. Changing it invalidates triage notes keyed
/// on (seed, index), so bump deliberately.
constexpr std::uint64_t kCorpusSeed = 20260807;

int soak_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 4;
}

}  // namespace

TEST(FuzzCorpus, FixedSeedCorpusHasZeroMismatches) {
    const verify::FuzzReport report =
        verify::run_corpus(kCorpusSeed, 10000, 8, soak_threads());
    EXPECT_EQ(report.cases, 10000u);
    EXPECT_TRUE(report.ok());
    for (const verify::FuzzFailure& failure : report.failures) {
        ADD_FAILURE() << "(seed=" << failure.failing.seed
                      << ", index=" << failure.failing.index
                      << "): " << failure.mismatch << "\n  shrunk repro: "
                      << verify::shrink_case(failure.failing).to_literal();
    }
}

TEST(FuzzCorpus, SnapshotRoundTripForcedCorpusIsBitExact) {
    // ISSUE acceptance: the snapshot round-trip oracle alone over a
    // 10k-case fixed-seed corpus, zero mismatches.
    const verify::FuzzReport report =
        verify::run_corpus(kCorpusSeed, 10000, 8, soak_threads(),
                           verify::Oracle::SnapshotRoundTrip);
    EXPECT_EQ(report.cases, 10000u);
    EXPECT_TRUE(report.ok());
    for (const verify::FuzzFailure& failure : report.failures) {
        ADD_FAILURE() << "(seed=" << failure.failing.seed
                      << ", index=" << failure.failing.index
                      << "): " << failure.mismatch;
    }
}

TEST(FuzzCorpus, EngineParityForcedCorpusIsBitExact) {
    // ConstantFieldSource is bit-identical on the scalar, block and SoA
    // lane engines — and to the pre-seam direct field path — over a
    // 10k-case forced EngineParity corpus.
    constexpr std::uint64_t kCases = 10000;
    // K cases take the lane kernel on their Count stages: no fault (an
    // armed injector taps its member), no register width, and a clock
    // below one period per sample.
    std::uint64_t k_count = 0;
    for (std::uint64_t i = 0; i < kCases; ++i) {
        const verify::FuzzCase c =
            verify::generate_case(kCorpusSeed, i, verify::Oracle::EngineParity);
        const double inc = compass::compile_plan(c.config).dt_s * c.config.counter_clock_hz;
        if (c.faults.empty() && c.counter_width_bits == 0 &&
            digital::UpDownCounter::one_bit_clock(0.0, inc)) {
            ++k_count;
        }
    }
    std::printf("note: %llu of %llu EngineParity cases count in the lane kernel\n",
                static_cast<unsigned long long>(k_count),
                static_cast<unsigned long long>(kCases));
    EXPECT_GE(k_count, kCases / 20);
    const std::uint64_t groups0 = sim::group_advance_count();
    const std::uint64_t passes0 = sim::excitation_pass_count();
    const verify::FuzzReport report =
        verify::run_corpus(kCorpusSeed, kCases, 8, soak_threads(),
                           verify::Oracle::EngineParity);
    EXPECT_EQ(report.cases, kCases);
    EXPECT_TRUE(report.ok());
    // Each of those cases batches its lane rig beside a lockstep twin and
    // then beside a diverged mate, a second cohort. A batch of two lanes
    // is one group, so here every batch advance adds one group advance,
    // and a batch advance of more than one cohort runs at least one extra
    // pass: group advances less extra passes bound the one-cohort batch
    // advances from below.
    const std::uint64_t groups = sim::group_advance_count() - groups0;
    const std::uint64_t extra = sim::excitation_pass_count() - passes0 - groups;
    EXPECT_GE(groups, extra + k_count);
    EXPECT_GE(extra, k_count);
    for (const verify::FuzzFailure& failure : report.failures) {
        ADD_FAILURE() << "(seed=" << failure.failing.seed
                      << ", index=" << failure.failing.index
                      << "): " << failure.mismatch;
    }
}

TEST(FuzzCorpus, ScenarioDeterminismForcedCorpusIsBitExact) {
    // The time-varying environment oracle alone: same compiled scenario
    // + same seed => bit-identical traces, across engines. Heavier per
    // case (five rigs, multiple ticks), so a smaller forced corpus; the
    // mixed 10k corpus above adds another ~1400 scenario cases.
    constexpr std::uint64_t kCases = 1500;
    const std::uint64_t groups0 = sim::group_advance_count();
    const verify::FuzzReport report =
        verify::run_corpus(kCorpusSeed, kCases, 8, soak_threads(),
                           verify::Oracle::ScenarioDeterminism);
    EXPECT_EQ(report.cases, kCases);
    EXPECT_TRUE(report.ok());
    // The scenarios hold before the anomaly and after the burst, so lane
    // rigs take the kernel over those stretches.
    const std::uint64_t groups = sim::group_advance_count() - groups0;
    std::printf("note: %llu lane-kernel group advances over %llu scenario cases\n",
                static_cast<unsigned long long>(groups),
                static_cast<unsigned long long>(kCases));
    EXPECT_GE(groups, kCases / 10);
    for (const verify::FuzzFailure& failure : report.failures) {
        ADD_FAILURE() << "(seed=" << failure.failing.seed
                      << ", index=" << failure.failing.index
                      << "): " << failure.mismatch << "\n  shrunk repro: "
                      << verify::shrink_case(failure.failing).to_literal();
    }
}

TEST(FuzzCorpus, ChunkedRunMatchesTheWholeCorpus) {
    // run_chunk is the soak checkpointing unit: chunked pass/fail bits
    // must agree with one uninterrupted run_corpus over the same range.
    const verify::FuzzReport whole = verify::run_corpus(kCorpusSeed, 120, 200, 4);
    std::uint64_t chunked_failures = 0;
    for (std::uint64_t first = 0; first < 120; first += 40) {
        const verify::ChunkResult chunk =
            verify::run_chunk(kCorpusSeed, first, 40, 4);
        ASSERT_EQ(chunk.ok.size(), 40u);
        for (std::uint8_t ok : chunk.ok) chunked_failures += ok ? 0 : 1;
        EXPECT_EQ(chunk.failures.size(),
                  static_cast<std::size_t>(
                      std::count(chunk.ok.begin(), chunk.ok.end(), 0)));
    }
    EXPECT_EQ(chunked_failures, whole.mismatches);
}

TEST(FuzzCorpus, GenerationIsDeterministic) {
    for (std::uint64_t index : {0ull, 17ull, 4242ull}) {
        const verify::FuzzCase a = verify::generate_case(kCorpusSeed, index);
        const verify::FuzzCase b = verify::generate_case(kCorpusSeed, index);
        EXPECT_EQ(a.to_literal(), b.to_literal());
    }
    // Different indices (and different seeds) give different cases.
    EXPECT_NE(verify::generate_case(kCorpusSeed, 1).to_literal(),
              verify::generate_case(kCorpusSeed, 6).to_literal());
    EXPECT_NE(verify::generate_case(kCorpusSeed, 1).to_literal(),
              verify::generate_case(kCorpusSeed + 1, 1).to_literal());
}

TEST(FuzzCorpus, RoundRobinCoversEveryOracle) {
    std::set<verify::Oracle> seen;
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(verify::kOracleCount);
         ++i) {
        seen.insert(verify::generate_case(kCorpusSeed, i).oracle);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(verify::kOracleCount));
}

TEST(FuzzCorpus, LiteralIsOneLine) {
    for (std::uint64_t i = 0; i < 25; ++i) {
        const std::string lit = verify::generate_case(kCorpusSeed, i).to_literal();
        EXPECT_EQ(lit.find('\n'), std::string::npos) << lit;
        EXPECT_NE(lit.find("seed="), std::string::npos) << lit;
        EXPECT_NE(lit.find("oracle="), std::string::npos) << lit;
    }
}

TEST(FuzzShrink, MinimizesEverythingThePredicateIgnores) {
    // Find a generated case that actually carries clutter to strip.
    verify::FuzzCase messy;
    for (std::uint64_t i = 0;; ++i) {
        messy = verify::generate_case(kCorpusSeed, i);
        if (messy.oracle == verify::Oracle::EngineParity && !messy.faults.empty() &&
            messy.config.front_end.pickup_noise_rms_v > 0.0) {
            break;
        }
        ASSERT_LT(i, 500u) << "generator never produced a cluttered case";
    }
    // A predicate that is indifferent to every knob: the shrinker must
    // then reach the canonical minimum.
    const verify::FuzzCase minimal =
        verify::shrink_case(messy, [](const verify::FuzzCase&) { return true; });
    EXPECT_TRUE(minimal.faults.empty());
    EXPECT_EQ(minimal.config.front_end.pickup_noise_rms_v, 0.0);
    EXPECT_EQ(minimal.config.front_end.sensor_mismatch, 0.0);
    EXPECT_EQ(minimal.config.settle_periods, 0);
    EXPECT_EQ(minimal.config.periods_per_axis, 1);
    EXPECT_EQ(minimal.config.steps_per_period, 64);
    EXPECT_EQ(minimal.counter_width_bits, 0);
    EXPECT_FALSE(minimal.trap_on_overflow);
    EXPECT_EQ(minimal.field_ut, 48.0);
    EXPECT_DOUBLE_EQ(std::fmod(minimal.heading_deg, 90.0), 0.0);
}

TEST(FuzzShrink, NeverAcceptsAPassingCandidate) {
    // Predicate: fails only while the register is finite. The shrinker
    // must keep the width (its removal would make the case pass) while
    // stripping everything else.
    verify::FuzzCase messy;
    for (std::uint64_t i = 0;; ++i) {
        messy = verify::generate_case(kCorpusSeed, i);
        if (messy.oracle == verify::Oracle::EngineParity &&
            messy.counter_width_bits > 0) {
            break;
        }
        ASSERT_LT(i, 500u) << "generator never produced a finite-width case";
    }
    const verify::FuzzCase shrunk = verify::shrink_case(
        messy,
        [](const verify::FuzzCase& c) { return c.counter_width_bits > 0; });
    EXPECT_GT(shrunk.counter_width_bits, 0);
    EXPECT_TRUE(shrunk.faults.empty());
    EXPECT_EQ(shrunk.config.periods_per_axis, 1);
}

TEST(FuzzCorpus, ThreadFanOutMatchesSerialRun) {
    const verify::FuzzReport serial = verify::run_corpus(kCorpusSeed, 300, 8, 1);
    const verify::FuzzReport fanned = verify::run_corpus(kCorpusSeed, 300, 8, 4);
    EXPECT_EQ(serial.mismatches, fanned.mismatches);
    EXPECT_EQ(serial.failures.size(), fanned.failures.size());
}
