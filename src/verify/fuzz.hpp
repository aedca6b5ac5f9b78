#pragma once

/// \file fuzz.hpp
/// Seeded differential fuzz/property harness for the compass pipeline.
///
/// The library stacks four layers that all promise exact identities —
/// scalar vs block sim::SimEngine, compiled vs rewritten
/// MeasurementPlan, behavioural CORDIC vs floating atan2 (within the
/// documented bound), finite-width counter register vs the unbounded
/// reference, telemetry-attached vs telemetry-free execution. Those
/// contracts are only as good as the configurations they were checked
/// on; this harness generates randomized configurations (field
/// magnitude 25..65 uT, headings including exact cardinals, noise,
/// excitation ratio, counter width and clock, fault mix) and checks one oracle
/// pair per case:
///
///   EngineParity      three-way scalar vs block vs SoA lane engine
///                     (run_lanes batch of one, bare and with a trace
///                     sink attached): counts, headings, energy, stream
///                     statistics, register state — and identical abort
///                     behaviour under overflow traps;
///   PlanRewrite       with_re_excite(plan) is bit-identical to plan on
///                     a fresh pipeline, per member and as a run_lanes
///                     batch of one; truncate_to_axis keeps the
///                     kept axis's count bit-identical (prefix
///                     identity) and the stage algebra adds up;
///   CordicAtan        heading_deg() is total (never throws, never NaN,
///                     always in [0, 360)) over the whole int64 input
///                     plane, and circularly within the analytic error
///                     bound of std::atan2 — including zero axes, +-1
///                     LSB around cardinals, and INT64_MIN/MAX;
///   CounterWidth      a finite-width register run is congruent to the
///                     unbounded run (two's-complement sign-extension),
///                     exactly equal when the sticky flag stayed clear;
///   TelemetryIdentity a measurement with a trace+probes sink attached
///                     is bit-identical to one without.
///   SnapshotRoundTrip run k of T ticks, snapshot, restore into a fresh
///                     rig, replay the recorded per-tick field inputs
///                     and continue: every remaining tick and the final
///                     re-snapshot bytes are bit-identical to the
///                     uninterrupted run — under armed faults, attached
///                     sinks, finite registers and traps, across the
///                     scalar/block/lane engines. Also proves taking a
///                     snapshot never perturbs the donor.
///   ScenarioDeterminism one compiled time-varying Scenario (turns,
///                     anomalies, interference bursts, temperature
///                     drift on temp-sensitive sensors) shared by
///                     several fresh rigs: identical rigs produce
///                     bit-identical measurement traces, and the
///                     scalar, block and SoA lane engines agree on
///                     every tick while the playhead advances across
///                     measurements.
///
/// Everything is a pure function of (seed, index): generate_case() is
/// deterministic, so any failure is replayed by number alone, and
/// shrink.hpp minimizes failing cases to a one-line literal.
/// tests/fuzz_test.cpp runs the fixed-seed corpus; bench_fuzz_soak
/// runs larger rotating-seed corpora and emits BENCH_fuzz.json.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/compass.hpp"
#include "fault/fault_injector.hpp"

namespace fxg::verify {

/// One oracle pair (see file comment). Cases round-robin over these.
enum class Oracle {
    EngineParity,
    PlanRewrite,
    CordicAtan,
    CounterWidth,
    TelemetryIdentity,
    SnapshotRoundTrip,
    ScenarioDeterminism,
};

inline constexpr int kOracleCount = 7;

[[nodiscard]] const char* to_string(Oracle oracle) noexcept;

/// One generated property-test case: a full pipeline configuration plus
/// environment, register geometry and fault schedule. For CordicAtan
/// only raw_x/raw_y and the CORDIC geometry matter.
struct FuzzCase {
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    Oracle oracle = Oracle::EngineParity;

    compass::CompassConfig config;
    double field_ut = 48.0;        ///< total field magnitude [uT]
    double inclination_deg = 67.0; ///< dip angle
    double heading_deg = 0.0;      ///< physical heading

    int counter_width_bits = 0;    ///< 0 = unbounded register
    bool trap_on_overflow = false;
    std::vector<fault::FaultSpec> faults;

    std::int64_t raw_x = 0;        ///< CordicAtan operands
    std::int64_t raw_y = 0;

    int ticks = 1;                 ///< Snapshot/Scenario: measurements per run
    int snapshot_at = 0;           ///< tick boundary the snapshot is taken at
    bool with_telemetry = false;   ///< attach trace+probes sinks to every rig
    bool use_lanes = false;        ///< tick through the SoA lane engine

    // ScenarioDeterminism knobs (the scenario shape is derived from
    // these plus the plan's tick duration, so it is replayable from the
    // literal alone).
    double scn_rate_deg_s = 0.0;      ///< turn rate of the middle leg
    double scn_anomaly_a_per_m = 0.0; ///< anomaly amplitude (0 = none)
    double scn_burst_a_per_m = 0.0;   ///< interference amplitude (0 = none)
    double scn_burst_hz = 0.0;        ///< interference frequency
    double scn_temp_hi_c = 25.0;      ///< temperature ramp endpoint

    /// One-line repro literal (the shrinker's output format): every
    /// field that differs from the defaults, plus seed/index so the
    /// case can also be regenerated exactly.
    [[nodiscard]] std::string to_literal() const;
};

/// Deterministically generates case `index` of corpus `seed`. Same
/// (seed, index) always yields the same case, independent of platform
/// (a counter-based splitmix64 stream + explicitly ordered draws).
/// `force` pins the oracle (the knob draws stay those of the forced
/// oracle) — used by the snapshot round-trip corpus and targeted soaks.
[[nodiscard]] FuzzCase generate_case(std::uint64_t seed, std::uint64_t index,
                                     std::optional<Oracle> force = std::nullopt);

/// Runs one case against its oracle pair. nullopt = all identities
/// held; otherwise a human-readable description of the first mismatch.
[[nodiscard]] std::optional<std::string> run_case(const FuzzCase& c);

struct FuzzFailure {
    FuzzCase failing;
    std::string mismatch;
};

/// Corpus outcome. `mismatches` counts every failing case; `failures`
/// keeps the first `max_failures` of them (by index) for reporting.
struct FuzzReport {
    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    std::vector<FuzzFailure> failures;

    [[nodiscard]] bool ok() const noexcept { return mismatches == 0; }
};

/// Runs cases [0, cases) of corpus `seed`. With threads > 1 the cases
/// are fanned out over a util::TaskPool; results are independent of the
/// thread count (cases are pure functions, failures re-sorted by
/// index).
[[nodiscard]] FuzzReport run_corpus(std::uint64_t seed, std::uint64_t cases,
                                    std::size_t max_failures = 8, int threads = 1,
                                    std::optional<Oracle> force = std::nullopt);

/// Outcome of one contiguous chunk of a corpus — the checkpointing unit
/// of bench_fuzz_soak. `ok[i]` is 1 when case `first + i` passed, so a
/// resumed soak can fold the identical corpus digest the uninterrupted
/// run would have produced.
struct ChunkResult {
    std::vector<std::uint8_t> ok;
    std::vector<FuzzFailure> failures;  ///< sorted by index, untruncated
};

/// Runs cases [first, first + count) of corpus `seed`. Results are
/// independent of the thread count, as in run_corpus.
[[nodiscard]] ChunkResult run_chunk(std::uint64_t seed, std::uint64_t first,
                                    std::uint64_t count, int threads = 1,
                                    std::optional<Oracle> force = std::nullopt);

}  // namespace fxg::verify
