#pragma once

/// \file state.hpp
/// The snapshot codec: captures and restores the full measurement state
/// of a Compass (and fleets, supervisors and metric registries built on
/// top of it) through the .fxgsnap container of format.hpp.
///
/// Restore discipline — parse all, validate all, then apply all: the
/// byte stream is decoded into a staging struct, every cross-field
/// invariant (config fingerprint, enum ranges, counter hardware
/// geometry, core state vector sizes, fault-tap symmetry) is checked
/// against the live target, and only then is the target mutated —
/// exclusively through noexcept load seams. A snapshot that fails any
/// check throws SnapshotError and leaves the target bit-for-bit
/// untouched; there is no partial restore.
///
/// What a compass snapshot carries (DESIGN.md §13): the front end's
/// complete analogue state (oscillators with their engaged faults,
/// sensors with their core-model state and external fields, detector
/// latches, mux position and stuck fault, the pickup-noise stream's
/// key and counter and its filter state, stream-window statistics),
/// the up/down counter's registers including the sticky
/// overflow and trap-pending flags, calibration, display, watch, and —
/// optionally — an armed FaultInjector's sequential stream state and a
/// suspended PlanRun's stage position.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "snapshot/format.hpp"

namespace fxg::compass {
struct CompassConfig;
class Compass;
class CompassFleet;
class PlanRun;
}  // namespace fxg::compass

namespace fxg::fault {
class FaultInjector;
class MeasurementSupervisor;
}  // namespace fxg::fault

namespace fxg::telemetry {
class MetricsRegistry;
}  // namespace fxg::telemetry

namespace fxg::snapshot {

/// FNV-1a-64 over the bytes a SnapshotWriter would emit for
/// fields(config) (fields.hpp), so it covers every configuration field
/// the structured binding there names. Stored in every compass
/// snapshot; restore refuses a snapshot whose fingerprint does not
/// match the live target's configuration — state only transplants
/// between identically configured pipelines.
[[nodiscard]] std::uint64_t config_fingerprint(
    const compass::CompassConfig& config);

/// Optional extras a compass snapshot can carry.
struct SaveOptions {
    /// An injector armed on this compass whose sequential stream state
    /// (PickupOpen freeze latches, arm-time sample base) rides along.
    const fault::FaultInjector* injector = nullptr;
    /// A suspended measurement whose stage position rides along.
    const compass::PlanRun* plan_run = nullptr;
};

/// Where the optional extras restore to. Presence must be symmetric
/// with the snapshot: a snapshot carrying fault-tap state requires an
/// armed injector target (and vice versa), same for the plan run.
struct RestoreTargets {
    fault::FaultInjector* injector = nullptr;
    compass::PlanRun* plan_run = nullptr;
};

/// Writes one compass's sections into an open writer (composition seam:
/// fleet snapshots and checkpoint files embed compasses this way).
void save_compass_sections(SnapshotWriter& w, compass::Compass& compass,
                           const SaveOptions& opts = {});

/// One compass as a complete .fxgsnap container.
[[nodiscard]] std::vector<std::uint8_t> snapshot_compass(
    compass::Compass& compass, const SaveOptions& opts = {});

/// Parses, validates and applies one compass's sections from an open
/// reader. Throws SnapshotError (target untouched) on any mismatch.
void restore_compass_sections(SnapshotReader& r, compass::Compass& compass,
                              const RestoreTargets& targets = {});

/// Restores a compass from a snapshot_compass() container.
void restore_compass(std::span<const std::uint8_t> bytes,
                     compass::Compass& compass,
                     const RestoreTargets& targets = {});

/// Every member of a fleet in one container (member order preserved).
[[nodiscard]] std::vector<std::uint8_t> snapshot_fleet(
    compass::CompassFleet& fleet);

/// Restores all members. The fleet must have the same member count and
/// per-member configurations; all members are parsed and validated
/// before any member is mutated, so a bad snapshot leaves the whole
/// fleet untouched.
void restore_fleet(std::span<const std::uint8_t> bytes,
                   compass::CompassFleet& fleet);

/// One member as a standalone compass container — the migration unit: a
/// member snapshot restores into any compass (fleet member or not) with
/// the identical configuration.
[[nodiscard]] std::vector<std::uint8_t> snapshot_member(
    compass::CompassFleet& fleet, int index, const SaveOptions& opts = {});

void restore_member(std::span<const std::uint8_t> bytes,
                    compass::CompassFleet& fleet, int index,
                    const RestoreTargets& targets = {});

/// The supervisor's degradation-ladder state (last-good measurement
/// with its full health report, staleness clock, heading-filter track).
[[nodiscard]] std::vector<std::uint8_t> snapshot_supervisor(
    const fault::MeasurementSupervisor& supervisor);

/// Restores the ladder; a member restored mid-ladder resumes at the
/// same rung, not from Healthy.
void restore_supervisor(std::span<const std::uint8_t> bytes,
                        fault::MeasurementSupervisor& supervisor);

/// Every registered instrument (counters, gauges, histograms) with its
/// accumulated values.
[[nodiscard]] std::vector<std::uint8_t> snapshot_metrics(
    const telemetry::MetricsRegistry& registry);

/// Restores instruments into the registry (creating missing ones).
/// Fails closed before touching anything on a name listed twice, a name
/// that already exists with a different kind, or a histogram whose
/// bucket indices are out of range or not increasing or whose bucket
/// counts do not sum to its count.
void restore_metrics(std::span<const std::uint8_t> bytes,
                     telemetry::MetricsRegistry& registry);

}  // namespace fxg::snapshot
