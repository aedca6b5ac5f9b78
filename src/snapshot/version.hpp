#pragma once

/// \file version.hpp
/// The .fxgsnap container format version. Header-only so layers that
/// must not link the snapshot library (telemetry exporters stamp every
/// BENCH_*.json with it) can still name the version they were built
/// against.

#include <cstdint>

namespace fxg::snapshot {

/// Bumped on any change to the container layout or a section's payload
/// encoding. A reader only accepts its own version — restore is
/// fail-closed, never best-effort across versions. Version 4 changed
/// only the CFG0 fingerprint, which now covers every configuration field;
/// version 5 only the MTRS histogram entry, which carries (index, count)
/// pairs of the fixed log-linear layout instead of a bucket list.
inline constexpr std::uint32_t kSnapshotFormatVersion = 5;

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'F', 'X', 'G', 'S', 'N', 'A', 'P', '1'};

}  // namespace fxg::snapshot
