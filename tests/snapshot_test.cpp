/// \file snapshot_test.cpp
/// The snapshot subsystem (src/snapshot): container format fail-closed
/// behaviour (magic, version skew, truncation, CRC at file and section
/// level — including an exhaustive byte-flip fuzzer over a real compass
/// snapshot), replay-log torn-tail semantics, and bit-exact state
/// round-trips for every layer the codec captures: compass pipeline,
/// suspended PlanRun at every stage boundary, fleet members (including
/// migration), the supervisor's degradation ladder, the counter's
/// sticky/trap flags, and the metrics registry. The randomized version
/// of these checks is verify::Oracle::SnapshotRoundTrip in fuzz_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/scenario.hpp"
#include "magnetics/units.hpp"
#include "snapshot/fields.hpp"
#include "snapshot/format.hpp"
#include "snapshot/postmortem.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/state.hpp"
#include "snapshot/version.hpp"
#include "telemetry/metrics.hpp"
#include "golden_scenes.hpp"

using namespace fxg;

namespace {

/// Small, fast pipeline with the pickup-noise RNG engaged so snapshots
/// exercise the RNG-stream serialization paths.
compass::CompassConfig small_config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 64;
    cfg.periods_per_axis = 1;
    cfg.settle_periods = 1;
    cfg.front_end.pickup_noise_rms_v = 1.0e-3;
    cfg.front_end.noise_seed = 42;
    return cfg;
}

const magnetics::EarthField kField(magnetics::microtesla(48.0), 60.0);

/// Recomputes the trailing whole-file CRC after a deliberate payload
/// edit, so tests can reach the *section*-level checks behind it.
void refix_file_crc(std::vector<std::uint8_t>& bytes) {
    ASSERT_GE(bytes.size(), 4u);
    const std::size_t content = bytes.size() - 4;
    const std::uint32_t crc = snapshot::crc32(bytes.data(), content);
    for (int i = 0; i < 4; ++i) {
        bytes[content + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
}

std::uint64_t read_u64le(const std::vector<std::uint8_t>& bytes, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(bytes.at(at + static_cast<std::size_t>(i)))
             << (8 * i);
    }
    return v;
}

void write_u64le(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        bytes.at(at + static_cast<std::size_t>(i)) = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

// Container geometry (DESIGN.md section 13): magic + version, then
// sections of tag u32, payload_len u64, payload_crc u32, payload.
constexpr std::size_t kFileHeaderBytes = 12;
constexpr std::size_t kSectionHeaderBytes = 16;

/// Re-seals the payload CRC of the section whose header starts at
/// `header`, then the file CRC, so an edited field inside it reaches
/// the decoder behind both checks.
void reseal_section(std::vector<std::uint8_t>& bytes, std::size_t header) {
    const auto len = static_cast<std::size_t>(read_u64le(bytes, header + 4));
    const std::uint32_t crc =
        snapshot::crc32(bytes.data() + header + kSectionHeaderBytes, len);
    for (int i = 0; i < 4; ++i) {
        bytes[header + 12 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
    refix_file_crc(bytes);
}

void expect_equal_measurements(const compass::Measurement& a,
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

}  // namespace

// ------------------------------------------------------- container format

TEST(SnapshotFormat, PrimitivesRoundTripThroughNestedSections) {
    constexpr std::uint32_t kOuter = snapshot::section_tag('T', 'S', 'T', '0');
    constexpr std::uint32_t kInner = snapshot::section_tag('T', 'S', 'T', '1');
    snapshot::SnapshotWriter w;
    w.begin_section(kOuter);
    w.put_u8(0xAB);
    w.put_u32(0xDEADBEEF);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_i64(-42);
    w.put_f64(-0.1);
    w.put_bool(true);
    w.put_string("heading");
    w.begin_section(kInner);
    w.put_string("");
    w.put_f64(360.0);
    w.end_section();
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();

    snapshot::SnapshotReader r(bytes);
    EXPECT_EQ(r.peek_tag(), kOuter);
    r.enter_section(kOuter);
    EXPECT_EQ(r.get_u8(), 0xAB);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.get_i64(), -42);
    EXPECT_EQ(r.get_f64(), -0.1);
    EXPECT_TRUE(r.get_bool());
    EXPECT_EQ(r.get_string(), "heading");
    r.enter_section(kInner);
    EXPECT_EQ(r.get_string(), "");
    EXPECT_EQ(r.get_f64(), 360.0);
    r.leave_section();
    r.leave_section();
    EXPECT_TRUE(r.at_end());
}

TEST(SnapshotFormat, RejectsBadMagic) {
    snapshot::SnapshotWriter w;
    std::vector<std::uint8_t> bytes = w.finish();
    bytes[0] ^= 0xFF;
    refix_file_crc(bytes);
    try {
        snapshot::SnapshotReader r(bytes);
        FAIL() << "bad magic accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
    }
}

TEST(SnapshotFormat, RejectsVersionSkew) {
    // A newer file, and every earlier version (v1 still carried the
    // comparator RNG streams in FEND, v2 the pickup stream as
    // Mersenne-Twister text, v3 a CFG0 fingerprint that skipped the
    // temperature-drift fields, v4 histograms as bucket lists), fail
    // closed.
    for (const std::uint32_t version :
         {snapshot::kSnapshotFormatVersion + 1, std::uint32_t{1}, std::uint32_t{2},
          std::uint32_t{3}, std::uint32_t{4}}) {
        snapshot::SnapshotWriter w;
        std::vector<std::uint8_t> bytes = w.finish();
        bytes[8] = static_cast<std::uint8_t>(version);
        refix_file_crc(bytes);
        try {
            snapshot::SnapshotReader r(bytes);
            FAIL() << "version " << version << " accepted";
        } catch (const snapshot::SnapshotError& e) {
            EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos)
                << e.what();
        }
    }
}

TEST(SnapshotFormat, RejectsEveryTruncation) {
    snapshot::SnapshotWriter w;
    w.begin_section(snapshot::section_tag('T', 'S', 'T', '0'));
    w.put_u64(7);
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        EXPECT_THROW(
            snapshot::SnapshotReader r(
                std::span<const std::uint8_t>(bytes.data(), n)),
            snapshot::SnapshotError)
            << "prefix of " << n << " bytes accepted";
    }
}

TEST(SnapshotFormat, RejectsEveryByteFlip) {
    snapshot::SnapshotWriter w;
    w.begin_section(snapshot::section_tag('T', 'S', 'T', '0'));
    w.put_string("fail closed");
    w.put_f64(4194304.0);
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[i] ^= 0xFF;
        // The reader must reject the container before handing back any
        // data: either at construction (file CRC / header fields) or at
        // the section gate.
        EXPECT_THROW(
            {
                snapshot::SnapshotReader r(mutated);
                r.enter_section(snapshot::section_tag('T', 'S', 'T', '0'));
            },
            snapshot::SnapshotError)
            << "flip of byte " << i << " accepted";
    }
}

TEST(SnapshotFormat, SectionCrcCaughtBehindValidFileCrc) {
    constexpr std::uint32_t kTag = snapshot::section_tag('T', 'S', 'T', '0');
    snapshot::SnapshotWriter w;
    w.begin_section(kTag);
    w.put_u64(0);
    w.end_section();
    std::vector<std::uint8_t> bytes = w.finish();
    // Flip one payload byte and re-fix the file CRC: the per-section
    // CRC is now the only line of defence, and it must hold.
    bytes[bytes.size() - 4 - 1] ^= 0x01;
    refix_file_crc(bytes);
    snapshot::SnapshotReader r(bytes);
    try {
        r.enter_section(kTag);
        FAIL() << "corrupt section payload accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("section CRC"), std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormat, SectionLengthOverrunCaught) {
    constexpr std::uint32_t kTag = snapshot::section_tag('T', 'S', 'T', '0');
    snapshot::SnapshotWriter w;
    w.begin_section(kTag);
    w.put_u64(0);
    w.end_section();
    std::vector<std::uint8_t> bytes = w.finish();
    // The section header starts at offset 12 (after magic + version):
    // tag u32, then payload_len u64. Inflate the length so the payload
    // claims to extend past the container.
    bytes[12 + 4] = 0xFF;
    refix_file_crc(bytes);
    snapshot::SnapshotReader r(bytes);
    try {
        r.enter_section(kTag);
        FAIL() << "overrunning section length accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("length overrun"), std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormat, SectionTagMismatchNamesBothTags) {
    snapshot::SnapshotWriter w;
    w.begin_section(snapshot::section_tag('T', 'S', 'T', '0'));
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    snapshot::SnapshotReader r(bytes);
    try {
        r.enter_section(snapshot::section_tag('O', 'T', 'H', 'R'));
        FAIL() << "tag mismatch accepted";
    } catch (const snapshot::SnapshotError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("OTHR"), std::string::npos) << what;
        EXPECT_NE(what.find("TST0"), std::string::npos) << what;
    }
}

TEST(SnapshotFormat, UnconsumedSectionBytesRejected) {
    constexpr std::uint32_t kTag = snapshot::section_tag('T', 'S', 'T', '0');
    snapshot::SnapshotWriter w;
    w.begin_section(kTag);
    w.put_u64(1);
    w.put_u64(2);
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    snapshot::SnapshotReader r(bytes);
    r.enter_section(kTag);
    EXPECT_EQ(r.get_u64(), 1u);
    EXPECT_THROW(r.leave_section(), snapshot::SnapshotError);
}

// ------------------------------------------------------------ replay log

TEST(ReplayLog, RoundTripIsBitExact) {
    snapshot::ReplayWriter w;
    const snapshot::TickInput inputs[] = {
        {0, 38.197186342054884, -0.0},
        {1, -12.5, 1.0e-300},
        {2, 0.0, 45.0},
    };
    for (const snapshot::TickInput& in : inputs) w.append(in);
    const snapshot::ReplayLog log = snapshot::read_replay(w.bytes());
    ASSERT_EQ(log.ticks.size(), 3u);
    EXPECT_FALSE(log.torn_tail);
    EXPECT_EQ(log.valid_bytes, w.bytes().size());
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(log.ticks[i].tick, inputs[i].tick);
        // memcmp, not ==: the log must preserve bit patterns (-0.0 too).
        EXPECT_EQ(std::memcmp(&log.ticks[i].hx_a_per_m, &inputs[i].hx_a_per_m, 8), 0);
        EXPECT_EQ(std::memcmp(&log.ticks[i].hy_a_per_m, &inputs[i].hy_a_per_m, 8), 0);
    }
}

TEST(ReplayLog, TornTailKeepsTheIntactPrefix) {
    snapshot::ReplayWriter w;
    for (std::uint64_t t = 0; t < 4; ++t) w.append({t, 1.0 * t, -1.0 * t});
    std::vector<std::uint8_t> torn = w.bytes();
    torn.resize(torn.size() - 5);  // crash mid-append of the last frame

    EXPECT_THROW(snapshot::read_replay(torn), snapshot::SnapshotError);

    const snapshot::ReplayLog log =
        snapshot::read_replay(torn, snapshot::ReplayMode::TolerateTornTail);
    ASSERT_EQ(log.ticks.size(), 3u);
    EXPECT_TRUE(log.torn_tail);
    EXPECT_EQ(log.ticks.back().tick, 2u);
    // valid_bytes delimits the intact prefix: re-reading it is clean.
    const snapshot::ReplayLog again = snapshot::read_replay(
        std::span<const std::uint8_t>(torn.data(), log.valid_bytes));
    EXPECT_EQ(again.ticks.size(), 3u);
    EXPECT_FALSE(again.torn_tail);
}

TEST(ReplayLog, MidLogCorruptionFailsClosedInStrictMode) {
    snapshot::ReplayWriter w;
    for (std::uint64_t t = 0; t < 4; ++t) w.append({t, 1.0, 2.0});
    std::vector<std::uint8_t> bad = w.bytes();
    bad[12 + 28 + 3] ^= 0x40;  // a byte inside frame 1
    EXPECT_THROW(snapshot::read_replay(bad), snapshot::SnapshotError);
    const snapshot::ReplayLog log =
        snapshot::read_replay(bad, snapshot::ReplayMode::TolerateTornTail);
    EXPECT_EQ(log.ticks.size(), 1u);  // tolerant mode stops at the damage
    EXPECT_TRUE(log.torn_tail);
}

TEST(ReplayLog, HeaderDamageThrowsInBothModes) {
    snapshot::ReplayWriter w;
    w.append({0, 1.0, 2.0});
    std::vector<std::uint8_t> bad = w.bytes();
    bad[0] ^= 0xFF;
    EXPECT_THROW(snapshot::read_replay(bad), snapshot::SnapshotError);
    EXPECT_THROW(
        snapshot::read_replay(bad, snapshot::ReplayMode::TolerateTornTail),
        snapshot::SnapshotError);
}

// --------------------------------------------------------- compass state

TEST(CompassSnapshot, RestoredRunContinuesBitExactly) {
    const compass::CompassConfig cfg = small_config();

    // Reference: three measurements at drifting headings, uninterrupted.
    compass::Compass ref(cfg);
    std::vector<compass::Measurement> expected;
    for (int t = 0; t < 3; ++t) {
        ref.set_environment(kField, 30.0 + 40.0 * t);
        expected.push_back(ref.measure());
    }

    // Donor: one measurement, snapshot, then a fresh compass continues.
    compass::Compass donor(cfg);
    donor.set_environment(kField, 30.0);
    expect_equal_measurements(donor.measure(), expected[0]);
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor);

    compass::Compass resumed(cfg);
    snapshot::restore_compass(snap, resumed);
    for (int t = 1; t < 3; ++t) {
        resumed.set_environment(kField, 30.0 + 40.0 * t);
        expect_equal_measurements(resumed.measure(),
                                  expected[static_cast<std::size_t>(t)]);
    }

    // And the complete serialized end state matches the reference's.
    EXPECT_EQ(snapshot::snapshot_compass(resumed), snapshot::snapshot_compass(ref));
}

TEST(CompassSnapshot, ConfigFingerprintMismatchRejected) {
    compass::Compass donor(small_config());
    donor.set_environment(kField, 30.0);
    (void)donor.measure();
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor);

    // The sampling step, and the two sensitivity tempcos the scenario
    // layer's temperature ramps drive.
    const auto more_steps = [](compass::CompassConfig& c) { c.steps_per_period = 128; };
    const auto sens_tempco = [](compass::CompassConfig& c) {
        c.front_end.sensor.sens_temp_coeff_per_c = 2.0e-4;
    };
    const auto y_tempco = [](compass::CompassConfig& c) {
        c.front_end.sensor_temp_mismatch_per_c = 1.0e-4;
    };
    for (const auto& change : std::vector<std::function<void(compass::CompassConfig&)>>{
             more_steps, sens_tempco, y_tempco}) {
        compass::CompassConfig other = small_config();
        change(other);
        compass::Compass target(other);
        target.set_environment(kField, 200.0);
        const std::vector<std::uint8_t> before = snapshot::snapshot_compass(target);
        try {
            snapshot::restore_compass(snap, target);
            ADD_FAILURE() << "cross-config restore accepted";
        } catch (const snapshot::SnapshotError& e) {
            EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
                << e.what();
        }
        // Fail closed: the rejected restore left the target untouched.
        EXPECT_EQ(snapshot::snapshot_compass(target), before);
    }
}

namespace {

/// A walk io that changes the `target`-th scalar the walk visits and
/// counts the scalars: a double is scaled (or set non-zero), a bool
/// flipped, an integer incremented, an enum moved to another valid
/// value, a string extended.
struct ChangeOneField {
    static constexpr bool kReads = false;
    int target = 0;
    int seen = 0;
    std::string changed;  ///< type of the changed scalar, for messages

    template <class T>
    void operator()(T& v) {
        if (seen++ != target) return;
        if constexpr (std::is_same_v<T, bool>) {
            v = !v;
            changed = "bool";
        } else if constexpr (std::is_enum_v<T>) {
            v = static_cast<T>(static_cast<int>(v) == 0 ? 1 : 0);
            changed = "enum";
        } else if constexpr (std::is_same_v<T, std::string>) {
            v += "+";
            changed = "string";
        } else if constexpr (std::is_floating_point_v<T>) {
            v = v == 0.0 ? 1.0e-3 : v * 1.5;
            changed = "double";
        } else {
            v += 1;
            changed = "integer";
        }
    }
};

}  // namespace

// The fingerprint hashes what fields(CompassConfig) emits, so every
// configuration field moves it (v3 skipped the Ms/Hk/sensitivity
// tempcos, t_ref_c and the y sensor's tempco mismatch).
TEST(CompassSnapshot, FingerprintCoversEveryConfigField) {
    const compass::CompassConfig base = small_config();
    const std::uint64_t base_fp = snapshot::config_fingerprint(base);
    int fields_seen = 0;
    for (int i = 0;; ++i) {
        compass::CompassConfig changed = base;
        ChangeOneField io;
        io.target = i;
        snapshot::fields(io, changed);
        fields_seen = io.seen;
        if (i >= io.seen) break;
        EXPECT_NE(snapshot::config_fingerprint(changed), base_fp)
            << "changing config field #" << i << " (" << io.changed
            << ") left the fingerprint unchanged";
    }
    // Every CompassConfig scalar, nested ones included.
    EXPECT_EQ(fields_seen, 54);
}

TEST(CompassSnapshot, EveryByteFlipFailsClosedWithNoPartialRestore) {
    compass::Compass donor(small_config());
    donor.set_environment(kField, 123.0);
    (void)donor.measure();
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor);

    compass::Compass target(small_config());
    target.set_environment(kField, 10.0);
    (void)target.measure();
    const std::vector<std::uint8_t> before = snapshot::snapshot_compass(target);

    for (std::size_t i = 0; i < snap.size(); ++i) {
        std::vector<std::uint8_t> mutated = snap;
        mutated[i] ^= 0xFF;
        EXPECT_THROW(snapshot::restore_compass(mutated, target),
                     snapshot::SnapshotError)
            << "flip of byte " << i << " restored";
        // Spot-check (every 97th flip: re-serializing is the expensive
        // part) that the failed restore mutated nothing.
        if (i % 97 == 0) {
            EXPECT_EQ(snapshot::snapshot_compass(target), before)
                << "flip of byte " << i << " partially restored";
        }
    }
    EXPECT_EQ(snapshot::snapshot_compass(target), before);
}

// An element count read from the file must never size an allocation:
// with both CRCs re-sealed around a hostile core-state count, only the
// bounds-checked reads stand between it and a multi-GiB reserve.
TEST(CompassSnapshot, HostileCoreStateCountFailsClosed) {
    compass::Compass donor(small_config());
    donor.set_environment(kField, 123.0);
    (void)donor.measure();
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor);

    compass::Compass target(small_config());
    target.set_environment(kField, 10.0);
    (void)target.measure();
    const std::vector<std::uint8_t> before = snapshot::snapshot_compass(target);

    // Walk FEND (after CFG0's u64 fingerprint) to the x sensor's
    // core-state count: enabled flag, window stats, edge memory, sample
    // index, mux, noise filter state, pickup noise key and counter, two
    // oscillators, then the sensor's state and external field.
    constexpr std::size_t kFend = kFileHeaderBytes + kSectionHeaderBytes + 8;
    constexpr std::size_t kNoiseStream = kFend + kSectionHeaderBytes + 1 + 64 + 2 + 2 +
                                         8 + 17 + 8;
    const std::size_t count_at = kNoiseStream + 8 + 8 + 2 * 73 + 57;
    ASSERT_EQ(read_u64le(snap, kFend) & 0xFFFFFFFFu,
              snapshot::section_tag('F', 'E', 'N', 'D'));
    ASSERT_EQ(read_u64le(snap, count_at),
              donor.front_end().sensor(analog::Channel::X).core().save_state().size());

    for (const std::uint64_t n : {std::uint64_t{1} << 61, std::uint64_t{1} << 40,
                                  std::uint64_t{1} << 27}) {
        std::vector<std::uint8_t> hostile = snap;
        write_u64le(hostile, count_at, n);
        reseal_section(hostile, kFend);
        EXPECT_THROW(snapshot::restore_compass(hostile, target), snapshot::SnapshotError)
            << "core-state count " << n;
        EXPECT_EQ(snapshot::snapshot_compass(target), before);
    }
}

TEST(CompassSnapshot, FaultTapAsymmetryRejected) {
    // A snapshot carrying fault-tap state refuses to restore without an
    // armed injector target, and vice versa.
    const compass::CompassConfig cfg = small_config();
    fault::FaultSpec spec;
    spec.fault = fault::FaultClass::PickupOpen;
    spec.channel = analog::Channel::X;
    spec.persistence = fault::Persistence::Transient;
    spec.start_sample = 10;
    spec.duration_samples = 50;

    compass::Compass faulty(cfg);
    faulty.set_environment(kField, 45.0);
    fault::FaultInjector injector;
    injector.add(spec);
    injector.arm(faulty);
    (void)faulty.measure();
    snapshot::SaveOptions opts;
    opts.injector = &injector;
    const std::vector<std::uint8_t> with_tap =
        snapshot::snapshot_compass(faulty, opts);
    const std::vector<std::uint8_t> without_tap =
        snapshot::snapshot_compass(faulty);

    compass::Compass target(cfg);
    EXPECT_THROW(snapshot::restore_compass(with_tap, target),
                 snapshot::SnapshotError);

    fault::FaultInjector target_injector;
    target_injector.add(spec);
    target_injector.arm(target);
    snapshot::RestoreTargets targets;
    targets.injector = &target_injector;
    EXPECT_THROW(snapshot::restore_compass(without_tap, target, targets),
                 snapshot::SnapshotError);
    // The symmetric pair restores fine.
    snapshot::restore_compass(with_tap, target, targets);
}

// --------------------------------------------------- suspended plan runs

TEST(PlanRunSnapshot, ResumesBitExactlyFromEveryStageBoundary) {
    const compass::CompassConfig cfg = small_config();
    const compass::MeasurementPlan plan = compass::compile_plan(cfg);

    compass::Compass ref(cfg);
    ref.set_environment(kField, 77.0);
    const compass::Measurement expected = compass::PlanExecutor(ref).run(plan);

    for (std::size_t boundary = 0; boundary <= plan.stages.size(); ++boundary) {
        // Donor: execute `boundary` stages, then suspend to bytes.
        compass::Compass donor(cfg);
        donor.set_environment(kField, 77.0);
        compass::PlanRun run(donor, plan);
        for (std::size_t i = 0; i < boundary; ++i) ASSERT_TRUE(run.step());
        snapshot::SaveOptions opts;
        opts.plan_run = &run;
        const std::vector<std::uint8_t> snap =
            snapshot::snapshot_compass(donor, opts);

        // Resume: construct the PlanRun first (fresh observation
        // window), then restore the pipeline and the run position.
        compass::Compass resumed_compass(cfg);
        resumed_compass.set_environment(kField, 77.0);
        compass::PlanRun resumed(resumed_compass, plan);
        snapshot::RestoreTargets targets;
        targets.plan_run = &resumed;
        snapshot::restore_compass(snap, resumed_compass, targets);
        EXPECT_EQ(resumed.next_stage(), boundary);
        while (resumed.step()) {
        }
        expect_equal_measurements(resumed.finish(), expected);
    }
}

TEST(PlanRunSnapshot, MissingPlanRunTargetRejected) {
    const compass::CompassConfig cfg = small_config();
    const compass::MeasurementPlan plan = compass::compile_plan(cfg);
    compass::Compass donor(cfg);
    donor.set_environment(kField, 10.0);
    compass::PlanRun run(donor, plan);
    ASSERT_TRUE(run.step());
    snapshot::SaveOptions opts;
    opts.plan_run = &run;
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor, opts);

    compass::Compass target(cfg);
    EXPECT_THROW(snapshot::restore_compass(snap, target), snapshot::SnapshotError);
}

// A PRUN position no run of the plan reaches fails closed: a pending
// settle count the stages before next_stage do not leave (INT_MAX would
// overflow the next Settle's sum), or a CORDIC marked done before the
// Cordic stage. load_state refuses the same positions.
TEST(PlanRunSnapshot, UnreachablePositionFailsClosed) {
    const compass::CompassConfig cfg = small_config();
    const compass::MeasurementPlan plan = compass::compile_plan(cfg);
    compass::Compass donor(cfg);
    donor.set_environment(kField, 10.0);
    compass::PlanRun run(donor, plan);
    ASSERT_TRUE(run.step());  // PowerUp: no settle steps pending, no CORDIC
    snapshot::SaveOptions donor_opts;
    donor_opts.plan_run = &run;
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor, donor_opts);

    // PRUN, the last section, holds next_stage (u32), the Measurement
    // (seven 8-byte fields and a bool), raw_x and raw_y, then
    // pending_settle_steps (i64), ran_cordic (u8) and the CORDIC trace.
    constexpr std::size_t kPayload = 4 + 57 + 16 + 8 + 1 + 40;
    const std::size_t prun = snap.size() - 4 - kPayload - kSectionHeaderBytes;
    ASSERT_EQ(read_u64le(snap, prun) & 0xFFFFFFFFu, snapshot::section_tag('P', 'R', 'U', 'N'));
    ASSERT_EQ(read_u64le(snap, prun + 4), kPayload);
    const std::size_t pending_at = prun + kSectionHeaderBytes + 4 + 57 + 16;
    const std::size_t ran_cordic_at = pending_at + 8;

    compass::Compass target(cfg);
    target.set_environment(kField, 200.0);
    compass::PlanRun resumed(target, plan);
    snapshot::RestoreTargets targets;
    targets.plan_run = &resumed;
    snapshot::SaveOptions target_opts;
    target_opts.plan_run = &resumed;
    const std::vector<std::uint8_t> before = snapshot::snapshot_compass(target, target_opts);

    const compass::PlanRun::State reached = run.save_state();
    std::vector<compass::PlanRun::State> unreachable(3, reached);
    unreachable[0].pending_settle_steps = std::numeric_limits<int>::max();
    unreachable[1].pending_settle_steps = -1;
    unreachable[2].ran_cordic = true;
    for (const compass::PlanRun::State& s : unreachable) {
        SCOPED_TRACE(testing::Message() << "pending " << s.pending_settle_steps
                                        << " ran_cordic " << s.ran_cordic);
        std::vector<std::uint8_t> hostile = snap;
        write_u64le(hostile, pending_at,
                    static_cast<std::uint64_t>(std::int64_t{s.pending_settle_steps}));
        hostile.at(ran_cordic_at) = s.ran_cordic ? 1 : 0;
        reseal_section(hostile, prun);
        EXPECT_THROW(snapshot::restore_compass(hostile, target, targets),
                     snapshot::SnapshotError);
        EXPECT_EQ(snapshot::snapshot_compass(target, target_opts), before);
        EXPECT_THROW(resumed.load_state(s), std::invalid_argument);
    }
    EXPECT_FALSE(compass::PlanRun::reachable(plan, unreachable[0]));
    EXPECT_TRUE(compass::PlanRun::reachable(plan, reached));
}

// ------------------------------------------------------- counter registers

TEST(CounterSnapshot, TrapPendingIsObservableAndSurvivesRestore) {
    digital::UpDownCounter counter;
    digital::CounterHardware hw;
    hw.width_bits = 4;
    hw.trap_on_overflow = true;
    counter.set_hardware(hw);
    // 16 up-ticks through a 4-bit register: +7 wraps to -8.
    counter.step(true, 16.0 / counter.clock_hz());
    // Satellite check: both flags are observable without service_trap().
    EXPECT_TRUE(counter.overflowed());
    EXPECT_TRUE(counter.trap_pending());

    digital::UpDownCounter restored;
    restored.set_hardware(counter.hardware());
    restored.load_full_state(counter.save_full_state());
    EXPECT_EQ(restored.count(), counter.count());
    EXPECT_EQ(restored.active_ticks(), counter.active_ticks());
    EXPECT_TRUE(restored.overflowed());
    EXPECT_TRUE(restored.trap_pending());
    // The restored register still owes the pipeline its trap.
    EXPECT_THROW(restored.service_trap(), std::overflow_error);
    EXPECT_FALSE(restored.trap_pending());
    EXPECT_TRUE(restored.overflowed()) << "sticky flag must survive the trap";
}

// UpDownCounter::clock_step leaves the tick accumulator in [0, 1), so
// a snapshot holding any other value cannot come from a run. Each of
// the compass, member and fleet restores rejects it before touching
// the target; restored, 1e300 would overflow the next measure()'s tick
// count conversion.
TEST(CounterSnapshot, ImpossibleTickAccumulatorFailsClosed) {
    const compass::CompassConfig cfg = small_config();
    for (const double acc : {1e300, std::nan(""), -0.5, 1.5}) {
        SCOPED_TRACE(acc);
        compass::CompassFleet donor(2, cfg);
        donor.set_environment(0, kField, 10.0);
        donor.set_environment(1, kField, 222.0);
        (void)donor.measure_all();
        digital::UpDownCounter::State st = donor.at(1).counter().save_state();
        st.tick_accumulator = acc;
        donor.at(1).counter().load_state(st);

        compass::Compass target(cfg);
        target.set_environment(kField, 40.0);
        (void)target.measure();
        const std::vector<std::uint8_t> before = snapshot::snapshot_compass(target);
        EXPECT_THROW(snapshot::restore_compass(snapshot::snapshot_compass(donor.at(1)), target),
                     snapshot::SnapshotError);
        EXPECT_EQ(snapshot::snapshot_compass(target), before);

        compass::CompassFleet dest(2, cfg);
        dest.set_environment(0, kField, 70.0);
        dest.set_environment(1, kField, 300.0);
        (void)dest.measure_all();
        const std::vector<std::uint8_t> dest_before = snapshot::snapshot_fleet(dest);
        EXPECT_THROW(snapshot::restore_member(snapshot::snapshot_member(donor, 1), dest, 0),
                     snapshot::SnapshotError);
        EXPECT_EQ(snapshot::snapshot_fleet(dest), dest_before);
        EXPECT_THROW(snapshot::restore_fleet(snapshot::snapshot_fleet(donor), dest),
                     snapshot::SnapshotError);
        EXPECT_EQ(snapshot::snapshot_fleet(dest), dest_before);
    }
}

// ---------------------------------------------------------------- fleets

TEST(FleetSnapshot, RoundTripRestoresEveryMember) {
    const compass::CompassConfig cfg = small_config();
    compass::CompassFleet fleet(3, cfg);
    for (int i = 0; i < 3; ++i) fleet.set_environment(i, kField, 10.0 + 111.0 * i);
    (void)fleet.measure_all();

    const std::vector<std::uint8_t> snap = snapshot::snapshot_fleet(fleet);
    const std::vector<compass::Measurement> expected = fleet.measure_all();

    // The snapshot rewinds the fleet to the pre-second-batch state, so
    // re-measuring reproduces the second batch bit for bit.
    snapshot::restore_fleet(snap, fleet);
    const std::vector<compass::Measurement> replayed = fleet.measure_all();
    ASSERT_EQ(replayed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expect_equal_measurements(replayed[i], expected[i]);
    }
}

TEST(FleetSnapshot, SizeMismatchRejectedBeforeAnyMemberChanges) {
    const compass::CompassConfig cfg = small_config();
    compass::CompassFleet three(3, cfg);
    for (int i = 0; i < 3; ++i) three.set_environment(i, kField, 15.0 * i);
    const std::vector<std::uint8_t> snap = snapshot::snapshot_fleet(three);

    compass::CompassFleet two(2, cfg);
    for (int i = 0; i < 2; ++i) two.set_environment(i, kField, 100.0 + i);
    const std::vector<std::uint8_t> before = snapshot::snapshot_fleet(two);
    try {
        snapshot::restore_fleet(snap, two);
        FAIL() << "size-mismatched fleet restore accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(snapshot::snapshot_fleet(two), before);
}

TEST(FleetSnapshot, MemberMigratesAcrossFleetsAndToStandalone) {
    const compass::CompassConfig cfg = small_config();
    compass::CompassFleet source(2, cfg);
    source.set_environment(0, kField, 10.0);
    source.set_environment(1, kField, 222.0);
    (void)source.measure_all();
    const std::vector<std::uint8_t> member = snapshot::snapshot_member(source, 1);
    const compass::Measurement expected = source.at(1).measure();

    // Into another fleet's slot...
    compass::CompassFleet dest(2, cfg);
    snapshot::restore_member(member, dest, 0);
    expect_equal_measurements(dest.at(0).measure(), expected);

    // ...and into a standalone compass: a member snapshot is just a
    // compass snapshot.
    compass::Compass standalone(cfg);
    snapshot::restore_compass(member, standalone);
    expect_equal_measurements(standalone.measure(), expected);
}

// ----------------------------------------------------- supervisor ladder

TEST(SupervisorSnapshot, MidLadderRestoreResumesAtTheSameRung) {
    const compass::CompassConfig cfg = small_config();
    fault::FaultSpec stuck;
    stuck.fault = fault::FaultClass::DetectorStuckLow;
    stuck.channel = analog::Channel::X;
    stuck.persistence = fault::Persistence::Permanent;

    // Walk supervisor 1 down the ladder: one healthy measurement, then
    // a permanent detector fault forces a degraded rung.
    compass::Compass compass1(cfg);
    compass1.set_environment(kField, 30.0);
    fault::MeasurementSupervisor sup1(compass1);
    ASSERT_EQ(sup1.measure().status, fault::SupervisedStatus::Ok);
    fault::FaultInjector injector1;
    injector1.add(stuck);
    injector1.arm(compass1);
    const fault::SupervisedMeasurement degraded = sup1.measure();
    ASSERT_NE(degraded.status, fault::SupervisedStatus::Ok);

    // Snapshot the pair (pipeline + ladder) mid-ladder.
    snapshot::SaveOptions opts;
    opts.injector = &injector1;
    const std::vector<std::uint8_t> pipeline =
        snapshot::snapshot_compass(compass1, opts);
    const std::vector<std::uint8_t> ladder = snapshot::snapshot_supervisor(sup1);

    // Restore into a fresh pair. The restored supervisor must resume at
    // the same rung — not from Healthy.
    compass::Compass compass2(cfg);
    fault::FaultInjector injector2;
    injector2.add(stuck);
    injector2.arm(compass2);
    snapshot::RestoreTargets targets;
    targets.injector = &injector2;
    snapshot::restore_compass(pipeline, compass2, targets);
    fault::MeasurementSupervisor sup2(compass2);
    ASSERT_FALSE(sup2.last_good().has_value()) << "fresh ladder starts empty";
    snapshot::restore_supervisor(ladder, sup2);

    ASSERT_TRUE(sup2.last_good().has_value());
    EXPECT_EQ(sup2.staleness_s(), sup1.staleness_s());
    expect_equal_measurements(sup2.last_good()->measurement,
                              sup1.last_good()->measurement);

    const fault::SupervisedMeasurement next1 = sup1.measure();
    const fault::SupervisedMeasurement next2 = sup2.measure();
    EXPECT_EQ(next2.status, next1.status);
    EXPECT_NE(next2.status, fault::SupervisedStatus::Ok);
    EXPECT_EQ(next2.heading_deg, next1.heading_deg);
    EXPECT_EQ(next2.staleness_s, next1.staleness_s);
    EXPECT_EQ(next2.attempts, next1.attempts);
    EXPECT_EQ(next2.stale, next1.stale);
}

// ---------------------------------------------------------------- metrics

namespace {

/// One MTRS container holding the entries of `a` and then those of `b`
/// (each a snapshot_metrics() file), so a test can list a name twice.
std::vector<std::uint8_t> splice_metrics(const std::vector<std::uint8_t>& a,
                                         const std::vector<std::uint8_t>& b) {
    // Each file is header, MTRS header, u64 count, entries, file CRC.
    constexpr std::size_t kEntries = kFileHeaderBytes + kSectionHeaderBytes + 8;
    std::vector<std::uint8_t> out(a.begin(), a.end() - 4);
    out.insert(out.end(), b.begin() + kEntries, b.end() - 4);
    out.resize(out.size() + 4);
    const std::size_t payload = out.size() - 4 - (kFileHeaderBytes + kSectionHeaderBytes);
    write_u64le(out, kFileHeaderBytes + 4, payload);
    write_u64le(out, kFileHeaderBytes + kSectionHeaderBytes,
                read_u64le(a, kEntries - 8) + read_u64le(b, kEntries - 8));
    reseal_section(out, kFileHeaderBytes);
    return out;
}

}  // namespace

TEST(MetricsSnapshot, RoundTripRestoresEveryInstrument) {
    telemetry::MetricsRegistry source;
    source.counter("measurements", "1").inc(7);
    source.gauge("heading", "deg").set(123.456);
    telemetry::Histogram& h = source.histogram("latency", "ms");
    for (const double x : {0.0, 0.5, 3.0, 3.0, 100.0}) h.observe(x);
    const std::vector<std::uint8_t> snap = snapshot::snapshot_metrics(source);

    telemetry::MetricsRegistry restored;
    snapshot::restore_metrics(snap, restored);
    EXPECT_EQ(restored.counter("measurements").value(), 7u);
    EXPECT_EQ(restored.gauge("heading").value(), 123.456);
    telemetry::Histogram& rh = restored.histogram("latency");
    EXPECT_EQ(rh.count(), 5u);
    EXPECT_EQ(rh.sum(), 106.5);
    for (std::size_t i = 0; i < telemetry::Histogram::kBuckets; ++i) {
        EXPECT_EQ(rh.bucket_count(i), h.bucket_count(i)) << i;
    }
    EXPECT_EQ(rh.bucket_count(telemetry::Histogram::bucket_of(3.0)), 2u);
    EXPECT_EQ(rh.quantile(0.99), h.quantile(0.99));
    EXPECT_EQ(snapshot::snapshot_metrics(restored), snap);
}

TEST(MetricsSnapshot, BadHistogramRecordFailsClosed) {
    // One histogram "h" (no unit) with buckets (i1, 1) and (i2, 2). Its
    // MTRS payload: u64 instrument count, u8 kind, u64 + "h", u64 + "",
    // u64 pair count, then (u32 index, u64 count) pairs, u64 count, sum.
    telemetry::MetricsRegistry source;
    for (const double x : {1.0, 3.0, 3.0}) source.histogram("h").observe(x);
    const std::vector<std::uint8_t> good = snapshot::snapshot_metrics(source);
    constexpr std::size_t kPairs = kFileHeaderBytes + kSectionHeaderBytes + 8 + 1 + 9 + 8;
    ASSERT_EQ(read_u64le(good, kPairs), 2u);
    constexpr std::size_t kIndex0 = kPairs + 8;
    constexpr std::size_t kIndex1 = kIndex0 + 12;
    constexpr std::size_t kCount = kIndex1 + 12;
    ASSERT_EQ(read_u64le(good, kCount), 3u);
    const auto u32_at = [&](std::size_t at) {
        return static_cast<std::uint32_t>(read_u64le(good, at));
    };
    ASSERT_EQ(u32_at(kIndex0), telemetry::Histogram::bucket_of(1.0));
    ASSERT_EQ(u32_at(kIndex1), telemetry::Histogram::bucket_of(3.0));

    const auto patch = [](std::vector<std::uint8_t> bytes, std::size_t at,
                          std::uint64_t v, int width) {
        for (int i = 0; i < width; ++i) {
            bytes[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        reseal_section(bytes, kFileHeaderBytes);
        return bytes;
    };
    constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
    const std::pair<const char*, std::vector<std::uint8_t>> cases[] = {
        {"index out of range", patch(good, kIndex1, telemetry::Histogram::kBuckets, 4)},
        {"repeated index", patch(good, kIndex1, u32_at(kIndex0), 4)},
        {"decreasing index", patch(good, kIndex1, u32_at(kIndex0) - 1, 4)},
        {"counts sum above count", patch(good, kCount, 2, 8)},
        {"counts sum below count", patch(good, kCount, 4, 8)},
        // (2^63 + 1) + (2^63 + 2) wraps round to the count, 3.
        {"counts wrap", patch(patch(good, kIndex0 + 4, kHalf + 1, 8), kIndex1 + 4,
                              kHalf + 2, 8)},
        {"name listed twice", splice_metrics(good, good)},
    };
    for (const auto& [what, bad] : cases) {
        telemetry::MetricsRegistry target;
        target.counter("untouched").inc(5);
        target.histogram("h").observe(7.0);
        const std::vector<std::uint8_t> before = snapshot::snapshot_metrics(target);
        EXPECT_THROW(snapshot::restore_metrics(bad, target), snapshot::SnapshotError)
            << what;
        EXPECT_EQ(snapshot::snapshot_metrics(target), before) << what;
    }
    telemetry::MetricsRegistry target;
    snapshot::restore_metrics(good, target);
    EXPECT_EQ(snapshot::snapshot_metrics(target), good);
}

TEST(MetricsSnapshot, KindConflictRejectedBeforeAnyChange) {
    telemetry::MetricsRegistry source;
    source.counter("m").inc(3);
    const std::vector<std::uint8_t> snap = snapshot::snapshot_metrics(source);

    telemetry::MetricsRegistry target;
    target.gauge("m").set(9.0);
    target.counter("untouched").inc(5);
    try {
        snapshot::restore_metrics(snap, target);
        FAIL() << "kind conflict accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(target.gauge("m").value(), 9.0);
    EXPECT_EQ(target.counter("untouched").value(), 5u);

    // A file that lists one name twice, as a counter and then as a
    // gauge, conflicts with itself: rejected before the counter lands.
    telemetry::MetricsRegistry counter_part;
    counter_part.counter("dup").inc(3);
    telemetry::MetricsRegistry gauge_part;
    gauge_part.gauge("dup").set(2.0);
    const std::vector<std::uint8_t> twice =
        splice_metrics(snapshot::snapshot_metrics(counter_part),
                       snapshot::snapshot_metrics(gauge_part));
    telemetry::MetricsRegistry empty;
    try {
        snapshot::restore_metrics(twice, empty);
        FAIL() << "a name listed twice with two kinds was accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(empty.entries().empty());
}

TEST(MetricsSnapshot, HostileInstrumentCountFailsClosed) {
    telemetry::MetricsRegistry source;
    source.counter("m").inc(3);
    std::vector<std::uint8_t> snap = snapshot::snapshot_metrics(source);
    // MTRS is the only section; its payload opens with the count.
    constexpr std::size_t kMtrs = kFileHeaderBytes;
    ASSERT_EQ(read_u64le(snap, kMtrs + kSectionHeaderBytes), 1u);
    write_u64le(snap, kMtrs + kSectionHeaderBytes, std::uint64_t{1} << 40);
    reseal_section(snap, kMtrs);

    telemetry::MetricsRegistry target;
    target.counter("untouched").inc(5);
    EXPECT_THROW(snapshot::restore_metrics(snap, target), snapshot::SnapshotError);
    EXPECT_EQ(target.counter("untouched").value(), 5u);
}

// ------------------------------------------------- mid-scenario restore

namespace {

/// A feature-dense compiled scenario sized to `ticks` measurements of
/// `cfg`'s plan: a turn through the middle ticks, an anomaly window, a
/// temperature ramp. Shared by the restore tests below.
std::shared_ptr<const magnetics::CompiledScenario> restore_scenario(
    const compass::CompassConfig& cfg, int ticks) {
    const compass::MeasurementPlan plan = compass::compile_plan(cfg);
    const double total_s =
        static_cast<double>(ticks) * static_cast<double>(plan.total_steps()) *
        plan.dt_s;
    magnetics::Scenario scn;
    scn.field = kField;
    scn.initial_heading_deg = 40.0;
    scn.hold(0.25 * total_s).turn(3000.0, 0.5 * total_s).hold(0.25 * total_s);
    scn.anomaly(0.3 * total_s, 0.3 * total_s, 1.5, -0.5);
    scn.temperature(0.0, 25.0).temperature(total_s, 45.0);
    return magnetics::compile_scenario(scn, plan.dt_s);
}

}  // namespace

TEST(ScenarioSnapshot, MidScenarioRestoreReplaysBitExactly) {
    // Restore at an arbitrary tick of a time-varying scenario, reinstall
    // the same compiled source (field sources are configuration, not
    // serialized state), and the replay must be bit-identical to the
    // uninterrupted run — including the final snapshot bytes.
    constexpr int kTicks = 4;
    for (const sim::EngineKind kind : {sim::EngineKind::Scalar, sim::EngineKind::Block}) {
        SCOPED_TRACE(sim::to_string(kind));
        compass::CompassConfig cfg = small_config();
        cfg.engine = kind;
        const auto src = restore_scenario(cfg, kTicks);

        compass::Compass ref(cfg);
        ref.set_field_source(src);
        std::vector<compass::Measurement> expected;
        for (int t = 0; t < kTicks; ++t) expected.push_back(ref.measure());
        const std::vector<std::uint8_t> ref_final = snapshot::snapshot_compass(ref);

        for (int k = 1; k < kTicks; ++k) {
            SCOPED_TRACE(k);
            compass::Compass donor(cfg);
            donor.set_field_source(src);
            for (int t = 0; t < k; ++t) {
                expect_equal_measurements(donor.measure(), expected[static_cast<std::size_t>(t)]);
            }
            const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor);

            compass::Compass resumed(cfg);
            snapshot::restore_compass(snap, resumed);
            // The restore carries the playhead, but not the source.
            EXPECT_EQ(resumed.front_end().field_source(), nullptr);
            EXPECT_EQ(resumed.front_end().save_window_state().sample_index,
                      static_cast<std::uint64_t>(k) * ref.plan().total_steps());
            resumed.set_field_source(src);
            for (int t = k; t < kTicks; ++t) {
                expect_equal_measurements(resumed.measure(), expected[static_cast<std::size_t>(t)]);
            }
            EXPECT_EQ(snapshot::snapshot_compass(resumed), ref_final);
        }
    }
}

TEST(ScenarioSnapshot, RestoredCompassContinuesOnTheLaneBatchPath) {
    // A mid-scenario restore can also finish its run through the SoA
    // lane engine: restore, reinstall the source, and run the remaining
    // ticks as PlanExecutor::run_lanes batches — bit-identical to the
    // uninterrupted per-member run.
    constexpr int kTicks = 4;
    compass::CompassConfig cfg = small_config();
    cfg.engine = sim::EngineKind::Block;
    const auto src = restore_scenario(cfg, kTicks);

    compass::Compass ref(cfg);
    ref.set_field_source(src);
    std::vector<compass::Measurement> expected;
    for (int t = 0; t < kTicks; ++t) expected.push_back(ref.measure());

    compass::Compass donor(cfg);
    donor.set_field_source(src);
    (void)donor.measure();
    (void)donor.measure();
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor);

    compass::Compass resumed(cfg);
    snapshot::restore_compass(snap, resumed);
    resumed.set_field_source(src);
    for (int t = 2; t < kTicks; ++t) {
        compass::Compass* lanes[1] = {&resumed};
        compass::LaneOutcome outcome[1];
        compass::PlanExecutor::run_lanes(resumed.plan(), lanes, outcome);
        ASSERT_FALSE(outcome[0].aborted) << outcome[0].error;
        expect_equal_measurements(outcome[0].measurement,
                                  expected[static_cast<std::size_t>(t)]);
    }
}

TEST(ScenarioSnapshot, CrossEngineRestoreFailsClosed) {
    // The engine kind is part of the config fingerprint: a mid-scenario
    // snapshot from one engine must not restore onto another (the
    // engines are bit-identical, but state layout equivalence is the
    // fingerprint's promise, not ours to assume) — and the rejected
    // target is untouched.
    compass::CompassConfig cfg = small_config();
    cfg.engine = sim::EngineKind::Scalar;
    const auto src = restore_scenario(cfg, 2);
    compass::Compass donor(cfg);
    donor.set_field_source(src);
    (void)donor.measure();
    const std::vector<std::uint8_t> snap = snapshot::snapshot_compass(donor);

    compass::CompassConfig other = cfg;
    other.engine = sim::EngineKind::Block;
    compass::Compass target(other);
    const std::vector<std::uint8_t> before = snapshot::snapshot_compass(target);
    EXPECT_THROW(snapshot::restore_compass(snap, target), snapshot::SnapshotError);
    EXPECT_EQ(snapshot::snapshot_compass(target), before);
}

// ------------------------------------------------------- golden layout
//
// tests/golden holds one file per record kind, written by the format-3
// encoder for the scenes of golden_scenes.hpp (write_golden rewrites
// them). Re-stamped with today's version word and CFG0 fingerprint, each
// must equal what today's encoder writes for the same scene, and must
// restore.

namespace {

std::vector<std::uint8_t> read_golden(const std::string& name) {
    std::ifstream f(std::string(FXG_GOLDEN_DIR) + "/" + name, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// One section of a container: header offset and payload bounds.
struct Section {
    std::uint32_t tag;
    std::size_t header;
    std::size_t begin;
    std::size_t end;
};

/// Every section in [from, to), parents before their children. MEMB
/// (after its u64 index) and PMRT hold sections; the rest hold fields.
void collect_sections(const std::vector<std::uint8_t>& bytes, std::size_t from,
                      std::size_t to, std::vector<Section>& out) {
    while (from + kSectionHeaderBytes <= to) {
        const auto tag = static_cast<std::uint32_t>(read_u64le(bytes, from));
        const std::size_t begin = from + kSectionHeaderBytes;
        const std::size_t end =
            begin + static_cast<std::size_t>(read_u64le(bytes, from + 4));
        out.push_back({tag, from, begin, end});
        if (tag == snapshot::section_tag('M', 'E', 'M', 'B')) {
            collect_sections(bytes, begin + 8, end, out);
        } else if (tag == snapshot::section_tag('P', 'M', 'R', 'T')) {
            collect_sections(bytes, begin, end, out);
        }
        from = end;
    }
}

std::vector<Section> sections_of(const std::vector<std::uint8_t>& bytes) {
    std::vector<Section> out;
    collect_sections(bytes, kFileHeaderBytes, bytes.size() - 4, out);
    return out;
}

/// A parent-written file as today's encoder would write it: today's
/// version word, today's fingerprint in every CFG0, CRCs re-sealed.
std::vector<std::uint8_t> restamp(std::vector<std::uint8_t> bytes) {
    bytes.at(8) = static_cast<std::uint8_t>(snapshot::kSnapshotFormatVersion);
    const std::vector<Section> sections = sections_of(bytes);
    for (const Section& s : sections) {
        if (s.tag == snapshot::section_tag('C', 'F', 'G', '0')) {
            write_u64le(bytes, s.begin, snapshot::config_fingerprint(golden::config()));
        }
    }
    for (auto s = sections.rbegin(); s != sections.rend(); ++s) {
        reseal_section(bytes, s->header);
    }
    refix_file_crc(bytes);
    return bytes;
}

/// XORs each byte between the version word and the file CRC with 0xFF
/// in turn, re-seals the CRC of every section whose payload holds it
/// and the file CRC, and hands the result to `restore`. Each restore
/// must succeed, or throw SnapshotError with `unchanged()` still true.
/// `reset()` undoes a successful restore.
void sweep(const std::string& name, const std::vector<std::uint8_t>& bytes,
           const std::function<void(std::span<const std::uint8_t>)>& restore,
           const std::function<bool()>& unchanged, const std::function<void()>& reset) {
    const std::vector<Section> sections = sections_of(bytes);
    int accepted = 0;
    int rejected = 0;
    for (std::size_t i = kFileHeaderBytes; i < bytes.size() - 4; ++i) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[i] ^= 0xFF;
        for (auto s = sections.rbegin(); s != sections.rend(); ++s) {
            if (s->begin <= i && i < s->end) reseal_section(mutated, s->header);
        }
        try {
            restore(mutated);
            ++accepted;
            reset();
        } catch (const snapshot::SnapshotError&) {
            ++rejected;
            EXPECT_TRUE(unchanged()) << name << ": flip of byte " << i
                                     << " partially restored";
        } catch (const std::exception& e) {
            ADD_FAILURE() << name << ": flip of byte " << i << " threw a non-"
                          << "SnapshotError: " << e.what();
        }
    }
    // Both outcomes occur: values decode, counts and enums are caught.
    EXPECT_GT(accepted, 0) << name;
    EXPECT_GT(rejected, 0) << name;
}

}  // namespace

TEST(SnapshotGolden, EncoderWritesTheCommittedBytesAndDecoderRestoresThem) {
    for (const auto& [name, written] : golden::write_all()) {
        SCOPED_TRACE(name);
        const std::vector<std::uint8_t> committed = read_golden(name);
        ASSERT_FALSE(committed.empty()) << "missing tests/golden/" << name;
        const std::vector<std::uint8_t> expected = restamp(committed);
        EXPECT_EQ(written, expected);
    }

    golden::CompassRig compass_rig(-golden::kHy, golden::kHx);
    const std::vector<std::uint8_t> compass_bytes =
        restamp(read_golden("compass.fxgsnap"));
    compass_rig.restore(compass_bytes);
    EXPECT_EQ(compass_rig.bytes(), compass_bytes);

    golden::FleetRig fleet_rig(-golden::kHy, golden::kHx);
    const std::vector<std::uint8_t> fleet_bytes =
        restamp(read_golden("fleet.fxgsnap"));
    fleet_rig.restore(fleet_bytes);
    EXPECT_EQ(fleet_rig.bytes(), fleet_bytes);

    golden::SupervisorRig supervisor_rig;
    const std::vector<std::uint8_t> ladder_bytes =
        restamp(read_golden("supervisor.fxgsnap"));
    supervisor_rig.restore(ladder_bytes);
    EXPECT_EQ(supervisor_rig.bytes(), ladder_bytes);

    telemetry::MetricsRegistry registry;
    const std::vector<std::uint8_t> metrics_bytes =
        restamp(read_golden("metrics.fxgsnap"));
    snapshot::restore_metrics(metrics_bytes, registry);
    EXPECT_EQ(snapshot::snapshot_metrics(registry), metrics_bytes);

    const std::vector<std::uint8_t> bundle_bytes =
        restamp(read_golden("postmortem.fxgpm"));
    EXPECT_EQ(snapshot::encode_postmortem(snapshot::decode_postmortem(bundle_bytes)),
              bundle_bytes);
}

// The whole-file CRC stops every flip of
// EveryByteFlipFailsClosedWithNoPartialRestore before a field is read.
// Re-sealing the CRCs around each flipped byte takes it to the field
// decoders instead.
TEST(SnapshotGolden, EveryResealedPayloadFlipRestoresOrFailsClosed) {
    {
        golden::CompassRig rig(-golden::kHy, golden::kHx);
        const std::vector<std::uint8_t> before = rig.bytes();
        sweep(
            "compass", restamp(read_golden("compass.fxgsnap")),
            [&](std::span<const std::uint8_t> b) { rig.restore(b); },
            [&] { return rig.bytes() == before; }, [&] { rig.restore(before); });
    }
    {
        golden::FleetRig rig(-golden::kHy, golden::kHx);
        const std::vector<std::uint8_t> before = rig.bytes();
        sweep(
            "fleet", restamp(read_golden("fleet.fxgsnap")),
            [&](std::span<const std::uint8_t> b) { rig.restore(b); },
            [&] { return rig.bytes() == before; }, [&] { rig.restore(before); });
    }
    {
        golden::SupervisorRig rig;
        const std::vector<std::uint8_t> before = rig.bytes();
        sweep(
            "supervisor", restamp(read_golden("supervisor.fxgsnap")),
            [&](std::span<const std::uint8_t> b) { rig.restore(b); },
            [&] { return rig.bytes() == before; }, [&] { rig.restore(before); });
    }
    {
        // A restore can add instruments, so each flip gets a fresh
        // registry holding one instrument of its own.
        auto registry = std::make_unique<telemetry::MetricsRegistry>();
        const auto fresh = [&] {
            registry = std::make_unique<telemetry::MetricsRegistry>();
            registry->counter("untouched").inc(5);
        };
        fresh();
        const std::vector<std::uint8_t> before = snapshot::snapshot_metrics(*registry);
        sweep(
            "metrics", restamp(read_golden("metrics.fxgsnap")),
            [&](std::span<const std::uint8_t> b) {
                snapshot::restore_metrics(b, *registry);
            },
            [&] { return snapshot::snapshot_metrics(*registry) == before; }, fresh);
    }
    sweep(
        "postmortem", restamp(read_golden("postmortem.fxgpm")),
        [](std::span<const std::uint8_t> b) { (void)snapshot::decode_postmortem(b); },
        [] { return true; }, [] {});
}
