/// \file postmortem_test.cpp
/// Postmortem bundles (.fxgpm) and the BlackBox wiring: codec round
/// trips, fail-closed corruption handling, atomic file emission with
/// deterministic numbering and the cap, and the two live trigger paths
/// from the acceptance criteria — a supervisor descending the ladder
/// and a fleet member whose counter traps — each yielding a bundle
/// whose JSONL parses and whose .fxgsnap restores a clone that replays
/// bit-exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "digital/counter.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "snapshot/format.hpp"
#include "snapshot/postmortem.hpp"
#include "snapshot/state.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

using namespace fxg;

namespace {

magnetics::EarthField site() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

compass::CompassConfig lite_config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 1024;
    cfg.periods_per_axis = 4;
    return cfg;
}

fault::HealthMonitorConfig site_monitor() {
    fault::HealthMonitorConfig cfg;
    cfg.min_horizontal_ut = 10.0;
    cfg.max_horizontal_ut = 30.0;
    return cfg;
}

snapshot::PostmortemBundle sample_bundle() {
    snapshot::PostmortemBundle b;
    b.reason = "test: injected Y-axis stuck detector";
    b.config_fingerprint = 0xDEADBEEFCAFE1234ULL;
    b.trace_jsonl =
        "{\"type\":\"event\",\"parent\":0,\"name\":\"ladder\",\"t_ns\":12,"
        "\"seq\":1,\"value\":2}\n";
    b.metrics_prometheus = "# TYPE fxg_measurements_total counter\n"
                           "fxg_measurements_total 7\n";
    b.metric_history = {"fxg_measurements_total 3\n",
                        "fxg_measurements_total 5\n"};
    b.snapshot = {0x01, 0x02, 0x03, 0x04, 0x05};
    return b;
}

void expect_equal_bundles(const snapshot::PostmortemBundle& a,
                          const snapshot::PostmortemBundle& b) {
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
    EXPECT_EQ(a.metrics_prometheus, b.metrics_prometheus);
    EXPECT_EQ(a.metric_history, b.metric_history);
    EXPECT_EQ(a.snapshot, b.snapshot);
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
}

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
    explicit ScratchDir(const char* name)
        : path(std::filesystem::temp_directory_path() / name) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

}  // namespace

TEST(PostmortemTest, CodecRoundTripsEverySection) {
    const snapshot::PostmortemBundle original = sample_bundle();
    const std::vector<std::uint8_t> bytes = snapshot::encode_postmortem(original);
    const snapshot::PostmortemBundle decoded = snapshot::decode_postmortem(bytes);
    expect_equal_bundles(decoded, original);
}

TEST(PostmortemTest, EmptySectionsRoundTrip) {
    const snapshot::PostmortemBundle empty;  // no trace, no snapshot, ...
    const snapshot::PostmortemBundle decoded =
        snapshot::decode_postmortem(snapshot::encode_postmortem(empty));
    expect_equal_bundles(decoded, empty);
}

TEST(PostmortemTest, CorruptionFailsClosed) {
    std::vector<std::uint8_t> bytes =
        snapshot::encode_postmortem(sample_bundle());
    // Every single-byte flip must be rejected (container CRCs).
    for (std::size_t i = 0; i < bytes.size(); i += 7) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[i] ^= 0x40;
        EXPECT_THROW(static_cast<void>(snapshot::decode_postmortem(mutated)),
                     snapshot::SnapshotError)
            << "flip at byte " << i;
    }
    bytes.resize(bytes.size() / 2);  // truncation
    EXPECT_THROW(static_cast<void>(snapshot::decode_postmortem(bytes)),
                 snapshot::SnapshotError);
}

// Counts read from the file never size an allocation: a bundle whose
// history count or snapshot size claims far more than the file holds
// fails closed like any other corruption.
TEST(PostmortemTest, HostileCountsFailClosed) {
    constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
    for (const bool hostile_history : {true, false}) {
        const std::uint64_t history = hostile_history ? kHuge : 0;
        const std::uint64_t snapshot_size = hostile_history ? 0 : kHuge;
        snapshot::SnapshotWriter w;
        w.begin_section(snapshot::section_tag('P', 'M', 'R', 'T'));
        w.begin_section(snapshot::section_tag('M', 'E', 'T', 'A'));
        w.put_string("hostile");
        w.put_u64(0);
        w.put_u64(history);
        w.put_u64(snapshot_size);
        w.end_section();
        w.begin_section(snapshot::section_tag('T', 'R', 'C', 'E'));
        w.put_string("");
        w.end_section();
        w.begin_section(snapshot::section_tag('P', 'R', 'O', 'M'));
        w.put_string("");
        w.put_u64(history);
        w.end_section();
        w.begin_section(snapshot::section_tag('S', 'N', 'A', 'P'));
        w.put_u64(snapshot_size);
        w.end_section();
        w.end_section();
        EXPECT_THROW(static_cast<void>(snapshot::decode_postmortem(w.finish())),
                     snapshot::SnapshotError)
            << (hostile_history ? "history count" : "snapshot size");
    }
}

TEST(PostmortemTest, FileWriteIsAtomicAndReadable) {
    const ScratchDir dir("fxg_postmortem_file_test");
    const std::string path = (dir.path / "bundle.fxgpm").string();
    const snapshot::PostmortemBundle original = sample_bundle();
    snapshot::write_postmortem_file(path, original);

    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
        << "tmp file left behind after the rename";
    expect_equal_bundles(snapshot::read_postmortem_file(path), original);

    EXPECT_THROW(static_cast<void>(snapshot::read_postmortem_file(
                     (dir.path / "absent.fxgpm").string())),
                 std::runtime_error);
}

TEST(PostmortemTest, BlackBoxNumbersBundlesAndHonoursTheCap) {
    const ScratchDir dir("fxg_postmortem_cap_test");
    telemetry::FlightRecorder recorder;
    telemetry::MetricsRegistry registry;
    snapshot::BlackBox::Config cfg;
    cfg.directory = dir.path.string();
    cfg.prefix = "pm";
    cfg.max_bundles = 2;
    snapshot::BlackBox box(recorder, registry, cfg);

    recorder.event("tick", 1.0);
    const std::string first = box.emit("reason one");
    const std::string second = box.emit("reason two");
    EXPECT_NE(first.find("pm_0.fxgpm"), std::string::npos);
    EXPECT_NE(second.find("pm_1.fxgpm"), std::string::npos);
    EXPECT_EQ(box.emit("reason three"), "") << "cap must stop the storm";
    EXPECT_EQ(box.emitted(), 2u);

    // The recorder thaws after each emission: still accepting writes.
    EXPECT_FALSE(recorder.frozen());
    const snapshot::PostmortemBundle b = snapshot::read_postmortem_file(first);
    EXPECT_EQ(b.reason, "reason one");
    EXPECT_NO_THROW(static_cast<void>(telemetry::parse_trace_jsonl(b.trace_jsonl)));
}

TEST(PostmortemTest, SupervisorLadderDescentEmitsReplayableBundle) {
    const ScratchDir dir("fxg_postmortem_supervisor_test");
    const compass::CompassConfig cfg = lite_config();

    compass::Compass compass(cfg);
    compass.set_environment(site(), 200.0);

    telemetry::FlightRecorder recorder;
    telemetry::MetricsRegistry registry;
    compass.set_telemetry(&recorder);

    snapshot::BlackBox::Config box_cfg;
    box_cfg.directory = dir.path.string();
    snapshot::BlackBox box(recorder, registry, box_cfg);
    box.set_fingerprint(snapshot::config_fingerprint(cfg));
    box.set_snapshot_source(
        [&compass] { return snapshot::snapshot_compass(compass); });

    fault::SupervisorConfig sup_cfg;
    sup_cfg.health = site_monitor();
    fault::MeasurementSupervisor supervisor(compass, sup_cfg);
    supervisor.set_postmortem_hook(box.supervisor_hook());

    // A healthy measurement must NOT trip the black box...
    ASSERT_EQ(supervisor.measure().status, fault::SupervisedStatus::Ok);
    EXPECT_EQ(box.emitted(), 0u);

    // ...but a Y-axis stuck detector degrades to single-axis, which is
    // at the default trigger rung.
    fault::FaultInjector injector;
    injector.add({.fault = fault::FaultClass::DetectorStuckLow,
                  .channel = analog::Channel::Y});
    injector.arm(compass);
    const auto result = supervisor.measure();
    ASSERT_EQ(result.status, fault::SupervisedStatus::DegradedSingleAxis);
    ASSERT_EQ(box.emitted(), 1u);

    const std::string path = (dir.path / "postmortem_0.fxgpm").string();
    const snapshot::PostmortemBundle bundle = snapshot::read_postmortem_file(path);
    EXPECT_NE(bundle.reason.find("supervisor"), std::string::npos);
    EXPECT_NE(bundle.reason.find("DegradedSingleAxis"), std::string::npos)
        << bundle.reason;
    EXPECT_EQ(bundle.config_fingerprint, snapshot::config_fingerprint(cfg));

    // The frozen trace parses and holds the ladder's pipeline spans.
    const telemetry::ParsedTrace trace =
        telemetry::parse_trace_jsonl(bundle.trace_jsonl);
    EXPECT_GT(trace.spans.size(), 0u);

    // Replay: the embedded .fxgsnap restores a clone (same config, same
    // injected fault) that continues bit-exactly with the original.
    injector.disarm();
    const compass::Measurement expected = compass.measure();

    compass::Compass clone(cfg);
    clone.set_environment(site(), 200.0);
    snapshot::restore_compass(bundle.snapshot, clone);
    const compass::Measurement replayed = clone.measure();
    expect_equal_measurements(replayed, expected);
}

TEST(PostmortemTest, FleetCounterTrapEmitsBundleWithMemberSnapshot) {
    const ScratchDir dir("fxg_postmortem_fleet_test");
    const compass::CompassConfig cfg = lite_config();

    compass::CompassFleet fleet(4, cfg);
    std::vector<double> headings{10.0, 100.0, 190.0, 280.0};
    fleet.set_environments(site(), headings);

    snapshot::BlackBox::Config box_cfg;
    box_cfg.directory = dir.path.string();
    box_cfg.prefix = "fleet";
    snapshot::BlackBox box(fleet.flight_recorder(), fleet.metrics(), box_cfg);
    box.set_fingerprint(snapshot::config_fingerprint(cfg));
    box.set_snapshot_source(
        [&fleet] { return snapshot::snapshot_member(fleet, 2); });
    fleet.set_member_failure_hook(box.fleet_hook());

    // Member 2's count register is 4 bits wide with a trap: the count
    // window overflows it and the pipeline aborts that member.
    fleet.at(2).counter().set_hardware(
        {.width_bits = 4, .trap_on_overflow = true});

    const std::vector<compass::FleetResult> results =
        fleet.measure_all_results();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[2].ok) << "trap must abort member 2";
    for (int i : {0, 1, 3}) {
        EXPECT_TRUE(results[static_cast<std::size_t>(i)].ok)
            << "member " << i << " must survive its neighbour's trap";
    }
    ASSERT_EQ(box.emitted(), 1u);

    const snapshot::PostmortemBundle bundle =
        snapshot::read_postmortem_file((dir.path / "fleet_0.fxgpm").string());
    EXPECT_NE(bundle.reason.find("member 2"), std::string::npos)
        << bundle.reason;
    EXPECT_NO_THROW(
        static_cast<void>(telemetry::parse_trace_jsonl(bundle.trace_jsonl)));
    EXPECT_NE(bundle.metrics_prometheus.find("fxg_"), std::string::npos);

    // The member snapshot restores into a standalone compass with the
    // same configuration — including the sticky overflow flag of the
    // 4-bit register whose serviced trap aborted the member (the trap
    // itself is no longer pending: servicing it IS the abort).
    compass::Compass clone(cfg);
    clone.counter().set_hardware({.width_bits = 4, .trap_on_overflow = true});
    snapshot::restore_compass(bundle.snapshot, clone);
    EXPECT_TRUE(clone.counter().overflowed());
    EXPECT_FALSE(clone.counter().trap_pending());
}
