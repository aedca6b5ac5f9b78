#pragma once

/// \file golden_scenes.hpp
/// The scenes behind tests/golden: one live object per record kind the
/// .fxgsnap codecs carry, built from exact inputs only (axis fields set
/// directly, no pickup noise), so no libm result reaches the bytes and
/// every host and build writes the same ones. snapshot_test compares
/// today's encoder with the committed files; write_golden rewrites them.
/// Only public API that format 3 already had is used, so a checkout of
/// an older commit can build write_golden to show what it wrote.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/compass.hpp"
#include "core/compass_fleet.hpp"
#include "core/plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/supervisor.hpp"
#include "snapshot/postmortem.hpp"
#include "snapshot/state.hpp"
#include "telemetry/metrics.hpp"

namespace fxg::golden {

constexpr double kHx = 30.0;  // A/m, set directly: no trig
constexpr double kHy = -12.5;

inline compass::CompassConfig config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 64;
    cfg.periods_per_axis = 1;
    cfg.settle_periods = 1;
    return cfg;
}

inline fault::FaultSpec tap_spec() {
    fault::FaultSpec spec;
    spec.fault = fault::FaultClass::PickupOpen;
    spec.channel = analog::Channel::X;
    spec.persistence = fault::Persistence::Transient;
    spec.start_sample = 10;
    spec.duration_samples = 50;
    return spec;
}

/// A compass with an armed injector and a PlanRun over it: the scene of
/// the compass record (TAP0 and PRUN present) and its restore target.
struct CompassRig {
    compass::Compass compass{config()};
    fault::FaultInjector injector;
    std::optional<compass::PlanRun> run;

    CompassRig(double hx, double hy) {
        digital::CounterHardware hw;
        hw.width_bits = 16;
        compass.counter().set_hardware(hw);
        compass.set_calibration({3, -2, 1.25, {}});
        compass.set_axis_fields(hx, hy);
        injector.add(tap_spec());
        injector.arm(compass);
        (void)compass.measure();
        run.emplace(compass, compass.plan());
    }

    /// Steps the run up to, not into, its CORDIC stage.
    void suspend_before_cordic() {
        const auto& stages = compass.plan().stages;
        while (stages.at(run->next_stage()).kind != compass::StageKind::Cordic) {
            (void)run->step();
        }
    }

    snapshot::SaveOptions save() { return {&injector, &*run}; }
    snapshot::RestoreTargets targets() { return {&injector, &*run}; }
    std::vector<std::uint8_t> bytes() {
        return snapshot::snapshot_compass(compass, save());
    }
    void restore(std::span<const std::uint8_t> b) {
        snapshot::restore_compass(b, compass, targets());
    }
};

struct FleetRig {
    compass::CompassFleet fleet{2, config()};

    FleetRig(double hx, double hy) {
        fleet.at(0).set_axis_fields(hx, hy);
        fleet.at(1).set_axis_fields(-hy, hx);
        (void)fleet.measure_all();
    }
    std::vector<std::uint8_t> bytes() { return snapshot::snapshot_fleet(fleet); }
    void restore(std::span<const std::uint8_t> b) { snapshot::restore_fleet(b, fleet); }
};

/// A ladder holding its last good heading, 0.75 s stale, with two
/// findings on record.
inline fault::MeasurementSupervisor::LadderState stale_ladder() {
    fault::SupervisedMeasurement sm;
    sm.measurement = {123.5, 123.4375, 211, -97, 2.5e-4, 1.5e-6, 6.0e-3, true};
    sm.health.ok = false;
    sm.health.findings = {
        {fault::FaultCode::DetectorSilent, analog::Channel::Y, true, "no edges on y"},
        {fault::FaultCode::EdgeRateLow, analog::Channel::X, true, "x: 0.5 per period"}};
    sm.health.est_hx_a_per_m = 30.0;
    sm.health.est_hy_a_per_m = -12.5;
    sm.health.est_horizontal_ut = 40.8;
    sm.health.duty_x = 0.55;
    sm.health.duty_y = 0.45;
    sm.health.edge_rate_x = 0.5;
    sm.health.edge_rate_y = 0.0;
    sm.status = fault::SupervisedStatus::HoldLastGood;
    sm.heading_deg = 123.5;
    sm.attempts = 3;
    sm.stale = true;
    sm.staleness_s = 0.75;
    sm.diagnostics = "held: y silent";
    return {sm, 0.75, {0.5, -0.25, true}};
}

struct SupervisorRig {
    compass::Compass compass{config()};
    fault::MeasurementSupervisor supervisor{compass};

    std::vector<std::uint8_t> bytes() {
        return snapshot::snapshot_supervisor(supervisor);
    }
    void restore(std::span<const std::uint8_t> b) {
        snapshot::restore_supervisor(b, supervisor);
    }
};

inline void fill_metrics(telemetry::MetricsRegistry& registry) {
    registry.counter("fxg_measurements_total", "1").inc(7);
    registry.gauge("fxg_heading_deg", "deg").set(123.456);
    telemetry::Histogram& h = registry.histogram("fxg_latency_ms", "ms");
    for (const double x : {0.5, 3.0, 100.0}) h.observe(x);
}

inline snapshot::PostmortemBundle bundle() {
    snapshot::PostmortemBundle b;
    b.reason = "supervisor: HoldLastGood after 3 attempt(s): held: y silent";
    b.config_fingerprint = 0x0123456789abcdefull;
    b.trace_jsonl = "{\"name\":\"measure\",\"ts_ns\":0,\"dur_ns\":250000}\n";
    b.metrics_prometheus =
        "# TYPE fxg_measurements_total counter\nfxg_measurements_total 7\n";
    b.metric_history = {"fxg_measurements_total 5\n", "fxg_measurements_total 6\n"};
    for (std::uint8_t i = 0; i < 16; ++i) b.snapshot.push_back(i);
    return b;
}

/// The five scenes, each encoded by today's encoder.
inline std::vector<std::pair<std::string, std::vector<std::uint8_t>>> write_all() {
    CompassRig compass_rig(kHx, kHy);
    compass_rig.suspend_before_cordic();
    FleetRig fleet_rig(kHx, kHy);
    SupervisorRig supervisor_rig;
    supervisor_rig.supervisor.load_ladder_state(stale_ladder());
    telemetry::MetricsRegistry registry;
    fill_metrics(registry);
    return {{"compass.fxgsnap", compass_rig.bytes()},
            {"fleet.fxgsnap", fleet_rig.bytes()},
            {"supervisor.fxgsnap", supervisor_rig.bytes()},
            {"metrics.fxgsnap", snapshot::snapshot_metrics(registry)},
            {"postmortem.fxgpm", snapshot::encode_postmortem(bundle())}};
}

}  // namespace fxg::golden
