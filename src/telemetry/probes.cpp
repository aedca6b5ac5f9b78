#include "telemetry/probes.hpp"

#include <cmath>

namespace fxg::telemetry {

namespace {

std::string sanitise(const char* name) {
    std::string s(name);
    for (char& c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok) c = '_';
    }
    return s;
}

}  // namespace

PhysicsProbes::PhysicsProbes(MetricsRegistry& registry, const std::string& latency_name)
    : registry_(registry),
      measurements_(registry.counter("fxg_measurements_total", "measurements")),
      out_of_range_(registry.counter("fxg_out_of_range_total", "measurements")),
      count_raw_x_(registry.gauge("fxg_count_raw_x", "counts")),
      count_raw_y_(registry.gauge("fxg_count_raw_y", "counts")),
      duty_x_(registry.gauge("fxg_duty_x", "ratio")),
      duty_y_(registry.gauge("fxg_duty_y", "ratio")),
      pulse_shift_x_(registry.gauge("fxg_pulse_shift_x", "ratio")),
      pulse_shift_y_(registry.gauge("fxg_pulse_shift_y", "ratio")),
      valid_fraction_x_(registry.gauge("fxg_valid_fraction_x", "ratio")),
      valid_fraction_y_(registry.gauge("fxg_valid_fraction_y", "ratio")),
      cordic_rotations_(registry.gauge("fxg_cordic_rotations", "rotations")),
      cordic_residual_deg_(registry.gauge("fxg_cordic_residual_deg", "deg")),
      heading_deg_(registry.gauge("fxg_heading_deg", "deg")),
      energy_j_(registry.gauge("fxg_energy_j", "J")),
      latency_(registry.histogram(latency_name, "s")),
      count_abs_(registry.histogram("fxg_count_abs", "counts")) {}

SpanId PhysicsProbes::begin_span(const char*, int) { return kNoSpan; }

void PhysicsProbes::end_span(SpanId, std::int64_t) {}

void PhysicsProbes::event(const char* name, double value) {
    EventInstruments instruments{};
    {
        std::lock_guard<std::mutex> lock(event_mutex_);
        auto it = event_cache_.find(name);
        if (it == event_cache_.end()) {
            const std::string base = "fxg_event_" + sanitise(name);
            instruments.total = &registry_.counter(base + "_total", "events");
            instruments.last = &registry_.gauge(base, "");
            it = event_cache_.emplace(name, instruments).first;
        }
        instruments = it->second;
    }
    instruments.total->inc();
    instruments.last->set(value);
}

void PhysicsProbes::on_sample(const MeasurementSample& s) {
    measurements_.inc();
    if (!s.field_in_range) out_of_range_.inc();
    count_raw_x_.set(static_cast<double>(s.raw_count_x));
    count_raw_y_.set(static_cast<double>(s.raw_count_y));
    duty_x_.set(s.duty_x);
    duty_y_.set(s.duty_y);
    pulse_shift_x_.set(s.pulse_shift_x);
    pulse_shift_y_.set(s.pulse_shift_y);
    valid_fraction_x_.set(s.valid_fraction_x);
    valid_fraction_y_.set(s.valid_fraction_y);
    cordic_rotations_.set(s.cordic_rotations);
    cordic_residual_deg_.set(s.cordic_residual_deg);
    heading_deg_.set(s.heading_deg);
    energy_j_.set(s.energy_j);
    latency_.observe(s.latency_s);
    count_abs_.observe(std::fabs(static_cast<double>(s.raw_count_x)));
    count_abs_.observe(std::fabs(static_cast<double>(s.raw_count_y)));
}

}  // namespace fxg::telemetry
