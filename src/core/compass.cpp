#include "core/compass.hpp"

#include <cmath>
#include <stdexcept>

namespace fxg::compass {

Compass::Compass(const CompassConfig& config)
    : Compass(config, std::make_shared<const MeasurementPlan>(compile_plan(config))) {}

Compass::Compass(const CompassConfig& config,
                 std::shared_ptr<const MeasurementPlan> plan)
    : config_(config), front_end_(config.front_end),
      counter_(config.counter_clock_hz),
      cordic_(config.cordic_cycles, config.cordic_frac_bits),
      watch_(static_cast<std::uint64_t>(config.counter_clock_hz)),
      engine_(sim::make_engine(config.engine)) {
    if (config.periods_per_axis < 1 || config.settle_periods < 0) {
        throw std::invalid_argument("Compass: bad period configuration");
    }
    if (config.steps_per_period < 64) {
        throw std::invalid_argument("Compass: steps_per_period must be >= 64");
    }
    if (!plan) throw std::invalid_argument("Compass: null shared plan");
    plan_ = std::move(plan);
}

void Compass::set_environment(const magnetics::EarthField& field, double heading_deg) {
    const magnetics::HorizontalField h = field.at_heading(heading_deg);
    set_axis_fields(h.hx_a_per_m, h.hy_a_per_m);
}

void Compass::set_axis_fields(double hx_a_per_m, double hy_a_per_m) {
    // Sugar for a constant environment (see the header's naming note).
    // Installing a source rather than poking the sensors keeps every
    // caller — tests, benches, sweeps — on the FieldSource seam.
    front_end_.set_field_source(
        magnetics::make_constant_field(hx_a_per_m, hy_a_per_m));
}

void Compass::set_field_source(std::shared_ptr<const magnetics::FieldSource> source) {
    front_end_.set_field_source(std::move(source));
}

const magnetics::FieldSource* Compass::field_source() const noexcept {
    return front_end_.field_source();
}

Measurement Compass::measure() {
    return PlanExecutor(*this).run(*plan_);
}

void Compass::re_excite() {
    front_end_.reset();
    counter_.reset();
}

void Compass::idle(double seconds) {
    if (!(seconds >= 0.0)) throw std::invalid_argument("Compass::idle: negative time");
    watch_.tick(static_cast<std::uint64_t>(
        std::llround(seconds * config_.counter_clock_hz)));
}

}  // namespace fxg::compass
