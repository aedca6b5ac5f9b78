#pragma once

/// \file field_source.hpp
/// Time-varying magnetic environment seam.
///
/// Historically the compass pinned one (hx, hy) pair per measurement via
/// Compass::set_axis_fields and that constant was plumbed as a scalar
/// through every engine. A FieldSource replaces the constant with a
/// per-tick provider: the front end asks for the environment at each
/// sample index and applies it before stepping the analog chain. The
/// sample index is the FrontEnd's monotone sample counter, so scenario
/// time survives snapshot/restore for free (the counter is already
/// serialized) and all three engines — scalar, block, SoA lanes — see
/// exactly the same tick sequence.
///
/// Contract:
///  * field_at(i) must be a pure function of i (no internal cursor):
///    sources are shared const across fleet lanes and may be queried
///    out of order or concurrently.
///  * constant_until(begin) lets engines skip per-tick queries over
///    runs where the field does not change; ConstantFieldSource
///    answers kForever, which keeps the block fast path on the
///    pre-seam code path and every advance in the lane kernel
///    (bit-identical, no throughput regression). The lane kernel takes
///    a lane only over an advance its field holds for.

#include <cstdint>
#include <memory>

namespace fxg::magnetics {

/// Environment at one sample tick: sensor-axis field components plus
/// ambient temperature. Temperature only matters when the sensor's
/// core has nonzero temperature coefficients (see FluxgateParams);
/// the default 25 C is the reference temperature, i.e. "no effect".
struct FieldTick {
    double hx_a_per_m = 0.0;  ///< field along the x sensor axis [A/m]
    double hy_a_per_m = 0.0;  ///< field along the y sensor axis [A/m]
    double temp_c = 25.0;     ///< ambient temperature [deg C]
};

[[nodiscard]] inline bool operator==(const FieldTick& a, const FieldTick& b) noexcept {
    return a.hx_a_per_m == b.hx_a_per_m && a.hy_a_per_m == b.hy_a_per_m &&
           a.temp_c == b.temp_c;
}
[[nodiscard]] inline bool operator!=(const FieldTick& a, const FieldTick& b) noexcept {
    return !(a == b);
}

/// Per-tick environment provider. Implementations must be usable as
/// shared const objects (thread-safe, no mutable query state).
class FieldSource {
public:
    /// Sentinel for "constant for all remaining samples".
    static constexpr std::uint64_t kForever = UINT64_MAX;

    virtual ~FieldSource() = default;

    /// Environment applied at the start of sample `sample_index`.
    [[nodiscard]] virtual FieldTick field_at(std::uint64_t sample_index) const = 0;

    /// Returns an index `end` > `begin` such that field_at is constant
    /// on [begin, end), writing that constant into *tick when non-null.
    /// kForever means constant forever. The default answers begin + 1
    /// (always correct, never fast); sources with segment structure
    /// should answer the true boundary so engines can batch.
    [[nodiscard]] virtual std::uint64_t constant_until(std::uint64_t begin,
                                                      FieldTick* tick) const {
        if (tick != nullptr) *tick = field_at(begin);
        return begin == kForever ? kForever : begin + 1;
    }

    /// True when the field is constant over the whole of [begin, end).
    [[nodiscard]] bool constant_over(std::uint64_t begin, std::uint64_t end,
                                     FieldTick* tick = nullptr) const {
        return constant_until(begin, tick) >= end;
    }
};

/// The fast path: a fixed environment, bit-identical to the historic
/// set_axis_fields behaviour on every engine.
class ConstantFieldSource final : public FieldSource {
public:
    ConstantFieldSource() = default;
    explicit ConstantFieldSource(const FieldTick& tick) : tick_(tick) {}
    ConstantFieldSource(double hx_a_per_m, double hy_a_per_m, double temp_c = 25.0)
        : tick_{hx_a_per_m, hy_a_per_m, temp_c} {}

    [[nodiscard]] FieldTick field_at(std::uint64_t) const override { return tick_; }

    [[nodiscard]] std::uint64_t constant_until(std::uint64_t,
                                               FieldTick* tick) const override {
        if (tick != nullptr) *tick = tick_;
        return kForever;
    }

    [[nodiscard]] const FieldTick& tick() const noexcept { return tick_; }

private:
    FieldTick tick_{};
};

/// Convenience: wraps (hx, hy, temp) in a shared ConstantFieldSource.
std::shared_ptr<const FieldSource> make_constant_field(double hx_a_per_m,
                                                       double hy_a_per_m,
                                                       double temp_c = 25.0);

}  // namespace fxg::magnetics
