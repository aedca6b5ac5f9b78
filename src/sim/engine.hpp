#pragma once

/// \file engine.hpp
/// The simulation-engine layer: how the mixed-signal front end is
/// advanced through time is a strategy, decoupled from WHAT the compass
/// control logic does. An engine advances the analogue section by a
/// number of samples and streams the detector output into the up/down
/// counter — the innermost loop of every measurement, sweep bench and
/// fleet workload.
///
/// Two interchangeable implementations:
///
///  * ScalarEngine — the reference: one FrontEnd::step() per sample,
///    exactly the loop the compass control logic originally inlined.
///  * BlockEngine  — advances a whole excitation period (or more) per
///    call through the step_block() APIs of the analogue stages: flat
///    arrays, per-sample branching hoisted, the idle multiplexed sensor
///    on an O(1) constant-drive path, counter accumulation fused over
///    the block.
///
/// Contract: for identical front-end/counter state and identical call
/// sequences, both engines leave identical state behind — bit-identical
/// counter values, energy sums and noise streams (asserted by
/// tests/sim_engine_test.cpp across headings, modes and noise). The
/// block engine is therefore a pure throughput upgrade, not a model
/// change.

#include <memory>

#include "analog/front_end.hpp"
#include "analog/mux.hpp"
#include "digital/counter.hpp"
#include "telemetry/sink.hpp"

namespace fxg::sim {

/// Which engine a Compass (or bench) runs on.
enum class EngineKind {
    Scalar,  ///< per-sample reference stepping
    Block,   ///< block stepping over flat arrays
};

[[nodiscard]] const char* to_string(EngineKind kind) noexcept;

/// Strategy interface for advancing the mixed-signal pipeline.
class SimEngine {
public:
    virtual ~SimEngine() = default;

    [[nodiscard]] virtual EngineKind kind() const noexcept = 0;
    [[nodiscard]] virtual const char* name() const noexcept = 0;

    /// Advances `front_end` by `steps` samples of `dt_s`. Per sample,
    /// the front-end supply energy (power * dt) is accumulated onto
    /// `energy_j` in sample order, and — when `counter` is non-null —
    /// every settled (valid) sample of `channel`'s detector output is
    /// clocked into the counter. A null `counter` is the settling phase:
    /// the pipeline advances and burns energy but nothing is counted.
    virtual void advance(analog::FrontEnd& front_end, analog::Channel channel,
                         int steps, double dt_s, digital::UpDownCounter* counter,
                         double& energy_j) = 0;

    /// Attaches a non-owning telemetry sink (nullptr detaches). Each
    /// advance() is then wrapped in an "engine.scalar" / "engine.block"
    /// span carrying the step count, so a trace shows exactly which
    /// substrate every settle/count phase ran on. Instrumentation never
    /// touches simulation state — the engines' bit-identity contract is
    /// unaffected (asserted by tests/telemetry_test.cpp).
    void set_telemetry(telemetry::TelemetrySink* sink) noexcept { telemetry_ = sink; }
    [[nodiscard]] telemetry::TelemetrySink* telemetry() const noexcept {
        return telemetry_;
    }

protected:
    telemetry::TelemetrySink* telemetry_ = nullptr;  ///< non-owning hook
};

/// Reference engine: delegates to FrontEnd::step() one sample at a time.
class ScalarEngine final : public SimEngine {
public:
    [[nodiscard]] EngineKind kind() const noexcept override {
        return EngineKind::Scalar;
    }
    [[nodiscard]] const char* name() const noexcept override { return "scalar"; }
    void advance(analog::FrontEnd& front_end, analog::Channel channel, int steps,
                 double dt_s, digital::UpDownCounter* counter,
                 double& energy_j) override;
};

/// Block engine: advances in chunks of kBlockSamples through
/// FrontEnd::step_block() with the counter fused over each chunk. Its
/// scratch block is per thread, so a thread's engines share one and a
/// thread's sequential measurements do not reallocate.
class BlockEngine final : public SimEngine {
public:
    /// Chunk size in samples: the compass's default steps_per_period,
    /// so one chunk is one excitation period.
    static constexpr int kBlockSamples = 2048;

    [[nodiscard]] EngineKind kind() const noexcept override {
        return EngineKind::Block;
    }
    [[nodiscard]] const char* name() const noexcept override { return "block"; }
    void advance(analog::FrontEnd& front_end, analog::Channel channel, int steps,
                 double dt_s, digital::UpDownCounter* counter,
                 double& energy_j) override;
};

/// Engine factory (the CompassConfig::engine knob resolves through it).
[[nodiscard]] std::unique_ptr<SimEngine> make_engine(EngineKind kind);

}  // namespace fxg::sim
