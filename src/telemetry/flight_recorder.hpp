#pragma once

/// \file flight_recorder.hpp
/// Always-on black box for the telemetry stream. A FlightRecorder is a
/// TelemetrySink backed by per-thread bounded ring buffers: every span,
/// event and measurement sample lands in the calling thread's own ring
/// with a single atomic head bump — no locks, no allocation on the hot
/// path — and old records are silently overwritten once the ring wraps.
/// The recorder therefore retains "the recent past" at a fixed memory
/// cost, which is exactly what a postmortem needs when a fault trips
/// minutes into a soak.
///
/// Concurrency contract:
///  * Each ring is single-producer (its owning thread) / single-
///    consumer (the drain under freeze). Writers publish records with a
///    release store of the head; they set a `busy` flag (seq_cst) for
///    the duration of a write and re-check `frozen` after raising it,
///    so freeze() can wait out in-flight writes and no record is ever
///    half-visible to a drain — the "no lost freeze" property the TSan
///    leg asserts.
///  * freeze()/unfreeze() nest (an atomic count). While frozen, writers
///    drop records (counted in dropped()) instead of mutating rings, so
///    a bundle sees a consistent cut.
///  * trace_jsonl() freezes, drains every ring, merges records by the
///    global telemetry sequence, renders parse_trace_jsonl-compatible
///    JSONL and unfreezes. Samples — which have no span/event line type
///    of their own — are expanded into "sample.*" event lines.
///
/// Metric snapshots: when a registry is attached, the recorder
/// captures the full Prometheus text once per kSnapshotEvery samples
/// into a small bounded deque (mutex-guarded; the cold path). The last
/// kSnapshotsKept snapshots ride along in postmortem bundles so a bundle
/// shows the metric trajectory into the fault, not just the final
/// values. A fleet's registry holds a fixed set of instruments at any
/// fleet size, so a render costs the same at 16 members as at 65,536.
/// Exactly one writer (the one whose compare-exchange claims the due
/// sample) renders each snapshot, outside any lock, so no other writer
/// ever waits on a render. A snapshot that comes due while frozen is
/// taken by the first sample after the freeze ends.
///
/// requires_member_trace() is false: a fleet carrying a FlightRecorder
/// on every member keeps the SoA lane engine's batch dispatch.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace fxg::telemetry {

class FlightRecorder final : public TelemetrySink {
public:
    /// Records retained per writer thread (a power of two, so a ring
    /// index wraps with a mask); ~88 bytes per record.
    static constexpr std::size_t kRingCapacity = 2048;
    /// Samples between metric snapshots. A render of a fleet's registry
    /// costs about as much as one or two member measurements, so at this
    /// cadence renders take about 0.1 % of a fleet's time (DESIGN.md
    /// section 14).
    static constexpr std::uint64_t kSnapshotEvery = 1024;
    /// Snapshots the bounded deque retains.
    static constexpr std::size_t kSnapshotsKept = 4;

    FlightRecorder();
    ~FlightRecorder() override;

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Registry to snapshot periodically (optional; must outlive the
    /// recorder). Not thread-safe against concurrent recording — attach
    /// before arming.
    void attach_registry(const MetricsRegistry* registry) noexcept {
        registry_ = registry;
    }

    // TelemetrySink ----------------------------------------------------
    SpanId begin_span(const char* name, int channel) override;
    void end_span(SpanId id, std::int64_t value) override;
    void event(const char* name, double value) override;
    void on_sample(const MeasurementSample& sample) override;
    [[nodiscard]] bool requires_member_trace() const noexcept override {
        return false;
    }

    // Freeze protocol --------------------------------------------------

    /// Stops all writers (waits out in-flight ones); nests.
    void freeze() noexcept;
    void unfreeze() noexcept;
    [[nodiscard]] bool frozen() const noexcept {
        return freeze_count_.load(std::memory_order_acquire) > 0;
    }

    /// RAII freeze for bundle emission.
    class Freeze {
    public:
        explicit Freeze(FlightRecorder& r) : recorder_(r) { recorder_.freeze(); }
        ~Freeze() { recorder_.unfreeze(); }
        Freeze(const Freeze&) = delete;
        Freeze& operator=(const Freeze&) = delete;

    private:
        FlightRecorder& recorder_;
    };

    // Export -----------------------------------------------------------

    /// Drains every ring under an internal freeze, merges by telemetry
    /// sequence and renders JSONL round-trippable through
    /// parse_trace_jsonl. Spans still open at the cut are emitted with
    /// end_ns = start_ns (a zero-length placeholder) so nothing recent
    /// is lost. Non-destructive: rings keep their contents.
    [[nodiscard]] std::string trace_jsonl() const;

    /// The retained Prometheus-text metric snapshots, oldest first.
    [[nodiscard]] std::vector<std::string> metric_snapshots() const;

    /// Records overwritten by ring wrap plus records dropped while
    /// frozen — how much history the black box has forgotten.
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }

    /// Total records currently retained across all rings.
    [[nodiscard]] std::size_t retained() const;

private:
    enum class Kind : std::uint8_t { SpanBegin, SpanEnd, Event, Sample };

    /// One ring slot. Fixed-size; `name` is the literal pointer the
    /// sink contract guarantees outlives us.
    struct Record {
        Kind kind = Kind::Event;
        int channel = kNoChannel;
        const char* name = nullptr;
        SpanId id = kNoSpan;
        SpanId parent = kNoSpan;
        std::uint64_t seq = 0;
        std::uint64_t t_ns = 0;
        std::int64_t ivalue = 0;
        double dvalue = 0.0;
        // Sample payload (Kind::Sample only).
        int member = 0;
        std::int64_t count_x = 0;
        std::int64_t count_y = 0;
        double heading_deg = 0.0;
    };

    struct ThreadRing {
        std::vector<Record> slots = std::vector<Record>(kRingCapacity);
        std::atomic<std::uint64_t> head{0};  ///< next write index (monotone)
        std::atomic<bool> busy{false};       ///< writer inside push()
        /// Innermost open spans, owner-thread-only (never drained).
        std::vector<SpanId> open_stack;
    };

    ThreadRing& local_ring();
    void push(const Record& r) noexcept;
    void snapshot_metrics();

    const MetricsRegistry* registry_ = nullptr;

    std::atomic<std::uint32_t> freeze_count_{0};
    std::atomic<std::uint64_t> next_span_id_{1};
    std::atomic<std::uint64_t> next_seq_{1};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> samples_seen_{0};
    /// Sample count at which the next metric snapshot is due.
    std::atomic<std::uint64_t> next_snapshot_{kSnapshotEvery};

    /// Never-reused identity for the thread-local ring cache (guards
    /// against a stale cache entry from a destroyed recorder).
    std::uint64_t uid_;

    mutable std::mutex rings_mutex_;  ///< guards the vector, not the rings
    std::vector<std::shared_ptr<ThreadRing>> rings_;

    mutable std::mutex snapshots_mutex_;
    std::deque<std::string> snapshots_;
};

}  // namespace fxg::telemetry
