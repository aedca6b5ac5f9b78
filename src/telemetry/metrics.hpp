#pragma once

/// \file metrics.hpp
/// Named-metric registry: counters (monotone), gauges (last value) and
/// log-linear histograms, each carrying an optional unit string for
/// the machine-readable bench exports. Registration is mutex-guarded
/// and idempotent (same name returns the same instrument); updates are
/// lock-free atomics, so a fleet's worker threads can feed one registry
/// concurrently. Instruments have stable addresses for the lifetime of
/// the registry — callers may cache the returned references.
///
/// Export paths (exporters.hpp): Prometheus text, CSV via util/csv and
/// the {name, value, unit} JSON records the BENCH_*.json trajectory
/// files are built from.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace fxg::telemetry {

/// Monotone event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    /// Overwrites the count (snapshot-restore seam only — counters stay
    /// monotone through inc() everywhere else).
    void load(std::uint64_t v) noexcept {
        value_.store(v, std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written value.
class Gauge {
public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<double> value_{0.0};
};

/// Log-linear histogram with one fixed layout for every instrument
/// (HdrHistogram-style): 32 linear sub-buckets per power of two over
/// [2^-32, 2^32), plus bucket 0 for values <= 0 (and NaN). A positive
/// value's bucket is one shift of its bit pattern (biased exponent and
/// top five mantissa bits). Every bucket is at most 1/32 of its lower
/// edge wide, so the midpoint quantile() reports is within 1/64 (1.6 %)
/// of each value recorded there. Positive values below 2^-32 count in
/// bucket 1 and values at or above 2^32 in the top bucket, whose upper
/// edge is therefore +Inf. observe() is lock-free.
class Histogram {
public:
    static constexpr int kSubBucketBits = 5;  ///< 32 sub-buckets per octave
    static constexpr int kMinExponent = -32;
    static constexpr int kMaxExponent = 32;
    static constexpr std::size_t kBuckets =
        1 + (std::size_t{kMaxExponent - kMinExponent} << kSubBucketBits);

    /// The bucket `x` counts in.
    [[nodiscard]] static std::size_t bucket_of(double x) noexcept;
    /// Upper edge of bucket `i`, the `le` of its Prometheus line: 0 for
    /// bucket 0, +Inf for the top bucket. Bucket i >= 2 covers
    /// [upper_edge(i - 1), upper_edge(i)); bucket 1 covers (0, upper_edge(1)).
    [[nodiscard]] static double upper_edge(std::size_t i) noexcept;

    void observe(double x) noexcept;

    /// Per-bucket (non-cumulative) count; 0 for i >= kBuckets.
    [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept;
    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }

    /// The midpoint of the first bucket where the cumulative count
    /// reaches q * count() (`q` clamped to [0, 1]): within 1/64 of the
    /// rank-ceil(q * count()) value for in-range values. 0 when that
    /// bucket is bucket 0 or the histogram is empty.
    [[nodiscard]] double quantile(double q) const noexcept;

    /// Overwrites all accumulators (snapshot-restore seam): bucket
    /// `index[j]` gets `counts[j]`, every other bucket 0. Throws
    /// std::invalid_argument, before changing anything, on lists of
    /// different lengths or an index >= kBuckets.
    void load(const std::vector<std::uint32_t>& index,
              const std::vector<std::uint64_t>& counts, std::uint64_t count,
              double sum);

private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// What kind of instrument a registry entry is.
enum class MetricKind { Counter, Gauge, Histogram };

/// The registry. Lookup-or-create by name; re-registering a name with a
/// different kind throws std::invalid_argument.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name, const std::string& unit = "");
    Gauge& gauge(const std::string& name, const std::string& unit = "");
    Histogram& histogram(const std::string& name, const std::string& unit = "");

    /// One registered instrument, for exporters. Exactly one of the
    /// three pointers is non-null, matching `kind`.
    struct Entry {
        std::string name;
        std::string unit;
        MetricKind kind = MetricKind::Counter;
        const Counter* counter = nullptr;
        const Gauge* gauge = nullptr;
        const Histogram* histogram = nullptr;
    };

    /// Entries in registration order (stable across export calls).
    [[nodiscard]] std::vector<Entry> entries() const;

private:
    struct Slot {
        std::string name;
        std::string unit;
        MetricKind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Slot& find_or_create(const std::string& name, MetricKind kind,
                         const std::string& unit);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Slot>> slots_;  ///< registration order
    std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace fxg::telemetry
