#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fxg::telemetry {

std::size_t Histogram::bucket_of(double x) noexcept {
    if (!(x > 0.0)) return 0;
    // A positive double's bits above the top kSubBucketBits mantissa
    // bits are (biased exponent << kSubBucketBits) | sub-bucket.
    constexpr int kShift = std::numeric_limits<double>::digits - 1 - kSubBucketBits;
    constexpr std::int64_t kFirst = std::int64_t{1023 + kMinExponent} << kSubBucketBits;
    const auto key = static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(x) >> kShift);
    return 1 + static_cast<std::size_t>(
                   std::clamp<std::int64_t>(key - kFirst, 0, kBuckets - 2));
}

namespace {

/// Lower edge of bucket k + 1, for k in [0, kBuckets - 1]: the top edge
/// of the layout is 2^kMaxExponent.
double edge(std::size_t k) noexcept {
    constexpr std::size_t kSub = std::size_t{1} << Histogram::kSubBucketBits;
    return std::ldexp(1.0 + static_cast<double>(k % kSub) / kSub,
                      static_cast<int>(k / kSub) + Histogram::kMinExponent);
}

}  // namespace

double Histogram::upper_edge(std::size_t i) noexcept {
    if (i == 0) return 0.0;
    if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
    return edge(i);
}

void Histogram::observe(double x) noexcept {
    buckets_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> is C++20; relaxed is fine — exporters
    // only need eventual consistency of the running sum.
    sum_.fetch_add(x, std::memory_order_relaxed);
}

double Histogram::quantile(double q) const noexcept {
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count());
    // The last non-empty bucket stands in if concurrent observe()s leave
    // the buckets short of count().
    std::size_t hit = 0;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
        if (c == 0) continue;
        hit = i;
        cumulative += c;
        if (static_cast<double>(cumulative) >= target) break;
    }
    return hit == 0 ? 0.0 : 0.5 * (edge(hit - 1) + edge(hit));
}

std::uint64_t Histogram::bucket_count(std::size_t i) const noexcept {
    return i < kBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
}

void Histogram::load(const std::vector<std::uint32_t>& index,
                     const std::vector<std::uint64_t>& counts, std::uint64_t count,
                     double sum) {
    if (index.size() != counts.size() ||
        std::any_of(index.begin(), index.end(),
                    [](std::uint32_t i) { return i >= kBuckets; })) {
        throw std::invalid_argument("Histogram::load: bad bucket list");
    }
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    for (std::size_t j = 0; j < index.size(); ++j) {
        buckets_[index[j]].store(counts[j], std::memory_order_relaxed);
    }
    count_.store(count, std::memory_order_relaxed);
    sum_.store(sum, std::memory_order_relaxed);
}

MetricsRegistry::Slot& MetricsRegistry::find_or_create(const std::string& name,
                                                       MetricKind kind,
                                                       const std::string& unit) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(name);
    if (it != index_.end()) {
        Slot& slot = *slots_[it->second];
        if (slot.kind != kind) {
            throw std::invalid_argument("MetricsRegistry: '" + name +
                                        "' already registered with another kind");
        }
        return slot;
    }
    auto slot = std::make_unique<Slot>();
    slot->name = name;
    slot->unit = unit;
    slot->kind = kind;
    switch (kind) {
        case MetricKind::Counter: slot->counter = std::make_unique<Counter>(); break;
        case MetricKind::Gauge: slot->gauge = std::make_unique<Gauge>(); break;
        case MetricKind::Histogram: slot->histogram = std::make_unique<Histogram>(); break;
    }
    index_.emplace(name, slots_.size());
    slots_.push_back(std::move(slot));
    return *slots_.back();
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& unit) {
    return *find_or_create(name, MetricKind::Counter, unit).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& unit) {
    return *find_or_create(name, MetricKind::Gauge, unit).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& unit) {
    return *find_or_create(name, MetricKind::Histogram, unit).histogram;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Entry> out;
    out.reserve(slots_.size());
    for (const auto& slot : slots_) {
        Entry e;
        e.name = slot->name;
        e.unit = slot->unit;
        e.kind = slot->kind;
        e.counter = slot->counter.get();
        e.gauge = slot->gauge.get();
        e.histogram = slot->histogram.get();
        out.push_back(std::move(e));
    }
    return out;
}

}  // namespace fxg::telemetry
