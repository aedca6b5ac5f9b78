#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "telemetry/exporters.hpp"

namespace fxg::telemetry {

namespace {

/// Recorder uids and thread tokens: never reused, never 0.
std::uint64_t next_uid() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

}  // namespace

FlightRecorder::FlightRecorder() : uid_(next_uid()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::ThreadRing& FlightRecorder::local_ring() {
    // The recorder this thread last wrote to, and its ring there.
    thread_local std::uint64_t cached_uid = 0;
    thread_local ThreadRing* cached_ring = nullptr;
    if (cached_uid == uid_) return *cached_ring;
    thread_local const std::uint64_t token = next_uid();
    std::lock_guard<std::mutex> lock(rings_mutex_);
    const auto it = std::find_if(
        rings_.begin(), rings_.end(),
        [](const std::unique_ptr<ThreadRing>& r) { return r->owner == token; });
    ThreadRing* ring = it != rings_.end()
                           ? it->get()
                           : rings_.emplace_back(std::make_unique<ThreadRing>(token)).get();
    cached_uid = uid_;
    cached_ring = ring;
    return *ring;
}

void FlightRecorder::push(ThreadRing& ring, const Record& r) noexcept {
    // Dekker pairing with freeze(): the busy store and the frozen load
    // are both seq_cst, as are freeze()'s count bump and busy spin, so
    // either we see the freeze and drop, or the freezer sees us busy
    // and waits the write out. No record is ever half-drained.
    ring.busy.store(true, std::memory_order_seq_cst);
    if (freeze_count_.load(std::memory_order_seq_cst) > 0) {
        ring.busy.store(false, std::memory_order_release);
        ring.frozen_drops.store(ring.frozen_drops.load(std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
        return;
    }
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    ring.slots[head % kRingCapacity] = r;
    ring.head.store(head + 1, std::memory_order_release);
    ring.busy.store(false, std::memory_order_release);
}

SpanId FlightRecorder::begin_span(const char* name, int channel) {
    ThreadRing& ring = local_ring();
    const auto id = static_cast<SpanId>(
        next_span_id_.fetch_add(1, std::memory_order_relaxed));
    Record r{};
    r.kind = Kind::SpanBegin;
    r.name = name;
    r.channel = channel;
    r.id = id;
    r.parent = ring.open_stack.empty() ? kNoSpan : ring.open_stack.back();
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = now_ns();
    push(ring, r);
    // Stack upkeep is unconditional (owner-thread-only state): even if
    // the record was dropped under freeze, nesting must stay balanced.
    ring.open_stack.push_back(id);
    return id;
}

void FlightRecorder::end_span(SpanId id, std::int64_t value) {
    if (id == kNoSpan) return;
    ThreadRing& ring = local_ring();
    for (auto it = ring.open_stack.rbegin(); it != ring.open_stack.rend(); ++it) {
        if (*it == id) {
            ring.open_stack.erase(std::next(it).base());
            break;
        }
    }
    Record r{};
    r.kind = Kind::SpanEnd;
    r.id = id;
    r.ivalue = value;
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = now_ns();
    push(ring, r);
}

void FlightRecorder::event(const char* name, double value) {
    ThreadRing& ring = local_ring();
    Record r{};
    r.kind = Kind::Event;
    r.name = name;
    r.parent = ring.open_stack.empty() ? kNoSpan : ring.open_stack.back();
    r.dvalue = value;
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = now_ns();
    push(ring, r);
}

void FlightRecorder::on_sample(const MeasurementSample& sample) {
    ThreadRing& ring = local_ring();
    Record r{};
    r.kind = Kind::Sample;
    r.parent = ring.open_stack.empty() ? kNoSpan : ring.open_stack.back();
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = now_ns();
    r.member = sample.member;
    r.count_x = sample.count_x;
    r.count_y = sample.count_y;
    r.heading_deg = sample.heading_deg;
    push(ring, r);
    const std::uint64_t seen =
        samples_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (registry_ == nullptr || frozen()) return;
    std::uint64_t due = next_snapshot_.load(std::memory_order_relaxed);
    if (seen < due) return;
    // Only the writer whose exchange claims this due point renders.
    if (next_snapshot_.compare_exchange_strong(due, seen + kSnapshotEvery,
                                               std::memory_order_relaxed)) {
        snapshot_metrics();
    }
}

void FlightRecorder::snapshot_metrics() {
    std::string text = prometheus_text(*registry_);
    std::lock_guard<std::mutex> lock(snapshots_mutex_);
    snapshots_.push_back(std::move(text));
    while (snapshots_.size() > kSnapshotsKept) {
        snapshots_.pop_front();
    }
}

void FlightRecorder::freeze() noexcept {
    if (freeze_count_.fetch_add(1, std::memory_order_seq_cst) > 0) return;
    // First freezer: wait out every in-flight write so the rings are
    // quiescent before any drain starts.
    std::lock_guard<std::mutex> lock(rings_mutex_);
    for (const auto& ring : rings_) {
        while (ring->busy.load(std::memory_order_seq_cst)) {
            std::this_thread::yield();
        }
    }
}

void FlightRecorder::unfreeze() noexcept {
    freeze_count_.fetch_sub(1, std::memory_order_seq_cst);
}

std::vector<std::string> FlightRecorder::metric_snapshots() const {
    std::lock_guard<std::mutex> lock(snapshots_mutex_);
    return {snapshots_.begin(), snapshots_.end()};
}

std::uint64_t FlightRecorder::dropped() const {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    std::uint64_t total = 0;
    for (const auto& ring : rings_) {
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        total += ring->frozen_drops.load(std::memory_order_relaxed) +
                 (head > kRingCapacity ? head - kRingCapacity : 0);
    }
    return total;
}

std::size_t FlightRecorder::retained() const {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    std::size_t total = 0;
    for (const auto& ring : rings_) {
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        total += static_cast<std::size_t>(std::min<std::uint64_t>(head, kRingCapacity));
    }
    return total;
}

std::string FlightRecorder::trace_jsonl() const {
    auto* self = const_cast<FlightRecorder*>(this);  // logically const drain
    Freeze guard(*self);

    std::vector<Record> merged;
    {
        std::lock_guard<std::mutex> lock(rings_mutex_);
        for (const auto& ring : rings_) {
            const std::uint64_t head = ring->head.load(std::memory_order_acquire);
            const std::uint64_t n = std::min<std::uint64_t>(head, kRingCapacity);
            for (std::uint64_t i = head - n; i < head; ++i) {
                merged.push_back(ring->slots[i % kRingCapacity]);
            }
        }
    }
    std::sort(merged.begin(), merged.end(),
              [](const Record& a, const Record& b) { return a.seq < b.seq; });

    // Pair begins with ends; a begin without an end (still open, or the
    // end not yet written at the cut) closes at its own start time.
    std::vector<SpanRecord> spans;
    std::vector<EventRecord> events;
    for (const Record& r : merged) {
        switch (r.kind) {
            case Kind::SpanBegin:
                spans.push_back({r.id, r.parent, r.name, r.channel, r.t_ns, r.t_ns,
                                 r.seq, 0, 0});
                break;
            case Kind::SpanEnd:
                for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
                    if (it->id == r.id && it->seq_end == 0) {
                        it->end_ns = r.t_ns;
                        it->seq_end = r.seq;
                        it->value = r.ivalue;
                        break;
                    }
                }
                // An end whose begin was overwritten has no name: dropped.
                break;
            case Kind::Event:
                events.push_back({r.parent, r.name, r.t_ns, r.seq, r.dvalue});
                break;
            case Kind::Sample: {
                // Samples have no line type of their own in the span|event
                // grammar; expand the headline fields into events so the
                // bundle stays round-trippable through parse_trace_jsonl.
                const struct {
                    const char* name;
                    double value;
                } fields[] = {
                    {"sample.member", static_cast<double>(r.member)},
                    {"sample.count_x", static_cast<double>(r.count_x)},
                    {"sample.count_y", static_cast<double>(r.count_y)},
                    {"sample.heading_deg", r.heading_deg},
                };
                for (const auto& f : fields) {
                    events.push_back({r.parent, f.name, r.t_ns, r.seq, f.value});
                }
                break;
            }
        }
    }
    return trace_to_jsonl(spans, events);
}

}  // namespace fxg::telemetry
