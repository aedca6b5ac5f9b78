#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "telemetry/exporters.hpp"

namespace fxg::telemetry {

namespace {

std::uint64_t next_recorder_uid() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

std::string json_escape(const char* s) {
    std::string out;
    for (const char* p = s; *p != '\0'; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string format_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

FlightRecorder::FlightRecorder() : uid_(next_recorder_uid()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::ThreadRing& FlightRecorder::local_ring() {
    struct CacheEntry {
        std::uint64_t uid;
        std::weak_ptr<ThreadRing> ring;
    };
    thread_local std::vector<CacheEntry> cache;
    for (CacheEntry& e : cache) {
        if (e.uid == uid_) {
            if (auto ring = e.ring.lock()) return *ring;
            break;  // recorder uid reused the slot after a dead entry: rebuild
        }
    }
    auto ring = std::make_shared<ThreadRing>();
    {
        std::lock_guard<std::mutex> lock(rings_mutex_);
        rings_.push_back(ring);
    }
    std::erase_if(cache,
                  [this](const CacheEntry& e) {
                      return e.uid == uid_ || e.ring.expired();
                  });
    cache.push_back({uid_, ring});
    return *ring;
}

void FlightRecorder::push(const Record& r) noexcept {
    ThreadRing& ring = local_ring();
    // Dekker pairing with freeze(): the busy store and the frozen load
    // are both seq_cst, as are freeze()'s count bump and busy spin, so
    // either we see the freeze and drop, or the freezer sees us busy
    // and waits the write out. No record is ever half-drained.
    ring.busy.store(true, std::memory_order_seq_cst);
    if (freeze_count_.load(std::memory_order_seq_cst) > 0) {
        ring.busy.store(false, std::memory_order_release);
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    ring.slots[head % kRingCapacity] = r;
    ring.head.store(head + 1, std::memory_order_release);
    ring.busy.store(false, std::memory_order_release);
    if (head >= kRingCapacity) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // overwrote history
    }
}

SpanId FlightRecorder::begin_span(const char* name, int channel) {
    ThreadRing& ring = local_ring();
    const auto id = static_cast<SpanId>(
        next_span_id_.fetch_add(1, std::memory_order_relaxed));
    Record r;
    r.kind = Kind::SpanBegin;
    r.name = name;
    r.channel = channel;
    r.id = id;
    r.parent = ring.open_stack.empty() ? kNoSpan : ring.open_stack.back();
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    push(r);
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
    Record r;
    r.kind = Kind::SpanEnd;
    r.id = id;
    r.ivalue = value;
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    push(r);
}

void FlightRecorder::event(const char* name, double value) {
    ThreadRing& ring = local_ring();
    Record r;
    r.kind = Kind::Event;
    r.name = name;
    r.parent = ring.open_stack.empty() ? kNoSpan : ring.open_stack.back();
    r.dvalue = value;
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    push(r);
}

void FlightRecorder::on_sample(const MeasurementSample& sample) {
    ThreadRing& ring = local_ring();
    Record r;
    r.kind = Kind::Sample;
    r.parent = ring.open_stack.empty() ? kNoSpan : ring.open_stack.back();
    r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    r.t_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
    r.member = sample.member;
    r.count_x = sample.count_x;
    r.count_y = sample.count_y;
    r.heading_deg = sample.heading_deg;
    push(r);
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
    struct OpenSpan {
        Record begin;
        bool closed = false;
        std::uint64_t end_ns = 0;
        std::int64_t value = 0;
    };
    std::vector<OpenSpan> spans;
    for (const Record& r : merged) {
        if (r.kind == Kind::SpanBegin) {
            spans.push_back({r});
        } else if (r.kind == Kind::SpanEnd) {
            for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
                if (it->begin.id == r.id && !it->closed) {
                    it->closed = true;
                    it->end_ns = r.t_ns;
                    it->value = r.ivalue;
                    break;
                }
            }
            // An end whose begin was overwritten has no name: dropped.
        }
    }

    std::ostringstream out;
    for (const OpenSpan& s : spans) {
        const std::uint64_t end_ns = s.closed ? s.end_ns : s.begin.t_ns;
        out << "{\"type\":\"span\",\"id\":" << s.begin.id
            << ",\"parent\":" << s.begin.parent << ",\"name\":\""
            << json_escape(s.begin.name) << "\",\"ch\":" << s.begin.channel
            << ",\"start_ns\":" << s.begin.t_ns << ",\"end_ns\":" << end_ns
            << ",\"seq\":" << s.begin.seq << ",\"value\":" << s.value << "}\n";
    }
    for (const Record& r : merged) {
        if (r.kind == Kind::Event) {
            out << "{\"type\":\"event\",\"parent\":" << r.parent << ",\"name\":\""
                << json_escape(r.name) << "\",\"t_ns\":" << r.t_ns
                << ",\"seq\":" << r.seq << ",\"value\":" << format_double(r.dvalue)
                << "}\n";
        } else if (r.kind == Kind::Sample) {
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
                out << "{\"type\":\"event\",\"parent\":" << r.parent
                    << ",\"name\":\"" << f.name << "\",\"t_ns\":" << r.t_ns
                    << ",\"seq\":" << r.seq
                    << ",\"value\":" << format_double(f.value) << "}\n";
            }
        }
    }
    return out.str();
}

}  // namespace fxg::telemetry
