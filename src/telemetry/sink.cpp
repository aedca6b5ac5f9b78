#include "telemetry/sink.hpp"

namespace fxg::telemetry {

TeeSink::TeeSink(std::vector<TelemetrySink*> children)
    : children_(std::move(children)) {}

SpanId TeeSink::begin_span(const char* name, int channel) {
    std::lock_guard<std::mutex> lock(mutex_);
    const SpanId id = next_id_++;
    const std::size_t at = open_.size();
    open_.push_back(id);
    try {
        for (TelemetrySink* c : children_) open_.push_back(c->begin_span(name, channel));
    } catch (...) {
        open_.resize(at);  // a partial entry would misalign every later one
        throw;
    }
    return id;
}

void TeeSink::end_span(SpanId id, std::int64_t value) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t stride = 1 + children_.size();
    // Spans close innermost first, so the newest entries match soonest.
    for (std::size_t at = open_.size(); at >= stride;) {
        at -= stride;
        if (open_[at] != id) continue;
        for (std::size_t i = 0; i < children_.size(); ++i) {
            children_[i]->end_span(open_[at + 1 + i], value);
        }
        open_.erase(open_.begin() + at, open_.begin() + at + stride);
        return;
    }
}

void TeeSink::event(const char* name, double value) {
    for (TelemetrySink* c : children_) c->event(name, value);
}

void TeeSink::on_sample(const MeasurementSample& sample) {
    for (TelemetrySink* c : children_) c->on_sample(sample);
}

bool TeeSink::requires_member_trace() const noexcept {
    for (const TelemetrySink* c : children_) {
        if (c->requires_member_trace()) return true;
    }
    return false;
}

}  // namespace fxg::telemetry
