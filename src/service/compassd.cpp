#include "service/compassd.hpp"

#include "snapshot/state.hpp"

#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace fxg::service {

namespace {

using Clock = std::chrono::steady_clock;

std::string frame_of(const HeadingReply& reply) {
    const std::vector<std::uint8_t> bytes = encode_reply(reply);
    return std::string(bytes.begin(), bytes.end());
}

/// One query connection: its frame reassembly buffer.
struct QueryConnection : util::net::Connection {
    FrameReader reader;
};

}  // namespace

/// One admitted query waiting for (or riding) a batch.
struct CompassService::PendingQuery {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    int member = 0;  ///< round-robin-assigned fleet member
    Clock::time_point admitted{};
};

CompassService::CompassService(const ServiceConfig& config)
    : config_(config),
      fleet_(config.members, config.compass, pool_),
      reactor_(*this, config.max_connections) {
    if (config.members < 1) {
        throw std::invalid_argument("CompassService: members must be >= 1");
    }
    if (config.max_connections < 1 || config.max_pending < 1) {
        throw std::invalid_argument(
            "CompassService: connection/pending bounds must be >= 1");
    }
    supervisors_.reserve(static_cast<std::size_t>(config.members));
    for (int i = 0; i < config.members; ++i) {
        supervisors_.push_back(std::make_unique<fault::MeasurementSupervisor>(
            fleet_.at(i), config.supervisor));
    }

    telemetry::MetricsRegistry& reg = fleet_.metrics();
    latency_hist_ = &reg.histogram("fxg_service_latency_seconds", "s");
    batch_size_hist_ = &reg.histogram("fxg_service_batch_size");
    requests_counter_ = &reg.counter("fxg_service_requests_total");
    shed_counter_ = &reg.counter("fxg_service_shed_total");
    degraded_counter_ = &reg.counter("fxg_service_degraded_total");

    fleet_.set_health_extra([this] {
        const ServiceStats s = stats();
        std::ostringstream out;
        out << "service_requests " << s.requests << '\n';
        out << "service_shed " << s.shed << '\n';
        out << "service_batches " << s.batches << '\n';
        out << "service_replies_ok " << s.replies_ok << '\n';
        out << "service_replies_degraded " << s.replies_degraded << '\n';
        out << "service_replies_error " << s.replies_error << '\n';
        out << "service_protocol_errors " << s.protocol_errors << '\n';
        out << "service_disconnects " << s.disconnects << '\n';
        return out.str();
    });
}

CompassService::~CompassService() { stop(); }

void CompassService::start() {
    reactor_.start(pool_, config_.port);  // throws first when already running

    // Anchor every ladder before the first query: the single-axis and
    // hold-last-good rungs need a last-good measurement to lean on.
    if (config_.warmup) {
        for (auto& s : supervisors_) static_cast<void>(s->measure());
    }

    if (config_.introspection_port >= 0) {
        static_cast<void>(fleet_.start_introspection(
            config_.introspection_port, [this] {
                const std::lock_guard<std::mutex> lock(fleet_mutex_);
                return snapshot::snapshot_fleet(fleet_);
            }));
    }

    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        stopping_ = false;
        batch_running_ = true;
    }
    pool_.post([this] { batch_loop(); });
}

void CompassService::stop() {
    {
        // Under the batch loop's wait mutex, or a loop that has tested
        // its predicate but not yet blocked misses the notify below.
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [this] { return !batch_running_; });
    }
    // The batch loop rings the reactor's doorbell, so the reactor stops
    // after it has exited.
    reactor_.stop();
    fleet_.stop_introspection();
}

bool CompassService::running() const { return reactor_.running(); }

int CompassService::port() const { return reactor_.port(); }

int CompassService::introspection_port() const {
    return fleet_.introspection_port();
}

ServiceStats CompassService::stats() const {
    ServiceStats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.replies_ok = replies_ok_.load(std::memory_order_relaxed);
    s.replies_degraded = replies_degraded_.load(std::memory_order_relaxed);
    s.replies_error = replies_error_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.disconnects = disconnects_.load(std::memory_order_relaxed);
    return s;
}

std::unique_ptr<util::net::Connection> CompassService::make_connection() {
    return std::make_unique<QueryConnection>();
}

void CompassService::on_input(util::net::Connection& c,
                              std::string_view bytes) {
    FrameReader& reader = static_cast<QueryConnection&>(c).reader;
    reader.feed(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                bytes.size());
    try {
        Frame frame;
        while (reader.next(frame)) {
            const HeadingRequest req = decode_request(frame);
            bool admitted = false;
            {
                const std::lock_guard<std::mutex> lock(queue_mutex_);
                if (static_cast<int>(queue_.size()) + inflight_ <
                    config_.max_pending) {
                    queue_.push_back(PendingQuery{
                        c.id, req.request_id,
                        static_cast<int>(next_member_++ %
                                         static_cast<std::uint64_t>(
                                             config_.members)),
                        Clock::now()});
                    admitted = true;
                }
            }
            if (admitted) {
                requests_.fetch_add(1, std::memory_order_relaxed);
                requests_counter_->inc();
                queue_cv_.notify_one();
            } else {
                c.out += shed(req.request_id, "pending-query budget exhausted");
            }
        }
    } catch (const ProtocolError& e) {
        // Fail closed: answer with the diagnostic, flush, close. No
        // resynchronisation on a corrupt stream.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        HeadingReply err;
        err.status = ReplyStatus::Error;
        err.detail = e.what();
        c.out += frame_of(err);
        c.closing = true;
    }
}

std::string CompassService::on_refuse() {
    return shed(0, "connection budget exhausted");
}

void CompassService::on_wake() {
    std::vector<std::pair<std::uint64_t, HeadingReply>> ready;
    {
        const std::lock_guard<std::mutex> lock(ready_mutex_);
        ready.swap(ready_);
    }
    for (const auto& [conn_id, reply] : ready) {
        util::net::Connection* c = reactor_.find(conn_id);
        if (c == nullptr) {
            // The peer hung up before its answer.
            disconnects_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        c->out += frame_of(reply);
    }
}

std::string CompassService::shed(std::uint64_t request_id, const char* why) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_counter_->inc();
    HeadingReply reply;
    reply.request_id = request_id;
    reply.status = ReplyStatus::Shed;
    reply.retry_after_ms = config_.retry_after_ms;
    reply.detail = why;
    return frame_of(reply);
}

HeadingReply CompassService::ladder_reply(int member,
                                          const fault::FirstAttempt& first) {
    HeadingReply r;
    r.member = static_cast<std::uint32_t>(member);
    r.detail = first.error ? "batch error: " + *first.error + "; "
                           : "batch health: " + first.health.summary() + "; ";

    // Serve the ladder's outcome *marked* instead of erroring — the
    // ROADMAP's graceful-degradation story. The sweep was attempt 1, so
    // the ladder goes straight to its first re-excite retry.
    try {
        const fault::SupervisedMeasurement sm = supervisor(member).measure(first);
        r.attempts = static_cast<std::uint32_t>(sm.attempts);
        r.heading_deg = sm.heading_deg;
        r.count_x = sm.measurement.count_x;
        r.count_y = sm.measurement.count_y;
        r.stale = sm.stale;
        r.detail += "ladder: " + std::string(fault::to_string(sm.status));
        switch (sm.status) {
            case fault::SupervisedStatus::Ok:
            case fault::SupervisedStatus::RecoveredRetry:
                r.status = ReplyStatus::Ok;
                break;
            case fault::SupervisedStatus::DegradedSingleAxis:
                r.status = ReplyStatus::Degraded;
                break;
            case fault::SupervisedStatus::HoldLastGood:
                r.status = ReplyStatus::Stale;
                break;
            case fault::SupervisedStatus::Failed:
                r.status = ReplyStatus::Error;
                r.detail += "; " + sm.diagnostics;
                break;
        }
    } catch (const std::exception& e) {
        r.status = ReplyStatus::Error;
        r.detail += std::string("ladder threw: ") + e.what();
    }
    return r;
}

void CompassService::publish(const std::vector<PendingQuery>& batch,
                             const std::unordered_map<int, HeadingReply>& replies) {
    if (replies.empty()) return;
    // Every query gets its own reply, so the reply counters count here,
    // not per resolved member.
    const Clock::time_point done = Clock::now();
    int handed = 0;
    {
        const std::lock_guard<std::mutex> lock(ready_mutex_);
        for (const PendingQuery& q : batch) {
            const auto it = replies.find(q.member);
            if (it == replies.end()) continue;
            HeadingReply reply = it->second;
            reply.request_id = q.request_id;
            switch (reply.status) {
                case ReplyStatus::Ok:
                    replies_ok_.fetch_add(1, std::memory_order_relaxed);
                    break;
                case ReplyStatus::Degraded:
                case ReplyStatus::Stale:
                    replies_degraded_.fetch_add(1, std::memory_order_relaxed);
                    degraded_counter_->inc();
                    break;
                default:
                    replies_error_.fetch_add(1, std::memory_order_relaxed);
                    break;
            }
            latency_hist_->observe(
                std::chrono::duration<double>(done - q.admitted).count());
            ready_.emplace_back(q.conn_id, std::move(reply));
            ++handed;
        }
    }
    reactor_.wake();
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    inflight_ -= handed;
}

void CompassService::batch_loop() {
    for (;;) {
        std::vector<PendingQuery> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_) break;
            batch.swap(queue_);  // the coalescing step
            inflight_ = static_cast<int>(batch.size());
        }
        batches_.fetch_add(1, std::memory_order_relaxed);
        batch_size_hist_->observe(static_cast<double>(batch.size()));

        // One fleet sweep serves every coalesced query: the lane engine
        // measures all members as SoA groups over the pool, and each
        // query reads its assigned member's slot. fleet_mutex_ keeps
        // the /snapshot provider out until the sweep and every ladder
        // have settled; replies leave before that.
        const std::lock_guard<std::mutex> fleet_lock(fleet_mutex_);
        const std::vector<compass::FleetResult> results =
            fleet_.measure_all_results(config_.batch_threads);

        // Health-check each queried member once (queries sharing a
        // member share its reply). A member that trips the monitor, or
        // threw, keeps its sweep as the first attempt of its ladder.
        std::unordered_map<int, HeadingReply> healthy;
        std::map<int, fault::FirstAttempt> tripped;  // ladders in member order
        for (const PendingQuery& q : batch) {
            if (healthy.contains(q.member) || tripped.contains(q.member)) continue;
            const compass::FleetResult& result =
                results[static_cast<std::size_t>(q.member)];
            fault::FirstAttempt first;
            if (!result.ok) {
                first.error = result.error;
            } else {
                first.measurement = result.measurement;
                first.health = supervisor(q.member).monitor().check(
                    fleet_.at(q.member), result.measurement);
                if (first.health.ok) {
                    HeadingReply& r = healthy[q.member];
                    r.member = static_cast<std::uint32_t>(q.member);
                    r.status = ReplyStatus::Ok;
                    r.attempts = 1;
                    r.heading_deg = result.measurement.heading_deg;
                    r.count_x = result.measurement.count_x;
                    r.count_y = result.measurement.count_y;
                    continue;
                }
            }
            tripped.emplace(q.member, std::move(first));
        }

        // Healthy replies leave now: a tripped member's ladder holds
        // only its own queries.
        publish(batch, healthy);
        for (const auto& [member, first] : tripped) {
            publish(batch, {{member, ladder_reply(member, first)}});
        }
    }
    // Notify under the lock: once stop() sees batch_running_ == false
    // its caller may destroy this object.
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    batch_running_ = false;
    queue_cv_.notify_all();
}

}  // namespace fxg::service
