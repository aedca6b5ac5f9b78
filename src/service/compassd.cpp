#include "service/compassd.hpp"

#include "snapshot/state.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace fxg::service {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// Best-effort non-blocking send of a whole small frame (used only for
/// the over-budget Shed-and-close path, where the socket buffer of a
/// fresh connection always has room). MSG_NOSIGNAL throughout.
void send_best_effort(int fd, const std::vector<std::uint8_t>& bytes) noexcept {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return;
    }
}

}  // namespace

/// One accepted query connection, owned by the io loop.
struct CompassService::ClientConn {
    int fd = -1;
    std::uint64_t id = 0;  ///< stable identity for reply routing
    FrameReader reader;
    std::string out;         ///< encoded reply frames being flushed
    std::size_t out_off = 0;
    bool closing = false;  ///< flush remaining output, then close
};

/// One admitted query waiting for (or riding) a batch.
struct CompassService::PendingQuery {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    int member = 0;  ///< round-robin-assigned fleet member
    Clock::time_point admitted{};
};

CompassService::CompassService(const ServiceConfig& config)
    : config_(config), fleet_(config.members, config.compass, pool_) {
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
    latency_hist_ = &reg.histogram(
        "fxg_service_latency_seconds",
        {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
         2.5e-1, 5e-1, 1.0, 2.5},
        "s");
    batch_size_hist_ = &reg.histogram(
        "fxg_service_batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256}, "");
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
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (running_) {
            throw std::runtime_error("CompassService: already running");
        }
    }

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error(std::string("CompassService: socket: ") +
                                 std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, 64) < 0) {
        const std::string what =
            std::string("CompassService: bind/listen: ") + std::strerror(errno);
        ::close(fd);
        throw std::runtime_error(what);
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    set_nonblocking(fd);

    if (::pipe(wake_pipe_) < 0) {
        const std::string what =
            std::string("CompassService: pipe: ") + std::strerror(errno);
        ::close(fd);
        throw std::runtime_error(what);
    }
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);

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
        const std::lock_guard<std::mutex> lock(mutex_);
        listen_fd_ = fd;
        port_ = ntohs(addr.sin_port);
        stopping_.store(false, std::memory_order_relaxed);
        loops_running_ = 2;
        running_ = true;
    }
    pool_.post([this] { io_loop(); });
    pool_.post([this] { batch_loop(); });
}

void CompassService::stop() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!running_) return;
    }
    {
        // Under the batch loop's wait mutex, or a loop that has tested
        // its predicate but not yet blocked misses the notify below.
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        stopping_.store(true);
    }
    queue_cv_.notify_all();
    wake_io();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        loops_exited_.wait(lock, [this] { return loops_running_ == 0; });
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        for (int& fd : wake_pipe_) {
            if (fd >= 0) {
                ::close(fd);
                fd = -1;
            }
        }
        running_ = false;
        port_ = 0;
    }
    fleet_.stop_introspection();
}

bool CompassService::running() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return running_;
}

int CompassService::port() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return port_;
}

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

void CompassService::wake_io() noexcept {
    // A full pipe already guarantees a pending wakeup; losing this
    // byte is then harmless.
    const char byte = 1;
    ssize_t n;
    do {
        n = ::write(wake_pipe_[1], &byte, 1);
    } while (n < 0 && errno == EINTR);
}

void CompassService::io_loop() {
    int listen_fd;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        listen_fd = listen_fd_;
    }

    std::vector<std::unique_ptr<ClientConn>> conns;
    std::vector<pollfd> pfds;
    std::uint64_t next_conn_id = 1;

    const auto append_reply = [&](ClientConn& conn, const HeadingReply& reply) {
        const std::vector<std::uint8_t> bytes = encode_reply(reply);
        conn.out.append(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size());
    };

    while (!stopping_.load(std::memory_order_relaxed)) {
        // Slot 0 = listener (only while a connection slot is free; the
        // over-budget path below sheds, so the listener stays watched),
        // slot 1 = the batch loop's doorbell, then one slot per client.
        pfds.clear();
        pfds.push_back(pollfd{listen_fd, POLLIN, 0});
        pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
        for (const auto& c : conns) {
            short events = 0;
            if (!c->closing) events |= POLLIN;
            if (c->out_off < c->out.size()) events |= POLLOUT;
            pfds.push_back(pollfd{c->fd, events, 0});
        }

        const int ready =
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 100);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }

        // Doorbell: drain it, then route completed replies to their
        // connections (a reply whose connection died is dropped and
        // counted — the peer hung up before its answer).
        if ((pfds[1].revents & POLLIN) != 0) {
            char sink[64];
            while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {}
        }
        {
            std::vector<std::pair<std::uint64_t, HeadingReply>> ready_now;
            {
                const std::lock_guard<std::mutex> lock(ready_mutex_);
                ready_now.swap(ready_);
            }
            for (const auto& [conn_id, reply] : ready_now) {
                const auto it = std::find_if(
                    conns.begin(), conns.end(),
                    [conn_id](const auto& c) { return c->id == conn_id; });
                if (it == conns.end()) {
                    disconnects_.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                append_reply(**it, reply);
            }
        }

        // Accept every pending client; past the budget, shed-and-close
        // (bounded accept: the refusal is explicit and immediate, not a
        // connection parked in a growing backlog).
        if ((pfds[0].revents & POLLIN) != 0) {
            for (;;) {
                const int client = ::accept(listen_fd, nullptr, nullptr);
                if (client < 0) {
                    if (errno == EINTR) continue;
                    break;
                }
                if (static_cast<int>(conns.size()) >= config_.max_connections) {
                    HeadingReply shed;
                    shed.status = ReplyStatus::Shed;
                    shed.retry_after_ms = config_.retry_after_ms;
                    shed.detail = "connection budget exhausted";
                    send_best_effort(client, encode_reply(shed));
                    ::close(client);
                    shed_.fetch_add(1, std::memory_order_relaxed);
                    shed_counter_->inc();
                    continue;
                }
                set_nonblocking(client);
                auto conn = std::make_unique<ClientConn>();
                conn->fd = client;
                conn->id = next_conn_id++;
                conns.push_back(std::move(conn));
            }
        }

        // Only the connections that were in THIS poll set have revents;
        // just-accepted ones (conns grew above) wait for the next pass.
        std::size_t polled = pfds.size() - 2;
        for (std::size_t i = 0; i < polled; ++i) {
            ClientConn& c = *conns[i];
            const short revents = pfds[i + 2].revents;
            bool drop = false;

            if (!c.closing && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                std::uint8_t buf[4096];
                for (;;) {
                    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
                    if (n > 0) {
                        c.reader.feed(buf, static_cast<std::size_t>(n));
                        continue;
                    }
                    if (n < 0 && errno == EINTR) continue;
                    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                        break;  // drained
                    }
                    drop = true;  // EOF or hard error: peer is gone
                    break;
                }
                try {
                    Frame frame;
                    while (c.reader.next(frame)) {
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
                            HeadingReply shed;
                            shed.request_id = req.request_id;
                            shed.status = ReplyStatus::Shed;
                            shed.retry_after_ms = config_.retry_after_ms;
                            shed.detail = "pending-query budget exhausted";
                            append_reply(c, shed);
                            shed_.fetch_add(1, std::memory_order_relaxed);
                            shed_counter_->inc();
                        }
                    }
                } catch (const ProtocolError& e) {
                    // Fail closed: answer with the diagnostic, flush,
                    // close. No resynchronisation on a corrupt stream.
                    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
                    HeadingReply err;
                    err.status = ReplyStatus::Error;
                    err.detail = e.what();
                    append_reply(c, err);
                    c.closing = true;
                    drop = false;  // give the flush a chance first
                }
            }

            if (!drop && c.out_off < c.out.size() &&
                (revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
                while (c.out_off < c.out.size()) {
                    const ssize_t n =
                        ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
                    if (n > 0) {
                        c.out_off += static_cast<std::size_t>(n);
                        continue;
                    }
                    if (n < 0 && errno == EINTR) continue;
                    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                        break;  // buffer full; wait for POLLOUT
                    }
                    drop = true;  // peer gone mid-reply (EPIPE, no signal)
                    disconnects_.fetch_add(1, std::memory_order_relaxed);
                    break;
                }
                if (c.out_off == c.out.size()) {
                    c.out.clear();
                    c.out_off = 0;
                    if (c.closing) drop = true;  // flushed; close now
                }
            }

            if (drop) {
                ::close(c.fd);
                conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
                pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(i + 2));
                --polled;
                --i;
            }
        }
    }

    for (const auto& c : conns) ::close(c->fd);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        --loops_running_;
        loops_exited_.notify_all();
    }
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
    wake_io();
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    inflight_ -= handed;
}

void CompassService::batch_loop() {
    for (;;) {
        std::vector<PendingQuery> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (stopping_.load(std::memory_order_relaxed)) break;
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
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        --loops_running_;
        loops_exited_.notify_all();
    }
}

}  // namespace fxg::service
