#pragma once

/// \file compassd.hpp
/// compassd — the batched heading-query service (ROADMAP item 1,
/// DESIGN.md §16): a long-running daemon that accepts heading queries
/// over a loopback socket (service/protocol.hpp framing), coalesces
/// every query that arrives while a batch is in flight into ONE fleet
/// measurement (dispatched as SoA lane groups over the service's
/// util::TaskPool), and applies admission control under overload
/// instead of letting latency grow without bound.
///
/// Architecture — two long-lived tasks posted on the service's own
/// TaskPool, joined by bounded queues:
///
///   io loop     the util::net::Reactor (one poll loop, shared with the
///               introspection endpoint) running compassd's protocol
///               hooks: it accepts connections (up to max_connections;
///               excess get a Shed frame and an immediate close), parses
///               request frames incrementally, admits queries into the
///               pending queue (bounded by max_pending; overflow answers
///               Shed with Retry-After semantics *immediately* — load
///               shedding is fast), and flushes completed reply frames
///               back to their clients. A client that stops reading stops
///               being read once 64 KiB of its replies are unsent, so it
///               cannot make the daemon buffer without limit. All sends
///               use MSG_NOSIGNAL; a client disconnecting mid-anything
///               costs its own connection, nothing else.
///
///   batch loop  sleeps until queries are pending, swaps out the whole
///               queue (the coalescing step: every query that queued up
///               during the previous batch rides the next one), runs
///               one CompassFleet::measure_all_results — the SoA
///               lane-engine fan-out — and resolves each query from its
///               round-robin-assigned member's result. Healthy replies
///               go to the io loop as soon as the sweep lands; a
///               tripped member's reply follows when its ladder ends.
///
/// Fault integration: each member owns a fault::MeasurementSupervisor.
/// The batch path serves members whose measurement is healthy (ok +
/// HealthMonitor-clean) straight from the lane batch; for a member that
/// trips the HealthMonitor, the sweep becomes attempt 1 of its
/// supervisor's degradation ladder, which continues from there, and the
/// ladder's outcome is served *marked* — ReplyStatus::Degraded
/// (single-axis reconstruction) or Stale (held last-good) — rather than
/// erroring. Only an exhausted ladder answers Error.
///
/// Telemetry is live while serving: start() can also bind the PR 8
/// introspection endpoint (HTTP /metrics, /trace, /healthz, /snapshot)
/// on a second port, fed from the fleet's always-on black box.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/compass_fleet.hpp"
#include "fault/supervisor.hpp"
#include "service/protocol.hpp"
#include "util/net.hpp"
#include "util/task_pool.hpp"

namespace fxg::service {

struct ServiceConfig {
    /// Fleet members serving queries (round-robin assignment).
    int members = 16;
    /// Per-member pipeline configuration.
    compass::CompassConfig compass;
    /// Query port (0 = kernel-assigned; see CompassService::port()).
    int port = 0;
    /// Also start the HTTP introspection endpoint on this port
    /// (0 = kernel-assigned). Negative = no introspection.
    int introspection_port = -1;
    /// Concurrently open client connections; a connection past the
    /// budget receives one Shed frame and is closed (bounded accept).
    int max_connections = 64;
    /// Queries admitted but not yet answered. Arrivals past the bound
    /// are answered Shed immediately with `retry_after_ms`.
    int max_pending = 256;
    /// Suggested client backoff carried in Shed replies [ms].
    std::uint32_t retry_after_ms = 50;
    /// Worker threads per fleet batch (0 = one per hardware thread).
    int batch_threads = 0;
    /// Run each member once through its supervisor at start(), so the
    /// ladder has a last-good anchor before the first real query (the
    /// single-axis and hold rungs both need one).
    bool warmup = true;
    /// Degradation-ladder tuning (per-member supervisors).
    fault::SupervisorConfig supervisor;
};

/// Serving statistics (all monotone; readable from any thread).
struct ServiceStats {
    std::uint64_t requests = 0;        ///< queries admitted
    std::uint64_t shed = 0;            ///< queries refused by admission
    std::uint64_t batches = 0;         ///< fleet batches dispatched
    std::uint64_t replies_ok = 0;
    std::uint64_t replies_degraded = 0;  ///< Degraded + Stale
    std::uint64_t replies_error = 0;
    std::uint64_t protocol_errors = 0;   ///< malformed frames (conn closed)
    std::uint64_t disconnects = 0;       ///< peers gone before their reply
};

class CompassService final : private util::net::Protocol {
public:
    explicit CompassService(const ServiceConfig& config);

    /// Calls stop().
    ~CompassService();

    CompassService(const CompassService&) = delete;
    CompassService& operator=(const CompassService&) = delete;

    /// Binds the query socket (and the introspection endpoint when
    /// configured), runs the warmup pass, and launches the io + batch
    /// loops. Throws std::runtime_error on socket failure; calling
    /// start() while running throws.
    void start();

    /// Idempotent, and safe after a start() that threw; blocks until
    /// both loops have exited and every client connection is closed.
    void stop();

    [[nodiscard]] bool running() const;

    /// Bound query port (valid after start()).
    [[nodiscard]] int port() const;

    /// Bound introspection port (0 when not configured).
    [[nodiscard]] int introspection_port() const;

    /// The serving fleet — configure environments/scenarios/faults
    /// through this before start() (members keep stable addresses).
    [[nodiscard]] compass::CompassFleet& fleet() noexcept { return fleet_; }

    /// Per-member degradation ladder (tests arm faults and then inspect
    /// the ladder through this).
    [[nodiscard]] fault::MeasurementSupervisor& supervisor(int member) {
        return *supervisors_.at(static_cast<std::size_t>(member));
    }

    /// The fleet's always-on registry; the service's own instruments
    /// (latency histogram, batch size, counters) live here too, so
    /// /metrics and BENCH_service.json see one coherent surface.
    [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept {
        return fleet_.metrics();
    }

    [[nodiscard]] ServiceStats stats() const;

    [[nodiscard]] const ServiceConfig& config() const noexcept {
        return config_;
    }

private:
    struct PendingQuery;

    // The io loop's protocol hooks (util::net::Protocol).
    std::unique_ptr<util::net::Connection> make_connection() override;
    /// Admits or sheds each complete request frame; a malformed stream
    /// gets one Error reply and the connection closes after it.
    void on_input(util::net::Connection& c, std::string_view bytes) override;
    /// A Shed frame for a client past max_connections.
    std::string on_refuse() override;
    /// Routes ready replies to their connections by id.
    void on_wake() override;

    /// Counts one shed query and returns its encoded Shed reply.
    [[nodiscard]] std::string shed(std::uint64_t request_id, const char* why);
    void batch_loop();
    /// Walks a tripped member's ladder on from the sweep's attempt and
    /// returns the reply fields every query assigned to that member
    /// shares this batch.
    [[nodiscard]] HeadingReply ladder_reply(int member,
                                            const fault::FirstAttempt& first);
    /// Stamps and counts the reply of every query in `batch` whose
    /// member has an entry in `replies`, hands them to the io loop and
    /// frees their admission slots.
    void publish(const std::vector<PendingQuery>& batch,
                 const std::unordered_map<int, HeadingReply>& replies);

    ServiceConfig config_;
    util::TaskPool pool_;  ///< owns the io/batch workers and fleet batches
    compass::CompassFleet fleet_;
    std::vector<std::unique_ptr<fault::MeasurementSupervisor>> supervisors_;

    /// Serializes member mutation: the batch loop holds this across a
    /// fleet sweep + ladder resolution, and the introspection thread's
    /// /snapshot provider holds it while encoding — a snapshot never
    /// observes a member mid-measurement. The batch loop publishes
    /// replies while holding it (lock order fleet_mutex_ ->
    /// ready_mutex_ / queue_mutex_; no other thread nests them).
    std::mutex fleet_mutex_;

    /// The io loop.
    util::net::Reactor reactor_;

    // Pending-query queue and batch-loop lifecycle (guarded by
    // queue_mutex_). `inflight_` counts queries swapped out by the batch
    // loop whose replies have not yet been handed to the io loop; the
    // admission bound covers queued + inflight. queue_cv_ wakes the
    // batch loop for work or stop, and stop() when the loop has exited.
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    bool stopping_ = false;
    bool batch_running_ = false;
    std::vector<PendingQuery> queue_;
    int inflight_ = 0;
    std::uint64_t next_member_ = 0;  ///< round-robin assignment cursor

    // Completed replies awaiting the io loop (guarded by ready_mutex_).
    std::mutex ready_mutex_;
    std::vector<std::pair<std::uint64_t, HeadingReply>> ready_;  ///< (conn id, reply)

    // Statistics.
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> replies_ok_{0};
    std::atomic<std::uint64_t> replies_degraded_{0};
    std::atomic<std::uint64_t> replies_error_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> disconnects_{0};

    // Registry instruments (stable addresses; registered in ctor).
    telemetry::Histogram* latency_hist_ = nullptr;   ///< admission -> reply ready
    telemetry::Histogram* batch_size_hist_ = nullptr;
    telemetry::Counter* requests_counter_ = nullptr;
    telemetry::Counter* shed_counter_ = nullptr;
    telemetry::Counter* degraded_counter_ = nullptr;
};

}  // namespace fxg::service
