#pragma once

/// \file net.hpp
/// Loopback socket plumbing and the one poll-driven reactor both
/// servers run on (the introspection endpoint, DESIGN.md §14, and
/// compassd's io loop, §16). A server supplies a Protocol: what to do
/// with the bytes a connection sends, what a client past the connection
/// budget is told before its close, and what to do when the doorbell
/// rings. Everything else lives here once:
///
///   - the listener on 127.0.0.1 and a self-pipe doorbell, so wake()
///     and stop() reach a loop blocked in poll();
///   - non-blocking connections with input and output queues; every
///     send uses MSG_NOSIGNAL (a vanished peer is EPIPE, never a
///     SIGPIPE), EINTR is a retry, EAGAIN means "wait for the next
///     readiness", and EOF or a hard error drops the connection;
///   - bounded reads: one chunk of at most 4 KiB per connection per
///     pass, and no reads at all while more than 64 KiB of the
///     connection's output is unsent, so a client that never reads
///     cannot make the server buffer without limit;
///   - the connection budget (an over-budget client gets the protocol's
///     refusal and an immediate close) and an optional per-connection
///     deadline, accept to last byte written. poll() sleeps until the
///     nearest deadline, or indefinitely when there is none.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fxg::util {
class TaskPool;
}

namespace fxg::util::net {

/// Connects a blocking TCP socket to 127.0.0.1:`port`, retrying EINTR.
/// Returns the fd; throws std::runtime_error carrying strerror.
[[nodiscard]] int connect_loopback(int port);

/// Sends the whole buffer on a blocking socket with MSG_NOSIGNAL,
/// retrying EINTR and short sends. Returns false (errno set) when the
/// peer is gone or on any other hard error; never raises SIGPIPE.
bool send_all(int fd, const void* data, std::size_t size) noexcept;

/// Reads a blocking socket to EOF, retrying EINTR, and returns the
/// bytes that arrived. An EAGAIN from a receive timeout (SO_RCVTIMEO)
/// or a hard error ends the read like EOF: a stalled peer yields what
/// it sent.
[[nodiscard]] std::string read_all(int fd);

using Clock = std::chrono::steady_clock;

/// One accepted client. A protocol derives from it to keep its parser
/// state, appends replies to `out` and sets `closing`; the reactor sets
/// the rest.
struct Connection {
    Connection() = default;
    virtual ~Connection() = default;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    std::string out;        ///< bytes queued for the peer, not yet sent
    bool closing = false;   ///< stop reading; close once `out` is sent
    std::uint64_t id = 0;   ///< unique for the reactor's lifetime
    int fd = -1;
    Clock::time_point deadline{};
};

/// The hooks a server plugs into the reactor. All run on the loop
/// thread.
class Protocol {
public:
    /// A new connection object: the protocol's own subclass.
    virtual std::unique_ptr<Connection> make_connection() = 0;
    /// `bytes` (one read, at most 4 KiB) arrived on `c`. Queue
    /// replies on c.out; set c.closing to end the connection after them.
    virtual void on_input(Connection& c, std::string_view bytes) = 0;
    /// The bytes a client past the connection budget gets before the
    /// reactor closes it.
    virtual std::string on_refuse() = 0;
    /// The doorbell rang (Reactor::wake()).
    virtual void on_wake() {}

protected:
    ~Protocol() = default;
};

class Reactor {
public:
    /// `deadline` zero = connections have no deadline.
    Reactor(Protocol& protocol, int max_connections,
            Clock::duration deadline = Clock::duration::zero());

    /// Calls stop().
    ~Reactor();

    Reactor(const Reactor&) = delete;
    Reactor& operator=(const Reactor&) = delete;

    /// Binds 127.0.0.1:`port` (0 = kernel-assigned, see port()) and
    /// runs the loop as one TaskPool::post task on `pool`. Throws
    /// std::runtime_error on socket failure or when already started.
    void start(TaskPool& pool, int port);

    /// Idempotent. Rings the doorbell, returns once the loop has exited
    /// (every connection closed), then closes the listener. Must return
    /// before `pool` is destroyed.
    void stop();

    /// Rings the doorbell: the loop calls Protocol::on_wake() on its
    /// next pass. Any thread, between start() and stop().
    void wake() noexcept;

    /// True from start() until the loop exits.
    [[nodiscard]] bool running() const;

    /// The bound port while started, else 0.
    [[nodiscard]] int port() const;

    /// The open connection with this id, or nullptr. Loop thread only
    /// (that is, from a Protocol hook).
    [[nodiscard]] Connection* find(std::uint64_t id) noexcept;

private:
    void run();
    /// Sends what `c` can take now; false when the peer is gone.
    static bool flush(Connection& c);

    Protocol& protocol_;
    const std::size_t max_connections_;
    const Clock::duration deadline_;

    std::vector<std::unique_ptr<Connection>> conns_;  ///< loop thread only
    std::uint64_t next_id_ = 1;                       ///< loop thread only
    std::atomic<bool> stopping_{false};

    mutable std::mutex mutex_;
    std::condition_variable exited_;
    int listen_fd_ = -1;
    int bell_[2] = {-1, -1};  ///< self-pipe doorbell: read end, write end
    int port_ = 0;
    bool running_ = false;
};

}  // namespace fxg::util::net
