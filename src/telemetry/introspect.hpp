#pragma once

/// \file introspect.hpp
/// Live introspection endpoint: a deliberately minimal HTTP/1.0
/// listener bound to 127.0.0.1, serving the observability surfaces the
/// telemetry layer already renders:
///
///   GET /metrics   Prometheus exposition text (prometheus_text);
///   GET /trace     flight-recorder JSONL (parse_trace_jsonl grammar);
///   GET /healthz   plain-text liveness + supervisor/health state;
///   GET /snapshot  a .fxgsnap state snapshot (binary download).
///
/// The server owns no domain knowledge: each route is a std::function
/// provider the owner (CompassFleet, an example, a test) fills in, so
/// the telemetry library stays below core/fault/snapshot in the
/// dependency order.
///
/// The server is the HTTP protocol on a util::net::Reactor, whose loop
/// runs as one detached task on a util::TaskPool (TaskPool::post).
/// stop() rings the reactor's doorbell and blocks until the loop has
/// exited, which MUST happen before the pool is destroyed. The reactor
/// polls every client together, so one stalled client costs one of the
/// kMaxConnections slots, never the loop, and each connection has
/// kRequestDeadline from accept to its last byte written. A client past
/// the budget gets a 503 and an immediate close.
///
/// One request per connection, no keep-alive, no TLS, loopback only:
/// this is a debugging porthole, not a web server.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/net.hpp"

namespace fxg::telemetry {

/// Route providers. Any that is empty answers 404. Providers are
/// called from the server thread and must be thread-safe against the
/// system they observe; a provider that throws answers 500 with the
/// exception text.
struct IntrospectionHandlers {
    std::function<std::string()> metrics;
    std::function<std::string()> trace;
    std::function<std::string()> healthz;
    std::function<std::vector<std::uint8_t>()> snapshot;
};

class IntrospectionServer final : private util::net::Protocol {
public:
    /// Concurrently open client connections.
    static constexpr int kMaxConnections = 32;
    /// Wall-clock budget per connection, accept to last byte written:
    /// the bound on what a slow loris can pin.
    static constexpr std::chrono::seconds kRequestDeadline{2};
    /// A request line longer than this closes with no response.
    static constexpr std::size_t kMaxRequestLine = 16 * 1024;

    explicit IntrospectionServer(IntrospectionHandlers handlers);

    /// Calls stop().
    ~IntrospectionServer();

    IntrospectionServer(const IntrospectionServer&) = delete;
    IntrospectionServer& operator=(const IntrospectionServer&) = delete;

    /// Binds 127.0.0.1:`port` (0 = kernel-assigned, see port()) and
    /// starts the loop on `pool`. Throws std::runtime_error on socket
    /// failure; calling start() while running throws.
    void start(util::TaskPool& pool, int port = 0);

    /// Idempotent; blocks until the loop has exited.
    void stop();

    [[nodiscard]] bool running() const;

    /// The bound port (valid between start() and stop()).
    [[nodiscard]] int port() const;

    /// Blocking loopback GET, for tests and examples: connects to
    /// 127.0.0.1:`port`, sends `GET <path> HTTP/1.0` and returns the
    /// raw response (headers + body). Throws std::runtime_error on
    /// connection failure.
    [[nodiscard]] static std::string http_get(int port, const std::string& path);

    /// The body part of a raw http_get() response (after the first
    /// blank line; the whole input if none).
    [[nodiscard]] static std::string body_of(const std::string& response);

private:
    std::unique_ptr<util::net::Connection> make_connection() override;
    /// Collects the request line; at its '\n' queues the response and
    /// closes after it.
    void on_input(util::net::Connection& c, std::string_view bytes) override;
    /// 503 Service Unavailable.
    std::string on_refuse() override;

    /// Renders the response for one request line (route dispatch; a
    /// throwing handler becomes a 500).
    [[nodiscard]] std::string build_response(const std::string& line) const;

    IntrospectionHandlers handlers_;
    util::net::Reactor reactor_;
};

}  // namespace fxg::telemetry
