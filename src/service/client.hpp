#pragma once

/// \file client.hpp
/// Blocking loopback client for the compassd protocol, used by tests,
/// the load-generator bench and examples. One QueryClient owns one
/// persistent connection; queries may be pipelined (send() repeatedly,
/// then recv() each reply) or issued synchronously with query().
///
/// The connection and every send go through util::net's
/// connect_loopback and send_all, the helpers the servers' reactor uses.
/// All socket I/O retries EINTR and sends with MSG_NOSIGNAL — a daemon
/// shutting down underneath the client produces ProtocolError /
/// std::runtime_error, never SIGPIPE.

#include <cstdint>

#include "service/protocol.hpp"

namespace fxg::service {

class QueryClient {
public:
    /// Connects to 127.0.0.1:`port`; throws std::runtime_error on
    /// failure.
    explicit QueryClient(int port);

    ~QueryClient();

    QueryClient(const QueryClient&) = delete;
    QueryClient& operator=(const QueryClient&) = delete;

    /// Sends one HeadingRequest (does not wait for the reply).
    void send(std::uint64_t request_id);

    /// Reads one reply frame (blocking). Throws ProtocolError on a
    /// malformed frame, std::runtime_error when the server hung up.
    [[nodiscard]] HeadingReply recv();

    /// send() + recv(): one synchronous round trip. The reply's
    /// request_id is verified against `request_id`.
    [[nodiscard]] HeadingReply query(std::uint64_t request_id);

    /// The raw connected socket (tests use it to simulate abrupt
    /// disconnects and half-written frames).
    [[nodiscard]] int fd() const noexcept { return fd_; }

    /// Closes the connection (idempotent; the destructor also closes).
    void close() noexcept;

private:
    int fd_ = -1;
    FrameReader reader_;
};

}  // namespace fxg::service
