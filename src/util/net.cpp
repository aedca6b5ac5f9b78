#include "util/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/task_pool.hpp"

namespace fxg::util::net {

namespace {

/// Pending connections the kernel queues before accept().
constexpr int kBacklog = 64;
/// Largest single read handed to Protocol::on_input.
constexpr std::size_t kReadChunk = 4096;
/// Input is not read from a connection with more unsent output.
constexpr std::size_t kMaxUnsent = 64 * 1024;

/// Throws std::runtime_error("<what>: <strerror(errno)>"), closing `fd`
/// first when it is open.
[[noreturn]] void fail(const std::string& what, int fd = -1) {
    const std::string message = what + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    throw std::runtime_error(message);
}

void set_nonblocking(int fd) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

sockaddr_in loopback(int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    return addr;
}

struct Listener {
    int fd = -1;
    int port = 0;
};

/// A non-blocking listener on 127.0.0.1:`port` (0 = kernel-assigned)
/// and the port it got.
Listener listen_loopback(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("listen_loopback: socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = loopback(port);
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, kBacklog) < 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        fail("listen_loopback: bind/listen 127.0.0.1:" + std::to_string(port),
             fd);
    }
    set_nonblocking(fd);
    return {fd, ntohs(addr.sin_port)};
}

}  // namespace

int connect_loopback(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("connect_loopback: socket");
    const sockaddr_in addr = loopback(port);
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) fail("connect_loopback: 127.0.0.1:" + std::to_string(port), fd);
    return fd;
}

bool send_all(int fd, const void* data, std::size_t size) noexcept {
    const char* p = static_cast<const char*>(data);
    while (size > 0) {
        const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
        if (n > 0) {
            p += n;
            size -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;  // peer went away (EPIPE/ECONNRESET/...) or hard error
    }
    return true;
}

std::string read_all(int fd) {
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;  // a signal is not a hang-up
        return out;  // EOF, receive timeout (EAGAIN) or hard error
    }
}

Reactor::Reactor(Protocol& protocol, int max_connections,
                 Clock::duration deadline)
    : protocol_(protocol),
      max_connections_(static_cast<std::size_t>(max_connections)),
      deadline_(deadline) {}

Reactor::~Reactor() { stop(); }

void Reactor::start(TaskPool& pool, int port) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (listen_fd_ >= 0) {
            throw std::runtime_error("Reactor: already started");
        }
        const Listener listener = listen_loopback(port);
        if (::pipe(bell_) < 0) fail("Reactor: pipe", listener.fd);
        set_nonblocking(bell_[0]);
        set_nonblocking(bell_[1]);
        listen_fd_ = listener.fd;
        port_ = listener.port;
        running_ = true;
        stopping_.store(false);
    }
    pool.post([this] { run(); });
}

void Reactor::stop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (listen_fd_ < 0) return;
    stopping_.store(true);
    wake();
    exited_.wait(lock, [this] { return !running_; });
    for (int* fd : {&listen_fd_, &bell_[0], &bell_[1]}) {
        if (*fd >= 0) ::close(*fd);  // a concurrent stop() may have closed them
        *fd = -1;
    }
    port_ = 0;
}

void Reactor::wake() noexcept {
    // A full pipe already holds a pending wakeup, so a lost byte is
    // harmless.
    const char byte = 1;
    while (::write(bell_[1], &byte, 1) < 0 && errno == EINTR) {}
}

bool Reactor::running() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return running_;
}

int Reactor::port() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return port_;
}

Connection* Reactor::find(std::uint64_t id) noexcept {
    for (const auto& c : conns_) {
        if (c->id == id) return c.get();
    }
    return nullptr;
}

bool Reactor::flush(Connection& c) {
    std::size_t off = 0;
    bool alive = true;
    while (off < c.out.size()) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + off, c.out.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        // EAGAIN: the socket buffer is full, wait for POLLOUT. Anything
        // else: the peer is gone (EPIPE, no signal) or a hard error.
        alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        break;
    }
    c.out.erase(0, off);
    return alive;
}

void Reactor::run() {
    const bool has_deadline = deadline_ > Clock::duration::zero();
    std::vector<pollfd> pfds;
    while (!stopping_.load()) {
        // Slot 0 is the listener, always watched: an over-budget client
        // is refused at once, not parked in the backlog. Slot 1 is the
        // doorbell, then one slot per connection.
        pfds.assign(
            {pollfd{listen_fd_, POLLIN, 0}, pollfd{bell_[0], POLLIN, 0}});
        Clock::time_point next_deadline = Clock::time_point::max();
        for (const auto& c : conns_) {
            short events = c->out.empty() ? 0 : POLLOUT;
            if (!c->closing && c->out.size() <= kMaxUnsent) events |= POLLIN;
            pfds.push_back(pollfd{c->fd, events, 0});
            next_deadline = std::min(next_deadline, c->deadline);
        }
        int timeout_ms = -1;
        if (has_deadline && next_deadline != Clock::time_point::max()) {
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                next_deadline - Clock::now());
            timeout_ms =
                static_cast<int>(std::max<std::int64_t>(0, left.count()));
        }

        if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                   timeout_ms) < 0) {
            if (errno == EINTR) continue;
            break;  // poll itself failed; bail out rather than spin
        }
        const Clock::time_point now = Clock::now();

        // Drain the doorbell before the hook reads what it announces.
        if ((pfds[1].revents & POLLIN) != 0) {
            char sink[64];
            while (::read(bell_[0], sink, sizeof sink) > 0) {}
            protocol_.on_wake();
        }

        // Every connection here was in this poll set; the ones accepted
        // below wait for the next pass.
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            Connection& c = *conns_[i];
            const pollfd& p = pfds[i + 2];
            bool alive = true;
            if ((p.events & POLLIN) != 0 &&
                (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                char buf[kReadChunk];
                ssize_t n;
                do {
                    n = ::recv(c.fd, buf, sizeof buf, 0);
                } while (n < 0 && errno == EINTR);
                if (n > 0) {
                    protocol_.on_input(
                        c, std::string_view(buf, static_cast<std::size_t>(n)));
                } else {
                    // EOF or a hard error drops; EAGAIN waits for POLLIN.
                    alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
                }
            }
            if (alive) alive = flush(c) && !(c.closing && c.out.empty());
            if (alive && has_deadline && now >= c.deadline) alive = false;
            if (!alive) {
                ::close(c.fd);
                c.fd = -1;
            }
        }
        std::erase_if(conns_, [](const auto& c) { return c->fd < 0; });

        if ((pfds[0].revents & POLLIN) == 0) continue;
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR) continue;
                break;  // EAGAIN: backlog drained
            }
            if (conns_.size() >= max_connections_) {
                // The accepted socket is blocking, and a fresh socket
                // buffer has room for a short refusal.
                const std::string refusal = protocol_.on_refuse();
                static_cast<void>(send_all(fd, refusal.data(), refusal.size()));
                ::close(fd);
                continue;
            }
            set_nonblocking(fd);
            std::unique_ptr<Connection> c = protocol_.make_connection();
            c->id = next_id_++;
            c->fd = fd;
            c->deadline = now + deadline_;
            conns_.push_back(std::move(c));
        }
    }

    for (const auto& c : conns_) ::close(c->fd);
    conns_.clear();
    // Notify under the lock: once stop() sees running_ == false its
    // caller may destroy this object.
    const std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
    exited_.notify_all();
}

}  // namespace fxg::util::net
