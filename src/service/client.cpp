#include "service/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/net.hpp"

namespace fxg::service {

QueryClient::QueryClient(int port) : fd_(util::net::connect_loopback(port)) {}

QueryClient::~QueryClient() { close(); }

void QueryClient::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void QueryClient::send(std::uint64_t request_id) {
    const std::vector<std::uint8_t> bytes =
        encode_request(HeadingRequest{request_id, 0});
    if (!util::net::send_all(fd_, bytes.data(), bytes.size())) {
        throw std::runtime_error(std::string("QueryClient: send: ") +
                                 std::strerror(errno));
    }
}

HeadingReply QueryClient::recv() {
    Frame frame;
    while (!reader_.next(frame)) {
        std::uint8_t buf[4096];
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n > 0) {
            reader_.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error(
            n == 0 ? "QueryClient: server closed the connection"
                   : std::string("QueryClient: recv: ") + std::strerror(errno));
    }
    return decode_reply(frame);
}

HeadingReply QueryClient::query(std::uint64_t request_id) {
    send(request_id);
    const HeadingReply reply = recv();
    if (reply.request_id != request_id) {
        throw ProtocolError("QueryClient: reply for request " +
                            std::to_string(reply.request_id) + ", expected " +
                            std::to_string(request_id));
    }
    return reply;
}

}  // namespace fxg::service
