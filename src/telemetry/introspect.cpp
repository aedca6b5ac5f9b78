#include "telemetry/introspect.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>

namespace fxg::telemetry {

namespace {

std::string make_response(const char* status, const char* content_type,
                          const std::string& body) {
    std::string out = "HTTP/1.0 ";
    out += status;
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: " + std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

/// One client: the request bytes read so far.
struct HttpConnection : util::net::Connection {
    std::string request;
};

}  // namespace

IntrospectionServer::IntrospectionServer(IntrospectionHandlers handlers)
    : handlers_(std::move(handlers)),
      reactor_(*this, kMaxConnections, kRequestDeadline) {}

IntrospectionServer::~IntrospectionServer() { stop(); }

void IntrospectionServer::start(util::TaskPool& pool, int port) {
    reactor_.start(pool, port);
}

void IntrospectionServer::stop() { reactor_.stop(); }

bool IntrospectionServer::running() const { return reactor_.running(); }

int IntrospectionServer::port() const { return reactor_.port(); }

std::unique_ptr<util::net::Connection> IntrospectionServer::make_connection() {
    return std::make_unique<HttpConnection>();
}

void IntrospectionServer::on_input(util::net::Connection& c,
                                   std::string_view bytes) {
    std::string& request = static_cast<HttpConnection&>(c).request;
    request.append(bytes);
    const auto line_end = request.find('\n');
    if (line_end != std::string::npos) {
        c.out = build_response(request.substr(0, line_end));
        c.closing = true;
    } else if (request.size() > kMaxRequestLine) {
        c.closing = true;  // oversized garbage, no request line: no response
    }
}

std::string IntrospectionServer::on_refuse() {
    return make_response("503 Service Unavailable", "text/plain",
                         "connection budget exhausted\n");
}

std::string IntrospectionServer::build_response(const std::string& line) const {
    if (line.rfind("GET ", 0) != 0) {
        return make_response("405 Method Not Allowed", "text/plain",
                             "GET only\n");
    }
    const auto path_end = line.find(' ', 4);
    const std::string path = line.substr(
        4, path_end == std::string::npos ? std::string::npos : path_end - 4);

    try {
        if (path == "/metrics" && handlers_.metrics) {
            return make_response("200 OK", "text/plain; version=0.0.4",
                                 handlers_.metrics());
        }
        if (path == "/trace" && handlers_.trace) {
            return make_response("200 OK", "application/jsonl",
                                 handlers_.trace());
        }
        if (path == "/healthz" && handlers_.healthz) {
            return make_response("200 OK", "text/plain", handlers_.healthz());
        }
        if (path == "/snapshot" && handlers_.snapshot) {
            const std::vector<std::uint8_t> bytes = handlers_.snapshot();
            // bytes.data() may be null when empty — never hand that to
            // the std::string(ptr, len) constructor.
            std::string body;
            if (!bytes.empty()) {
                body.assign(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size());
            }
            return make_response("200 OK", "application/octet-stream", body);
        }
        return make_response("404 Not Found", "text/plain",
                             "unknown path " + path + "\n");
    } catch (const std::exception& e) {
        return make_response("500 Internal Server Error", "text/plain",
                             std::string(e.what()) + "\n");
    }
}

std::string IntrospectionServer::http_get(int port, const std::string& path) {
    const int fd = util::net::connect_loopback(port);
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    static_cast<void>(util::net::send_all(fd, request.data(), request.size()));
    ::shutdown(fd, SHUT_WR);
    std::string response = util::net::read_all(fd);
    ::close(fd);
    return response;
}

std::string IntrospectionServer::body_of(const std::string& response) {
    const auto pos = response.find("\r\n\r\n");
    if (pos == std::string::npos) return response;
    return response.substr(pos + 4);
}

}  // namespace fxg::telemetry
