/// \file compassd.cpp
/// The integrated-compass daemon: serves batched heading queries over a
/// loopback socket (service/protocol.hpp framing) with the HTTP
/// introspection endpoint riding along on a second port.
///
///   ./compassd --port 7070 --http 7071 --members 16
///   curl http://127.0.0.1:7071/metrics     # Prometheus text
///   curl http://127.0.0.1:7071/healthz     # liveness + service stats
///   curl http://127.0.0.1:7071/trace       # recent-past JSONL
///
/// Query with the bundled load generator (build/bench/bench_service
/// runs against its own in-process daemon; this binary is the
/// deployable shape of the same CompassService).
///
/// SIGINT/SIGTERM stop the daemon cleanly; SIGPIPE is ignored so a
/// client vanishing mid-reply costs that client its connection, never
/// the process.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "service/client.hpp"
#include "service/compassd.hpp"
#include "telemetry/introspect.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--port N] [--http N] [--members N]\n"
                 "          [--max-connections N] [--max-pending N]\n"
                 "          [--retry-after-ms N] [--once]\n"
                 "\n"
                 "  --port N             query port (default 0 = kernel-assigned)\n"
                 "  --http N             introspection port (default 0; --http -1 disables)\n"
                 "  --members N          fleet members (default 16)\n"
                 "  --max-connections N  concurrent client budget (default 64)\n"
                 "  --max-pending N      admission bound, queued+inflight (default 256)\n"
                 "  --retry-after-ms N   backoff hint in Shed replies (default 50)\n"
                 "  --once               serve one self-test query (and GET /healthz\n"
                 "                       when introspection is on) and exit\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    // A peer closing mid-send must surface as EPIPE from send(), not
    // kill the process (satellite fix: the daemon also ignores the
    // signal globally in case any non-MSG_NOSIGNAL write sneaks in).
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    fxg::service::ServiceConfig cfg;
    cfg.introspection_port = 0;
    bool once = false;
    for (int i = 1; i < argc; ++i) {
        const auto int_arg = [&](int& out) {
            if (i + 1 >= argc) return false;
            out = std::atoi(argv[++i]);
            return true;
        };
        int v = 0;
        if (std::strcmp(argv[i], "--port") == 0 && int_arg(v)) {
            cfg.port = v;
        } else if (std::strcmp(argv[i], "--http") == 0 && int_arg(v)) {
            cfg.introspection_port = v;
        } else if (std::strcmp(argv[i], "--members") == 0 && int_arg(v)) {
            cfg.members = v;
        } else if (std::strcmp(argv[i], "--max-connections") == 0 && int_arg(v)) {
            cfg.max_connections = v;
        } else if (std::strcmp(argv[i], "--max-pending") == 0 && int_arg(v)) {
            cfg.max_pending = v;
        } else if (std::strcmp(argv[i], "--retry-after-ms") == 0 && int_arg(v)) {
            cfg.retry_after_ms = static_cast<std::uint32_t>(v);
        } else if (std::strcmp(argv[i], "--once") == 0) {
            once = true;
        } else {
            return usage(argv[0]);
        }
    }

    try {
        fxg::service::CompassService service(cfg);

        // The paper's mid-latitude site, members fanned over headings.
        const fxg::magnetics::EarthField field(fxg::magnetics::microtesla(48.0),
                                               67.0);
        for (int i = 0; i < cfg.members; ++i) {
            service.fleet().set_environment(
                i, field, 360.0 * i / static_cast<double>(cfg.members));
        }

        service.start();
        std::printf("compassd: serving %d members on 127.0.0.1:%d\n",
                    cfg.members, service.port());
        if (service.introspection_port() > 0) {
            std::printf("compassd: introspection on http://127.0.0.1:%d"
                        " (/metrics /trace /healthz /snapshot)\n",
                        service.introspection_port());
        }
        std::fflush(stdout);

        if (once) {
            fxg::service::QueryClient client(service.port());
            const fxg::service::HeadingReply reply = client.query(1);
            std::printf("compassd: self-test member %u -> %.3f deg (%s)\n",
                        reply.member, reply.heading_deg,
                        fxg::service::to_string(reply.status));
            bool healthy = true;
            if (service.introspection_port() > 0) {
                const std::string health =
                    fxg::telemetry::IntrospectionServer::http_get(
                        service.introspection_port(), "/healthz");
                healthy = health.rfind("HTTP/1.0 200 ", 0) == 0;
                std::printf("compassd: self-test GET /healthz -> %s\n",
                            health.substr(0, health.find('\r')).c_str());
            }
            service.stop();
            return reply.status == fxg::service::ReplyStatus::Ok && healthy
                       ? 0
                       : 1;
        }

        while (!g_stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        std::printf("compassd: stopping (served %llu queries, %llu batches)\n",
                    static_cast<unsigned long long>(service.stats().requests),
                    static_cast<unsigned long long>(service.stats().batches));
        service.stop();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "compassd: %s\n", e.what());
        return 1;
    }
    return 0;
}
