#include "loadgen.hpp"

#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "service/client.hpp"

namespace perfbench {

namespace svc = fxg::service;

ServiceRig::ServiceRig(const std::vector<Environment>& envs)
    : service_(std::make_unique<svc::CompassService>(config())) {
    for (int i = 0; i < kMembers; ++i) {
        apply_environment(service_->fleet().at(i), envs[static_cast<std::size_t>(i)]);
    }
    service_->start();
    fxg::fault::FaultSpec spec;
    spec.fault = fxg::fault::FaultClass::DetectorStuckLow;
    spec.channel = fxg::analog::Channel::X;
    injector_.add(spec);
    injector_.arm(service_->fleet().at(kFaultedMember));
}

ServiceRig::~ServiceRig() { stop(); }

void ServiceRig::stop() {
    // CompassService::stop() sets its stop flag and notifies the batch
    // loop without holding the loop's queue mutex. A batch loop that has
    // just tested its wait predicate but not yet blocked misses that
    // wakeup, and stop() then waits forever. That window follows the
    // loop's start and each batch, so let the loop park in its wait first.
    if (service_->running()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    service_->stop();
    injector_.disarm();
}

svc::ServiceConfig ServiceRig::config() {
    svc::ServiceConfig cfg;
    cfg.members = kMembers;
    cfg.batch_threads = 1;
    // The default bound (256) is 0.13 s of the 2000 q/s load: a stall of a
    // loaded host that long would shed queries, and a shed query counts as
    // failed. Admission stays bounded, at about 2 s of that load.
    cfg.max_pending = 4096;
    return cfg;
}

std::vector<Environment> service_environments() {
    const int n = ServiceRig::kMembers;
    std::vector<Environment> envs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Environment& e = envs[static_cast<std::size_t>(i)];
        e.heading_deg = (i + 0.5) * 360.0 / n;
        e.field_ut = kMinHorizontalUt +
                     (kMaxHorizontalUt - kMinHorizontalUt) * ((7 * i) % n) / (n - 1);
    }
    return envs;
}

std::vector<double> poisson_schedule(SeededRng& rng, double per_s,
                                     double duration_s) {
    std::vector<double> due;
    for (double t = rng.exponential(per_s); t < duration_s;
         t += rng.exponential(per_s)) {
        due.push_back(t);
    }
    return due;
}

void pin_to_current_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) throw std::runtime_error("sched_getcpu failed");
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
        throw std::runtime_error("sched_setaffinity failed");
    }
}

int loadgen_connections() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus = sched_getaffinity(0, sizeof set, &set) == 0
                         ? CPU_COUNT(&set)
                         : static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(cpus - 1, 1, 3);
}

LoadRun run_open_loop(int port, const std::vector<double>& due_s) {
    LoadRun run;
    run.connections = loadgen_connections();
    const std::size_t conns = static_cast<std::size_t>(run.connections);
    run.queries.resize(due_s.size());
    for (std::size_t i = 0; i < due_s.size(); ++i) run.queries[i].due_s = due_s[i];

    std::vector<std::unique_ptr<svc::QueryClient>> clients;
    for (std::size_t c = 0; c < conns; ++c) {
        clients.push_back(std::make_unique<svc::QueryClient>(port));
    }

    std::atomic<std::uint64_t> transport_errors{0}, id_errors{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t receivers_done = 0;

    // Lead time so every receiver is parked in recv() before the first
    // query is due.
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    run.start = start;
    const auto at = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - start).count();
    };

    std::vector<std::thread> receivers;
    for (std::size_t c = 0; c < conns; ++c) {
        receivers.emplace_back([&, c] {
            const std::size_t expected = (due_s.size() + conns - 1 - c) / conns;
            try {
                for (std::size_t k = 0; k < expected; ++k) {
                    svc::HeadingReply reply = clients[c]->recv();
                    const double now = at(Clock::now());
                    const std::uint64_t id = reply.request_id;
                    if (id >= run.queries.size() || id % conns != c ||
                        run.queries[id].done_s >= 0.0) {
                        ++id_errors;
                        continue;
                    }
                    run.queries[id].done_s = now;
                    run.queries[id].reply = std::move(reply);
                }
            } catch (const std::exception&) {
                ++transport_errors;
            }
            const std::lock_guard<std::mutex> lock(done_mutex);
            ++receivers_done;
            done_cv.notify_all();
        });
    }

    for (std::size_t i = 0; i < due_s.size(); ++i) {
        std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                  std::chrono::duration<double>(due_s[i])));
        run.queries[i].sent_s = at(Clock::now());
        try {
            clients[i % conns]->send(i);
        } catch (const std::exception&) {
            run.queries[i].sent_s = -1.0;
            ++transport_errors;
        }
    }

    {
        std::unique_lock<std::mutex> lock(done_mutex);
        const bool drained = done_cv.wait_for(lock, std::chrono::seconds(10), [&] {
            return receivers_done == conns;
        });
        if (!drained) {
            // Unblock receivers still waiting for replies that never came.
            for (auto& c : clients) ::shutdown(c->fd(), SHUT_RDWR);
        }
    }
    for (std::thread& t : receivers) t.join();
    run.transport_errors = transport_errors.load();
    run.id_errors = id_errors.load();
    return run;
}

SaturatedRun run_saturated(int port, int in_flight_total, double duration_s) {
    SaturatedRun run;
    run.connections = loadgen_connections();
    const std::size_t conns = static_cast<std::size_t>(run.connections);
    const int depth = std::max(1, in_flight_total / run.connections);
    std::vector<std::unique_ptr<svc::QueryClient>> clients;
    for (std::size_t c = 0; c < conns; ++c) {
        clients.push_back(std::make_unique<svc::QueryClient>(port));
    }

    std::vector<SaturatedRun> parts(conns);
    const Clock::time_point start = Clock::now();
    run.start = start;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            svc::QueryClient& client = *clients[c];
            SaturatedRun& part = parts[c];
            std::uint64_t next_id = 0;
            int in_flight = 0;
            try {
                for (; in_flight < depth; ++in_flight) client.send(next_id++);
                while (in_flight > 0) {
                    part.replies.push_back(client.recv());
                    part.done_s.push_back(seconds_since(start));
                    --in_flight;
                    if (part.done_s.back() < duration_s) {
                        client.send(next_id++);
                        ++in_flight;
                    }
                }
            } catch (const std::exception&) {
                ++part.transport_errors;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (SaturatedRun& part : parts) {
        run.replies.insert(run.replies.end(), part.replies.begin(), part.replies.end());
        run.done_s.insert(run.done_s.end(), part.done_s.begin(), part.done_s.end());
        run.transport_errors += part.transport_errors;
    }
    return run;
}

}  // namespace perfbench
