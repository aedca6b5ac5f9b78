#pragma once

/// \file loadgen.hpp
/// The compassd side of the benchmark: a service rig (16 members, one
/// faulted after warm-up), an open-loop Poisson load generator and a
/// closed-loop saturation run.

#include <memory>
#include <vector>

#include "common.hpp"
#include "fault/fault_injector.hpp"
#include "service/compassd.hpp"

namespace perfbench {

/// An in-process CompassService at the daemon's default size. The
/// constructor is the workload's set-up: build, place every member in
/// its seeded environment, start (which runs the supervisors' warm-up
/// pass), then arm DetectorStuckLow on member 0's x axis.
class ServiceRig {
public:
    static constexpr int kMembers = 16;
    static constexpr int kFaultedMember = 0;

    explicit ServiceRig(const std::vector<Environment>& envs);
    /// Stops the service, then disarms the injector while the faulted
    /// compass still exists.
    ~ServiceRig();

    ServiceRig(const ServiceRig&) = delete;
    ServiceRig& operator=(const ServiceRig&) = delete;

    /// Fixed rather than 0 (= hardware concurrency): 16 members fit one
    /// lane group, so a sweep never spans more than one worker.
    static fxg::service::ServiceConfig config();

    [[nodiscard]] fxg::service::CompassService& service() { return *service_; }

    /// Stops serving and disarms the fault (idempotent); the fleet stays
    /// readable for checkpointing.
    void stop();

private:
    fxg::fault::FaultInjector injector_;
    std::unique_ptr<fxg::service::CompassService> service_;
};

/// The service's members: one heading per sixteenth of the circle, with
/// fields spread over the horizontal range in a shuffled order. They are
/// fixed (the seed drives the traffic), so the error percentile over Ok
/// replies does not hinge on which 16 headings a seed happens to draw.
[[nodiscard]] std::vector<Environment> service_environments();

/// Poisson arrival instants in [0, duration_s), drawn up front.
[[nodiscard]] std::vector<double> poisson_schedule(SeededRng& rng, double per_s,
                                                   double duration_s);

/// One query of an open-loop run. Times are seconds after the run's
/// start; latency is counted from `due_s`, when the query was due.
struct Query {
    double due_s = 0.0;
    double sent_s = -1.0;  ///< < 0: never sent
    double done_s = -1.0;  ///< < 0: never answered
    fxg::service::HeadingReply reply;
};

struct LoadRun {
    Clock::time_point start;  ///< the instant query times count from
    std::vector<Query> queries;
    int connections = 0;
    std::uint64_t transport_errors = 0;  ///< failed sends / receives
    std::uint64_t id_errors = 0;         ///< replies with an unknown request id
};

/// Restricts the calling thread, and the threads it creates from now on,
/// to the vCPU it is running on.
void pin_to_current_cpu();

/// Connections (one receiver thread each) the generator opens; with the
/// sending thread this stays within the CPUs the process may run on.
[[nodiscard]] int loadgen_connections();

/// Sends query i at due_s[i] on connection i % connections() from one
/// sending thread, never waiting for replies (pipelined over
/// QueryClient::send / recv); one thread per connection receives. Gives
/// up on replies still missing 10 s after the last send.
[[nodiscard]] LoadRun run_open_loop(int port, const std::vector<double>& due_s);

/// Replies of a closed-loop run, in arrival order per connection.
struct SaturatedRun {
    Clock::time_point start;
    std::vector<fxg::service::HeadingReply> replies;
    std::vector<double> done_s;  ///< when each reply arrived, after the start
    int connections = 0;
    std::uint64_t transport_errors = 0;
};

/// Closed loop at saturation: loadgen_connections() connections keep
/// `in_flight_total` queries in flight between them, each sending the
/// next as soon as a reply arrives, until `duration_s` has passed; then
/// drains. One thread per connection.
[[nodiscard]] SaturatedRun run_saturated(int port, int in_flight_total, double duration_s);

}  // namespace perfbench
