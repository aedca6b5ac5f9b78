#include "core/compass_fleet.hpp"

#include <algorithm>
#include <exception>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/lane_engine.hpp"
#include "telemetry/exporters.hpp"

namespace fxg::compass {

namespace {
/// Lowest-index captured exception, or nullptr when all slots are ok.
std::exception_ptr first_error_in_order(const std::vector<std::exception_ptr>& errors) {
    for (const std::exception_ptr& e : errors) {
        if (e) return e;
    }
    return nullptr;
}
}  // namespace

CompassFleet::CompassFleet(int count, const CompassConfig& config,
                           util::TaskPool& pool)
    : pool_(pool),
      probes_(registry_),
      black_box_({&recorder_, &probes_}) {
    if (count < 1) throw std::invalid_argument("CompassFleet: count must be >= 1");
    recorder_.attach_registry(&registry_);
    // One compile per fleet: every member shares the same immutable
    // stage list (asserted via compile_plan_count() in the tests).
    plan_ = std::make_shared<const MeasurementPlan>(compile_plan(config));
    members_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        members_.push_back(std::make_unique<Compass>(config, plan_));
    }
    attach_sinks(nullptr);  // black box is on from the first measurement
}

Compass& CompassFleet::at(int i) {
    return *members_.at(static_cast<std::size_t>(i));
}

const Compass& CompassFleet::at(int i) const {
    return *members_.at(static_cast<std::size_t>(i));
}

void CompassFleet::set_environment(int i, const magnetics::EarthField& field,
                                   double heading_deg) {
    at(i).set_environment(field, heading_deg);
}

void CompassFleet::set_environments(const magnetics::EarthField& field,
                                    const std::vector<double>& headings_deg) {
    if (static_cast<int>(headings_deg.size()) != size()) {
        throw std::invalid_argument(
            "CompassFleet::set_environments: one heading per member required");
    }
    for (int i = 0; i < size(); ++i) at(i).set_environment(field, headings_deg[i]);
}

void CompassFleet::set_field_source(
    std::shared_ptr<const magnetics::FieldSource> source) {
    for (int i = 0; i < size(); ++i) at(i).set_field_source(source);
}

void CompassFleet::set_telemetry(telemetry::TelemetrySink* sink) noexcept {
    attach_sinks(sink);
}

void CompassFleet::attach_sinks(telemetry::TelemetrySink* user_sink) noexcept {
    telemetry::TelemetrySink* effective = &black_box_;
    if (user_sink != nullptr) {
        user_tee_ = std::make_unique<telemetry::TeeSink>(
            std::vector<telemetry::TelemetrySink*>{&black_box_, user_sink});
        effective = user_tee_.get();
    } else {
        user_tee_.reset();
    }
    for (int i = 0; i < size(); ++i) {
        at(i).set_telemetry(effective);
        at(i).set_telemetry_member(i);
    }
}

std::string CompassFleet::health_text() const {
    std::ostringstream out;
    out << "ok\n";
    out << "members " << size() << '\n';
    out << "execution "
        << (execution_ == FleetExecution::Auto ? "auto" : "per_member") << '\n';
    out << "measuring " << measuring_.load(std::memory_order_relaxed) << '\n';
    out << "batches_total " << batches_total_.load(std::memory_order_relaxed)
        << '\n';
    out << "members_measured "
        << members_measured_.load(std::memory_order_relaxed) << '\n';
    out << "member_errors " << member_errors_.load(std::memory_order_relaxed)
        << '\n';
    out << "recorder_retained " << recorder_.retained() << '\n';
    out << "recorder_dropped " << recorder_.dropped() << '\n';
    if (health_extra_) out << health_extra_();
    return out.str();
}

int CompassFleet::start_introspection(
    int port, std::function<std::vector<std::uint8_t>()> snapshot_provider) {
    if (introspection_ != nullptr && introspection_->running()) {
        throw std::logic_error("CompassFleet: introspection already running");
    }
    telemetry::IntrospectionHandlers handlers;
    handlers.metrics = [this] { return telemetry::prometheus_text(registry_); };
    handlers.trace = [this] { return recorder_.trace_jsonl(); };
    handlers.healthz = [this] { return health_text(); };
    handlers.snapshot = std::move(snapshot_provider);
    introspection_ =
        std::make_unique<telemetry::IntrospectionServer>(std::move(handlers));
    introspection_->start(pool_, port);
    return introspection_->port();
}

void CompassFleet::stop_introspection() {
    if (introspection_ != nullptr) introspection_->stop();
}

bool CompassFleet::introspection_running() const {
    return introspection_ != nullptr && introspection_->running();
}

int CompassFleet::introspection_port() const {
    return introspection_running() ? introspection_->port() : 0;
}

std::exception_ptr CompassFleet::measure_all_impl(int threads,
                                                  std::vector<FleetResult>& results) {
    const int n = size();
    results.assign(static_cast<std::size_t>(n), FleetResult{});
    if (threads == 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        if (threads < 1) threads = 1;
    }

    // One member's failure lands in its own slot only. Per-slot
    // exception storage (instead of a first-writer-wins race) makes the
    // exception measure_all rethrows deterministic: always the lowest
    // failing member index, whatever the thread interleaving.
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
    auto measure_one = [&](int i) {
        FleetResult& slot = results[static_cast<std::size_t>(i)];
        try {
            slot.measurement = members_[static_cast<std::size_t>(i)]->measure();
            slot.ok = true;
        } catch (const std::exception& e) {
            slot.error = e.what();
            errors[static_cast<std::size_t>(i)] = std::current_exception();
            if (failure_hook_) failure_hook_(i, slot.error);
        } catch (...) {
            slot.error = "unknown error";
            errors[static_cast<std::size_t>(i)] = std::current_exception();
            if (failure_hook_) failure_hook_(i, slot.error);
        }
    };

    // /healthz batch bookkeeping (finalized by this RAII so every
    // return path below is covered).
    measuring_.fetch_add(1, std::memory_order_relaxed);
    struct BatchStats {
        CompassFleet* fleet;
        const std::vector<FleetResult>* results;
        ~BatchStats() {
            std::uint64_t failed = 0;
            for (const FleetResult& r : *results) {
                if (!r.ok) ++failed;
            }
            fleet->members_measured_.fetch_add(results->size() - failed,
                                               std::memory_order_relaxed);
            fleet->member_errors_.fetch_add(failed, std::memory_order_relaxed);
            fleet->batches_total_.fetch_add(1, std::memory_order_relaxed);
            fleet->measuring_.fetch_sub(1, std::memory_order_relaxed);
        }
    } stats{this, &results};

    if (execution_ == FleetExecution::PerMember) {
        // Members are independent, so the only shared state is the
        // pool's index cursor and each worker's result slots.
        pool_.parallel_for(n, std::min(threads, n), measure_one);
        return first_error_in_order(errors);
    }

    // Auto: each pool task runs a run of consecutive members through the
    // SoA lane engine (several members per vector instruction): one
    // lane-kernel batch of up to kBatchLanes, whose cohorts share one
    // excitation pass, in runs of whole lane groups short enough to give
    // every thread a task while the groups allow. A task with a traced
    // member runs per member so every trace tree stays complete. Results
    // are bit-identical either way.
    const int groups = (n + kLaneGroupSize - 1) / kLaneGroupSize;
    const int busy = std::max(1, std::min(threads, groups));  // tasks wanted
    const int task_size =
        kLaneGroupSize *
        std::min(sim::LaneEngine::kBatchLanes / kLaneGroupSize, (groups + busy - 1) / busy);
    const int tasks = (n + task_size - 1) / task_size;
    auto measure_task = [&](int task) {
        const int begin = task * task_size;
        const int count = std::min(task_size, n - begin);
        bool traced = false;
        for (int i = begin; i < begin + count; ++i) {
            const telemetry::TelemetrySink* sink =
                members_[static_cast<std::size_t>(i)]->telemetry();
            // Only sinks that reconstruct per-member span trees force
            // the fallback; the always-on black box aggregates and
            // keeps the lane path (it answers false here).
            if (sink != nullptr && sink->requires_member_trace()) {
                traced = true;
            }
        }
        if (traced) {
            for (int i = begin; i < begin + count; ++i) measure_one(i);
            return;
        }
        std::vector<Compass*> lanes(static_cast<std::size_t>(count));
        std::vector<LaneOutcome> outcomes(static_cast<std::size_t>(count));
        for (int k = 0; k < count; ++k) {
            lanes[static_cast<std::size_t>(k)] =
                members_[static_cast<std::size_t>(begin + k)].get();
        }
        PlanExecutor::run_lanes(*plan_, lanes, outcomes);
        for (int k = 0; k < count; ++k) {
            const LaneOutcome& out = outcomes[static_cast<std::size_t>(k)];
            FleetResult& slot = results[static_cast<std::size_t>(begin + k)];
            if (out.aborted) {
                slot.error = out.error;
                errors[static_cast<std::size_t>(begin + k)] = out.error_ptr;
                if (failure_hook_) failure_hook_(begin + k, slot.error);
            } else {
                slot.measurement = out.measurement;
                slot.ok = true;
            }
        }
    };
    pool_.parallel_for(tasks, std::min(threads, tasks), measure_task);
    return first_error_in_order(errors);
}

std::vector<FleetResult> CompassFleet::measure_all_results(int threads) {
    std::vector<FleetResult> results;
    static_cast<void>(measure_all_impl(threads, results));
    return results;
}

std::vector<Measurement> CompassFleet::measure_all(int threads) {
    std::vector<FleetResult> results;
    if (std::exception_ptr error = measure_all_impl(threads, results)) {
        std::rethrow_exception(error);
    }
    std::vector<Measurement> measurements;
    measurements.reserve(results.size());
    for (auto& r : results) measurements.push_back(r.measurement);
    return measurements;
}

}  // namespace fxg::compass
