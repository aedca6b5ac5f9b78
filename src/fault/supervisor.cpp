#include "fault/supervisor.hpp"

#include <cmath>
#include <exception>

#include "magnetics/earth_field.hpp"
#include "telemetry/sink.hpp"
#include "util/angle.hpp"

namespace fxg::fault {

namespace {

/// Telemetry event name for a ladder outcome (string literals only —
/// sinks store the pointer, not a copy).
const char* status_event(SupervisedStatus status) noexcept {
    switch (status) {
        case SupervisedStatus::Ok: return "supervisor.ok";
        case SupervisedStatus::RecoveredRetry: return "supervisor.recovered_retry";
        case SupervisedStatus::DegradedSingleAxis:
            return "supervisor.degraded_single_axis";
        case SupervisedStatus::HoldLastGood: return "supervisor.hold_last_good";
        case SupervisedStatus::Failed: return "supervisor.failed";
    }
    return "supervisor.unknown";
}

}  // namespace

const char* to_string(SupervisedStatus status) noexcept {
    switch (status) {
        case SupervisedStatus::Ok: return "Ok";
        case SupervisedStatus::RecoveredRetry: return "RecoveredRetry";
        case SupervisedStatus::DegradedSingleAxis: return "DegradedSingleAxis";
        case SupervisedStatus::HoldLastGood: return "HoldLastGood";
        case SupervisedStatus::Failed: return "Failed";
    }
    return "?";
}

MeasurementSupervisor::MeasurementSupervisor(compass::Compass& compass,
                                             const SupervisorConfig& config)
    : compass_(compass), config_(config), monitor_(config.health),
      plan_(compass.plan()), retry_plan_(compass::with_re_excite(plan_)) {}

void MeasurementSupervisor::reset() {
    last_good_.reset();
    staleness_s_ = 0.0;
    monitor_.reset();
}

std::optional<double> MeasurementSupervisor::reconstruct_heading(
    analog::Channel healthy, std::int64_t good_count) const {
    if (!last_good_) return std::nullopt;

    // The last good measurement pins the count-domain circle radius
    // (heading extraction is magnitude-insensitive, so |H| is the one
    // thing yesterday's measurement still tells us about today's).
    const double radius =
        std::hypot(static_cast<double>(last_good_->measurement.count_x),
                   static_cast<double>(last_good_->measurement.count_y));
    const double good = static_cast<double>(good_count);
    if (radius <= 0.0 || std::fabs(good) > radius * 1.05) {
        return std::nullopt;  // healthy axis inconsistent with the circle
    }
    const double missing =
        std::sqrt(std::fmax(0.0, radius * radius - good * good));

    // Two sign candidates; heading continuity picks the branch.
    const bool bad_x = healthy == analog::Channel::Y;
    double candidate[2];
    double err[2];
    int idx = 0;
    for (const double sign : {+1.0, -1.0}) {
        const double cx = bad_x ? sign * missing : good;
        const double cy = bad_x ? good : sign * missing;
        candidate[idx] = magnetics::EarthField::heading_from_components(cx, cy);
        err[idx] =
            util::angular_abs_diff_deg(candidate[idx], last_good_->heading_deg);
        ++idx;
    }
    // Ambiguous geometry: when the last good heading sits (near)
    // equidistant from two genuinely different candidates — the healthy
    // count close to zero with the track near the mirror axis — the
    // branch choice would be decided by noise, and the loser is a
    // mirrored heading up to 180 degrees off. Refuse instead; the
    // ladder falls through to HoldLastGood.
    if (std::fabs(err[0] - err[1]) <= config_.reconstruct_ambiguity_deg &&
        util::angular_abs_diff_deg(candidate[0], candidate[1]) >
            config_.reconstruct_ambiguity_deg) {
        return std::nullopt;
    }
    return err[0] <= err[1] ? candidate[0] : candidate[1];
}

SupervisedMeasurement MeasurementSupervisor::measure() { return supervise(nullptr); }

SupervisedMeasurement MeasurementSupervisor::measure(const FirstAttempt& first) {
    return supervise(&first);
}

SupervisedMeasurement MeasurementSupervisor::supervise(const FirstAttempt* first) {
    bool any_abort = false;
    SupervisedMeasurement out = measure_impl(first, any_abort);
    if (postmortem_hook_) {
        const bool deep_rung = static_cast<int>(out.status) >=
                               static_cast<int>(postmortem_trigger_.min_rung);
        if (deep_rung || (postmortem_trigger_.on_abort && any_abort)) {
            postmortem_hook_(out);
        }
    }
    return out;
}

SupervisedMeasurement MeasurementSupervisor::measure_impl(const FirstAttempt* first,
                                                          bool& any_abort) {
    SupervisedMeasurement out;
    const int attempts_allowed = 1 + (config_.max_retries > 0 ? config_.max_retries : 0);

    // The supervisor reports through the compass's sink: health findings
    // and every ladder transition become telemetry events, nested under
    // one "supervise" span whose value is the final ladder status.
    telemetry::TelemetrySink* sink = compass_.telemetry();
    telemetry::Span ladder(sink, "supervise");
    compass::PlanExecutor executor(compass_);

    for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
        // Retry rung = plan rewrite: the ReExcite-prefixed plan power-
        // cycles the front end and counter before re-running the same
        // stage list.
        const compass::MeasurementPlan& attempt_plan =
            attempt == 0 ? plan_ : retry_plan_;
        if (attempt > 0) {
            if (sink != nullptr) sink->event("supervisor.re_excite", attempt);
            out.diagnostics += " | re-excite";
        }
        ++out.attempts;
        // Attempt 0 may be the caller's: it ran exactly what this loop
        // would have run, so the ladder continues from it unchanged.
        const bool given = attempt == 0 && first != nullptr;
        std::optional<std::string> error;
        if (given) {
            error = first->error;
            if (!error) out.measurement = first->measurement;
        } else {
            try {
                out.measurement = executor.run(attempt_plan);
            } catch (const std::exception& e) {
                error = e.what();
            }
        }
        if (error) {
            any_abort = true;
            out.health = HealthReport{};
            out.health.ok = false;
            out.health.findings.push_back(
                {FaultCode::MeasurementAborted, analog::Channel::X, false, *error});
        } else {
            out.health = given ? first->health : monitor_.check(compass_, out.measurement);
        }

        if (sink != nullptr && !out.health.ok) {
            // One event per finding; the name is the fault code, the
            // value the implicated channel (kNoChannel for systemic).
            for (const HealthFinding& f : out.health.findings) {
                sink->event(to_string(f.code),
                            f.channel_specific ? static_cast<int>(f.channel)
                                               : telemetry::kNoChannel);
            }
        }

        if (!out.diagnostics.empty()) out.diagnostics += " -> ";
        out.diagnostics += out.health.summary();

        if (out.health.ok) {
            out.status = attempt == 0 ? SupervisedStatus::Ok
                                      : SupervisedStatus::RecoveredRetry;
            out.heading_deg = out.measurement.heading_deg;
            staleness_s_ = 0.0;
            last_good_ = out;
            if (sink != nullptr) sink->event(status_event(out.status), out.attempts);
            ladder.set_value(static_cast<std::int64_t>(out.status));
            return out;
        }
        // Failed attempts still consume simulated time toward staleness.
        staleness_s_ += out.measurement.duration_s;
    }

    // Retries exhausted: degrade. Exactly one implicated axis plus a
    // remembered field magnitude lets us keep producing live headings —
    // re-plan onto the surviving axis: the truncated rewrite measures a
    // fresh count on the healthy channel only (after a power cycle),
    // and the remembered circle radius supplies the missing axis.
    const bool bad_x = out.health.implicates(analog::Channel::X);
    const bool bad_y = out.health.implicates(analog::Channel::Y);
    if (last_good_ && bad_x != bad_y) {
        const analog::Channel healthy =
            bad_x ? analog::Channel::Y : analog::Channel::X;
        const compass::MeasurementPlan degraded_plan =
            compass::with_re_excite(compass::truncate_to_axis(plan_, healthy));
        std::optional<double> heading;
        try {
            const compass::Measurement partial = executor.run(degraded_plan);
            heading = reconstruct_heading(
                healthy, healthy == analog::Channel::X ? partial.count_x
                                                       : partial.count_y);
        } catch (const std::exception&) {
            // The surviving axis aborted too: fall through the ladder.
            any_abort = true;
        }
        if (heading) {
            out.status = SupervisedStatus::DegradedSingleAxis;
            out.heading_deg = *heading;
            out.stale = false;
            out.staleness_s = staleness_s_;
            out.diagnostics += " | degraded: single-axis estimate";
            if (sink != nullptr) sink->event(status_event(out.status), out.attempts);
            ladder.set_value(static_cast<std::int64_t>(out.status));
            return out;
        }
    }

    // Both axes implicated (or nothing to reconstruct from): hold the
    // last good heading while it is fresh enough to be better than
    // nothing.
    if (last_good_ && staleness_s_ <= config_.max_hold_s) {
        out.status = SupervisedStatus::HoldLastGood;
        out.heading_deg = last_good_->heading_deg;
        out.stale = true;
        out.staleness_s = staleness_s_;
        out.diagnostics += " | hold last good";
        if (sink != nullptr) sink->event(status_event(out.status), out.attempts);
        ladder.set_value(static_cast<std::int64_t>(out.status));
        return out;
    }

    out.status = SupervisedStatus::Failed;
    out.stale = true;
    out.staleness_s = staleness_s_;
    out.diagnostics += " | failed";
    if (sink != nullptr) sink->event(status_event(out.status), out.attempts);
    ladder.set_value(static_cast<std::int64_t>(out.status));
    return out;
}

}  // namespace fxg::fault
