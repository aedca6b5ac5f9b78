#pragma once

/// \file supervisor.hpp
/// Supervised measurement path: wraps Compass::measure() in a
/// HealthMonitor and walks a degradation ladder instead of handing a
/// silently wrong heading to the application:
///
///   1. measure, health-check               -> Ok
///   2. re-excite (power cycle) and retry,
///      up to max_retries times             -> RecoveredRetry
///   3. one axis bad, one good: reconstruct
///      the missing axis from the last-good
///      field magnitude                     -> DegradedSingleAxis
///   4. hold the last good heading, flagged
///      stale, up to max_hold_s             -> HoldLastGood
///   5. give up with full diagnostics       -> Failed
///
/// The single-axis estimate uses that heading extraction is insensitive
/// to the field magnitude (paper section 4): the last good measurement
/// pins |H| in count units, so a healthy count on one axis plus the
/// circle radius determines the other axis up to sign, and the sign is
/// taken from heading continuity. Near the ambiguous geometry — both
/// sign candidates about equally far from the last good heading — no
/// estimate is served (the ladder holds the last good heading instead).
///
/// Every rung of the ladder is a *plan rewrite* (core/plan.hpp), not a
/// separate code path: the supervisor compiles the compass's full
/// MeasurementPlan once, a retry executes with_re_excite(plan), and
/// degraded mode executes with_re_excite(truncate_to_axis(plan,
/// healthy_axis)) — a fresh count on the surviving axis — before
/// reconstructing the heading from the remembered circle radius. All
/// attempts run through one PlanExecutor, so traces and physics
/// samples look the same whichever rung served the heading.

#include <functional>
#include <optional>
#include <string>

#include "core/compass.hpp"
#include "core/plan.hpp"
#include "fault/health_monitor.hpp"

namespace fxg::fault {

/// Ladder rung a supervised measurement ended on.
enum class SupervisedStatus {
    Ok,                 ///< first attempt healthy
    RecoveredRetry,     ///< healthy after re-excitation
    DegradedSingleAxis, ///< heading estimated from one healthy axis
    HoldLastGood,       ///< last good heading held, stale
    Failed,             ///< no usable heading
};

[[nodiscard]] const char* to_string(SupervisedStatus status) noexcept;

struct SupervisorConfig {
    /// Re-excitation retries after an unhealthy first attempt.
    int max_retries = 2;
    /// Longest the supervisor will keep serving a stale heading [s].
    double max_hold_s = 30.0;
    /// Degraded single-axis mode: the missing axis is known only up to
    /// sign, giving two heading candidates. When their distances to the
    /// last good heading differ by no more than this (while the
    /// candidates themselves genuinely differ), the branch choice would
    /// be a coin flip on noise — the supervisor refuses to reconstruct
    /// and holds the last good heading instead. [deg]
    double reconstruct_ambiguity_deg = 10.0;
    HealthMonitorConfig health;
};

/// One supervised measurement.
struct SupervisedMeasurement {
    compass::Measurement measurement;  ///< last attempt's raw measurement
    HealthReport health;               ///< last attempt's health report
    SupervisedStatus status = SupervisedStatus::Failed;
    double heading_deg = 0.0;  ///< the heading to serve (per status)
    int attempts = 0;          ///< measure() attempts consumed
    bool stale = false;        ///< heading is not from this measurement
    double staleness_s = 0.0;  ///< simulated time since the last good heading
    std::string diagnostics;   ///< human-readable failure trail
};

/// An attempt 0 the caller has already run: one
/// PlanExecutor(compass).run(plan()) and its monitor().check(), or the
/// message of the exception that run threw. compassd passes a member's
/// lane-sweep result here, so the ladder does not measure it again.
struct FirstAttempt {
    compass::Measurement measurement;  ///< unused when `error` is set
    HealthReport health;               ///< monitor().check() of `measurement`
    std::optional<std::string> error;  ///< what the attempt threw, if it threw
};

/// Drives one Compass through the degradation ladder.
class MeasurementSupervisor {
public:
    /// Non-owning: `compass` must outlive the supervisor.
    explicit MeasurementSupervisor(compass::Compass& compass,
                                   const SupervisorConfig& config = {});

    /// Runs the ladder once and returns the outcome (never throws on
    /// measurement faults — a trapping counter overflow becomes a
    /// MeasurementAborted finding and consumes an attempt).
    SupervisedMeasurement measure();

    /// The same ladder with attempt 0 taken from `first` instead of
    /// measured: the outcome, the compass state and the supervisor
    /// state equal measure()'s bit for bit, and the ladder's own work
    /// starts at the first re-excite retry. Telemetry, postmortem
    /// trigger and abort accounting are measure()'s.
    SupervisedMeasurement measure(const FirstAttempt& first);

    /// When a postmortem hook fires.
    struct PostmortemTrigger {
        /// Fire when the ladder ends on this rung or deeper (enum order
        /// is the ladder order).
        SupervisedStatus min_rung = SupervisedStatus::DegradedSingleAxis;
        /// Also fire when any attempt aborted (counter trap, injected
        /// throw), even if a later rung recovered above min_rung.
        bool on_abort = true;
    };

    /// Black-box seam: called from either measure(), after the ladder
    /// settles, whenever `trigger` matches the outcome — the hook
    /// freezes a flight recorder and writes a postmortem bundle (see
    /// snapshot/postmortem.hpp). An empty hook disables it.
    void set_postmortem_hook(
        std::function<void(const SupervisedMeasurement&)> hook,
        PostmortemTrigger trigger) {
        postmortem_hook_ = std::move(hook);
        postmortem_trigger_ = trigger;
    }
    void set_postmortem_hook(
        std::function<void(const SupervisedMeasurement&)> hook) {
        set_postmortem_hook(std::move(hook), PostmortemTrigger{});
    }

    /// Last measurement that passed the health check, if any.
    [[nodiscard]] const std::optional<SupervisedMeasurement>& last_good() const noexcept {
        return last_good_;
    }

    /// Forgets the last-good state and heading track.
    void reset();

    [[nodiscard]] HealthMonitor& monitor() noexcept { return monitor_; }
    [[nodiscard]] const SupervisorConfig& config() const noexcept { return config_; }

    /// The compiled plans the ladder executes: attempt 0 runs plan(),
    /// each retry runs retry_plan() (= ReExcite + plan).
    [[nodiscard]] const compass::MeasurementPlan& plan() const noexcept {
        return plan_;
    }
    [[nodiscard]] const compass::MeasurementPlan& retry_plan() const noexcept {
        return retry_plan_;
    }

    /// Accumulated simulated time since the last good heading [s].
    [[nodiscard]] double staleness_s() const noexcept { return staleness_s_; }

    /// Everything the ladder carries between measure() calls (snapshot
    /// seam). Config and the compiled plans are rebuilt from the compass
    /// configuration, not serialized. A member restored mid-ladder —
    /// e.g. holding a stale last-good heading — resumes at the same
    /// rung, not from Healthy.
    struct LadderState {
        std::optional<SupervisedMeasurement> last_good;
        double staleness_s = 0.0;
        compass::HeadingFilter::State filter;
    };

    [[nodiscard]] LadderState save_ladder_state() const {
        return {last_good_, staleness_s_, monitor_.filter().save_state()};
    }
    void load_ladder_state(const LadderState& s) {
        last_good_ = s.last_good;
        staleness_s_ = s.staleness_s;
        monitor_.filter().load_state(s.filter);
    }

private:
    /// Reconstructs the heading from a fresh count on the one healthy
    /// axis plus the last-good circle radius; nullopt when no last-good
    /// exists, the count is inconsistent with the remembered radius, or
    /// the two sign candidates are ambiguously plausible.
    [[nodiscard]] std::optional<double> reconstruct_heading(
        analog::Channel healthy, std::int64_t good_count) const;

    /// Both measure() entry points: the ladder, then the postmortem
    /// trigger. `first` is null when attempt 0 must be measured here.
    SupervisedMeasurement supervise(const FirstAttempt* first);

    /// The ladder proper; `any_abort` reports whether any attempt threw.
    SupervisedMeasurement measure_impl(const FirstAttempt* first, bool& any_abort);

    compass::Compass& compass_;
    SupervisorConfig config_;
    HealthMonitor monitor_;
    compass::MeasurementPlan plan_;        ///< the compass's full plan
    compass::MeasurementPlan retry_plan_;  ///< ReExcite-prefixed rewrite
    std::optional<SupervisedMeasurement> last_good_;
    double staleness_s_ = 0.0;  ///< accumulated simulated time since last good
    std::function<void(const SupervisedMeasurement&)> postmortem_hook_;
    PostmortemTrigger postmortem_trigger_;
};

}  // namespace fxg::fault
