#pragma once

/// \file common.hpp
/// Shared pieces of the end-to-end benchmark: seeded input
/// generation, raw-sample quantiles, output digests, RSS probes, the
/// result record printed as the final JSON line.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compass.hpp"

namespace fxg::telemetry {
class TraceSession;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one run.
struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;  ///< measured time budget of the run
    bool trace = false;
    std::string git_sha = "unknown";
    std::string src_digest = "unknown";
    std::string trace_dir;  ///< where a traced run writes its spans
};

/// splitmix64: the benchmark's only source of randomness, so the same
/// seed yields the same inputs on every platform and library version.
class SeededRng {
public:
    explicit SeededRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [lo, hi).
    double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
    /// Exponential inter-arrival time at `rate` events per second.
    double exponential(double rate) noexcept;

private:
    std::uint64_t state_;
};

/// One seeded member environment: true heading and horizontal field.
struct Environment {
    double heading_deg = 0.0;
    double field_ut = 20.0;  ///< horizontal component [uT]
};

/// The horizontal components of the paper's 25-65 uT sites: 65 uT at 80
/// degrees dip gives 11.3 uT, 25 uT at the equator gives 25 uT.
inline constexpr double kMinHorizontalUt = 11.3;
inline constexpr double kMaxHorizontalUt = 25.0;

/// Heading in [0, 360) and a horizontal field across the paper's sites.
[[nodiscard]] Environment draw_environment(SeededRng& rng);

void apply_environment(fxg::compass::Compass& compass, const Environment& env);

/// |measured - truth| wrapped onto [0, 180] degrees.
[[nodiscard]] double heading_error_deg(double measured, double truth);

/// Noise-free correctness bound. The paper claims 1 degree; at the weak
/// end of the horizontal range (11-13 uT) the model reaches about 1.1
/// degrees, so the check allows 1.5 and heading_err_p99_deg tracks the
/// accuracy itself.
inline constexpr double kAccuracyBoundDeg = 1.5;

/// Quantile `q` in [0, 1] of raw samples, linearly interpolated between
/// order statistics (never a histogram bucket edge).
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
    return quantile(std::move(samples), 0.5);
}
/// Quantile `q` of samples in time order, taken over each consecutive
/// segment of at least `min_segment` samples; the median over segments.
/// A stretch of outside load then moves one segment, not the result.
/// With fewer than 2 * min_segment samples it is quantile(samples, q).
[[nodiscard]] double segmented_quantile(const std::vector<double>& samples, double q,
                                        std::size_t min_segment);
[[nodiscard]] double mean(const std::vector<double>& samples);
/// The smallest sample: the estimate of a fixed cost least disturbed by
/// other load on the host.
[[nodiscard]] double fastest(const std::vector<double>& samples);

/// Anonymous resident memory of this process [KiB]: heap and stacks,
/// without the file-backed code pages a first call happens to touch.
[[nodiscard]] double rss_kib();

/// FNV-1a over simulated outputs in order: a perf-only change must leave
/// it unchanged for the same seed.
class Digest {
public:
    void add(std::uint64_t word) noexcept;
    void add(const fxg::compass::Measurement& m) noexcept;
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Bit-for-bit equality of the simulated outputs of two measurements.
[[nodiscard]] bool same_bits(const fxg::compass::Measurement& a,
                             const fxg::compass::Measurement& b) noexcept;

/// Calls fn() at least `min_reps` times and until `seconds` have passed,
/// at most `max_reps` times. fn times its own critical section and
/// returns it [s]; the durations are returned in call order.
template <class F>
std::vector<double> repeat_for(double seconds, int min_reps, int max_reps, F&& fn) {
    std::vector<double> d;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(d.size()) < max_reps &&
           (static_cast<int>(d.size()) < min_reps || seconds_since(start) < seconds)) {
        d.push_back(fn());
    }
    return d;
}

/// Everything one run reports. `attempted` counts operations (calls,
/// member measurements, queries, checks); `failed` those that threw,
/// returned an error or failed a correctness check.
struct Result {
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    /// Counts one operation; logs and counts a failure when !ok.
    void check(bool ok, const std::string& what);
    void pass() noexcept { ++attempted; }
    void fail(const std::string& what) { check(false, what); }
    /// 1 - failed / attempted.
    [[nodiscard]] double ok_ratio() const;
};

// Workloads (workloads.cpp) and the traced layer suite (layers.cpp).
Result run_handheld(const Options& opt);
Result run_fleet_large(const Options& opt);
Result run_fleet_noisy(const Options& opt);
Result run_compassd(const Options& opt, double offered_per_s);
Result run_layers(const Options& opt, fxg::telemetry::TraceSession& session);

/// Offered loads [queries/s]: the light point of the traced service
/// probes, and the heavy point, which is also the compassd workload's.
inline constexpr double kLightLoadPerS = 100.0;
inline constexpr double kHeavyLoadPerS = 2000.0;

}  // namespace perfbench
