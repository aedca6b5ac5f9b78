/// \file bench_diff_test.cpp
/// The CI perf gates' exit-code contract, driven through the real
/// bench_diff binary: a regression past tolerance fails, a record new
/// in the current run passes, a baseline record the current run no
/// longer emits fails when it is gated (higher- or lower-is-better) and
/// passes when it is informational, several runs are compared at their
/// median, and a quantile with too few samples beyond it is not gated.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// Writes `baseline` and each of `runs` as bench JSON files and returns
/// bench_diff's exit status on them. The files are named after the
/// running test, so tests run as parallel processes do not share them.
int bench_diff(const std::string& baseline, const std::vector<std::string>& runs) {
    const std::string prefix = ::testing::TempDir() + "bench_diff_" +
                            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string base_path = prefix + "_baseline.json";
    std::ofstream(base_path) << "[\n" << baseline << "\n]\n";
    std::string cmd = std::string(FXG_BENCH_DIFF) + " " + base_path;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string path = prefix + "_run" + std::to_string(i) + ".json";
        std::ofstream(path) << "[\n" << runs[i] << "\n]\n";
        cmd += " " + path;
    }
    const int status = std::system((cmd + " --tolerance=0.5 > /dev/null").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int bench_diff(const std::string& baseline, const std::string& current) {
    return bench_diff(baseline, std::vector<std::string>{current});
}

/// One record line; `last` drops the trailing comma.
std::string rec(const std::string& name, double value, const std::string& unit,
                bool last = false) {
    return R"({"name":")" + name + R"(","value":)" + std::to_string(value) +
           R"(,"unit":")" + unit + "\"}" + (last ? "" : ",");
}

const std::string kLatency =
    R"({"name":"fxg_stage_count_seconds_p99","value":0.001,"unit":"s"},)";
const std::string kRate =
    R"({"name":"fxg_fleet_measurements_per_s","value":3000,"unit":"1/s"},)";
const std::string kInfo = R"({"name":"fxg_count_abs_p50","value":620,"unit":"counts"})";

}  // namespace

TEST(BenchDiff, GatedRecordGoneFromTheRunFailsTheGate) {
    const std::string all = kLatency + "\n" + kRate + "\n" + kInfo;
    EXPECT_EQ(bench_diff(all, all), 0);
    // A lower- and a higher-is-better record that stopped being emitted.
    EXPECT_EQ(bench_diff(all, kRate + "\n" + kInfo), 1);
    EXPECT_EQ(bench_diff(all, kLatency + "\n" + kInfo), 1);
    // An informational record that stopped: printed, not gated.
    EXPECT_EQ(bench_diff(all, kLatency + "\n" + kRate.substr(0, kRate.size() - 1)), 0);
    // A record only the run has: new, not gated.
    EXPECT_EQ(bench_diff(kRate + "\n" + kInfo, all), 0);
    // A regression past tolerance still fails.
    EXPECT_EQ(bench_diff(all, R"({"name":"fxg_stage_count_seconds_p99","value":0.002,"unit":"s"},)" +
                                  ("\n" + kRate + "\n" + kInfo)),
              1);
}

TEST(BenchDiff, SeveralRunsAreComparedAtTheirMedian) {
    const auto run = [](double seconds, double per_s) {
        return rec("fxg_measure_seconds_p50", seconds, "s") + "\n" +
               rec("fxg_fleet_measurements_per_s", per_s, "1/s", true);
    };
    const std::string base = run(0.001, 3000);
    // One slow run of three: the median is the healthy value.
    EXPECT_EQ(bench_diff(base, {run(0.001, 3000), run(0.004, 900), run(0.0011, 2900)}), 0);
    // Two slow runs of three: the median regressed.
    EXPECT_EQ(bench_diff(base, {run(0.001, 3000), run(0.004, 3000), run(0.0031, 2900)}), 1);
    EXPECT_EQ(bench_diff(base, {run(0.001, 1000), run(0.001, 900), run(0.001, 2900)}), 1);
    // An even number of runs takes the mean of the middle two:
    // (0.001 + 0.002) / 2 = 0.0015 passes at 50 %, (0.001 + 0.0022) / 2 fails.
    EXPECT_EQ(bench_diff(base, {run(0.001, 3000), run(0.002, 3000)}), 0);
    EXPECT_EQ(bench_diff(base, {run(0.0011, 3000), run(0.0022, 3000)}), 1);
}

TEST(BenchDiff, QuantileWithFewerThanTenSamplesBeyondItIsNotGated) {
    const auto hist = [](double count, double p50, double p99, double p999) {
        return rec("fxg_lat_seconds_count", count, "samples") + "\n" +
               rec("fxg_lat_seconds_p50", p50, "s") + "\n" +
               rec("fxg_lat_seconds_p99", p99, "s") + "\n" +
               rec("fxg_lat_seconds_p999", p999, "s", true);
    };
    // 80 samples: 40 beyond the p50, 0.8 beyond the p99 — the p99 and
    // p999 are the slowest sample, printed but not gated.
    EXPECT_EQ(bench_diff(hist(80, 1e-3, 2e-3, 2e-3), hist(80, 1e-3, 9e-3, 9e-3)), 0);
    EXPECT_EQ(bench_diff(hist(80, 1e-3, 2e-3, 2e-3), hist(80, 9e-3, 2e-3, 2e-3)), 1);
    // 20 samples leave exactly 10 beyond the p50: still gated.
    EXPECT_EQ(bench_diff(hist(20, 1e-3, 2e-3, 2e-3), hist(20, 9e-3, 2e-3, 2e-3)), 1);
    // 1,000 samples put exactly 10 beyond the p99: gated; the p999 is not.
    EXPECT_EQ(bench_diff(hist(1000, 1e-3, 2e-3, 2e-3), hist(1000, 1e-3, 9e-3, 2e-3)), 1);
    EXPECT_EQ(bench_diff(hist(1000, 1e-3, 2e-3, 2e-3), hist(1000, 1e-3, 2e-3, 9e-3)), 0);
    // 999 samples: 9.99 beyond the p99, not gated.
    EXPECT_EQ(bench_diff(hist(999, 1e-3, 2e-3, 2e-3), hist(999, 1e-3, 9e-3, 2e-3)), 0);
    // The sample count itself is neither better lower nor higher.
    EXPECT_EQ(bench_diff(hist(1000, 1e-3, 2e-3, 2e-3), hist(3000, 1e-3, 2e-3, 2e-3)), 0);
    // A thin tail that vanished is not gated either; a gated p50 is.
    const std::string no_tails = rec("fxg_lat_seconds_count", 80, "samples") + "\n" +
                                 rec("fxg_lat_seconds_p50", 1e-3, "s", true);
    EXPECT_EQ(bench_diff(hist(80, 1e-3, 2e-3, 2e-3), no_tails), 0);
    EXPECT_EQ(bench_diff(hist(80, 1e-3, 2e-3, 2e-3),
                         rec("fxg_lat_seconds_count", 80, "samples", true)),
              1);
}
