/// \file bench_diff.cpp
/// Perf-trajectory sentry: compares a baseline BENCH_*.json file (written
/// by telemetry::write_bench_json) with one or more runs of the same
/// bench and exits nonzero when any shared record regressed beyond a
/// relative tolerance.
///
///   bench_diff <baseline.json> <current.json>... [--tolerance=0.5]
///
/// With several current files each record is compared at its median over
/// the runs that emit it, so one run that shared the host with a noisy
/// neighbour cannot fail the gate on its own.
///
/// Direction is inferred per record:
///   higher-is-better  names containing per_s / speedup / throughput,
///                     or with unit "1/s" or "x";
///   lower-is-better   names containing latency / seconds / _ms /
///                     overhead, or with unit "s" / "ms";
///   informational     everything else — printed, never gated (counts,
///                     raw physics gauges, provenance stamps).
///
/// Accuracy records — unit "deg" and a name ending in `_err_deg` — are
/// lower-is-better against one absolute tolerance, kAccuracyToleranceDeg,
/// whatever --tolerance says: accuracy is stated in degrees, and CI's
/// 60 % would let a 12° interference envelope grow by 7° while holding
/// a 0.35° static one to 0.2°. Other "deg" records (a heading, a CORDIC
/// residual) stay informational.
///
/// A histogram's `_count` record (unit "samples") is informational: it
/// counts spans or replies, which is neither better lower nor higher. A
/// quantile record `<hist>_pNN…` is informational when fewer than
/// kMinTailSamples of the `<hist>_count` samples in the same file lie
/// beyond it: the p99 of 80 spans is the slowest span, and it swung
/// 0.6–1.7x between otherwise identical runs.
///
/// A record only the current files have prints `new` and passes: the
/// trajectory grows records as the benches grow, and a sentry that
/// blocked every addition would just get deleted. A baseline record the
/// current files lack prints `gone`; a higher- or lower-is-better one
/// counts as a regression, so a bench that stops emitting a gated
/// record fails the run instead of passing unnoticed. The tolerance is
/// deliberately generous by default — CI machines share tenants; the
/// sentry exists to catch the 2x cliff nobody meant to ship, not 5%
/// jitter.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/exporters.hpp"

namespace {

using fxg::telemetry::BenchRecord;
using RecordIndex = std::unordered_map<std::string, const BenchRecord*>;

enum class Direction { HigherBetter, LowerBetter, LowerBetterAbsolute, Informational };

/// How far an accuracy record (`*_err_deg`) may rise before it fails.
constexpr double kAccuracyToleranceDeg = 0.1;

/// Samples a gated quantile needs beyond it (count · (1 − q)).
constexpr double kMinTailSamples = 10.0;

bool contains(const std::string& haystack, const char* needle) {
    return haystack.find(needle) != std::string::npos;
}

/// True for `<hist>_pNN…` when `records` holds `<hist>_count` and fewer
/// than kMinTailSamples of those samples lie above the quantile.
bool thin_tail(const std::string& name, const RecordIndex& records) {
    const std::size_t p = name.rfind("_p");
    if (p == std::string::npos || p + 2 == name.size()) return false;
    const std::string digits = name.substr(p + 2);
    if (!std::all_of(digits.begin(), digits.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; })) {
        return false;
    }
    const auto count = records.find(name.substr(0, p) + "_count");
    if (count == records.end()) return false;
    // q = digits / scale, so count · (1 − q) ≥ k  ⇔  count · (scale − digits) ≥ k · scale.
    const double scale = std::pow(10.0, static_cast<double>(digits.size()));
    return count->second->value * (scale - std::stod(digits)) < kMinTailSamples * scale;
}

/// `records` is the file `r` came from (or the median of the runs).
Direction classify(const BenchRecord& r, const RecordIndex& records) {
    if (r.unit == "samples" || thin_tail(r.name, records)) {
        return Direction::Informational;
    }
    if (r.unit == "deg") {
        return r.name.ends_with("_err_deg") ? Direction::LowerBetterAbsolute
                                            : Direction::Informational;
    }
    if (contains(r.name, "per_s") || contains(r.name, "speedup") ||
        contains(r.name, "throughput") || r.unit == "1/s" || r.unit == "x") {
        return Direction::HigherBetter;
    }
    if (contains(r.name, "latency") || contains(r.name, "seconds") ||
        contains(r.name, "_ms") || contains(r.name, "overhead") ||
        r.unit == "s" || r.unit == "ms") {
        return Direction::LowerBetter;
    }
    return Direction::Informational;
}

const char* direction_mark(Direction d) {
    switch (d) {
        case Direction::HigherBetter: return "^";
        case Direction::LowerBetter:
        case Direction::LowerBetterAbsolute: return "v";
        case Direction::Informational: return "-";
    }
    return "?";
}

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

/// One record per name, in the order names first appear across `runs`,
/// each valued at its median over the runs that emit it.
std::vector<BenchRecord> median_of(const std::vector<std::vector<BenchRecord>>& runs) {
    std::vector<BenchRecord> out;
    std::vector<std::vector<double>> values;
    std::unordered_map<std::string, std::size_t> slot;
    for (const auto& run : runs) {
        for (const BenchRecord& r : run) {
            const auto [it, fresh] = slot.try_emplace(r.name, out.size());
            if (fresh) {
                out.push_back(r);
                values.emplace_back();
            }
            values[it->second].push_back(r.value);
        }
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double>& v = values[i];
        std::sort(v.begin(), v.end());
        const std::size_t mid = v.size() / 2;
        out[i].value = v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
    }
    return out;
}

RecordIndex index_of(const std::vector<BenchRecord>& records) {
    RecordIndex index;
    for (const auto& r : records) index.emplace(r.name, &r);
    return index;
}

}  // namespace

int main(int argc, char** argv) {
    double tolerance = 0.5;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
            tolerance = std::strtod(argv[i] + 12, nullptr);
        } else {
            files.emplace_back(argv[i]);
        }
    }
    if (files.size() < 2 || tolerance < 0.0) {
        std::fprintf(stderr,
                     "usage: bench_diff <baseline.json> <current.json>... "
                     "[--tolerance=0.5]\n");
        return 2;
    }

    std::vector<BenchRecord> baseline;
    std::vector<std::vector<BenchRecord>> runs;
    try {
        baseline = fxg::telemetry::parse_bench_json(read_file(files[0]));
        for (std::size_t i = 1; i < files.size(); ++i) {
            runs.push_back(fxg::telemetry::parse_bench_json(read_file(files[i])));
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_diff: %s\n", e.what());
        return 2;
    }
    const std::vector<BenchRecord> current = median_of(runs);
    const RecordIndex base_index = index_of(baseline);
    const RecordIndex cur_index = index_of(current);
    RecordIndex base_by_name = base_index;

    int regressions = 0;
    int compared = 0;
    for (const auto& cur : current) {
        if (!cur.text.empty()) continue;  // provenance stamps (git SHA etc.)
        const auto it = base_by_name.find(cur.name);
        if (it == base_by_name.end()) {
            std::printf("  new      %-56s %.6g %s\n", cur.name.c_str(), cur.value,
                        cur.unit.c_str());
            continue;
        }
        const BenchRecord& base = *it->second;
        base_by_name.erase(it);
        if (!base.text.empty()) continue;

        const Direction dir = classify(cur, cur_index);
        const double ratio = base.value != 0.0 ? cur.value / base.value
                             : cur.value == 0.0 ? 1.0
                                                : HUGE_VAL;
        bool regressed = false;
        if (dir == Direction::HigherBetter) {
            regressed = cur.value < base.value * (1.0 - tolerance);
        } else if (dir == Direction::LowerBetter) {
            regressed = cur.value > base.value * (1.0 + tolerance);
        } else if (dir == Direction::LowerBetterAbsolute) {
            regressed = cur.value > base.value + kAccuracyToleranceDeg;
        }
        ++compared;
        if (regressed) {
            ++regressions;
            std::printf("REGRESSED%s %-56s %.6g -> %.6g %s (%.2fx)\n",
                        direction_mark(dir), cur.name.c_str(), base.value,
                        cur.value, cur.unit.c_str(), ratio);
        } else {
            std::printf("  ok     %s %-56s %.6g -> %.6g %s (%.2fx)\n",
                        direction_mark(dir), cur.name.c_str(), base.value,
                        cur.value, cur.unit.c_str(), ratio);
        }
    }
    int gone = 0;
    for (const auto& [name, rec] : base_by_name) {
        if (!rec->text.empty()) continue;
        const Direction dir = classify(*rec, base_index);
        const bool gated = dir != Direction::Informational;
        gone += gated ? 1 : 0;
        std::printf("%s%s %-56s (was %.6g %s)\n", gated ? "GONE     " : "  gone   ",
                    direction_mark(dir), name.c_str(), rec->value, rec->unit.c_str());
    }

    std::printf("\nbench_diff: %d record(s) compared (median of %zu run(s)), "
                "%d regression(s), %d gated record(s) gone, tolerance %.0f%% "
                "(accuracy +%.2f deg)\n",
                compared, runs.size(), regressions, gone, tolerance * 100.0,
                kAccuracyToleranceDeg);
    return regressions + gone > 0 ? 1 : 0;
}
