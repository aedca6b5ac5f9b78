/// \file main.cpp
/// End-to-end benchmark program (see README.md for the workloads, the
/// metrics and what each per-layer metric should move).
///
///   compass_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// --trace 0 runs the workload and reports its end-to-end metrics;
/// --trace 1 runs the per-layer probe suite with spans and reports the
/// per-layer metrics. Both print a stamp line, and the last line of
/// standard output is one JSON object {correct, attempted, failed, metrics}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "sim/lane_engine.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/trace.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "compass_perfbench: %s\nusage: compass_perfbench --workload "
                 "<handheld|fleet_large|fleet_noisy|compassd> "
                 "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] "
                 "[--src-digest <hex>] [--trace-out <dir>]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options opt;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                opt.workload = value;
            } else if (key == "--seed") {
                opt.seed = std::stoull(value);
                have_seed = true;
            } else if (key == "--seconds") {
                opt.seconds = std::stod(value);
                have_seconds = opt.seconds > 0.0;
            } else if (key == "--trace") {
                if (value != "0" && value != "1") usage("--trace must be 0 or 1");
                opt.trace = value == "1";
                have_trace = true;
            } else if (key == "--git-sha") {
                opt.git_sha = value;
            } else if (key == "--src-digest") {
                opt.src_digest = value;
            } else if (key == "--trace-out") {
                opt.trace_dir = value;
            } else {
                usage(("unknown option " + key).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    }
    return opt;
}

Result run_workload(const Options& opt) {
    if (opt.workload == "handheld") return perfbench::run_handheld(opt);
    if (opt.workload == "fleet_large") return perfbench::run_fleet_large(opt);
    if (opt.workload == "fleet_noisy") return perfbench::run_fleet_noisy(opt);
    if (opt.workload == "compassd") return perfbench::run_compassd(opt, perfbench::kHeavyLoadPerS);
    usage(("unknown workload " + opt.workload).c_str());
}

void print_result(const Result& r) {
    std::string json = "{\"correct\": ";
    json += r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Result::Metric& m = r.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);

    std::printf(
        "stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
        "\"nproc\": %u, \"simd\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
        "\"src_digest\": \"%s\"}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
        opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
        fxg::sim::LaneEngine::backend_name(), PERFBENCH_BUILD_TYPE,
        opt.git_sha.c_str(), opt.src_digest.c_str());
    std::fflush(stdout);

    Result result;
    try {
        if (opt.trace) {
            fxg::telemetry::TraceSession session;
            result = perfbench::run_layers(opt, session);
            if (!opt.trace_dir.empty()) {
                std::filesystem::create_directories(opt.trace_dir);
                const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                                         std::to_string(opt.seed) + ".jsonl";
                std::ofstream out(path);
                out << fxg::telemetry::trace_to_jsonl(session);
                if (!out) throw std::runtime_error("cannot write trace file " + path);
                std::printf("trace %zu spans -> %s\n", session.span_count(), path.c_str());
            }
        } else {
            result = run_workload(opt);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "compass_perfbench: run aborted: %s\n", e.what());
        return 1;
    }

    for (const Result::Metric& m : result.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "compass_perfbench: metric %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
    }
    print_result(result);
    return 0;
}
