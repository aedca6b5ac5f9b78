#pragma once

/// \file exporters.hpp
/// Render paths out of the telemetry subsystem:
///
///   * trace_to_jsonl / parse_trace_jsonl — one JSON object per line
///     ("type":"span" | "event"), machine round-trippable (the parser
///     is the same one tests and external tooling use);
///   * prometheus_text — counters/gauges/histograms in the Prometheus
///     exposition format (histograms with one cumulative `le` line per
///     non-empty bucket, `+Inf`, `_sum` and `_count` series);
///   * metrics_csv — bench_json_records as one CSV row via util::CsvWriter;
///   * BenchRecord / bench_json_records / write_bench_json — the
///     {name, value, unit} records the BENCH_*.json perf-trajectory
///     files are made of.

#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace fxg::telemetry {

// ------------------------------------------------------------ JSONL trace

[[nodiscard]] std::string trace_to_jsonl(const TraceSession& session);

/// Renders spans, then events, one line each in the given order (the
/// session overload passes its records; a flight recorder its drain).
[[nodiscard]] std::string trace_to_jsonl(const std::vector<SpanRecord>& spans,
                                         const std::vector<EventRecord>& events);

/// A parsed span/event line (names become owned strings).
struct ParsedSpan {
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    std::string name;
    int channel = kNoChannel;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t value = 0;
};

struct ParsedEvent {
    SpanId parent = kNoSpan;
    std::string name;
    std::uint64_t t_ns = 0;
    double value = 0.0;
};

struct ParsedTrace {
    std::vector<ParsedSpan> spans;
    std::vector<ParsedEvent> events;
};

/// Raised by parse_trace_jsonl on malformed input. `line()` is the
/// 1-based line number of the offending record — a torn postmortem tail
/// names where it tore instead of misparsing silently.
class TraceParseError : public std::runtime_error {
public:
    TraceParseError(std::size_t line, const std::string& detail)
        : std::runtime_error("trace JSONL line " + std::to_string(line) + ": " +
                             detail),
          line_(line) {}

    [[nodiscard]] std::size_t line() const noexcept { return line_; }

private:
    std::size_t line_;
};

/// Parses text produced by trace_to_jsonl (or a flight recorder's
/// drain). Throws TraceParseError naming the offending line on
/// truncated, garbage or non-numeric input.
[[nodiscard]] ParsedTrace parse_trace_jsonl(const std::string& text);

// ------------------------------------------------------------ metrics

[[nodiscard]] std::string prometheus_text(const MetricsRegistry& registry);

/// One row of values, one column per bench_json_records record.
[[nodiscard]] std::string metrics_csv(const MetricsRegistry& registry);

// ------------------------------------------------------------ bench JSON

/// One machine-readable bench data point. When `text` is non-empty the
/// record's JSON value is that string instead of the number (used for
/// provenance stamps like the git SHA).
struct BenchRecord {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string text;
};

/// Flattens a registry into bench records (counters and gauges as-is;
/// histograms as _count, _sum, _mean and _p50/_p99/_p999 quantiles).
[[nodiscard]] std::vector<BenchRecord> bench_json_records(
    const MetricsRegistry& registry);

/// Parses a BENCH_*.json file written by bench_json_text /
/// write_bench_json back into records (string-valued records come back
/// with `text` set and value 0). Throws std::runtime_error naming the
/// offending line on malformed input — bench_diff relies on this.
[[nodiscard]] std::vector<BenchRecord> parse_bench_json(const std::string& text);

/// Renders records as a JSON array, one record per line.
[[nodiscard]] std::string bench_json_text(const std::vector<BenchRecord>& records);

/// Writes bench_json_text to a file; throws std::runtime_error on
/// failure. Every file is stamped with two leading provenance records —
/// fxg_snapshot_format_version (the .fxgsnap version the binary was
/// built against) and fxg_git_sha (the commit, "unknown" outside a git
/// checkout) — so a trajectory point can always be tied back to the
/// code and snapshot format that produced it.
void write_bench_json(const std::string& path,
                      const std::vector<BenchRecord>& records);

}  // namespace fxg::telemetry
