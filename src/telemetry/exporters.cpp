#include "telemetry/exporters.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "snapshot/version.hpp"
#include "util/csv.hpp"

// Injected by the build (telemetry/CMakeLists.txt) from `git rev-parse`;
// builds outside a git checkout get the fallback.
#ifndef FXG_GIT_SHA
#define FXG_GIT_SHA "unknown"
#endif

namespace fxg::telemetry {

namespace {

std::string json_escape(const char* s) {
    std::string out;
    for (const char* p = s; *p != '\0'; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string format_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---- minimal JSONL field scanner (reads back our own output) --------

/// Result of scanning for `"key":` — distinguishes an absent key from
/// an empty value, and remembers whether the value was a JSON string
/// (string-typed tokens must not be fed to the numeric parsers).
struct FieldScan {
    bool found = false;
    bool is_string = false;
    bool terminated = true;  ///< string values: saw the closing quote
    std::string raw;
};

FieldScan scan_field(const std::string& line, const std::string& key) {
    FieldScan scan;
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) return scan;
    scan.found = true;
    std::size_t i = pos + needle.size();
    if (i < line.size() && line[i] == '"') {  // string value
        scan.is_string = true;
        scan.terminated = false;
        for (++i; i < line.size(); ++i) {
            if (line[i] == '"') {
                scan.terminated = true;
                break;
            }
            if (line[i] == '\\' && i + 1 < line.size()) ++i;
            scan.raw.push_back(line[i]);
        }
        return scan;
    }
    std::size_t end = i;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    scan.raw = line.substr(i, end - i);
    return scan;
}

std::string string_field(const std::string& line, const std::string& key,
                         std::size_t line_no) {
    const FieldScan scan = scan_field(line, key);
    if (!scan.found) throw TraceParseError(line_no, "missing field \"" + key + "\"");
    if (!scan.is_string) {
        throw TraceParseError(line_no, "field \"" + key + "\" is not a string");
    }
    if (!scan.terminated) {
        throw TraceParseError(line_no,
                              "unterminated string in field \"" + key + "\"");
    }
    return scan.raw;
}

std::int64_t int_field(const std::string& line, const std::string& key,
                       std::size_t line_no) {
    const FieldScan scan = scan_field(line, key);
    if (!scan.found) throw TraceParseError(line_no, "missing field \"" + key + "\"");
    if (scan.is_string || scan.raw.empty()) {
        throw TraceParseError(line_no, "field \"" + key + "\" is not an integer");
    }
    char* end = nullptr;
    const std::int64_t v = std::strtoll(scan.raw.c_str(), &end, 10);
    if (end != scan.raw.c_str() + scan.raw.size()) {
        throw TraceParseError(line_no, "garbage in integer field \"" + key +
                                           "\": '" + scan.raw + "'");
    }
    return v;
}

double double_field(const std::string& line, const std::string& key,
                    std::size_t line_no) {
    const FieldScan scan = scan_field(line, key);
    if (!scan.found) throw TraceParseError(line_no, "missing field \"" + key + "\"");
    if (scan.is_string || scan.raw.empty()) {
        throw TraceParseError(line_no, "field \"" + key + "\" is not a number");
    }
    char* end = nullptr;
    const double v = std::strtod(scan.raw.c_str(), &end);
    if (end != scan.raw.c_str() + scan.raw.size()) {
        throw TraceParseError(line_no, "garbage in number field \"" + key +
                                           "\": '" + scan.raw + "'");
    }
    return v;
}

}  // namespace

std::string trace_to_jsonl(const TraceSession& session) {
    std::ostringstream out;
    for (const SpanRecord& s : session.spans()) {
        out << "{\"type\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << json_escape(s.name) << "\",\"ch\":" << s.channel
            << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << ",\"seq\":" << s.seq_begin << ",\"value\":" << s.value << "}\n";
    }
    for (const EventRecord& e : session.events()) {
        out << "{\"type\":\"event\",\"parent\":" << e.parent << ",\"name\":\""
            << json_escape(e.name) << "\",\"t_ns\":" << e.t_ns
            << ",\"seq\":" << e.seq << ",\"value\":" << format_double(e.value)
            << "}\n";
    }
    return out.str();
}

ParsedTrace parse_trace_jsonl(const std::string& text) {
    ParsedTrace trace;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        // A postmortem tail torn mid-record fails loudly here rather
        // than yielding a half-parsed span.
        if (line.front() != '{') {
            throw TraceParseError(line_no, "not a JSON object");
        }
        if (line.back() != '}') {
            throw TraceParseError(line_no, "truncated record (no closing '}')");
        }
        const std::string type = string_field(line, "type", line_no);
        if (type == "span") {
            ParsedSpan s;
            s.id = static_cast<SpanId>(int_field(line, "id", line_no));
            s.parent = static_cast<SpanId>(int_field(line, "parent", line_no));
            s.name = string_field(line, "name", line_no);
            s.channel = static_cast<int>(int_field(line, "ch", line_no));
            s.start_ns =
                static_cast<std::uint64_t>(int_field(line, "start_ns", line_no));
            s.end_ns =
                static_cast<std::uint64_t>(int_field(line, "end_ns", line_no));
            s.value = int_field(line, "value", line_no);
            trace.spans.push_back(std::move(s));
        } else if (type == "event") {
            ParsedEvent e;
            e.parent = static_cast<SpanId>(int_field(line, "parent", line_no));
            e.name = string_field(line, "name", line_no);
            e.t_ns = static_cast<std::uint64_t>(int_field(line, "t_ns", line_no));
            e.value = double_field(line, "value", line_no);
            trace.events.push_back(std::move(e));
        } else {
            throw TraceParseError(line_no, "unknown record type '" + type + "'");
        }
    }
    return trace;
}

std::string prometheus_text(const MetricsRegistry& registry) {
    // The exposition format wants all lines of a family in one group,
    // but labelled series register lazily (a fleet's per-member gauges
    // interleave with event counters created mid-sweep). Group entries
    // by base name: families in order of first registration, series in
    // registration order within a family.
    struct Family {
        std::string base;
        std::vector<const MetricsRegistry::Entry*> series;
    };
    const std::vector<MetricsRegistry::Entry> entries = registry.entries();
    std::vector<Family> families;
    std::unordered_map<std::string, std::size_t> family_index;
    for (const MetricsRegistry::Entry& e : entries) {
        std::string base = e.name.substr(0, e.name.find('{'));
        const auto [it, fresh] = family_index.try_emplace(base, families.size());
        if (fresh) families.push_back({std::move(base), {}});
        families[it->second].series.push_back(&e);
    }

    std::ostringstream out;
    for (const Family& family : families) {
        const std::string& base = family.base;
        const MetricKind kind = family.series.front()->kind;
        out << "# TYPE " << base << ' '
            << (kind == MetricKind::Counter ? "counter"
                : kind == MetricKind::Gauge ? "gauge"
                                            : "histogram")
            << '\n';
        for (const MetricsRegistry::Entry* e : family.series) {
            switch (e->kind) {
                case MetricKind::Counter:
                    out << e->name << ' ' << e->counter->value() << '\n';
                    break;
                case MetricKind::Gauge:
                    out << e->name << ' ' << format_double(e->gauge->value()) << '\n';
                    break;
                case MetricKind::Histogram: {
                    // One `le` line per non-empty bucket; the top bucket's
                    // edge is +Inf, which the line below covers. +Inf and
                    // _count are the sum of the same bucket reads, so the
                    // lines stay cumulative while observe() runs elsewhere.
                    const Histogram& h = *e->histogram;
                    std::uint64_t cumulative = 0;
                    for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
                        const std::uint64_t c = h.bucket_count(i);
                        if (c == 0) continue;
                        cumulative += c;
                        out << base << "_bucket{le=\""
                            << format_double(Histogram::upper_edge(i)) << "\"} "
                            << cumulative << '\n';
                    }
                    cumulative += h.bucket_count(Histogram::kBuckets - 1);
                    out << base << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
                    out << base << "_sum " << format_double(h.sum()) << '\n';
                    out << base << "_count " << cumulative << '\n';
                    break;
                }
            }
        }
    }
    return out.str();
}

std::string metrics_csv(const MetricsRegistry& registry) {
    util::CsvWriter csv;
    std::vector<double> row;
    for (const BenchRecord& r : bench_json_records(registry)) {
        csv.add_column(r.name);
        row.push_back(r.value);
    }
    csv.append_row(row);
    return csv.to_string();
}

std::vector<BenchRecord> bench_json_records(const MetricsRegistry& registry) {
    std::vector<BenchRecord> records;
    const auto add = [&records](std::string name, double value, const std::string& unit) {
        records.push_back({std::move(name), value, unit, {}});
    };
    for (const MetricsRegistry::Entry& e : registry.entries()) {
        switch (e.kind) {
            case MetricKind::Counter:
                add(e.name, static_cast<double>(e.counter->value()), e.unit);
                break;
            case MetricKind::Gauge:
                add(e.name, e.gauge->value(), e.unit);
                break;
            case MetricKind::Histogram: {
                const Histogram& h = *e.histogram;
                const auto count = static_cast<double>(h.count());
                add(e.name + "_count", count, "samples");
                add(e.name + "_sum", h.sum(), e.unit);
                add(e.name + "_mean", count > 0.0 ? h.sum() / count : 0.0, e.unit);
                add(e.name + "_p50", h.quantile(0.50), e.unit);
                add(e.name + "_p99", h.quantile(0.99), e.unit);
                add(e.name + "_p999", h.quantile(0.999), e.unit);
                break;
            }
        }
    }
    return records;
}

std::vector<BenchRecord> parse_bench_json(const std::string& text) {
    std::vector<BenchRecord> records;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Skip the array brackets and whitespace-only lines; every
        // record sits on its own line, the way bench_json_text writes
        // them.
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const char c = line[first];
        if (c == '[' || c == ']') continue;
        if (c != '{') {
            throw std::runtime_error("bench JSON line " + std::to_string(line_no) +
                                     ": not a record object");
        }
        const FieldScan name = scan_field(line, "name");
        const FieldScan value = scan_field(line, "value");
        const FieldScan unit = scan_field(line, "unit");
        if (!name.found || !name.is_string || !name.terminated) {
            throw std::runtime_error("bench JSON line " + std::to_string(line_no) +
                                     ": missing or malformed \"name\"");
        }
        if (!value.found) {
            throw std::runtime_error("bench JSON line " + std::to_string(line_no) +
                                     ": missing \"value\"");
        }
        BenchRecord r;
        r.name = name.raw;
        r.unit = unit.found && unit.is_string ? unit.raw : "";
        if (value.is_string) {
            r.text = value.raw;
        } else {
            char* end = nullptr;
            r.value = std::strtod(value.raw.c_str(), &end);
            if (value.raw.empty() || end != value.raw.c_str() + value.raw.size()) {
                throw std::runtime_error("bench JSON line " +
                                         std::to_string(line_no) +
                                         ": non-numeric \"value\"");
            }
        }
        records.push_back(std::move(r));
    }
    return records;
}

std::string bench_json_text(const std::vector<BenchRecord>& records) {
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const BenchRecord& r = records[i];
        out << "  {\"name\":\"" << json_escape(r.name.c_str()) << "\",\"value\":";
        if (r.text.empty()) {
            out << format_double(r.value);
        } else {
            out << '"' << json_escape(r.text.c_str()) << '"';
        }
        out << ",\"unit\":\"" << json_escape(r.unit.c_str()) << "\"}"
            << (i + 1 < records.size() ? "," : "") << '\n';
    }
    out << "]\n";
    return out.str();
}

void write_bench_json(const std::string& path,
                      const std::vector<BenchRecord>& records) {
    std::vector<BenchRecord> stamped;
    stamped.reserve(records.size() + 2);
    stamped.push_back({"fxg_snapshot_format_version",
                       static_cast<double>(snapshot::kSnapshotFormatVersion),
                       "version",
                       ""});
    stamped.push_back({"fxg_git_sha", 0.0, "commit", FXG_GIT_SHA});
    stamped.insert(stamped.end(), records.begin(), records.end());
    std::ofstream f(path);
    if (!f) throw std::runtime_error("write_bench_json: cannot open " + path);
    f << bench_json_text(stamped);
    if (!f) throw std::runtime_error("write_bench_json: write failed for " + path);
}

}  // namespace fxg::telemetry
