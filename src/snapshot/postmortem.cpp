#include "snapshot/postmortem.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <sys/stat.h>

#include "snapshot/fields.hpp"
#include "telemetry/exporters.hpp"

namespace fxg::snapshot {

namespace {

constexpr std::uint32_t kTagBundle = section_tag('P', 'M', 'R', 'T');
constexpr std::uint32_t kTagMeta = section_tag('M', 'E', 'T', 'A');
constexpr std::uint32_t kTagTrace = section_tag('T', 'R', 'C', 'E');
constexpr std::uint32_t kTagProm = section_tag('P', 'R', 'O', 'M');
constexpr std::uint32_t kTagSnap = section_tag('S', 'N', 'A', 'P');

bool file_exists(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
}

template <class Io, record_of<PostmortemBundle> S>
void fields(Io& io, S& s) {
    auto& [reason, config_fingerprint, trace_jsonl, metrics_prometheus,
           metric_history, snapshot] = s;
    // META repeats the two list lengths, and a reader cross-checks them.
    std::uint64_t history_count = metric_history.size();
    std::uint64_t snapshot_size = snapshot.size();
    io.section(kTagBundle, [&] {
        io.section(kTagMeta, [&] {
            walk(io, reason, config_fingerprint, history_count, snapshot_size);
        });
        io.section(kTagTrace, [&] { walk(io, trace_jsonl); });
        io.section(kTagProm, [&] { walk(io, metrics_prometheus, metric_history); });
        if (metric_history.size() != history_count) {
            throw SnapshotError("postmortem: META/PROM history count mismatch");
        }
        io.section(kTagSnap, [&] { walk(io, snapshot); });
        if (snapshot.size() != snapshot_size) {
            throw SnapshotError("postmortem: META/SNAP size mismatch");
        }
    });
}

}  // namespace

std::vector<std::uint8_t> encode_postmortem(const PostmortemBundle& bundle) {
    SnapshotWriter w;
    fields(w, bundle);
    return w.finish();
}

PostmortemBundle decode_postmortem(std::span<const std::uint8_t> bytes) {
    SnapshotReader r(bytes);
    PostmortemBundle bundle;
    fields(r, bundle);
    return bundle;
}

void write_postmortem_file(const std::string& path,
                           const PostmortemBundle& bundle) {
    const std::vector<std::uint8_t> bytes = encode_postmortem(bundle);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f) {
            throw std::runtime_error("postmortem: cannot open " + tmp);
        }
        f.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        f.flush();
        if (!f) {
            throw std::runtime_error("postmortem: write failed for " + tmp);
        }
    }
    // rename(2) is atomic within a filesystem: readers see either no
    // file or the complete bundle, never a torn one.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string what = std::string("postmortem: rename to ") + path +
                                 ": " + std::strerror(errno);
        std::remove(tmp.c_str());
        throw std::runtime_error(what);
    }
}

PostmortemBundle read_postmortem_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("postmortem: cannot open " + path);
    std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(f),
                                    std::istreambuf_iterator<char>()};
    return decode_postmortem(bytes);
}

BlackBox::BlackBox(telemetry::FlightRecorder& recorder,
                   const telemetry::MetricsRegistry& registry, Config config)
    : recorder_(recorder), registry_(registry), config_(std::move(config)) {}

std::string BlackBox::emit(const std::string& reason) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (config_.max_bundles > 0 && emitted_ >= config_.max_bundles) return "";

    // Freeze for the whole gather so the trace, the metrics and the
    // state snapshot describe the same instant.
    telemetry::FlightRecorder::Freeze freeze(recorder_);

    PostmortemBundle bundle;
    bundle.reason = reason;
    bundle.config_fingerprint = fingerprint_;
    bundle.trace_jsonl = recorder_.trace_jsonl();
    bundle.metrics_prometheus = telemetry::prometheus_text(registry_);
    bundle.metric_history = recorder_.metric_snapshots();
    if (snapshot_source_) bundle.snapshot = snapshot_source_();

    // Deterministic numbered names (no wall clock — replay and tests
    // stay reproducible); skip indices already on disk so bundles from
    // an earlier run of the same process name survive.
    std::string path;
    for (std::uint64_t n = emitted_;; ++n) {
        path = config_.directory + "/" + config_.prefix + "_" +
               std::to_string(n) + kPostmortemExtension;
        if (!file_exists(path)) break;
    }
    write_postmortem_file(path, bundle);
    ++emitted_;
    return path;
}

std::uint64_t BlackBox::emitted() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return emitted_;
}

std::function<void(const fault::SupervisedMeasurement&)>
BlackBox::supervisor_hook() {
    return [this](const fault::SupervisedMeasurement& m) {
        emit(std::string("supervisor: ") + fault::to_string(m.status) +
             " after " + std::to_string(m.attempts) +
             " attempt(s): " + m.diagnostics);
    };
}

std::function<void(int, const std::string&)> BlackBox::fleet_hook() {
    return [this](int member, const std::string& error) {
        emit("fleet member " + std::to_string(member) + ": " + error);
    };
}

}  // namespace fxg::snapshot
