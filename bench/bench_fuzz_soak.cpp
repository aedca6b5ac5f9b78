/// \file bench_fuzz_soak.cpp
/// Differential fuzz soak over the verify:: oracle pairs.
///
/// Runs a seeded corpus (default 30000 cases, overridable) in chunks
/// through verify::run_chunk, reports throughput and the mismatch count
/// to BENCH_fuzz.json, and exits non-zero on any mismatch after
/// printing each shrunk one-line repro literal. CI runs a fixed seed on
/// every push plus a rotating-seed soak (--seed=<run id>) for fresh
/// coverage.
///
/// The soak is crash-recoverable: with --checkpoint-every=N a progress
/// checkpoint (a .fxgsnap container: one SOAK section with the cursor
/// and the running corpus digest, one FAIL section per recorded
/// failure) is written atomically after every N cases, and
/// --resume-from continues a killed run from its last checkpoint. The
/// corpus digest — CRC-32 folded over every case's index, pass/fail
/// and one-line literal in index order — is printed at the end of every
/// complete run, so a resumed soak can be checked byte-for-byte against
/// an uninterrupted one, and a soak of another seed or oracle prints
/// another digest (CI's soak-kill-resume job checks both).
///
///   bench_fuzz_soak [--cases=N] [--seed=S] [--threads=T]
///                   [--oracle=name] [--checkpoint-every=N]
///                   [--checkpoint=path] [--resume-from=path]
///   bench_fuzz_soak --help
///
/// Every argument is --name=value with one of these names (numbers in
/// decimal, parsed whole), or --help. Anything else prints the usage to
/// stderr and exits 2 before a case runs or a file is written, so a
/// misspelt flag cannot pass as a default soak.
///
/// --oracle pins every case to one oracle (e.g. --oracle=scenario or
/// the exact enum name ScenarioDeterminism) instead of round-robining
/// over all of them — CI's scenario leg soaks the time-varying
/// environment path this way.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "snapshot/fields.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/endian.hpp"
#include "util/simd.hpp"
#include "verify/fuzz.hpp"
#include "verify/shrink.hpp"

using namespace fxg;

namespace {

constexpr std::uint32_t kSoakTag = snapshot::section_tag('S', 'O', 'A', 'K');
constexpr std::uint32_t kFailTag = snapshot::section_tag('F', 'A', 'I', 'L');

/// Failures the checkpoint carries (cases are regenerable from (seed,
/// index), so the index plus the mismatch text is a complete record).
constexpr std::size_t kMaxRecordedFailures = 64;

double seconds_since(telemetry::Clock::time_point t0) {
    return std::chrono::duration<double>(telemetry::Clock::now() - t0).count();
}

constexpr const char* kUsage =
    "usage: bench_fuzz_soak [--cases=N] [--seed=S] [--threads=T]\n"
    "                       [--oracle=name] [--checkpoint-every=N]\n"
    "                       [--checkpoint=path] [--resume-from=path]\n"
    "       bench_fuzz_soak --help\n";

/// The parsed command line, with each flag's default.
struct Flags {
    std::uint64_t cases = 30000;
    std::uint64_t seed = 20260807;
    std::uint64_t threads = 4;
    std::uint64_t checkpoint_every = 0;
    std::string checkpoint = "fuzz_soak.fxgsnap";
    const char* resume_from = nullptr;
    const char* oracle = nullptr;
};

[[noreturn]] void usage_error(const char* why, const char* arg) {
    std::fprintf(stderr, "bench_fuzz_soak: %s: '%s'\n%s", why, arg, kUsage);
    std::exit(2);
}

/// A decimal uint64 that is the whole of `s` (no sign, no suffix).
bool parse_u64(const char* s, std::uint64_t& out) {
    if (*s < '0' || *s > '9') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE || *end != '\0') return false;
    out = v;
    return true;
}

Flags parse_flags(int argc, char** argv) {
    Flags f;
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) f.threads = hw;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        }
        const std::size_t eq = arg.find('=');
        if (!arg.starts_with("--") || eq == std::string_view::npos) {
            usage_error("expected --name=value", argv[i]);
        }
        const std::string_view name = arg.substr(2, eq - 2);
        const char* value = argv[i] + eq + 1;
        std::uint64_t* number = name == "cases"              ? &f.cases
                                : name == "seed"             ? &f.seed
                                : name == "threads"          ? &f.threads
                                : name == "checkpoint-every" ? &f.checkpoint_every
                                                             : nullptr;
        if (number != nullptr) {
            if (!parse_u64(value, *number)) usage_error("not a decimal number", argv[i]);
        } else if (name == "checkpoint") {
            f.checkpoint = value;
        } else if (name == "resume-from") {
            f.resume_from = value;
        } else if (name == "oracle") {
            f.oracle = value;
        } else {
            usage_error("unknown flag", argv[i]);
        }
    }
    return f;
}

/// Everything a resumed soak needs to converge to the identical result:
/// the corpus identity, the cursor, and the running digest/failures.
struct SoakProgress {
    std::uint64_t seed = 0;
    std::uint64_t cases = 0;
    std::uint64_t next_index = 0;
    std::uint64_t mismatches = 0;
    std::uint32_t digest = 0;
    std::vector<std::pair<std::uint64_t, std::string>> failures;
};

template <class Io, snapshot::record_of<SoakProgress> S>
void fields(Io& io, S& s) {
    auto& [seed, cases, next_index, mismatches, digest, failures] = s;
    // The failure count rides in SOAK; each failure has a FAIL section.
    std::uint64_t n_failures = failures.size();
    io.section(kSoakTag, [&] {
        snapshot::walk(io, seed, cases, next_index, mismatches, digest, n_failures);
    });
    for (std::uint64_t i = 0; i < n_failures; ++i) {
        auto& failure = snapshot::element(io, failures, i);
        io.section(kFailTag, [&] { snapshot::walk(io, failure.first, failure.second); });
    }
}

/// Folds one case into the corpus digest: CRC-32 over (index:u64 LE,
/// ok:u8) and the case's one-line literal (FuzzCase::to_literal(): its
/// seed, oracle and generated inputs), continued from the running
/// value. Chunking and resume points cannot change the fold — it only
/// sees per-case results in index order — and two soaks print one
/// digest only when they ran the same cases with the same outcomes.
void fold_case(std::uint32_t& digest, const verify::FuzzCase& c, bool ok) {
    std::uint8_t buf[9];
    util::store_le(buf, c.index);
    buf[8] = ok ? 1 : 0;
    digest = snapshot::crc32(buf, sizeof buf, digest);
    const std::string literal = c.to_literal();
    digest = snapshot::crc32(reinterpret_cast<const std::uint8_t*>(literal.data()),
                             literal.size(), digest);
}

std::vector<std::uint8_t> encode_progress(const SoakProgress& p) {
    snapshot::SnapshotWriter w;
    fields(w, p);
    return w.finish();
}

SoakProgress decode_progress(std::span<const std::uint8_t> bytes) {
    snapshot::SnapshotReader r(bytes);
    SoakProgress p;
    fields(r, p);
    if (!r.at_end()) throw snapshot::SnapshotError("checkpoint has trailing sections");
    return p;
}

bool read_file(const char* path, std::vector<std::uint8_t>& out) {
    std::FILE* f = std::fopen(path, "rb");
    if (!f) return false;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    out.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    const bool ok =
        out.empty() || std::fread(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    return ok;
}

/// Atomic checkpoint write: the bytes land under a temporary name and
/// rename() into place, so a crash mid-write can never leave a torn
/// checkpoint — the previous one survives intact.
bool write_checkpoint(const std::string& path, const SoakProgress& p) {
    const std::vector<std::uint8_t> bytes = encode_progress(p);
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) return false;
    const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (!wrote || !flushed) return false;
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Maps an --oracle flag value to the forced oracle: the exact enum
/// name (as printed by verify::to_string) or a lowercase shorthand
/// ("parity", "plan", "cordic", "counter", "telemetry", "snapshot",
/// "scenario"). Returns nullopt for "all"/"" and exits on a bad name.
std::optional<verify::Oracle> parse_oracle(const char* name) {
    if (name == nullptr || *name == '\0' || std::strcmp(name, "all") == 0) {
        return std::nullopt;
    }
    static constexpr std::pair<const char*, verify::Oracle> kShorthand[] = {
        {"parity", verify::Oracle::EngineParity},
        {"plan", verify::Oracle::PlanRewrite},
        {"cordic", verify::Oracle::CordicAtan},
        {"counter", verify::Oracle::CounterWidth},
        {"telemetry", verify::Oracle::TelemetryIdentity},
        {"snapshot", verify::Oracle::SnapshotRoundTrip},
        {"scenario", verify::Oracle::ScenarioDeterminism},
    };
    for (const auto& [key, oracle] : kShorthand) {
        if (std::strcmp(name, key) == 0) return oracle;
    }
    for (int i = 0; i < verify::kOracleCount; ++i) {
        const auto oracle = static_cast<verify::Oracle>(i);
        if (std::strcmp(name, verify::to_string(oracle)) == 0) return oracle;
    }
    std::fprintf(stderr, "unknown --oracle=%s (try scenario, parity, ...)\n", name);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    const Flags flags = parse_flags(argc, argv);
    const std::uint64_t cases = flags.cases;
    const std::uint64_t seed = flags.seed;
    const int threads = static_cast<int>(flags.threads);
    const std::uint64_t checkpoint_every = flags.checkpoint_every;
    const std::string& checkpoint_path = flags.checkpoint;
    const char* resume_from = flags.resume_from;
    const std::optional<verify::Oracle> force = parse_oracle(flags.oracle);

    SoakProgress progress;
    progress.seed = seed;
    progress.cases = cases;
    if (resume_from) {
        std::vector<std::uint8_t> bytes;
        if (!read_file(resume_from, bytes)) {
            std::fprintf(stderr, "cannot read checkpoint %s\n", resume_from);
            return 2;
        }
        try {
            progress = decode_progress(bytes);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "checkpoint %s rejected: %s\n", resume_from,
                         e.what());
            return 2;
        }
        if (progress.seed != seed || progress.cases != cases) {
            std::fprintf(stderr,
                         "checkpoint %s is for seed=%llu cases=%llu, this run is "
                         "seed=%llu cases=%llu\n",
                         resume_from,
                         static_cast<unsigned long long>(progress.seed),
                         static_cast<unsigned long long>(progress.cases),
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(cases));
            return 2;
        }
        std::printf("resuming from %s at index %llu (%llu mismatches so far)\n",
                    resume_from,
                    static_cast<unsigned long long>(progress.next_index),
                    static_cast<unsigned long long>(progress.mismatches));
    }

    // The EngineParity oracle diffs the SoA lane engine against the
    // scalar reference in every case, so each soak also exercises the
    // active SIMD backend — say which one this run covered.
    std::printf(
        "fuzz soak: seed=%llu cases=%llu threads=%d oracle=%s simd=%s (%d lanes)\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(cases), threads,
        force ? verify::to_string(*force) : "all", util::simd::backend_name(),
        util::simd::kLanes);

    const std::uint64_t first_index = progress.next_index;
    const auto t0 = telemetry::Clock::now();
    while (progress.next_index < cases) {
        const std::uint64_t remaining = cases - progress.next_index;
        const std::uint64_t n =
            checkpoint_every > 0 ? std::min(checkpoint_every, remaining) : remaining;
        const verify::ChunkResult chunk =
            verify::run_chunk(seed, progress.next_index, n, threads, force);
        for (std::uint64_t i = 0; i < n; ++i) {
            fold_case(progress.digest, verify::generate_case(seed, progress.next_index + i, force),
                      chunk.ok[static_cast<std::size_t>(i)] != 0);
        }
        for (const verify::FuzzFailure& failure : chunk.failures) {
            ++progress.mismatches;
            if (progress.failures.size() < kMaxRecordedFailures) {
                progress.failures.emplace_back(failure.failing.index,
                                               failure.mismatch);
            }
        }
        progress.next_index += n;
        if (checkpoint_every > 0 && !write_checkpoint(checkpoint_path, progress)) {
            std::fprintf(stderr, "cannot write checkpoint %s\n",
                         checkpoint_path.c_str());
            return 2;
        }
    }
    const double elapsed_s = seconds_since(t0);
    const std::uint64_t ran = cases - first_index;
    const double rate =
        elapsed_s > 0.0 ? static_cast<double>(ran) / elapsed_s : 0.0;

    std::printf("  %llu cases in %.2f s (%.0f cases/s), %llu mismatches\n",
                static_cast<unsigned long long>(ran), elapsed_s, rate,
                static_cast<unsigned long long>(progress.mismatches));
    std::printf("corpus digest %08x\n", progress.digest);

    std::size_t reported = 0;
    for (const auto& [index, mismatch] : progress.failures) {
        if (reported++ >= 8) break;
        std::printf("\nMISMATCH at (seed=%llu, index=%llu): %s\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(index), mismatch.c_str());
        // Cases are pure functions of (seed, index): regenerate for the
        // shrinker instead of serializing the whole case.
        const verify::FuzzCase shrunk =
            verify::shrink_case(verify::generate_case(seed, index, force));
        std::printf("  shrunk repro: %s\n", shrunk.to_literal().c_str());
    }

    telemetry::MetricsRegistry registry;
    registry.counter("fuzz_cases", "cases").inc(cases);
    registry.counter("fuzz_mismatches", "cases").inc(progress.mismatches);
    registry.gauge("fuzz_seed", "seed").set(static_cast<double>(seed));
    registry.gauge("fuzz_simd_lanes", "lanes")
        .set(static_cast<double>(util::simd::kLanes));
    registry.gauge("fuzz_rate", "cases_per_s").set(rate);
    registry.gauge("fuzz_elapsed", "s").set(elapsed_s);
    registry.gauge("fuzz_corpus_digest", "crc32")
        .set(static_cast<double>(progress.digest));
    telemetry::write_bench_json("BENCH_fuzz.json",
                                telemetry::bench_json_records(registry));
    std::printf("wrote BENCH_fuzz.json\n");

    return progress.mismatches == 0 ? 0 : 1;
}
