/// \file fuzz_soak_cli_test.cpp
/// bench_fuzz_soak's command line fails closed, driven through the real
/// binary: an unknown or malformed flag exits 2 before a case runs or a
/// file is written, --help prints the usage and exits 0, and a
/// well-formed command runs. CI soaks with this binary, so a misspelt
/// flag must not pass as a default 30,000-case soak. Its corpus digest
/// names the corpus: another seed or oracle prints another digest.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct SoakRun {
    int status = -1;    ///< exit status
    bool wrote = false;  ///< left a BENCH_fuzz.json in its working directory
    std::string out;     ///< standard output
};

/// Runs bench_fuzz_soak with `args` in a fresh directory named after the
/// running test, so tests run as parallel processes share nothing.
SoakRun soak(const std::string& args) {
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("fuzz_soak_cli_" +
         std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string cmd = "cd '" + dir.string() + "' && " + FXG_FUZZ_SOAK + " " + args +
                            " > out.txt 2> err.txt";
    const int status = std::system(cmd.c_str());
    SoakRun r;
    r.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.wrote = fs::exists(dir / "BENCH_fuzz.json");
    std::ostringstream out;
    out << std::ifstream(dir / "out.txt").rdbuf();
    r.out = out.str();
    return r;
}

/// The hex digest of a run's "corpus digest" line ("" when absent).
std::string corpus_digest(const SoakRun& r) {
    const std::string key = "corpus digest ";
    const std::size_t at = r.out.find(key);
    return at == std::string::npos ? "" : r.out.substr(at + key.size(), 8);
}

}  // namespace

TEST(FuzzSoakCli, UnknownOrMalformedFlagExitsTwoBeforeRunning) {
    for (const char* args :
         {"--case=10", "--cases 10", "--cases=10k", "--cases=abc", "--cases=", "--cases=-1",
          "--cases=+5", "-cases=10", "cases=10", "--threads=1 --bogus=1", "--help=1"}) {
        SCOPED_TRACE(args);
        const SoakRun r = soak(args);
        EXPECT_EQ(r.status, 2);
        EXPECT_FALSE(r.wrote);
    }
}

TEST(FuzzSoakCli, HelpPrintsUsageAndExitsZero) {
    const SoakRun r = soak("--help");
    EXPECT_EQ(r.status, 0);
    EXPECT_FALSE(r.wrote);
    EXPECT_NE(r.out.find("usage: bench_fuzz_soak"), std::string::npos) << r.out;
}

TEST(FuzzSoakCli, WellFormedFlagsRun) {
    const SoakRun r = soak("--cases=4 --seed=7 --threads=1 --oracle=parity");
    EXPECT_EQ(r.status, 0);
    EXPECT_TRUE(r.wrote);
    EXPECT_NE(r.out.find("seed=7 cases=4 threads=1 oracle=EngineParity"), std::string::npos)
        << r.out;
}

// Every case passes in all three runs, so a digest of (index, pass/fail)
// pairs alone would be one value for all of them: the digest folds each
// case's literal, which names its seed and oracle.
TEST(FuzzSoakCli, CorpusDigestNamesItsCorpus) {
    const std::string seed1 = corpus_digest(soak("--cases=40 --seed=1 --threads=1"));
    const std::string again = corpus_digest(soak("--cases=40 --seed=1 --threads=1"));
    const std::string seed2 = corpus_digest(soak("--cases=40 --seed=2 --threads=1"));
    const std::string cordic =
        corpus_digest(soak("--cases=40 --seed=1 --threads=1 --oracle=cordic"));
    ASSERT_EQ(seed1.size(), 8u);
    EXPECT_EQ(seed1, again);
    EXPECT_NE(seed1, seed2);
    EXPECT_NE(seed1, cordic);
    EXPECT_NE(seed2, cordic);
}
