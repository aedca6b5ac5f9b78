/// \file write_golden.cpp
/// Writes the golden snapshot files of golden_scenes.hpp:
///
///   write_golden [dir]        (default: this checkout's tests/golden)
///
/// Run it after a deliberate change to a record's layout, and commit
/// the files with the change. Built from an older commit (copy this
/// file and golden_scenes.hpp into its tests/), it shows the bytes that
/// commit's encoder wrote for the same scenes.

#include <cstdio>
#include <fstream>
#include <string>

#include "golden_scenes.hpp"

int main(int argc, char** argv) {
    const std::string dir = argc > 1 ? argv[1] : FXG_GOLDEN_DIR;
    for (const auto& [name, bytes] : fxg::golden::write_all()) {
        const std::string path = dir + "/" + name;
        std::ofstream f(path, std::ios::binary);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        if (!f.good()) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("%s: %zu bytes\n", path.c_str(), bytes.size());
    }
    return 0;
}
