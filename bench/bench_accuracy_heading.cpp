/// \file bench_accuracy_heading.cpp
/// Experiment ACC1 — the paper's headline claim: "The compass has been
/// designed to have an accuracy of one degree" (sections 1 and 6:
/// "simulations indicate that an accuracy within one degree is
/// possible"). Runs the complete mixed-signal pipeline at every integer
/// heading and reports the error distribution, splitting the budget
/// into counter-quantisation (float atan2 of the counts) and CORDIC
/// contributions.

#include <cstdio>

#include "core/compass.hpp"
#include "core/error_analysis.hpp"
#include "magnetics/units.hpp"
#include "util/statistics.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

int main() {
    std::puts("=== ACC1: system heading accuracy over 0..359 deg ===");
    std::puts("(full pipeline: sensor -> triangle excitation -> pulse-position");
    std::puts(" detector -> 4.194304 MHz up/down counter -> 8-cycle CORDIC)\n");

    compass::Compass compass;
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    const compass::HeadingSweep sweep = compass::sweep_heading(compass, field, 1.0);

    util::Table table("error summary (360 headings, 1 deg steps)");
    table.set_header({"metric", "digital (CORDIC)", "float atan2 of counts"});
    table.add_row({"max |error| [deg]",
                   util::format("%.4f", sweep.error_stats.max_abs()),
                   util::format("%.4f", sweep.float_error_stats.max_abs())});
    table.add_row({"rms error [deg]", util::format("%.4f", sweep.error_stats.rms()),
                   util::format("%.4f", sweep.float_error_stats.rms())});
    table.add_row({"mean error [deg]", util::format("%.4f", sweep.error_stats.mean()),
                   util::format("%.4f", sweep.float_error_stats.mean())});
    table.print();

    // Error histogram.
    util::Histogram hist(-1.0, 1.0, 8);
    for (const auto& p : sweep.points) hist.add(p.error_deg);
    util::Table htab("error distribution");
    htab.set_header({"bin centre [deg]", "count", "bar"});
    for (std::size_t b = 0; b < hist.bins(); ++b) {
        htab.add_row({util::format("%+.3f", hist.bin_center(b)),
                      std::to_string(hist.count(b)),
                      std::string(hist.count(b) / 4, '#')});
    }
    htab.print();

    const int worst = [&] {
        int idx = 0;
        double mx = 0.0;
        for (std::size_t i = 0; i < sweep.points.size(); ++i) {
            if (std::fabs(sweep.points[i].error_deg) > mx) {
                mx = std::fabs(sweep.points[i].error_deg);
                idx = static_cast<int>(i);
            }
        }
        return idx;
    }();
    std::printf("\nworst heading: %.0f deg (error %+.3f deg)\n",
                sweep.points[worst].true_heading_deg, sweep.points[worst].error_deg);
    std::printf("measurement time per fix: %.2f ms, front-end power while "
                "measuring: see MUX1\n",
                2.0 * (1 + 8) * 0.125);
    const bool reproduced = sweep.meets_one_degree();
    std::printf("\npaper claim: accuracy of one degree  ->  %s (max |err| = "
                "%.3f deg)\n",
                reproduced ? "REPRODUCED" : "NOT reproduced",
                sweep.error_stats.max_abs());
    return reproduced ? 0 : 1;
}
