/// \file bench_field_magnitude.cpp
/// Experiment MAG1 — paper section 4: "The calculation method is
/// insensitive to local variations of the magnitude of the earth's
/// magnetic field, which is necessary since the magnitude varies
/// between 25 uT in South America and 65 uT near the south pole."
/// Sweeps the field magnitude (and the paper's three named sites) at a
/// fixed set of headings and shows the error stays flat — until the
/// horizontal component leaves the core's clean saturation range, which
/// is reported as the method's operating boundary.

#include <cstdio>

#include "core/compass.hpp"
#include "core/error_analysis.hpp"
#include "magnetics/units.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

int main() {
    std::puts("=== MAG1: heading error vs field magnitude (25..65 uT claim) ===\n");

    compass::Compass compass;

    util::Table table("horizontal-magnitude sweep, 24 headings each");
    table.set_header({"|B| horiz [uT]", "H horiz [A/m]", "max |err| [deg]",
                      "rms [deg]", "in range"});
    for (double ut : {10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0}) {
        const magnetics::EarthField field(magnetics::microtesla(ut), 0.0);
        const compass::HeadingSweep sweep = compass::sweep_heading(compass, field, 15.0);
        bool in_range = true;
        for (const auto& p : sweep.points) in_range &= p.in_range;
        table.add_row({util::format("%.0f", ut),
                       util::format("%.1f", field.horizontal_a_per_m()),
                       util::format("%.3f", sweep.error_stats.max_abs()),
                       util::format("%.3f", sweep.error_stats.rms()),
                       in_range ? "yes" : "NO (core no longer saturates)"});
    }
    table.print();

    util::Table sites("the paper's named sites");
    sites.set_header({"site", "|B| [uT]", "dip [deg]", "H horiz [A/m]",
                      "max |err| [deg]"});
    bool all_ok = true;
    for (const auto& site : magnetics::paper_sites()) {
        const magnetics::EarthField field(site);
        const compass::HeadingSweep sweep = compass::sweep_heading(compass, field, 15.0);
        all_ok &= sweep.meets_one_degree();
        sites.add_row({site.name, util::format("%.0f", site.magnitude_tesla * 1e6),
                       util::format("%.0f", site.inclination_deg),
                       util::format("%.1f", field.horizontal_a_per_m()),
                       util::format("%.3f", sweep.error_stats.max_abs())});
    }
    sites.print();

    std::puts("\npaper shape: arctan(x/y) cancels the magnitude, so the error is");
    std::puts("flat across sites; the boundary appears only where |H_horiz| +");
    std::puts("margin*Hk reaches the excitation amplitude (~40 A/m here).");
    std::printf("claim (works from 25 uT to 65 uT sites)  ->  %s\n",
                all_ok ? "REPRODUCED" : "NOT reproduced");
    return all_ok ? 0 : 1;
}
