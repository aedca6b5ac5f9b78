/// \file bench_tilt.cpp
/// Ablation ABL5 — tilt sensitivity. The paper's compass "functions by
/// measuring the magnetic field in a horizontal plane"; this bench
/// quantifies what happens when a wrist-worn case is NOT horizontal:
/// the vertical field component (B sin dip) leaks into the sensors and
/// the heading error grows ~tan(dip) per degree of tilt — the classic
/// argument for gimbals or a third axis, left as future work in 1997.

#include <cstdio>

#include "core/compass.hpp"
#include "core/tilt.hpp"
#include "magnetics/units.hpp"
#include "util/angle.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

int main() {
    std::puts("=== ABL5: heading error vs case tilt (horizontal-plane assumption) "
              "===\n");

    util::Table table("worst-case heading error over a full turn [deg]");
    table.set_header({"pitch [deg]", "equator (dip 0)", "Europe (dip 67)",
                      "near pole (dip 80)"});
    const magnetics::EarthField equator(magnetics::microtesla(35.0), 0.0);
    const magnetics::EarthField europe(magnetics::microtesla(48.0), 67.0);
    const magnetics::EarthField polar(magnetics::microtesla(65.0), 80.0);
    for (double pitch : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
        table.add_row({util::format("%.1f", pitch),
                       util::format("%.2f", compass::max_tilt_error_deg(equator, pitch, 0.0)),
                       util::format("%.2f", compass::max_tilt_error_deg(europe, pitch, 0.0)),
                       util::format("%.2f", compass::max_tilt_error_deg(polar, pitch, 0.0))});
    }
    table.print();

    // End-to-end: the hardware pipeline reports the same geometric error.
    compass::Compass compass;
    const double heading = 90.0;
    const compass::TiltedAxisFields t =
        compass::tilted_axis_fields(europe, heading, 2.0, 0.0);
    compass.set_axis_fields(t.hx_a_per_m, t.hy_a_per_m);
    const compass::Measurement m = compass.measure();
    const double pipeline_err = util::angular_diff_deg(m.heading_deg, heading);
    const double geometric_err = compass::tilt_heading_error_deg(europe, heading, 2.0, 0.0);
    std::printf("\nend-to-end check at 2 deg pitch, heading 90: pipeline %+.2f deg "
                "vs geometry %+.2f deg\n",
                pipeline_err, geometric_err);

    std::puts("\nshape: at the design site (dip 67) every degree of tilt costs");
    std::puts("~2.4 deg of worst-case heading error (tan 67 deg) — the one-degree");
    std::puts("budget requires the case held level to ~0.4 deg, or a tilt sensor");
    std::puts("(the obvious extension the 2-axis 1997 design does not have).");
    const double per_degree = compass::max_tilt_error_deg(europe, 1.0, 0.0);
    const bool reproduced = per_degree > 1.8 && per_degree < 3.0;
    std::printf("measured sensitivity: %.2f deg error per deg of pitch (tan 67 = "
                "2.36)  ->  %s\n",
                per_degree, reproduced ? "REPRODUCED" : "CHECK");
    return reproduced ? 0 : 1;
}
