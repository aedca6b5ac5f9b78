/// \file bench_supply_scaling.cpp
/// Experiment SUP1 — paper section 2: "The supply voltage is currently
/// 5 Volts, but can be scaled down to 3.5V." Sweeps the supply and
/// reports what scaling costs: the V-I converter's compliance (the
/// 800 ohm drivable-sensor claim shrinks), the front-end power (drops
/// linearly), and the heading accuracy (unchanged as long as the 77 ohm
/// sensor stays inside compliance).

#include <cstdio>

#include "analog/vi_converter.hpp"
#include "core/compass.hpp"
#include "core/error_analysis.hpp"
#include "magnetics/units.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

int main() {
    std::puts("=== SUP1: supply-voltage scaling (paper: 5 V, scalable to 3.5 V) ===\n");

    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);

    util::Table table("supply sweep");
    table.set_header({"supply [V]", "max sensor R @6mA [ohm]", "drives 77 ohm",
                      "avg power/fix [mW]", "max |err| [deg]", "meets 1 deg"});
    for (double vdd : {5.0, 4.5, 4.0, 3.5, 3.0}) {
        analog::ViConverterConfig vic;
        vic.supply_v = vdd;
        const analog::ViConverter vi(vic);
        const double rmax = vi.max_drivable_resistance(6e-3);

        compass::CompassConfig cfg;
        cfg.front_end.vi.supply_v = vdd;
        cfg.front_end.supply_v = vdd;
        compass::Compass compass(cfg);
        const compass::HeadingSweep sweep = compass::sweep_heading(compass, field, 30.0);
        double power = 0.0;
        {
            compass::Compass one(cfg);
            one.set_environment(field, 123.0);
            power = one.measure().avg_power_w;
        }
        table.add_row({util::format("%.1f", vdd), util::format("%.0f", rmax),
                       rmax >= 77.0 ? "yes" : "NO",
                       util::format("%.2f", power * 1e3),
                       util::format("%.3f", sweep.max_abs_error_deg()),
                       sweep.meets_one_degree() ? "yes" : "NO"});
    }
    table.print();

    analog::ViConverterConfig at5;
    analog::ViConverterConfig at35;
    at35.supply_v = 3.5;
    const double r5 = analog::ViConverter(at5).max_drivable_resistance(6e-3);
    const double r35 = analog::ViConverter(at35).max_drivable_resistance(6e-3);
    std::printf("\nat 5.0 V the stage drives up to %.0f ohm (paper: 800 ohm); at "
                "3.5 V still %.0f ohm —\ncomfortably above the 77 ohm [Kaw95] "
                "sensor, so accuracy is supply-independent\nwhile power scales "
                "with Vdd.\n",
                r5, r35);
    const bool reproduced = r35 > 77.0;
    std::printf("\npaper claim (5 V design scales to 3.5 V)  ->  %s\n",
                reproduced ? "REPRODUCED" : "CHECK");
    return reproduced ? 0 : 1;
}
