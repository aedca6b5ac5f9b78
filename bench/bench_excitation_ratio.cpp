/// \file bench_excitation_ratio.cpp
/// Ablation ABL1 — paper section 3.1: "Best sensitivity is obtained
/// when the applied magnetic field is twice the saturation field."
/// Sweeps the excitation amplitude as a multiple of the core knee Hk
/// and reports (a) the counter sensitivity (counts per A/m), which
/// falls as 1/Ha, and (b) the heading accuracy, which collapses once
/// the excitation no longer drives the core cleanly through saturation.
/// The usable optimum lands where both hold — around 2 x Hk.

#include <cstdio>

#include "harness.hpp"
#include "magnetics/units.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

int main() {
    std::puts("=== ABL1: excitation amplitude / saturation field ratio ===\n");

    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);

    util::Table table("amplitude ratio sweep (Hk = 40 A/m, field 14.9 A/m)");
    table.set_header({"Ha/Hk", "I_exc pp [mA]", "counts per A/m", "max |err| [deg]",
                      "meets 1 deg"});
    double best_ratio = 0.0;
    double best_sensitivity = 0.0;
    for (double ratio : {1.4, 1.6, 1.8, 2.0, 2.4, 3.0, 4.0}) {
        compass::CompassConfig cfg;
        const double hk = cfg.front_end.sensor.hk_a_per_m;
        cfg.front_end.oscillator.amplitude_a =
            ratio * hk / cfg.front_end.sensor.field_per_amp();
        bench::PlanRunner runner(cfg);
        const compass::HeadingSweep sweep = runner.sweep_heading(field, 15.0);
        // Sensitivity from the transfer law at this amplitude.
        const double counts_per_apm =
            cfg.counter_clock_hz * cfg.periods_per_axis *
            (1.0 / cfg.front_end.oscillator.frequency_hz) / (ratio * hk);
        const bool ok = sweep.meets_one_degree();
        if (ok && counts_per_apm > best_sensitivity) {
            best_sensitivity = counts_per_apm;
            best_ratio = ratio;
        }
        table.add_row({util::format("%.1f", ratio),
                       util::format("%.1f",
                                    2e3 * cfg.front_end.oscillator.amplitude_a),
                       util::format("%.1f", counts_per_apm),
                       util::format("%.3f", sweep.error_stats.max_abs()),
                       ok ? "yes" : "NO"});
    }
    table.print();

    std::printf("\nsensitivity falls as 1/Ha, but below ~1.8 x Hk the pulses no "
                "longer separate\ncleanly and the accuracy collapses.\n");
    const bool reproduced = best_ratio >= 1.8 && best_ratio <= 2.4;
    std::printf("best accurate operating point: Ha = %.1f x Hk (paper: \"twice "
                "the saturation field\")  ->  %s\n",
                best_ratio, reproduced ? "REPRODUCED" : "CHECK");
    return reproduced ? 0 : 1;
}
