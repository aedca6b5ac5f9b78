/// \file bench_counter_transfer.cpp
/// Experiment CNT1 — paper section 4: the 4.194304 MHz up/down counter
/// "transforms the output of the pulse detector into two integer values
/// x and y, each indicating the field component". Verifies the counter
/// transfer law count = f_clk * N * T * H/Ha (DESIGN.md sec. 5):
/// linearity vs applied field, and resolution scaling with both the
/// clock frequency and the number of integrated periods.

#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "magnetics/units.hpp"
#include "util/statistics.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

int main() {
    std::puts("=== CNT1: up/down counter transfer (paper section 4) ===\n");

    compass::CompassConfig cfg;
    bench::PlanRunner runner(cfg);
    const double ha = cfg.front_end.oscillator.amplitude_a *
                      cfg.front_end.sensor.field_per_amp();
    const double t_period = 1.0 / cfg.front_end.oscillator.frequency_hz;
    const double slope_theory =
        cfg.counter_clock_hz * cfg.periods_per_axis * t_period / ha;

    util::Table table("count vs applied field (N = 8 periods)");
    table.set_header({"H [A/m]", "count", "theory", "error [counts]"});
    std::vector<double> xs;
    std::vector<double> ys;
    for (double h : {-20.0, -15.0, -10.0, -5.0, -2.0, 0.0, 2.0, 5.0, 10.0, 15.0, 20.0}) {
        const auto c = runner.count_x_at(h);
        const double theory = slope_theory * h;
        table.add_row_values({h, static_cast<double>(c), theory,
                              static_cast<double>(c) - theory},
                             5);
        xs.push_back(h);
        ys.push_back(static_cast<double>(c));
    }
    table.print();
    const util::LinearFit fit = util::linear_fit(xs, ys);
    std::printf("\nlinear fit: slope %.2f counts per A/m (theory %.2f), "
                "r^2 = %.8f, offset %.2f counts\n",
                fit.slope, slope_theory, fit.r_squared, fit.intercept);

    // Resolution scaling with integration periods.
    util::Table res("resolution vs integration periods (H = 10 A/m)");
    res.set_header({"periods/axis", "count", "counts per A/m", "quantisation [deg "
                    "@ 15 A/m]"});
    for (int periods : {1, 2, 4, 8, 16, 32}) {
        compass::CompassConfig c2;
        c2.periods_per_axis = periods;
        bench::PlanRunner rp(c2);
        const auto count = rp.count_x_at(10.0);
        const double per_apm = static_cast<double>(count) / 10.0;
        // One count out of the full-scale radius (15 A/m here) in angle.
        const double quant_deg = 57.2958 / (per_apm * 15.0);
        res.add_row({std::to_string(periods), std::to_string(count),
                     util::format("%.1f", per_apm), util::format("%.4f", quant_deg)});
    }
    res.print();

    // Resolution scaling with counter clock.
    util::Table clk("resolution vs counter clock (8 periods, H = 10 A/m)");
    clk.set_header({"f_clk [MHz]", "count", "note"});
    for (double f : {1.048576e6, 2.097152e6, 4.194304e6, 8.388608e6}) {
        compass::CompassConfig c3;
        c3.counter_clock_hz = f;
        bench::PlanRunner rp(c3);
        clk.add_row({util::format("%.6f", f / 1e6),
                     std::to_string(rp.count_x_at(10.0)),
                     f == 4.194304e6 ? "<- paper's clock (2^22 Hz)" : ""});
    }
    clk.print();

    const bool reproduced = fit.r_squared > 0.9999;
    std::printf("\npaper shape (counter output linear in the field component)  ->  "
                "%s (r^2 = %.6f)\n",
                reproduced ? "REPRODUCED" : "CHECK", fit.r_squared);
    return reproduced ? 0 : 1;
}
