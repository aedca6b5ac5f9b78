/// \file bench_multiplex_power.cpp
/// Experiment MUX1 — paper section 2: "The system uses a multiplexing
/// technique by exciting one sensor at a time. This reduces both
/// momental power consumption and chip area since only one oscillator
/// is needed." Compares the paper's multiplexed front end against the
/// simultaneous (everything duplicated) baseline on momentary power,
/// energy per fix, oscillator count and analogue area, plus the effect
/// of power gating between fixes (section 4).

#include <cstdio>

#include "analog/front_end.hpp"
#include "core/compass.hpp"
#include "core/power_budget.hpp"
#include "magnetics/units.hpp"
#include "sog/builders.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

int main() {
    std::puts("=== MUX1: multiplexed vs simultaneous front end ===\n");

    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);

    // Momentary power at the excitation peak.
    analog::FrontEndConfig mux_cfg;
    analog::FrontEndConfig sim_cfg;
    sim_cfg.mode = analog::FrontEndMode::Simultaneous;
    analog::FrontEnd fe_mux(mux_cfg);
    analog::FrontEnd fe_sim(sim_cfg);

    util::Table table("architecture comparison");
    table.set_header({"metric", "multiplexed (paper)", "simultaneous baseline"});
    table.add_row({"oscillators", std::to_string(fe_mux.oscillator_count()),
                   std::to_string(fe_sim.oscillator_count())});
    table.add_row({"momentary power @ 6 mA peak",
                   util::format("%.2f mW", fe_mux.momentary_power_w(6e-3) * 1e3),
                   util::format("%.2f mW", fe_sim.momentary_power_w(6e-3) * 1e3)});
    table.add_row({"momentary power, gated off",
                   util::format("%.3f mW",
                                [&] {
                                    fe_mux.enable(false);
                                    const double p = fe_mux.momentary_power_w(0.0);
                                    fe_mux.enable(true);
                                    return p * 1e3;
                                }()),
                   "(same leakage)"});

    // Full measurements through the compass pipeline.
    compass::CompassConfig mux_compass;
    compass::CompassConfig sim_compass;
    sim_compass.front_end.mode = analog::FrontEndMode::Simultaneous;
    compass::Compass cm(mux_compass);
    compass::Compass cs(sim_compass);
    cm.set_environment(field, 123.0);
    cs.set_environment(field, 123.0);
    const compass::Measurement mm = cm.measure();
    const compass::Measurement ms = cs.measure();
    table.add_row({"avg power during a fix",
                   util::format("%.2f mW", mm.avg_power_w * 1e3),
                   util::format("%.2f mW", ms.avg_power_w * 1e3)});
    table.add_row({"energy per fix", util::format("%.1f uJ", mm.energy_j * 1e6),
                   util::format("%.1f uJ", ms.energy_j * 1e6)});
    table.add_row({"heading error at 123 deg",
                   util::format("%.3f deg", mm.heading_deg - 123.0),
                   util::format("%.3f deg", ms.heading_deg - 123.0)});

    // Analogue area: the second architecture duplicates the oscillator
    // (with its 10 pF capacitor), one V-I stays per sensor either way.
    std::size_t mux_pairs = 0;
    for (const auto& m : sog::analogue_macros()) mux_pairs += m.pairs;
    std::size_t sim_pairs = mux_pairs;
    for (const auto& m : sog::analogue_macros()) {
        if (m.name.find("oscillator") != std::string::npos ||
            m.name.find("capacitor") != std::string::npos ||
            m.name.find("detector") != std::string::npos) {
            sim_pairs += m.pairs;  // duplicated blocks
        }
    }
    table.add_row({"analogue area [pairs]", std::to_string(mux_pairs),
                   std::to_string(sim_pairs)});
    table.print();

    // Battery life: the practical payoff (coin-cell watch at 1 fix/s).
    util::Table life("battery life, 230 mAh cell, 1 fix per second");
    life.set_header({"architecture", "avg power [uW]", "life [hours]", "life [years]"});
    {
        compass::Compass gated(mux_compass);
        gated.set_environment(field, 0.0);
        const compass::PowerBudget pb = compass::estimate_power_budget(gated);
        life.add_row({"multiplexed + power gating",
                      util::format("%.1f", pb.average_power_w * 1e6),
                      util::format("%.0f", pb.battery_life_hours),
                      util::format("%.1f", pb.battery_life_hours / 8760.0)});
        compass::CompassConfig hot = mux_compass;
        hot.power_gating = false;
        compass::Compass always_on(hot);
        always_on.set_environment(field, 0.0);
        const compass::PowerBudget pb2 = compass::estimate_power_budget(always_on);
        life.add_row({"no power gating",
                      util::format("%.1f", pb2.average_power_w * 1e6),
                      util::format("%.0f", pb2.battery_life_hours),
                      util::format("%.2f", pb2.battery_life_hours / 8760.0)});
    }
    life.print();

    const double power_ratio =
        fe_sim.momentary_power_w(6e-3) / fe_mux.momentary_power_w(6e-3);
    std::printf("\nmomentary power ratio (simultaneous / multiplexed): %.2fx\n",
                power_ratio);
    std::printf("analogue area ratio: %.2fx\n",
                static_cast<double>(sim_pairs) / static_cast<double>(mux_pairs));
    std::printf("accuracy cost of multiplexing: none (same 1-degree budget)\n");
    const bool reproduced = power_ratio > 1.5 && sim_pairs > mux_pairs;
    std::printf("\npaper claim (multiplexing cuts momentary power and area, one "
                "oscillator)  ->  %s\n",
                reproduced ? "REPRODUCED" : "CHECK");
    return reproduced ? 0 : 1;
}
