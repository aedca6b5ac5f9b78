/// \file bench_noise_robustness.cpp
/// Ablation ABL3 — noise robustness and integration depth. Band-limited
/// pickup-referred noise is swept against the number of integrated
/// excitation periods. Two regimes are shown:
///  * comparators with fixed minimal hysteresis: noise chatter at the
///    slow leading edge of a pickup pulse fakes a "pulse end" and the
///    detector loses the pulse-position information catastrophically;
///  * hysteresis scaled to the noise floor (the standard design rule,
///    ~8x rms): the detector degrades gracefully and integrating more
///    periods averages the residual edge jitter away.
/// This is the design reasoning behind the comparator sizing in the
/// paper's pulse-position detector (section 3.2).

#include <algorithm>
#include <cstdio>

#include "harness.hpp"
#include "magnetics/units.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fxg;

namespace {

double max_err(double noise_rms_v, int periods, bool scaled_hysteresis,
               std::uint64_t seed) {
    compass::CompassConfig cfg;
    cfg.front_end.pickup_noise_rms_v = noise_rms_v;
    cfg.front_end.noise_seed = seed;
    cfg.periods_per_axis = periods;
    if (scaled_hysteresis) {
        cfg.front_end.detector.comparator_hysteresis_v =
            std::max(2e-3, 8.0 * noise_rms_v);
    }
    bench::PlanRunner runner(cfg);
    const magnetics::EarthField field(magnetics::microtesla(48.0), 67.0);
    return runner.max_abs_error_deg(field, 30.0);
}

}  // namespace

int main() {
    std::puts("=== ABL3: pickup noise vs integration periods ===");
    std::puts("(pulse peaks ~95 mV, detector threshold 20 mV, noise band-limited "
              "to 100 kHz)\n");

    util::Table chatter("fixed 2 mV hysteresis: comparator chatter failure");
    chatter.set_header({"noise rms [mV]", "max err, N=8 [deg]"});
    for (double mv : {0.0, 0.5, 1.0, 2.0}) {
        chatter.add_row({util::format("%.1f", mv),
                         util::format("%.2f", max_err(mv * 1e-3, 8, false, 900))});
    }
    chatter.print();
    std::puts("-> even noise far below the threshold fakes pulse-end edges when\n"
              "   it exceeds the hysteresis at the pulse's slow leading ramp.\n");

    // With chatter designed out, the residual error is edge-time
    // jitter: the soft tanh knee leaves only ~2.4 mV/us of slope at the
    // 20 mV threshold crossing, so every mV of noise is ~0.4 us of edge
    // jitter. The counter averages 2N independent edges -> sqrt(N) gain.
    const int period_options[] = {2, 4, 8, 16};
    util::Table table("hysteresis scaled to 8x noise rms: max |err| [deg]");
    table.set_header({"noise rms [mV]", "N=2", "N=4", "N=8", "N=16"});
    for (double mv : {0.0, 0.25, 0.5, 1.0, 2.0}) {
        std::vector<std::string> row{util::format("%.2f", mv)};
        for (int periods : period_options) {
            const double e =
                max_err(mv * 1e-3, periods, true, 1000 + (unsigned)(mv * 28));
            row.push_back(util::format("%.3f%s", e, e <= 1.0 ? "" : " !"));
        }
        table.add_row(row);
    }
    table.print();
    std::puts("('!' marks cells over the paper's one-degree budget)");

    const double noisy_short = max_err(1e-3, 2, true, 1070);
    const double noisy_long = max_err(1e-3, 16, true, 1070);
    std::printf("\nat 1 mV rms: N=2 -> %.2f deg, N=16 -> %.2f deg "
                "(sqrt(N) averaging)\n",
                noisy_short, noisy_long);
    std::puts("\ndesign insight: the pulse tails of the soft-knee core cross the");
    std::puts("threshold at only ~2.4 mV/us, so the 1-degree budget demands <~0.5 mV");
    std::puts("rms at the comparator (40+ dB SNR) unless more periods are integrated.");
    const bool pass = noisy_long < noisy_short;
    std::printf("shape (errors grow with noise, shrink with integration depth)  ->  %s\n",
                pass ? "REPRODUCED" : "CHECK");
    return pass ? 0 : 1;
}
