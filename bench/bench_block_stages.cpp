/// \file bench_block_stages.cpp
/// Per-stage cost of the block path: nanoseconds (and, on x86-64, TSC
/// ticks) per sample for each stage of a default front end on
/// 2,048-sample blocks, and for a whole warmed Compass::measure().
///
/// The stages are built from a default CompassConfig and fed one into
/// the next, as FrontEnd::step_block and BlockEngine::advance run
/// them: the oscillator, the V-I drive (in place), the mux's settle
/// words (the mux never switches, so its all-settled path), the sensor
/// (tanh core included), the detector's words, the stream statistics
/// (analog::fold_stream_word per word), the counter, the supply power
/// and the energy sum. The energy sum is timed as BlockEngine writes
/// it: a loop adding onto an accumulator passed by reference. Each row
/// is the median over the blocks; a measure() row is divided by its
/// 2 x (settle + count periods) x 2,048 samples.
///
/// Pin it to one core (taskset -c 2) for steady numbers. It prints a
/// table and gates nothing.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "analog/front_end.hpp"
#include "core/compass.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "sensor/fluxgate_params.hpp"
#include "util/bits.hpp"
#include "util/simd.hpp"

namespace {

using namespace fxg;

std::uint64_t ticks_now() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return 0;
#endif
}

/// One row: the cost of each timed call, per sample.
struct Row {
    const char* name;
    std::vector<double> ns, ticks;

    template <class F>
    void time(int samples, F&& call) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t c0 = ticks_now();
        call();
        const std::uint64_t c1 = ticks_now();
        const auto t1 = std::chrono::steady_clock::now();
        ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() / samples);
        ticks.push_back(static_cast<double>(c1 - c0) / samples);
    }
};

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// BlockEngine::advance's energy sum.
[[gnu::noinline]] void energy_sum(const double* power, int n, double dt_s, double& energy_j) {
    for (int k = 0; k < n; ++k) energy_j += power[k] * dt_s;
}

}  // namespace

int main() {
    const compass::CompassConfig cfg;
    const analog::FrontEndConfig& fe = cfg.front_end;
    const int n = cfg.steps_per_period;
    const double dt = (1.0 / fe.oscillator.frequency_hz) / n;
    const magnetics::EarthField site(magnetics::microtesla(48.0), 67.0);

    analog::TriangleOscillator osc(fe.oscillator);
    analog::ViConverter vi(fe.vi);
    analog::AnalogMux mux(fe.mux_settle_s);
    sensor::FluxgateSensor sen(fe.sensor, sensor::make_core(fe.sensor, fe.core_kind));
    sen.set_external_field(site.horizontal_a_per_m());
    analog::PulsePositionDetector det(fe.detector);
    digital::UpDownCounter ctr(cfg.counter_clock_hz);
    const analog::FrontEnd front(fe);

    const int words = util::bits::words_for(n);
    std::vector<double> i(static_cast<std::size_t>(n)), v(i.size()), p(i.size());
    std::vector<std::uint64_t> out(static_cast<std::size_t>(words)), valid(out.size());
    analog::StreamStats stats;
    std::uint8_t prev = 0;
    bool has_prev = false;
    double energy_j = 0.0;

    Row rows[] = {{"oscillator", {}, {}},   {"V-I drive, in place", {}, {}},
                  {"mux settle words", {}, {}}, {"sensor (tanh core included)", {}, {}},
                  {"detector", {}, {}},     {"stream statistics", {}, {}},
                  {"counter", {}, {}},      {"supply power", {}, {}},
                  {"energy sum", {}, {}}};
    const int warm = 8;
    const int blocks = 400;
    for (int b = 0; b < warm + blocks; ++b) {
        if (b == warm) {
            for (Row& r : rows) r.ns.clear(), r.ticks.clear();
        }
        rows[0].time(n, [&] { osc.step_block(dt, n, i.data()); });
        rows[1].time(n, [&] {
            vi.drive_block(i.data(), fe.sensor.r_excitation_ohm, n, i.data());
        });
        rows[2].time(n, [&] { mux.step_block(dt, n, valid.data()); });
        rows[3].time(n, [&] { sen.step_block(i.data(), dt, n, v.data()); });
        rows[4].time(n, [&] { det.step_block(v.data(), n, out.data()); });
        rows[5].time(n, [&] {
            for (int w = 0; w < words; ++w) {
                analog::fold_stream_word(stats, prev, has_prev, out[static_cast<std::size_t>(w)],
                                         valid[static_cast<std::size_t>(w)],
                                         util::bits::bits_in_word(n, w));
            }
        });
        rows[6].time(n, [&] { ctr.step_block(out.data(), valid.data(), dt, n); });
        rows[7].time(n, [&] { front.supply_power_block(i.data(), n, p.data()); });
        rows[8].time(n, [&] { energy_sum(p.data(), n, dt, energy_j); });
    }

    compass::Compass compass(cfg);
    compass.set_environment(site, 275.0);
    const int samples_per_measure = 2 * (cfg.settle_periods + cfg.periods_per_axis) * n;
    const int measures = 25;
    Row whole{"whole measure()", {}, {}};
    for (int m = 0; m < warm + measures; ++m) {
        if (m == warm) whole.ns.clear(), whole.ticks.clear();
        whole.time(samples_per_measure, [&] { static_cast<void>(compass.measure()); });
    }

    std::printf("block path per stage: %d-sample blocks, median of %d (measure(): of %d), "
                "SIMD backend %s\n",
                n, blocks, measures, util::simd::backend_name());
    std::printf("%-30s %12s %14s\n", "stage", "ns/sample", "ticks/sample");
    for (const Row* r : {&rows[0], &rows[1], &rows[2], &rows[3], &rows[4], &rows[5], &rows[6],
                         &rows[7], &rows[8], &whole}) {
#if defined(__x86_64__)
        std::printf("%-30s %12.3f %14.3f\n", r->name, median(r->ns), median(r->ticks));
#else
        std::printf("%-30s %12.3f %14s\n", r->name, median(r->ns), "-");
#endif
    }
    // Keeps the sums live.
    std::printf("(count %lld, energy %.3g J, valid samples %llu)\n",
                static_cast<long long>(ctr.count()), energy_j,
                static_cast<unsigned long long>(stats.valid_samples));
    return 0;
}
