#include "sim/engine.hpp"

#include <algorithm>

namespace fxg::sim {

void BlockEngine::advance(analog::FrontEnd& front_end, analog::Channel channel,
                          int steps, double dt_s, digital::UpDownCounter* counter,
                          double& energy_j) {
    telemetry::Span span(telemetry_, "engine.block", static_cast<int>(channel));
    span.set_value(steps);
    const auto ch = static_cast<std::size_t>(channel);
    // Scratch per thread, not per engine: its capacity persists across
    // advances, and memory grows with threads rather than members.
    thread_local analog::FrontEndBlock block;
    int done = 0;
    while (done < steps) {
        const int n = std::min(kBlockSamples, steps - done);
        front_end.step_block(dt_s, n, block);
        // Energy accumulates in sample order onto the caller's running
        // sum — the same additions the scalar loop performs.
        const double* power = block.power_w.data();
        for (int k = 0; k < n; ++k) energy_j += power[k] * dt_s;
        if (counter != nullptr) {
            counter->step_block(block.detector[ch].data(), block.valid[ch].data(),
                                dt_s, n);
        }
        done += n;
    }
}

}  // namespace fxg::sim
