#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"

namespace perfbench {

double SeededRng::exponential(double rate) noexcept {
    // 1 - u lies in (0, 1], so the log is finite.
    return -std::log(1.0 - uniform(0.0, 1.0)) / rate;
}

Environment draw_environment(SeededRng& rng) {
    Environment e;
    e.heading_deg = rng.uniform(0.0, 360.0);
    e.field_ut = rng.uniform(kMinHorizontalUt, kMaxHorizontalUt);
    return e;
}

void apply_environment(fxg::compass::Compass& compass, const Environment& env) {
    compass.set_environment(
        fxg::magnetics::EarthField(fxg::magnetics::microtesla(env.field_ut)),
        env.heading_deg);
}

double heading_error_deg(double measured, double truth) {
    const double d = std::fmod(std::fabs(measured - truth), 360.0);
    return d > 180.0 ? 360.0 - d : d;
}

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) throw std::invalid_argument("quantile of no samples");
    std::sort(samples.begin(), samples.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double segmented_quantile(const std::vector<double>& samples, double q,
                          std::size_t min_segment) {
    const std::size_t n = samples.size();
    const std::size_t k = std::max<std::size_t>(1, n / std::max<std::size_t>(1, min_segment));
    std::vector<double> per_segment;
    for (std::size_t i = 0; i < k; ++i) {
        per_segment.push_back(quantile(
            std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(i * n / k),
                                samples.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / k)),
            q));
    }
    return median(std::move(per_segment));
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) throw std::invalid_argument("mean of no samples");
    double s = 0.0;
    for (const double x : samples) s += x;
    return s / static_cast<double>(samples.size());
}

double fastest(const std::vector<double>& samples) {
    if (samples.empty()) throw std::invalid_argument("fastest of no samples");
    return *std::min_element(samples.begin(), samples.end());
}

double rss_kib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("RssAnon:", 0) == 0) return std::stod(line.substr(8));
    }
    throw std::runtime_error("no RssAnon in /proc/self/status");
}

void Digest::add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (word >> (8 * i)) & 0xFFu;
        h_ *= 0x100000001B3ull;
    }
}

void Digest::add(const fxg::compass::Measurement& m) noexcept {
    add(static_cast<std::uint64_t>(m.count_x));
    add(static_cast<std::uint64_t>(m.count_y));
    add(std::bit_cast<std::uint64_t>(m.heading_deg));
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

bool same_bits(const fxg::compass::Measurement& a,
               const fxg::compass::Measurement& b) noexcept {
    return a.count_x == b.count_x && a.count_y == b.count_y &&
           std::bit_cast<std::uint64_t>(a.heading_deg) ==
               std::bit_cast<std::uint64_t>(b.heading_deg) &&
           std::bit_cast<std::uint64_t>(a.energy_j) == std::bit_cast<std::uint64_t>(b.energy_j);
}

void Result::check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
        ++failed;
        if (failed <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

double Result::ok_ratio() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
}

}  // namespace perfbench
