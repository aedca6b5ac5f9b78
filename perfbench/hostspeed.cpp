#include "hostspeed.hpp"

#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace perfbench {

namespace {

/// Enough for ten minutes of samples; later ones are dropped.
constexpr std::size_t kCapacity = std::size_t{1} << 16;

struct Sample {
    std::int64_t t_ns;    ///< steady-clock start of the reference run
    std::int64_t dur_ns;  ///< its duration
};

// Written only by the signal handler, which runs on the sampled thread.
Sample g_samples[kCapacity];
std::atomic<std::size_t> g_count{0};
std::atomic<std::int64_t> g_stolen_ns{0};
std::atomic<bool> g_active{false};

/// The reference kernel's input: fixed, so every build times the same work.
struct RefInput {
    double x[512];
    RefInput() {
        for (int i = 0; i < 512; ++i) x[i] = -2.0 + 4.0 * i / 511.0;
    }
};
const RefInput g_ref_input;
volatile double g_ref_sink;

std::int64_t now_ns() noexcept {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// libm tanh and exp over a fixed array: the transcendental work the
/// fluxgate core model is made of, ≈ 7.5 us per rep on an unloaded vCPU.
void reference_kernel(int reps) noexcept {
    double acc = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        for (const double x : g_ref_input.x) acc += std::tanh(x + rep * 1e-3) + std::exp(-x);
    }
    g_ref_sink = acc;
}

void on_timer(int) {
    if (!g_active.load(std::memory_order_relaxed)) return;
    const int saved_errno = errno;
    // One untimed rep brings the kernel's code and data back into the
    // caches the workload has evicted, so the timed reps measure the
    // core's speed rather than the memory system's.
    const std::int64_t warm = now_ns();
    reference_kernel(1);
    const std::int64_t t0 = now_ns();
    reference_kernel(4);
    const std::int64_t t1 = now_ns();
    const std::int64_t dur = t1 - t0;
    const std::size_t i = g_count.load(std::memory_order_relaxed);
    if (i < kCapacity) {
        g_samples[i] = {t0, dur};
        g_count.store(i + 1, std::memory_order_release);
    }
    g_stolen_ns.fetch_add(t1 - warm, std::memory_order_relaxed);
    errno = saved_errno;
}

std::int64_t to_ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

/// Median reference time of the samples [lo, hi) [us].
double median_us(const Sample* lo, const Sample* hi) {
    std::vector<double> v;
    for (const Sample* s = lo; s != hi; ++s) v.push_back(static_cast<double>(s->dur_ns) * 1e-3);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
}

}  // namespace

HostSpeed::HostSpeed() {
    static_assert(std::is_same_v<Clock, std::chrono::steady_clock>,
                  "samples are stamped with CLOCK_MONOTONIC, steady_clock's clock");
    if (g_active.exchange(true)) throw std::logic_error("HostSpeed: one instance at a time");
    g_count.store(0);

    struct sigaction sa = {};
    sa.sa_handler = on_timer;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigevent sev = {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGRTMIN;
    sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    timer_t timer;
    if (sigaction(SIGRTMIN, &sa, nullptr) != 0 ||
        timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
        g_active.store(false);
        throw std::runtime_error("HostSpeed: cannot create the sampling timer");
    }
    timer_ = timer;
    itimerspec period = {};
    period.it_interval.tv_nsec = kPeriodMs * 1000000L;
    period.it_value = period.it_interval;
    timer_settime(timer, 0, &period, nullptr);
    // A factor needs kMinSamples samples.
    for (int waited = 0; samples() < kMinSamples; ++waited) {
        if (waited == 100 * static_cast<int>(kMinSamples)) {
            g_active.store(false);
            timer_delete(timer);
            throw std::runtime_error("HostSpeed: the sampling timer does not fire");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(kPeriodMs));
    }
}

HostSpeed::~HostSpeed() {
    // The handler stays installed and returns at once when inactive, so
    // a signal still pending after timer_delete is harmless.
    g_active.store(false);
    timer_delete(static_cast<timer_t>(timer_));
}

double HostSpeed::stolen_s() noexcept {
    return static_cast<double>(g_stolen_ns.load(std::memory_order_relaxed)) * 1e-9;
}

std::size_t HostSpeed::samples() const noexcept {
    return std::min(g_count.load(std::memory_order_acquire), kCapacity);
}

double HostSpeed::factor(Clock::time_point t0, Clock::time_point t1) const {
    const std::size_t n = samples();
    if (n < kMinSamples) throw std::runtime_error("HostSpeed: too few samples for a factor");
    // Samples are in time order: take those inside [t0, t1], then widen
    // around the interval until there are kMinSamples.
    const std::int64_t a = to_ns(t0), b = to_ns(t1);
    const Sample* first = g_samples;
    const Sample* last = g_samples + n;
    const Sample* lo = std::lower_bound(first, last, a, [](const Sample& s, std::int64_t t) {
        return s.t_ns < t;
    });
    const Sample* hi = std::upper_bound(lo, last, b, [](std::int64_t t, const Sample& s) {
        return t < s.t_ns;
    });
    while (static_cast<std::size_t>(hi - lo) < kMinSamples) {
        if (lo > first) --lo;
        if (hi < last && static_cast<std::size_t>(hi - lo) < kMinSamples) ++hi;
    }
    return std::pow(median_us(lo, hi) / kNominalRefUs, kExponent);
}

double HostSpeed::median_ref_us() const {
    const std::size_t n = samples();
    return n == 0 ? 0.0 : median_us(g_samples, g_samples + n);
}

}  // namespace perfbench
