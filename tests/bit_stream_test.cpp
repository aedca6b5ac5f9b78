// Tests for the block path's one-bit sample streams (util/bits.hpp: bit
// j of word w is sample 64w + j). Each word path is checked against the
// per-sample path it stands for: the detector's carry-chain latches
// against step(), the stream statistics and the counter's word clock
// against per-sample models, the fault injector's word masks against
// the per-sample fault semantics over random chunkings, and a front end
// whose field source splits a block into runs at odd offsets against
// step(). The lane engine's transposition of per-sample lane bytes into
// per-lane words is checked against its definition.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analog/detector.hpp"
#include "analog/front_end.hpp"
#include "core/compass.hpp"
#include "digital/counter.hpp"
#include "fault/fault_injector.hpp"
#include "magnetics/field_source.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace fxg {
namespace {

using analog::Channel;
using analog::DetectorConfig;
using analog::PulsePositionDetector;
using fault::FaultClass;
using fault::FaultSpec;
using fault::Persistence;

using Words = std::vector<std::uint64_t>;

Words pack(const std::vector<bool>& bits) {
    Words w(static_cast<std::size_t>(util::bits::words_for(static_cast<int>(bits.size()))), 0);
    for (std::size_t k = 0; k < bits.size(); ++k) {
        if (bits[k]) w[k / 64] |= std::uint64_t{1} << (k % 64);
    }
    return w;
}

bool bit_at(const Words& w, int k) { return ((w[k / 64] >> (k % 64)) & 1u) != 0; }

std::vector<bool> random_bits(std::size_t n, double p_high, std::mt19937_64& rng) {
    std::bernoulli_distribution high(p_high);
    std::vector<bool> b(n);
    for (std::size_t k = 0; k < n; ++k) b[k] = high(rng);
    return b;
}

/// A stream with long runs: all-high and all-low stretches that cover
/// whole words, and scattered holes, as the mux and the faults make.
std::vector<bool> runs_with_holes(std::size_t n, std::mt19937_64& rng) {
    std::vector<bool> b(n);
    std::uniform_int_distribution<int> run_len(1, 150);
    std::uniform_int_distribution<int> kind(0, 3);
    std::bernoulli_distribution coin(0.6);
    for (std::size_t k = 0; k < n;) {
        const int len = run_len(rng);
        const int what = kind(rng);
        for (int i = 0; i < len && k < n; ++i, ++k) {
            b[k] = what == 0 ? false : what == 1 ? coin(rng) : true;
        }
    }
    return b;
}

/// Random chunk lengths covering n samples: single samples, partial
/// words, exact words and runs across several words.
std::vector<int> random_chunks(int n, std::mt19937_64& rng) {
    std::uniform_int_distribution<int> len(1, 200);
    std::bernoulli_distribution tiny(0.2);
    std::vector<int> chunks;
    for (int done = 0; done < n;) {
        const int c = std::min(n - done, tiny(rng) ? 1 : len(rng));
        chunks.push_back(c);
        done += c;
    }
    return chunks;
}

// ------------------------------------------------------------- detector

/// Inputs that cross both thresholds, sit exactly on the comparator
/// levels, or are NaN, zero or infinite.
std::vector<double> detector_inputs(int n, const DetectorConfig& cfg, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const double t = cfg.threshold_v;
    const double h = 0.5 * cfg.comparator_hysteresis_v;
    const double o = cfg.comparator_offset_v;
    const double exact[] = {o + t + h, o + t - h, -(o + t + h), -(o + t - h), o + t,
                            -(o + t), 0.0, -0.0};
    std::uniform_real_distribution<double> wide(-2.5 * t, 2.5 * t);
    std::uniform_int_distribution<int> pick(0, 19);
    std::vector<double> v(static_cast<std::size_t>(n));
    for (double& x : v) {
        const int p = pick(rng);
        if (p < 8) {
            x = exact[p];
        } else if (p == 8) {
            x = std::numeric_limits<double>::quiet_NaN();
        } else if (p == 9) {
            x = (rng() & 1) != 0 ? std::numeric_limits<double>::infinity()
                                 : -std::numeric_limits<double>::infinity();
        } else {
            x = wide(rng);
        }
    }
    return v;
}

void expect_same_state(const PulsePositionDetector::State& a,
                       const PulsePositionDetector::State& b) {
    EXPECT_EQ(a.positive, b.positive);
    EXPECT_EQ(a.negative, b.negative);
    EXPECT_EQ(a.prev_pos, b.prev_pos);
    EXPECT_EQ(a.prev_neg, b.prev_neg);
    EXPECT_EQ(a.out, b.out);
}

/// step_block over `v` against v.size() step() calls from state `s0`.
void expect_detector_matches_step(const DetectorConfig& cfg, double offset_fault,
                                  const PulsePositionDetector::State& s0,
                                  const std::vector<double>& v) {
    const int n = static_cast<int>(v.size());
    PulsePositionDetector stepped(cfg);
    PulsePositionDetector blocked(cfg);
    for (PulsePositionDetector* d : {&stepped, &blocked}) {
        d->set_comparator_offset_fault(offset_fault);
        d->load_state(s0);
    }
    std::vector<bool> expect;
    for (const double x : v) expect.push_back(stepped.step(x));
    // Filled with ones, so a word the block path fails to write, or a
    // tail bit it leaves set, shows.
    Words got(static_cast<std::size_t>(util::bits::words_for(n)), ~std::uint64_t{0});
    blocked.step_block(v.data(), n, got.data());
    EXPECT_EQ(got, pack(expect));
    expect_same_state(blocked.save_state(), stepped.save_state());
}

DetectorConfig zero_hysteresis() {
    DetectorConfig cfg;
    cfg.comparator_hysteresis_v = 0.0;
    return cfg;
}

DetectorConfig offset_detector() {
    DetectorConfig cfg;
    cfg.threshold_v = 15e-3;
    cfg.comparator_offset_v = 1.5e-3;
    cfg.comparator_hysteresis_v = 4e-3;
    return cfg;
}

TEST(WordDetector, EveryTailLengthMatchesStep) {
    for (const DetectorConfig& cfg : {DetectorConfig{}, zero_hysteresis(), offset_detector()}) {
        for (int n = 1; n <= 130; ++n) {
            SCOPED_TRACE("hysteresis " + std::to_string(cfg.comparator_hysteresis_v) +
                         ", n = " + std::to_string(n));
            expect_detector_matches_step(cfg, 0.0, {},
                                         detector_inputs(n, cfg, 1000 + std::uint64_t(n)));
        }
    }
}

TEST(WordDetector, LongRandomBlocksMatchStep) {
    for (const double fault : {0.0, 2.5e-3, -4e-3}) {
        for (const DetectorConfig& cfg :
             {DetectorConfig{}, zero_hysteresis(), offset_detector()}) {
            SCOPED_TRACE("offset fault " + std::to_string(fault));
            expect_detector_matches_step(cfg, fault, {}, detector_inputs(2048, cfg, 7));
            expect_detector_matches_step(cfg, fault, {}, detector_inputs(4099, cfg, 8));
        }
    }
}

TEST(WordDetector, EveryLatchStateMatchesStep) {
    // load_state can set prev_pos != positive (and prev_neg != negative),
    // which step() never leaves behind: the edge logic then reads the
    // loaded prev_* for the first sample and the latches their own state.
    for (unsigned bits = 0; bits < 32; ++bits) {
        const PulsePositionDetector::State s0{(bits & 1) != 0, (bits & 2) != 0,
                                              (bits & 4) != 0, (bits & 8) != 0,
                                              (bits & 16) != 0};
        for (const int n : {1, 2, 63, 64, 65, 200}) {
            for (const DetectorConfig& cfg : {DetectorConfig{}, zero_hysteresis()}) {
                SCOPED_TRACE("state bits " + std::to_string(bits) + ", n = " +
                             std::to_string(n));
                expect_detector_matches_step(cfg, 0.0, s0,
                                             detector_inputs(n, cfg, 31 * bits + n));
            }
        }
    }
}

TEST(WordDetector, NaNHoldsEveryLatch) {
    // A NaN sample crosses neither threshold: both comparators hold, so
    // no edge fires and the output holds, on both paths.
    const DetectorConfig cfg;
    std::vector<double> v(70, std::numeric_limits<double>::quiet_NaN());
    v[0] = 1.0;  // positive latch high
    v[69] = 0.0;  // positive pulse ends only here
    expect_detector_matches_step(cfg, 0.0, {}, v);
    PulsePositionDetector det(cfg);
    Words out(2, 0);
    det.step_block(v.data(), static_cast<int>(v.size()), out.data());
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], std::uint64_t{1} << 5);  // set by sample 69 only
}

// ----------------------------------------------------- stream statistics

struct StatsModel {
    analog::StreamStats s;
    bool prev = false;
    bool has_prev = false;

    void sample(bool det, bool valid) {
        ++s.samples;
        if (!valid) return;
        ++s.valid_samples;
        s.high_samples += det ? 1 : 0;
        if (has_prev && det != prev) ++s.edges;
        prev = det;
        has_prev = true;
    }
};

/// Overwrites each block's emitted streams (detector x, y, valid x, y)
/// with the words it holds, so the front end folds a test's streams
/// into its statistics as it does its own.
class StreamWriter final : public analog::SampleTap {
public:
    Words words[4];

    void on_samples(std::uint64_t, int n, std::uint64_t* detector_x,
                    std::uint64_t* detector_y, std::uint64_t* valid_x,
                    std::uint64_t* valid_y) override {
        std::uint64_t* const out[4] = {detector_x, detector_y, valid_x, valid_y};
        for (std::size_t s = 0; s < 4; ++s) {
            ASSERT_EQ(words[s].size(), static_cast<std::size_t>(util::bits::words_for(n)));
            std::copy(words[s].begin(), words[s].end(), out[s]);
        }
    }
};

TEST(WordStats, ValidWordsWithHolesMatchPerSampleModel) {
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 1500 + trial * 37;
        const std::vector<bool> det[2] = {random_bits(n, 0.5, rng), runs_with_holes(n, rng)};
        const std::vector<bool> valid[2] = {runs_with_holes(n, rng),
                                            random_bits(n, trial % 2 == 0 ? 0.8 : 1.0, rng)};
        analog::FrontEnd fe;
        StreamWriter writer;
        fe.set_sample_tap(&writer);
        analog::FrontEndBlock block;
        StatsModel model[2];
        int done = 0;
        for (const int c : random_chunks(n, rng)) {
            std::vector<bool> chunk[4];
            for (int k = done; k < done + c; ++k) {
                for (std::size_t ch = 0; ch < 2; ++ch) {
                    chunk[ch].push_back(det[ch][k]);
                    chunk[2 + ch].push_back(valid[ch][k]);
                    model[ch].sample(det[ch][k], valid[ch][k]);
                }
            }
            for (std::size_t st = 0; st < 4; ++st) writer.words[st] = pack(chunk[st]);
            fe.step_block(125e-6 / 2048, c, block);
            done += c;
        }
        const analog::FrontEnd::StreamWindowState ws = fe.save_window_state();
        EXPECT_EQ(ws.sample_index, static_cast<std::uint64_t>(n));
        for (std::size_t ch = 0; ch < 2; ++ch) {
            SCOPED_TRACE("trial " + std::to_string(trial) + ", channel " + std::to_string(ch));
            EXPECT_EQ(ws.stats[ch].samples, model[ch].s.samples);
            EXPECT_EQ(ws.stats[ch].valid_samples, model[ch].s.valid_samples);
            EXPECT_EQ(ws.stats[ch].high_samples, model[ch].s.high_samples);
            EXPECT_EQ(ws.stats[ch].edges, model[ch].s.edges);
            EXPECT_EQ(ws.prev[ch] != 0, model[ch].prev);
            EXPECT_EQ(ws.has_prev[ch], model[ch].has_prev);
        }
    }
}

// --------------------------------------------------------------- counter

/// Clocks `blocked` over random high/valid streams in random chunks and
/// `stepped` through step() on the valid samples, then compares them.
void expect_counter_matches_step(digital::UpDownCounter& stepped,
                                 digital::UpDownCounter& blocked, double dt, int n,
                                 std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const std::vector<bool> high = random_bits(static_cast<std::size_t>(n), 0.5, rng);
    const std::vector<bool> valid = runs_with_holes(static_cast<std::size_t>(n), rng);
    for (int k = 0; k < n; ++k) {
        if (valid[k]) stepped.step(high[k], dt);
    }
    int done = 0;
    for (const int c : random_chunks(n, rng)) {
        const std::vector<bool> h(high.begin() + done, high.begin() + done + c);
        const std::vector<bool> v(valid.begin() + done, valid.begin() + done + c);
        blocked.step_block(pack(h).data(), pack(v).data(), dt, c);
        done += c;
    }
    EXPECT_EQ(blocked.count(), stepped.count());
    EXPECT_EQ(blocked.active_ticks(), stepped.active_ticks());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(blocked.save_state().tick_accumulator),
              std::bit_cast<std::uint64_t>(stepped.save_state().tick_accumulator));
    EXPECT_EQ(blocked.overflowed(), stepped.overflowed());
    EXPECT_EQ(blocked.trap_pending(), stepped.trap_pending());
}

TEST(WordCounter, PartialWordsMatchStep) {
    for (int trial = 0; trial < 10; ++trial) {
        digital::UpDownCounter stepped, blocked;
        expect_counter_matches_step(stepped, blocked, 125e-6 / 2048, 3000 + trial, trial);
    }
}

TEST(WordCounter, SeveralTicksPerSampleMatchStep) {
    // inc = dt * f_clk of 1, 2.75 and 37.3 clock periods per sample: the
    // clock steps through floor() and a sample carries several ticks.
    for (const double inc : {1.0, 2.75, 37.3}) {
        SCOPED_TRACE("inc " + std::to_string(inc));
        digital::UpDownCounter stepped(1e6), blocked(1e6);
        expect_counter_matches_step(stepped, blocked, inc * 1e-6, 2500, 5);
    }
}

TEST(WordCounter, HardwareRegistersMatchStep) {
    digital::CounterHardware narrow;
    narrow.width_bits = 6;
    digital::CounterHardware stuck;
    stuck.stuck_bit = 2;
    stuck.stuck_high = true;
    digital::CounterHardware trap;
    trap.width_bits = 5;
    trap.trap_on_overflow = true;
    trap.stuck_bit = 0;
    for (const digital::CounterHardware& hw : {narrow, stuck, trap}) {
        SCOPED_TRACE("width " + std::to_string(hw.width_bits) + ", stuck bit " +
                     std::to_string(hw.stuck_bit));
        digital::UpDownCounter stepped(1e6), blocked(1e6);
        stepped.set_hardware(hw);
        blocked.set_hardware(hw);
        expect_counter_matches_step(stepped, blocked, 0.7e-6, 4000, 11);
        EXPECT_TRUE(blocked.overflowed() || hw.width_bits == 0);
    }
}

// -------------------------------------------------------- fault injector

/// The per-sample semantics of one stream fault (fault_injector.hpp).
struct FaultModel {
    FaultSpec spec;
    bool frozen = false;
    bool has_frozen = false;

    bool active(std::uint64_t rel) const {
        if (rel < spec.start_sample) return false;
        const std::uint64_t offset = rel - spec.start_sample;
        switch (spec.persistence) {
            case Persistence::Permanent: return true;
            case Persistence::Transient: return offset < spec.duration_samples;
            case Persistence::Intermittent:
                return offset % spec.period_samples < spec.duration_samples;
        }
        return false;
    }

    bool apply(std::uint64_t index, std::uint64_t base, bool bit) {
        const bool on = active(index - base);
        switch (spec.fault) {
            case FaultClass::DetectorStuckLow: return on ? false : bit;
            case FaultClass::DetectorStuckHigh: return on ? true : bit;
            case FaultClass::PickupOpen:
                if (on) return has_frozen && frozen;
                frozen = bit;
                has_frozen = true;
                return bit;
            case FaultClass::NoiseBurst: {
                const double u = static_cast<double>(
                                     util::splitmix64(spec.seed ^ index, 0) >> 11) *
                                 0x1.0p-53;
                return on && u < spec.magnitude ? !bit : bit;
            }
            default: return bit;
        }
    }
};

FaultSpec stream_fault(FaultClass fault, Persistence persistence, Channel channel,
                       std::uint64_t start, std::uint64_t duration, std::uint64_t period) {
    FaultSpec spec;
    spec.fault = fault;
    spec.persistence = persistence;
    spec.channel = channel;
    spec.start_sample = start;
    spec.duration_samples = duration;
    spec.period_samples = period;
    spec.magnitude = 0.3;
    spec.seed = 77 + start;
    return spec;
}

/// Runs `specs` through an armed injector over random chunkings of
/// random streams, and through the per-sample model, from sample
/// `first` with the arm-time base moved to `base`.
void expect_injector_matches_model(const std::vector<FaultSpec>& specs,
                                   std::uint64_t base, std::uint64_t first,
                                   std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const int n = 1200;
    const std::vector<bool> det[2] = {random_bits(n, 0.5, rng), runs_with_holes(n, rng)};
    std::vector<FaultModel> models;
    for (const FaultSpec& s : specs) models.push_back({s});
    std::vector<bool> expect[2] = {det[0], det[1]};
    for (FaultModel& m : models) {  // spec-outer, as the injector
        std::vector<bool>& stream = expect[static_cast<std::size_t>(m.spec.channel)];
        for (int k = 0; k < n; ++k) {
            stream[k] = m.apply(first + static_cast<std::uint64_t>(k), base, stream[k]);
        }
    }

    compass::Compass compass;
    fault::FaultInjector injector;
    for (const FaultSpec& s : specs) injector.add(s);
    injector.arm(compass);
    fault::FaultInjector::TapState st = injector.save_tap_state();
    st.base_sample = base;
    injector.load_tap_state(st);
    std::vector<bool> got[2];
    int done = 0;
    for (const int c : random_chunks(n, rng)) {
        Words d[2], v[2];
        for (std::size_t ch = 0; ch < 2; ++ch) {
            d[ch] = pack(std::vector<bool>(det[ch].begin() + done, det[ch].begin() + done + c));
            v[ch] = Words(d[ch].size(), 0);
        }
        injector.on_samples(first + static_cast<std::uint64_t>(done), c, d[0].data(),
                            d[1].data(), v[0].data(), v[1].data());
        for (std::size_t ch = 0; ch < 2; ++ch) {
            for (int k = 0; k < c; ++k) got[ch].push_back(bit_at(d[ch], k));
            EXPECT_EQ(d[ch].back() & ~util::bits::low_mask(c % 64 == 0 ? 64 : c % 64), 0u)
                << "tail bits set";
        }
        done += c;
    }
    EXPECT_EQ(got[0], expect[0]);
    EXPECT_EQ(got[1], expect[1]);
    const fault::FaultInjector::TapState end = injector.save_tap_state();
    for (std::size_t i = 0; i < models.size(); ++i) {
        EXPECT_EQ(end.has_frozen[i] != 0, models[i].has_frozen) << "spec " << i;
        if (models[i].has_frozen) {
            EXPECT_EQ(end.frozen[i] != 0, models[i].frozen) << "spec " << i;
        }
    }
    injector.disarm();
}

TEST(WordFaultInjector, EveryStreamFaultClassAndPersistenceMatchesPerSampleModel) {
    // Intermittent periods below and above 64, and windows whose runs
    // start, end or span word boundaries.
    struct Window {
        Persistence persistence;
        std::uint64_t start, duration, period;
    };
    const Window windows[] = {
        {Persistence::Permanent, 0, ~std::uint64_t{0}, 0},
        {Persistence::Permanent, 300, ~std::uint64_t{0}, 0},
        {Persistence::Transient, 70, 130, 0},
        {Persistence::Transient, 64, 64, 0},
        {Persistence::Intermittent, 0, 3, 7},
        {Persistence::Intermittent, 10, 40, 64},
        {Persistence::Intermittent, 5, 130, 200},
        {Persistence::Intermittent, 33, 0, 9},
    };
    std::uint64_t seed = 1;
    for (const FaultClass fault : {FaultClass::DetectorStuckLow, FaultClass::DetectorStuckHigh,
                                   FaultClass::PickupOpen, FaultClass::NoiseBurst}) {
        for (const Window& w : windows) {
            for (const Channel ch : {Channel::X, Channel::Y}) {
                SCOPED_TRACE(std::string(fault::to_string(fault)) + " " +
                             fault::to_string(w.persistence) + " start " +
                             std::to_string(w.start) + " duration " +
                             std::to_string(w.duration) + " period " +
                             std::to_string(w.period));
                const FaultSpec spec =
                    stream_fault(fault, w.persistence, ch, w.start, w.duration, w.period);
                expect_injector_matches_model({spec}, 0, 0, ++seed);
                expect_injector_matches_model({spec}, 1000, 1037, ++seed);
            }
        }
    }
}

TEST(WordFaultInjector, StackedSpecsApplyInOrder) {
    // Each spec transforms the stream the previous one left: a noise
    // burst then an intermittent open winding on the same channel, and
    // a stuck-high transient then a stuck-low intermittent.
    expect_injector_matches_model(
        {stream_fault(FaultClass::NoiseBurst, Persistence::Intermittent, Channel::X, 3, 50, 90),
         stream_fault(FaultClass::PickupOpen, Persistence::Intermittent, Channel::X, 0, 20, 45),
         stream_fault(FaultClass::DetectorStuckHigh, Persistence::Transient, Channel::Y, 100,
                      500, 0),
         stream_fault(FaultClass::DetectorStuckLow, Persistence::Intermittent, Channel::Y, 7,
                      13, 31)},
        0, 0, 404);
}

TEST(WordFaultInjector, RelativeIndexWrapsAsPerSample) {
    // Samples before the arm-time base give relative indices near 2^64;
    // a window is evaluated on them mod 2^64, as per sample.
    for (const Persistence p :
         {Persistence::Permanent, Persistence::Transient, Persistence::Intermittent}) {
        const FaultSpec spec = stream_fault(FaultClass::DetectorStuckHigh, p, Channel::X, 0,
                                            p == Persistence::Transient ? 90 : 25, 60);
        expect_injector_matches_model({spec}, 500, 380, 808);
    }
}

// -------------------------------------------- field-source runs, any offset

/// Piecewise-constant field whose segments end at odd sample indices, so
/// FrontEnd::step_block splits a block into runs that start inside
/// words.
class OddSegments final : public magnetics::FieldSource {
public:
    magnetics::FieldTick field_at(std::uint64_t k) const override {
        const std::uint64_t seg = segment(k);
        return {10.0 + 3.0 * static_cast<double>(seg % 5),
                -8.0 + 2.0 * static_cast<double>(seg % 3), 25.0};
    }
    std::uint64_t constant_until(std::uint64_t begin,
                                 magnetics::FieldTick* tick) const override {
        if (tick != nullptr) *tick = field_at(begin);
        const std::uint64_t seg = segment(begin);
        return seg < kEnds.size() ? kEnds[seg] : kForever;
    }

private:
    static constexpr std::array<std::uint64_t, 9> kEnds = {37, 38, 101, 163, 164,
                                                           300, 301, 555, 2100};
    static std::uint64_t segment(std::uint64_t k) {
        std::uint64_t s = 0;
        while (s < kEnds.size() && k >= kEnds[s]) ++s;
        return s;
    }
};

TEST(WordFrontEnd, FieldSourceRunsAtAnyOffsetMatchStep) {
    compass::CompassConfig cfg;
    cfg.front_end.pickup_noise_rms_v = 1e-3;
    compass::Compass stepped(cfg), blocked(cfg);
    const FaultSpec specs[] = {
        stream_fault(FaultClass::NoiseBurst, Persistence::Intermittent, Channel::X, 20, 50, 77),
        stream_fault(FaultClass::PickupOpen, Persistence::Intermittent, Channel::Y, 0, 40, 150)};
    fault::FaultInjector inj_s, inj_b;
    for (const FaultSpec& s : specs) {
        inj_s.add(s);
        inj_b.add(s);
    }
    inj_s.arm(stepped);
    inj_b.arm(blocked);
    const auto source = std::make_shared<OddSegments>();
    stepped.front_end().set_field_source(source);
    blocked.front_end().set_field_source(source);
    const double dt = 125e-6 / 2048;
    analog::FrontEndBlock block;
    for (const int n : {700, 1, 500, 63, 900}) {
        SCOPED_TRACE("block of " + std::to_string(n));
        std::vector<bool> det[2], valid[2];
        for (int k = 0; k < n; ++k) {
            const analog::FrontEndSample s = stepped.front_end().step(dt);
            for (std::size_t ch = 0; ch < 2; ++ch) {
                det[ch].push_back(s.detector[ch]);
                valid[ch].push_back(s.valid[ch]);
            }
        }
        blocked.front_end().step_block(dt, n, block);
        for (std::size_t ch = 0; ch < 2; ++ch) {
            EXPECT_EQ(block.detector[ch], pack(det[ch])) << "detector " << ch;
            EXPECT_EQ(block.valid[ch], pack(valid[ch])) << "valid " << ch;
            const analog::StreamStats& a = stepped.front_end().stream_stats(Channel(static_cast<int>(ch)));
            const analog::StreamStats& b = blocked.front_end().stream_stats(Channel(static_cast<int>(ch)));
            EXPECT_EQ(a.valid_samples, b.valid_samples);
            EXPECT_EQ(a.high_samples, b.high_samples);
            EXPECT_EQ(a.edges, b.edges);
        }
        stepped.front_end().select(n % 2 == 0 ? Channel::Y : Channel::X);
        blocked.front_end().select(n % 2 == 0 ? Channel::Y : Channel::X);
    }
}

// ------------------------------------------------------ lane transpose

using Plane = std::array<std::uint8_t, 64>;

/// transpose_lanes() against transpose_lanes_portable() and against the
/// definition: bit t of word l is bit l of byte t.
void expect_transposes(const Plane& bytes, bool check_definition) {
    std::array<std::uint64_t, 8> fast{}, portable{};
    util::bits::transpose_lanes(bytes.data(), fast.data());
    util::bits::transpose_lanes_portable(bytes.data(), portable.data());
    ASSERT_EQ(fast, portable);
    if (!check_definition) return;
    for (int l = 0; l < 8; ++l) {
        for (int t = 0; t < 64; ++t) {
            ASSERT_EQ((portable[static_cast<std::size_t>(l)] >> t) & 1,
                      (bytes[static_cast<std::size_t>(t)] >> l) & 1u)
                << "lane " << l << " sample " << t;
        }
    }
}

TEST(LaneTranspose, FastPathEqualsPortableLoopBitForBit) {
    Plane plane{};
    expect_transposes(plane, true);  // all zero
    plane.fill(0xFF);
    expect_transposes(plane, true);  // all ones
    for (int t = 0; t < 64; ++t) {
        // One-hot rows: one sample with every lane set.
        plane.fill(0);
        plane[static_cast<std::size_t>(t)] = 0xFF;
        expect_transposes(plane, true);
        // One bit: one lane at one sample.
        for (int l = 0; l < 8; ++l) {
            plane.fill(0);
            plane[static_cast<std::size_t>(t)] = static_cast<std::uint8_t>(1u << l);
            expect_transposes(plane, true);
        }
    }
    for (int l = 0; l < 8; ++l) {
        // One-hot columns: one lane set at every sample, and its
        // complement.
        plane.fill(static_cast<std::uint8_t>(1u << l));
        expect_transposes(plane, true);
        plane.fill(static_cast<std::uint8_t>(~(1u << l)));
        expect_transposes(plane, true);
    }
    std::mt19937_64 rng(0x7A45);
    for (int i = 0; i < 1'000'000; ++i) {
        for (int k = 0; k < 64; k += 8) {
            const std::uint64_t r = rng();
            for (int j = 0; j < 8; ++j) {
                plane[static_cast<std::size_t>(k + j)] = static_cast<std::uint8_t>(r >> (8 * j));
            }
        }
        expect_transposes(plane, i < 1000);
        if (testing::Test::HasFatalFailure()) return;
    }
}

}  // namespace
}  // namespace fxg
