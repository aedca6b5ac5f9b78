/// \file service_test.cpp
/// The compassd service stack (DESIGN.md §16): wire-protocol framing
/// (round trip, CRC discipline, version gate, incremental reassembly,
/// fixed-seed byte-level mutations), the CompassService daemon end to
/// end over a real loopback socket — query serving, request coalescing
/// into fleet batches, admission control (pending-queue and connection
/// budgets, Retry-After semantics), degraded serving from a
/// fault-tripped member whose ladder never holds healthy replies, abrupt
/// client disconnects, a client that never reads its replies,
/// malformed-stream handling, prompt stop() and restart.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_injector.hpp"
#include "magnetics/earth_field.hpp"
#include "magnetics/units.hpp"
#include "service/client.hpp"
#include "service/compassd.hpp"
#include "service/protocol.hpp"
#include "snapshot/format.hpp"
#include "telemetry/introspect.hpp"
#include "util/net.hpp"

using namespace fxg;
using service::Frame;
using service::FrameReader;
using service::HeadingReply;
using service::HeadingRequest;
using service::kFrameHeaderSize;
using service::ProtocolError;
using service::ReplyStatus;

namespace {

magnetics::EarthField site() {
    return magnetics::EarthField(magnetics::microtesla(48.0), 67.0);
}

/// Small, fast pipeline for socket-focused tests.
compass::CompassConfig small_config() {
    compass::CompassConfig cfg;
    cfg.steps_per_period = 64;
    cfg.periods_per_axis = 1;
    cfg.settle_periods = 1;
    return cfg;
}

service::ServiceConfig small_service(int members) {
    service::ServiceConfig cfg;
    cfg.members = members;
    cfg.compass = small_config();
    return cfg;
}

/// Polls `done` until it holds or 10 s pass.
bool eventually(const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/// Holds every call of a postmortem hook until the test lets it go.
class HookLatch {
public:
    /// The hook body: counts the call, then blocks until released.
    void hold() {
        std::unique_lock<std::mutex> lock(mutex_);
        const int call = ++entered_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return open_ || released_ >= call; });
    }
    /// Waits (10 s at most) until `calls` hook calls have started.
    [[nodiscard]] bool wait_entered(int calls) {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, std::chrono::seconds(10),
                            [&] { return entered_ >= calls; });
    }
    /// Lets the oldest held call return.
    void release_one() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++released_;
        }
        cv_.notify_all();
    }
    /// Lets every call, held or future, return.
    void open() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int entered_ = 0;
    int released_ = 0;
    bool open_ = false;
};

HeadingReply sample_reply() {
    HeadingReply r;
    r.request_id = 0x1122334455667788ull;
    r.status = ReplyStatus::Degraded;
    r.stale = true;
    r.retry_after_ms = 125;
    r.member = 7;
    r.attempts = 3;
    r.heading_deg = 211.375;
    r.count_x = -123456789;
    r.count_y = 987654321;
    r.detail = "single-axis reconstruction";
    return r;
}

}  // namespace

// ---------------------------------------------------------------- protocol

TEST(ServiceProtocolTest, RequestRoundTripsThroughFraming) {
    const std::vector<std::uint8_t> bytes =
        service::encode_request(HeadingRequest{0xDEADBEEFCAFEull, 0});
    EXPECT_EQ(bytes.size(), service::kFrameHeaderSize + 12);

    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    const HeadingRequest decoded = service::decode_request(frame);
    EXPECT_EQ(decoded.request_id, 0xDEADBEEFCAFEull);
    EXPECT_FALSE(reader.next(frame));
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ServiceProtocolTest, ReplyRoundTripsEveryField) {
    const HeadingReply sent = sample_reply();
    const std::vector<std::uint8_t> bytes = service::encode_reply(sent);

    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_TRUE(reader.next(frame));
    const HeadingReply r = service::decode_reply(frame);
    EXPECT_EQ(r.request_id, sent.request_id);
    EXPECT_EQ(r.status, sent.status);
    EXPECT_EQ(r.stale, sent.stale);
    EXPECT_EQ(r.retry_after_ms, sent.retry_after_ms);
    EXPECT_EQ(r.member, sent.member);
    EXPECT_EQ(r.attempts, sent.attempts);
    EXPECT_EQ(r.heading_deg, sent.heading_deg);
    EXPECT_EQ(r.count_x, sent.count_x);
    EXPECT_EQ(r.count_y, sent.count_y);
    EXPECT_EQ(r.detail, sent.detail);
}

TEST(ServiceProtocolTest, ReaderReassemblesByteAtATimeAndBackToBack) {
    std::vector<std::uint8_t> stream =
        service::encode_request(HeadingRequest{1, 0});
    const std::vector<std::uint8_t> second =
        service::encode_reply(sample_reply());
    stream.insert(stream.end(), second.begin(), second.end());

    FrameReader reader;
    Frame frame;
    int got = 0;
    for (const std::uint8_t byte : stream) {
        reader.feed(&byte, 1);
        while (reader.next(frame)) ++got;
    }
    EXPECT_EQ(got, 2);
}

TEST(ServiceProtocolTest, CorruptPayloadCrcIsRejected) {
    std::vector<std::uint8_t> bytes =
        service::encode_request(HeadingRequest{42, 0});
    bytes.back() ^= 0x01;  // flip one payload bit; header CRC now lies
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_THROW(static_cast<void>(reader.next(frame)), ProtocolError);
}

TEST(ServiceProtocolTest, VersionMismatchAndBadMagicAreRejected) {
    std::vector<std::uint8_t> bytes =
        service::encode_request(HeadingRequest{42, 0});
    std::vector<std::uint8_t> wrong_version = bytes;
    wrong_version[4] = 0x7F;  // version field, little-endian low byte
    FrameReader reader;
    reader.feed(wrong_version.data(), wrong_version.size());
    Frame frame;
    EXPECT_THROW(static_cast<void>(reader.next(frame)), ProtocolError);

    std::vector<std::uint8_t> wrong_magic = bytes;
    wrong_magic[0] ^= 0xFF;
    FrameReader reader2;
    reader2.feed(wrong_magic.data(), wrong_magic.size());
    EXPECT_THROW(static_cast<void>(reader2.next(frame)), ProtocolError);
}

TEST(ServiceProtocolTest, OversizedPayloadAndUnknownKindAreRejected) {
    std::vector<std::uint8_t> bytes =
        service::encode_request(HeadingRequest{42, 0});
    std::vector<std::uint8_t> oversized = bytes;
    oversized[8] = 0xFF;  // payload_len little-endian
    oversized[9] = 0xFF;
    oversized[10] = 0xFF;
    oversized[11] = 0x7F;
    FrameReader reader;
    reader.feed(oversized.data(), oversized.size());
    Frame frame;
    EXPECT_THROW(static_cast<void>(reader.next(frame)), ProtocolError);

    std::vector<std::uint8_t> unknown_kind = bytes;
    unknown_kind[6] = 0x77;
    FrameReader reader2;
    reader2.feed(unknown_kind.data(), unknown_kind.size());
    EXPECT_THROW(static_cast<void>(reader2.next(frame)), ProtocolError);
}

TEST(ServiceProtocolTest, ReservedRequestFlagsAndTrailingBytesAreRejected) {
    Frame frame;
    frame.kind = service::MessageKind::HeadingRequest;
    frame.payload.assign(12, 0);
    frame.payload[8] = 0x01;  // reserved flag bit set
    EXPECT_THROW(static_cast<void>(service::decode_request(frame)),
                 ProtocolError);

    frame.payload.assign(13, 0);  // 12 valid bytes + 1 trailing
    EXPECT_THROW(static_cast<void>(service::decode_request(frame)),
                 ProtocolError);

    frame.payload.assign(5, 0);  // truncated
    EXPECT_THROW(static_cast<void>(service::decode_request(frame)),
                 ProtocolError);
}

namespace {

/// One fixed-seed byte-level mutation of `frame`: bit flips, truncation,
/// a header spliced from `other`, the length set to kMaxPayload, or
/// damage to the CRC or magic.
std::vector<std::uint8_t> mutate_frame(std::vector<std::uint8_t> frame,
                                       const std::vector<std::uint8_t>& other,
                                       std::mt19937_64& rng) {
    const auto below = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const auto set_u32 = [&frame](std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            frame[at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
        }
    };
    switch (below(7)) {
        case 0:  // bit flips anywhere
            for (std::size_t i = 0, n = 1 + below(3); i < n; ++i) {
                frame[below(frame.size())] ^=
                    static_cast<std::uint8_t>(1u << below(8));
            }
            break;
        case 1:  // truncation
            frame.resize(below(frame.size()));
            break;
        case 2:  // the other frame's header on this payload
            std::copy_n(other.begin(), kFrameHeaderSize, frame.begin());
            break;
        case 3:  // length at the bound, or past it
            set_u32(8, service::kMaxPayload +
                           static_cast<std::uint32_t>(below(2)));
            break;
        case 4:  // CRC damage
            set_u32(12, static_cast<std::uint32_t>(rng()));
            break;
        case 5:  // magic damage
            frame[below(4)] = static_cast<std::uint8_t>(rng());
            break;
        default:  // a payload byte overwritten, CRC recomputed
            if (const std::size_t n = frame.size() - kFrameHeaderSize; n > 0) {
                frame[kFrameHeaderSize + below(n)] =
                    static_cast<std::uint8_t>(rng());
                set_u32(12, snapshot::crc32(frame.data() + kFrameHeaderSize, n));
            }
            break;
    }
    return frame;
}

}  // namespace

TEST(ServiceProtocolTest, MutatedFramesFailClosedOrDecode) {
    HeadingReply empty_detail = sample_reply();
    empty_detail.detail.clear();
    const std::vector<std::vector<std::uint8_t>> valid = {
        service::encode_request(HeadingRequest{1, 0}),
        service::encode_request(HeadingRequest{0xFFFFFFFFFFFFFFFFull, 0}),
        service::encode_reply(sample_reply()),
        service::encode_reply(empty_detail),
    };
    std::mt19937_64 rng(0x5EED);
    int errors = 0, decoded = 0, incomplete = 0;
    for (int i = 0; i < 12000; ++i) {
        const auto& base = valid[rng() % valid.size()];
        const auto& other = valid[rng() % valid.size()];
        const std::vector<std::uint8_t> bytes = mutate_frame(base, other, rng);
        // Fed in random-sized pieces, as a socket delivers them.
        FrameReader reader;
        bool failed = false;
        try {
            for (std::size_t off = 0; off < bytes.size();) {
                const std::size_t n =
                    std::min<std::size_t>(1 + rng() % 24, bytes.size() - off);
                reader.feed(bytes.data() + off, n);
                off += n;
                Frame frame;
                while (reader.next(frame)) {
                    if (frame.kind == service::MessageKind::HeadingRequest) {
                        static_cast<void>(service::decode_request(frame));
                    } else {
                        static_cast<void>(service::decode_reply(frame));
                    }
                    ++decoded;
                }
            }
        } catch (const ProtocolError&) {
            failed = true;
        }
        if (failed) {
            ++errors;
        } else if (reader.buffered() > 0) {
            ++incomplete;  // a truncated frame: the reader waits for more
        }
    }
    // Every case ended in ProtocolError or a valid decode (anything else
    // escaped the try and failed the test); each outcome occurred.
    EXPECT_GT(errors, 1000);
    EXPECT_GT(decoded, 100);
    EXPECT_GT(incomplete, 100);
}

// ----------------------------------------------------------------- service

TEST(ServiceTest, ServesHeadingQueriesEndToEnd) {
    service::CompassService daemon(small_service(2));
    daemon.fleet().set_environment(0, site(), 0.0);
    daemon.fleet().set_environment(1, site(), 90.0);
    daemon.start();
    ASSERT_GT(daemon.port(), 0);

    service::QueryClient client(daemon.port());
    // Round-robin member assignment: queries land on members 0, 1, 0...
    const HeadingReply first = client.query(1);
    EXPECT_EQ(first.status, ReplyStatus::Ok);
    EXPECT_EQ(first.member, 0u);
    EXPECT_NEAR(first.heading_deg, 0.0, 2.0);

    const HeadingReply second = client.query(2);
    EXPECT_EQ(second.status, ReplyStatus::Ok);
    EXPECT_EQ(second.member, 1u);
    EXPECT_NEAR(second.heading_deg, 90.0, 2.0);

    const service::ServiceStats stats = daemon.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.replies_ok, 2u);
    EXPECT_EQ(stats.protocol_errors, 0u);
    EXPECT_GE(daemon.metrics().counter("fxg_service_requests_total").value(),
              2u);
    daemon.stop();
    EXPECT_FALSE(daemon.running());
}

TEST(ServiceTest, PipelinedQueriesCoalesceIntoFewerBatches) {
    service::CompassService daemon(small_service(4));
    for (int i = 0; i < 4; ++i) {
        daemon.fleet().set_environment(i, site(), 90.0 * i);
    }
    daemon.start();

    constexpr int kQueries = 32;
    service::QueryClient client(daemon.port());
    for (int i = 0; i < kQueries; ++i) {
        client.send(static_cast<std::uint64_t>(i) + 1);
    }
    for (int i = 0; i < kQueries; ++i) {
        const HeadingReply reply = client.recv();
        EXPECT_EQ(reply.status, ReplyStatus::Ok);
    }

    // All 32 arrived in one burst: the io loop admits them together and
    // the batch loop swaps the whole queue, so far fewer fleet batches
    // than queries ran (worst case: one mid-burst swap).
    const service::ServiceStats stats = daemon.stats();
    EXPECT_EQ(stats.requests, kQueries);
    EXPECT_EQ(stats.replies_ok, kQueries);
    EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kQueries));
    daemon.stop();
}

TEST(ServiceTest, PendingBudgetShedsWithRetryAfter) {
    service::ServiceConfig cfg = small_service(1);
    cfg.max_pending = 1;
    cfg.retry_after_ms = 77;
    // A measurement of milliseconds keeps the admitted query in flight
    // while the daemon parses the rest of the burst. With the small
    // pipeline, an io thread preempted by the batch thread it wakes
    // could see each query answered before it admitted the next.
    cfg.compass.steps_per_period = 2048;
    cfg.compass.periods_per_axis = 64;
    service::CompassService daemon(cfg);
    daemon.fleet().set_environment(0, site(), 10.0);
    daemon.start();

    // One send() puts the whole burst in the socket at once, so the
    // client's scheduling cannot spread it over several reads.
    constexpr int kQueries = 16;
    service::QueryClient client(daemon.port());
    std::vector<std::uint8_t> burst;
    for (int i = 0; i < kQueries; ++i) {
        const std::vector<std::uint8_t> frame =
            service::encode_request(HeadingRequest{static_cast<std::uint64_t>(i) + 1, 0});
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    ASSERT_EQ(::send(client.fd(), burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    int ok = 0, shed = 0;
    for (int i = 0; i < kQueries; ++i) {
        const HeadingReply reply = client.recv();
        if (reply.status == ReplyStatus::Shed) {
            ++shed;
            EXPECT_EQ(reply.retry_after_ms, 77u);
        } else {
            EXPECT_EQ(reply.status, ReplyStatus::Ok);
            ++ok;
        }
    }
    // The burst lands while at most one query fits the admission bound:
    // at least one is served, at least one is refused, nothing is lost.
    EXPECT_GE(ok, 1);
    EXPECT_GE(shed, 1);
    EXPECT_EQ(ok + shed, kQueries);
    EXPECT_EQ(daemon.stats().shed, static_cast<std::uint64_t>(shed));
    daemon.stop();
}

TEST(ServiceTest, ConnectionBudgetShedsExcessConnections) {
    service::ServiceConfig cfg = small_service(1);
    cfg.max_connections = 1;
    service::CompassService daemon(cfg);
    daemon.fleet().set_environment(0, site(), 10.0);
    daemon.start();

    service::QueryClient first(daemon.port());
    EXPECT_EQ(first.query(1).status, ReplyStatus::Ok);  // holds the slot

    service::QueryClient second(daemon.port());
    const HeadingReply refused = second.recv();  // server speaks first
    EXPECT_EQ(refused.status, ReplyStatus::Shed);
    EXPECT_EQ(refused.retry_after_ms, cfg.retry_after_ms);
    // ... and closes: the next read sees EOF.
    EXPECT_THROW(static_cast<void>(second.recv()), std::runtime_error);

    // The in-budget connection is unaffected.
    EXPECT_EQ(first.query(2).status, ReplyStatus::Ok);
    daemon.stop();
}

TEST(ServiceTest, FaultTrippedMemberServesDegradedNotError) {
    service::CompassService daemon(small_service(1));
    daemon.fleet().set_environment(0, site(), 30.0);
    daemon.start();  // warmup anchors the ladder's last-good heading

    service::QueryClient client(daemon.port());
    const HeadingReply healthy = client.query(1);
    EXPECT_EQ(healthy.status, ReplyStatus::Ok);

    // The x-axis detector dies under load.
    fault::FaultInjector injector;
    fault::FaultSpec spec;
    spec.fault = fault::FaultClass::DetectorStuckLow;
    spec.channel = analog::Channel::X;
    injector.add(spec);
    injector.arm(daemon.fleet().at(0));

    for (std::uint64_t id = 2; id <= 4; ++id) {
        const HeadingReply reply = client.query(id);
        EXPECT_EQ(reply.status, ReplyStatus::Degraded)
            << "query " << id << ": " << reply.detail;
        EXPECT_GT(reply.attempts, 1u);
        EXPECT_NE(reply.detail.find("ladder"), std::string::npos);
    }
    EXPECT_GE(daemon.stats().replies_degraded, 3u);
    EXPECT_GE(daemon.metrics().counter("fxg_service_degraded_total").value(),
              3u);

    injector.disarm();
    daemon.stop();
}

TEST(ServiceTest, HeldLadderDoesNotHoldHealthyReplies) {
    // Member 0's detector is dead, and its postmortem hook (fired by the
    // DegradedSingleAxis outcome) blocks on a latch, so its ladder can
    // be held inside the batch loop at will. A healthy member's reply
    // must leave as soon as the sweep lands, while that ladder is held.
    HookLatch latch;
    service::CompassService daemon(small_service(2));
    daemon.fleet().set_environment(0, site(), 30.0);
    daemon.fleet().set_environment(1, site(), 120.0);
    daemon.start();
    fault::FaultInjector injector;
    fault::FaultSpec spec;
    spec.fault = fault::FaultClass::DetectorStuckLow;
    spec.channel = analog::Channel::X;
    injector.add(spec);
    injector.arm(daemon.fleet().at(0));
    daemon.supervisor(0).set_postmortem_hook(
        [&latch](const fault::SupervisedMeasurement&) { latch.hold(); });
    // On every exit path: let held ladders go and stop the batch loop
    // (a held loop would deadlock stop()) before the injector disarms.
    struct Teardown {
        HookLatch& latch;
        service::CompassService& daemon;
        ~Teardown() {
            latch.open();
            daemon.stop();
        }
    } teardown{latch, daemon};

    service::QueryClient client(daemon.port());
    const timeval timeout{2, 0};
    ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);
    const auto recv_reply = [&client]() -> std::optional<HeadingReply> {
        try {
            return client.recv();
        } catch (const std::runtime_error&) {
            return std::nullopt;  // SO_RCVTIMEO expired
        }
    };

    // Round-robin: queries 1 and 3 go to member 0, query 2 to member 1.
    client.send(1);
    ASSERT_TRUE(latch.wait_entered(1)) << "batch A never reached its ladder";
    client.send(2);
    client.send(3);
    ASSERT_TRUE(eventually([&] { return daemon.stats().requests == 3; }));
    latch.release_one();  // batch A ends; batch B = {2, 3} sweeps
    ASSERT_TRUE(latch.wait_entered(2)) << "batch B never reached its ladder";

    // Batch B's ladder is held: query 1's reply (batch A) and query 2's
    // (healthy, batch B) are already out.
    std::map<std::uint64_t, HeadingReply> got;
    for (int i = 0; i < 2; ++i) {
        const std::optional<HeadingReply> reply = recv_reply();
        ASSERT_TRUE(reply.has_value())
            << "reply " << i + 1 << " of 2 held behind member 0's ladder";
        got[reply->request_id] = *reply;
    }
    ASSERT_EQ(got.count(1), 1u);
    ASSERT_EQ(got.count(2), 1u);
    EXPECT_EQ(got[1].status, ReplyStatus::Degraded) << got[1].detail;
    EXPECT_EQ(got[1].member, 0u);
    // The sweep is attempt 1; the default ladder adds two retries.
    EXPECT_EQ(got[1].attempts, 3u);
    EXPECT_EQ(got[2].status, ReplyStatus::Ok) << got[2].detail;
    EXPECT_EQ(got[2].member, 1u);
    EXPECT_NEAR(got[2].heading_deg, 120.0, 2.0);

    latch.release_one();
    const std::optional<HeadingReply> third = recv_reply();
    ASSERT_TRUE(third.has_value()) << "query 3 unanswered after its ladder";
    EXPECT_EQ(third->request_id, 3u);
    EXPECT_EQ(third->status, ReplyStatus::Degraded) << third->detail;
}

TEST(ServiceTest, ClientVanishingMidStreamCostsOnlyItsConnection) {
    service::CompassService daemon(small_service(2));
    daemon.fleet().set_environment(0, site(), 0.0);
    daemon.fleet().set_environment(1, site(), 180.0);
    daemon.start();

    // Several clients fire a query and slam the connection shut without
    // reading the reply — the server ends up writing into dead sockets.
    for (int round = 0; round < 8; ++round) {
        service::QueryClient victim(daemon.port());
        victim.send(static_cast<std::uint64_t>(round) + 100);
        victim.close();
    }

    // The daemon shrugged: still running, still serving.
    service::QueryClient survivor(daemon.port());
    for (std::uint64_t id = 1; id <= 4; ++id) {
        EXPECT_EQ(survivor.query(id).status, ReplyStatus::Ok);
    }
    EXPECT_TRUE(daemon.running());
    daemon.stop();
}

TEST(ServiceTest, GarbageStreamGetsErrorReplyAndClose) {
    service::CompassService daemon(small_service(1));
    daemon.fleet().set_environment(0, site(), 10.0);
    daemon.start();

    service::QueryClient client(daemon.port());
    const char garbage[] = "GET /metrics HTTP/1.0\r\n\r\n";  // wrong porthole
    ASSERT_GT(::send(client.fd(), garbage, sizeof garbage - 1, MSG_NOSIGNAL),
              0);
    const HeadingReply reply = client.recv();
    EXPECT_EQ(reply.status, ReplyStatus::Error);
    EXPECT_NE(reply.detail.find("magic"), std::string::npos);
    // The server closed the poisoned connection after replying.
    EXPECT_THROW(static_cast<void>(client.recv()), std::runtime_error);
    EXPECT_EQ(daemon.stats().protocol_errors, 1u);

    // Clean clients are unaffected.
    service::QueryClient clean(daemon.port());
    EXPECT_EQ(clean.query(1).status, ReplyStatus::Ok);
    daemon.stop();
}

TEST(ServiceTest, RestartServesAgainAndStopIsIdempotent) {
    service::CompassService daemon(small_service(1));
    daemon.fleet().set_environment(0, site(), 10.0);

    daemon.start();
    EXPECT_THROW(daemon.start(), std::runtime_error);  // double start
    {
        service::QueryClient client(daemon.port());
        EXPECT_EQ(client.query(1).status, ReplyStatus::Ok);
    }
    daemon.stop();
    daemon.stop();  // idempotent
    EXPECT_FALSE(daemon.running());

    daemon.start();  // port 0: a fresh kernel-assigned port
    ASSERT_GT(daemon.port(), 0);
    {
        service::QueryClient client(daemon.port());
        EXPECT_EQ(client.query(2).status, ReplyStatus::Ok);
    }
    daemon.stop();
}

TEST(ServiceTest, RestartStressNeverLosesStopWakeup) {
    // Guard: stop() must set its flag under the batch loop's wait mutex.
    // Set outside it, the flag and the notify can land between the
    // loop's predicate test and its wait; the wakeup is lost and stop()
    // waits forever. The window is narrow, so this restarts many times
    // with busy threads preempting the loops at random points, under a
    // watchdog that fails the test instead of hanging the suite.
    service::CompassService daemon(small_service(1));
    daemon.fleet().set_environment(0, site(), 10.0);
    std::atomic<bool> done{false};
    std::vector<std::thread> spinners;
    for (int i = 0; i < 2; ++i) {
        spinners.emplace_back([&done] {
            while (!done.load(std::memory_order_relaxed)) {}
        });
    }
    std::promise<void> cycled;
    std::future<void> cycles = cycled.get_future();
    std::thread cycler([&daemon, &cycled] {
        try {
            for (int i = 0; i < 2000; ++i) {
                daemon.start();
                daemon.stop();
            }
            cycled.set_value();
        } catch (...) {
            cycled.set_exception(std::current_exception());
        }
    });
    const bool in_time =
        cycles.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
    done.store(true);
    for (std::thread& t : spinners) t.join();
    if (!in_time) {
        // The cycler is stuck inside stop(): it can be neither joined
        // nor outlived by the daemon, so end the process here.
        ADD_FAILURE() << "stop() hung: the batch loop missed its wakeup";
        std::fflush(stdout);
        std::_Exit(1);
    }
    cycler.join();
    EXPECT_NO_THROW(cycles.get());
    EXPECT_FALSE(daemon.running());
}

TEST(ServiceTest, ClientThatNeverReadsStopsBeingRead) {
    // A client pipelines far more requests than fit in any socket buffer
    // and reads nothing. Once 64 KiB of its replies are unsent the
    // daemon stops reading it, so it processes a bounded prefix instead
    // of buffering every Shed reply in memory.
    service::ServiceConfig cfg = small_service(1);
    cfg.max_pending = 1;
    service::CompassService daemon(cfg);
    daemon.fleet().set_environment(0, site(), 10.0);
    daemon.start();

    constexpr std::uint64_t kRequests = 200000;
    service::QueryClient client(daemon.port());
    std::thread sender([fd = client.fd()] {
        std::vector<std::uint8_t> stream;
        for (std::uint64_t id = 1; id <= kRequests; ++id) {
            const std::vector<std::uint8_t> frame =
                service::encode_request(HeadingRequest{id, 0});
            stream.insert(stream.end(), frame.begin(), frame.end());
        }
        static_cast<void>(
            util::net::send_all(fd, stream.data(), stream.size()));
    });
    const auto processed = [&daemon] {
        const service::ServiceStats s = daemon.stats();
        return s.requests + s.shed;
    };

    // Wait until processing has stood still for 0.5 s.
    using Clock = std::chrono::steady_clock;
    std::uint64_t plateau = processed();
    for (auto still_since = Clock::now();
         Clock::now() - still_since < std::chrono::milliseconds(500);) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (const std::uint64_t now = processed(); now != plateau) {
            plateau = now;
            still_since = Clock::now();
        }
    }
    EXPECT_LE(plateau, kRequests / 2);
    std::printf("note: %llu of %llu requests processed before the daemon "
                "stopped reading\n",
                static_cast<unsigned long long>(plateau),
                static_cast<unsigned long long>(kRequests));

    // Reading drains the backlog: every request is answered exactly once.
    std::vector<int> answers(kRequests + 1, 0);
    std::uint64_t received = 0, strays = 0;
    try {
        for (; received < kRequests; ++received) {
            const HeadingReply reply = client.recv();
            if (reply.request_id < 1 || reply.request_id > kRequests) {
                ++strays;
            } else {
                ++answers[reply.request_id];
            }
        }
    } catch (const std::exception& e) {
        ADD_FAILURE() << "after " << received << " replies: " << e.what();
        ::shutdown(client.fd(), SHUT_RDWR);  // unblock the sender
    }
    sender.join();
    EXPECT_EQ(strays, 0u);
    EXPECT_EQ(std::count(answers.begin() + 1, answers.end(), 1),
              static_cast<std::ptrdiff_t>(kRequests));
    EXPECT_EQ(processed(), kRequests);
    daemon.stop();
}

TEST(ServiceTest, StopWithIntrospectionReturnsPromptly) {
    service::ServiceConfig cfg = small_service(1);
    cfg.introspection_port = 0;
    service::CompassService daemon(cfg);
    daemon.fleet().set_environment(0, site(), 10.0);
    std::vector<double> stop_ms;
    for (int cycle = 0; cycle < 5; ++cycle) {
        daemon.start();
        {
            service::QueryClient client(daemon.port());
            EXPECT_EQ(client.query(1).status, ReplyStatus::Ok);
        }
        const auto t0 = std::chrono::steady_clock::now();
        daemon.stop();
        stop_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
    // The median, so that one cycle descheduled on a loaded host does
    // not fail the test; a 100 ms poll timeout fails every cycle.
    std::sort(stop_ms.begin(), stop_ms.end());
    EXPECT_LE(stop_ms[2], 20.0) << "slowest stop() " << stop_ms.back() << " ms";
}

TEST(ServiceTest, IntrospectionRidesAlongServingLiveTelemetry) {
    service::ServiceConfig cfg = small_service(2);
    cfg.introspection_port = 0;
    service::CompassService daemon(cfg);
    daemon.fleet().set_environment(0, site(), 0.0);
    daemon.fleet().set_environment(1, site(), 90.0);
    daemon.start();
    ASSERT_GT(daemon.introspection_port(), 0);

    service::QueryClient client(daemon.port());
    for (std::uint64_t id = 1; id <= 4; ++id) {
        static_cast<void>(client.query(id));
    }

    using telemetry::IntrospectionServer;
    const int http = daemon.introspection_port();
    const std::string metrics =
        IntrospectionServer::body_of(IntrospectionServer::http_get(http, "/metrics"));
    EXPECT_NE(metrics.find("fxg_service_requests_total"), std::string::npos);
    EXPECT_NE(metrics.find("fxg_service_latency_seconds"), std::string::npos);

    const std::string health =
        IntrospectionServer::body_of(IntrospectionServer::http_get(http, "/healthz"));
    EXPECT_NE(health.find("service_requests 4"), std::string::npos);
    EXPECT_NE(health.find("service_batches"), std::string::npos);

    // /snapshot is served by the service's own provider, serialized
    // against the batch loop.
    const std::string snap =
        IntrospectionServer::http_get(http, "/snapshot");
    EXPECT_NE(snap.find("200"), std::string::npos);
    EXPECT_FALSE(IntrospectionServer::body_of(snap).empty());

    daemon.stop();
    EXPECT_EQ(daemon.introspection_port(), 0);
}
