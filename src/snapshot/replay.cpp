#include "snapshot/replay.hpp"

#include <bit>
#include <cstring>

#include "util/endian.hpp"

namespace fxg::snapshot {

namespace {

constexpr std::size_t kHeaderBytes = sizeof(kReplayMagic) + 4;
constexpr std::size_t kFrameBytes = 8 + 8 + 8 + 4;
constexpr std::size_t kFramePayloadBytes = kFrameBytes - 4;

}  // namespace

ReplayWriter::ReplayWriter() {
    buf_.insert(buf_.end(), kReplayMagic, kReplayMagic + sizeof(kReplayMagic));
    util::append_le(buf_, kReplayFormatVersion);
}

void ReplayWriter::append(const TickInput& in) {
    const std::size_t frame_start = buf_.size();
    util::append_le(buf_, in.tick);
    util::append_le(buf_, std::bit_cast<std::uint64_t>(in.hx_a_per_m));
    util::append_le(buf_, std::bit_cast<std::uint64_t>(in.hy_a_per_m));
    util::append_le(buf_, crc32(buf_.data() + frame_start, kFramePayloadBytes));
}

ReplayLog read_replay(std::span<const std::uint8_t> bytes, ReplayMode mode) {
    if (bytes.size() < kHeaderBytes) {
        throw SnapshotError("replay log truncated: shorter than its header");
    }
    if (std::memcmp(bytes.data(), kReplayMagic, sizeof(kReplayMagic)) != 0) {
        throw SnapshotError("replay log magic mismatch");
    }
    const auto version = util::load_le<std::uint32_t>(bytes.data() + sizeof(kReplayMagic));
    if (version != kReplayFormatVersion) {
        throw SnapshotError("replay log version skew: file v" +
                            std::to_string(version) + ", reader v" +
                            std::to_string(kReplayFormatVersion));
    }

    ReplayLog log;
    std::size_t cursor = kHeaderBytes;
    log.valid_bytes = cursor;
    while (cursor < bytes.size()) {
        const std::size_t remaining = bytes.size() - cursor;
        const bool frame_ok =
            remaining >= kFrameBytes &&
            util::load_le<std::uint32_t>(bytes.data() + cursor + kFramePayloadBytes) ==
                crc32(bytes.data() + cursor, kFramePayloadBytes);
        if (!frame_ok) {
            if (mode == ReplayMode::Strict) {
                throw SnapshotError(remaining < kFrameBytes
                                        ? "replay log truncated mid-frame"
                                        : "replay log frame CRC mismatch");
            }
            log.torn_tail = true;
            break;
        }
        const std::uint8_t* frame = bytes.data() + cursor;
        TickInput in;
        in.tick = util::load_le<std::uint64_t>(frame);
        in.hx_a_per_m = std::bit_cast<double>(util::load_le<std::uint64_t>(frame + 8));
        in.hy_a_per_m = std::bit_cast<double>(util::load_le<std::uint64_t>(frame + 16));
        log.ticks.push_back(in);
        cursor += kFrameBytes;
        log.valid_bytes = cursor;
    }
    return log;
}

}  // namespace fxg::snapshot
