#include "service/protocol.hpp"

#include <bit>

#include "snapshot/format.hpp"
#include "util/endian.hpp"

namespace fxg::service {

namespace {

/// Bounds-checked little-endian reads over a payload.
class PayloadReader {
public:
    explicit PayloadReader(const std::vector<std::uint8_t>& bytes)
        : bytes_(bytes) {}

    std::uint8_t get_u8() { return get<std::uint8_t>(); }
    std::uint32_t get_u32() { return get<std::uint32_t>(); }
    std::uint64_t get_u64() { return get<std::uint64_t>(); }
    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
    double get_f64() { return std::bit_cast<double>(get_u64()); }

    std::string get_string() {
        const std::uint32_t n = get_u32();
        require(n);
        std::string s(reinterpret_cast<const char*>(bytes_.data() + off_), n);
        off_ += n;
        return s;
    }

    void expect_end() const {
        if (off_ != bytes_.size()) {
            throw ProtocolError("protocol: trailing bytes in payload");
        }
    }

private:
    template <class T>
    T get() {
        require(sizeof(T));
        const T v = util::load_le<T>(bytes_.data() + off_);
        off_ += sizeof(T);
        return v;
    }

    void require(std::size_t n) const {
        if (bytes_.size() - off_ < n) {
            throw ProtocolError("protocol: payload truncated");
        }
    }

    const std::vector<std::uint8_t>& bytes_;
    std::size_t off_ = 0;
};

std::vector<std::uint8_t> frame_bytes(MessageKind kind,
                                      const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> out;
    out.reserve(kFrameHeaderSize + payload.size());
    util::append_le(out, kFrameMagic);
    util::append_le(out, kProtocolVersion);
    util::append_le(out, static_cast<std::uint16_t>(kind));
    util::append_le(out, static_cast<std::uint32_t>(payload.size()));
    util::append_le(out, snapshot::crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

}  // namespace

const char* to_string(ReplyStatus status) noexcept {
    switch (status) {
        case ReplyStatus::Ok: return "Ok";
        case ReplyStatus::Degraded: return "Degraded";
        case ReplyStatus::Stale: return "Stale";
        case ReplyStatus::Shed: return "Shed";
        case ReplyStatus::Error: return "Error";
    }
    return "?";
}

std::vector<std::uint8_t> encode_request(const HeadingRequest& r) {
    std::vector<std::uint8_t> payload;
    util::append_le(payload, r.request_id);
    util::append_le(payload, r.flags);
    return frame_bytes(MessageKind::HeadingRequest, payload);
}

std::vector<std::uint8_t> encode_reply(const HeadingReply& r) {
    std::vector<std::uint8_t> payload;
    util::append_le(payload, r.request_id);
    payload.push_back(static_cast<std::uint8_t>(r.status));
    payload.push_back(r.stale ? 1 : 0);
    util::append_le(payload, r.retry_after_ms);
    util::append_le(payload, r.member);
    util::append_le(payload, r.attempts);
    util::append_le(payload, std::bit_cast<std::uint64_t>(r.heading_deg));
    util::append_le(payload, static_cast<std::uint64_t>(r.count_x));
    util::append_le(payload, static_cast<std::uint64_t>(r.count_y));
    util::append_le(payload, static_cast<std::uint32_t>(r.detail.size()));
    payload.insert(payload.end(), r.detail.begin(), r.detail.end());
    return frame_bytes(MessageKind::HeadingReply, payload);
}

HeadingRequest decode_request(const Frame& frame) {
    if (frame.kind != MessageKind::HeadingRequest) {
        throw ProtocolError("protocol: frame is not a HeadingRequest");
    }
    PayloadReader in(frame.payload);
    HeadingRequest r;
    r.request_id = in.get_u64();
    r.flags = in.get_u32();
    in.expect_end();
    if (r.flags != 0) {
        throw ProtocolError("protocol: reserved request flags set");
    }
    return r;
}

HeadingReply decode_reply(const Frame& frame) {
    if (frame.kind != MessageKind::HeadingReply) {
        throw ProtocolError("protocol: frame is not a HeadingReply");
    }
    PayloadReader in(frame.payload);
    HeadingReply r;
    r.request_id = in.get_u64();
    const std::uint8_t status = in.get_u8();
    if (status > static_cast<std::uint8_t>(ReplyStatus::Error)) {
        throw ProtocolError("protocol: unknown reply status");
    }
    r.status = static_cast<ReplyStatus>(status);
    r.stale = in.get_u8() != 0;
    r.retry_after_ms = in.get_u32();
    r.member = in.get_u32();
    r.attempts = in.get_u32();
    r.heading_deg = in.get_f64();
    r.count_x = in.get_i64();
    r.count_y = in.get_i64();
    r.detail = in.get_string();
    in.expect_end();
    return r;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
    // Compact the consumed prefix before growing, so a long-lived
    // connection's buffer stays proportional to its unread bytes.
    if (off_ > 0 && off_ == buf_.size()) {
        buf_.clear();
        off_ = 0;
    } else if (off_ > 4096) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
        off_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

bool FrameReader::next(Frame& out) {
    if (buf_.size() - off_ < kFrameHeaderSize) return false;
    const std::uint8_t* header = buf_.data() + off_;
    if (util::load_le<std::uint32_t>(header) != kFrameMagic) {
        throw ProtocolError("protocol: bad frame magic");
    }
    const std::uint16_t version = util::load_le<std::uint16_t>(header + 4);
    if (version != kProtocolVersion) {
        throw ProtocolError("protocol: version mismatch (peer v" +
                            std::to_string(version) + ", this v" +
                            std::to_string(kProtocolVersion) + ")");
    }
    const std::uint16_t kind = util::load_le<std::uint16_t>(header + 6);
    if (kind != static_cast<std::uint16_t>(MessageKind::HeadingRequest) &&
        kind != static_cast<std::uint16_t>(MessageKind::HeadingReply)) {
        throw ProtocolError("protocol: unknown message kind " +
                            std::to_string(kind));
    }
    const std::uint32_t len = util::load_le<std::uint32_t>(header + 8);
    if (len > kMaxPayload) {
        throw ProtocolError("protocol: oversized payload (" +
                            std::to_string(len) + " bytes)");
    }
    if (buf_.size() - off_ < kFrameHeaderSize + len) return false;
    const std::uint32_t want_crc = util::load_le<std::uint32_t>(header + 12);
    const std::uint8_t* payload = buf_.data() + off_ + kFrameHeaderSize;
    if (snapshot::crc32(payload, len) != want_crc) {
        throw ProtocolError("protocol: payload CRC mismatch");
    }
    out.kind = static_cast<MessageKind>(kind);
    out.payload.assign(payload, payload + len);
    off_ += kFrameHeaderSize + len;
    return true;
}

}  // namespace fxg::service
