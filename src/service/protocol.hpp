#pragma once

/// \file protocol.hpp
/// The compassd wire protocol (DESIGN.md §16): length-prefixed binary
/// frames with versioned framing and the snapshot layer's CRC
/// discipline, over a loopback TCP stream.
///
///   frame   := magic:u32('FXGQ') version:u16 kind:u16
///              payload_len:u32 payload_crc:u32 payload
///
/// All integers are little-endian regardless of host order; doubles are
/// the IEEE-754 bit pattern as u64 (exactly the snapshot container's
/// conventions, §13). `payload_crc` is snapshot::crc32 over the payload
/// bytes, so a torn or corrupted frame is rejected before a single
/// field is decoded — the same fail-closed posture as .fxgsnap.
/// `payload_len` is bounded (kMaxPayload); a frame claiming more is a
/// protocol error, not an allocation.
///
/// Message kinds (version 1):
///
///   HeadingRequest  client -> server   { request_id:u64 flags:u32 }
///   HeadingReply    server -> client   { request_id:u64 status:u8
///                     stale:u8 retry_after_ms:u32 member:u32
///                     attempts:u32 heading_deg:f64 count_x:i64
///                     count_y:i64 detail:str }
///
/// A client may pipeline requests on one connection; every request is
/// answered by exactly one reply carrying its request_id (shed replies
/// included). Replies to a connection are delivered in completion
/// order, not request order — even within one batch, a healthy
/// member's reply leaves before a fault-tripped member's — so match on
/// request_id.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace fxg::service {

/// 'F','X','G','Q' packed little-endian (reads as "FXGQ" on disk).
inline constexpr std::uint32_t kFrameMagic = 0x51475846u;

/// Bumped on any wire-incompatible change; a mismatched peer is
/// rejected with ProtocolError rather than misdecoded.
inline constexpr std::uint16_t kProtocolVersion = 1;

/// Hard bound on a frame payload. Every defined message is tiny; the
/// bound exists so a corrupt or hostile length field cannot drive an
/// allocation.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

/// Bytes before the payload: magic + version + kind + len + crc.
inline constexpr std::size_t kFrameHeaderSize = 16;

/// Any framing violation: bad magic, version skew, oversized length,
/// CRC mismatch, or a payload shorter than its message's fields.
class ProtocolError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

enum class MessageKind : std::uint16_t {
    HeadingRequest = 1,
    HeadingReply = 2,
};

/// One heading query. `request_id` is client-chosen and echoed
/// verbatim in the reply; `flags` is reserved (must be 0 in v1).
struct HeadingRequest {
    std::uint64_t request_id = 0;
    std::uint32_t flags = 0;
};

/// How the service answered a query.
enum class ReplyStatus : std::uint8_t {
    Ok = 0,        ///< healthy measurement from the assigned member
    Degraded = 1,  ///< single-axis reconstruction (health-tripped member)
    Stale = 2,     ///< last good heading held, flagged stale
    Shed = 3,      ///< admission control refused the query; see retry_after_ms
    Error = 4,     ///< no usable heading (ladder exhausted / protocol error)
};

[[nodiscard]] const char* to_string(ReplyStatus status) noexcept;

struct HeadingReply {
    std::uint64_t request_id = 0;
    ReplyStatus status = ReplyStatus::Error;
    bool stale = false;  ///< heading is not from this batch's measurement
    /// Retry-After semantics: nonzero only on Shed — the client should
    /// back off at least this long before re-offering load.
    std::uint32_t retry_after_ms = 0;
    std::uint32_t member = 0;    ///< fleet member that served the query
    std::uint32_t attempts = 0;  ///< ladder attempts consumed (1 = first try)
    double heading_deg = 0.0;
    std::int64_t count_x = 0;
    std::int64_t count_y = 0;
    std::string detail;  ///< diagnostics (degraded/error paths)
};

/// A validated frame: kind plus raw payload bytes (CRC already checked).
struct Frame {
    MessageKind kind = MessageKind::HeadingRequest;
    std::vector<std::uint8_t> payload;
};

[[nodiscard]] std::vector<std::uint8_t> encode_request(const HeadingRequest& r);
[[nodiscard]] std::vector<std::uint8_t> encode_reply(const HeadingReply& r);

/// Throws ProtocolError when the payload is malformed for its kind.
[[nodiscard]] HeadingRequest decode_request(const Frame& frame);
[[nodiscard]] HeadingReply decode_reply(const Frame& frame);

/// Incremental frame scanner for a byte stream: feed() whatever
/// arrived, then drain complete frames with next(). Validation is
/// fail-closed — the first malformed header or CRC mismatch throws
/// ProtocolError and the stream is unusable from there (the server
/// closes the connection; there is no resynchronisation heuristic).
class FrameReader {
public:
    void feed(const std::uint8_t* data, std::size_t n);

    /// True and fills `out` when a complete, CRC-valid frame is
    /// buffered; false when more bytes are needed.
    bool next(Frame& out);

    /// Bytes buffered but not yet consumed by next().
    [[nodiscard]] std::size_t buffered() const noexcept {
        return buf_.size() - off_;
    }

private:
    std::vector<std::uint8_t> buf_;
    std::size_t off_ = 0;  ///< consumed prefix (compacted lazily)
};

}  // namespace fxg::service
