#pragma once

/// \file format.hpp
/// The versioned, endian-stable snapshot container (DESIGN.md §13).
///
/// Layout:
///
///   file    := magic[8] version:u32 section* file_crc:u32
///   section := tag:u32 payload_len:u64 payload_crc:u32 payload
///
/// All integers are little-endian regardless of host order; doubles are
/// the IEEE-754 bit pattern as u64. Sections nest (a fleet MEMB section
/// contains a whole compass's sections; the parent's CRC covers the
/// children bytes), and the trailing file CRC covers every byte before
/// it — so any single-byte corruption anywhere in the file is rejected
/// by the SnapshotReader constructor before a single field is parsed.
///
/// Everything fails closed through SnapshotError with a diagnostic
/// (bad magic, version skew, CRC mismatch, section-length overrun,
/// truncated read); the reader never hands back partially valid data.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fxg::snapshot {

/// Any container-level failure: corruption, truncation, version skew,
/// or a structural mismatch against what the caller expected.
class SnapshotError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected) over `n` bytes, foldable: pass the
/// previous return value as `crc` to continue a running checksum.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                                  std::uint32_t crc = 0) noexcept;

/// Section tags are four printable characters packed little-endian.
[[nodiscard]] constexpr std::uint32_t section_tag(char a, char b, char c,
                                                  char d) noexcept {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// The four characters of a tag as text, for diagnostics.
[[nodiscard]] std::string tag_name(std::uint32_t tag);

/// Serializes a snapshot into an in-memory byte buffer. Sections are
/// opened/closed in a stack discipline; their length and payload CRC
/// are back-patched when the section ends, so writers stream straight
/// through without a second pass.
class SnapshotWriter {
public:
    /// Writes the magic and format version.
    SnapshotWriter();

    void begin_section(std::uint32_t tag);
    void end_section();

    void put_u8(std::uint8_t v);
    void put_u32(std::uint32_t v);
    void put_u64(std::uint64_t v);
    void put_i64(std::int64_t v);
    void put_f64(double v);
    void put_bool(bool v);
    void put_string(const std::string& v);
    void put_bytes(const std::uint8_t* data, std::size_t n);

    /// Closes the container (all sections must be ended), appends the
    /// whole-file CRC and returns the bytes. The writer is spent.
    [[nodiscard]] std::vector<std::uint8_t> finish();

private:
    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> open_;  ///< offsets of open sections' headers
    bool finished_ = false;
};

/// Validating reader over a snapshot byte buffer (non-owning). The
/// constructor checks size, magic, version and the whole-file CRC, so a
/// successfully constructed reader is already known to hold an
/// uncorrupted container of the supported version; enter_section() then
/// re-checks each section's tag, bounds and payload CRC, and every
/// primitive read is bounds-checked against the innermost open section.
class SnapshotReader {
public:
    explicit SnapshotReader(std::span<const std::uint8_t> bytes);

    /// Tag of the next section at the current position (throws if fewer
    /// than a section header's bytes remain).
    [[nodiscard]] std::uint32_t peek_tag() const;

    /// True when the current section (or the file's top level) has been
    /// fully consumed.
    [[nodiscard]] bool at_end() const noexcept;

    /// Validates the next section's tag, bounds and payload CRC, then
    /// descends into it.
    void enter_section(std::uint32_t expected_tag);

    /// Leaves the innermost section; throws if payload bytes remain
    /// unread (a length/content mismatch is corruption, not slack).
    void leave_section();

    std::uint8_t get_u8();
    std::uint32_t get_u32();
    std::uint64_t get_u64();
    std::int64_t get_i64();
    double get_f64();
    bool get_bool();
    std::string get_string();
    std::vector<std::uint8_t> get_bytes(std::size_t n);

private:
    /// End offset of the innermost open section (or the content area).
    [[nodiscard]] std::size_t bound() const noexcept;
    void require(std::size_t n, const char* what) const;

    std::span<const std::uint8_t> bytes_;
    std::size_t cursor_ = 0;
    std::size_t content_end_ = 0;  ///< start of the trailing file CRC
    std::vector<std::size_t> ends_;  ///< open sections' end offsets
};

}  // namespace fxg::snapshot
