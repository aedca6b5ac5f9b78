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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
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

/// The scalar type mapping every field walk shares (fields.hpp): bool
/// travels as a u8 (0 or 1), an enum as a u32, int and int64 as an i64,
/// a double as its IEEE-754 bit pattern in a u64, and u8, u32 and u64
/// as themselves. Any other field type fails to compile.
template <class T>
[[nodiscard]] constexpr auto to_wire(T v) noexcept {
    if constexpr (std::is_same_v<T, bool>) {
        return std::uint8_t{v};
    } else if constexpr (std::is_enum_v<T>) {
        return static_cast<std::uint32_t>(v);
    } else if constexpr (std::is_same_v<T, double>) {
        return std::bit_cast<std::uint64_t>(v);
    } else if constexpr (std::is_same_v<T, int> || std::is_same_v<T, std::int64_t>) {
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    } else {
        static_assert(std::is_same_v<T, std::uint8_t> ||
                          std::is_same_v<T, std::uint32_t> ||
                          std::is_same_v<T, std::uint64_t>,
                      "no wire mapping for this field type");
        return v;
    }
}

/// Inverse of to_wire. A wire value outside an enum's enumerators is
/// kept as is (an enum class holds any value of its underlying type);
/// the decoders range-check enums before applying them.
template <class T, class W>
[[nodiscard]] constexpr T from_wire(W w) noexcept {
    if constexpr (std::is_same_v<T, bool>) {
        return w != 0;
    } else if constexpr (std::is_same_v<T, double>) {
        return std::bit_cast<double>(w);
    } else if constexpr (std::is_same_v<T, int> || std::is_same_v<T, std::int64_t>) {
        return static_cast<T>(static_cast<std::int64_t>(w));
    } else {
        return static_cast<T>(w);
    }
}

/// Emits `v` in its wire form: a scalar as the word to_wire maps it to,
/// through `out.put_word(w)`, which lays it out little-endian; a string
/// as its u64 length and then its bytes, through `out.put_bytes(p, n)`.
/// SnapshotWriter and config_fingerprint both emit through this, so the
/// fingerprint hashes exactly what a writer would write.
template <class Out, class T>
void emit(Out& out, const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
        out.put_word(static_cast<std::uint64_t>(v.size()));
        out.put_bytes(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
    } else {
        out.put_word(to_wire(v));
    }
}

/// Serializes a snapshot into an in-memory byte buffer. Sections are
/// opened/closed in a stack discipline; their length and payload CRC
/// are back-patched when the section ends, so writers stream straight
/// through without a second pass.
///
/// A writer is also the writing `io` of a field walk (fields.hpp):
/// operator() emits one scalar or string, section() wraps a body in a
/// section.
class SnapshotWriter {
public:
    static constexpr bool kReads = false;

    /// Writes the magic and format version.
    SnapshotWriter();

    void begin_section(std::uint32_t tag);
    void end_section();

    template <class T>
    void operator()(const T& v) {
        emit(*this, v);
    }

    template <class Body>
    void section(std::uint32_t tag, Body&& body) {
        begin_section(tag);
        body();
        end_section();
    }

    template <class W>
    void put_word(W w) {
        if constexpr (sizeof w == 1) {
            put_u8(w);
        } else if constexpr (sizeof w == 4) {
            put_u32(w);
        } else {
            put_u64(w);
        }
    }

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
///
/// A reader is also the reading `io` of a field walk (fields.hpp):
/// operator() decodes one scalar or string into its argument, section()
/// enters a section, runs the body and leaves it.
class SnapshotReader {
public:
    static constexpr bool kReads = true;

    explicit SnapshotReader(std::span<const std::uint8_t> bytes);

    template <class T>
    void operator()(T& v) {
        if constexpr (std::is_same_v<T, std::string>) {
            v = get_string();
        } else if constexpr (sizeof(to_wire(v)) == 1) {
            v = from_wire<T>(get_u8());
        } else if constexpr (sizeof(to_wire(v)) == 4) {
            v = from_wire<T>(get_u32());
        } else {
            v = from_wire<T>(get_u64());
        }
    }

    template <class Body>
    void section(std::uint32_t tag, Body&& body) {
        enter_section(tag);
        body();
        leave_section();
    }

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

private:
    /// End offset of the innermost open section (or the content area).
    [[nodiscard]] std::size_t bound() const noexcept;
    void require(std::size_t n, const char* what) const;
    /// Bounds-checked little-endian read of one unsigned word.
    template <class W>
    W word(const char* what);

    std::span<const std::uint8_t> bytes_;
    std::size_t cursor_ = 0;
    std::size_t content_end_ = 0;  ///< start of the trailing file CRC
    std::vector<std::size_t> ends_;  ///< open sections' end offsets
};

}  // namespace fxg::snapshot
