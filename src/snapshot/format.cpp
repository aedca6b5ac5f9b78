#include "snapshot/format.hpp"

#include <array>
#include <cstring>

#include "snapshot/version.hpp"
#include "util/endian.hpp"

namespace fxg::snapshot {

namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
        table[i] = c;
    }
    return table;
}

constexpr std::size_t kMagicBytes = sizeof(kSnapshotMagic);
constexpr std::size_t kHeaderBytes = kMagicBytes + 4;      // magic + version
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 4;     // tag + len + crc
constexpr std::size_t kFileCrcBytes = 4;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n,
                    std::uint32_t crc) noexcept {
    static const std::array<std::uint32_t, 256> table = make_crc_table();
    std::uint32_t c = crc ^ 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
    }
    return c ^ 0xffffffffu;
}

std::string tag_name(std::uint32_t tag) {
    std::string s;
    for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>((tag >> (8 * i)) & 0xffu);
        s.push_back(c >= 0x20 && c < 0x7f ? c : '?');
    }
    return s;
}

// ------------------------------------------------------------------ writer

SnapshotWriter::SnapshotWriter() {
    buf_.reserve(256);
    buf_.insert(buf_.end(), kSnapshotMagic, kSnapshotMagic + kMagicBytes);
    put_u32(kSnapshotFormatVersion);
}

void SnapshotWriter::begin_section(std::uint32_t tag) {
    if (finished_) throw SnapshotError("SnapshotWriter: already finished");
    open_.push_back(buf_.size());
    put_u32(tag);
    put_u64(0);  // payload length, back-patched by end_section()
    put_u32(0);  // payload CRC, back-patched by end_section()
}

void SnapshotWriter::end_section() {
    if (open_.empty()) throw SnapshotError("SnapshotWriter: no open section");
    const std::size_t header = open_.back();
    open_.pop_back();
    const std::size_t payload = header + kSectionHeaderBytes;
    const std::size_t len = buf_.size() - payload;
    util::store_le(buf_.data() + header + 4, static_cast<std::uint64_t>(len));
    util::store_le(buf_.data() + header + 12, crc32(buf_.data() + payload, len));
}

void SnapshotWriter::put_u8(std::uint8_t v) { buf_.push_back(v); }
void SnapshotWriter::put_u32(std::uint32_t v) { util::append_le(buf_, v); }
void SnapshotWriter::put_u64(std::uint64_t v) { util::append_le(buf_, v); }
void SnapshotWriter::put_i64(std::int64_t v) { (*this)(v); }
void SnapshotWriter::put_f64(double v) { (*this)(v); }
void SnapshotWriter::put_bool(bool v) { (*this)(v); }
void SnapshotWriter::put_string(const std::string& v) { (*this)(v); }

void SnapshotWriter::put_bytes(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
}

std::vector<std::uint8_t> SnapshotWriter::finish() {
    if (finished_) throw SnapshotError("SnapshotWriter: already finished");
    if (!open_.empty()) {
        throw SnapshotError("SnapshotWriter: finish with an open section");
    }
    finished_ = true;
    put_u32(crc32(buf_.data(), buf_.size()));
    return std::move(buf_);
}

// ------------------------------------------------------------------ reader

SnapshotReader::SnapshotReader(std::span<const std::uint8_t> bytes)
    : bytes_(bytes) {
    if (bytes_.size() < kHeaderBytes + kFileCrcBytes) {
        throw SnapshotError("snapshot truncated: shorter than header + CRC");
    }
    if (std::memcmp(bytes_.data(), kSnapshotMagic, kMagicBytes) != 0) {
        throw SnapshotError("snapshot magic mismatch: not a .fxgsnap container");
    }
    const auto version = util::load_le<std::uint32_t>(bytes_.data() + kMagicBytes);
    if (version != kSnapshotFormatVersion) {
        throw SnapshotError("snapshot version skew: file v" +
                            std::to_string(version) + ", reader v" +
                            std::to_string(kSnapshotFormatVersion));
    }
    content_end_ = bytes_.size() - kFileCrcBytes;
    const auto want = util::load_le<std::uint32_t>(bytes_.data() + content_end_);
    const std::uint32_t got = crc32(bytes_.data(), content_end_);
    if (want != got) {
        throw SnapshotError("snapshot file CRC mismatch: corrupt or truncated");
    }
    cursor_ = kHeaderBytes;
}

std::size_t SnapshotReader::bound() const noexcept {
    return ends_.empty() ? content_end_ : ends_.back();
}

void SnapshotReader::require(std::size_t n, const char* what) const {
    // Subtraction form: cursor_ <= bound() always holds, and `n` may be
    // attacker-sized (a corrupt length field), so `cursor_ + n` could wrap.
    if (n > bound() - cursor_) {
        throw SnapshotError(std::string("snapshot section overrun reading ") +
                            what);
    }
}

std::uint32_t SnapshotReader::peek_tag() const {
    require(kSectionHeaderBytes, "section header");
    return util::load_le<std::uint32_t>(bytes_.data() + cursor_);
}

bool SnapshotReader::at_end() const noexcept { return cursor_ >= bound(); }

void SnapshotReader::enter_section(std::uint32_t expected_tag) {
    require(kSectionHeaderBytes, "section header");
    const auto tag = util::load_le<std::uint32_t>(bytes_.data() + cursor_);
    if (tag != expected_tag) {
        throw SnapshotError("snapshot section tag mismatch: expected '" +
                            tag_name(expected_tag) + "', found '" +
                            tag_name(tag) + "'");
    }
    const auto len = util::load_le<std::uint64_t>(bytes_.data() + cursor_ + 4);
    const auto want = util::load_le<std::uint32_t>(bytes_.data() + cursor_ + 12);
    const std::size_t payload = cursor_ + kSectionHeaderBytes;
    if (len > bound() - payload) {
        throw SnapshotError("snapshot section length overrun in '" +
                            tag_name(tag) + "'");
    }
    const std::uint32_t got =
        crc32(bytes_.data() + payload, static_cast<std::size_t>(len));
    if (want != got) {
        throw SnapshotError("snapshot section CRC mismatch in '" +
                            tag_name(tag) + "'");
    }
    cursor_ = payload;
    ends_.push_back(payload + static_cast<std::size_t>(len));
}

void SnapshotReader::leave_section() {
    if (ends_.empty()) throw SnapshotError("snapshot reader: no open section");
    if (cursor_ != ends_.back()) {
        throw SnapshotError("snapshot section not fully consumed");
    }
    ends_.pop_back();
}

template <class W>
W SnapshotReader::word(const char* what) {
    require(sizeof(W), what);
    const W v = util::load_le<W>(bytes_.data() + cursor_);
    cursor_ += sizeof(W);
    return v;
}

std::uint8_t SnapshotReader::get_u8() { return word<std::uint8_t>("u8"); }
std::uint32_t SnapshotReader::get_u32() { return word<std::uint32_t>("u32"); }
std::uint64_t SnapshotReader::get_u64() { return word<std::uint64_t>("u64"); }
std::int64_t SnapshotReader::get_i64() { return from_wire<std::int64_t>(get_u64()); }
double SnapshotReader::get_f64() { return from_wire<double>(get_u64()); }
bool SnapshotReader::get_bool() { return from_wire<bool>(get_u8()); }

std::string SnapshotReader::get_string() {
    const std::uint64_t len = get_u64();
    require(static_cast<std::size_t>(len), "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_),
                  static_cast<std::size_t>(len));
    cursor_ += static_cast<std::size_t>(len);
    return s;
}

}  // namespace fxg::snapshot
