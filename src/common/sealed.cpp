#include "common/sealed.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "common/hashing.hpp"
#include "common/strings.hpp"

namespace dart {
namespace {

template <typename T>
T load_le(std::span<const std::uint8_t> bytes, std::size_t at) {
  T value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return to_little_endian(value);
}

template <typename T>
void store_le(std::span<std::uint8_t> bytes, std::size_t at, T value) {
  value = to_little_endian(value);
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

std::uint32_t sealed_crc(std::span<const std::uint8_t> bytes) {
  return crc32(bytes.subspan(kSealedCrcStart));
}

}  // namespace

const char* to_string(SealedErrorCode code) {
  switch (code) {
    case SealedErrorCode::kNone: return "ok";
    case SealedErrorCode::kTruncated: return "truncated";
    case SealedErrorCode::kBadMagic: return "bad magic";
    case SealedErrorCode::kBadVersion: return "unsupported version";
    case SealedErrorCode::kCrcMismatch: return "CRC mismatch";
    case SealedErrorCode::kBadSectionHeader: return "bad section header";
    case SealedErrorCode::kDuplicateSection: return "duplicate section";
    case SealedErrorCode::kMissingSection: return "missing section";
    case SealedErrorCode::kBadFieldValue: return "bad field value";
    case SealedErrorCode::kGeometryMismatch: return "geometry mismatch";
    case SealedErrorCode::kTrailingBytes: return "trailing bytes";
    case SealedErrorCode::kUnsupported: return "restore unsupported";
    case SealedErrorCode::kIoError: return "I/O error";
    case SealedErrorCode::kBadKind: return "bad frame kind";
  }
  return "unknown";
}

std::string SealedError::to_string() const {
  std::string out = dart::to_string(code);
  if (code != SealedErrorCode::kNone && code != SealedErrorCode::kIoError) {
    out += " at byte offset " + format_count(offset);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Envelope.

SealedError check_sealed(std::span<const std::uint8_t> bytes,
                         const SealedFormat& format, SealedInfo* info) {
  *info = SealedInfo{};
  if (bytes.size() < format.header_bytes) {
    return SealedError::at(SealedErrorCode::kTruncated, bytes.size());
  }
  if (std::memcmp(bytes.data(), format.magic.data(), format.magic.size()) !=
      0) {
    return SealedError::at(SealedErrorCode::kBadMagic, 0);
  }
  info->version = load_le<std::uint32_t>(bytes, 4);
  if (info->version != format.version) {
    return SealedError::at(SealedErrorCode::kBadVersion, 4);
  }
  info->stored_crc = load_le<std::uint32_t>(bytes, kSealedCrcOffset);
  info->computed_crc = sealed_crc(bytes);
  if (info->stored_crc != info->computed_crc) {
    return SealedError::at(SealedErrorCode::kCrcMismatch, kSealedCrcOffset);
  }

  // The section table, read through the same bounds-checked cursor as every
  // payload: a header cut short fails at the read that ran out of bytes.
  SealedReader table(bytes.subspan(format.header_bytes - 4),
                     format.header_bytes - 4);
  const std::uint32_t count = table.u32();
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::uint64_t section_at = bytes.size() - table.remaining();
    const std::uint32_t id = table.u32();
    const std::uint64_t length = table.u64();
    if (table.error()) return table.error();
    if (length > table.remaining()) {
      return SealedError::at(SealedErrorCode::kBadSectionHeader, section_at);
    }
    info->sections.push_back(
        SealedSection{id, section_at + kSectionHeaderBytes, length});
    table.bytes(static_cast<std::size_t>(length));
  }
  return table.finish();
}

SealedError index_sections(std::span<const SealedSection> sections,
                           std::span<const SealedSection*> index) {
  for (const SealedSection& section : sections) {
    const std::uint64_t header_at = section.offset - kSectionHeaderBytes;
    if (section.id == 0 || section.id >= index.size()) {
      return SealedError::at(SealedErrorCode::kBadSectionHeader, header_at);
    }
    if (index[section.id] != nullptr) {
      return SealedError::at(SealedErrorCode::kDuplicateSection, header_at);
    }
    index[section.id] = &section;
  }
  return SealedError::ok();
}

void reseal(std::span<std::uint8_t> bytes, const SealedFormat& format) {
  if (bytes.size() < format.header_bytes) return;
  store_le(bytes, kSealedCrcOffset, sealed_crc(bytes));
}

SealedError read_sealed_file(const std::string& path,
                             std::vector<std::uint8_t>* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return SealedError::at(SealedErrorCode::kIoError, 0);
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  if (in.bad()) return SealedError::at(SealedErrorCode::kIoError, 0);
  return SealedError::ok();
}

// ---------------------------------------------------------------------------
// Writer.

SealedWriter::SealedWriter(const SealedFormat& format) : format_(format) {
  bytes_.resize(256);
  std::memcpy(extend(format.magic.size()), format.magic.data(),
              format.magic.size());
  u32(format.version);
  u32(0);  // CRC, stamped by seal()
}

void SealedWriter::grow(std::size_t n) {
  bytes_.resize(std::max(2 * bytes_.size(), size_ + n));
}

void SealedWriter::bytes(std::span<const std::uint8_t> data) {
  if (!data.empty()) std::memcpy(extend(data.size()), data.data(), data.size());
}

// The section count follows the format's header fields; it is opened by
// the first section (or by seal(), for an image with none).
void SealedWriter::open_table() {
  if (table_open_) return;
  u32(0);  // section count, stamped by seal()
  table_open_ = true;
}

void SealedWriter::begin_section(std::uint32_t id) {
  open_table();
  u32(id);
  u64(0);  // payload length, patched by end_section()
  open_section_payload_at_ = size_;
  section_open_ = true;
  ++section_count_;
}

void SealedWriter::end_section() {
  store_le<std::uint64_t>(bytes_, open_section_payload_at_ - 8,
                          size_ - open_section_payload_at_);
  section_open_ = false;
}

std::vector<std::uint8_t> SealedWriter::seal() {
  if (section_open_) end_section();
  open_table();
  bytes_.resize(size_);
  store_le(bytes_, format_.header_bytes - 4, section_count_);
  reseal(bytes_, format_);
  return std::move(bytes_);
}

// ---------------------------------------------------------------------------
// Reader.

SealedReader::SealedReader(std::span<const std::uint8_t> payload,
                           std::uint64_t base_offset)
    : payload_(payload), base_offset_(base_offset) {}

SealedReader::SealedReader(std::span<const std::uint8_t> image,
                           const SealedSection& section)
    : SealedReader(image.subspan(static_cast<std::size_t>(section.offset),
                                 static_cast<std::size_t>(section.length)),
                   section.offset) {}

bool SealedReader::take(std::size_t n) {
  if (error_) return false;
  if (payload_.size() - pos_ < n) {
    error_ = SealedError::at(SealedErrorCode::kTruncated, base_offset_ + pos_);
    return false;
  }
  last_read_at_ = pos_;
  pos_ += n;
  return true;
}

std::span<const std::uint8_t> SealedReader::bytes(std::size_t n) {
  if (!take(n)) return {};
  return payload_.subspan(last_read_at_, n);
}

void SealedReader::fail_field() {
  if (error_) return;
  error_ = SealedError::at(SealedErrorCode::kBadFieldValue,
                           base_offset_ + last_read_at_);
}

SealedError SealedReader::error_here(SealedErrorCode code) const {
  return SealedError::at(code, base_offset_ + last_read_at_);
}

SealedError SealedReader::finish() const {
  if (error_) return error_;
  if (pos_ != payload_.size()) {
    return SealedError::at(SealedErrorCode::kTrailingBytes,
                           base_offset_ + pos_);
  }
  return SealedError::ok();
}

}  // namespace dart
