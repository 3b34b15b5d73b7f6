#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "common/hashing.hpp"
#include "common/strings.hpp"
#include "core/stats.hpp"

namespace dart::core {
namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'C', 'K', 'P'};

std::uint32_t image_crc(const CheckpointImage& image) {
  return crc32(std::span<const std::uint8_t>(image.bytes)
                   .subspan(kCheckpointCrcStart));
}

std::uint32_t le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint64_t le64(const std::uint8_t* p) {
  return std::uint64_t{le32(p)} | (std::uint64_t{le32(p + 4)} << 32);
}

}  // namespace

const char* to_string(CheckpointErrorCode code) {
  switch (code) {
    case CheckpointErrorCode::kNone:
      return "ok";
    case CheckpointErrorCode::kTruncated:
      return "truncated image";
    case CheckpointErrorCode::kBadMagic:
      return "bad magic";
    case CheckpointErrorCode::kBadVersion:
      return "unsupported version";
    case CheckpointErrorCode::kCrcMismatch:
      return "crc mismatch";
    case CheckpointErrorCode::kBadSectionHeader:
      return "bad section header";
    case CheckpointErrorCode::kDuplicateSection:
      return "duplicate section";
    case CheckpointErrorCode::kMissingSection:
      return "missing section";
    case CheckpointErrorCode::kBadFieldValue:
      return "bad field value";
    case CheckpointErrorCode::kGeometryMismatch:
      return "geometry mismatch";
    case CheckpointErrorCode::kTrailingBytes:
      return "trailing bytes";
    case CheckpointErrorCode::kUnsupported:
      return "restore unsupported";
    case CheckpointErrorCode::kIoError:
      return "i/o error";
  }
  return "unknown";
}

std::string CheckpointError::to_string() const {
  std::string out = core::to_string(code);
  if (code != CheckpointErrorCode::kNone &&
      code != CheckpointErrorCode::kIoError) {
    out += " at byte offset " + format_count(offset);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer.

CheckpointWriter::CheckpointWriter(const SnapshotMeta& meta) {
  image_.bytes.reserve(256);
  for (const std::uint8_t byte : kMagic) image_.bytes.push_back(byte);
  u32(kCheckpointVersion);
  u32(0);  // CRC, stamped by seal()
  u64(meta.epoch);
  u64(meta.cursor);
  u64(meta.sample_cursor);
  u32(0);  // section count, stamped by seal()
}

void CheckpointWriter::u8(std::uint8_t value) {
  image_.bytes.push_back(value);
}

void CheckpointWriter::u16(std::uint16_t value) {
  u8(static_cast<std::uint8_t>(value & 0xFF));
  u8(static_cast<std::uint8_t>(value >> 8));
}

void CheckpointWriter::u32(std::uint32_t value) {
  u16(static_cast<std::uint16_t>(value & 0xFFFF));
  u16(static_cast<std::uint16_t>(value >> 16));
}

void CheckpointWriter::u64(std::uint64_t value) {
  u32(static_cast<std::uint32_t>(value & 0xFFFF'FFFF));
  u32(static_cast<std::uint32_t>(value >> 32));
}

void CheckpointWriter::patch_u32(std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    image_.bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF);
  }
}

void CheckpointWriter::patch_u64(std::size_t offset, std::uint64_t value) {
  patch_u32(offset, static_cast<std::uint32_t>(value & 0xFFFF'FFFF));
  patch_u32(offset + 4, static_cast<std::uint32_t>(value >> 32));
}

void CheckpointWriter::begin_section(CheckpointSection id) {
  u32(static_cast<std::uint32_t>(id));
  open_section_length_at_ = image_.bytes.size();
  u64(0);  // payload length, patched by end_section()
  open_section_payload_at_ = image_.bytes.size();
  section_open_ = true;
  ++section_count_;
}

void CheckpointWriter::end_section() {
  patch_u64(open_section_length_at_,
            image_.bytes.size() - open_section_payload_at_);
  section_open_ = false;
}

CheckpointImage CheckpointWriter::seal() {
  if (section_open_) end_section();
  patch_u32(kCheckpointHeaderBytes - 4, section_count_);
  patch_u32(kCheckpointCrcOffset, image_crc(image_));
  return std::move(image_);
}

void reseal_checkpoint(CheckpointImage& image) {
  if (image.bytes.size() < kCheckpointHeaderBytes) return;
  const std::uint32_t crc = image_crc(image);
  for (int i = 0; i < 4; ++i) {
    image.bytes[kCheckpointCrcOffset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
  }
}

// ---------------------------------------------------------------------------
// Reader.

CheckpointReader::CheckpointReader(std::span<const std::uint8_t> payload,
                                   std::uint64_t base_offset)
    : payload_(payload), base_offset_(base_offset) {}

bool CheckpointReader::take(std::size_t n) {
  if (error_) return false;
  if (payload_.size() - pos_ < n) {
    error_ = CheckpointError::at(CheckpointErrorCode::kTruncated,
                                 base_offset_ + payload_.size());
    return false;
  }
  last_read_at_ = pos_;
  pos_ += n;
  return true;
}

std::uint8_t CheckpointReader::u8() {
  if (!take(1)) return 0;
  return payload_[pos_ - 1];
}

std::uint16_t CheckpointReader::u16() {
  if (!take(2)) return 0;
  return static_cast<std::uint16_t>(std::uint16_t{payload_[pos_ - 2]} |
                                    (std::uint16_t{payload_[pos_ - 1]} << 8));
}

std::uint32_t CheckpointReader::u32() {
  if (!take(4)) return 0;
  return le32(payload_.data() + pos_ - 4);
}

std::uint64_t CheckpointReader::u64() {
  if (!take(8)) return 0;
  return le64(payload_.data() + pos_ - 8);
}

void CheckpointReader::fail_field() {
  if (error_) return;
  error_ = CheckpointError::at(CheckpointErrorCode::kBadFieldValue,
                               base_offset_ + last_read_at_);
}

CheckpointError CheckpointReader::error_here(CheckpointErrorCode code) const {
  return CheckpointError::at(code, base_offset_ + last_read_at_);
}

CheckpointError CheckpointReader::finish() const {
  if (error_) return error_;
  if (pos_ != payload_.size()) {
    return CheckpointError::at(CheckpointErrorCode::kTrailingBytes,
                               base_offset_ + pos_);
  }
  return CheckpointError::ok();
}

// ---------------------------------------------------------------------------
// Envelope validation.

CheckpointError read_info(const CheckpointImage& image, CheckpointInfo* info) {
  const auto& bytes = image.bytes;
  if (bytes.size() < kCheckpointHeaderBytes) {
    return CheckpointError::at(CheckpointErrorCode::kTruncated, bytes.size());
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return CheckpointError::at(CheckpointErrorCode::kBadMagic, 0);
  }
  const std::uint32_t version = le32(bytes.data() + 4);
  if (info != nullptr) info->version = version;
  if (version != kCheckpointVersion) {
    return CheckpointError::at(CheckpointErrorCode::kBadVersion, 4);
  }
  const std::uint32_t stored_crc = le32(bytes.data() + kCheckpointCrcOffset);
  const std::uint32_t computed_crc = image_crc(image);
  if (info != nullptr) {
    info->stored_crc = stored_crc;
    info->computed_crc = computed_crc;
    info->meta.epoch = le64(bytes.data() + 12);
    info->meta.cursor = le64(bytes.data() + 20);
    info->meta.sample_cursor = le64(bytes.data() + 28);
    info->sections.clear();
  }
  if (stored_crc != computed_crc) {
    return CheckpointError::at(CheckpointErrorCode::kCrcMismatch,
                               kCheckpointCrcOffset);
  }
  const std::uint32_t section_count =
      le32(bytes.data() + kCheckpointHeaderBytes - 4);

  std::size_t pos = kCheckpointHeaderBytes;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (bytes.size() - pos < 12) {
      return CheckpointError::at(CheckpointErrorCode::kBadSectionHeader, pos);
    }
    const std::uint32_t id = le32(bytes.data() + pos);
    const std::uint64_t length = le64(bytes.data() + pos + 4);
    pos += 12;
    if (length > bytes.size() - pos) {
      return CheckpointError::at(CheckpointErrorCode::kBadSectionHeader,
                                 pos - 8);
    }
    if (info != nullptr) {
      info->sections.push_back(CheckpointSectionInfo{id, pos, length});
    }
    pos += static_cast<std::size_t>(length);
  }
  if (pos != bytes.size()) {
    return CheckpointError::at(CheckpointErrorCode::kTrailingBytes, pos);
  }
  return CheckpointError::ok();
}

CheckpointError read_stats(const CheckpointImage& image, DartStats* stats) {
  CheckpointInfo info;
  if (const CheckpointError err = read_info(image, &info)) return err;
  for (const CheckpointSectionInfo& section : info.sections) {
    if (section.id != static_cast<std::uint32_t>(CheckpointSection::kStats)) {
      continue;
    }
    CheckpointReader reader(
        std::span<const std::uint8_t>(image.bytes)
            .subspan(static_cast<std::size_t>(section.offset),
                     static_cast<std::size_t>(section.length)),
        section.offset);
    DartStats staged;
    if (const CheckpointError err = staged.restore(reader)) return err;
    if (const CheckpointError err = reader.finish()) return err;
    *stats = staged;
    return CheckpointError::ok();
  }
  return CheckpointError::at(CheckpointErrorCode::kMissingSection,
                             image.bytes.size());
}

// ---------------------------------------------------------------------------
// File I/O.

CheckpointError save_checkpoint(const CheckpointImage& image,
                                const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return CheckpointError::at(CheckpointErrorCode::kIoError, 0);
  out.write(reinterpret_cast<const char*>(image.bytes.data()),
            static_cast<std::streamsize>(image.bytes.size()));
  // Flush before reporting: a full disk surfaces only when the buffered
  // tail is written, and the destructor would swallow that error.
  if (!out.flush()) return CheckpointError::at(CheckpointErrorCode::kIoError, 0);
  return CheckpointError::ok();
}

CheckpointError load_checkpoint(const std::string& path,
                                CheckpointImage* image) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return CheckpointError::at(CheckpointErrorCode::kIoError, 0);
  image->bytes.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return CheckpointError::at(CheckpointErrorCode::kIoError, 0);
  return CheckpointError::ok();
}

}  // namespace dart::core
