// The sealed envelope: one self-validating binary layout shared by every
// format that moves Dart state across a boundary (the DCKP checkpoint
// image across a crash, the DFRM fleet frame across a process):
//
//   offset  0  4-byte magic
//   offset  4  u32 format version
//   offset  8  u32 CRC-32 (IEEE) over every byte from offset 12 to the end
//   offset 12  the format's fixed header fields
//   header_bytes - 4  u32 section count
//   then per section: u32 section id, u64 payload length, payload bytes.
//
// All integers are little-endian. Framing is strict: a section header cut
// short, a length past the end, bytes after the last section, and (through
// index_sections) an unknown or repeated id are damage, never skipped.
// Errors are typed, with the byte offset of the damage; a reader that runs
// out of bytes reports the start of the read that failed.
//
// Quiesce-time code (images are cut at epoch barriers, frames once per
// epoch): exempt from the hot-path lint.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace dart {

enum class SealedErrorCode : std::uint8_t {
  kNone = 0,
  kTruncated,         ///< fewer bytes than the header/frame promises
  kBadMagic,          ///< not this format
  kBadVersion,        ///< format version this reader does not speak
  kCrcMismatch,       ///< integrity check failed (torn write or corruption)
  kBadSectionHeader,  ///< section frame inconsistent with the byte count
  kDuplicateSection,  ///< the same section id appears twice
  kMissingSection,    ///< a section the target requires is absent
  kBadFieldValue,     ///< a field decodes to an impossible value
  kGeometryMismatch,  ///< image was cut from a differently-configured monitor
  kTrailingBytes,     ///< bytes after the last declared section
  kUnsupported,       ///< target cannot restore (e.g. non-Dart monitor)
  kIoError,           ///< file read/write failed
  kBadKind,           ///< frame kind outside the known set
};

const char* to_string(SealedErrorCode code);

/// A typed diagnostic: what went wrong and where (byte offset into the
/// image; 0 when the offset is meaningless, e.g. kIoError).
struct SealedError {
  SealedErrorCode code = SealedErrorCode::kNone;
  std::uint64_t offset = 0;

  explicit operator bool() const { return code != SealedErrorCode::kNone; }
  std::string to_string() const;

  static SealedError ok() { return {}; }
  static SealedError at(SealedErrorCode code, std::uint64_t offset) {
    return SealedError{code, offset};
  }
};

/// What tells one sealed format from another.
struct SealedFormat {
  std::array<std::uint8_t, 4> magic;
  std::uint32_t version;
  std::size_t header_bytes;  ///< everything before the first section
};

inline constexpr std::size_t kSealedCrcOffset = 8;
/// First byte covered by the CRC (everything before it identifies the
/// format; everything after it is integrity-checked content).
inline constexpr std::size_t kSealedCrcStart = 12;
inline constexpr std::size_t kSectionHeaderBytes = 12;  ///< u32 id + u64 length

/// One framed section, as the envelope check found it.
struct SealedSection {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;  ///< of the payload, into the image
  std::uint64_t length = 0;  ///< payload bytes
};

/// The envelope as parsed, filled as far as parsing got.
struct SealedInfo {
  std::uint32_t version = 0;
  std::uint32_t stored_crc = 0;
  std::uint32_t computed_crc = 0;
  std::vector<SealedSection> sections;
};

/// Check magic, version, CRC and the section table (framing, trailing
/// bytes), filling `info` as far as parsing got. Returns the first damage
/// found; an image that passes has a structurally sound frame.
SealedError check_sealed(std::span<const std::uint8_t> bytes,
                         const SealedFormat& format, SealedInfo* info);

/// Index `sections` by id into the all-null `index`: `index[id]` points at
/// the section with that id. An id of 0 or past `index.size() - 1` is
/// kBadSectionHeader and a repeat is kDuplicateSection, each at the
/// offending section's header.
SealedError index_sections(std::span<const SealedSection> sections,
                           std::span<const SealedSection*> index);

/// Recompute and store the CRC (requires a complete header). Used by the
/// writer's seal step and by tools and tests that edit sealed bytes.
void reseal(std::span<std::uint8_t> bytes, const SealedFormat& format);

/// Read a whole file (kIoError on failure; no parsing).
SealedError read_sealed_file(const std::string& path,
                             std::vector<std::uint8_t>* bytes);

/// Little-endian append-only byte sink. The constructor writes magic,
/// version and a CRC placeholder; the format's header fields follow through
/// u8..u64, then sections are framed by begin_section/end_section and
/// seal() stamps the section count and the CRC. Infallible. Each word is
/// one bounds check and one copy into a buffer that grows by doubling.
class SealedWriter {
 public:
  explicit SealedWriter(const SealedFormat& format);

  void u8(std::uint8_t value) { put(value); }
  void u16(std::uint16_t value) { put(value); }
  void u32(std::uint32_t value) { put(value); }
  void u64(std::uint64_t value) { put(value); }
  void bytes(std::span<const std::uint8_t> data);

  void begin_section(std::uint32_t id);
  void end_section();

  /// Finish the image: stamp section count + CRC. The writer is spent.
  std::vector<std::uint8_t> seal();

 private:
  template <typename T>
  void put(T value);
  /// Room for `n` more bytes: where they go.
  std::uint8_t* extend(std::size_t n) {
    if (bytes_.size() - size_ < n) grow(n);
    std::uint8_t* at = bytes_.data() + size_;
    size_ += n;
    return at;
  }
  void grow(std::size_t n);
  void open_table();

  SealedFormat format_;
  std::vector<std::uint8_t> bytes_;  ///< written bytes, then spare room
  std::size_t size_ = 0;             ///< bytes written
  std::size_t open_section_payload_at_ = 0;
  bool section_open_ = false;
  bool table_open_ = false;
  std::uint32_t section_count_ = 0;
};

/// Bounds-checked little-endian cursor over one payload. A read past the
/// end sets a sticky kTruncated error at the start of that read and returns
/// zero; callers check error() once after a batch of reads.
class SealedReader {
 public:
  /// `base_offset` is the payload's offset into the whole image, so error
  /// offsets point at the actual damaged byte.
  SealedReader(std::span<const std::uint8_t> payload,
               std::uint64_t base_offset);
  /// A reader over one section's payload.
  SealedReader(std::span<const std::uint8_t> image,
               const SealedSection& section);

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::span<const std::uint8_t> bytes(std::size_t n);

  /// Flag an impossible decoded value at the position just read.
  void fail_field();

  /// A typed error anchored at the position just read — for failures the
  /// caller diagnoses itself (e.g. geometry mismatches).
  SealedError error_here(SealedErrorCode code) const;

  std::size_t remaining() const { return payload_.size() - pos_; }
  const SealedError& error() const { return error_; }

  /// The sticky error, else kTrailingBytes unless the payload was consumed
  /// exactly.
  SealedError finish() const;

 private:
  template <typename T>
  T get();
  bool take(std::size_t n);

  std::span<const std::uint8_t> payload_;
  std::uint64_t base_offset_;
  std::size_t pos_ = 0;
  std::size_t last_read_at_ = 0;
  SealedError error_;
};

// Each word moves in one step: a copy of its bytes, plus a byte swap
// compiled only on big-endian hosts.
template <typename T>
constexpr T to_little_endian(T value) {
  if constexpr (std::endian::native == std::endian::big) {
    T swapped = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      swapped = static_cast<T>((swapped << 8) | (value & 0xFF));
      value = static_cast<T>(value >> 8);
    }
    return swapped;
  }
  return value;
}

template <typename T>
void SealedWriter::put(T value) {
  value = to_little_endian(value);
  std::memcpy(extend(sizeof(T)), &value, sizeof(T));
}

template <typename T>
T SealedReader::get() {
  if (!take(sizeof(T))) return 0;
  T value = 0;
  std::memcpy(&value, payload_.data() + last_read_at_, sizeof(T));
  return to_little_endian(value);
}

}  // namespace dart
