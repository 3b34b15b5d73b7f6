#include "core/checkpoint.hpp"

#include <fstream>

#include "core/stats.hpp"

namespace dart::core {

CheckpointWriter::CheckpointWriter(const SnapshotMeta& meta)
    : SealedWriter(kCheckpointFormat) {
  u64(meta.epoch);
  u64(meta.cursor);
  u64(meta.sample_cursor);
}

SealedError read_info(const CheckpointImage& image, CheckpointInfo* info) {
  const SealedError err = check_sealed(image.bytes, kCheckpointFormat, info);
  // The header fields mean something once magic and version check out.
  if (info->version == kCheckpointVersion) {
    SealedReader header(
        std::span<const std::uint8_t>(image.bytes).subspan(kSealedCrcStart),
        kSealedCrcStart);
    info->meta.epoch = header.u64();
    info->meta.cursor = header.u64();
    info->meta.sample_cursor = header.u64();
  }
  return err;
}

SealedError index_checkpoint(const CheckpointImage& image,
                             CheckpointSections* sections) {
  if (const SealedError err = read_info(image, &sections->info)) return err;
  sections->by_id.fill(nullptr);
  return index_sections(sections->info.sections, sections->by_id);
}

SealedError read_stats(const CheckpointImage& image, DartStats* stats) {
  CheckpointSections sections;
  if (const SealedError err = index_checkpoint(image, &sections)) return err;
  const SealedSection* section = sections[CheckpointSection::kStats];
  if (section == nullptr) {
    return SealedError::at(SealedErrorCode::kMissingSection,
                           image.bytes.size());
  }
  SealedReader reader(image.bytes, *section);
  DartStats staged;
  if (const SealedError err = staged.restore(reader)) return err;
  if (const SealedError err = reader.finish()) return err;
  *stats = staged;
  return SealedError::ok();
}

SealedError save_checkpoint(const CheckpointImage& image,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return SealedError::at(SealedErrorCode::kIoError, 0);
  out.write(reinterpret_cast<const char*>(image.bytes.data()),
            static_cast<std::streamsize>(image.bytes.size()));
  // Flush before reporting: a full disk surfaces only when the buffered
  // tail is written, and the destructor would swallow that error.
  if (!out.flush()) return SealedError::at(SealedErrorCode::kIoError, 0);
  return SealedError::ok();
}

}  // namespace dart::core
