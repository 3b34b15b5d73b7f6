// dart-ckpt: inspect and verify Dart checkpoint images (the recovery
// artifacts the sharded runtime cuts at epoch barriers).
//
//   dart-ckpt inspect <file>    print header, cursors, CRC and sections
//   dart-ckpt verify <file>     deep-validate; exit 0 iff fully restorable
//   dart-ckpt make-demo <file>  cut a deterministic demo image, optionally
//                               damaging it (the ctest reject matrix)
//
// verify goes beyond envelope checks: it rebuilds a monitor from the
// image's own config section and performs a real restore, so field-level
// damage hiding behind a valid CRC is still caught. Exit codes: 0 valid,
// 1 damaged, 2 usage error.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "core/flow_filter.hpp"
#include "core/stats.hpp"
#include "gen/workload.hpp"
#include "tools/cli_flags.hpp"

namespace {

using dart::SealedError;
using dart::SealedSection;
using dart::core::CheckpointImage;
using dart::core::CheckpointInfo;
using dart::core::CheckpointSection;

void print_usage(std::ostream& out) {
  out << "usage: dart-ckpt <command> [options]\n"
         "\n"
         "  inspect <file>     print header, cursors, CRC and section map\n"
         "  verify <file>      deep-validate the image (envelope + full\n"
         "                     restore into a monitor built from the\n"
         "                     image's config section); exit 0 iff valid\n"
         "  make-demo <file>   write a deterministic demo checkpoint\n"
         "    --flip-crc       corrupt the stored CRC\n"
         "    --truncate N     keep only the first N bytes\n"
         "    --corrupt-body   flip a byte inside the stats section\n"
         "    --reseal         recompute the CRC after damaging the body\n"
         "                     (damage then only detectable by verify)\n";
}

const char* section_name(std::uint32_t id) {
  switch (static_cast<CheckpointSection>(id)) {
    case CheckpointSection::kConfig: return "config";
    case CheckpointSection::kStats: return "stats";
    case CheckpointSection::kRangeTracker: return "range-tracker";
    case CheckpointSection::kPacketTracker: return "packet-tracker";
    case CheckpointSection::kShadowRt: return "shadow-rt";
    case CheckpointSection::kShadowBacklog: return "shadow-backlog";
    case CheckpointSection::kFlowFilter: return "flow-filter";
  }
  return "unknown";
}

/// Rebuild a monitor from the image's own config section and restore into
/// it. Returns the first error anywhere in the chain.
SealedError deep_verify(const CheckpointImage& image) {
  dart::core::DartConfig config;
  if (const SealedError err = dart::core::read_config(image, &config)) {
    return err;
  }
  dart::core::DartMonitor monitor(config,
                                  [](const dart::core::RttSample&) {});
  // If the image carries a flow filter, install an identical one: filter
  // presence is part of the monitor shape restore() insists on.
  dart::core::CheckpointSections sections;
  if (const SealedError err =
          dart::core::index_checkpoint(image, &sections)) {
    return err;
  }
  dart::core::FlowFilter filter;
  const SealedSection* filter_section =
      sections[CheckpointSection::kFlowFilter];
  if (filter_section != nullptr) {
    dart::SealedReader reader(image.bytes, *filter_section);
    if (const SealedError err = filter.restore(reader)) return err;
    monitor.set_flow_filter(&filter);
  }
  return monitor.restore(image);
}

int cmd_inspect(const std::string& path) {
  CheckpointImage image;
  if (const SealedError err = dart::core::load_checkpoint(path, &image)) {
    std::cerr << "dart-ckpt: " << path << ": " << err.to_string() << "\n";
    return 1;
  }
  CheckpointInfo info;
  const SealedError err = dart::core::read_info(image, &info);
  std::cout << "file            " << path << "\n"
            << "size            " << image.bytes.size() << " bytes\n"
            << "version         " << info.version << "\n"
            << "epoch           " << info.meta.epoch << "\n"
            << "cursor          " << info.meta.cursor << "\n"
            << "sample-cursor   " << info.meta.sample_cursor << "\n";
  std::cout << "crc             stored=" << std::hex << std::showbase
            << info.stored_crc << " computed=" << info.computed_crc
            << std::dec << std::noshowbase
            << (info.stored_crc == info.computed_crc ? " (match)"
                                                     : " (MISMATCH)")
            << "\n";
  std::cout << "sections        " << info.sections.size() << "\n";
  for (const SealedSection& section : info.sections) {
    std::cout << "  id " << section.id << "  " << section_name(section.id)
              << "  offset " << section.offset << "  length "
              << section.length << "\n";
  }
  if (err) {
    std::cout << "status          DAMAGED: " << err.to_string() << "\n";
    return 1;
  }
  std::cout << "status          OK (envelope)\n";
  return 0;
}

/// Attribute a deep-restore failure to the framed section that contains
/// the damaged byte. Each section owns its 12-byte framing header (u32 id
/// + u64 length) plus its payload; offsets below the image header fall in
/// the envelope. Best-effort: an unreadable section map prints nothing.
void describe_failure_site(const CheckpointImage& image,
                           const SealedError& err, std::ostream& out) {
  if (err.offset == 0) return;  // offsetless errors, e.g. I/O
  if (err.offset < dart::core::kCheckpointHeaderBytes) {
    out << " [image header, byte " << err.offset << "]";
    return;
  }
  CheckpointInfo info;
  if (dart::core::read_info(image, &info)) return;
  for (const SealedSection& section : info.sections) {
    const std::uint64_t begin = section.offset - dart::kSectionHeaderBytes;
    const std::uint64_t end = section.offset + section.length;
    if (err.offset >= begin && err.offset < end) {
      out << " [section " << section.id << " (" << section_name(section.id)
          << "), bytes " << begin << ".." << end << ", damage at byte "
          << err.offset << "]";
      return;
    }
  }
  out << " [byte " << err.offset << ", outside every framed section]";
}

int cmd_verify(const std::string& path) {
  CheckpointImage image;
  if (const SealedError err = dart::core::load_checkpoint(path, &image)) {
    std::cerr << "dart-ckpt: " << path << ": " << err.to_string() << "\n";
    return 1;
  }
  if (const SealedError err = deep_verify(image)) {
    std::cerr << "dart-ckpt: " << path << ": " << err.to_string();
    describe_failure_site(image, err, std::cerr);
    std::cerr << "\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}

/// A deterministic image: a small shadow-RT monitor with a flow filter,
/// fed a fixed synthetic workload. Every invocation produces identical
/// bytes, which is what the golden round-trip CI check relies on.
CheckpointImage demo_image() {
  dart::core::DartConfig config;
  config.rt_size = 1024;
  config.pt_size = 2048;
  config.shadow_rt = true;
  config.rt_idle_timeout = 2'000'000'000ULL;  // 2 s
  dart::core::FlowFilter filter = dart::core::FlowFilter::allow_all();
  std::uint64_t samples = 0;
  dart::core::DartMonitor monitor(
      config, [&samples](const dart::core::RttSample&) { ++samples; });
  monitor.set_flow_filter(&filter);

  dart::gen::CampusConfig workload;
  workload.seed = 7;
  workload.connections = 64;
  workload.duration = 1'000'000'000ULL;  // 1 s
  const dart::trace::Trace trace = dart::gen::build_campus(workload);
  monitor.process_all(trace.packets());

  dart::core::SnapshotMeta meta;
  meta.epoch = 1;
  meta.cursor = trace.packets().size();
  meta.sample_cursor = samples;
  return monitor.snapshot(meta);
}

int cmd_make_demo(const std::string& path,
                  const std::vector<std::string>& options) {
  bool flip_crc = false;
  bool corrupt_body = false;
  bool reseal = false;
  std::size_t truncate_to = ~std::size_t{0};
  for (std::size_t i = 0; i < options.size(); ++i) {
    const std::string& option = options[i];
    if (option == "--flip-crc") {
      flip_crc = true;
    } else if (option == "--corrupt-body") {
      corrupt_body = true;
    } else if (option == "--reseal") {
      reseal = true;
    } else if (option == "--truncate") {
      if (i + 1 >= options.size()) {
        std::cerr << "error: --truncate needs a value\n";
        return 2;
      }
      if (!dart::tools::flag_value("dart-ckpt", option, options[++i],
                                   &truncate_to)) {
        return 2;
      }
    } else {
      std::cerr << "error: unknown option '" << option << "'\n";
      return 2;
    }
  }

  CheckpointImage image = demo_image();
  if (corrupt_body) {
    // Flip the low byte of the stats section's field count: a precise,
    // deterministic wound that survives a reseal (the CRC matches again)
    // but can never pass a real restore.
    CheckpointInfo info;
    if (dart::core::read_info(image, &info)) {
      std::cerr << "error: demo image unexpectedly damaged\n";
      return 1;
    }
    for (const SealedSection& section : info.sections) {
      if (section.id == static_cast<std::uint32_t>(CheckpointSection::kStats)) {
        image.bytes[section.offset] ^= 0xFF;
        break;
      }
    }
  }
  if (truncate_to != ~std::size_t{0} && truncate_to < image.bytes.size()) {
    image.bytes.resize(truncate_to);
  }
  if (reseal) dart::core::reseal_checkpoint(image);
  if (flip_crc && image.bytes.size() > dart::kSealedCrcOffset) {
    image.bytes[dart::kSealedCrcOffset] ^= 0xFF;
  }
  if (const SealedError err = dart::core::save_checkpoint(image, path)) {
    std::cerr << "dart-ckpt: " << path << ": " << err.to_string() << "\n";
    return 1;
  }
  std::cout << "wrote " << image.bytes.size() << " bytes to " << path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    print_usage(args.empty() ? std::cerr : std::cout);
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  if (command == "inspect" || command == "verify") {
    if (args.size() != 2) {
      std::cerr << "error: " << command << " takes exactly one file\n";
      return 2;
    }
    return command == "inspect" ? cmd_inspect(args[1]) : cmd_verify(args[1]);
  }
  if (command == "make-demo") {
    if (args.size() < 2) {
      std::cerr << "error: make-demo needs an output file\n";
      return 2;
    }
    return cmd_make_demo(
        args[1], std::vector<std::string>(args.begin() + 2, args.end()));
  }
  std::cerr << "error: unknown command '" << command << "'\n";
  print_usage(std::cerr);
  return 2;
}
