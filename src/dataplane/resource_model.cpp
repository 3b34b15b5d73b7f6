#include "dataplane/resource_model.hpp"

namespace dart::dataplane {

TargetProfile tofino1_profile() {
  TargetProfile p;
  p.name = "Tofino 1";
  p.stages = 12;
  p.sram_bytes = 15ULL << 20;  // ~tens of MB per pipeline [19]
  p.tcam_bytes = 2ULL << 20;
  p.hash_units = 12 * 6;
  p.logical_tables = 12 * 8;
  p.input_crossbars = 12 * 16;
  p.max_recirculations_per_packet = 4;
  return p;
}

TargetProfile tofino2_profile() {
  TargetProfile p;
  p.name = "Tofino 2";
  p.stages = 20;
  p.sram_bytes = 25ULL << 20;
  p.tcam_bytes = 3ULL << 20;
  p.hash_units = 20 * 6;
  p.logical_tables = 20 * 8;
  p.input_crossbars = 20 * 16;
  p.max_recirculations_per_packet = 8;
  return p;
}

std::vector<UtilizationRow> utilization(const ResourceUsage& usage,
                                        const TargetProfile& target) {
  auto pct = [](double used, double budget) {
    return budget <= 0.0 ? 0.0 : 100.0 * used / budget;
  };
  return {
      {"TCAM", pct(static_cast<double>(usage.tcam_bytes),
                   static_cast<double>(target.tcam_bytes))},
      {"SRAM", pct(static_cast<double>(usage.sram_bytes),
                   static_cast<double>(target.sram_bytes))},
      {"Hash Units", pct(usage.hash_units, target.hash_units)},
      {"Logical Tables", pct(usage.logical_tables, target.logical_tables)},
      {"Input Crossbars",
       pct(usage.input_crossbars, target.input_crossbars)},
  };
}

std::vector<std::string> validate_layout(const DartLayout& layout,
                                         const TargetProfile& target) {
  const ResourceUsage usage = estimate_usage(layout);
  std::vector<std::string> problems;
  auto check = [&problems](std::uint64_t used, std::uint64_t budget,
                           const char* what) {
    if (used > budget) {
      problems.push_back(std::string(what) + ": " + std::to_string(used) +
                         " exceeds budget " + std::to_string(budget));
    }
  };
  check(usage.sram_bytes, target.sram_bytes, "SRAM bytes");
  check(usage.tcam_bytes, target.tcam_bytes, "TCAM bytes");
  check(usage.hash_units, target.hash_units, "hash units");
  check(usage.logical_tables, target.logical_tables, "logical tables");
  check(usage.input_crossbars, target.input_crossbars, "input crossbars");
  check(usage.stages_used, target.stages, "pipeline stages");
  return problems;
}

}  // namespace dart::dataplane
