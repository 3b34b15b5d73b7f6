// Analytic accounting of the data-plane resources a Dart deployment
// consumes, standing in for the hardware compiler report behind Table 1.
//
// The paper reports utilization percentages for TCAM, SRAM, hash units,
// logical tables, and input crossbars on Tofino 1 and Tofino 2. Without the
// proprietary toolchain we reproduce the same *inventory*: what each Dart
// component (Range Tracker spread over 3 component tables, k-stage Packet
// Tracker, payload-size lookup table (Section 4), flow-selection rules)
// costs, against published, order-of-magnitude chip budgets. Percentages are
// therefore simulated, not measured; DESIGN.md documents the substitution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dart::dataplane {

/// Per-chip budgets. Values are public order-of-magnitude figures: a few
/// tens of MB of SRAM per pipeline (the paper cites [19]), a few MB of
/// TCAM, and fixed per-stage hash/crossbar resources.
///
/// The totals (hash_units, input_crossbars, ...) feed the Table 1
/// utilization report; the per-stage figures below feed the static
/// pipeline checker (dataplane/verify), which reasons about stage-local
/// capacity rather than chip-wide sums. The two views are kept
/// consistent: total = stages * per-stage, and one crossbar unit carries
/// two key bytes (16 units/stage = 32 B/stage).
struct TargetProfile {
  std::string name;
  std::uint32_t stages = 12;
  std::uint64_t sram_bytes = 0;
  std::uint64_t tcam_bytes = 0;
  std::uint32_t hash_units = 0;
  std::uint32_t logical_tables = 0;
  std::uint32_t input_crossbars = 0;

  /// Stage-local budgets for the static checker.
  std::uint32_t hash_units_per_stage = 6;
  std::uint32_t tables_per_stage = 8;
  std::uint32_t crossbar_bytes_per_stage = 32;
  /// Stateful-ALU operand width: the widest register a single-stage
  /// read-modify-write can act on.
  std::uint32_t salu_width_bits = 32;
  /// Worst-case recirculation hops one packet may take before the
  /// recirculation port's bandwidth share is exceeded (Section 5).
  std::uint32_t max_recirculations_per_packet = 4;
};

TargetProfile tofino1_profile();
TargetProfile tofino2_profile();

/// Physical layout of one Dart instance.
struct DartLayout {
  std::size_t rt_slots = 1 << 16;
  std::size_t pt_slots = 1 << 17;
  std::uint32_t pt_stages = 1;
  /// The paper spreads each of RT and PT over 3 component tables because
  /// values must be acted on sequentially within a pass (Section 4).
  std::uint32_t component_tables_per_logical = 3;
  /// RT record: 4 B signature + 4 B left + 4 B right (+ flags).
  std::uint32_t rt_entry_bytes = 13;
  /// PT record: 4 B signature + 4 B eACK + 4 B timestamp + bookkeeping.
  std::uint32_t pt_entry_bytes = 16;
  /// Precomputed TCP payload-size lookup table (Section 4): one entry per
  /// (IP total length, TCP header length) combination in common ranges.
  std::uint32_t payload_lut_entries = (1480 - 40 + 1) * (15 - 5 + 1);
  /// Control-plane installed flow-selection rules (Section 4, "Specifying
  /// target flows") live in TCAM.
  std::uint32_t flow_filter_rules = 1024;
  bool both_legs = false;  ///< dual-leg monitoring duplicates role logic
};

struct ResourceUsage {
  std::uint64_t sram_bytes = 0;
  std::uint64_t tcam_bytes = 0;
  std::uint32_t hash_units = 0;
  std::uint32_t logical_tables = 0;
  std::uint32_t input_crossbars = 0;
  std::uint32_t stages_used = 0;
};

/// What a layout consumes; constexpr for static_checks.hpp's asserts.
constexpr ResourceUsage estimate_usage(const DartLayout& layout) {
  ResourceUsage usage;

  // SRAM: register arrays for RT and PT plus the payload-size lookup table
  // (2-byte result per entry).
  usage.sram_bytes =
      static_cast<std::uint64_t>(layout.rt_slots) * layout.rt_entry_bytes +
      static_cast<std::uint64_t>(layout.pt_slots) * layout.pt_entry_bytes +
      static_cast<std::uint64_t>(layout.payload_lut_entries) * 2;

  // TCAM: operator flow-selection rules (12-byte 4-tuple key + mask).
  usage.tcam_bytes =
      static_cast<std::uint64_t>(layout.flow_filter_rules) * 24;

  // Hash units: one for the RT index, one for the 4-byte flow signature,
  // one per PT stage index, one for the PT record key fold. Dual-leg
  // monitoring re-hashes the role classification on the dual-role
  // recirculation pass, so its extra unit is accounted *before* the
  // crossbar estimate that derives from the hash count.
  usage.hash_units = 2 + layout.pt_stages + 1;
  if (layout.both_legs) usage.hash_units += 1;

  // Logical tables: RT and PT each split into component tables so values
  // can be acted on sequentially (Section 4), plus the payload LUT, the
  // flow filter, and role-classification tables. Dual-leg monitoring
  // deliberately adds no tables: the recirculated pass revisits the same
  // memory (Section 5), which is the whole point of recirculating.
  const std::uint32_t rt_tables = layout.component_tables_per_logical;
  const std::uint32_t pt_tables =
      layout.component_tables_per_logical * layout.pt_stages;
  const std::uint32_t fixed_tables = 6;  // parser glue, filter, LUT, report
  usage.logical_tables = rt_tables + pt_tables + fixed_tables;

  // Input crossbars: roughly one per logical table plus hash inputs.
  usage.input_crossbars = usage.logical_tables + usage.hash_units;

  // Pipeline stages. Each PT stage is its own logical register spread over
  // `component_tables_per_logical` sequentially-dependent component
  // tables, and consecutive PT stages are themselves sequential (stage
  // k+1 is consulted only after stage k), so PT consumes components *
  // pt_stages physical stages — there is no sharing of a component group
  // across PT stages. (The previous accounting divided the PT stage count
  // by the component split, under-counting multi-stage PTs.) Dual-leg
  // processing reuses the same stages via recirculation and adds none.
  usage.stages_used = 2  // classification/filter + reporting
                      + layout.component_tables_per_logical
                      + layout.component_tables_per_logical *
                            layout.pt_stages;

  return usage;
}

/// Utilization percentage of `usage` against `target` for each Table 1 row.
struct UtilizationRow {
  std::string resource;
  double percent = 0.0;
};

std::vector<UtilizationRow> utilization(const ResourceUsage& usage,
                                        const TargetProfile& target);

/// Validate that a layout fits a chip: returns a human-readable problem per
/// exceeded budget (empty = fits). The paper's Tofino1 prototype must span
/// ingress+egress precisely because a too-large layout fails this check for
/// a single pipeline.
std::vector<std::string> validate_layout(const DartLayout& layout,
                                         const TargetProfile& target);

}  // namespace dart::dataplane
