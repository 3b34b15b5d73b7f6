// Compile-time slice of the pipeline checker: the layout constants that
// are known at build time are verified by static_assert, so an infeasible
// default configuration cannot even compile. The asserts evaluate the one
// constexpr estimate_usage(), so they cannot drift from the runtime model.
#pragma once

#include <cstdint>

#include "common/seqnum.hpp"
#include "dataplane/payload_lut.hpp"
#include "dataplane/resource_model.hpp"

namespace dart::dataplane::verify {

// Chip constants the asserts below check against; these mirror
// tofino1_profile() and are pinned to it by the golden test.
inline constexpr std::uint32_t kTofino1Stages = 12;
inline constexpr std::uint64_t kTofino1SramBytes = 15ULL << 20;
inline constexpr std::uint32_t kTofino1HashUnitsPerStage = 6;
inline constexpr std::uint32_t kSaluWidthBits = 32;

// --- Sequence-number arithmetic ------------------------------------------
// Serial (RFC 1982) comparisons need the full 32-bit circular space; the
// register width the data plane stores seq/ack values in must match.
static_assert(sizeof(SeqNum) * 8 == kSaluWidthBits,
              "SeqNum must be exactly SALU-width for single-stage RMW");
static_assert(seq_lt(0xFFFFFF00u, 0x00000010u),
              "serial comparison must survive wraparound");
static_assert(seq_add(0xFFFFFFFFu, 2) == 1u,
              "serial addition must wrap modulo 2^32");
static_assert(seq_in_left_open(0x5u, 0xFFFFFFF0u, 0x10u),
              "measurement ranges must span the wrap point");

// --- Payload LUT ----------------------------------------------------------
// The Section 4 lookup table's size is a compile-time function of the
// precomputed parameter ranges; the DartLayout default must agree with the
// PayloadLut implementation or the SRAM accounting is wrong.
inline constexpr std::uint32_t kPayloadLutEntries =
    static_cast<std::uint32_t>(PayloadLut::kMaxTotalLen -
                               PayloadLut::kMinTotalLen + 1) *
    (PayloadLut::kMaxTcpWords - PayloadLut::kMinTcpWords + 1);
static_assert(kPayloadLutEntries == DartLayout{}.payload_lut_entries,
              "DartLayout's LUT entry count must match PayloadLut's ranges");
static_assert(PayloadLut::kMinTotalLen >= 40,
              "total length below bare IP+TCP headers is malformed");
static_assert(PayloadLut::kMinTcpWords == 5,
              "TCP data offset below 5 words is malformed");

// --- Default layout feasibility -------------------------------------------
// The defaults are the paper's deployed configuration; they must fit a
// single Tofino1 pipeline without the ingress+egress split.
static_assert(estimate_usage(DartLayout{}).sram_bytes < kTofino1SramBytes,
              "default layout must fit Tofino1 SRAM");
static_assert(estimate_usage(DartLayout{}).stages_used <= kTofino1Stages,
              "default layout must fit Tofino1's stage count");
static_assert(estimate_usage(DartLayout{}).hash_units <=
                  kTofino1Stages * kTofino1HashUnitsPerStage,
              "default layout must fit Tofino1's hash units");

// Record entries must hold a 4-byte signature plus the per-table payload
// the paper describes (two 4-byte edges for RT, eACK + timestamp for PT).
static_assert(DartLayout{}.rt_entry_bytes >= 12,
              "RT entry narrower than signature + left + right");
static_assert(DartLayout{}.pt_entry_bytes >= 12,
              "PT entry narrower than signature + eACK + timestamp");

}  // namespace dart::dataplane::verify
