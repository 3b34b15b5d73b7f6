#include "core/flow_filter.hpp"

#include <utility>


namespace dart::core {

// Layout: u64 rule count, then per rule {u32 src_base, u8 src_len,
// u32 dst_base, u8 dst_len, u16 sp_lo, u16 sp_hi, u16 dp_lo, u16 dp_hi,
// u8 track}. Rule order is the match order, so it is preserved verbatim.

void FlowFilter::snapshot(SealedWriter& writer) const {
  writer.u64(rules_.size());
  for (const FlowRule& rule : rules_) {
    writer.u32(rule.src.base().value());
    writer.u8(static_cast<std::uint8_t>(rule.src.length()));
    writer.u32(rule.dst.base().value());
    writer.u8(static_cast<std::uint8_t>(rule.dst.length()));
    writer.u16(rule.src_port.lo);
    writer.u16(rule.src_port.hi);
    writer.u16(rule.dst_port.lo);
    writer.u16(rule.dst_port.hi);
    writer.u8(rule.track ? 1 : 0);
  }
}

SealedError FlowFilter::restore(SealedReader& reader) {
  const std::uint64_t count = reader.u64();
  std::vector<FlowRule> staged;
  auto read_prefix = [&reader](Ipv4Prefix* out) {
    const std::uint32_t base = reader.u32();
    const std::uint8_t length = reader.u8();
    if (reader.error()) return;
    const Ipv4Prefix prefix{Ipv4Addr{base}, length};
    if (length > 32 || prefix.base().value() != base) {
      // A length beyond /32 or base bits outside the mask would be silently
      // rewritten by construction, breaking byte-stable round-trips.
      reader.fail_field();
      return;
    }
    *out = prefix;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    FlowRule rule;
    read_prefix(&rule.src);
    read_prefix(&rule.dst);
    rule.src_port.lo = reader.u16();
    rule.src_port.hi = reader.u16();
    rule.dst_port.lo = reader.u16();
    rule.dst_port.hi = reader.u16();
    const std::uint8_t track = reader.u8();
    if (!reader.error() && track > 1) reader.fail_field();
    if (reader.error()) return reader.error();
    rule.track = track != 0;
    staged.push_back(rule);
  }
  rules_ = std::move(staged);
  return SealedError::ok();
}

}  // namespace dart::core
