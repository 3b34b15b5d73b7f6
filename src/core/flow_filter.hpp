// Operator flow selection (Section 4, "Specifying target flows").
//
// Dart lets the operator install rules from the control plane choosing
// which subset of flows to track — by source/destination prefix and port
// range — without recompiling the data plane. On hardware these rules live
// in TCAM; here they are a first-match rule list evaluated per connection
// (a packet matches if the rule matches it in either direction, so one rule
// covers both halves of a connection).
#pragma once

#include <cstdint>
#include <vector>

#include "common/four_tuple.hpp"
#include "common/ipv4.hpp"
#include "common/sealed.hpp"

namespace dart::core {

struct PortRange {
  std::uint16_t lo = 0;
  std::uint16_t hi = 65535;

  constexpr bool contains(std::uint16_t port) const {
    return port >= lo && port <= hi;
  }
  static constexpr PortRange any() { return PortRange{}; }
  static constexpr PortRange exactly(std::uint16_t port) {
    return PortRange{port, port};
  }

  friend constexpr bool operator==(PortRange lhs, PortRange rhs) {
    return lhs.lo == rhs.lo && lhs.hi == rhs.hi;
  }
};

struct FlowRule {
  Ipv4Prefix src{};  ///< zero-length prefix matches everything
  Ipv4Prefix dst{};
  PortRange src_port{};
  PortRange dst_port{};
  bool track = true;  ///< rule action: track or explicitly exclude

  /// Directional match of this rule against a tuple.
  bool matches(const FourTuple& tuple) const {
    return src.contains(tuple.src_ip) && dst.contains(tuple.dst_ip) &&
           src_port.contains(tuple.src_port) &&
           dst_port.contains(tuple.dst_port);
  }

  friend constexpr bool operator==(const FlowRule& lhs, const FlowRule& rhs) {
    return lhs.src == rhs.src && lhs.dst == rhs.dst &&
           lhs.src_port == rhs.src_port && lhs.dst_port == rhs.dst_port &&
           lhs.track == rhs.track;
  }
};

/// First-match rule list; connections matching no rule are not tracked
/// (a final allow-all rule makes the filter permissive).
class FlowFilter {
 public:
  /// The default filter used when none is installed: track everything.
  static FlowFilter allow_all() {
    FlowFilter filter;
    filter.add_rule(FlowRule{});
    return filter;
  }

  void add_rule(const FlowRule& rule) { rules_.push_back(rule); }
  std::size_t rule_count() const { return rules_.size(); }

  friend bool operator==(const FlowFilter& lhs, const FlowFilter& rhs) {
    return lhs.rules_ == rhs.rules_;
  }

  /// Serialize the rule list into an open checkpoint section; restore() is
  /// the all-or-nothing inverse. Quiesce-time only.
  void snapshot(SealedWriter& writer) const;
  SealedError restore(SealedReader& reader);

  /// True when the connection this tuple belongs to should be tracked.
  /// Rules are direction-insensitive: the first rule matching the tuple or
  /// its reverse decides.
  bool tracks(const FourTuple& tuple) const {
    const FourTuple reversed = tuple.reversed();
    for (const FlowRule& rule : rules_) {
      if (rule.matches(tuple) || rule.matches(reversed)) return rule.track;
    }
    return false;
  }

 private:
  std::vector<FlowRule> rules_;
};

}  // namespace dart::core
