// Per-switch forwarding tables.
//
// Rules match on the destination prefix and, optionally, on the neighbor the
// packet arrived from ("in-port" matching). In-port matching is what lets the
// scenario topologies implement service chaining - e.g. a ToR switch sends
// host traffic to the firewall first, and firewall traffic onward to the
// aggregation layer - exactly the glue the paper delegates to the static
// datapath (section 2.3).
//
// The table keeps an index next to its rule list: the positions of the
// wildcard rules, and the positions of the in-port rules per in-port
// neighbor. match() scans only the wildcard rules plus the rules of the
// neighbor the packet came from, so an aggregation switch with one in-port
// rule per subnet costs a packet from a subnet switch its few wildcard
// rules, not the whole table. The index is a plain value member: copies
// (scenario override tables start as copies of the base table) keep it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/address.hpp"
#include "core/ids.hpp"

namespace vmn::net {

/// One forwarding rule. Longer prefixes win; among equal prefix lengths a
/// rule with an in-port constraint beats a wildcard; explicit priority
/// breaks remaining ties (higher wins).
struct Rule {
  Prefix dst;
  NodeId next_hop;
  /// If set, the rule only matches packets arriving from this neighbor.
  std::optional<NodeId> in_from;
  int priority = 0;
};

/// An ordered rule table with longest-prefix-match semantics.
class ForwardingTable {
 public:
  void add(Rule rule);
  /// Convenience: wildcard in-port rule.
  void add(Prefix dst, NodeId next_hop, int priority = 0);
  /// Convenience: in-port constrained rule.
  void add_from(NodeId in_from, Prefix dst, NodeId next_hop, int priority = 0);

  /// Best-matching next hop for a packet that arrived from `came_from`
  /// with destination `dst`; nullopt when no rule matches (blackhole).
  /// Among rules of equal rank the earliest added wins.
  [[nodiscard]] std::optional<NodeId> match(std::optional<NodeId> came_from,
                                            Address dst) const;

  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
  [[nodiscard]] bool empty() const { return rules_.empty(); }
  void clear();

 private:
  std::vector<Rule> rules_;
  /// Positions in rules_ of the wildcard rules, in insertion order.
  std::vector<std::uint32_t> wildcard_;
  /// Positions in rules_ of the in-port rules, per in-port neighbor, in
  /// insertion order.
  std::map<NodeId, std::vector<std::uint32_t>> by_in_port_;
};

}  // namespace vmn::net
