#include "net/fwd_table.hpp"

#include <tuple>

namespace vmn::net {

void ForwardingTable::add(Rule rule) {
  const auto pos = static_cast<std::uint32_t>(rules_.size());
  if (rule.in_from) {
    by_in_port_[*rule.in_from].push_back(pos);
  } else {
    wildcard_.push_back(pos);
  }
  rules_.push_back(rule);
}

void ForwardingTable::add(Prefix dst, NodeId next_hop, int priority) {
  add(Rule{dst, next_hop, std::nullopt, priority});
}

void ForwardingTable::add_from(NodeId in_from, Prefix dst, NodeId next_hop,
                               int priority) {
  add(Rule{dst, next_hop, in_from, priority});
}

void ForwardingTable::clear() {
  rules_.clear();
  wildcard_.clear();
  by_in_port_.clear();
}

std::optional<NodeId> ForwardingTable::match(std::optional<NodeId> came_from,
                                             Address dst) const {
  // Longest prefix first, then in-port specificity, then priority; among
  // equal ranks the earliest rule (lowest position) wins.
  const auto rank = [](const Rule& x) {
    return std::tuple(x.dst.length(), x.in_from.has_value() ? 1 : 0,
                      x.priority);
  };
  const Rule* best = nullptr;
  std::uint32_t best_pos = 0;
  const auto scan = [&](const std::vector<std::uint32_t>& positions) {
    for (std::uint32_t pos : positions) {
      const Rule& r = rules_[pos];
      if (!r.dst.contains(dst)) continue;
      if (best == nullptr || rank(r) > rank(*best) ||
          (rank(r) == rank(*best) && pos < best_pos)) {
        best = &r;
        best_pos = pos;
      }
    }
  };
  scan(wildcard_);
  if (came_from) {
    if (const auto it = by_in_port_.find(*came_from); it != by_in_port_.end()) {
      scan(it->second);
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->next_hop;
}

}  // namespace vmn::net
