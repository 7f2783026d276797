#include "dataplane/transfer.hpp"

#include <set>

#include "core/error.hpp"

namespace vmn::dataplane {

namespace {

std::uint64_t cache_key(NodeId from, Address dst) {
  return (std::uint64_t{from.value()} << 32) | dst.bits();
}

}  // namespace

TransferFunction::TransferFunction(const net::Network& network,
                                   ScenarioId scenario)
    : network_(&network), scenario_(scenario) {
  // Validate the scenario id eagerly.
  (void)network.scenario(scenario);
}

std::vector<NodeId> TransferFunction::walk(NodeId from_edge, Address dst) const {
  const net::Network& net = *network_;
  if (!net.is_edge(from_edge)) {
    throw ModelError("transfer function input must be an edge node, got " +
                     net.name(from_edge));
  }
  std::vector<NodeId> path{from_edge};
  // Note: a failed *edge* node may still source packets here - whether a
  // down middlebox emits anything is decided by its own axioms (fail-open
  // boxes keep forwarding); the static datapath just carries packets.

  // Direct delivery: a neighboring edge node owning dst (host-host wiring).
  // Otherwise enter the switch fabric through the first alive neighbor
  // switch.
  NodeId prev = from_edge;
  std::optional<NodeId> cur;
  for (NodeId n : net.neighbors(from_edge)) {
    if (net.is_failed(n, scenario_)) continue;
    if (net.kind(n) == net::NodeKind::switch_node) {
      cur = n;
      break;
    }
    if (net.is_edge(n) && net.node(n).kind == net::NodeKind::host &&
        net.node(n).address == dst) {
      path.push_back(n);
      return path;
    }
  }
  if (!cur) return path;  // no alive attachment: dropped

  std::set<std::pair<NodeId, NodeId>> visited;  // (came_from, at-switch)
  while (true) {
    path.push_back(*cur);
    if (net.is_edge(*cur)) return path;  // delivered to an edge node
    if (!visited.insert({prev, *cur}).second) {
      throw ForwardingLoopError("forwarding loop at switch " + net.name(*cur) +
                                " for destination " + dst.to_string() +
                                " (scenario " +
                                net.scenario(scenario_).name + ")");
    }
    const auto next = net.effective_table(*cur, scenario_).match(prev, dst);
    // Drop on blackholes and on failed *switches*; failed edge nodes still
    // receive (their failure mode decides what happens next).
    if (!next || (net.is_failed(*next, scenario_) && !net.is_edge(*next))) {
      path.clear();
      return path;
    }
    prev = *cur;
    cur = next;
  }
}

std::optional<NodeId> TransferFunction::next_edge(NodeId from_edge,
                                                  Address dst) const {
  const auto key = cache_key(from_edge, dst);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  std::vector<NodeId> p = walk(from_edge, dst);
  std::optional<NodeId> result;
  if (p.size() >= 2 && network_->is_edge(p.back())) result = p.back();
  cache_.emplace(key, result);
  return result;
}

std::vector<NodeId> TransferFunction::path(NodeId from_edge, Address dst) const {
  return walk(from_edge, dst);
}

const TransferFunction& TransferCache::at(ScenarioId scenario) {
  if (entries_.count(scenario.value()) != 0) ++reuses_;
  return borrow(scenario);
}

const TransferFunction& TransferCache::borrow(ScenarioId scenario) {
  auto it = entries_.find(scenario.value());
  if (it != entries_.end()) return *it->second;
  auto [pos, _] = entries_.emplace(
      scenario.value(), std::make_unique<TransferFunction>(*network_, scenario));
  return *pos->second;
}

EdgeChain edge_chain(const TransferFunction& tf, NodeId src_edge, Address dst) {
  const net::Network& net = tf.network();
  EdgeChain chain;
  NodeId at = src_edge;
  // Bound the chain by the number of edge nodes: revisiting a middlebox for
  // the same destination would recur forever (middlebox-level loop).
  const std::size_t limit = net.node_count() + 1;
  for (std::size_t steps = 0; steps < limit; ++steps) {
    auto next = tf.next_edge(at, dst);
    if (!next) return chain;  // dropped in the fabric
    chain.final_edge = *next;
    if (net.kind(*next) == net::NodeKind::host) {
      chain.reached = net.node(*next).address == dst;
      return chain;
    }
    chain.middleboxes.push_back(*next);
    at = *next;
  }
  throw ForwardingLoopError(
      "middlebox-level forwarding loop toward " + dst.to_string() +
      " starting at " + net.name(src_edge));
}

}  // namespace vmn::dataplane
