#include "slice/slice.hpp"

#include <algorithm>
#include <set>

#include "dataplane/transfer.hpp"

namespace vmn::slice {

namespace {

using encode::Invariant;
using encode::InvariantKind;
using encode::NetworkModel;

/// Collects every middlebox and address touched when packets flow from
/// `from_edge` toward `dst`, following middlebox rewrites.
void trace_flow(const NetworkModel& model,
                const dataplane::TransferFunction& tf, NodeId from_edge,
                Address dst, std::set<NodeId>& mboxes,
                std::set<Address>& addresses,
                std::set<std::uint64_t>& visited) {
  const auto key = (std::uint64_t{from_edge.value()} << 32) | dst.bits();
  if (!visited.insert(key).second) return;
  auto next = tf.next_edge(from_edge, dst);
  if (!next) return;
  const net::Network& net = model.network();
  if (net.kind(*next) == net::NodeKind::host) return;  // delivered
  const mbox::Middlebox* box = model.middlebox_at(*next);
  if (box == nullptr) return;
  mboxes.insert(*next);
  for (Address a : box->implicit_addresses()) addresses.insert(a);
  for (Address onward : box->forward_dsts(dst)) {
    addresses.insert(onward);
    trace_flow(model, tf, *next, onward, mboxes, addresses, visited);
  }
}

}  // namespace

Slice compute_slice(const NetworkModel& model, const Invariant& invariant,
                    const PolicyClasses& classes, SliceOptions options) {
  const net::Network& net = model.network();
  dataplane::TransferCache local_transfers(net);
  dataplane::TransferCache& transfers =
      options.transfers != nullptr ? *options.transfers : local_transfers;

  // Seed hosts: the invariant's references; invariants quantifying over all
  // senders (traversal, no-malicious-delivery) additionally get
  // representative senders per policy class.
  std::set<NodeId> hosts;
  for (NodeId h : invariant.referenced_hosts()) hosts.insert(h);
  const bool all_senders =
      invariant.kind == InvariantKind::no_malicious_delivery ||
      (invariant.kind == InvariantKind::traversal && !invariant.other.valid());
  if (all_senders) {
    // The sender is unconstrained: include potential senders per policy
    // class, selected per target - a class may span hosts whose packets can
    // and cannot be delivered to the target (disconnected segments,
    // scenario-dependent reroutes), and a representative that cannot reach
    // the target would silently stand in for one that can, making the
    // sliced verdict disagree with the whole network. Members that deliver
    // in no in-budget scenario are skipped here: they cannot witness a
    // reception at the target, and shared-state influence is what the
    // origin-agnostic closure below covers.
    for (NodeId r : classes.representatives_for(
             invariant.target, options.max_failures,
             /*include_unreachable=*/false)) {
      hosts.insert(r);
    }
  }

  // Failure scenarios within budget.
  std::vector<ScenarioId> scenarios;
  for (std::size_t i = 0; i < net.scenarios().size(); ++i) {
    if (static_cast<int>(net.scenarios()[i].failed_nodes.size()) <=
        options.max_failures) {
      scenarios.emplace_back(static_cast<ScenarioId::underlying_type>(i));
    }
  }

  std::set<NodeId> mboxes;
  bool need_representatives = false;

  // Fixpoint: host set and middlebox set grow monotonically.
  for (bool changed = true; changed;) {
    changed = false;

    std::set<Address> addresses;
    for (NodeId h : hosts) addresses.insert(net.node(h).address);
    // Alias addresses: VIPs fronting slice hosts, NAT externals hiding
    // them. Flows toward an alias are flows toward the slice. Closed to a
    // fixpoint, so an alias of an alias (a VIP whose backend is another
    // box's VIP) is found whatever order the boxes were declared in.
    std::vector<Address> unaliased(addresses.begin(), addresses.end());
    while (!unaliased.empty()) {
      const Address a = unaliased.back();
      unaliased.pop_back();
      for (const auto& box : model.middleboxes()) {
        for (Address alias : box->inverse_addresses(a)) {
          if (addresses.insert(alias).second) unaliased.push_back(alias);
        }
      }
    }

    // Closure under forwarding across all ordered pairs, all scenarios.
    std::set<Address> discovered = addresses;
    for (ScenarioId s : scenarios) {
      const dataplane::TransferFunction& tf = transfers.at(s);
      std::set<std::uint64_t> visited;
      for (NodeId from : hosts) {
        for (Address to : addresses) {
          if (net.node(from).address == to) continue;
          trace_flow(model, tf, from, to, mboxes, discovered, visited);
        }
      }
      // Middleboxes send too: their emissions toward slice addresses must
      // stay in the slice.
      for (NodeId m : std::set<NodeId>(mboxes)) {
        for (Address to : addresses) {
          trace_flow(model, tf, m, to, mboxes, discovered, visited);
        }
      }
    }

    // Newly discovered addresses that belong to hosts enlarge the slice.
    for (Address a : discovered) {
      if (auto h = net.host_by_address(a)) {
        if (hosts.insert(*h).second) changed = true;
      }
    }

    // Origin-agnostic middleboxes require state closure: one representative
    // host per policy equivalence class (paper, section 4.1).
    bool any_origin_agnostic = false;
    for (NodeId m : mboxes) {
      const mbox::Middlebox* box = model.middlebox_at(m);
      if (box != nullptr &&
          box->state_scope() == mbox::StateScope::origin_agnostic) {
        any_origin_agnostic = true;
      }
    }
    if (any_origin_agnostic && !need_representatives) {
      need_representatives = true;
      // State closure is target-aware but conservative: every class keeps
      // contributing one representative per delivery subgroup, unreachable
      // subgroup included, because shared state can be fed by traffic that
      // never lands on the target.
      for (NodeId r : classes.representatives_for(
               invariant.target, options.max_failures,
               /*include_unreachable=*/true)) {
        if (hosts.insert(r).second) changed = true;
      }
    }
  }

  Slice out;
  out.has_origin_agnostic = need_representatives;
  out.members.reserve(hosts.size() + mboxes.size());
  out.members.insert(out.members.end(), hosts.begin(), hosts.end());
  out.members.insert(out.members.end(), mboxes.begin(), mboxes.end());
  std::sort(out.members.begin(), out.members.end());
  return out;
}

}  // namespace vmn::slice
