// Network transfer functions (paper, section 3.5).
//
// A transfer function maps a located packet - (edge node, destination
// address) - to the next edge node the static datapath delivers it to, for a
// given failure scenario. It is computed by walking the switch graph under
// the scenario's effective forwarding tables, skipping failed nodes. A
// revisited (switch, previous-hop) pair means the forwarding state loops:
// we raise ForwardingLoopError, mirroring the paper ("VMN throws an
// exception when a static forwarding loop is encountered").
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/address.hpp"
#include "core/ids.hpp"
#include "net/topology.hpp"

namespace vmn::dataplane {

/// The transfer function of `network` under one failure scenario.
/// Results are memoized; the object holds a reference to the network and
/// must not outlive it.
class TransferFunction {
 public:
  TransferFunction(const net::Network& network, ScenarioId scenario);

  /// Edge node that a packet injected at `from_edge` with destination
  /// address `dst` is delivered to; nullopt if dropped (no route, failed
  /// next hop, or failed target).
  [[nodiscard]] std::optional<NodeId> next_edge(NodeId from_edge,
                                                Address dst) const;

  /// Full node path (switches included) of the same walk; empty when the
  /// packet is dropped before reaching another edge node.
  [[nodiscard]] std::vector<NodeId> path(NodeId from_edge, Address dst) const;

  [[nodiscard]] ScenarioId scenario() const { return scenario_; }
  [[nodiscard]] const net::Network& network() const { return *network_; }

 private:
  [[nodiscard]] std::vector<NodeId> walk(NodeId from_edge, Address dst) const;

  const net::Network* network_;
  ScenarioId scenario_;
  mutable std::unordered_map<std::uint64_t, std::optional<NodeId>> cache_;
};

/// Memoizes one TransferFunction per failure scenario of a fixed network.
///
/// Constructing a TransferFunction is cheap, but its per-(edge, destination)
/// walk results accumulate in an internal memo - so rebuilding one per use
/// site (as slice computation and canonical keys each did per invariant)
/// repeats identical fabric walks. A cache instance is single-threaded, like
/// the TransferFunctions it hands out; share it only within one planning
/// pass, never across worker threads.
class TransferCache {
 public:
  explicit TransferCache(const net::Network& network) : network_(&network) {}

  /// The memoized transfer function for `scenario` (built on first use).
  [[nodiscard]] const TransferFunction& at(ScenarioId scenario);
  /// at() for a borrower: an encoder drawing on a memo it was lent counts
  /// no reuse here, so the owner's planning statistics read the same
  /// whether or not a solver session shares the memo.
  [[nodiscard]] const TransferFunction& borrow(ScenarioId scenario);

  [[nodiscard]] const net::Network& network() const { return *network_; }
  /// Distinct scenarios built / requests answered from the memo.
  [[nodiscard]] std::size_t builds() const { return entries_.size(); }
  [[nodiscard]] std::size_t reuses() const { return reuses_; }

 private:
  const net::Network* network_;
  std::unordered_map<ScenarioId::underlying_type,
                     std::unique_ptr<TransferFunction>>
      entries_;
  std::size_t reuses_ = 0;
};

/// The chain of *edge* nodes a packet visits from `src_host` toward `dst`,
/// treating middleboxes as transparent (each re-emits the packet unchanged
/// toward the same destination). The chain ends at the edge node owning
/// `dst`, or earlier if the packet is dropped ('reached' tells which).
/// Used for pipeline-invariant checking and slice closure.
struct EdgeChain {
  std::vector<NodeId> middleboxes;  ///< in traversal order
  std::optional<NodeId> final_edge;
  bool reached = false;  ///< true iff final_edge owns dst
};

[[nodiscard]] EdgeChain edge_chain(const TransferFunction& tf, NodeId src_edge,
                                   Address dst);

}  // namespace vmn::dataplane
