// Slice computation (paper, section 4.1).
//
// A slice is a subnetwork closed under forwarding and state; an invariant
// referencing only nodes in the slice holds in the network iff it holds in
// the slice. For networks of flow-parallel middleboxes, closure under
// forwarding suffices; when origin-agnostic middleboxes (caches, proxies)
// appear in the slice, representative hosts per policy equivalence class
// must be added to make the slice closed under state.
//
// Representative selection is target-aware (PolicyClasses::
// representatives_for): all-senders invariants and state closure stand one
// member per (class, delivery-signature-toward-target) subgroup into the
// slice, so a class spanning hosts that can and cannot reach the target -
// disconnected segments with identical middlebox configurations being the
// canonical case - always contributes a sender that actually exercises the
// target's paths. A fixed first-member representative could not, and the
// sliced verdict could silently disagree with the whole network.
//
// Closure under forwarding is computed as a fixpoint: starting from the
// hosts an invariant references, follow the transfer function (under every
// failure scenario within the failure budget) between every ordered pair of
// slice addresses, adding every middlebox on the way - including targets of
// middlebox rewrites (load-balancer backends, NAT externals), which
// contribute new addresses. The slice addresses include every alias of a
// slice host, closed transitively: a VIP whose backend is another box's VIP
// for the host is an alias too, whatever order the boxes are declared in.
#pragma once

#include <vector>

#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "slice/policy.hpp"

namespace vmn::dataplane {
class TransferCache;
}

namespace vmn::slice {

struct SliceOptions {
  /// Failure scenarios with at most this many failed nodes participate in
  /// closure (must match the verification failure budget).
  int max_failures = 0;
  /// Optional shared per-scenario transfer-function memo (see
  /// dataplane::TransferCache). Planning a batch passes one cache across
  /// every invariant's slice and canonical key so identical fabric walks
  /// are done once; when null, the computation builds a private cache.
  /// Borrowed, single-threaded, must outlive the call.
  dataplane::TransferCache* transfers = nullptr;
};

struct Slice {
  /// Edge nodes (hosts + middleboxes) forming the slice, sorted.
  std::vector<NodeId> members;
  /// True when representative hosts were added for origin-agnostic state.
  bool has_origin_agnostic = false;

  [[nodiscard]] std::size_t size() const { return members.size(); }
};

/// Computes a slice sufficient to verify `invariant`.
[[nodiscard]] Slice compute_slice(const encode::NetworkModel& model,
                                  const encode::Invariant& invariant,
                                  const PolicyClasses& classes,
                                  SliceOptions options = {});

}  // namespace vmn::slice
