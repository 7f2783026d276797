// Policy equivalence classes (paper, section 4.1).
//
// "Two hosts are in the same equivalence class if all packets sent and
// received by them traverse the same set of middlebox types, and are treated
// according to the same policy."
//
// Scenario generators assign intended classes explicitly
// (NetworkModel::set_policy_class); this module *infers* classes from the
// actual configuration by fingerprinting each host against every middlebox's
// configuration. The two coincide exactly when the network is correctly
// configured - a deleted firewall rule moves the affected hosts into their
// own inferred class, breaking symmetry (section 5.1).
//
// Configuration fingerprints alone are not enough for a sound relation:
// hosts in disconnected network segments can carry identical fingerprints
// while their packets reach entirely different parts of the network, and
// hosts in one connected segment can carry identical fingerprints while
// their packets are *routed* past different middleboxes (an in-port rule
// bypassing the IDPS for one sender only). Since all-senders invariants
// (no-malicious-delivery, unconstrained traversal) seed their slice with
// one representative sender per class, a configuration-only class could
// elect a representative that cannot reach the invariant's target - or one
// whose path is policed while another member's is not - and the sliced
// verdict would silently disagree with the whole network. Inference
// therefore *refines* the fingerprint classes by per-scenario delivery
// signatures: who can deliver to whom, and traversing which middlebox
// *types*, under each in-budget failure scenario, computed on the static
// dataplane (middlebox *policy* drops are the solver's business - the
// paper's "all packets sent and received by them traverse the same set of
// middlebox types"). The recorded per-host signatures additionally carry
// the concrete traversed instances, so slice seeding can pick, per class,
// representatives per (reach, path) behavior toward the target
// (representatives_for). The refinement is class-aware (signatures name
// classes and box types, never addresses or instance names), so truly
// symmetric hosts - including symmetric hosts of mutually disconnected but
// isomorphic segments - keep sharing a class; per-target representative
// selection covers the residual within-class variation.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "dataplane/transfer.hpp"
#include "encode/model.hpp"

namespace vmn::slice {

/// Knobs for class inference (see infer_policy_classes).
struct PolicyClassOptions {
  /// Failure budget of the delivery relation: only scenarios with at most
  /// this many failed nodes are walked, refine the classes, and are
  /// recorded (must match the verification budget so dedup reflects
  /// exactly the verified scenarios - the engine passes its own). Negative
  /// covers every scenario. Queries for scenarios beyond this budget
  /// treat them as out of budget.
  int max_failures = -1;
  /// Optional shared per-scenario transfer-function memo (the planning
  /// PlanContext's cache); when null the inference builds a private one.
  /// Borrowed, single-threaded, must outlive the call.
  dataplane::TransferCache* transfers = nullptr;
  /// Disables the reachability refinement and signature recording
  /// (configuration fingerprints only - the historically unsound relation;
  /// kept as a debug/benchmark baseline).
  bool refine_by_reachability = true;
};

/// One recorded delivery: packets from the owning host can be delivered to
/// `target`, traversing (some subset of) `boxes` - the union of middlebox
/// nodes on the explored paths, sorted.
struct Delivery {
  NodeId target;
  std::vector<NodeId> boxes;
};

struct PolicyClasses {
  /// classes[i] lists the hosts of inferred class i.
  std::vector<std::vector<NodeId>> classes;

  [[nodiscard]] std::size_t count() const { return classes.size(); }
  /// Index of the class containing `host`; throws if absent. O(1) via the
  /// host index the factory functions build (reindex); falls back to a
  /// linear scan for hand-assembled instances.
  [[nodiscard]] std::size_t class_of(NodeId host) const;
  /// The designated representative (first member) of `host`'s class.
  [[nodiscard]] NodeId representative_of(NodeId host) const;
  /// One representative per class (the first member). Target-blind: use
  /// representatives_for when the representatives stand in for senders
  /// toward a concrete invariant target.
  [[nodiscard]] std::vector<NodeId> representatives() const;

  /// Representatives for an invariant on `target`: within each class,
  /// members whose packets can be delivered to `target` under exactly the
  /// same set of in-budget failure scenarios AND traversing the same
  /// middlebox instances form a subgroup, and each subgroup's first member
  /// stands in for it - so a class spanning hosts that can and cannot
  /// reach the target (disconnected segments), or whose routes pass
  /// different boxes on the way (a per-sender IDPS bypass), always
  /// contributes a sender per distinct behavior toward the target.
  ///
  /// `include_unreachable` decides the fate of the cannot-deliver-in-any-
  /// scenario subgroup. All-senders *seeding* passes false: a sender whose
  /// packets can never be delivered to the target cannot witness a
  /// reception there, only feed shared middlebox state - which is exactly
  /// the case the origin-agnostic *state closure* covers by passing true
  /// (one representative per subgroup, unreachable included, so every
  /// class keeps contributing state). Skipping unreachable senders at seed
  /// time is also what keeps isomorphic disconnected segments deduplicable:
  /// their slices stay free of cross-segment junk hosts.
  ///
  /// For a class whose members all behave alike this is exactly
  /// representatives(); with no recorded delivery signatures (refinement
  /// disabled, or a hand-built instance) it degrades to representatives()
  /// regardless of the flags.
  [[nodiscard]] std::vector<NodeId> representatives_for(
      NodeId target, int max_failures, bool include_unreachable) const;

  /// True when `host`'s packets can be delivered to `target` under some
  /// failure scenario within the budget (per the recorded signatures;
  /// false when none were recorded).
  [[nodiscard]] bool reaches(NodeId host, NodeId target,
                             int max_failures) const;
  /// Whether delivery signatures were recorded at inference time.
  [[nodiscard]] bool has_reach_signatures() const { return !reach_.empty(); }

  /// Rebuilds the host->class index behind class_of. The factory functions
  /// call this; call it again after mutating `classes` by hand.
  void reindex();
  /// Installs the per-host delivery signatures (factory functions only):
  /// `scenario_failures[s]` is scenario s's failed-node count, `reach[h][s]`
  /// the deliveries of host h under scenario s sorted by target (empty for
  /// scenarios beyond `budget`, the inference failure budget; negative =
  /// all scenarios walked).
  void set_reach_signatures(
      std::vector<int> scenario_failures,
      std::unordered_map<NodeId, std::vector<std::vector<Delivery>>> reach,
      int budget);

 private:
  /// The budget queries may see: scenarios beyond the inference budget
  /// were never walked and must not read as "no delivery".
  [[nodiscard]] int effective_budget(int query_budget) const;

  std::unordered_map<NodeId, std::size_t> index_;
  std::vector<int> scenario_failures_;
  std::unordered_map<NodeId, std::vector<std::vector<Delivery>>> reach_;
  int reach_budget_ = -1;
};

/// Groups hosts by configuration fingerprint, then refines the groups by
/// reachability signature (inferred classes; see the header comment).
[[nodiscard]] PolicyClasses infer_policy_classes(
    const encode::NetworkModel& model, const PolicyClassOptions& options = {});

/// Groups hosts by their assigned class id (declared classes). The declared
/// grouping is the operator's intent and is never refined, but delivery
/// signatures are still recorded (per `options`) so representative
/// selection stays target-aware.
[[nodiscard]] PolicyClasses declared_policy_classes(
    const encode::NetworkModel& model, const PolicyClassOptions& options = {});

}  // namespace vmn::slice
