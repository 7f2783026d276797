// Network symmetry (paper, section 4.2).
//
// "We say two invariants are symmetric when one can be transformed to
// another by replacing nodes with other nodes in the same policy class. If
// an invariant I holds in a symmetric network, then so do all invariants
// symmetric to I." VMN groups the invariant list by symmetry signature and
// verifies one representative per group.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/address.hpp"
#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "slice/policy.hpp"

namespace vmn::dataplane {
class TransferCache;
}

namespace vmn::slice {

struct SymmetryGroup {
  /// Indices into the original invariant list; front() is the verified
  /// representative, the rest inherit its outcome.
  std::vector<std::size_t> invariants;
};

struct SymmetryGroups {
  std::vector<SymmetryGroup> groups;
  [[nodiscard]] std::size_t group_count() const { return groups.size(); }
};

/// Groups invariants whose (kind, policy class of target, policy class of
/// other, traversal type) coincide.
[[nodiscard]] SymmetryGroups group_invariants(
    const std::vector<encode::Invariant>& invariants,
    const PolicyClasses& classes);

/// The coarse symmetry signature (kind / type prefix / policy class of
/// target and other) that group_invariants merges by - the paper's section
/// 4.2 criterion. Exposed so diagnostics (e.g. the parallel planner's
/// conservative-split counter) compare against exactly the grouping
/// criterion, not a reimplementation of it.
[[nodiscard]] std::string class_signature(const encode::Invariant& invariant,
                                          const PolicyClasses& classes);

/// Canonical fingerprint of the verification problem (invariant, slice).
///
/// The key erases node identity: hosts are labelled by their policy class
/// and invariant role (target / other), middleboxes by type, state scope,
/// failure mode and the per-address projection of their configuration
/// (policy_fingerprint over the slice's relevant addresses - rendered
/// from the box's config_relations() descriptor with rename-blind
/// occurrence ids, so corresponding-but-renamed slices share keys while
/// same-type boxes never merge when their configurations treat a member
/// differently; sound exactly as long as every box's descriptor names
/// every axiom-relevant knob, address-independent ones included),
/// switches anonymously - then the labelling is sharpened by
/// three rounds of neighborhood refinement (1-WL) over the subgraph induced
/// on the slice members plus the switching fabric, with every admitted
/// (src, dst) pair of each pair-match config relation fed in as an extra
/// refinement edge (per-address fingerprints cannot carry pairwise join
/// structure - deny(P1->Q1);deny(P2->Q2) must separate the slice pairing
/// x with P1's peer from the one pairing it with P2's - so the key
/// recovers it here). Isomorphic
/// (invariant, slice) pairs - one transformable into the other by a
/// policy-class-preserving relabeling of nodes - always get equal keys, but
/// the converse is heuristic: 1-WL color multisets can coincide on
/// non-isomorphic graphs. Key merges are a strict subset of the coarse
/// class_signature merges (the key embeds kind, type prefix and the role
/// and class of every host), so merging by key never exceeds the paper's
/// section 4.2 symmetry classes while splitting the structurally-unequal
/// cases class signatures would unsoundly merge; the batch planner
/// (verify::plan_jobs) groups by this key.
///
/// Keys are stable across processes and runs: round signatures are
/// compressed with a pinned FNV-1a 64 digest (never std::hash, whose value
/// is implementation- and run-dependent), which is what lets
/// verify::ResultCache persist key -> outcome across batches. Cross-run
/// reuse inherits exactly the in-batch merging risk (the 1-WL converse is
/// heuristic); it adds no new one, because the key fingerprints the whole
/// verification problem - topology relation, failure scenarios, policy
/// fingerprints and the invariant - so any spec edit that changes the
/// encoded problem changes the key.
///
/// `transfers`, when non-null, memoizes per-scenario transfer functions
/// across calls (shared with compute_slice by the batch planner);
/// `configs`, when non-null, memoizes each box's descriptor and
/// per-address fingerprints (shared with class inference by the batch
/// planner). Null builds private ones; the key is the same either way.
[[nodiscard]] std::string canonical_slice_key(
    const encode::NetworkModel& model, const std::vector<NodeId>& members,
    const encode::Invariant& invariant, const PolicyClasses& classes,
    int max_failures = 0, dataplane::TransferCache* transfers = nullptr,
    mbox::ConfigMemo* configs = nullptr);

/// Canonical fingerprint of a *base encoding problem* - (model, member set,
/// failure budget) with no invariant - plus the per-member refinement
/// colors the fingerprint was derived from.
///
/// Unlike canonical_slice_key, the shape key ignores invariant roles,
/// policy classes and middlebox configuration payloads (configuration is
/// deliberately left out of the coarse key; exactness is established
/// afterwards by shape_bijection's structural descriptor comparison): hosts
/// are colored "host", middleboxes by structural fingerprint, and the
/// 1-WL refinement over the scenario-tagged routing relation does the rest.
/// Equal keys are therefore only a *candidate* signal - two slices whose
/// keys collide may still encode different problems (differing
/// configurations, or a 1-WL blind spot). shape_bijection() below performs
/// the exact, soundness-carrying verification; the key's only job is to
/// index the encoding-reuse cache and to align members for pairing.
struct ShapeKey {
  std::string key;
  /// Normalized (sorted, deduplicated) members the key describes.
  std::vector<NodeId> members;
  /// Final refinement color per member, aligned with `members`.
  std::vector<std::string> colors;
};

[[nodiscard]] ShapeKey canonical_shape_key(
    const encode::NetworkModel& model, const std::vector<NodeId>& members,
    int max_failures = 0, dataplane::TransferCache* transfers = nullptr);

/// Canonical fingerprint of one *whole* verification problem - (model,
/// member set, invariant, failure budget) - rendered entirely in
/// name-blind, address-blind coordinates, plus the coordinate maps the
/// rendering was written in.
///
/// Members are listed in canonical order (final shape-refinement color,
/// ties broken by sorted position); relevant addresses are numbered by
/// first appearance along that order. The rendering then spells out, rank
/// by rank and token by token, every configuration-dependent input of
/// encode::Encoding: node kinds and structural middlebox fingerprints,
/// address ownership, each member box's encoding_projection over the
/// token-ordered relevant set, the invariant's kind and the ranks it
/// targets (for traversal invariants, the rank set the encoder's
/// name-prefix selection picks), and the per-scenario transfer relation
/// plus failed-member sets as a sorted multiset of scenario signatures,
/// with the failure budget appended. `transfers` and `configs` are the
/// optional shared memos, as for canonical_slice_key.
///
/// Exactness contract: two problems with equal keys pair rank-for-rank
/// into a bijection that passes every check shape_bijection() verifies
/// (kinds/structure, induced address bijection, projections, scenario
/// relations) *and* maps one invariant onto the other - equal keys imply
/// equisatisfiable problems whose witnesses relabel across rank/token
/// correspondence. The converse stays heuristic (an unlucky canonical
/// order can render two isomorphic problems differently - a missed reuse,
/// never a wrong one). `key` is empty when the problem resists
/// canonicalization (invariant nodes outside the member set, or a
/// non-normalized shape), which callers must treat as "never equal".
///
/// This is what verify::ResultCache v6 keys records by: a renamed (or
/// renumbered) but isomorphic spec re-derives the same key cold, and the
/// stored `order`/`tokens` maps let the hit's witness relabel into the
/// new namespace. canonical_slice_key remains the in-batch dedup
/// authority (its policy-class/role colors keep same-slice invariants
/// apart); this key's job is cross-run and cross-namespace identity.
struct ProblemKey {
  std::string key;
  /// Members in canonical rank order: rank r of any equal-keyed problem
  /// corresponds to rank r here.
  std::vector<NodeId> order;
  /// Relevant addresses in token order (first appearance over `order`).
  std::vector<Address> tokens;
};

[[nodiscard]] ProblemKey canonical_problem_key(
    const encode::NetworkModel& model, const ShapeKey& shape,
    const encode::Invariant& invariant, int max_failures = 0,
    dataplane::TransferCache* transfers = nullptr,
    mbox::ConfigMemo* configs = nullptr);

/// Why shape_bijection refused a candidate merge. `reason` is the one-line
/// diagnostic `vmn verify --dedup-report` prints; when a middlebox
/// configuration blocked the merge, it names the exact differing relation
/// and cell from the boxes' ConfigRelations descriptors (e.g.
/// "firewall.acl row 3: dst prefix /24 vs /16") and `box_type` carries the
/// blocking box's type for per-box aggregation (empty for structural
/// refusals - color multisets, address maps, scenario relations).
struct MergeRefusal {
  std::string reason;
  std::string box_type;
};

/// Attempts to build - and exactly verify - a bijection from `from.members`
/// onto `to.members` under which the two base encodings are isomorphic:
/// the returned image (aligned with `from.members`) maps nodes such that
/// kinds and structural fingerprints agree, the induced address bijection
/// (host addresses plus middlebox implicit-address lists, elementwise) is
/// well defined and maps one relevant-address set onto the other, every
/// member middlebox's encoding_projection (the canonical rendering of
/// everything emit_axioms compiles from its configuration) agrees under
/// the address bijection, and for the in-budget failure scenarios there is
/// a scenario permutation under which the transfer relations
/// (members x relevant addresses, exactly what omega.transfer compiles)
/// and per-scenario failed-member sets correspond.
///
/// These checks re-derive the entire configuration-dependent content of
/// encode::Encoding, so a returned bijection certifies that solving an
/// invariant mapped through it on `to`'s base encoding is equisatisfiable
/// with solving the original on `from`'s - the 1-WL candidate pairing is
/// never trusted on its own. Returns nullopt when any check fails (the
/// caller falls back to encoding `from` cold, which is always sound);
/// `why`, when non-null, receives the refusal diagnostic - for
/// configuration-projection mismatches, the boxes' ConfigRelations
/// descriptors are diffed structurally so the reason names the exact
/// relation, row and cell that blocked the merge (what
/// `vmn verify --dedup-report` surfaces). `transfers` and `configs` are the
/// optional shared memos, as for canonical_slice_key; the projections and
/// the diff read the boxes' descriptors from `configs`.
[[nodiscard]] std::optional<std::vector<NodeId>> shape_bijection(
    const encode::NetworkModel& model, const ShapeKey& from,
    const ShapeKey& to, int max_failures = 0,
    dataplane::TransferCache* transfers = nullptr,
    mbox::ConfigMemo* configs = nullptr, MergeRefusal* why = nullptr);

}  // namespace vmn::slice
