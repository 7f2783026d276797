// Verification jobs: the unit of work handed to the SolverPool.
//
// A batch of invariants is planned into a deduplicated job queue keyed by
// canonical slice fingerprints (slice::canonical_slice_key): two invariants
// share a job exactly when their kind, policy classes AND refined slice
// structure agree - a strictly stronger condition than the coarse
// class-signature grouping (slice::class_signature). Engine::run_batch
// executes plans built by the one planner (verify::plan_jobs) at any worker
// count, which is why every worker count agrees
// representative-for-representative. Every job carries the indices of all
// invariants that inherit its outcome.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "dataplane/transfer.hpp"
#include "encode/invariant.hpp"
#include "mbox/config_memo.hpp"
#include "slice/symmetry.hpp"

namespace vmn::verify {

/// One cached representative per base-encoding shape: the member set whose
/// encoding stands in for every isomorphic member set planned later, plus
/// the refinement colors new candidates are paired against
/// (slice::canonical_shape_key / slice::shape_bijection).
struct ShapeRep {
  std::vector<NodeId> members;
  std::vector<std::string> colors;
};

/// One aggregated merge-refusal line: how many candidate merges one
/// distinct slice::MergeRefusal diagnostic blocked this batch. `box_type`
/// is the blocking middlebox type for configuration refusals (empty for
/// structural ones), so reports and benches can break blockers down
/// per box.
struct MergeBlocker {
  std::string reason;
  std::string box_type;
  std::size_t count = 0;
};

/// Shared planning state for one model generation: built with the
/// engine's policy classes and dropped with them on Engine::rebind, so no
/// memo outlives the model it describes. Single-threaded, like the memos it
/// holds.
///
/// The planner is the serial Amdahl term in front of the parallel fan-out,
/// and what it would otherwise repeat per invariant are renderings of the
/// same model: fabric walks and box configurations. `transfers` keeps one
/// transfer function per failure scenario, so every slice computation and
/// canonical key walks each (edge, destination) pair once per generation.
/// `configs` keeps each middlebox's ConfigRelations descriptor and each
/// (box, address) policy fingerprint, so a firewall whose ACL grows with
/// the network is described once, not once per invariant and per key.
/// Policy-class inference (build_policy_classes) runs through the same
/// context: its reachability walks land in `transfers`, every host's
/// fingerprints land in `configs`, and the planner afterwards only looks
/// them up. What is left of a plan is the keys' own string 1-WL rounds.
struct PlanContext {
  explicit PlanContext(const net::Network& network) : transfers(network) {}
  dataplane::TransferCache transfers;
  mbox::ConfigMemo configs;
  /// Canonical-shape-key-indexed encoding-reuse cache: member sets planned
  /// under a shape key are rebound (Job::iso_image) onto the first
  /// registered representative their exact verification accepts. A key
  /// holds a short *list* of representatives, not one: the shape key is
  /// configuration-blind, so e.g. a clean and a rule-deleted datacenter
  /// group share a key while encoding different problems - each
  /// configuration stratum gets its own representative and later member
  /// sets of the same stratum still pair up (the list is capped; see
  /// plan_jobs). Owned by the engine alongside the transfer memo, so
  /// representatives persist across plan passes - a later batch warms
  /// straight onto the shapes an earlier batch encoded.
  std::unordered_map<std::string, std::vector<ShapeRep>> shape_reps;
};

/// One verdict bound to a job's single solver call. A Job carries its
/// representative binding inline (members / iso_image / invariant_index /
/// inheritors below) plus a list of *extra* bindings: invariants whose
/// (invariant, slice) problems the planner proved isomorphic to the
/// representative's encode-space problem (identical encode members and
/// identical mapped invariant), so the one verdict fans out to all of
/// them - each binding relabels the witness through its own inverse
/// bijection (verify::bind_result) and answers its own inheritors.
struct VerdictBinding {
  /// Index of this binding's invariant in the batch list.
  std::size_t invariant_index = 0;
  /// The binding's own slice members (sorted).
  std::vector<NodeId> members;
  /// iso_image[i] is the encode-space node playing members[i]'s part
  /// (empty when the binding's members ARE the encode members).
  std::vector<NodeId> iso_image;
  /// Cross-run cache identity of this binding's own problem (see
  /// slice::canonical_problem_key); key empty when uncanonicalizable.
  slice::ProblemKey problem_key;
  /// Batch indices inheriting this binding's outcome by symmetry.
  std::vector<std::size_t> inheritors;
  /// Planning cost attributed to this binding's invariant.
  std::chrono::milliseconds plan_time{0};
};

/// A borrowed uniform view over a Job's bindings (rank 0 = the
/// representative binding the Job's own fields describe); pointers alias
/// the Job and share its lifetime.
struct BindingRef {
  std::size_t invariant_index = 0;
  const std::vector<NodeId>* members = nullptr;
  const std::vector<NodeId>* iso_image = nullptr;
  const slice::ProblemKey* problem_key = nullptr;
  const std::vector<std::size_t>* inheritors = nullptr;
  std::chrono::milliseconds plan_time{0};
};

/// One unit of parallel work: verify a representative invariant on its slice.
struct Job {
  /// Position in the job queue (stable across runs for a fixed batch).
  std::size_t id = 0;
  /// Index of the representative invariant in the batch list.
  std::size_t invariant_index = 0;
  /// Slice members the representative is encoded over (whole network when
  /// slicing is disabled).
  std::vector<NodeId> members;
  /// Canonical fingerprint of (invariant, slice) used for job dedup
  /// (empty when planned without symmetry).
  std::string canonical_key;
  /// Cross-isomorphic encoding reuse (empty = encode `members` directly).
  /// When set, iso_image[i] is the representative node playing members[i]'s
  /// part under a planner-verified isomorphism (slice::shape_bijection):
  /// the job executes on the base encoding of the representative member
  /// set (`iso_members`) with the invariant mapped through the bijection,
  /// and the counterexample witness is relabeled back before it surfaces
  /// (verify::IsoBinding).
  std::vector<NodeId> iso_image;
  /// The representative member set (sorted iso_image values); set exactly
  /// when iso_image is.
  std::vector<NodeId> iso_members;

  /// The member set whose base encoding this job actually binds: the
  /// isomorphic representative's when mapped, its own otherwise. Jobs with
  /// equal encode_members share a warm solver context.
  [[nodiscard]] const std::vector<NodeId>& encode_members() const {
    return iso_image.empty() ? members : iso_members;
  }
  /// Batch indices (excluding the representative) inheriting the outcome.
  std::vector<std::size_t> inheritors;
  /// Planning cost (slice computation + canonical key) for the
  /// representative; the engine folds it into the representative's
  /// total_time so per-invariant figures stay comparable.
  std::chrono::milliseconds plan_time{0};
  /// The invariant the solver actually sees, already mapped into encode
  /// space (== the batch invariant when iso_image is empty). Thread and
  /// wire workers solve this verbatim; no per-worker relabeling.
  encode::Invariant solve_invariant;
  /// Cross-run cache identity of the representative binding's problem.
  slice::ProblemKey problem_key;
  /// Extra verdict bindings answered by this job's single solver call
  /// (equivalence-class merging; empty without warm iso merging).
  std::vector<VerdictBinding> bindings;

  /// Planned invariant-jobs this solver call answers (1 + extra bindings).
  [[nodiscard]] std::size_t fan_out() const { return 1 + bindings.size(); }
  /// Uniform view over binding `k` (0 = the representative binding).
  [[nodiscard]] BindingRef binding(std::size_t k) const {
    if (k == 0) {
      return BindingRef{invariant_index, &members,    &iso_image,
                        &problem_key,    &inheritors, plan_time};
    }
    const VerdictBinding& b = bindings[k - 1];
    return BindingRef{b.invariant_index, &b.members,    &b.iso_image,
                      &b.problem_key,    &b.inheritors, b.plan_time};
  }
};

/// The deduplicated queue plus planning statistics. Jobs are ordered so
/// that jobs sharing a slice shape (identical member sets) are adjacent:
/// the engine hands each run of them to one worker in order, which turns
/// shape-adjacency directly into warm solver-context reuse.
struct JobPlan {
  std::vector<Job> jobs;
  std::size_t invariant_count = 0;
  /// Invariants folded into a representative job by canonical-key equality.
  std::size_t symmetry_hits = 0;
  /// Invariants the coarse class-signature grouping (the paper's section
  /// 4.2 criterion) would have merged but the canonical key kept separate
  /// because their slice structure differs - each one costs an extra
  /// solver call and buys soundness.
  std::size_t conservative_splits = 0;
  /// Wall time of the whole (serial) planning pass.
  std::chrono::milliseconds plan_time{0};
  /// PlanContext memo effectiveness: transfer functions built vs handed
  /// back from the per-scenario memo. The seed behavior was builds ==
  /// 2 x invariants x scenarios and reuses == 0.
  std::size_t transfer_builds = 0;
  std::size_t transfer_reuses = 0;
  /// Jobs rebound onto an isomorphic representative's base encoding this
  /// pass (cross-isomorphic warm candidates; Job::iso_image or a merged
  /// binding's iso_image set).
  std::size_t iso_mapped = 0;
  /// Planned invariant-jobs folded into another job's solver call as an
  /// extra verdict binding (equivalence-class merging): the plan's jobs
  /// list shrinks by exactly this many entries while planned_jobs() - and
  /// the counters derived from it - keep counting them.
  std::size_t iso_verdict_merged = 0;
  /// Why candidate merges were refused (the shape_bijection MergeRefusal
  /// diagnostics, aggregated): configuration refusals name the exact
  /// differing relation/row/cell from the boxes' ConfigRelations
  /// descriptors and carry the blocking box type for per-box breakdowns.
  /// Feeds `vmn verify --dedup-report` and the fig8 bench counters.
  std::vector<MergeBlocker> merge_blockers;

  /// Planned invariant-jobs: solver calls plus merged verdict bindings
  /// (the historical "jobs" count before equivalence-class merging).
  [[nodiscard]] std::size_t planned_jobs() const {
    return jobs.size() + iso_verdict_merged;
  }

  /// Fraction of the batch answered without a dedicated planned job.
  [[nodiscard]] double dedup_hit_rate() const {
    if (invariant_count == 0) return 0.0;
    return static_cast<double>(invariant_count - planned_jobs()) /
           static_cast<double>(invariant_count);
  }
};

}  // namespace vmn::verify
