// The VMN verification core (paper, section 3.1).
//
// The pieces one verification run is built from: compute the slice
// (unless disabled), encode network + middleboxes + oracles + negated
// invariant, hand the axioms to Z3, interpret the result, and - on
// violation - extract a counterexample trace from the model. The shared
// batch planner (plan_jobs) optionally exploits policy symmetry to verify
// one invariant per symmetry group. verify::Engine (verify/engine.hpp)
// executes the plans; this header holds the result types and the
// per-check functions its workers and wire workers share.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "encode/encoder.hpp"
#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "slice/policy.hpp"
#include "slice/slice.hpp"
#include "slice/symmetry.hpp"
#include "smt/solver.hpp"
#include "verify/counters.hpp"
#include "verify/job.hpp"
#include "verify/result_cache.hpp"
#include "verify/solver_pool.hpp"

namespace vmn::verify {

enum class Outcome : std::uint8_t {
  holds,     ///< invariant proven for all schedules and oracle behaviors
  violated,  ///< counterexample schedule found
  unknown,   ///< solver timeout / incompleteness
};

[[nodiscard]] std::string to_string(Outcome outcome);

/// Per-check options: the session policy every solver session runs under
/// (solver, warm_solving, faults, escalate_unknown - see SessionPolicy)
/// plus what planning and caching read.
struct VerifyOptions : SessionPolicy {
  /// Verify on a computed slice instead of the whole network.
  bool use_slices = true;
  /// Failure budget: how many nodes may fail simultaneously.
  int max_failures = 0;
  /// Use inferred policy classes (configuration fingerprints) rather than
  /// the declared ones for slices and symmetry.
  bool infer_policy_classes = true;
  /// Collapse planned jobs whose encode-space problems are identical
  /// (same representative members, same mapped invariant - the planner's
  /// exact shape_bijection having vouched for every mapping) into ONE
  /// solver call fanned out to per-binding verdicts, witnesses relabeled
  /// per binding. Verdict-identical to solving each binding separately
  /// (the `iso-verdict` fuzz oracle pins this); only active alongside
  /// warm_solving, so --no-warm stays the full no-reuse cold baseline.
  bool merge_isomorphic = true;
  /// Directory of the persistent cross-batch result cache (see
  /// verify/result_cache.hpp); empty disables caching. Cache hits restore
  /// outcome and statistics but never a counterexample trace.
  std::string cache_dir;
};

struct VerifyResult {
  Outcome outcome = Outcome::unknown;
  smt::CheckStatus raw_status = smt::CheckStatus::unknown;
  std::chrono::milliseconds solve_time{0};
  std::chrono::milliseconds total_time{0};
  std::size_t slice_size = 0;       ///< encoded edge nodes
  std::size_t assertion_count = 0;  ///< axioms handed to the solver
  std::optional<Trace> counterexample;
  /// Set when the result was inherited from a symmetric representative.
  bool by_symmetry = false;
  /// Set when the outcome was restored from the persistent result cache
  /// (directly, or inherited from a cached representative); such results
  /// carry no counterexample.
  bool from_cache = false;
};

/// Per-job solve times, one sample per solver call (bounded by the batch's
/// job count), so the tail is reportable exactly: BENCH_parallel and the
/// CLI summary surface p50/p95/max, not just the mean. to_string renders
/// log2 buckets: bucket i counts samples in [2^(i-1), 2^i) ms (bucket 0 is
/// < 1 ms).
struct TimingHistogram {
  /// Every recorded sample, in record order.
  std::vector<std::chrono::milliseconds> raw;

  void record(std::chrono::milliseconds ms) { raw.push_back(ms); }
  /// Nearest-rank percentile (p in [0, 100]) of the raw samples; 0ms when
  /// empty. percentile(100) is the max.
  [[nodiscard]] std::chrono::milliseconds percentile(double p) const;
  [[nodiscard]] std::chrono::milliseconds max() const { return percentile(100.0); }
  /// e.g. "<1ms:3 1-2ms:1 8-16ms:7"
  [[nodiscard]] std::string to_string() const;
};

/// Plan- and pool-level diagnostics nested inside BatchResult: how the
/// batch deduplicated and fanned out. The crash counters stay zero under
/// the thread backend (threads do not crash independently).
struct PoolStats {
  std::size_t invariant_count = 0;
  /// Planned invariant-jobs (the deduplicated queue, counting every
  /// verdict binding of a merged equivalence class; cache hits answer
  /// some of these without scheduling them, and merging answers others
  /// without their own solver call - see BatchResult::solver_calls for
  /// actual solves).
  std::size_t jobs_executed = 0;
  /// Invariants answered by canonical-key job merging.
  std::size_t symmetry_hits = 0;
  /// Class-symmetric checks verified separately anyway (see JobPlan).
  std::size_t conservative_splits = 0;
  /// (invariants - solver jobs) / invariants.
  double dedup_hit_rate = 0.0;
  /// Crash accounting: worker processes spawned/lost (0 under the thread
  /// backend), jobs re-dispatched after a crash or hang, and jobs
  /// abandoned to an unknown verdict - retries exhausted, quarantined,
  /// or past the deadline; both backends count deadline abandonments here
  /// (never silently dropped).
  std::size_t workers_spawned = 0;
  std::size_t workers_crashed = 0;
  std::size_t jobs_requeued = 0;
  std::size_t jobs_abandoned = 0;
  TimingHistogram solve_histogram;
  std::vector<WorkerStats> workers;
  /// Equivalence-class fan-out: one entry per solver-call class, its value
  /// the number of planned invariant-jobs the class's single solve
  /// answers (1 = unmerged). Sum == jobs_executed.
  std::vector<std::size_t> iso_class_sizes;
  /// Refused candidate merges (JobPlan::merge_blockers): per distinct
  /// refusal diagnostic, the blocking box type (when configuration was the
  /// blocker) and the count; `vmn verify --dedup-report` prints them.
  std::vector<MergeBlocker> merge_blockers;
};

/// The batch-verification result the Engine returns: per-invariant
/// verdicts plus the unified counter set (the summed SessionCounters of
/// every worker, the fields below, and the counter_table() naming them
/// all), with plan/pool diagnostics nested in `pool` and failure
/// accounting in `degradation`.
struct BatchResult : SessionCounters {
  std::vector<VerifyResult> results;  ///< aligned with the invariant list
  /// Actual solver invocations: planned jobs minus cache hits.
  std::size_t solver_calls = 0;
  std::chrono::milliseconds total_time{0};
  /// Serial planning wall time (slices + canonical keys + dedup), the
  /// Amdahl term ahead of the fan-out.
  std::chrono::milliseconds plan_time{0};
  /// Verdict bindings answered by the persistent result cache / stored
  /// into it after a solve (counted per planned invariant-job, so
  /// hits + misses == jobs_executed when caching is on, 0 + 0 when off;
  /// bindings of one merged class usually share a problem key, so misses
  /// may land on one record). Keys are shape-canonical problem digests
  /// (slice::canonical_problem_key): a renamed-but-isomorphic spec hits
  /// cold, cross-run.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Jobs the planner rebound onto an isomorphic representative's base
  /// encoding (Job::iso_image); the ones a live context answered warm
  /// count as iso_reuses - the cross-isomorphic reuse the canonical-key
  /// dedup cannot reach because the verdicts must stay separate.
  std::size_t iso_mapped = 0;
  /// Verdicts answered by replaying another binding's solve through a
  /// planner-verified bijection (equivalence-class merging): for every
  /// solver call with fan-out N whose bindings the cache did not answer,
  /// N-1 of the N verdicts count here. The datacenter batch's "8 planned
  /// jobs, 1 solver call" shows up as iso_verdict_reuses == 7.
  std::size_t iso_verdict_reuses = 0;
  /// How (and whether) the batch degraded: respawns, quarantines,
  /// dropped cache records, deadline expiry, and one human-readable
  /// reason per event. `degradation.degraded()` drives the CLI's
  /// "incomplete" exit code.
  DegradationReport degradation;
  /// Plan and fan-out diagnostics (see PoolStats).
  PoolStats pool;
};

/// Reads a counterexample schedule out of a satisfying model.
[[nodiscard]] Trace extract_trace(const encode::Encoding& encoding,
                                  const smt::SmtModel& model);

/// The policy classes a verification run plans with: inferred
/// (configuration fingerprints refined by per-scenario reachability
/// signatures, budgeted by options.max_failures) or declared, per
/// options.infer_policy_classes. Built through the engine's own
/// PlanContext, so the refinement's dataplane walks and the hosts'
/// configuration fingerprints land in the memos every later plan pass
/// draws from (planning re-walks and re-renders nothing inference already
/// did).
[[nodiscard]] slice::PolicyClasses build_policy_classes(
    const encode::NetworkModel& model, const VerifyOptions& options,
    PlanContext& ctx);

/// Pinned fingerprint (FNV-1a 64 over the serialized full-network spec) of
/// everything the model contributes to verification problems: topology,
/// configurations, routes and failure scenarios - invariants excluded, so
/// merely adding checks never invalidates. The engine stamps it into
/// every persistent ResultCache record (v5): records minted from a
/// different model would otherwise linger as dead weight after a spec
/// edit (canonical keys self-invalidate lookups, but never the file), so
/// a stale-stamped record no lookup touches is retired at the next flush
/// - record by record, leaving the rest of the file live.
[[nodiscard]] std::uint64_t model_fingerprint(const encode::NetworkModel& model);

/// Human-readable rendering of a problem key's canonical member order
/// ("a,b,c"): the concrete binding stored alongside every v6 cache record
/// so a record names the nodes that minted it (diagnostics only - lookups
/// compare keys, never bindings).
[[nodiscard]] std::string binding_signature(const encode::NetworkModel& model,
                                            const std::vector<NodeId>& order);

/// The edge nodes `invariant` is encoded over: the computed slice, or the
/// whole network when slicing is off. `transfers`, when non-null, is the
/// plan-wide per-scenario transfer memo (see PlanContext).
[[nodiscard]] std::vector<NodeId> slice_members(
    const encode::NetworkModel& model, const encode::Invariant& invariant,
    const slice::PolicyClasses& classes, bool use_slices, int max_failures,
    dataplane::TransferCache* transfers = nullptr);

/// The shared batch planner: one slice per invariant, deduplicated into jobs
/// by canonical_slice_key when `use_symmetry` is set (an invariant joins an
/// existing job exactly when its kind, policy classes and refined slice
/// structure fingerprint-match; merges the coarse class-signature criterion
/// would have made but the key refuses are counted as conservative splits -
/// each costs a solver call and buys soundness). One PlanContext memoizes
/// per-scenario transfer functions and box configuration renderings across
/// every slice and canonical key of the pass, and the finished queue is stably reordered so jobs sharing a
/// slice shape are adjacent (fueling warm solver reuse). Engine::run_batch
/// fans shape-groups of this plan out over its workers - one worker or
/// many, the same plan, which is what makes every worker count agree
/// representative-for-representative.
/// `ctx`, when non-null, is the caller's long-lived planning context (the
/// engine passes its own, already warm from class inference);
/// null plans on a private one. JobPlan::transfer_builds/reuses report the
/// context's cumulative counters.
[[nodiscard]] JobPlan plan_jobs(const encode::NetworkModel& model,
                                const std::vector<encode::Invariant>& invariants,
                                const slice::PolicyClasses& classes,
                                bool use_symmetry, const VerifyOptions& options,
                                PlanContext* ctx = nullptr);

/// A planner-verified isomorphism binding one invariant-job onto a
/// representative member set's base encoding (see Job::iso_image and
/// slice::shape_bijection). `members` is the job's own sorted slice;
/// `image[i]` is the representative node playing members[i]'s part. The
/// bijection carries the soundness argument: the base encodings are
/// isomorphic under it (node-for-node, address-for-address,
/// scenario-permuted), so the planner maps the invariant into the
/// representative's namespace (Job::solve_invariant), the engine solves
/// the mapped problem once, and bind_result relabels any counterexample
/// back - nodes through the inverse bijection, packet addresses through
/// the induced inverse address map - before each binding's result
/// surfaces. The relabeled witness therefore names the actual slice's
/// hosts, exactly as a cold solve of the original problem would.
struct IsoBinding {
  std::vector<NodeId> members;
  std::vector<NodeId> image;
};

/// The shared single-check core: warm-binds `session` to the base problem
/// (model, members, failure budget) - reusing the live encoding + solver
/// when the previous call had the same shape - then push()es the negated
/// invariant, checks, extracts any counterexample and pop()s back to the
/// base. Every thread worker - and every wire worker - funnels through
/// this function, which is what guarantees their outcomes agree
/// check-for-check. `total_time` covers encoding and solving only;
/// callers that also compute the slice fold that time in themselves.
/// `invariant` and `members` are the encode-space problem verbatim (for
/// iso-rebound jobs the planner already mapped both); the returned
/// result - witness included - stays in encode space, and callers fan it
/// out through bind_result per verdict binding. `iso_encoded` only marks
/// the problem as an iso-rebound one so a live-context hit counts as a
/// cross-isomorphic reuse on the session.
[[nodiscard]] VerifyResult verify_members(const encode::NetworkModel& model,
                                          const encode::Invariant& invariant,
                                          std::vector<NodeId> members,
                                          int max_failures,
                                          SolverSession& session,
                                          bool iso_encoded = false);

/// The result one verdict binding surfaces from its class's single
/// encode-space solve: verdict, status and statistics verbatim, the
/// witness relabeled from encode space into the binding's own namespace
/// through the inverse bijection (members[i] <- iso_image[i]); an empty
/// iso_image is the identity binding and passes the witness through
/// untouched. Equisatisfiability is the planner's shape_bijection
/// contract, which is why the verdict itself never changes hands here.
[[nodiscard]] VerifyResult bind_result(const encode::NetworkModel& model,
                                       const VerifyResult& solved,
                                       const std::vector<NodeId>& members,
                                       const std::vector<NodeId>& iso_image);

}  // namespace vmn::verify
