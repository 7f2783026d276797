// A pool of solver-owning workers.
//
// Z3 contexts are not thread-safe, so parallel verification gives every
// worker its own SolverSession: the session owns the backend solver and
// runs under one SessionPolicy, and is only ever touched from the worker
// thread that owns it. Because every Encoding carries its own logic::Vocab
// (sorts and declarations are interned per encoding, never shared), a
// session is (re)bound to the vocabulary of each problem it executes.
//
// One policy, one value: SessionPolicy holds every setting a session runs
// under (solver timeout and seed, warm reuse, fault plan, unknown
// escalation). VerifyOptions inherits it, the engine hands it as-is to a
// SolverPool or a ProcessPool, and a MODEL frame ships it to process
// workers (wire::WireModel::policy), so the thread and process backends
// solve under the same settings by construction.
//
// Warm binding: re-encoding the base network and re-asserting its axioms
// into a fresh Z3 context is a fixed cost every cold job pays on top of
// solving, and consecutive jobs often share a slice shape (the planner
// sorts the queue to make them adjacent). A session therefore keeps its
// last base encoding AND the live solver bound to it; warm_bind() hands
// both back untouched when the next job's (model, members, failure budget)
// triple matches, and the caller brackets the per-invariant negation in
// push()/pop() so the base axioms - and Z3's learned state - survive from
// job to job.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/ids.hpp"
#include "dataplane/transfer.hpp"
#include "encode/encoder.hpp"
#include "logic/builder.hpp"
#include "smt/solver.hpp"
#include "verify/counters.hpp"
#include "verify/faults.hpp"

namespace vmn::verify {

/// Every setting a solver session runs under. Declared once: VerifyOptions
/// inherits it, SolverSession / SolverPool / ProcessPool take it whole, and
/// the wire codec ships it in one piece. Every decision it drives is a pure
/// function of the plan, so it never makes results depend on scheduling.
struct SessionPolicy {
  /// Per-check Z3 timeout and random seed.
  smt::SolverOptions solver;
  /// Keep each session's base encoding and Z3 context alive across
  /// consecutive jobs sharing a slice shape (base axioms asserted once,
  /// per-invariant negation pushed/popped). Verdict-identical to cold
  /// solving; off is the benchmark/debug baseline.
  bool warm_solving = true;
  /// Seeded deterministic fault injection (verify/faults.hpp); a default
  /// plan injects nothing. Worker/frame faults only bite on the process
  /// backend; solver and cache faults bite everywhere.
  FaultPlan faults;
  /// Retry unknown verdicts once on a fresh context with the timeout
  /// doubled and the solver seed perturbed (SolverSession::escalate_bind),
  /// before accepting unknown. Widening-only: a definitive escalated
  /// answer replaces unknown, never the other way around.
  bool escalate_unknown = true;
};

/// A single worker's solver state. Never shared between threads.
class SolverSession {
 public:
  /// `policy.warm_solving` == false disables context reuse: every
  /// warm_bind() builds a fresh encoding and solver (the cold baseline the
  /// warm path is tested and benchmarked against); the session's
  /// FaultInjector is built from `policy.faults`. `transfers`, when
  /// non-null, is a borrowed per-scenario transfer memo every encoding
  /// built by this session draws from (a one-worker engine lends its
  /// PlanContext cache, so encoding re-walks nothing the planner walked).
  /// TransferFunction memos are not thread-safe: a borrowed cache must only
  /// ever be touched from the thread running this session, so pool workers
  /// leave it null and the session builds a private per-model cache
  /// instead.
  explicit SolverSession(const SessionPolicy& policy,
                         dataplane::TransferCache* transfers = nullptr)
      : policy_(policy), faults_(policy.faults),
        borrowed_transfers_(transfers) {}

  /// What warm_bind hands out: the session-owned base encoding (base axioms
  /// already asserted on `solver` at scope level 0) and whether it was
  /// reused from the previous job.
  struct WarmBound {
    encode::Encoding& encoding;
    smt::Solver& solver;
    bool reused = false;
  };

  /// Returns a solver pre-loaded with the base axioms of (model, members,
  /// failure budget): reuses the live context when the triple matches the
  /// previous warm_bind (and warm reuse is enabled), otherwise encodes and
  /// asserts from scratch. Callers must leave the solver at scope level 0
  /// (every push popped) before the next warm_bind.
  WarmBound warm_bind(const encode::NetworkModel& model,
                      std::vector<NodeId> members, int max_failures);

  /// A fresh context over the *current* warm shape with escalated options
  /// (timeout doubled, perturbed seed), for retrying an unknown verdict.
  /// Kept separate from the warm context so escalation never leaks its
  /// options into later jobs; freed by reset_warm. Must
  /// follow a warm_bind (asserts on the warm shape being set). Counts one
  /// escalation; callers report a rescue via note_escalation_rescued.
  WarmBound escalate_bind();
  void note_escalation_rescued() { ++counters_.escalations_rescued; }

  /// Drops the warm encoding + solver (counters survive). The engine
  /// calls this at every task boundary so warm reuse is confined to
  /// within one task: which tasks land on which worker is a scheduling
  /// race, and cross-task reuse would make solver state - and with it
  /// witness traces - depend on that race instead of only on the plan.
  ///
  /// The session-owned transfer memo survives: transfer functions are
  /// deterministic routing data, so keeping them across tasks cannot make
  /// results scheduling-dependent the way solver state would. The memo is
  /// keyed by the network's address, so a session must not outlive the
  /// model it binds (the wire worker starts a fresh session per model).
  void reset_warm();

  /// The policy this session runs under, and the fault oracle built from
  /// its plan (solver faults here, worker and frame faults in the wire
  /// worker loop).
  [[nodiscard]] const SessionPolicy& policy() const { return policy_; }
  [[nodiscard]] const FaultInjector& faults() const { return faults_; }
  /// Everything this session has counted since construction (binds, warm
  /// and cross-isomorphic reuse, encode-time transfer traffic,
  /// escalations); reset_warm leaves it alone.
  [[nodiscard]] const SessionCounters& counters() const { return counters_; }
  /// Marks the last warm reuse as cross-isomorphic (called by
  /// verify_members for iso-rebound jobs).
  void note_iso_reuse() { ++counters_.iso_reuses; }

 private:
  SessionPolicy policy_;
  FaultInjector faults_;
  dataplane::TransferCache* borrowed_transfers_ = nullptr;
  /// Session-owned fallback memo, rebuilt when the model changes.
  std::unique_ptr<dataplane::TransferCache> owned_transfers_;
  std::unique_ptr<smt::Solver> solver_;
  SessionCounters counters_;
  /// Escalation context (escalate_bind): separate from the warm pair so
  /// the escalated options die with the retry.
  std::unique_ptr<encode::Encoding> esc_encoding_;
  std::unique_ptr<smt::Solver> esc_solver_;

  /// Warm state: the base encoding the solver is bound to plus the shape
  /// key (model identity, normalized members, failure budget) that must
  /// match for reuse.
  std::unique_ptr<encode::Encoding> encoding_;
  const encode::NetworkModel* warm_model_ = nullptr;
  std::vector<NodeId> warm_members_;
  int warm_failures_ = -1;
};

/// Per-worker execution counters, reported in batch results. A "task" is
/// one unit handed to SolverPool::run - the engine passes groups
/// of same-shape jobs as single tasks so warm reuse happens within one
/// session.
struct WorkerStats {
  std::size_t jobs = 0;
  std::chrono::milliseconds busy{0};
};

/// Fixed-size worker pool. Jobs are pulled from a shared atomic cursor, so
/// scheduling is work-stealing-free but naturally load balanced; results
/// must be written to per-job slots by the callback, which makes aggregation
/// independent of the (nondeterministic) job-to-worker assignment.
class SolverPool {
 public:
  /// `workers` == 0 picks std::thread::hardware_concurrency(). Every
  /// session runs under `policy` (see SolverSession). `transfers` is lent
  /// to the session of a one-worker pool, whose tasks run on the calling
  /// thread (see SolverSession's borrowing contract); it must be null when
  /// the pool has more workers.
  SolverPool(std::size_t workers, const SessionPolicy& policy,
             dataplane::TransferCache* transfers = nullptr);

  [[nodiscard]] std::size_t size() const { return sessions_.size(); }
  [[nodiscard]] const std::vector<WorkerStats>& stats() const {
    return stats_;
  }
  /// Worker `i`'s session (for aggregating its counters).
  [[nodiscard]] const SolverSession& session(std::size_t i) const {
    return *sessions_[i];
  }
  /// Executes `fn(task_index, session)` for every index in [0, count).
  /// Each invocation runs on exactly one worker thread with that worker's
  /// session; blocks until all tasks finish. The first exception thrown by
  /// a task is rethrown here after the pool drains. With a single worker
  /// the tasks run in index order on the calling thread (no thread is
  /// spawned), which is what lets a one-worker pool borrow the caller's
  /// single-threaded state.
  void run(std::size_t count,
           const std::function<void(std::size_t, SolverSession&)>& fn);

 private:
  std::vector<std::unique_ptr<SolverSession>> sessions_;
  std::vector<WorkerStats> stats_;
};

}  // namespace vmn::verify
