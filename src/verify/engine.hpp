// The one verification entry point and the one batch executor.
//
// Callers say *what* to verify (a model, a batch of invariants) and *how*
// (EngineOptions: worker count, thread or process backend, deadline,
// cache); the CLI, the serve daemon, the fuzzer oracles, benches and tests
// all funnel through here and get the unified BatchResult back.
//
// Slicing makes every invariant a small check that shares no state with
// the others (the paper's scalability argument), so a batch is a set of
// independent slice jobs fanned out over a SolverPool after symmetry
// deduplication:
//
//   invariants --slice_members-------> one slice per invariant
//              --canonical_slice_key-> deduplicated (isomorphic) jobs
//              --ResultCache---------> per-binding cache pass
//              --SolverPool----------> per-worker solver sessions
//              --aggregate-----------> BatchResult
//
// A "sequential" run is just the one-worker schedule of the same plan:
// with one worker the pool runs its tasks inline on the calling thread,
// and that single session borrows the engine's own planning transfer memo,
// so encoding re-walks nothing class inference or the planner walked.
//
// Fast path: the planner orders the queue so jobs sharing a slice shape are
// adjacent; those runs are handed to the pool as single tasks, so one
// worker's warm session solves them on a shared base encoding + live Z3
// context (invariant negation pushed/popped per job). Runs are split when
// there are fewer of them than workers, so warm reuse never costs fan-out.
// The persistent result cache answers re-verified slices before any task
// is scheduled at all.
//
// Determinism: task composition is a pure function of (plan, worker count),
// never of scheduling, so repeated runs at the same worker count reproduce
// each other exactly, and any two worker counts agree verdict-for-verdict
// (which counterexample witnesses a violation may differ: a warm context
// carries learned state from earlier jobs of its task into the search).
//
// An Engine owns the warm state worth keeping between calls:
//  - the persistent ResultCache, opened once (or memory-only) and shared
//    by every run_batch - including across rebind()s, where its v5
//    record-granular invalidation retires exactly the records a spec edit
//    orphaned;
//  - the policy classes and the PlanContext (transfer and configuration
//    memos, shape representatives) every plan pass draws from, built on
//    first use and dropped by rebind().
// rebind() swaps in an edited model while keeping the cache, which is what
// makes the serve daemon's incremental re-verification cheap: unchanged
// slices' canonical keys still hit.
//
// Thread contract: an Engine is single-caller - run one call at a time;
// fan-out happens inside and workers never touch the planning state.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "verify/job.hpp"
#include "verify/process_pool.hpp"
#include "verify/result_cache.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {

/// Where the fan-out runs. `thread` shares one address space (cheap spawn,
/// shared planner memos); `process` forks isolated workers speaking the
/// wire protocol (verify/wire.hpp) - crash-tolerant, sanitizer-friendly,
/// and the stepping stone to multi-host dispatch. Both execute the same
/// plan, group jobs by slice shape the same way, and agree
/// verdict-for-verdict (enforced per scenario generator in test_parallel).
enum class Backend : std::uint8_t { thread, process };

[[nodiscard]] std::string to_string(Backend backend);

struct EngineOptions {
  /// Fan the batch out over `jobs` workers; false runs it on one worker.
  /// Picks the worker count only - both settings execute the same code.
  bool batch = false;
  /// Worker count under `batch`; 0 picks hardware concurrency.
  std::size_t jobs = 0;
  /// Thread or process fan-out (see Backend).
  Backend backend = Backend::thread;
  /// Process-backend knobs (hang timeout, worker argv); ignored by the
  /// thread backend. Workers solve under `verify`'s SessionPolicy.
  ProcessPoolOptions process;
  /// Batch budget measured from run_batch entry; 0 = none. On expiry the
  /// engine stops dispatching: jobs never attempted surface as unknown
  /// verdicts with the abandonment counted in `degradation`, in-flight
  /// jobs finish, and `vmn verify` exits 2 (incomplete). Works on both
  /// backends (the process pool gets whatever budget remains after the
  /// serial planning + cache pass).
  std::chrono::milliseconds deadline{0};
  /// Fold invariants with identical canonical slice keys into one job
  /// (section 4.2's symmetry argument, sharpened by slice structure: keys
  /// merge strictly less than the coarse class-signature grouping, so every
  /// merge here is sound whenever one there is; the checks the key refuses
  /// to merge are counted as conservative splits).
  bool use_symmetry = true;
  /// Keep a live in-memory result cache even without verify.cache_dir:
  /// lookups hit across run_batch calls (and rebinds) within this Engine,
  /// nothing touches disk. The serve daemon's default.
  bool memory_cache = false;
  /// Per-check options (slices, failure budget, solver seed/timeout,
  /// cache_dir, faults, escalation).
  VerifyOptions verify;

  EngineOptions() = default;
  /// One-worker run with these verify options (implicit, so a bare
  /// VerifyOptions configures an Engine as-is).
  EngineOptions(const VerifyOptions& v) : verify(v) {}  // NOLINT
};

class Engine {
 public:
  explicit Engine(const encode::NetworkModel& model, EngineOptions options = {});

  /// Verifies the batch under options().use_symmetry.
  [[nodiscard]] BatchResult run_batch(
      const std::vector<encode::Invariant>& invariants);
  /// Verifies the batch with symmetry dedup explicitly on or off (a
  /// baseline/oracle knob; differs from the engine-level setting only for
  /// that one call): plan, cache pass, fan out, aggregate into the unified
  /// BatchResult (pool/plan diagnostics under `pool`, failure accounting
  /// under `degradation`).
  [[nodiscard]] BatchResult run_batch(
      const std::vector<encode::Invariant>& invariants, bool use_symmetry);

  /// Verifies a single invariant: a one-invariant batch planned without
  /// symmetry, so its keyless problem bypasses the result cache.
  [[nodiscard]] VerifyResult run_one(const encode::Invariant& invariant);

  /// Plans the deduplicated job queue without solving (exposed for tests
  /// and diagnostics; run_batch executes exactly this plan).
  [[nodiscard]] JobPlan plan(const std::vector<encode::Invariant>& invariants);

  /// Swaps in an edited model. Policy classes and the plan context are
  /// rebuilt lazily for the new model; the result cache survives with its
  /// stamping generation switched to the new model's fingerprint, so
  /// unchanged slices' canonical keys still hit and the edit's orphaned
  /// records are retired at the next flush.
  void rebind(const encode::NetworkModel& model);

  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] const slice::PolicyClasses& policy_classes();
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const encode::NetworkModel& model() const { return *model_; }

 private:
  /// The planning context, warmed by class inference on first use.
  [[nodiscard]] PlanContext& plan_context();
  [[nodiscard]] JobPlan plan(const std::vector<encode::Invariant>& invariants,
                             bool use_symmetry);

  const encode::NetworkModel* model_;
  EngineOptions options_;
  ResultCache cache_;
  /// Built together on first use and dropped together on rebind.
  std::optional<PlanContext> ctx_;
  std::optional<slice::PolicyClasses> classes_;
};

/// One-shot convenience: verify `invariants` against `model` under
/// `options`. Constructs a throwaway Engine; callers wanting warm state or
/// cache reuse across calls hold an Engine instead.
[[nodiscard]] BatchResult run_batch(
    const encode::NetworkModel& model,
    const std::vector<encode::Invariant>& invariants,
    const EngineOptions& options = {});

}  // namespace vmn::verify
