// A pool of worker *processes* for batch verification.
//
// Where SolverPool fans jobs out over threads in one address space,
// ProcessPool forks one worker process per slot and streams wire-framed
// jobs to them over pipes (see verify/wire.hpp for the protocol). The unit
// of dispatch is a shape group - a run of jobs sharing one slice member
// set - so each group's jobs execute back-to-back on one worker's warm
// solver session, exactly like the thread backend's task grouping.
//
// Crash tolerance is the point of the exercise: a worker that exits, is
// killed, or stops answering within the hang timeout is reaped, and every
// job it had not answered is requeued onto the surviving workers. Requeues
// are bounded (max_attempts dispatches per job); a job that exhausts its
// budget - or outlives every worker - is *abandoned*: it surfaces as an
// unknown verdict with the abandonment counted, never as a silently missing
// result.
//
// Self-healing: a slot whose worker dies respawns a replacement (capped
// exponential backoff with seeded jitter, at most max_respawns per slot),
// so one bad worker - or a chaos plan killing several - does not shrink the
// fleet for the rest of the batch. Respawning alone would let a
// *deterministic* crasher (a job that kills whichever worker runs it) eat
// every respawn budget in turn, so crashes are attributed to the job that
// was in flight: a job that has killed quarantine_kills workers is
// quarantined - abandoned to an unknown verdict, counted and named in the
// dispatch report - and the fleet keeps going. The no-survivors path stays
// reachable (respawn budgets are finite), so the bounded-retry guarantee
// still means what it said.
//
// Graceful degradation: an optional deadline (measured from run()) stops
// dispatching when it expires - jobs never attempted are abandoned with a
// deadline cause, in-flight jobs finish, and the caller gets a partial
// result set plus accurate counters instead of an open-ended wait.
//
// Spawning: with an empty worker_command the child runs wire::worker_main
// directly after fork() (no exec - used by in-process callers like tests
// and benchmarks); a non-empty command fork+execs it (the CLI passes
// {/proc/self/exe, "worker"}, so dispatcher and workers are always the
// same build of the same binary). The initial fleet forks before any
// dispatcher thread starts; respawns fork mid-batch from dispatcher
// threads, which is safe here because those threads only ever move bytes
// over pipes - all solving happens in the workers, so no Z3 (or other
// lock-holding) work races the fork, and the shared fd registry is
// mutex-held across it so children see a consistent snapshot to close.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "smt/solver.hpp"
#include "verify/solver_pool.hpp"
#include "verify/wire.hpp"

namespace vmn::verify {

struct ProcessPoolOptions {
  /// Worker processes; 0 picks std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// Dispatch budget per job (initial dispatch + requeues). Exhausted jobs
  /// are abandoned to an unknown verdict.
  int max_attempts = 3;
  /// How long the dispatcher waits for one job's result before declaring
  /// the worker hung and killing it. 0 derives a budget from the solver
  /// timeout (2x + 30s) so a wedged worker can never stall the batch.
  std::chrono::milliseconds hang_timeout{0};
  /// argv of the worker to fork+exec; empty runs wire::worker_main in a
  /// forked child of this process.
  std::vector<std::string> worker_command;
  /// Fault plan shipped to workers in the MODEL frame (and whose seed
  /// drives the respawn-backoff jitter). Default injects nothing.
  FaultPlan faults;
  /// Unknown-escalation policy forwarded to worker sessions (see
  /// VerifyOptions::escalate_unknown).
  bool escalate_unknown = true;
  std::uint32_t escalation_timeout_mult = 2;
  /// Respawn budget per slot: how many replacement workers one slot may
  /// spawn after crashes/hangs before it retires.
  std::size_t max_respawns = 2;
  /// Capped exponential backoff before the k-th respawn of a slot:
  /// min(cap, base << k) plus seeded jitter in [0, base).
  std::chrono::milliseconds respawn_backoff_base{25};
  std::chrono::milliseconds respawn_backoff_cap{400};
  /// A job whose worker died this many times while it was in flight is
  /// quarantined (abandoned to unknown, never dispatched again).
  int quarantine_kills = 2;
  /// Batch budget measured from run() entry; 0 = none. On expiry,
  /// not-yet-attempted jobs are abandoned with a deadline cause.
  std::chrono::milliseconds deadline{0};
};

/// One unit of dispatch: the projected model its jobs execute in, plus the
/// indices (into the job vector handed to run) of a same-shape job run.
struct ProcessGroup {
  std::string spec_text;
  std::vector<std::size_t> jobs;
};

class ProcessPool {
 public:
  ProcessPool(smt::SolverOptions solver, bool warm_solving,
              ProcessPoolOptions options);

  /// Dispatches every group, blocking until each job is answered or
  /// abandoned; the results align with `jobs`, nullopt marking an abandoned
  /// job. The fan-out's accounting is counted straight into the batch's
  /// `pool` (workers, spawns, crashes, requeues, abandonments) and
  /// `degradation` (quarantines, retry and deadline abandonments,
  /// respawns, deadline expiry, one reason per event). Thread-safe against
  /// nothing: call from one thread, before spawning unrelated threads
  /// (fork() is involved).
  [[nodiscard]] std::vector<std::optional<wire::WireResult>> run(
      const std::vector<wire::WireJob>& jobs, std::vector<ProcessGroup> groups,
      PoolStats& pool, DegradationReport& degradation) const;

  [[nodiscard]] const ProcessPoolOptions& options() const { return options_; }

 private:
  smt::SolverOptions solver_;
  bool warm_ = true;
  ProcessPoolOptions options_;
};

}  // namespace vmn::verify
