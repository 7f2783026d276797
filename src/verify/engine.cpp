#include "verify/engine.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>

#include "io/spec.hpp"

namespace vmn::verify {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::thread:
      return "thread";
    case Backend::process:
      return "process";
  }
  return "?";
}

namespace {

// Fingerprinting serializes the model's spec projection, which throws for
// middlebox types the io layer cannot name (e.g. test-local subclasses).
// Only a configured cache needs the stamp, so cacheless engines - the only
// place such models are legal - never pay or throw.
std::uint64_t cache_stamp(const encode::NetworkModel& model,
                          const EngineOptions& options) {
  const bool cached =
      !options.verify.cache_dir.empty() || options.memory_cache;
  return cached ? model_fingerprint(model) : 0;
}

/// The result a symmetric invariant inherits from its verified
/// representative: same outcome and statistics, by_symmetry set, and no
/// counterexample (the witness names the representative's nodes).
VerifyResult inherit_result(const VerifyResult& representative) {
  VerifyResult inherited;
  inherited.outcome = representative.outcome;
  inherited.raw_status = representative.raw_status;
  inherited.solve_time = representative.solve_time;
  inherited.total_time = representative.total_time;
  inherited.slice_size = representative.slice_size;
  inherited.assertion_count = representative.assertion_count;
  inherited.by_symmetry = true;
  inherited.from_cache = representative.from_cache;
  return inherited;
}

/// The result a persistent-cache hit restores: the cached raw status mapped
/// back through the invariant's sat_means_holds() polarity, cached slice /
/// assertion statistics, from_cache set, no counterexample - so cached and
/// solved runs disagree in nothing but the trace.
VerifyResult result_from_cache(const ResultCache::Entry& entry,
                               const encode::Invariant& invariant) {
  VerifyResult result;
  result.raw_status = entry.status;
  switch (entry.status) {
    case smt::CheckStatus::sat:
      result.outcome =
          invariant.sat_means_holds() ? Outcome::holds : Outcome::violated;
      break;
    case smt::CheckStatus::unsat:
      result.outcome =
          invariant.sat_means_holds() ? Outcome::violated : Outcome::holds;
      break;
    case smt::CheckStatus::unknown:
      result.outcome = Outcome::unknown;  // never stored; defensive
      break;
  }
  result.slice_size = entry.slice_size;
  result.assertion_count = entry.assertion_count;
  result.from_cache = true;
  return result;
}

}  // namespace

Engine::Engine(const encode::NetworkModel& model, EngineOptions options)
    : model_(&model), options_(std::move(options)),
      cache_(options_.verify.cache_dir, cache_stamp(model, options_),
             options_.memory_cache) {}

PlanContext& Engine::plan_context() {
  if (!classes_) {
    // Class inference walks its reachability refinement through this
    // context, so every later plan pass reuses those dataplane walks.
    ctx_.emplace(model_->network());
    classes_ = build_policy_classes(*model_, options_.verify, *ctx_);
  }
  return *ctx_;
}

const slice::PolicyClasses& Engine::policy_classes() {
  (void)plan_context();
  return *classes_;
}

JobPlan Engine::plan(const std::vector<encode::Invariant>& invariants) {
  return plan(invariants, options_.use_symmetry);
}

JobPlan Engine::plan(const std::vector<encode::Invariant>& invariants,
                     bool use_symmetry) {
  PlanContext& ctx = plan_context();
  return plan_jobs(*model_, invariants, *classes_, use_symmetry,
                   options_.verify, &ctx);
}

BatchResult Engine::run_batch(
    const std::vector<encode::Invariant>& invariants) {
  return run_batch(invariants, options_.use_symmetry);
}

BatchResult Engine::run_batch(
    const std::vector<encode::Invariant>& invariants, bool use_symmetry) {
  const auto start = std::chrono::steady_clock::now();
  std::optional<std::chrono::steady_clock::time_point> deadline_at;
  if (options_.deadline.count() > 0) deadline_at = start + options_.deadline;
  BatchResult out;
  out.pool.invariant_count = invariants.size();
  out.results.resize(invariants.size());

  JobPlan plan = this->plan(invariants, use_symmetry);
  out.pool.jobs_executed = plan.planned_jobs();
  out.pool.symmetry_hits = plan.symmetry_hits;
  out.pool.conservative_splits = plan.conservative_splits;
  out.pool.dedup_hit_rate = plan.dedup_hit_rate();
  out.pool.merge_blockers = plan.merge_blockers;
  for (const Job& job : plan.jobs) {
    out.pool.iso_class_sizes.push_back(job.fan_out());
  }
  out.plan_time = plan.plan_time;
  out.iso_mapped = plan.iso_mapped;

  // Persistent-cache pass: answer whatever a previous batch already solved
  // before any task is scheduled; only the misses reach the pool. The cache
  // survives across calls (and daemon reloads).
  const FaultInjector cache_faults(options_.verify.faults);
  if (cache_faults.enabled()) cache_.set_fault_injector(&cache_faults);
  out.degradation.cache_records_dropped = cache_.records_dropped();
  // Per-binding cache pass: every verdict binding of every job looks
  // itself up by its own cross-run problem key; a job reaches the pool
  // only when at least one of its bindings missed. The pool solves the
  // job's encode-space problem once, and the aggregation below fans the
  // verdict out through the remaining bindings' inverse bijections.
  std::vector<VerifyResult> job_results(plan.jobs.size());
  std::vector<std::vector<VerifyResult>> bound(plan.jobs.size());
  std::vector<std::vector<char>> from_cache_hit(plan.jobs.size());
  std::vector<std::size_t> to_solve;
  to_solve.reserve(plan.jobs.size());
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const Job& job = plan.jobs[j];
    const std::size_t fan = job.fan_out();
    bound[j].resize(fan);
    from_cache_hit[j].assign(fan, 0);
    bool need_solve = false;
    for (std::size_t k = 0; k < fan; ++k) {
      const BindingRef b = job.binding(k);
      if (!b.problem_key->key.empty()) {
        if (std::optional<ResultCache::Entry> hit =
                cache_.lookup(b.problem_key->key)) {
          bound[j][k] = result_from_cache(*hit, invariants[b.invariant_index]);
          from_cache_hit[j][k] = 1;
          ++out.cache_hits;
          continue;
        }
      }
      need_solve = true;
    }
    if (need_solve) to_solve.push_back(j);
  }

  // Group runs of same-shape jobs (the planner made them adjacent, and
  // removing cache hits preserves adjacency) into single pool tasks: the
  // jobs of a group execute on one worker's warm session, back to back.
  // "Same shape" means the same *base encoding* - identical member sets,
  // or member sets rebound onto one isomorphic representative
  // (Job::encode_members), which is how cross-isomorphic reuse survives
  // the fan-out.
  std::size_t requested = 1;
  if (options_.batch) {
    requested = options_.jobs != 0 ? options_.jobs
                                   : std::thread::hardware_concurrency();
    if (requested == 0) requested = 1;
  }
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // [begin, end)
  for (std::size_t k = 0; k < to_solve.size();) {
    std::size_t end = k + 1;
    while (end < to_solve.size() &&
           plan.jobs[to_solve[end]].encode_members() ==
               plan.jobs[to_solve[k]].encode_members()) {
      ++end;
    }
    groups.emplace_back(k, end);
    k = end;
  }
  // Warm reuse only needs adjacency *within* a task, so when there are
  // fewer shape-runs than requested workers, split the largest runs until
  // the fan-out is restored - otherwise a batch whose jobs all share one
  // shape (e.g. --no-slices audits) would serialize onto a single worker.
  // Deterministic for a fixed (plan, jobs) pair: the first largest run
  // splits at its midpoint each round.
  const std::size_t target = std::min(requested, to_solve.size());
  while (groups.size() < target) {
    std::size_t best = groups.size();
    std::size_t best_len = 1;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t len = groups[g].second - groups[g].first;
      if (len > best_len) {
        best = g;
        best_len = len;
      }
    }
    if (best == groups.size()) break;  // nothing left to split
    const auto [begin, end] = groups[best];
    const std::size_t mid = begin + (end - begin) / 2;
    groups[best] = {begin, mid};
    groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(best) + 1,
                  {mid, end});
  }

  // Fan out: results are written into per-job slots, so aggregation is
  // independent of worker scheduling. `solved` collects the jobs a solver
  // actually answered (the process backend may abandon some to unknown).
  std::set<std::size_t> solved;
  if (options_.backend == Backend::process) {
    // Process backend: project each shape group's slice to a spec, frame
    // the jobs by name, and stream them to forked workers; crashed or hung
    // workers get their unfinished jobs requeued onto the survivors.
    std::vector<wire::WireJob> wire_jobs;
    wire_jobs.reserve(to_solve.size());
    for (std::size_t k = 0; k < to_solve.size(); ++k) {
      wire_jobs.push_back(wire::make_wire_job(*model_, plan.jobs[to_solve[k]],
                                              options_.verify.max_failures));
    }
    std::vector<ProcessGroup> process_groups;
    process_groups.reserve(groups.size());
    for (const auto& [begin, end] : groups) {
      ProcessGroup group;
      // The projection must contain every node the group's jobs reference.
      // Jobs cross the pipe in encode space (v4), so that is exactly the
      // union of encode member sets - a merged class's own member sets
      // never travel; the dispatcher relabels verdicts after the fact.
      std::set<NodeId> span;
      for (std::size_t k = begin; k < end; ++k) {
        const Job& job = plan.jobs[to_solve[k]];
        span.insert(job.encode_members().begin(), job.encode_members().end());
      }
      group.spec_text = io::write_projected_spec_string(
          *model_, std::vector<NodeId>(span.begin(), span.end()));
      for (std::size_t k = begin; k < end; ++k) group.jobs.push_back(k);
      process_groups.push_back(std::move(group));
    }
    ProcessPoolOptions popts = options_.process;
    popts.workers = requested;
    // The fault plan and escalation policy ride the verify options so the
    // CLI's --faults / --no-escalate reach the workers unchanged; the
    // deadline hands the pool whatever budget planning and the cache pass
    // left (a floor of 1ms keeps "already expired" on the pool's own
    // drain path instead of special-casing it here).
    popts.faults = options_.verify.faults;
    popts.escalate_unknown = options_.verify.escalate_unknown;
    popts.escalation_timeout_mult = options_.verify.escalation_timeout_mult;
    if (deadline_at) {
      popts.deadline = std::max(
          std::chrono::milliseconds(1),
          std::chrono::duration_cast<std::chrono::milliseconds>(
              *deadline_at - std::chrono::steady_clock::now()));
    }
    ProcessPool pool(options_.verify.solver, options_.verify.warm_solving,
                     popts);
    ProcessDispatch dispatch =
        pool.run(wire_jobs, std::move(process_groups));
    out.pool.workers = dispatch.workers;
    out.pool.workers_spawned = dispatch.workers_spawned;
    out.pool.workers_crashed = dispatch.workers_crashed;
    out.pool.jobs_requeued = dispatch.jobs_requeued;
    out.pool.jobs_abandoned = dispatch.jobs_abandoned;
    out.degradation.quarantined = dispatch.jobs_quarantined;
    out.degradation.deadline_abandoned = dispatch.jobs_deadline_abandoned;
    out.degradation.abandoned_retries = dispatch.jobs_abandoned -
                                        dispatch.jobs_quarantined -
                                        dispatch.jobs_deadline_abandoned;
    out.degradation.workers_respawned = dispatch.workers_respawned;
    out.degradation.deadline_expired = dispatch.deadline_expired;
    out.degradation.reasons = std::move(dispatch.reasons);
    for (std::size_t k = 0; k < to_solve.size(); ++k) {
      if (dispatch.results[k].has_value()) {
        const wire::WireResult& r = *dispatch.results[k];
        try {
          job_results[to_solve[k]] =
              wire::to_verify_result(model_->network(), r);
        } catch (const wire::WireError&) {
          // A digest-valid result naming nodes this model lacks (byzantine
          // or version-skewed worker binary): abandon the one job to an
          // unknown verdict instead of aborting a batch full of good ones.
          job_results[to_solve[k]] = VerifyResult{};
          ++out.pool.jobs_abandoned;
          ++out.degradation.abandoned_retries;
          out.degradation.reasons.push_back(
              "job " + std::to_string(to_solve[k]) +
              " abandoned: result names nodes unknown to this model");
          continue;
        }
        out.warm_binds += r.warm_binds;
        out.warm_reuses += r.warm_reuses;
        out.iso_reuses += r.iso_reuses;
        out.encode_transfer_builds += r.encode_transfer_builds;
        out.encode_transfer_reuses += r.encode_transfer_reuses;
        out.degradation.escalations += r.escalations;
        out.degradation.escalations_rescued += r.escalations_rescued;
        solved.insert(to_solve[k]);
      }
      // Abandoned jobs keep the default-constructed unknown VerifyResult;
      // they are counted above, never dropped.
    }
  } else {
    const std::size_t workers = std::max<std::size_t>(
        1, std::min(requested, std::max<std::size_t>(groups.size(), 1)));
    // A one-worker pool runs inline on this thread, so its session may
    // borrow the planning context's transfer memo: encoding then re-walks
    // nothing class inference or the planner already walked.
    SolverPool pool(workers, options_.verify.solver,
                    options_.verify.warm_solving,
                    requested == 1 ? &ctx_->transfers : nullptr);
    pool.set_resilience(session_resilience(options_.verify));
    // Deadline bookkeeping: each slot of `skipped` is written by exactly
    // one worker (per-job ownership), so no lock; the counter is atomic
    // because any worker may be the one to notice expiry.
    std::vector<char> skipped(to_solve.size(), 0);
    std::atomic<std::size_t> deadline_skipped{0};
    pool.run(groups.size(), [&](std::size_t gi, SolverSession& session) {
      // Warm reuse is scoped to this task: a session that just solved a
      // same-shape task must not leak its context (and learned state) into
      // this one, or results would depend on the task-to-worker race. The
      // transfer memo survives (same model across every task of a batch).
      session.reset_warm(/*keep_transfers=*/true);
      for (std::size_t k = groups[gi].first; k < groups[gi].second; ++k) {
        if (deadline_at &&
            std::chrono::steady_clock::now() >= *deadline_at) {
          // Past the deadline: leave the default unknown verdict and keep
          // draining so every job is accounted, not solved.
          skipped[k] = 1;
          deadline_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const Job& job = plan.jobs[to_solve[k]];
        job_results[to_solve[k]] = verify_members(
            *model_, job.solve_invariant, job.encode_members(),
            options_.verify.max_failures, session, !job.iso_image.empty());
      }
    });
    out.pool.workers = pool.stats();
    for (std::size_t w = 0; w < pool.size(); ++w) {
      out.warm_binds += pool.session(w).binds();
      out.warm_reuses += pool.session(w).warm_reuses();
      out.iso_reuses += pool.session(w).iso_reuses();
      out.encode_transfer_builds += pool.session(w).encode_transfer_builds();
      out.encode_transfer_reuses += pool.session(w).encode_transfer_reuses();
      out.degradation.escalations += pool.session(w).escalations();
      out.degradation.escalations_rescued +=
          pool.session(w).escalations_rescued();
    }
    for (std::size_t k = 0; k < to_solve.size(); ++k) {
      if (skipped[k] == 0) solved.insert(to_solve[k]);
    }
    if (const std::size_t n = deadline_skipped.load()) {
      out.pool.jobs_abandoned += n;
      out.degradation.deadline_abandoned += n;
      out.degradation.deadline_expired = true;
      out.degradation.reasons.push_back("deadline expired with " +
                                        std::to_string(n) +
                                        " jobs not yet attempted");
    }
  }
  // Aggregate: each job's encode-space verdict fans out through its
  // bindings' inverse bijections (verify::bind_result) - replays beyond
  // the first non-cached binding count as iso_verdict_reuses -
  // representatives keep their full (relabeled) result and inheritors
  // copy the outcome with by_symmetry set. Cache hits and abandoned jobs
  // count no solver call.
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const Job& job = plan.jobs[j];
    const bool was_solved = solved.count(j) != 0;
    if (was_solved) {
      out.pool.solve_histogram.record(job_results[j].solve_time);
      ++out.solver_calls;
    }
    const std::size_t fan = job.fan_out();
    bool replayed = false;
    for (std::size_t k = 0; k < fan; ++k) {
      const BindingRef b = job.binding(k);
      VerifyResult rep;
      if (from_cache_hit[j][k] != 0) {
        rep = std::move(bound[j][k]);
      } else {
        rep = bind_result(*model_, job_results[j], *b.members, *b.iso_image);
        if (was_solved) {
          if (replayed) ++out.iso_verdict_reuses;
          replayed = true;
        }
        // Keyless bindings (no-symmetry planning, or a problem that
        // resists canonicalization) are outside the cache's reach; they
        // are not misses. Abandoned jobs count misses but store nothing
        // (unknown outcomes are never persisted).
        if (cache_.enabled() && !b.problem_key->key.empty()) {
          ++out.cache_misses;
          ResultCache::Entry entry;
          entry.status = job_results[j].raw_status;
          entry.slice_size = job_results[j].slice_size;
          entry.assertion_count = job_results[j].assertion_count;
          entry.binding = binding_signature(*model_, b.problem_key->order);
          cache_.store(b.problem_key->key, entry);
        }
      }
      rep.total_time += b.plan_time;
      for (std::size_t inh : *b.inheritors) {
        out.results[inh] = inherit_result(rep);
      }
      out.results[b.invariant_index] = std::move(rep);
    }
  }
  // A batch planned without symmetry has no problem keys: it never read
  // the cache, so it has nothing to store and no liveness to prove.
  if (cache_.enabled() && use_symmetry) {
    cache_.flush();
    out.degradation.cache_records_dropped = cache_.records_dropped();
  }
  // The fault injector is a local; the cache outlives this call and must
  // not keep the dangling pointer.
  cache_.set_fault_injector(nullptr);
  const std::size_t abandoned_total = out.degradation.abandoned_retries +
                                      out.degradation.quarantined +
                                      out.degradation.deadline_abandoned;
  out.degradation.completed = out.pool.jobs_executed > abandoned_total
                                  ? out.pool.jobs_executed - abandoned_total
                                  : 0;
  out.total_time = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  return out;
}

VerifyResult Engine::run_one(const encode::Invariant& invariant) {
  return std::move(run_batch({invariant}, /*use_symmetry=*/false).results[0]);
}

void Engine::rebind(const encode::NetworkModel& model) {
  model_ = &model;
  // The cache survives the edit: same file (or memory), new stamping
  // generation. Unchanged problems keep their canonical keys and hit;
  // records the edit orphaned are retired at the flush after the next
  // batch proves them dead (see ResultCache).
  if (cache_.enabled()) {
    cache_.set_model_fingerprint(model_fingerprint(model));
  }
  classes_.reset();
  ctx_.reset();
}

BatchResult run_batch(const encode::NetworkModel& model,
                      const std::vector<encode::Invariant>& invariants,
                      const EngineOptions& options) {
  Engine engine(model, options);
  return engine.run_batch(invariants);
}

}  // namespace vmn::verify
