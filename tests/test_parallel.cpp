// Engine tests: one-worker and multi-worker runs agree (verdicts, plans,
// deadline accounting), determinism under a fixed solver seed regardless
// of worker count, counterexample
// validity under concurrency, job planning, the SolverPool contract, and
// the process backend - verdict agreement with the thread backend on every
// scenario generator, crash-requeue on a killed worker, and the bounded
// no-survivors path ending in unknown verdicts rather than silent drops.
#include <gtest/gtest.h>

#include <cstdlib>
#include <atomic>
#include <set>
#include <string_view>

#include "mbox/firewall.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/segmented.hpp"
#include "sim/replay.hpp"
#include "util.hpp"
#include "verify/counters.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {
namespace {

using encode::Invariant;
using mbox::AclAction;
using mbox::AclEntry;
using scenarios::Batch;
using test::OneBoxNet;

EngineOptions with_jobs(std::size_t jobs) {
  EngineOptions opts;
  opts.batch = true;
  opts.jobs = jobs;
  opts.verify.solver.seed = 7;
  return opts;
}

/// The default (non --batch) configuration: one worker on the caller's
/// thread.
EngineOptions one_worker() {
  EngineOptions opts;
  opts.verify.solver.seed = 7;
  return opts;
}

void expect_agreement(const encode::NetworkModel& model, const Batch& batch) {
  BatchResult expected =
      Engine(model, one_worker()).run_batch(batch.invariants);
  BatchResult got = Engine(model, with_jobs(2)).run_batch(batch.invariants);
  ASSERT_EQ(got.results.size(), expected.results.size());
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(got.results[i].outcome, expected.results[i].outcome)
        << batch.name << " invariant " << i;
    if (i < batch.expected_holds.size()) {
      const Outcome scenario_expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      EXPECT_EQ(got.results[i].outcome, scenario_expected)
          << batch.name << " invariant " << i;
    }
  }
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnOneBoxNet) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw",
      std::vector<AclEntry>{AclEntry{Prefix::host(OneBoxNet::addr_a()),
                                     Prefix::host(OneBoxNet::addr_b()),
                                     AclAction::allow}},
      AclAction::deny));
  Batch batch;
  batch.name = "oneboxnet";
  batch.invariants = {Invariant::node_isolation(n.a, n.b),
                      Invariant::flow_isolation(n.a, n.b),
                      Invariant::reachable(n.b, n.a)};
  expect_agreement(n.model, batch);
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  expect_agreement(e.model, e.batch());
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  expect_agreement(dc.model, dc.batch());
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnMisconfiguredDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
  expect_agreement(dc.model, dc.batch());
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_agreement(isp.model, isp.batch());
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnMisconfiguredIsp) {
  // Regression: peer hosts share a policy class, so the coarse class
  // signature of the attacked subnet's isolation invariant matches the
  // clean peering point's - but the attack-scenario reroute makes their
  // slices differ, and the violated invariant must NOT inherit "holds"
  // from the clean representative. Every worker count groups by the
  // canonical slice key, which keeps the two checks separate.
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_agreement(isp.model, isp.batch());
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_agreement(mt.model, mt.batch());
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnSegmented) {
  scenarios::Segmented s = scenarios::make_segmented({});
  expect_agreement(s.model, s.batch());
}

TEST(Parallel, OneWorkerMatchesTwoWorkersOnBypassedSegmented) {
  // The representative-sender workload: only a segment-1 sender witnesses
  // the bypassed IDPS, and expected_holds encodes the whole-network truth.
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_agreement(s.model, s.batch());
}

TEST(Parallel, DeterministicAcrossFourWorkerRuns) {
  scenarios::EnterpriseParams p;
  p.subnets = 5;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);

  Engine v(e.model, with_jobs(4));
  BatchResult first = v.run_batch(e.invariants);
  BatchResult second = v.run_batch(e.invariants);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].outcome, second.results[i].outcome) << i;
    EXPECT_EQ(first.results[i].raw_status, second.results[i].raw_status) << i;
    EXPECT_EQ(first.results[i].slice_size, second.results[i].slice_size) << i;
    EXPECT_EQ(first.results[i].assertion_count,
              second.results[i].assertion_count)
        << i;
    EXPECT_EQ(first.results[i].by_symmetry, second.results[i].by_symmetry)
        << i;
  }
  EXPECT_EQ(first.pool.jobs_executed, second.pool.jobs_executed);
  EXPECT_EQ(first.pool.symmetry_hits, second.pool.symmetry_hits);
}

TEST(Parallel, ViolatedSlicesYieldCounterexamplesConcurrently) {
  // Break the enterprise firewall wide open: the private and quarantined
  // subnets' isolation invariants all become violated, and each violated
  // job must still extract a coherent counterexample while other jobs run
  // on sibling workers.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);

  Engine v(e.model, with_jobs(4));
  BatchResult r = v.run_batch(e.invariants);
  std::size_t violated = 0;
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    const VerifyResult& res = r.results[i];
    if (res.outcome != Outcome::violated || res.by_symmetry) continue;
    ++violated;
    ASSERT_TRUE(res.counterexample.has_value()) << "invariant " << i;
    // The trace must deliver a packet to the invariant's target host.
    bool target_received = false;
    for (const Event& ev : res.counterexample->events()) {
      if (ev.kind == EventKind::receive && ev.to == e.invariants[i].target) {
        target_received = true;
      }
    }
    EXPECT_TRUE(target_received) << "invariant " << i;
  }
  EXPECT_GT(violated, 0u);
}

TEST(Parallel, PlanPartitionsTheBatch) {
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 2;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  Engine v(e.model, with_jobs(2));
  JobPlan plan = v.plan(e.invariants);

  // Every invariant is answered exactly once: either as a representative or
  // as an inheritor.
  std::set<std::size_t> covered;
  for (const Job& job : plan.jobs) {
    EXPECT_TRUE(covered.insert(job.invariant_index).second);
    for (std::size_t k : job.inheritors) {
      EXPECT_TRUE(covered.insert(k).second);
    }
    EXPECT_FALSE(job.members.empty());
    EXPECT_FALSE(job.canonical_key.empty());
  }
  EXPECT_EQ(covered.size(), e.invariants.size());
  // Six subnets cycle through three policy kinds -> two subnets per kind
  // collapse into one job each.
  EXPECT_EQ(plan.jobs.size(), 3u);
  EXPECT_EQ(plan.symmetry_hits, 3u);
  EXPECT_DOUBLE_EQ(plan.dedup_hit_rate(), 0.5);

  // Without symmetry, one job per invariant.
  EngineOptions no_sym = with_jobs(2);
  no_sym.use_symmetry = false;
  JobPlan flat = Engine(e.model, no_sym).plan(e.invariants);
  EXPECT_EQ(flat.jobs.size(), e.invariants.size());
  EXPECT_EQ(flat.symmetry_hits, 0u);
}

// --- one worker vs a pool: the same plan, the same deadline ---------------

// plan() is exactly what run_batch executes, at any worker count: after the
// same call history a one-worker and a two-worker engine hold the same
// planning state, so they hand back identical plans - job order, encode
// members, iso images, verdict bindings and cumulative transfer counters.
TEST(CounterTable, NamesEverySessionCounterOnceWithItsValue) {
  BatchResult r;
  std::size_t value = 1;
  for (const SessionField& f : kSessionFields) r.*f.field = value++;
  std::set<std::string_view> names;
  for (const CounterRow& row : counter_table()) {
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate " << row.name;
  }
  for (const SessionField& f : kSessionFields) {
    EXPECT_EQ(names.count(f.name), 1u) << f.name;
    EXPECT_EQ(counter_value(r, f.name), r.*f.field) << f.name;
  }
  EXPECT_THROW((void)counter_value(r, "no_such_counter"), Error);

  // += and - are field-wise inverses.
  SessionCounters sum = r;
  sum += r;
  const SessionCounters back = sum - r;
  for (const SessionField& f : kSessionFields) {
    EXPECT_EQ(sum.*f.field, 2 * (r.*f.field)) << f.name;
    EXPECT_EQ(back.*f.field, r.*f.field) << f.name;
  }
}

TEST(OneWorker, PlansWhatAPoolPlansAfterTheSameCallHistory) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();

  Engine one(dc.model, one_worker());
  Engine two(dc.model, with_jobs(2));
  (void)one.run_batch(batch.invariants);
  (void)two.run_batch(batch.invariants);
  const JobPlan a = one.plan(batch.invariants);
  const JobPlan b = two.plan(batch.invariants);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const Job& ja = a.jobs[j];
    const Job& jb = b.jobs[j];
    EXPECT_EQ(ja.id, jb.id) << j;
    EXPECT_EQ(ja.invariant_index, jb.invariant_index) << j;
    EXPECT_EQ(ja.encode_members(), jb.encode_members()) << j;
    ASSERT_EQ(ja.fan_out(), jb.fan_out()) << j;
    for (std::size_t k = 0; k < ja.fan_out(); ++k) {
      EXPECT_EQ(ja.binding(k).invariant_index, jb.binding(k).invariant_index)
          << j << "/" << k;
      EXPECT_EQ(*ja.binding(k).iso_image, *jb.binding(k).iso_image)
          << j << "/" << k;
      EXPECT_EQ(*ja.binding(k).inheritors, *jb.binding(k).inheritors)
          << j << "/" << k;
    }
  }
  EXPECT_EQ(a.iso_mapped, b.iso_mapped);
  EXPECT_EQ(a.iso_verdict_merged, b.iso_verdict_merged);
  EXPECT_EQ(a.transfer_builds, b.transfer_builds);
  EXPECT_EQ(a.transfer_reuses, b.transfer_reuses);
  // The second pass reuses the first batch's memo: nothing is rebuilt.
  const JobPlan again = one.plan(batch.invariants);
  EXPECT_EQ(again.transfer_builds, a.transfer_builds);
  EXPECT_GT(again.transfer_reuses, a.transfer_reuses);
}

// The deadline binds one worker exactly as it binds a pool: a 1 ms budget
// expires during planning, every planned job is accounted as abandoned to
// an unknown verdict, and no invariant is dropped.
TEST(OneWorker, HonoursTheDeadline) {
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  EngineOptions opts = one_worker();
  opts.deadline = std::chrono::milliseconds(1);
  BatchResult r = Engine(e.model, opts).run_batch(e.invariants);

  EXPECT_TRUE(r.degradation.deadline_expired);
  EXPECT_TRUE(r.degradation.degraded());
  EXPECT_GE(r.degradation.deadline_abandoned, 1u);
  EXPECT_EQ(r.pool.jobs_abandoned, r.degradation.deadline_abandoned);
  EXPECT_EQ(r.degradation.completed + r.degradation.deadline_abandoned,
            r.pool.jobs_executed);
  ASSERT_EQ(r.results.size(), e.invariants.size());
  std::size_t unknowns = 0;
  for (const VerifyResult& res : r.results) {
    if (res.outcome == Outcome::unknown) ++unknowns;
  }
  EXPECT_GE(unknowns, r.degradation.deadline_abandoned);
}

// --- warm solving ----------------------------------------------------------

// Warm runs (base axioms asserted once per slice shape, invariant negation
// pushed/popped on a live context) must be verdict-identical to cold runs
// (fresh encoding + context per job) on every scenario generator, across
// mixed holds/violated batches.
void expect_warm_matches_cold(const encode::NetworkModel& model,
                              const Batch& batch) {
  EngineOptions warm = with_jobs(2);
  ASSERT_TRUE(warm.verify.warm_solving);  // the default
  EngineOptions cold = with_jobs(2);
  cold.verify.warm_solving = false;

  BatchResult warm_r =
      Engine(model, warm).run_batch(batch.invariants);
  BatchResult cold_r =
      Engine(model, cold).run_batch(batch.invariants);
  ASSERT_EQ(warm_r.results.size(), cold_r.results.size());
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, cold_r.results[i].outcome)
        << batch.name << " invariant " << i;
    EXPECT_EQ(warm_r.results[i].raw_status, cold_r.results[i].raw_status)
        << batch.name << " invariant " << i;
    EXPECT_EQ(warm_r.results[i].assertion_count,
              cold_r.results[i].assertion_count)
        << batch.name << " invariant " << i;
    if (i < batch.expected_holds.size()) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      EXPECT_EQ(warm_r.results[i].outcome, expected)
          << batch.name << " invariant " << i;
    }
  }
  // Cold runs never reuse a context.
  EXPECT_EQ(cold_r.warm_reuses, 0u);
}

TEST(WarmSolving, MatchesColdOnEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  expect_warm_matches_cold(e.model, e.batch());
}

TEST(WarmSolving, MatchesColdOnMisconfiguredEnterprise) {
  // Mixed sat/unsat batch: the opened firewall flips the private and
  // quarantined subnets to violated while the public ones keep holding.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);
  Batch batch;
  batch.name = "enterprise-open-fw";
  batch.invariants = e.invariants;  // expectations recomputed by the solver
  expect_warm_matches_cold(e.model, batch);
}

TEST(WarmSolving, MatchesColdOnDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  expect_warm_matches_cold(dc.model, dc.batch());
}

TEST(WarmSolving, MatchesColdOnMisconfiguredDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
  expect_warm_matches_cold(dc.model, dc.batch());
}

TEST(WarmSolving, MatchesColdOnIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_warm_matches_cold(isp.model, isp.batch());
}

TEST(WarmSolving, MatchesColdOnMisconfiguredIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_warm_matches_cold(isp.model, isp.batch());
}

TEST(WarmSolving, MatchesColdOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_warm_matches_cold(mt.model, mt.batch());
}

TEST(WarmSolving, MatchesColdOnBypassedSegmented) {
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_warm_matches_cold(s.model, s.batch());
}

TEST(WarmSolving, MatchesColdWhenOutcomesGoUnknown) {
  // Whole-network checks under a 1 ms budget: both paths should report
  // unknown (skip if this machine somehow solves them in time). All jobs
  // share the full-network shape, so this also exercises warm reuse across
  // a run of unknowns. Planned without symmetry: verdict merging would
  // otherwise fold the batch into one solver job, leaving nothing to reuse.
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();

  EngineOptions warm = with_jobs(1);
  warm.verify.use_slices = false;
  warm.verify.solver.timeout_ms = 1;
  EngineOptions cold = warm;
  cold.verify.warm_solving = false;

  BatchResult warm_r = Engine(dc.model, warm)
                           .run_batch(batch.invariants, /*use_symmetry=*/false);
  BatchResult cold_r = Engine(dc.model, cold)
                           .run_batch(batch.invariants, /*use_symmetry=*/false);
  ASSERT_GE(warm_r.solver_calls, 2u);  // unmerged same-shape jobs
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    if (warm_r.results[i].outcome != Outcome::unknown ||
        cold_r.results[i].outcome != Outcome::unknown) {
      GTEST_SKIP() << "solver finished within 1 ms; agreement on decisive "
                      "outcomes is covered by the other WarmSolving tests";
    }
  }
  EXPECT_GT(warm_r.warm_reuses, 0u);  // one full-network shape, many jobs
  EXPECT_EQ(cold_r.warm_reuses, 0u);
}

TEST(WarmSolving, OneWorkerBatchReusesOneSessionAcrossSameShapeJobs) {
  // Three invariants over the same three-node slice: a one-worker run
  // must build the base encoding once and answer the remaining jobs on the
  // reused context (seed behavior: a fresh session per representative).
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw",
      std::vector<AclEntry>{AclEntry{Prefix::host(OneBoxNet::addr_a()),
                                     Prefix::host(OneBoxNet::addr_b()),
                                     AclAction::allow}},
      AclAction::deny));
  std::vector<Invariant> invariants = {Invariant::node_isolation(n.a, n.b),
                                       Invariant::flow_isolation(n.a, n.b),
                                       Invariant::reachable(n.b, n.a)};
  Engine v(n.model, one_worker());
  BatchResult batch = v.run_batch(invariants, /*use_symmetry=*/true);
  EXPECT_EQ(batch.warm_binds, 1u);
  EXPECT_EQ(batch.warm_reuses, 2u);

  // --batch --jobs 1 is the same one-worker schedule; with more workers
  // than shape-runs the run is split to restore fan-out (warm reuse traded
  // for concurrency), so every job gets its own context.
  BatchResult pr =
      Engine(n.model, with_jobs(1)).run_batch(invariants);
  EXPECT_EQ(pr.warm_binds, 1u);
  EXPECT_EQ(pr.warm_reuses, 2u);
  BatchResult split =
      Engine(n.model, with_jobs(4)).run_batch(invariants);
  EXPECT_EQ(split.warm_binds, 3u);
  EXPECT_EQ(split.warm_reuses, 0u);
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    EXPECT_EQ(pr.results[i].outcome, batch.results[i].outcome) << i;
    EXPECT_EQ(split.results[i].outcome, batch.results[i].outcome) << i;
  }
}

TEST(Planner, SharesTransferFunctionsAcrossTheWholePlan) {
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 2;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  Engine v(e.model, with_jobs(2));
  JobPlan plan = v.plan(e.invariants);
  // One TransferFunction per in-budget scenario for the whole pass; every
  // further request - across compute_slice, canonical keys and all six
  // invariants - comes from the memo. Seed behavior rebuilt one per
  // (invariant, scenario) use site.
  EXPECT_GT(plan.transfer_reuses, 0u);
  EXPECT_LE(plan.transfer_builds,
            e.model.network().scenarios().size());
  EXPECT_GT(plan.transfer_reuses, plan.transfer_builds);
}

TEST(Planner, OrdersSameShapeJobsAdjacently) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  EngineOptions no_sym = with_jobs(2);
  no_sym.use_symmetry = false;  // keep every invariant: more shape repeats
  JobPlan plan = Engine(dc.model, no_sym).plan(dc.batch().invariants);
  // Equal member sets must form contiguous runs (what the engines turn
  // into warm reuse), and ids must stay positional after the reorder.
  std::set<std::vector<NodeId>> seen_shapes;
  const std::vector<NodeId>* prev = nullptr;
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    EXPECT_EQ(plan.jobs[j].id, j);
    const std::vector<NodeId>& members = plan.jobs[j].members;
    if (prev == nullptr || *prev != members) {
      EXPECT_TRUE(seen_shapes.insert(members).second)
          << "shape of job " << j << " reappeared after a different shape";
    }
    prev = &members;
  }
}

// --- cross-isomorphic warm solving ------------------------------------------

// The datacenter's per-group isolation jobs: every group pair's slice is a
// renamed copy of the first, but canonical slice keys keep the verdicts
// separate. Verdict-level merging must fold them onto one representative's
// solver call (iso_mapped / iso_verdict_reuses > 0, strictly fewer solver
// calls) without changing a single verdict, and the --no-warm baseline must
// stay the historical encode-everything path.
TEST(IsoWarm, DatacenterBatchRebindsIsomorphicSlices) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();

  EngineOptions warm = with_jobs(2);
  EngineOptions cold = with_jobs(2);
  cold.verify.warm_solving = false;
  BatchResult warm_r =
      Engine(dc.model, warm).run_batch(batch.invariants);
  BatchResult cold_r =
      Engine(dc.model, cold).run_batch(batch.invariants);

  EXPECT_GT(warm_r.iso_mapped, 0u);
  EXPECT_GT(warm_r.iso_verdict_reuses, 0u);
  EXPECT_EQ(cold_r.iso_mapped, 0u);
  EXPECT_EQ(cold_r.iso_reuses, 0u);
  EXPECT_EQ(cold_r.iso_verdict_reuses, 0u);
  // Merging folds solver calls, never planned jobs: every invariant-job is
  // still accounted for on both sides, warm just answers them with fewer
  // solves.
  EXPECT_EQ(warm_r.pool.jobs_executed, cold_r.pool.jobs_executed);
  EXPECT_LT(warm_r.solver_calls, cold_r.solver_calls);
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, cold_r.results[i].outcome) << i;
    EXPECT_EQ(warm_r.results[i].raw_status, cold_r.results[i].raw_status) << i;
    EXPECT_EQ(warm_r.results[i].assertion_count,
              cold_r.results[i].assertion_count)
        << i;
    const Outcome expected =
        batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
    EXPECT_EQ(warm_r.results[i].outcome, expected) << i;
  }
}

// The acceptance bar for verdict-level merging: the fig-4 style isolation
// batch (one invariant per policy group, all the same direction) is ONE
// equivalence class - 8 planned invariant jobs, exactly 1 solver call, the
// other 7 replayed as verdict bindings. --no-warm keeps solving all 8.
TEST(IsoWarm, EightGroupIsolationBatchSolvesOnce) {
  scenarios::DatacenterParams p;
  p.policy_groups = 8;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const std::vector<Invariant> isolation = dc.isolation_invariants();
  ASSERT_GE(isolation.size(), 8u);

  Engine warm(dc.model, with_jobs(2));
  JobPlan plan = warm.plan(isolation);
  EXPECT_GE(plan.planned_jobs(), 8u);
  EXPECT_EQ(plan.jobs.size(), 1u);
  BatchResult warm_r = warm.run_batch(isolation);
  EXPECT_GE(warm_r.pool.jobs_executed, 8u);
  EXPECT_EQ(warm_r.solver_calls, 1u);
  EXPECT_EQ(warm_r.iso_verdict_reuses, warm_r.pool.jobs_executed - 1);

  EngineOptions cold_opts = with_jobs(2);
  cold_opts.verify.warm_solving = false;
  BatchResult cold_r = Engine(dc.model, cold_opts).run_batch(isolation);
  EXPECT_EQ(cold_r.solver_calls, cold_r.pool.jobs_executed);
  EXPECT_EQ(cold_r.iso_verdict_reuses, 0u);
  ASSERT_EQ(warm_r.results.size(), cold_r.results.size());
  for (std::size_t i = 0; i < warm_r.results.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, Outcome::holds) << i;
    EXPECT_EQ(warm_r.results[i].outcome, cold_r.results[i].outcome) << i;
    EXPECT_EQ(warm_r.results[i].raw_status, cold_r.results[i].raw_status) << i;
  }

  // A one-worker run executes the same plan, so the same batch collapses
  // to one solve there too.
  BatchResult seq_r = Engine(dc.model, one_worker())
                          .run_batch(isolation, /*use_symmetry=*/true);
  EXPECT_EQ(seq_r.solver_calls, 1u);
  EXPECT_GE(seq_r.pool.jobs_executed, 8u);
  for (std::size_t i = 0; i < seq_r.results.size(); ++i) {
    EXPECT_EQ(seq_r.results[i].outcome, warm_r.results[i].outcome) << i;
  }
}

TEST(IsoWarm, OneWorkerEncodesWithZeroTransferBuilds) {
  // A one-worker engine lends its PlanContext transfer memo to the solver
  // session: by encode time the planner has walked every in-budget
  // scenario, so the encoder builds NOTHING - the acceptance bar for
  // "zero duplicate TransferFunction builds during encoding". The
  // datacenter's per-group jobs merge into shared solver calls, so their
  // replayed bindings surface as verdict-level reuses.
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();
  // The worker count decides, not the --batch flag: --jobs 1 lends too.
  for (const EngineOptions& opts : {one_worker(), with_jobs(1)}) {
    SCOPED_TRACE(opts.batch ? "--batch --jobs 1" : "default");
    Engine v(dc.model, opts);
    BatchResult r = v.run_batch(batch.invariants, /*use_symmetry=*/true);
    EXPECT_EQ(r.encode_transfer_builds, 0u);
    EXPECT_GT(r.encode_transfer_reuses, 0u);
    EXPECT_GT(r.iso_verdict_reuses, 0u);
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      EXPECT_EQ(r.results[i].outcome, expected) << i;
    }
  }
}

TEST(IsoWarm, ThreadWorkersNeverBuildATransferFunctionTwice) {
  // Worker sessions own a per-model transfer memo that survives task
  // boundaries: across however many base encodings a session builds, each
  // in-budget scenario's fabric walks happen at most once per session.
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();
  EngineOptions opts = with_jobs(2);
  BatchResult r =
      Engine(dc.model, opts).run_batch(batch.invariants);
  const std::size_t scenarios = dc.model.network().scenarios().size();
  EXPECT_LE(r.encode_transfer_builds, 2 * scenarios);  // <= workers x scenarios
}

// A violated invariant answered through an isomorphic representative's
// solver call must surface a witness naming the ACTUAL slice's hosts - the
// engine relabels nodes and packet addresses back through the inverse
// bijection per binding (verify::bind_result). This is the
// soundness-critical half of verdict-level reuse.
TEST(IsoWarm, RelabeledWitnessNamesTheActualSlicesHosts) {
  // Two rule-deletion breakages in distinct group pairs: two violated
  // isolation bindings with isomorphic slices and different canonical keys -
  // the planner merges them into one solver call (or rebinds the second
  // onto the first's encoding) and the second's witness is a relabel.
  scenarios::Datacenter dc;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    scenarios::DatacenterParams p;
    p.policy_groups = 4;
    p.clients_per_group = 1;
    dc = scenarios::make_datacenter(p);
    Rng rng(seed);
    inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 2);
    std::set<std::pair<int, int>> distinct(dc.broken_isolation_pairs.begin(),
                                           dc.broken_isolation_pairs.end());
    found = distinct.size() >= 2;
  }
  ASSERT_TRUE(found) << "no seed produced two distinct broken pairs";
  const Batch batch = dc.batch();

  Engine v(dc.model, with_jobs(1));
  JobPlan plan = v.plan(batch.invariants);
  BatchResult r = v.run_batch(batch.invariants);

  const net::Network& net = dc.model.network();
  std::size_t violated_bindings = 0;
  std::size_t violated_via_iso = 0;
  for (const Job& job : plan.jobs) {
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const BindingRef b = job.binding(k);
      const std::size_t i = b.invariant_index;
      if (r.results[i].outcome != Outcome::violated) continue;
      ++violated_bindings;
      // Replayed bindings (k > 0) and iso-rebound representatives both go
      // through the inverse bijection before the witness surfaces.
      if (k > 0 || !b.iso_image->empty()) ++violated_via_iso;
      ASSERT_TRUE(r.results[i].counterexample.has_value()) << "invariant " << i;
      const Invariant& inv = batch.invariants[i];
      bool target_received = false;
      for (const Event& ev : r.results[i].counterexample->events()) {
        // Every node the relabeled trace names must belong to the binding's
        // OWN slice (or Omega) - never to the representative's.
        if (ev.from.valid()) {
          EXPECT_TRUE(std::binary_search(b.members->begin(), b.members->end(),
                                         ev.from))
              << "trace names " << net.name(ev.from)
              << ", outside the slice of invariant " << i;
        }
        if (ev.to.valid()) {
          EXPECT_TRUE(std::binary_search(b.members->begin(), b.members->end(),
                                         ev.to))
              << "trace names " << net.name(ev.to)
              << ", outside the slice of invariant " << i;
        }
        if (ev.kind == EventKind::receive && ev.to == inv.target &&
            ev.packet.src == net.node(inv.other).address) {
          target_received = true;
        }
      }
      // The delivery the invariant forbids, with the ACTUAL slice's sender
      // address on the packet (the representative's sender address would
      // betray an unrelabeled witness).
      EXPECT_TRUE(target_received)
          << "no forbidden delivery to " << net.name(inv.target)
          << " from " << net.name(inv.other) << " in the witness";
    }
  }
  EXPECT_GE(violated_bindings, 2u);
  // At least one of the violated bindings must have been answered through
  // another's solver call or base encoding - otherwise this test exercised
  // nothing.
  EXPECT_GE(violated_via_iso, 1u);
}

// --- verdict transfer property ----------------------------------------------

// The merge property, generator by generator: the default engine (verdict-
// level merging on) must match a --no-warm cold run - verdict and raw
// solver status exactly - and every transferred violated result must carry
// a witness that concretely violates its OWN invariant under the symbolic
// replay semantics (a structurally valid relabel, not the representative's
// trace leaking through).
BatchResult expect_transfer_matches_cold(const encode::NetworkModel& model,
                                         const Batch& batch) {
  EngineOptions merged = with_jobs(2);
  EngineOptions cold = with_jobs(2);
  EXPECT_TRUE(merged.verify.merge_isomorphic);  // the default
  cold.verify.warm_solving = false;

  BatchResult m = Engine(model, merged).run_batch(batch.invariants);
  BatchResult c = Engine(model, cold).run_batch(batch.invariants);
  EXPECT_EQ(c.iso_verdict_reuses, 0u);
  EXPECT_EQ(m.pool.jobs_executed, c.pool.jobs_executed);
  EXPECT_EQ(m.results.size(), c.results.size());
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(m.results[i].outcome, c.results[i].outcome)
        << batch.name << " invariant " << i;
    EXPECT_EQ(m.results[i].raw_status, c.results[i].raw_status)
        << batch.name << " invariant " << i;
    // Equal raw status implies equal witness *presence* (sat extracts a
    // trace, unsat cannot); validity is checked on the merged side.
    EXPECT_EQ(m.results[i].counterexample.has_value(),
              c.results[i].counterexample.has_value())
        << batch.name << " invariant " << i;
    if (m.results[i].counterexample.has_value()) {
      EXPECT_FALSE(m.results[i].counterexample->empty()) << i;
      EXPECT_TRUE(sim::trace_violates(*m.results[i].counterexample, model,
                                      batch.invariants[i]))
          << batch.name << " invariant " << i
          << ": transferred witness does not violate its own invariant";
    }
  }
  return m;
}

TEST(IsoVerdictTransfer, MatchesColdOnOpenFirewallEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 5;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);
  Batch batch;
  batch.name = "enterprise-open-fw";
  batch.invariants = e.invariants;
  expect_transfer_matches_cold(e.model, batch);
}

TEST(IsoVerdictTransfer, MatchesColdOnMisconfiguredDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 2);
  BatchResult m = expect_transfer_matches_cold(dc.model, dc.batch());
  // The datacenter is the generator whose batches actually merge; a zero
  // here would mean the property ran against an empty mechanism.
  EXPECT_GT(m.iso_verdict_reuses, 0u);
}

TEST(IsoVerdictTransfer, MatchesColdOnBypassedIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_transfer_matches_cold(isp.model, isp.batch());
}

TEST(IsoVerdictTransfer, MatchesColdOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_transfer_matches_cold(mt.model, mt.batch());
}

TEST(IsoVerdictTransfer, MatchesColdOnBypassedSegmented) {
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_transfer_matches_cold(s.model, s.batch());
}

// --- process backend --------------------------------------------------------

EngineOptions process_opts(std::size_t jobs) {
  EngineOptions opts = with_jobs(jobs);
  opts.backend = Backend::process;
  return opts;
}

void expect_process_matches_thread(const encode::NetworkModel& model,
                                   const Batch& batch) {
  BatchResult thread_r =
      Engine(model, with_jobs(2)).run_batch(batch.invariants);
  BatchResult process_r =
      Engine(model, process_opts(2)).run_batch(batch.invariants);
  EXPECT_GT(process_r.pool.workers_spawned, 0u);
  EXPECT_EQ(process_r.pool.workers_crashed, 0u);
  EXPECT_EQ(process_r.pool.jobs_abandoned, 0u);
  EXPECT_EQ(process_r.pool.jobs_executed, thread_r.pool.jobs_executed);
  ASSERT_EQ(process_r.results.size(), thread_r.results.size());
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(process_r.results[i].outcome, thread_r.results[i].outcome)
        << batch.name << " invariant " << i;
    EXPECT_EQ(process_r.results[i].raw_status, thread_r.results[i].raw_status)
        << batch.name << " invariant " << i;
    EXPECT_EQ(process_r.results[i].slice_size, thread_r.results[i].slice_size)
        << batch.name << " invariant " << i;
    EXPECT_EQ(process_r.results[i].assertion_count,
              thread_r.results[i].assertion_count)
        << batch.name << " invariant " << i;
    EXPECT_EQ(process_r.results[i].by_symmetry,
              thread_r.results[i].by_symmetry)
        << batch.name << " invariant " << i;
    if (i < batch.expected_holds.size()) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      EXPECT_EQ(process_r.results[i].outcome, expected)
          << batch.name << " invariant " << i;
    }
  }
}

TEST(ProcessBackend, AgreesWithThreadOnEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  expect_process_matches_thread(e.model, e.batch());
}

TEST(ProcessBackend, AgreesWithThreadOnDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  expect_process_matches_thread(dc.model, dc.batch());
}

TEST(ProcessBackend, AgreesWithThreadOnMisconfiguredDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
  expect_process_matches_thread(dc.model, dc.batch());
}

TEST(ProcessBackend, AgreesWithThreadOnIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_process_matches_thread(isp.model, isp.batch());
}

TEST(ProcessBackend, AgreesWithThreadOnMisconfiguredIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_process_matches_thread(isp.model, isp.batch());
}

TEST(ProcessBackend, AgreesWithThreadOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_process_matches_thread(mt.model, mt.batch());
}

TEST(ProcessBackend, AgreesWithThreadOnSegmented) {
  scenarios::Segmented s = scenarios::make_segmented({});
  expect_process_matches_thread(s.model, s.batch());
}

TEST(ProcessBackend, AgreesWithThreadOnBypassedSegmented) {
  // Disconnected segments stress the projected-spec path too: the shipped
  // slice must carry the reachability-selected representative sender, or
  // the worker would re-encode the unsound problem.
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_process_matches_thread(s.model, s.batch());
}

// Warm (cross-isomorphic rebinding included: the binding ships inside the
// job frames) must be verdict-identical to cold on the process backend too,
// for every scenario generator - the process half of the warm==cold
// property the thread backend's WarmSolving suite pins.
void expect_process_warm_matches_cold(const encode::NetworkModel& model,
                                      const Batch& batch) {
  EngineOptions warm = process_opts(2);
  ASSERT_TRUE(warm.verify.warm_solving);  // the default
  EngineOptions cold = process_opts(2);
  cold.verify.warm_solving = false;
  BatchResult warm_r =
      Engine(model, warm).run_batch(batch.invariants);
  BatchResult cold_r =
      Engine(model, cold).run_batch(batch.invariants);
  EXPECT_EQ(warm_r.pool.jobs_abandoned, 0u);
  EXPECT_EQ(cold_r.pool.jobs_abandoned, 0u);
  EXPECT_EQ(cold_r.warm_reuses, 0u);
  EXPECT_EQ(cold_r.iso_reuses, 0u);
  EXPECT_EQ(cold_r.iso_verdict_reuses, 0u);
  ASSERT_EQ(warm_r.results.size(), cold_r.results.size());
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, cold_r.results[i].outcome)
        << batch.name << " invariant " << i;
    EXPECT_EQ(warm_r.results[i].raw_status, cold_r.results[i].raw_status)
        << batch.name << " invariant " << i;
    EXPECT_EQ(warm_r.results[i].assertion_count,
              cold_r.results[i].assertion_count)
        << batch.name << " invariant " << i;
    if (i < batch.expected_holds.size()) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      EXPECT_EQ(warm_r.results[i].outcome, expected)
          << batch.name << " invariant " << i;
    }
  }
}

TEST(ProcessBackend, WarmMatchesColdOnEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  expect_process_warm_matches_cold(e.model, e.batch());
}

TEST(ProcessBackend, WarmMatchesColdOnDatacenter) {
  // The generator whose per-group jobs actually cross the iso path: the
  // warm run must fan merged verdicts out dispatcher-side, and still
  // agree with cold bit-for-bit on verdicts.
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();
  expect_process_warm_matches_cold(dc.model, batch);
  BatchResult warm_r =
      Engine(dc.model, process_opts(2)).run_batch(batch.invariants);
  EXPECT_GT(warm_r.iso_mapped, 0u);
  EXPECT_GT(warm_r.iso_verdict_reuses, 0u);
}

TEST(ProcessBackend, WarmMatchesColdOnIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_process_warm_matches_cold(isp.model, isp.batch());
}

TEST(ProcessBackend, WarmMatchesColdOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_process_warm_matches_cold(mt.model, mt.batch());
}

TEST(ProcessBackend, WarmMatchesColdOnBypassedSegmented) {
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_process_warm_matches_cold(s.model, s.batch());
}

TEST(ProcessBackend, ViolatedVerdictsShipTracesAcrossTheProcessBoundary) {
  // Same open-firewall workload as the thread-backend counterexample test:
  // violated representatives must come back with a coherent trace mapped
  // onto the dispatcher's node ids.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);

  BatchResult r =
      Engine(e.model, process_opts(2)).run_batch(e.invariants);
  std::size_t violated = 0;
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    const VerifyResult& res = r.results[i];
    if (res.outcome != Outcome::violated || res.by_symmetry) continue;
    ++violated;
    ASSERT_TRUE(res.counterexample.has_value()) << "invariant " << i;
    bool target_received = false;
    for (const Event& ev : res.counterexample->events()) {
      if (ev.kind == EventKind::receive && ev.to == e.invariants[i].target) {
        target_received = true;
      }
    }
    EXPECT_TRUE(target_received) << "invariant " << i;
  }
  EXPECT_GT(violated, 0u);
}

TEST(ProcessBackend, SurvivesAKilledWorkerMidBatch) {
  // Worker 0 SIGKILLs itself on its first job: the dispatcher must observe
  // the crash, requeue the in-flight job, respawn a replacement into the
  // slot (respawned workers take fresh ordinals, so the replacement is
  // immune to kill:0), and deliver every verdict - matching the thread
  // backend exactly.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  BatchResult reference =
      Engine(e.model, with_jobs(2)).run_batch(e.invariants);

  EngineOptions opts = process_opts(2);
  opts.verify.faults.kill_worker = 0;
  BatchResult r = Engine(e.model, opts).run_batch(e.invariants);
  EXPECT_EQ(r.pool.workers_spawned, 3u);  // initial fleet of 2 + 1 respawn
  EXPECT_EQ(r.pool.workers_crashed, 1u);
  EXPECT_EQ(r.degradation.workers_respawned, 1u);
  EXPECT_GE(r.pool.jobs_requeued, 1u);
  EXPECT_EQ(r.pool.jobs_abandoned, 0u);
  EXPECT_FALSE(r.degradation.degraded());
  ASSERT_EQ(r.results.size(), reference.results.size());
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    EXPECT_EQ(r.results[i].outcome, reference.results[i].outcome) << i;
    EXPECT_NE(r.results[i].outcome, Outcome::unknown) << i;
  }
}

TEST(ProcessBackend, BoundedRetriesEndInUnknownWhenEveryWorkerDies) {
  // Every worker dies on its first job: no survivors, so after the retry
  // budget the remaining jobs must surface as unknown verdicts with the
  // abandonment counted - never as silently missing results.
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);

  EngineOptions opts = process_opts(2);
  opts.verify.faults.kill_all = true;
  BatchResult r = Engine(e.model, opts).run_batch(e.invariants);
  EXPECT_EQ(r.pool.workers_crashed, r.pool.workers_spawned);
  EXPECT_EQ(r.pool.jobs_abandoned, r.pool.jobs_executed);
  EXPECT_EQ(r.solver_calls, 0u);
  ASSERT_EQ(r.results.size(), e.invariants.size());
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    EXPECT_EQ(r.results[i].outcome, Outcome::unknown) << i;
  }
}

TEST(SolverPoolTest, RunsEveryJobExactlyOnceAcrossWorkers) {
  SolverPool pool(3, SessionPolicy{});
  EXPECT_EQ(pool.size(), 3u);
  constexpr std::size_t kJobs = 17;
  std::vector<std::atomic<int>> hits(kJobs);
  pool.run(kJobs, [&](std::size_t job, SolverSession& session) {
    (void)session;
    hits[job].fetch_add(1);
  });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
  std::size_t total = 0;
  for (const WorkerStats& w : pool.stats()) total += w.jobs;
  EXPECT_EQ(total, kJobs);
}

TEST(SolverPoolTest, PropagatesJobExceptions) {
  SolverPool pool(2, SessionPolicy{});
  EXPECT_THROW(
      pool.run(5,
               [&](std::size_t job, SolverSession&) {
                 if (job == 3) throw std::runtime_error("boom");
               }),
      std::runtime_error);
}

}  // namespace
}  // namespace vmn::verify
