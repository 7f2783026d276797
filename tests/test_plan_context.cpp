// PlanContext memo tests: planning through one shared context (the
// engine's, warmed by class inference) must produce exactly what the same
// planner functions produce on their own, and a context must never outlive
// the model generation it describes.
//  - parity: Engine::plan equals a plan built without any shared context,
//    and every key in it - slice key, shape key and colours, problem key
//    with its order and tokens, iso images - equals a standalone call that
//    builds its own memos; the configuration memo renders exactly what the
//    box renders. Five generators at two sizes each plus fixed-seed random
//    specs.
//  - staleness: after Engine::rebind (and a serve RELOAD) to an edited
//    model, the plan equals a fresh engine's on that model, and the keys
//    the edit touched changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "io/spec.hpp"
#include "mbox/config_memo.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/random.hpp"
#include "scenarios/segmented.hpp"
#include "slice/symmetry.hpp"
#include "verify/engine.hpp"
#include "verify/serve.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {
namespace {

std::string ids(const std::vector<NodeId>& nodes) {
  std::string out;
  for (NodeId n : nodes) out += std::to_string(n.value()) + ",";
  return out;
}

std::string render_key(const slice::ProblemKey& k) {
  std::string out = k.key + " order=" + ids(k.order) + " tokens=";
  for (Address a : k.tokens) out += a.to_string() + ",";
  return out;
}

/// Every planned decision of `plan`, one line per job and binding, plus
/// the plan counters and merge blockers. Timings are left out, and so are
/// the transfer-memo counters unless `with_memo_counters` (a context warmed
/// by class inference reuses walks a fresh one must build).
std::string render_plan(const JobPlan& plan, bool with_memo_counters) {
  std::string out;
  for (const Job& job : plan.jobs) {
    out += "job " + std::to_string(job.id) + " key=" + job.canonical_key +
           " iso_members=" + ids(job.iso_members) + "\n";
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const BindingRef b = job.binding(k);
      out += "  binding " + std::to_string(b.invariant_index) +
             " members=" + ids(*b.members) + " image=" + ids(*b.iso_image) +
             " problem=" + render_key(*b.problem_key) + " inheritors=";
      for (std::size_t i : *b.inheritors) out += std::to_string(i) + ",";
      out += "\n";
    }
  }
  out += "invariants=" + std::to_string(plan.invariant_count) +
         " symmetry_hits=" + std::to_string(plan.symmetry_hits) +
         " splits=" + std::to_string(plan.conservative_splits) +
         " iso_mapped=" + std::to_string(plan.iso_mapped) +
         " iso_merged=" + std::to_string(plan.iso_verdict_merged) + "\n";
  if (with_memo_counters) {
    out += "transfers=" + std::to_string(plan.transfer_builds) + "/" +
           std::to_string(plan.transfer_reuses) + "\n";
  }
  for (const MergeBlocker& m : plan.merge_blockers) {
    out += "blocker " + m.box_type + " " + m.reason + " x" +
           std::to_string(m.count) + "\n";
  }
  return out;
}

/// The relevant address set of a member list (host addresses plus member
/// boxes' implicit addresses), as the keys derive it.
std::vector<Address> relevant_of(const encode::NetworkModel& model,
                                 const std::vector<NodeId>& members) {
  std::set<Address> addrs;
  for (NodeId m : members) {
    const net::Node& n = model.network().node(m);
    if (n.kind == net::NodeKind::host) {
      addrs.insert(n.address);
    } else if (const mbox::Middlebox* box = model.middlebox_at(m)) {
      for (Address a : box->implicit_addresses()) addrs.insert(a);
    }
  }
  return {addrs.begin(), addrs.end()};
}

void expect_parity(const encode::NetworkModel& model,
                   const std::vector<encode::Invariant>& invariants,
                   int max_failures, const std::string& label) {
  SCOPED_TRACE(label);
  VerifyOptions vopts;
  vopts.max_failures = max_failures;
  Engine engine(model, EngineOptions(vopts));
  const JobPlan plan = engine.plan(invariants);

  // No shared context anywhere: classes inferred on their own, the planner
  // on a private context.
  slice::PolicyClassOptions popts;
  popts.max_failures = max_failures;
  const slice::PolicyClasses classes = slice::infer_policy_classes(model, popts);
  EXPECT_EQ(render_plan(plan, false),
            render_plan(plan_jobs(model, invariants, classes, true, vopts),
                        false));

  // The engine's context, rebuilt in the open so its memo can be read.
  PlanContext ctx(model.network());
  const slice::PolicyClasses ctx_classes =
      build_policy_classes(model, vopts, ctx);
  EXPECT_EQ(render_plan(plan, true),
            render_plan(plan_jobs(model, invariants, ctx_classes, true, vopts,
                                  &ctx),
                        true));

  // Each key, from a standalone call that builds its own memos.
  for (const Job& job : plan.jobs) {
    const slice::ShapeKey shape =
        slice::canonical_shape_key(model, job.members, max_failures);
    const slice::ShapeKey ctx_shape = slice::canonical_shape_key(
        model, job.members, max_failures, &ctx.transfers);
    EXPECT_EQ(shape.key, ctx_shape.key);
    EXPECT_EQ(shape.colors, ctx_shape.colors);
    if (!job.iso_image.empty()) {
      const slice::ShapeKey rep =
          slice::canonical_shape_key(model, job.iso_members, max_failures);
      EXPECT_EQ(slice::shape_bijection(model, shape, rep, max_failures),
                std::optional<std::vector<NodeId>>(job.iso_image));
    }
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const BindingRef b = job.binding(k);
      const encode::Invariant& inv = invariants[b.invariant_index];
      const auto standalone_key = [&](std::size_t i) {
        const std::vector<NodeId> members = slice_members(
            model, invariants[i], classes, true, max_failures);
        return slice::canonical_slice_key(model, members, invariants[i],
                                          classes, max_failures);
      };
      EXPECT_EQ(slice_members(model, inv, classes, true, max_failures),
                *b.members);
      const std::string own_key = standalone_key(b.invariant_index);
      if (k == 0) {
        EXPECT_EQ(own_key, job.canonical_key);
      }
      for (std::size_t i : *b.inheritors) {
        EXPECT_EQ(standalone_key(i), own_key);
      }
      const slice::ProblemKey pk = slice::canonical_problem_key(
          model,
          slice::canonical_shape_key(model, *b.members, max_failures), inv,
          max_failures);
      EXPECT_EQ(render_key(pk), render_key(*b.problem_key));
    }
  }

  // The memo renders what the box renders: every box against every host
  // address (inference asked for all of them) and every relevant address of
  // every planned member set (the keys asked for those).
  std::set<Address> probes;
  for (NodeId h : model.network().hosts()) {
    probes.insert(model.network().node(h).address);
  }
  for (const Job& job : plan.jobs) {
    for (Address a : relevant_of(model, job.members)) probes.insert(a);
  }
  for (const auto& box : model.middleboxes()) {
    for (Address a : probes) {
      ASSERT_EQ(ctx.configs.fingerprint(*box, a), box->policy_fingerprint(a))
          << box->name() << " " << a.to_string();
    }
  }
  for (const Job& job : plan.jobs) {
    const std::vector<Address> relevant = relevant_of(model, job.members);
    const auto token = [&](Address a) {
      const auto it = std::find(relevant.begin(), relevant.end(), a);
      return it == relevant.end()
                 ? "!" + a.to_string()
                 : "#" + std::to_string(it - relevant.begin());
    };
    for (NodeId m : job.members) {
      if (const mbox::Middlebox* box = model.middlebox_at(m)) {
        EXPECT_EQ(mbox::render_projection(ctx.configs.relations(*box),
                                          relevant, token),
                  box->encoding_projection(relevant, token))
            << box->name();
      }
    }
  }
}

TEST(PlanContextParity, FiveGeneratorsAtTwoSizes) {
  for (int subnets : {3, 12}) {
    scenarios::EnterpriseParams p;
    p.subnets = subnets;
    const scenarios::Enterprise e = scenarios::make_enterprise(p);
    expect_parity(e.model, e.invariants, 0,
                  "enterprise/" + std::to_string(subnets));
  }
  for (bool storage : {false, true}) {
    scenarios::DatacenterParams p;
    p.policy_groups = storage ? 3 : 4;
    p.with_storage = storage;
    scenarios::Datacenter dc = scenarios::make_datacenter(p);
    Rng rng(3);
    scenarios::inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
    std::vector<encode::Invariant> invs = dc.isolation_invariants();
    for (const auto& inv : dc.traversal_invariants()) invs.push_back(inv);
    if (storage) {
      for (const auto& inv : dc.data_isolation_invariants()) {
        invs.push_back(inv);
      }
    }
    expect_parity(dc.model, invs, storage ? 0 : 1,
                  "datacenter/storage=" + std::to_string(storage));
  }
  for (bool bypass : {false, true}) {
    scenarios::IspParams p;
    p.peering_points = bypass ? 3 : 5;
    p.scrub_bypasses_firewalls = bypass;
    const scenarios::Isp isp = scenarios::make_isp(p);
    expect_parity(isp.model, isp.batch().invariants, 1,
                  "isp/bypass=" + std::to_string(bypass));
  }
  for (int tenants : {2, 4}) {
    scenarios::MultiTenantParams p;
    p.tenants = tenants;
    p.servers = tenants;
    p.public_vms_per_tenant = tenants == 2 ? 2 : 5;
    p.private_vms_per_tenant = tenants == 2 ? 2 : 5;
    const scenarios::MultiTenant mt = scenarios::make_multitenant(p);
    expect_parity(mt.model, mt.batch().invariants, 0,
                  "multitenant/" + std::to_string(tenants));
  }
  for (bool isolated : {false, true}) {
    scenarios::SegmentedParams p;
    if (isolated) {
      p.segments = 3;
      p.senders_per_segment = 3;
      p.isolated_segment = 2;
    } else {
      p.bypass_segment = 1;
    }
    const scenarios::Segmented s = scenarios::make_segmented(p);
    expect_parity(s.model, s.batch().invariants, 0,
                  "segmented/isolated=" + std::to_string(isolated));
  }
}

TEST(PlanContextParity, RandomSpecs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    scenarios::RandomSpecParams p;
    p.seed = seed;
    const scenarios::RandomSpec rs = scenarios::make_random_spec(p);
    expect_parity(rs.spec.model, rs.spec.invariants,
                  scenarios::derived_max_failures(rs.spec.model),
                  "random seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

/// A 3-group datacenter, clean or with one pair's deny rules deleted.
scenarios::Datacenter datacenter(bool broken) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  if (broken) {
    Rng rng(11);
    scenarios::inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
  }
  return dc;
}

std::vector<encode::Invariant> dc_invariants(const scenarios::Datacenter& dc) {
  std::vector<encode::Invariant> invs = dc.isolation_invariants();
  for (const auto& inv : dc.traversal_invariants()) invs.push_back(inv);
  return invs;
}

std::set<std::string> problem_keys(const JobPlan& plan) {
  std::set<std::string> keys;
  for (const Job& job : plan.jobs) {
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      keys.insert(job.binding(k).problem_key->key);
    }
  }
  return keys;
}

TEST(PlanContextStaleness, RebindReplansFromTheEditedModel) {
  const scenarios::Datacenter clean = datacenter(false);
  const scenarios::Datacenter broken = datacenter(true);
  const std::vector<encode::Invariant> invs = dc_invariants(clean);
  ASSERT_EQ(invs.size(), dc_invariants(broken).size());

  Engine engine(clean.model);
  const JobPlan before = engine.plan(invs);
  engine.rebind(broken.model);
  const JobPlan after = engine.plan(invs);
  Engine fresh(broken.model);
  const JobPlan expected = fresh.plan(invs);
  EXPECT_EQ(render_plan(after, true), render_plan(expected, true));
  EXPECT_NE(render_plan(before, false), render_plan(after, false));
  // The deleted rules change the affected pair's keys: some problem key of
  // the edited model is new.
  const std::set<std::string> old_keys = problem_keys(before);
  bool changed = false;
  for (const std::string& k : problem_keys(after)) {
    changed = changed || !old_keys.contains(k);
  }
  EXPECT_TRUE(changed);

  // And back: the clean model's plan again, not the edited one's.
  engine.rebind(clean.model);
  EXPECT_EQ(render_plan(engine.plan(invs), false),
            render_plan(before, false));
}

std::string spec_text(scenarios::Datacenter dc) {
  io::Spec spec;
  spec.invariants = dc_invariants(dc);
  spec.model = std::move(dc.model);
  return io::write_spec_string(spec);
}

TEST(PlanContextStaleness, ServeReloadReplansFromTheEditedModel) {
  char tmpl[] = "/tmp/vmn-test-plan-context-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string path = dir + "/dc.vmn";
  const std::string clean = spec_text(datacenter(false));
  const std::string broken = spec_text(datacenter(true));
  ASSERT_NE(clean, broken);
  {
    std::ofstream(path, std::ios::trunc) << clean;
  }
  ServeOptions sopts;
  sopts.spec_path = path;
  ServeState state(sopts);
  const JobPlan before = state.engine().plan(state.spec().invariants);

  std::set<std::string> seen_keys = problem_keys(before);
  for (const std::string* text : {&broken, &clean, &broken}) {
    {
      std::ofstream(path, std::ios::trunc) << *text;
    }
    const std::string resp = state.handle_line("RELOAD");
    ASSERT_EQ(resp.rfind("OK reloaded", 0), 0u) << resp;
    const JobPlan got = state.engine().plan(state.spec().invariants);
    const io::Spec reparsed = io::parse_spec_string(*text);
    Engine fresh(reparsed.model);
    EXPECT_EQ(render_plan(got, false),
              render_plan(fresh.plan(reparsed.invariants), false));
    if (text == &broken) {
      EXPECT_NE(problem_keys(got), problem_keys(before));
    } else {
      EXPECT_EQ(problem_keys(got), problem_keys(before));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace vmn::verify
