// Differential test of policy-class inference (src/slice/policy.cpp).
//
// `reference` below is the per-host worklist inference with string
// signatures that the shared-closure, integer-signature inference replaced,
// kept verbatim as a test-only oracle. Over the five scenario generators,
// 200 fixed-seed random specs and a hand-built network with a middlebox
// cycle and forwarding loops, both must agree on the partition (as a set of
// ordered classes), every host's representative, every target's sorted
// representatives_for and every pair's reaches - at the derived failure
// budget, at 0 and with no budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "dataplane/transfer.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/middlebox.hpp"
#include "net/topology.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/random.hpp"
#include "scenarios/segmented.hpp"
#include "slice/policy.hpp"

namespace vmn::slice {
namespace {

namespace reference {

struct Delivery {
  NodeId target;
  std::vector<NodeId> boxes;
};

using ReachMap = std::unordered_map<NodeId, std::vector<std::vector<Delivery>>>;

std::vector<Address> seed_addresses(const encode::NetworkModel& model) {
  std::set<Address> out;
  const net::Network& net = model.network();
  for (NodeId h : net.hosts()) out.insert(net.node(h).address);
  for (const auto& box : model.middleboxes()) {
    for (Address a : box->implicit_addresses()) out.insert(a);
  }
  return {out.begin(), out.end()};
}

std::vector<Delivery> deliveries_from(const encode::NetworkModel& model,
                                      const dataplane::TransferFunction& tf,
                                      NodeId from,
                                      const std::vector<Address>& seeds) {
  const net::Network& net = model.network();
  std::map<NodeId, std::set<NodeId>> delivered;        // target -> boxes
  std::map<std::uint64_t, std::set<NodeId>> boxes_at;  // state -> boxes seen
  std::vector<std::pair<NodeId, Address>> frontier;
  const Address own = net.node(from).address;
  const auto state_key = [](NodeId edge, Address dst) {
    return (std::uint64_t{edge.value()} << 32) | dst.bits();
  };
  for (Address a : seeds) {
    if (a == own) continue;
    boxes_at[state_key(from, a)];  // empty box set
    frontier.emplace_back(from, a);
  }
  while (!frontier.empty()) {
    const auto [edge, dst] = frontier.back();
    frontier.pop_back();
    const std::set<NodeId> boxes = boxes_at[state_key(edge, dst)];
    std::optional<NodeId> next;
    try {
      next = tf.next_edge(edge, dst);
    } catch (const ForwardingLoopError&) {
      continue;
    }
    if (!next) continue;
    if (net.kind(*next) == net::NodeKind::host) {
      if (*next != from) delivered[*next].insert(boxes.begin(), boxes.end());
      continue;
    }
    const mbox::Middlebox* box = model.middlebox_at(*next);
    if (box == nullptr) continue;
    std::set<NodeId> onward_boxes = boxes;
    onward_boxes.insert(*next);
    for (Address onward : box->forward_dsts(dst)) {
      std::set<NodeId>& known = boxes_at[state_key(*next, onward)];
      const std::size_t before = known.size();
      known.insert(onward_boxes.begin(), onward_boxes.end());
      if (known.size() != before) frontier.emplace_back(*next, onward);
    }
  }
  std::vector<Delivery> out;
  out.reserve(delivered.size());
  for (auto& [target, boxes] : delivered) {
    out.push_back(Delivery{target, {boxes.begin(), boxes.end()}});
  }
  return out;
}

std::vector<std::size_t> scenarios_in_budget(
    const std::vector<int>& scenario_failures, int max_failures) {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < scenario_failures.size(); ++s) {
    if (max_failures < 0 || scenario_failures[s] <= max_failures) {
      out.push_back(s);
    }
  }
  return out;
}

void refine_by_reach(const encode::NetworkModel& model,
                     std::vector<std::vector<NodeId>>& classes,
                     const ReachMap& reach,
                     const std::vector<std::size_t>& in_budget) {
  const auto path_of = [&](const std::vector<NodeId>& boxes) {
    std::vector<std::string> types;
    types.reserve(boxes.size());
    for (NodeId b : boxes) {
      const mbox::Middlebox* box = model.middlebox_at(b);
      if (box == nullptr) continue;
      types.push_back(box->structural_fingerprint());
    }
    std::sort(types.begin(), types.end());
    std::string out = "[";
    for (const std::string& t : types) out += t + ",";
    return out + "]";
  };

  using Peers = std::vector<std::vector<std::pair<NodeId, std::string>>>;
  std::unordered_map<NodeId, Peers> fwd;
  std::unordered_map<NodeId, Peers> rev;
  for (const auto& [h, per_scenario] : reach) {
    fwd[h].resize(per_scenario.size());
    rev[h].resize(per_scenario.size());
  }
  for (const auto& [h, per_scenario] : reach) {
    for (std::size_t s = 0; s < per_scenario.size(); ++s) {
      for (const Delivery& d : per_scenario[s]) {
        std::string path = path_of(d.boxes);
        fwd[h][s].emplace_back(d.target, path);
        rev[d.target][s].emplace_back(h, std::move(path));
      }
    }
  }

  std::unordered_map<NodeId, std::size_t> cls;
  const auto assign = [&] {
    cls.clear();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      for (NodeId h : classes[i]) cls[h] = i;
    }
  };
  assign();

  const auto side = [&](std::vector<std::string> parts) {
    std::sort(parts.begin(), parts.end());
    std::string sig;
    for (const std::string& p : parts) sig += p + ",";
    return sig;
  };
  const auto peer_parts = [&](const std::unordered_map<NodeId, Peers>& dir,
                              NodeId h, std::size_t s) {
    std::vector<std::string> parts;
    const auto it = dir.find(h);
    if (it != dir.end() && s < it->second.size()) {
      for (const auto& [peer, path] : it->second[s]) {
        parts.push_back(std::to_string(cls.at(peer)) + path);
      }
    }
    return parts;
  };
  const auto signature = [&](NodeId h) {
    std::string sig;
    for (std::size_t s : in_budget) {
      sig += "s" + std::to_string(s) + ">" + side(peer_parts(fwd, h, s)) +
             "<" + side(peer_parts(rev, h, s)) + ";";
    }
    return sig;
  };

  for (bool changed = true; changed;) {
    changed = false;
    std::vector<std::vector<NodeId>> next;
    next.reserve(classes.size());
    for (auto& c : classes) {
      if (c.size() <= 1) {
        next.push_back(std::move(c));
        continue;
      }
      std::map<std::string, std::vector<NodeId>> buckets;
      for (NodeId h : c) buckets[signature(h)].push_back(h);
      if (buckets.size() > 1) changed = true;
      for (auto& [sig, members] : buckets) next.push_back(std::move(members));
    }
    classes = std::move(next);
    assign();
  }
}

const Delivery* find_delivery(const std::vector<Delivery>& deliveries,
                              NodeId target) {
  const auto it = std::lower_bound(
      deliveries.begin(), deliveries.end(), target,
      [](const Delivery& d, NodeId t) { return d.target < t; });
  if (it == deliveries.end() || it->target != target) return nullptr;
  return &*it;
}

/// The reference's classes and recorded signatures, with the queries the
/// production PolicyClasses answers.
struct Classes {
  std::vector<std::vector<NodeId>> classes;
  std::vector<int> scenario_failures;
  ReachMap reach;
  int reach_budget = -1;

  [[nodiscard]] int effective_budget(int query_budget) const {
    if (reach_budget < 0) return query_budget;
    if (query_budget < 0) return reach_budget;
    return std::min(query_budget, reach_budget);
  }

  [[nodiscard]] NodeId representative_of(NodeId host) const {
    for (const auto& c : classes) {
      if (std::find(c.begin(), c.end(), host) != c.end()) return c.front();
    }
    throw ModelError("host not covered by policy classes");
  }

  [[nodiscard]] std::vector<NodeId> representatives_for(
      NodeId target, int max_failures, bool include_unreachable) const {
    const std::vector<std::size_t> in_budget =
        scenarios_in_budget(scenario_failures, effective_budget(max_failures));
    std::vector<NodeId> out;
    for (const auto& c : classes) {
      std::set<std::string> seen;
      for (NodeId h : c) {
        std::string sig;
        bool delivers = false;
        const auto it = reach.find(h);
        for (std::size_t s : in_budget) {
          const Delivery* d = it != reach.end() && s < it->second.size()
                                  ? find_delivery(it->second[s], target)
                                  : nullptr;
          if (d == nullptr) {
            sig += "0;";
            continue;
          }
          delivers = true;
          sig += "(";
          for (NodeId b : d->boxes) sig += std::to_string(b.value()) + ",";
          sig += ");";
        }
        if (!delivers && !include_unreachable) continue;
        if (seen.insert(sig).second) out.push_back(h);
      }
    }
    return out;
  }

  [[nodiscard]] bool reaches(NodeId host, NodeId target,
                             int max_failures) const {
    const auto it = reach.find(host);
    if (it == reach.end()) return false;
    for (std::size_t s : scenarios_in_budget(scenario_failures,
                                             effective_budget(max_failures))) {
      if (s < it->second.size() &&
          find_delivery(it->second[s], target) != nullptr) {
        return true;
      }
    }
    return false;
  }
};

void attach_reachability(Classes& out, const encode::NetworkModel& model,
                         int max_failures, bool refine_classes) {
  const net::Network& net = model.network();
  dataplane::TransferCache transfers(net);
  for (const auto& sc : net.scenarios()) {
    out.scenario_failures.push_back(static_cast<int>(sc.failed_nodes.size()));
  }
  const std::vector<std::size_t> in_budget =
      scenarios_in_budget(out.scenario_failures, max_failures);
  const std::vector<Address> seeds = seed_addresses(model);
  for (NodeId h : net.hosts()) {
    auto& per_scenario = out.reach[h];
    per_scenario.resize(out.scenario_failures.size());
    for (std::size_t s : in_budget) {
      const dataplane::TransferFunction& tf =
          transfers.at(ScenarioId(static_cast<ScenarioId::underlying_type>(s)));
      per_scenario[s] = deliveries_from(model, tf, h, seeds);
    }
  }
  if (refine_classes) refine_by_reach(model, out.classes, out.reach, in_budget);
  out.reach_budget = max_failures;
}

Classes infer(const encode::NetworkModel& model, int max_failures) {
  std::map<std::string, std::vector<NodeId>> groups;
  for (NodeId h : model.network().hosts()) {
    const Address a = model.network().node(h).address;
    std::vector<std::string> parts;
    for (const auto& box : model.middleboxes()) {
      std::string bfp = box->policy_fingerprint(a);
      if (bfp.empty()) continue;
      parts.push_back(box->type() + "{" + std::move(bfp) + "}");
    }
    std::sort(parts.begin(), parts.end());
    std::string fp;
    for (std::string& p : parts) fp += p;
    groups[fp].push_back(h);
  }
  Classes out;
  for (auto& [fp, hosts] : groups) out.classes.push_back(std::move(hosts));
  attach_reachability(out, model, max_failures, /*refine_classes=*/true);
  return out;
}

Classes declared(const encode::NetworkModel& model, int max_failures) {
  std::map<PolicyClassId, std::vector<NodeId>> groups;
  for (NodeId h : model.network().hosts()) {
    groups[model.policy_class(h)].push_back(h);
  }
  Classes out;
  for (auto& [cls, hosts] : groups) out.classes.push_back(std::move(hosts));
  attach_reachability(out, model, max_failures, /*refine_classes=*/false);
  return out;
}

}  // namespace reference

std::vector<std::vector<NodeId>> as_set(std::vector<std::vector<NodeId>> c) {
  std::sort(c.begin(), c.end());
  return c;
}

std::vector<NodeId> sorted(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Compares one production inference against the reference at `budget`;
/// `what` names the model in failure messages.
void expect_same(const PolicyClasses& got, const reference::Classes& want,
                 const encode::NetworkModel& model, int budget,
                 const std::string& what) {
  SCOPED_TRACE(what + " budget=" + std::to_string(budget));
  ASSERT_EQ(as_set(got.classes), as_set(want.classes));
  const std::vector<NodeId> hosts = model.network().hosts();
  for (NodeId h : hosts) {
    ASSERT_EQ(got.representative_of(h), want.representative_of(h))
        << "host " << h.value();
  }
  for (NodeId t : hosts) {
    for (bool unreachable : {false, true}) {
      ASSERT_EQ(sorted(got.representatives_for(t, budget, unreachable)),
                sorted(want.representatives_for(t, budget, unreachable)))
          << "target " << t.value() << " include_unreachable=" << unreachable;
    }
    for (NodeId h : hosts) {
      ASSERT_EQ(got.reaches(h, t, budget), want.reaches(h, t, budget))
          << "host " << h.value() << " target " << t.value();
    }
  }
}

void check_model(const encode::NetworkModel& model, const std::string& what) {
  const int derived = scenarios::derived_max_failures(model);
  for (int budget : {derived, 0, -1}) {
    PolicyClassOptions opts;
    opts.max_failures = budget;
    expect_same(infer_policy_classes(model, opts),
                reference::infer(model, budget), model, budget,
                what + " (inferred)");
    expect_same(declared_policy_classes(model, opts),
                reference::declared(model, budget), model, budget,
                what + " (declared)");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(InferenceDiff, Generators) {
  for (int subnets : {3, 12}) {
    scenarios::EnterpriseParams p;
    p.subnets = subnets;
    check_model(scenarios::make_enterprise(p).model,
                "enterprise/" + std::to_string(subnets));
  }
  for (bool storage : {false, true}) {
    scenarios::DatacenterParams p;
    p.policy_groups = storage ? 3 : 4;
    p.with_storage = storage;
    check_model(scenarios::make_datacenter(p).model,
                "datacenter/storage=" + std::to_string(storage));
  }
  for (bool bypass : {false, true}) {
    scenarios::IspParams p;
    p.peering_points = bypass ? 3 : 5;
    p.scrub_bypasses_firewalls = bypass;
    check_model(scenarios::make_isp(p).model,
                "isp/bypass=" + std::to_string(bypass));
  }
  for (int tenants : {2, 4}) {
    scenarios::MultiTenantParams p;
    p.tenants = tenants;
    p.servers = tenants;
    p.public_vms_per_tenant = tenants == 2 ? 2 : 5;
    p.private_vms_per_tenant = tenants == 2 ? 2 : 5;
    check_model(scenarios::make_multitenant(p).model,
                "multitenant/" + std::to_string(tenants));
  }
  {
    scenarios::SegmentedParams p;
    p.bypass_segment = 1;
    check_model(scenarios::make_segmented(p).model, "segmented/bypass");
  }
  {
    scenarios::SegmentedParams p;
    p.segments = 3;
    p.senders_per_segment = 3;
    p.isolated_segment = 2;
    check_model(scenarios::make_segmented(p).model, "segmented/isolated");
  }
}

TEST(InferenceDiff, RandomSpecs) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    scenarios::RandomSpecParams p;
    p.seed = seed;
    if (seed > 100) {
      p.min_hosts = 8;
      p.max_hosts = 12;
      p.max_switches = 8;
      p.max_middleboxes = 6;
      p.max_scenarios = 4;
    }
    const scenarios::RandomSpec rs = scenarios::make_random_spec(p);
    check_model(rs.spec.model, "random seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(InferenceDiff, MiddleboxCycleAndForwardingLoops) {
  // Two load balancers whose backends include each other's VIP: a packet
  // to v1 cycles lb1 -> lb2 -> lb1 until it leaves toward hA or hB, so both
  // deliveries cross both boxes. hC's route loops between the switches, so
  // every walk toward it - the first hop of a host, or lb1's re-emission
  // toward its backend hC - is dropped.
  encode::NetworkModel model;
  net::Network& net = model.network();
  const Address v1 = Address::of(10, 9, 0, 1);
  const Address v2 = Address::of(10, 9, 0, 2);
  const Address a0 = Address::of(10, 0, 0, 1);
  const Address aa = Address::of(10, 0, 0, 2);
  const Address ab = Address::of(10, 0, 0, 3);
  const Address ac = Address::of(10, 0, 1, 1);
  const NodeId h0 = net.add_host("h0", a0);
  const NodeId ha = net.add_host("hA", aa);
  const NodeId hb = net.add_host("hB", ab);
  const NodeId hc = net.add_host("hC", ac);
  auto& lb1 = model.add_middlebox(std::make_unique<mbox::LoadBalancer>(
      "lb1", v1, std::vector<Address>{v2, aa, ac}));
  auto& lb2 = model.add_middlebox(std::make_unique<mbox::LoadBalancer>(
      "lb2", v2, std::vector<Address>{v1, ab}));
  const NodeId sw = net.add_switch("sw");
  const NodeId sw2 = net.add_switch("sw2");
  for (NodeId n : {h0, ha, hb, lb1.node(), lb2.node()}) net.add_link(n, sw);
  net.add_link(sw, sw2);
  net.add_link(hc, sw2);
  net.table(sw).add(Prefix::host(a0), h0);
  net.table(sw).add(Prefix::host(aa), ha);
  net.table(sw).add(Prefix::host(ab), hb);
  net.table(sw).add(Prefix::host(v1), lb1.node());
  net.table(sw).add(Prefix::host(v2), lb2.node());
  net.table(sw).add(Prefix::host(ac), sw2);
  net.table(sw2).add(Prefix::host(ac), sw);
  net.table(sw2).add(Prefix::any(), sw);

  check_model(model, "lb cycle");
  const PolicyClasses classes = infer_policy_classes(model);
  EXPECT_TRUE(classes.reaches(h0, ha, -1));
  EXPECT_TRUE(classes.reaches(h0, hb, -1));
  EXPECT_FALSE(classes.reaches(h0, hc, -1));
  EXPECT_TRUE(classes.reaches(hc, h0, -1));
}

}  // namespace
}  // namespace vmn::slice
