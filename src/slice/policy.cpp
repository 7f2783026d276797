#include "slice/policy.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/error.hpp"
#include "mbox/middlebox.hpp"
#include "net/topology.hpp"

namespace vmn::slice {

namespace {

/// Destination addresses worth walking toward: every host address plus every
/// middlebox implicit address (VIPs, NAT externals) - aliases resolve to the
/// hosts behind them through forward_dsts rewrites during the walk.
std::vector<Address> seed_addresses(const encode::NetworkModel& model) {
  std::set<Address> out;
  const net::Network& net = model.network();
  for (NodeId h : net.hosts()) out.insert(net.node(h).address);
  for (const auto& box : model.middleboxes()) {
    for (Address a : box->implicit_addresses()) out.insert(a);
  }
  return {out.begin(), out.end()};
}

constexpr std::uint32_t kNone = ~std::uint32_t{0};

std::uint64_t state_key(NodeId edge, Address dst) {
  return (std::uint64_t{edge.value()} << 32) | dst.bits();
}

/// Interned middlebox sets (sorted node lists). Id 0 is the empty set;
/// unions are memoized per id pair, so merging the same two sets again
/// costs one hash lookup.
class BoxSets {
 public:
  BoxSets() { (void)intern({}); }

  std::uint32_t intern(std::vector<NodeId> boxes) {
    const auto [it, fresh] = ids_.try_emplace(
        std::move(boxes), static_cast<std::uint32_t>(sets_.size()));
    if (fresh) sets_.push_back(&it->first);
    return it->second;
  }

  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    if (a == b || b == 0) return a;
    if (a == 0) return b;
    if (a > b) std::swap(a, b);
    const std::uint64_t key = (std::uint64_t{a} << 32) | b;
    if (const auto it = unions_.find(key); it != unions_.end()) {
      return it->second;
    }
    std::vector<NodeId> merged;
    std::set_union(at(a).begin(), at(a).end(), at(b).begin(), at(b).end(),
                   std::back_inserter(merged));
    const std::uint32_t id = intern(std::move(merged));
    unions_.emplace(key, id);
    return id;
  }

  [[nodiscard]] const std::vector<NodeId>& at(std::uint32_t id) const {
    return *sets_[id];
  }
  [[nodiscard]] std::size_t size() const { return sets_.size(); }

 private:
  std::map<std::vector<NodeId>, std::uint32_t> ids_;
  std::vector<const std::vector<NodeId>*> sets_;  // keys of ids_, by id
  std::unordered_map<std::uint64_t, std::uint32_t> unions_;
};

/// Accumulates deliveries by target node, uniting the box sets of a
/// repeated target. Indexed by node id and reset by take(), so reusing one
/// accumulator costs only the targets each use touches.
class DeliveryUnion {
 public:
  explicit DeliveryUnion(std::size_t nodes) : boxes_(nodes, kNone) {}

  void add(NodeId target, std::uint32_t boxes, BoxSets& sets) {
    std::uint32_t& known = boxes_[target.value()];
    if (known == kNone) {
      known = boxes;
      touched_.push_back(target);
    } else {
      known = sets.unite(known, boxes);
    }
  }

  /// The accumulated deliveries, sorted by target; empties the accumulator.
  [[nodiscard]] std::vector<Delivery> take() {
    std::sort(touched_.begin(), touched_.end());
    std::vector<Delivery> out;
    out.reserve(touched_.size());
    for (NodeId t : touched_) {
      out.push_back(Delivery{t, boxes_[t.value()]});
      boxes_[t.value()] = kNone;
    }
    touched_.clear();
    return out;
  }

 private:
  std::vector<std::uint32_t> boxes_;  // per target node; kNone = untouched
  std::vector<NodeId> touched_;
};

/// Delivery closures of one scenario's middlebox states, shared by every
/// sender. A state (box, dst) is a packet that `box` emits toward `dst`;
/// its closure is every host the packet can be delivered to from there,
/// with the union over the explored paths of the boxes crossed, `box`
/// included. This is static-dataplane deliverability: a middlebox is
/// traversed, never dropped at - whether it *policy*-drops is the solver's
/// business, and folding policy into the relation would make the classes
/// depend on what is being verified. Which boxes the route *passes*,
/// however, is routing, and exactly what distinguishes a policed sender
/// from one whose in-port rules bypass the box.
///
/// States are explored lazily, and closures are computed per strongly
/// connected component (Tarjan): every state of a middlebox cycle can reach
/// every other, so all of them share one closure - the cycle's boxes united
/// with whatever the component's exits reach.
class BoxClosures {
 public:
  BoxClosures(const encode::NetworkModel& model,
              const dataplane::TransferFunction& tf, BoxSets& sets)
      : model_(&model),
        tf_(&tf),
        sets_(&sets),
        acc_(model.network().node_count()) {}

  /// Deliveries of a packet that reached `box` carrying destination `dst`:
  /// the merged closures of the states the box emits it as (one per
  /// forward_dsts destination).
  const std::vector<Delivery>& entry(const mbox::Middlebox& box, Address dst) {
    const std::uint64_t key = state_key(box.node(), dst);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      return it->second;
    }
    std::vector<std::uint32_t> emitted;
    for (Address onward : box.forward_dsts(dst)) {
      emitted.push_back(state(box.node(), onward));
      solve(emitted.back());
    }
    for (std::uint32_t s : emitted) {
      for (const Delivery& d : closures_[states_[s].closure]) {
        acc_.add(d.target, d.boxes, *sets_);
      }
    }
    return entries_.emplace(key, acc_.take()).first->second;
  }

 private:
  struct State {
    NodeId box;
    Address dst;
    std::optional<NodeId> delivers;  // host the emission lands on
    std::vector<std::uint32_t> next;  // successor states
    std::uint32_t index = kNone;      // Tarjan visit order
    std::uint32_t low = 0;
    bool on_stack = false;
    std::uint32_t closure = kNone;  // into closures_, once its SCC is done
  };

  std::uint32_t state(NodeId box, Address dst) {
    const auto [it, fresh] = state_ids_.try_emplace(
        state_key(box, dst), static_cast<std::uint32_t>(states_.size()));
    if (fresh) {
      states_.emplace_back();
      states_.back().box = box;
      states_.back().dst = dst;
    }
    return it->second;
  }

  /// One transfer-function step from state `s`.
  void expand(std::uint32_t s) {
    const NodeId box = states_[s].box;
    const Address dst = states_[s].dst;
    std::optional<NodeId> next;
    try {
      next = tf_->next_edge(box, dst);
    } catch (const ForwardingLoopError&) {
      // A static forwarding loop on this (source, destination) pair: no
      // packet is ever delivered along it, so for the class relation it is
      // a drop. Verification still surfaces the fault loudly - but only
      // for invariants whose slice actually walks the looping pair.
      return;
    }
    if (!next) return;
    if (model_->network().kind(*next) == net::NodeKind::host) {
      states_[s].delivers = *next;
      return;
    }
    const mbox::Middlebox* onward_box = model_->middlebox_at(*next);
    if (onward_box == nullptr) return;
    for (Address onward : onward_box->forward_dsts(dst)) {
      const std::uint32_t t = state(*next, onward);
      states_[s].next.push_back(t);
    }
  }

  /// Computes the closure of `root` and of every state it reaches.
  void solve(std::uint32_t root) {
    if (states_[root].closure != kNone) return;
    std::vector<std::uint32_t> stack;
    std::vector<std::pair<std::uint32_t, std::size_t>> frames;
    const auto open = [&](std::uint32_t s) {
      states_[s].index = states_[s].low = visits_++;
      states_[s].on_stack = true;
      stack.push_back(s);
      expand(s);
      frames.emplace_back(s, 0);
    };
    open(root);
    while (!frames.empty()) {
      const auto [s, i] = frames.back();
      if (i < states_[s].next.size()) {
        ++frames.back().second;
        const std::uint32_t t = states_[s].next[i];
        if (states_[t].closure != kNone) continue;  // finished component
        if (states_[t].index == kNone) {
          open(t);
        } else if (states_[t].on_stack) {
          states_[s].low = std::min(states_[s].low, states_[t].index);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        State& parent = states_[frames.back().first];
        parent.low = std::min(parent.low, states_[s].low);
      }
      if (states_[s].low != states_[s].index) continue;
      std::vector<std::uint32_t> members;
      std::uint32_t m = kNone;
      do {
        m = stack.back();
        stack.pop_back();
        states_[m].on_stack = false;
        members.push_back(m);
      } while (m != s);
      close_component(members);
    }
  }

  /// Closure of one finished component: its own boxes, united with the
  /// closures its exits reach (every exit is already closed; members are
  /// not yet).
  void close_component(const std::vector<std::uint32_t>& members) {
    std::vector<NodeId> boxes;
    for (std::uint32_t m : members) boxes.push_back(states_[m].box);
    std::sort(boxes.begin(), boxes.end());
    boxes.erase(std::unique(boxes.begin(), boxes.end()), boxes.end());
    const std::uint32_t own = sets_->intern(std::move(boxes));
    for (std::uint32_t m : members) {
      if (states_[m].delivers) acc_.add(*states_[m].delivers, own, *sets_);
      for (std::uint32_t t : states_[m].next) {
        if (states_[t].closure == kNone) continue;  // same component
        for (const Delivery& d : closures_[states_[t].closure]) {
          acc_.add(d.target, sets_->unite(own, d.boxes), *sets_);
        }
      }
    }
    const auto id = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(acc_.take());
    for (std::uint32_t m : members) states_[m].closure = id;
  }

  const encode::NetworkModel* model_;
  const dataplane::TransferFunction* tf_;
  BoxSets* sets_;
  DeliveryUnion acc_;
  std::vector<State> states_;
  std::unordered_map<std::uint64_t, std::uint32_t> state_ids_;
  std::uint32_t visits_ = 0;
  std::vector<std::vector<Delivery>> closures_;
  std::unordered_map<std::uint64_t, std::vector<Delivery>> entries_;
};

/// One host's deliveries under a scenario: one fabric walk per seed
/// address, then the shared closure of the box the walk lands on.
std::vector<Delivery> deliveries_from(const encode::NetworkModel& model,
                                      const dataplane::TransferFunction& tf,
                                      BoxClosures& closures, BoxSets& sets,
                                      DeliveryUnion& acc, NodeId from,
                                      const std::vector<Address>& seeds) {
  const net::Network& net = model.network();
  const Address own = net.node(from).address;
  for (Address a : seeds) {
    if (a == own) continue;
    std::optional<NodeId> next;
    try {
      next = tf.next_edge(from, a);
    } catch (const ForwardingLoopError&) {
      continue;  // a looping (source, destination) pair delivers nothing
    }
    if (!next) continue;
    if (net.kind(*next) == net::NodeKind::host) {
      if (*next != from) acc.add(*next, 0, sets);
      continue;
    }
    const mbox::Middlebox* box = model.middlebox_at(*next);
    if (box == nullptr) continue;
    for (const Delivery& d : closures.entry(*box, a)) {
      if (d.target != from) acc.add(d.target, d.boxes, sets);
    }
  }
  return acc.take();
}

using ReachMap = std::unordered_map<NodeId, std::vector<std::vector<Delivery>>>;

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

/// Splits classes until no class holds two hosts with different delivery
/// signatures. Signatures are class- and type-aware - "which classes do my
/// packets get delivered to, traversing which middlebox *types*, and which
/// classes deliver to me, per in-budget scenario" - never addresses or
/// instance names, so renamed-but-isomorphic hosts (and symmetric hosts of
/// isomorphic disconnected segments) keep merging while hosts whose
/// packets live in structurally different worlds - unreachable islands,
/// per-sender middlebox bypasses - split. (Distinguishing same-type boxes
/// by *configuration* is deliberately left to the fingerprint grouping and
/// to representatives_for's instance-level subgrouping: a config digest
/// here would split validly symmetric hosts whose paths cross
/// corresponding-but-differently-addressed instances.) Refined classes are
/// ordered by their first member.
void refine_by_reach(const encode::NetworkModel& model,
                     std::vector<std::vector<NodeId>>& classes,
                     const ReachMap& reach,
                     const std::vector<std::size_t>& in_budget,
                     const BoxSets& sets) {
  const net::Network& net = model.network();
  // Type-level path descriptor per box set: the sorted structural
  // fingerprints of its boxes (the same fingerprint the canonical slice
  // key colors member boxes with), interned so equal descriptors share an
  // id across sets.
  std::map<std::vector<std::string>, std::uint32_t> descriptor_ids;
  std::vector<std::uint32_t> path_of(sets.size());
  for (std::uint32_t id = 0; id < sets.size(); ++id) {
    std::vector<std::string> types;
    for (NodeId b : sets.at(id)) {
      if (const mbox::Middlebox* box = model.middlebox_at(b)) {
        types.push_back(box->structural_fingerprint());
      }
    }
    std::sort(types.begin(), types.end());
    path_of[id] =
        descriptor_ids
            .try_emplace(std::move(types),
                         static_cast<std::uint32_t>(descriptor_ids.size()))
            .first->second;
  }

  // Dense host indices and both directions per in-budget scenario:
  // fwd[k * H + h] = (target, path) of h's deliveries under in_budget[k],
  // rev[k * H + t] = (source, path) of the deliveries to t.
  const std::vector<NodeId> hosts = net.hosts();
  const std::size_t host_count = hosts.size();
  std::vector<std::uint32_t> dense(net.node_count(), kNone);
  for (std::size_t i = 0; i < host_count; ++i) {
    dense[hosts[i].value()] = static_cast<std::uint32_t>(i);
  }
  struct Peer {
    std::uint32_t host;
    std::uint32_t path;
  };
  std::vector<std::vector<Peer>> fwd(in_budget.size() * host_count);
  std::vector<std::vector<Peer>> rev(in_budget.size() * host_count);
  for (const auto& [h, per_scenario] : reach) {
    const std::uint32_t hi = dense[h.value()];
    for (std::size_t k = 0; k < in_budget.size(); ++k) {
      const std::size_t s = in_budget[k];
      if (s >= per_scenario.size()) continue;
      for (const Delivery& d : per_scenario[s]) {
        const std::uint32_t ti = dense[d.target.value()];
        const std::uint32_t path = path_of[d.boxes];
        fwd[k * host_count + hi].push_back(Peer{ti, path});
        rev[k * host_count + ti].push_back(Peer{hi, path});
      }
    }
  }

  std::vector<std::uint32_t> cls(host_count, kNone);
  const auto assign = [&] {
    for (std::size_t i = 0; i < classes.size(); ++i) {
      for (NodeId h : classes[i]) {
        cls[dense[h.value()]] = static_cast<std::uint32_t>(i);
      }
    }
  };
  assign();

  // Per in-budget scenario and direction: the peer count, then the sorted
  // (peer class, path id) pairs. Compared whole - exact, never hashed.
  const auto signature = [&](NodeId h) {
    const std::uint32_t hi = dense[h.value()];
    std::vector<std::uint64_t> sig;
    for (std::size_t k = 0; k < in_budget.size(); ++k) {
      for (const auto* dir : {&fwd, &rev}) {
        const std::vector<Peer>& peers = (*dir)[k * host_count + hi];
        sig.push_back(peers.size());
        const std::size_t from = sig.size();
        for (const Peer& p : peers) {
          sig.push_back((std::uint64_t{cls[p.host]} << 32) | p.path);
        }
        std::sort(sig.begin() + static_cast<std::ptrdiff_t>(from), sig.end());
      }
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
      std::map<std::vector<std::uint64_t>, std::vector<NodeId>> buckets;
      for (NodeId h : c) buckets[signature(h)].push_back(h);
      if (buckets.size() > 1) changed = true;
      for (auto& [sig, members] : buckets) next.push_back(std::move(members));
    }
    classes = std::move(next);
    assign();
  }
  std::sort(classes.begin(), classes.end(),
            [](const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
              return a.front() < b.front();
            });
}

/// Computes the per-host delivery signatures, refines `out.classes` by them
/// (unless `refine_classes` is off - declared classes keep the operator's
/// grouping), installs the signatures and rebuilds the host index.
void attach_reachability(PolicyClasses& out, const encode::NetworkModel& model,
                         const PolicyClassOptions& options,
                         bool refine_classes) {
  if (!options.refine_by_reachability) {
    out.reindex();
    return;
  }
  const net::Network& net = model.network();
  dataplane::TransferCache local(net);
  dataplane::TransferCache& transfers =
      options.transfers != nullptr ? *options.transfers : local;

  std::vector<int> scenario_failures;
  scenario_failures.reserve(net.scenarios().size());
  for (const auto& sc : net.scenarios()) {
    scenario_failures.push_back(static_cast<int>(sc.failed_nodes.size()));
  }
  // Walk (and pay for) only the scenarios the verification budget can see;
  // out-of-budget slots stay empty and queries never read them.
  const std::vector<std::size_t> in_budget =
      scenarios_in_budget(scenario_failures, options.max_failures);

  const std::vector<Address> seeds = seed_addresses(model);
  BoxSets sets;
  std::vector<std::optional<BoxClosures>> closures(scenario_failures.size());
  DeliveryUnion acc(net.node_count());
  ReachMap reach;
  for (NodeId h : net.hosts()) {
    auto& per_scenario = reach[h];
    per_scenario.resize(scenario_failures.size());
    for (std::size_t s : in_budget) {
      const dataplane::TransferFunction& tf =
          transfers.at(ScenarioId(static_cast<ScenarioId::underlying_type>(s)));
      if (!closures[s]) closures[s].emplace(model, tf, sets);
      per_scenario[s] =
          deliveries_from(model, tf, *closures[s], sets, acc, h, seeds);
    }
  }

  if (refine_classes) {
    refine_by_reach(model, out.classes, reach, in_budget, sets);
  }
  out.set_reach_signatures(std::move(scenario_failures), std::move(reach),
                           options.max_failures);
}

}  // namespace

std::size_t PolicyClasses::class_of(NodeId host) const {
  if (const auto it = index_.find(host); it != index_.end()) return it->second;
  // Hand-assembled (or hand-mutated, un-reindexed) instances: linear scan.
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (std::find(classes[i].begin(), classes[i].end(), host) !=
        classes[i].end()) {
      return i;
    }
  }
  throw ModelError("host not covered by policy classes");
}

NodeId PolicyClasses::representative_of(NodeId host) const {
  return classes[class_of(host)].front();
}

std::vector<NodeId> PolicyClasses::representatives() const {
  std::vector<NodeId> out;
  out.reserve(classes.size());
  for (const auto& c : classes) out.push_back(c.front());
  return out;
}

namespace {

/// The delivery toward `target` in a target-sorted scenario slot, if any.
const Delivery* find_delivery(const std::vector<Delivery>& deliveries,
                              NodeId target) {
  const auto it = std::lower_bound(
      deliveries.begin(), deliveries.end(), target,
      [](const Delivery& d, NodeId t) { return d.target < t; });
  if (it == deliveries.end() || it->target != target) return nullptr;
  return &*it;
}

}  // namespace

int PolicyClasses::effective_budget(int query_budget) const {
  if (reach_budget_ < 0) return query_budget;
  if (query_budget < 0) return reach_budget_;
  return std::min(query_budget, reach_budget_);
}

std::vector<NodeId> PolicyClasses::representatives_for(
    NodeId target, int max_failures, bool include_unreachable) const {
  if (reach_.empty()) return representatives();
  const std::vector<std::size_t> in_budget = scenarios_in_budget(
      scenario_failures_, effective_budget(max_failures));
  std::vector<NodeId> out;
  for (const auto& c : classes) {
    // One representative per (delivered-under-which-scenarios, traversing-
    // which-instances) behavior toward the target: per in-budget scenario,
    // 0 for no delivery or the delivery's box-set id + 1.
    std::set<std::vector<std::uint32_t>> seen;
    for (NodeId h : c) {
      std::vector<std::uint32_t> sig;
      sig.reserve(in_budget.size());
      bool delivers = false;
      const auto it = reach_.find(h);
      for (std::size_t s : in_budget) {
        const Delivery* d = it != reach_.end() && s < it->second.size()
                                ? find_delivery(it->second[s], target)
                                : nullptr;
        delivers = delivers || d != nullptr;
        sig.push_back(d != nullptr ? d->boxes + 1 : 0);
      }
      if (!delivers && !include_unreachable) continue;
      if (seen.insert(sig).second) out.push_back(h);
    }
  }
  return out;
}

bool PolicyClasses::reaches(NodeId host, NodeId target,
                            int max_failures) const {
  const auto it = reach_.find(host);
  if (it == reach_.end()) return false;
  for (std::size_t s : scenarios_in_budget(scenario_failures_,
                                           effective_budget(max_failures))) {
    if (s < it->second.size() &&
        find_delivery(it->second[s], target) != nullptr) {
      return true;
    }
  }
  return false;
}

void PolicyClasses::reindex() {
  index_.clear();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (NodeId h : classes[i]) index_[h] = i;
  }
}

void PolicyClasses::set_reach_signatures(
    std::vector<int> scenario_failures,
    std::unordered_map<NodeId, std::vector<std::vector<Delivery>>> reach,
    int budget) {
  scenario_failures_ = std::move(scenario_failures);
  reach_ = std::move(reach);
  reach_budget_ = budget;
  reindex();
}

PolicyClasses infer_policy_classes(const encode::NetworkModel& model,
                                   const PolicyClassOptions& options) {
  mbox::ConfigMemo local_configs;
  mbox::ConfigMemo& configs =
      options.configs != nullptr ? *options.configs : local_configs;
  std::map<std::string, std::vector<NodeId>> groups;
  for (NodeId h : model.network().hosts()) {
    const Address a = model.network().node(h).address;
    // A host's fingerprint is the sorted multiset of type-tagged non-empty
    // box fingerprints - no box names, no positions - so hosts of
    // renamed-isomorphic segments (treated alike by their own boxes, not
    // touched by each other's) land in one class. Sound because the class
    // is only a symmetry-grouping hypothesis: reachability refinement
    // (attach_reachability below) splits classes whose traffic actually
    // traverses different boxes, and canonical slice keys re-fingerprint
    // every member box of the slice before any verdict merges.
    std::vector<std::string> parts;
    for (const auto& box : model.middleboxes()) {
      const std::string& bfp = configs.fingerprint(*box, a);
      if (bfp.empty()) continue;
      parts.push_back(box->type() + "{" + bfp + "}");
    }
    std::sort(parts.begin(), parts.end());
    std::string fp;
    for (std::string& p : parts) fp += p;
    groups[fp].push_back(h);
  }
  PolicyClasses out;
  out.classes.reserve(groups.size());
  for (auto& [fp, hosts] : groups) out.classes.push_back(std::move(hosts));
  attach_reachability(out, model, options, /*refine_classes=*/true);
  return out;
}

PolicyClasses declared_policy_classes(const encode::NetworkModel& model,
                                      const PolicyClassOptions& options) {
  std::map<PolicyClassId, std::vector<NodeId>> groups;
  for (NodeId h : model.network().hosts()) {
    groups[model.policy_class(h)].push_back(h);
  }
  PolicyClasses out;
  out.classes.reserve(groups.size());
  for (auto& [cls, hosts] : groups) out.classes.push_back(std::move(hosts));
  attach_reachability(out, model, options, /*refine_classes=*/false);
  return out;
}

}  // namespace vmn::slice
