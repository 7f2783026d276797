#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/rng.hpp"
#include "encode/encoder.hpp"
#include "io/spec.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/random.hpp"
#include "smt/solver.hpp"
#include "verify/engine.hpp"
#include "verify/serve.hpp"

namespace vmnbench {
namespace {

using vmn::encode::Invariant;
using vmn::verify::BatchResult;
using vmn::verify::Engine;
using vmn::verify::Outcome;

/// The thread backend at a fixed worker count, on every machine.
constexpr std::size_t kWorkers = 4;

/// splitmix64 over (seed, index): independent generator streams per input.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

vmn::verify::EngineOptions engine_options(int max_failures) {
  vmn::verify::EngineOptions o;
  o.batch = true;
  o.jobs = kWorkers;
  o.backend = vmn::verify::Backend::thread;
  o.verify.max_failures = max_failures;
  return o;
}

/// One generated input: the spec text libvmn sees, the verdicts the
/// generator promises (empty when a reference run judges instead), and the
/// failure budget the engine is configured with.
struct Input {
  std::string text;
  std::vector<Outcome> expected;
  int max_failures = 0;
};

/// Appends `suffix` to every whitespace-separated token of `text` that names
/// a node, except a line's leading directive keyword (a content cache may be
/// named "cache"): an isomorphic spec under new names. Middlebox name
/// prefixes that traversal invariants select on survive, because only whole
/// names change.
std::string rename_nodes(const std::string& text,
                         const std::unordered_set<std::string>& names,
                         const std::string& suffix) {
  if (suffix.empty()) return text;
  std::string out;
  out.reserve(text.size() + text.size() / 4);
  bool line_start = true;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == ' ' || text[i] == '\n' || text[i] == '\t') {
      line_start = line_start || text[i] == '\n';
      out += text[i++];
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n' &&
           text[end] != '\t') {
      ++end;
    }
    const std::string token = text.substr(i, end - i);
    out += token;
    if (!line_start && names.count(token) != 0) out += suffix;
    line_start = false;
    i = end;
  }
  return out;
}

/// Serializes a generated model with its invariants in a seeded order and
/// every node renamed with `suffix`, keeping expectations aligned.
Input make_input(vmn::encode::NetworkModel model,
                 const std::vector<Invariant>& invariants,
                 const std::vector<bool>& holds, int max_failures,
                 std::uint64_t order_seed, const std::string& suffix) {
  std::vector<std::size_t> order(invariants.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  vmn::Rng rng(order_seed);
  std::shuffle(order.begin(), order.end(), rng.engine());
  vmn::io::Spec spec;
  spec.model = std::move(model);
  Input in;
  in.max_failures = max_failures;
  for (std::size_t i : order) {
    spec.invariants.push_back(invariants[i]);
    in.expected.push_back(holds[i] ? Outcome::holds : Outcome::violated);
  }
  std::unordered_set<std::string> names;
  for (const auto& node : spec.model.network().nodes()) names.insert(node.name);
  in.text = rename_nodes(vmn::io::write_spec_string(spec), names, suffix);
  return in;
}

std::vector<Outcome> outcomes_of(const BatchResult& b) {
  std::vector<Outcome> out;
  out.reserve(b.results.size());
  for (const auto& r : b.results) out.push_back(r.outcome);
  return out;
}

/// Counts one timed operation and checks its verdicts.
void judge_op(Report& rep, const std::vector<Outcome>& got,
              const std::vector<Outcome>& expected, const std::string& what) {
  ++rep.ops;
  bool ok = true;
  if (got.size() != expected.size()) {
    rep.fail(what + ": " + std::to_string(got.size()) + " verdicts for " +
             std::to_string(expected.size()) + " invariants");
    ok = false;
  }
  for (std::size_t i = 0; i < std::min(got.size(), expected.size()); ++i) {
    ++rep.verdicts;
    if (got[i] == Outcome::unknown) {
      ++rep.unknown;
      ok = false;
    } else if (got[i] != expected[i]) {
      rep.fail(what + ": invariant " + std::to_string(i) + " answered " +
               vmn::verify::to_string(got[i]) + ", expected " +
               vmn::verify::to_string(expected[i]));
      ok = false;
    }
  }
  if (!ok) ++rep.failed_ops;
}

void add_batch(EngineTotals& t, const BatchResult& b, double batch_us) {
  ++t.batches;
  t.planned_jobs += b.pool.jobs_executed;
  t.solver_calls += b.solver_calls;
  t.cache_hits += b.cache_hits;
  t.cache_misses += b.cache_misses;
  t.cold_binds += b.warm_binds;
  t.warm_reuses += b.warm_reuses;
  t.iso_verdict_reuses += b.iso_verdict_reuses;
  for (const auto& w : b.pool.workers) {
    t.worker_busy_us += 1000.0 * static_cast<double>(w.busy.count());
  }
  t.worker_capacity_us += static_cast<double>(kWorkers) * batch_us;
}

/// Per-invariant outcome of one replay; unset where the cache answered or
/// the solver gave up.
using ReplayVerdicts = std::vector<std::optional<Outcome>>;

class Run {
 public:
  static constexpr std::size_t kTraceBlock = 4;

  Run(const Config& config, Tracer& tracer) : cfg(config), tracer(tracer) {
    start_clock();
  }

  /// Starts the measured window of --seconds (after input generation).
  void start_clock() {
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(cfg.seconds));
  }
  /// Whether operation `done` (0-based) should still run.
  [[nodiscard]] bool more(std::size_t done) const {
    if (cfg.ops > 0) return done < cfg.ops;
    const std::size_t min_ops = cfg.trace ? 2 * kTraceBlock : 1;
    return done < min_ops || Clock::now() < deadline;
  }
  /// Traced runs alternate blocks of kTraceBlock operations: untraced, then
  /// traced and replayed, so the two walls compare on interleaved samples
  /// and a traced block spans a whole reload edit cycle.
  [[nodiscard]] bool traced(std::size_t op) const {
    return cfg.trace && (op / kTraceBlock) % 2 == 1;
  }
  /// Records a timed operation's wall time and, for untraced ones, the
  /// rate at which it answered its `verdicts`.
  void record_op(std::size_t op, double wall_us, std::size_t verdicts) {
    if (traced(op)) {
      rep.traced_op_us.push_back(wall_us);
    } else {
      rep.op_us.push_back(wall_us);
      rep.op_rate.push_back(static_cast<double>(verdicts) / (wall_us / 1e6));
    }
  }
  /// Flips the first expectation when the self-test asks for it.
  void maybe_flip(std::vector<Outcome>& expected) const {
    if (cfg.flip_expectation && !expected.empty()) {
      expected[0] = expected[0] == Outcome::holds ? Outcome::violated
                                                  : Outcome::holds;
    }
  }
  /// Compares a replay's verdicts with the expected ones.
  void check_replay(const ReplayVerdicts& got,
                    const std::vector<Outcome>& expected,
                    const std::string& what) {
    for (std::size_t i = 0; i < got.size() && i < expected.size(); ++i) {
      if (got[i] && *got[i] != expected[i]) {
        rep.fail(what + " replay: invariant " + std::to_string(i) +
                 " answered " + vmn::verify::to_string(*got[i]) +
                 ", expected " + vmn::verify::to_string(expected[i]));
      }
    }
  }

  const Config& cfg;
  Tracer& tracer;
  Report rep;
  Clock::time_point deadline;
};

/// A parsed spec plus an Engine over it whose policy classes are built.
struct Loaded {
  std::unique_ptr<vmn::io::Spec> spec;
  std::unique_ptr<Engine> engine;
};

/// Parse, Engine construction and policy-class inference: what a user pays
/// before the first verdict. Opens one span per layer under the caller's.
Loaded load(Tracer& tracer, const Input& in, long op) {
  Loaded out;
  {
    auto s = tracer.span("io.parse", op);
    out.spec =
        std::make_unique<vmn::io::Spec>(vmn::io::parse_spec_string(in.text));
  }
  {
    auto s = tracer.span("verify.engine", op);
    out.engine = std::make_unique<Engine>(out.spec->model,
                                          engine_options(in.max_failures));
  }
  {
    auto s = tracer.span("slice.classes", op);
    (void)out.engine->policy_classes();
  }
  return out;
}

/// Executes a plan job by job, one layer per span: a cold encoding, a fresh
/// Z3 solver loaded with its axioms, check(), and witness extraction when
/// sat. With a cache, jobs whose every binding hits are skipped and solved
/// jobs are stored, as the engine does.
ReplayVerdicts replay_jobs(Run& run, const vmn::encode::NetworkModel& model,
                           std::size_t invariant_count,
                           const vmn::verify::JobPlan& plan, int max_failures,
                           vmn::verify::ResultCache* cache, long op) {
  Tracer& tracer = run.tracer;
  ReplayTotals& totals = run.rep.replay;
  ReplayVerdicts verdicts(invariant_count);
  vmn::dataplane::TransferCache transfers(model.network());
  for (const vmn::verify::Job& job : plan.jobs) {
    if (cache != nullptr) {
      auto s = tracer.span("cache.lookup", op);
      bool all_hit = true;
      for (std::size_t k = 0; k < job.fan_out() && all_hit; ++k) {
        all_hit = cache->lookup(job.binding(k).problem_key->key).has_value();
      }
      if (all_hit) continue;
    }
    std::unique_ptr<vmn::encode::Encoding> encoding;
    std::vector<vmn::encode::Axiom> negation;
    {
      auto s = tracer.span("encode", op);
      vmn::encode::EncodeOptions eopts;
      eopts.max_failures = max_failures;
      eopts.transfers = &transfers;
      encoding = std::make_unique<vmn::encode::Encoding>(
          model, job.encode_members(), eopts);
      negation = encoding->invariant_axioms(job.solve_invariant);
    }
    totals.axioms += encoding->axioms().size() + negation.size();
    totals.transfer_builds += encoding->transfer_builds();
    std::unique_ptr<vmn::smt::Solver> solver;
    {
      auto s = tracer.span("smt.setup", op);
      solver = vmn::smt::make_z3_solver(encoding->vocab());
      for (const auto& axiom : encoding->axioms()) solver->add(axiom.term);
      solver->push();
      for (const auto& axiom : negation) solver->add(axiom.term);
    }
    vmn::smt::CheckStatus status = vmn::smt::CheckStatus::unknown;
    {
      auto s = tracer.span("smt.check", op);
      status = solver->check();
    }
    ++totals.checks;
    std::optional<Outcome> outcome;
    const bool sat_holds = job.solve_invariant.sat_means_holds();
    if (status == vmn::smt::CheckStatus::sat) {
      auto s = tracer.span("verify.extract", op);
      (void)vmn::verify::extract_trace(*encoding, solver->model());
      ++totals.witnesses;
      outcome = sat_holds ? Outcome::holds : Outcome::violated;
    } else if (status == vmn::smt::CheckStatus::unsat) {
      outcome = sat_holds ? Outcome::violated : Outcome::holds;
    } else {
      ++totals.unknown;
    }
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const vmn::verify::BindingRef b = job.binding(k);
      verdicts[b.invariant_index] = outcome;
      for (std::size_t inheritor : *b.inheritors) verdicts[inheritor] = outcome;
    }
    if (cache != nullptr && outcome) {
      auto s = tracer.span("cache.store", op);
      vmn::verify::ResultCache::Entry entry;
      entry.status = status;
      entry.slice_size = encoding->members().size();
      entry.assertion_count = solver->assertion_count();
      for (std::size_t k = 0; k < job.fan_out(); ++k) {
        cache->store(job.binding(k).problem_key->key, entry);
      }
    }
    {
      auto s = tracer.span("smt.teardown", op);
      solver.reset();
    }
    {
      auto s = tracer.span("encode.teardown", op);
      encoding.reset();
    }
  }
  return verdicts;
}

/// Replays one fresh-engine operation layer by layer on its own Engine.
ReplayVerdicts replay_fresh(Run& run, const Input& in, long op) {
  auto root = run.tracer.span("replay", op);
  Loaded l = load(run.tracer, in, op);
  vmn::verify::JobPlan plan;
  {
    auto s = run.tracer.span("slice.plan", op);
    plan = l.engine->plan(l.spec->invariants);
  }
  ReplayTotals& totals = run.rep.replay;
  ++totals.ops;
  totals.invariants += l.spec->invariants.size();
  totals.solver_jobs += plan.jobs.size();
  totals.transfer_builds += plan.transfer_builds;
  ReplayVerdicts verdicts = replay_jobs(run, l.spec->model,
                                       l.spec->invariants.size(), plan,
                                       in.max_failures, nullptr, op);
  {
    auto s = run.tracer.span("verify.teardown", op);
    plan = vmn::verify::JobPlan{};
    l.engine.reset();  // before the spec whose model it points into
    l.spec.reset();
  }
  return verdicts;
}

// ---------------------------------------------------------------------------
// zoo, estate and isolation: each operation a fresh Engine.

/// Reference verdicts for specs without generator expectations: the pooled
/// engine with symmetry dedup, warm solving and verdict merging all off, so
/// every invariant is solved cold on its own slice.
std::vector<Outcome> reference_verdicts(const Input& in) {
  const vmn::io::Spec spec = vmn::io::parse_spec_string(in.text);
  vmn::verify::EngineOptions eo = engine_options(in.max_failures);
  eo.use_symmetry = false;
  eo.verify.warm_solving = false;
  eo.verify.merge_isomorphic = false;
  Engine engine(spec.model, eo);
  return outcomes_of(engine.run_batch(spec.invariants));
}

/// Runs one fresh verification per operation: operation i sets up
/// input(i) on a new Engine (one set-up sample) and runs its batch (the
/// timed operation). Set-up samples thus spread over the whole
/// run, like the operations. Inputs without expected verdicts are judged
/// after the loop, outside the timed region, against reference_verdicts.
template <class MakeInput>
Report run_fresh(Run& run, MakeInput input) {
  struct Deferred {
    Input input;
    std::vector<Outcome> outcomes;
    ReplayVerdicts replay;
  };
  std::vector<Deferred> deferred;
  run.start_clock();
  for (std::size_t i = 0; run.more(i); ++i) {
    const long op = static_cast<long>(i);
    Input in = input(i);
    run.tracer.set_enabled(run.traced(i));
    Loaded l;
    {
      auto root = run.tracer.span("setup", op);
      l = load(run.tracer, in, op);
      run.rep.setup_us.push_back(root.close());
    }
    BatchResult b;
    double batch_us = 0.0;
    {
      auto root = run.tracer.span("op", op);
      auto s = run.tracer.span("verify.run_batch", op);
      b = l.engine->run_batch(l.spec->invariants);
      batch_us = s.close();
      run.record_op(i, root.close(), b.results.size());
    }
    add_batch(run.rep.engine, b, batch_us);
    ReplayVerdicts replay;
    if (run.traced(i)) replay = replay_fresh(run, in, op);
    if (in.expected.empty()) {
      deferred.push_back(Deferred{std::move(in), outcomes_of(b), replay});
      continue;
    }
    run.maybe_flip(in.expected);
    judge_op(run.rep, outcomes_of(b), in.expected, run.cfg.workload);
    run.check_replay(replay, in.expected, run.cfg.workload);
  }
  run.tracer.set_enabled(false);
  std::unordered_map<std::string, std::vector<Outcome>> references;
  for (std::size_t i = 0; i < deferred.size(); ++i) {
    const Input& in = deferred[i].input;
    auto it = references.find(in.text);
    if (it == references.end()) {
      it = references.emplace(in.text, reference_verdicts(in)).first;
    }
    std::vector<Outcome> reference = it->second;
    if (i == 0) run.maybe_flip(reference);
    const std::string what = run.cfg.workload + " op " + std::to_string(i);
    judge_op(run.rep, deferred[i].outcomes, reference, what);
    run.check_replay(deferred[i].replay, reference, what);
  }
  return std::move(run.rep);
}

/// zoo: random specs of default size, judged against reference verdicts.
/// The specs form a fixed population that every run visits in its own
/// seeded order, wrapping around when a run gets through all of them: the
/// specs' costs differ by 30x, so a run drawing its own specs would measure
/// which specs it drew more than the code.
Report run_zoo(Run& run) {
  constexpr std::size_t kPopulation = 128;
  constexpr std::uint64_t kPopulationSeed = 0x200;
  std::vector<std::uint64_t> order(kPopulation);
  for (std::size_t j = 0; j < kPopulation; ++j) {
    order[j] = mix(kPopulationSeed, j);
  }
  vmn::Rng rng(run.cfg.seed);
  std::shuffle(order.begin(), order.end(), rng.engine());
  return run_fresh(run, [&](std::size_t i) {
    vmn::scenarios::RandomSpecParams params;
    params.seed = order[i % kPopulation];
    const vmn::scenarios::RandomSpec rs =
        vmn::scenarios::make_random_spec(params);
    return Input{rs.text, {},
                 vmn::scenarios::derived_max_failures(rs.spec.model)};
  });
}

std::string variant_suffix(std::uint64_t variant) {
  return "_v" + std::to_string(variant % 100000);
}

Report run_estate(Run& run) {
  vmn::scenarios::EnterpriseParams params;
  params.subnets = run.cfg.tiny ? 6 : 200;
  return run_fresh(run, [&](std::size_t i) {
    const std::uint64_t variant = mix(run.cfg.seed, i);
    vmn::scenarios::Enterprise e = vmn::scenarios::make_enterprise(params);
    return make_input(std::move(e.model), e.invariants, e.expected_holds, 0,
                      variant, variant_suffix(variant));
  });
}

Report run_isolation(Run& run) {
  vmn::scenarios::DatacenterParams params;
  params.policy_groups = run.cfg.tiny ? 2 : 6;
  params.with_storage = true;
  return run_fresh(run, [&](std::size_t i) {
    const std::uint64_t variant = mix(run.cfg.seed, i);
    vmn::scenarios::Datacenter dc = vmn::scenarios::make_datacenter(params);
    std::vector<Invariant> invariants = dc.isolation_invariants();
    std::vector<bool> holds = dc.batch().expected_holds;
    for (const Invariant& inv : dc.data_isolation_invariants()) {
      invariants.push_back(inv);
      holds.push_back(true);  // no cache ACL was deleted
    }
    return make_input(std::move(dc.model), invariants, holds, 0, variant,
                      variant_suffix(variant));
  });
}

// ---------------------------------------------------------------------------
// reload: a serve daemon core re-verifying a sequence of spec edits.

/// The datacenter a reload serves: clean, or with one pair's deny rules
/// deleted from both firewalls (`break_seed` picks the pair), renamed to
/// generation `gen`. Isolation plus traversal invariants, failure budget 1.
Input reload_input(int groups, bool broken, std::uint64_t break_seed,
                   std::uint64_t gen) {
  vmn::scenarios::DatacenterParams params;
  params.policy_groups = groups;
  vmn::scenarios::Datacenter dc = vmn::scenarios::make_datacenter(params);
  if (broken) {
    vmn::Rng rng(break_seed);
    vmn::scenarios::inject_misconfig(dc, vmn::scenarios::DcMisconfig::rules,
                                     rng, 1);
  }
  std::vector<Invariant> invariants = dc.isolation_invariants();
  std::vector<bool> holds = dc.batch().expected_holds;
  for (const Invariant& inv : dc.traversal_invariants()) {
    invariants.push_back(inv);
    holds.push_back(true);  // deleted deny rules leave the IDPS chain intact
  }
  // The invariant order stays fixed across edits: a reload that only
  // reorders invariants is not an edit this workload means to time.
  return make_input(std::move(dc.model), invariants, holds, 1, 0,
                    gen == 0 ? "" : "_g" + std::to_string(gen));
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// The replay's own warm state: the spec it last saw and an Engine with a
/// memory cache, rebound per edit like the daemon's.
struct ReloadReplay {
  std::unique_ptr<vmn::io::Spec> spec;
  std::unique_ptr<Engine> engine;
};

ReplayVerdicts replay_reload(Run& run, ReloadReplay& replay, const Input& in,
                             long op) {
  Tracer& tracer = run.tracer;
  auto root = tracer.span("replay", op);
  std::unique_ptr<vmn::io::Spec> next;
  {
    auto s = tracer.span("io.parse", op);
    next = std::make_unique<vmn::io::Spec>(vmn::io::parse_spec_string(in.text));
  }
  {
    auto s = tracer.span("io.diff", op);
    (void)vmn::io::diff_specs(*replay.spec, *next);
  }
  {
    auto s = tracer.span("verify.engine", op);
    replay.engine->rebind(next->model);
    replay.spec = std::move(next);
  }
  {
    auto s = tracer.span("slice.classes", op);
    (void)replay.engine->policy_classes();
  }
  vmn::verify::JobPlan plan;
  {
    auto s = tracer.span("slice.plan", op);
    plan = replay.engine->plan(replay.spec->invariants);
  }
  ReplayTotals& totals = run.rep.replay;
  ++totals.ops;
  totals.invariants += replay.spec->invariants.size();
  totals.solver_jobs += plan.jobs.size();
  totals.transfer_builds += plan.transfer_builds;
  return replay_jobs(run, replay.spec->model, replay.spec->invariants.size(),
                     plan, in.max_failures, &replay.engine->cache(), op);
}

Report run_reload(Run& run) {
  const int groups = run.cfg.tiny ? 4 : 16;
  const std::string path = run.cfg.work_dir + "/reload.vmn";
  const std::string setup_path = run.cfg.work_dir + "/reload-setup.vmn";
  const Input clean = reload_input(groups, false, 0, 0);
  write_file(path, clean.text);
  write_file(setup_path, clean.text);

  // Set-up samples: the served state's own load, then every eighth
  // operation one more load of the clean spec into a throwaway daemon core,
  // so the samples spread over the run like the operations.
  auto load_sample = [&](const std::string& spec_path, long op) {
    vmn::verify::ServeOptions sopts;
    sopts.spec_path = spec_path;
    sopts.engine = engine_options(clean.max_failures);
    std::unique_ptr<vmn::verify::ServeState> loaded;
    auto root = run.tracer.span("setup", op);
    {
      auto s = run.tracer.span("serve.load", op);
      loaded = std::make_unique<vmn::verify::ServeState>(sopts);
    }
    run.rep.setup_us.push_back(root.close());
    return loaded;
  };
  std::unique_ptr<vmn::verify::ServeState> state = load_sample(path, -1);
  std::vector<Outcome> initial = clean.expected;
  run.maybe_flip(initial);
  {
    Report probe;
    judge_op(probe, outcomes_of(state->last_batch()), initial, "reload load");
    if (!probe.correct) run.rep.fail(probe.first_error);
  }

  ReloadReplay replay;
  if (run.cfg.trace) {
    // Warm the replay's engine and cache on the initial generation, as the
    // daemon's were warmed by its initial load; not recorded.
    run.tracer.set_enabled(false);
    replay.spec =
        std::make_unique<vmn::io::Spec>(vmn::io::parse_spec_string(clean.text));
    vmn::verify::EngineOptions eo = engine_options(clean.max_failures);
    eo.memory_cache = true;
    replay.engine = std::make_unique<Engine>(replay.spec->model, eo);
    (void)replay.engine->policy_classes();
    (void)replay_jobs(run, replay.spec->model, replay.spec->invariants.size(),
                      replay.engine->plan(replay.spec->invariants),
                      clean.max_failures, &replay.engine->cache(), -1);
    run.rep.replay = ReplayTotals{};
  }

  // The edits cycle through: break a seeded pair, revert it, rename every
  // node, rename again. Every edit changes the served spec; a fixed cycle
  // keeps the share of each kind of edit the same in every run.
  bool broken = false;
  std::uint64_t break_seed = 0;
  std::uint64_t gen = 0;
  run.start_clock();
  for (std::size_t i = 0; run.more(i); ++i) {
    const long op = static_cast<long>(i);
    switch (i % 4) {
      case 0:
        broken = true;
        break_seed = mix(run.cfg.seed, i);
        break;
      case 1:
        broken = false;
        break;
      default:
        gen = i;
        break;
    }
    const Input in = reload_input(groups, broken, break_seed, gen);
    write_file(path, in.text);
    run.tracer.set_enabled(run.traced(i));
    if (i % 8 == 7) (void)load_sample(setup_path, op);
    std::string response;
    double reload_us = 0.0;
    {
      auto root = run.tracer.span("op", op);
      auto s = run.tracer.span("serve.reload", op);
      response = state->handle_line("RELOAD");
      reload_us = s.close();
      run.record_op(i, root.close(), state->last_batch().results.size());
    }
    add_batch(run.rep.engine, state->last_batch(), reload_us);
    const std::string what = "reload " + std::to_string(i);
    if (response.rfind("OK reloaded", 0) != 0) {
      ++run.rep.ops;
      ++run.rep.failed_ops;
      run.rep.fail(what + ": " + response);
      continue;
    }
    judge_op(run.rep, outcomes_of(state->last_batch()), in.expected, what);
    if (run.traced(i)) {
      run.check_replay(replay_reload(run, replay, in, op), in.expected, what);
    }
  }
  run.tracer.set_enabled(false);
  std::remove(path.c_str());
  std::remove(setup_path.c_str());
  return std::move(run.rep);
}

}  // namespace

Report run_workload(const Config& config, Tracer& tracer) {
  Run run(config, tracer);
  if (config.workload == "zoo") return run_zoo(run);
  if (config.workload == "estate") return run_estate(run);
  if (config.workload == "reload") return run_reload(run);
  if (config.workload == "isolation") return run_isolation(run);
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace vmnbench
