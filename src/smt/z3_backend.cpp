// Z3 backend: translates the logic IR into z3::expr and extracts event
// traces from satisfying models.
#include <z3++.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "smt/model.hpp"
#include "smt/solver.hpp"

namespace vmn::smt {

namespace {

using logic::FuncDecl;
using logic::FuncDeclPtr;
using logic::Sort;
using logic::SortPtr;
using logic::Term;
using logic::TermKind;
using logic::TermPtr;

/// Wall-clock backstop for one Z3 check. Z3's own "timeout" parameter can
/// be lost: its timer thread sometimes misses the wake-up that arms it
/// (seen with Z3 4.8.12 on the first timed check of a process), and a
/// check whose timer is lost runs unbounded - forever on a quantified
/// problem MBQI cannot close. The watchdog interrupts the context once the
/// deadline passes, then again every kRetry until the check returns,
/// because an interrupt that lands before Z3 has installed its cancel
/// handler is dropped. An interrupted check reports unknown, as a
/// timed-out one does. `fired` is set once the watchdog has interrupted;
/// read it after the destructor has run.
class Watchdog {
 public:
  static constexpr std::chrono::milliseconds kRetry{10};

  Watchdog(z3::context& ctx, std::chrono::steady_clock::time_point deadline,
           bool& fired)
      : thread_([this, &ctx, deadline, &fired] {
          run(ctx, deadline, fired);
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void run(z3::context& ctx, std::chrono::steady_clock::time_point when,
           bool& fired) {
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_until(lk, when, [this] { return done_; })) {
      fired = true;
      ctx.interrupt();
      when = std::chrono::steady_clock::now() + kRetry;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  ///< last: starts once the members it reads exist
};

/// Every solver runs on Z3's bare incremental SMT kernel. The default
/// z3::solver is a tactic-based combined solver whose first check() sets up
/// tactics the verifier never uses (it pushes before every check, which
/// already routes that solver to the same kernel); that set-up costs more
/// than a small sliced check and serialises across worker threads.
z3::solver smt_kernel(z3::context& ctx) {
  return z3::solver(ctx, z3::solver::simple());
}

class Z3Solver final : public Solver {
 public:
  Z3Solver(const logic::Vocab& vocab, SolverOptions options)
      : vocab_(&vocab), options_(options), solver_(smt_kernel(ctx_)) {
    z3::params p(ctx_);
    p.set("timeout", options_.timeout_ms);
    if (options_.seed != 0) {
      p.set("random_seed", options_.seed);
    }
    solver_.set(p);
  }

  void add(const TermPtr& axiom) override {
    if (!axiom->is_bool()) {
      throw SolverError("assertions must be boolean terms");
    }
    solver_.add(translate(axiom));
    ++assertions_;
  }

  void push() override {
    solver_.push();
    assertion_stack_.push_back(assertions_);
  }

  void pop() override {
    if (assertion_stack_.empty()) {
      throw SolverError("pop without a matching push");
    }
    solver_.pop();
    assertions_ = assertion_stack_.back();
    assertion_stack_.pop_back();
    have_model_ = false;  // the model belonged to the popped scope
  }

  CheckStatus check() override {
    const auto start = std::chrono::steady_clock::now();
    z3::check_result r = z3::unknown;
    const std::uint32_t ms = options_.timeout_ms;
    if (ms == 0 || ms == std::numeric_limits<std::uint32_t>::max()) {
      r = solver_.check();  // Z3 reads both as "no time limit"
    } else {
      bool interrupted = false;
      {
        const Watchdog watchdog(ctx_, start + std::chrono::milliseconds(ms),
                                interrupted);
        r = solver_.check();
      }
      // An interrupt that lands after the check returned leaves the whole
      // context cancelled (push, eval and simplify throw) until the next
      // check, which clears it: run one on an empty solver.
      if (interrupted) (void)smt_kernel(ctx_).check();
    }
    last_time_ = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    switch (r) {
      case z3::sat:
        have_model_ = true;
        return CheckStatus::sat;
      case z3::unsat:
        have_model_ = false;
        return CheckStatus::unsat;
      default:
        have_model_ = false;
        return CheckStatus::unknown;
    }
  }

  [[nodiscard]] SmtModel model() const override {
    if (!have_model_) {
      throw SolverError("model() requires a prior sat result");
    }
    z3::model m = solver_.get_model();
    SmtModel out;
    const std::vector<z3::expr> packets = packet_universe(m);
    for (const z3::expr& p : packets) {
      ModelPacket mp;
      mp.label = p.to_string();
      out.packets.push_back(std::move(mp));
    }
    fill_packet_fields(m, packets, out);

    // Events are read by probing ground atoms (probe_events_dense): MBQI
    // models give snd/rcv a symbolic `else` body that only evaluation can
    // read, and an entries-over-false table is just the case where every
    // unnamed cell closes.
    probe_events_dense(m, packets, out);
    return out;
  }

  [[nodiscard]] std::chrono::milliseconds last_check_time() const override {
    return last_time_;
  }

  [[nodiscard]] std::size_t assertion_count() const override {
    return assertions_;
  }

 private:
  // -- sort / declaration translation --------------------------------------
  z3::sort z3_sort(const SortPtr& s) {
    switch (s->kind()) {
      case Sort::Kind::boolean:
        return ctx_.bool_sort();
      case Sort::Kind::integer:
        return ctx_.int_sort();
      case Sort::Kind::uninterpreted: {
        auto it = usorts_.find(s->name());
        if (it != usorts_.end()) return it->second;
        z3::sort zs = ctx_.uninterpreted_sort(s->name().c_str());
        usorts_.emplace(s->name(), zs);
        return zs;
      }
      case Sort::Kind::finite: {
        auto it = esorts_.find(s->name());
        if (it != esorts_.end()) return it->second.sort;
        std::vector<const char*> names;
        names.reserve(s->size());
        for (const auto& e : s->elements()) names.push_back(e.c_str());
        EnumSort es{ctx_, z3::func_decl_vector(ctx_),
                    z3::func_decl_vector(ctx_)};
        es.sort = ctx_.enumeration_sort(s->name().c_str(),
                                        static_cast<unsigned>(names.size()),
                                        names.data(), es.consts, es.testers);
        auto [pos, _] = esorts_.emplace(s->name(), std::move(es));
        return pos->second.sort;
      }
    }
    throw SolverError("unknown sort kind");
  }

  z3::func_decl z3_func(const FuncDeclPtr& f) {
    auto it = funcs_.find(f.get());
    if (it != funcs_.end()) return it->second;
    z3::sort_vector domain(ctx_);
    for (const auto& d : f->domain()) domain.push_back(z3_sort(d));
    z3::func_decl zf = ctx_.function(f->name().c_str(), domain,
                                     z3_sort(f->range()));
    funcs_.emplace(f.get(), zf);
    return zf;
  }

  z3::expr enum_const(const SortPtr& s, std::size_t index) {
    z3_sort(s);  // ensure interned
    return esorts_.at(s->name()).consts[static_cast<unsigned>(index)]();
  }

  // -- term translation -----------------------------------------------------
  z3::expr translate(const TermPtr& t) {
    auto it = cache_.find(t->id());
    if (it != cache_.end()) return it->second;
    z3::expr e = translate_uncached(t);
    cache_.emplace(t->id(), e);
    return e;
  }

  z3::expr translate_uncached(const TermPtr& t) {
    switch (t->kind()) {
      case TermKind::bool_const:
        return ctx_.bool_val(t->bool_value());
      case TermKind::int_const:
        return ctx_.int_val(static_cast<std::int64_t>(t->int_value()));
      case TermKind::enum_const:
        return enum_const(t->sort(), t->enum_index());
      case TermKind::variable:
        return ctx_.constant(t->var_name().c_str(), z3_sort(t->sort()));
      case TermKind::app: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3_func(t->decl())(args);
      }
      case TermKind::not_op:
        return !translate(t->children()[0]);
      case TermKind::and_op: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3::mk_and(args);
      }
      case TermKind::or_op: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3::mk_or(args);
      }
      case TermKind::implies_op:
        return z3::implies(translate(t->children()[0]),
                           translate(t->children()[1]));
      case TermKind::iff_op:
        return translate(t->children()[0]) == translate(t->children()[1]);
      case TermKind::ite_op:
        return z3::ite(translate(t->children()[0]), translate(t->children()[1]),
                       translate(t->children()[2]));
      case TermKind::eq_op:
        return translate(t->children()[0]) == translate(t->children()[1]);
      case TermKind::distinct_op: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3::distinct(args);
      }
      case TermKind::lt_op:
        return translate(t->children()[0]) < translate(t->children()[1]);
      case TermKind::le_op:
        return translate(t->children()[0]) <= translate(t->children()[1]);
      case TermKind::add_op:
        return translate(t->children()[0]) + translate(t->children()[1]);
      case TermKind::sub_op:
        return translate(t->children()[0]) - translate(t->children()[1]);
      case TermKind::forall_op:
      case TermKind::exists_op: {
        z3::expr_vector vars(ctx_);
        for (const auto& v : t->binders()) vars.push_back(translate(v));
        z3::expr body = translate(t->children()[0]);
        return t->kind() == TermKind::forall_op ? z3::forall(vars, body)
                                                : z3::exists(vars, body);
      }
    }
    throw SolverError("unknown term kind");
  }

  // -- model extraction ------------------------------------------------------
  z3::expr node_expr(std::size_t index) const {
    return esorts_.at(vocab_->node_sort()->name())
        .consts[static_cast<unsigned>(index)]();
  }

  /// Node-constant ast id -> node index. Z3 hash-conses ASTs, so a model
  /// value that denotes node i is pointer-identical to node_expr(i).
  std::unordered_map<unsigned, std::size_t> node_ids() const {
    std::unordered_map<unsigned, std::size_t> node_of;
    const std::size_t node_count = vocab_->node_sort()->size();
    for (std::size_t i = 0; i < node_count; ++i) {
      node_of.emplace(node_expr(i).id(), i);
    }
    return node_of;
  }

  /// Which node cells the relation `decl` can be true at in `m`: cell
  /// from * |Node| + to for the 4-ary snd/rcv (node_args == 2), cell n for
  /// the 2-ary fail (node_args == 1). A cell is closed only when no entry
  /// of the interpretation names it and the `else` body, with the cell's
  /// node constants substituted for its leading variables, simplifies to
  /// literally false - then every atom over that cell evaluates to false.
  /// Any other shape (no interpretation, a null `else`, an entry argument
  /// that is not a node constant, a Z3 exception) leaves every cell open.
  std::vector<bool> open_cells(const z3::model& m, const z3::func_decl& decl,
                               unsigned node_args) const {
    const auto node_of = node_ids();
    const std::size_t node_count = vocab_->node_sort()->size();
    const std::size_t cells = node_args == 2 ? node_count * node_count
                                             : node_count;
    std::vector<bool> open(cells, true);
    try {
      if (!m.has_interp(decl)) return open;
      z3::func_interp fi = m.get_func_interp(decl);
      z3::expr els = fi.else_value();
      if (static_cast<Z3_ast>(els) == nullptr) return open;
      std::vector<bool> named(cells, false);
      for (unsigned j = 0; j < fi.num_entries(); ++j) {
        z3::func_entry entry = fi.entry(j);
        std::size_t cell = 0;
        for (unsigned k = 0; k < node_args; ++k) {
          auto it = node_of.find(entry.arg(k).id());
          if (it == node_of.end()) return open;
          cell = cell * node_count + it->second;
        }
        named[cell] = true;
      }
      for (std::size_t cell = 0; cell < cells; ++cell) {
        if (named[cell]) continue;
        // Variable k becomes the cell's k-th node constant; the remaining
        // (packet, time) variables stay free.
        z3::expr_vector subst(ctx_);
        if (node_args == 2) {
          subst.push_back(node_expr(cell / node_count));
          subst.push_back(node_expr(cell % node_count));
        } else {
          subst.push_back(node_expr(cell));
        }
        for (unsigned k = node_args; k < decl.arity(); ++k) {
          subst.push_back(
              z3::expr(ctx_, Z3_mk_bound(ctx_, k, decl.domain(k))));
        }
        if (els.substitute(subst).simplify().is_false()) open[cell] = false;
      }
      return open;
    } catch (const z3::exception&) {
      return std::vector<bool>(cells, true);
    }
  }

  /// Reads every event: enumerate ground atoms - all node pairs, the
  /// Packet universe, and candidate times harvested from the model itself -
  /// and m.eval each (quantified models may interpret snd/rcv as formula
  /// bodies rather than entry lists, which only evaluation can read).
  /// Cells that open_cells() rules out are skipped without evaluation;
  /// every atom evaluated gets the answer the unpruned grid would give.
  void probe_events_dense(const z3::model& m,
                          const std::vector<z3::expr>& packets,
                          SmtModel& out) const {
    const std::vector<std::int64_t> times = candidate_times(m);
    const std::size_t node_count = vocab_->node_sort()->size();

    auto snd_it = funcs_.find(vocab_->snd().get());
    auto rcv_it = funcs_.find(vocab_->rcv().get());
    const std::vector<bool> snd_open =
        snd_it == funcs_.end() ? std::vector<bool>{}
                               : open_cells(m, snd_it->second, 2);
    const std::vector<bool> rcv_open =
        rcv_it == funcs_.end() ? std::vector<bool>{}
                               : open_cells(m, rcv_it->second, 2);
    for (std::size_t from = 0; from < node_count; ++from) {
      for (std::size_t to = 0; to < node_count; ++to) {
        const std::size_t cell = from * node_count + to;
        const bool snd_here = !snd_open.empty() && snd_open[cell];
        const bool rcv_here = !rcv_open.empty() && rcv_open[cell];
        if (!snd_here && !rcv_here) continue;
        for (std::size_t pi = 0; pi < packets.size(); ++pi) {
          for (std::int64_t t : times) {
            auto probe = [&](EventKind kind,
                             const z3::func_decl& decl) {
              z3::expr atom =
                  decl(node_expr(from), node_expr(to), packets[pi],
                       ctx_.int_val(static_cast<std::int64_t>(t)));
              if (m.eval(atom, true).is_true()) {
                out.events.push_back(ModelEvent{kind, from, to, pi, t});
              }
            };
            if (snd_here) probe(EventKind::send, snd_it->second);
            if (rcv_here) probe(EventKind::receive, rcv_it->second);
          }
        }
      }
    }
    auto fail_it = funcs_.find(vocab_->fail().get());
    if (fail_it != funcs_.end()) {
      const std::vector<bool> fail_open = open_cells(m, fail_it->second, 1);
      for (std::size_t n = 0; n < node_count; ++n) {
        if (!fail_open[n]) continue;
        for (std::int64_t t : times) {
          z3::expr atom = fail_it->second(
              node_expr(n), ctx_.int_val(static_cast<std::int64_t>(t)));
          if (m.eval(atom, true).is_true()) {
            out.events.push_back(ModelEvent{EventKind::fail, n, n, 0, t});
            break;  // one fail event per node is enough for the trace
          }
        }
      }
    }
  }

  /// Elements of the (finite-in-the-model) Packet universe. Uses the C API:
  /// the z3::model wrapper in this Z3 version does not expose universes.
  std::vector<z3::expr> packet_universe(const z3::model& m) const {
    std::vector<z3::expr> out;
    auto it = usorts_.find(vocab_->packet_sort()->name());
    if (it == usorts_.end()) return out;
    const unsigned n = Z3_model_get_num_sorts(ctx_, m);
    for (unsigned i = 0; i < n; ++i) {
      z3::sort s(ctx_, Z3_model_get_sort(ctx_, m, i));
      if (z3::eq(s, it->second)) {
        z3::expr_vector univ(ctx_, Z3_model_get_sort_universe(ctx_, m, s));
        for (unsigned j = 0; j < univ.size(); ++j) out.push_back(univ[j]);
        return out;
      }
    }
    return out;
  }

  /// Integer numerals mentioned anywhere in the model's function bodies and
  /// constant values - the only times at which events can be true.
  std::vector<std::int64_t> candidate_times(const z3::model& m) const {
    std::set<std::int64_t> times;
    times.insert(0);
    std::set<unsigned> seen;
    std::function<void(const z3::expr&)> walk = [&](const z3::expr& e) {
      if (!seen.insert(e.id()).second) return;
      if (e.is_numeral() && e.is_int()) {
        std::int64_t v = 0;
        if (e.is_numeral_i64(v) && v >= 0 && v < (1 << 20)) times.insert(v);
      }
      if (e.is_app()) {
        for (unsigned i = 0; i < e.num_args(); ++i) walk(e.arg(i));
      }
    };
    for (unsigned i = 0; i < m.num_consts(); ++i) {
      walk(m.get_const_interp(m.get_const_decl(i)));
    }
    for (unsigned i = 0; i < m.num_funcs(); ++i) {
      z3::func_interp fi = m.get_func_interp(m.get_func_decl(i));
      walk(fi.else_value());
      for (unsigned j = 0; j < fi.num_entries(); ++j) {
        z3::func_entry entry = fi.entry(j);
        walk(entry.value());
        for (unsigned k = 0; k < entry.num_args(); ++k) walk(entry.arg(k));
      }
    }
    return {times.begin(), times.end()};
  }

  void fill_packet_fields(const z3::model& m,
                          const std::vector<z3::expr>& packets,
                          SmtModel& out) const {
    auto eval_int = [&](const FuncDeclPtr& f, const z3::expr& p) {
      auto it = funcs_.find(f.get());
      if (it == funcs_.end()) return std::int64_t{0};
      z3::expr v = m.eval(it->second(p), /*model_completion=*/true);
      std::int64_t value = 0;
      if (v.is_numeral()) (void)v.is_numeral_i64(value);
      return value;
    };
    auto eval_bool = [&](const FuncDeclPtr& f, const z3::expr& p) {
      auto it = funcs_.find(f.get());
      if (it == funcs_.end()) return false;
      return m.eval(it->second(p), true).is_true();
    };
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const z3::expr& p = packets[i];
      ModelPacket& mp = out.packets[i];
      mp.src = eval_int(vocab_->src(), p);
      mp.dst = eval_int(vocab_->dst(), p);
      mp.src_port = eval_int(vocab_->src_port(), p);
      mp.dst_port = eval_int(vocab_->dst_port(), p);
      mp.origin = eval_int(vocab_->origin(), p);
      mp.malicious = eval_bool(vocab_->malicious(), p);
      mp.app_class = eval_int(vocab_->app_class(), p);
    }
  }

  struct EnumSort {
    z3::context& ctx;
    z3::func_decl_vector consts;
    z3::func_decl_vector testers;
    z3::sort sort{ctx};
  };

  const logic::Vocab* vocab_;
  SolverOptions options_;
  /// The Z3 context is internally synchronized state shared by every
  /// expression; model extraction (a const operation) still builds probe
  /// terms through it.
  mutable z3::context ctx_;
  z3::solver solver_;
  std::unordered_map<std::string, z3::sort> usorts_;
  std::unordered_map<std::string, EnumSort> esorts_;
  std::unordered_map<const FuncDecl*, z3::func_decl> funcs_;
  std::unordered_map<std::uint64_t, z3::expr> cache_;
  std::chrono::milliseconds last_time_{0};
  std::size_t assertions_ = 0;
  /// assertion_count() snapshots for the open push() scopes.
  std::vector<std::size_t> assertion_stack_;
  bool have_model_ = false;
};

}  // namespace

std::unique_ptr<Solver> make_z3_solver(const logic::Vocab& vocab,
                                       SolverOptions options) {
  return std::make_unique<Z3Solver>(vocab, options);
}

}  // namespace vmn::smt
