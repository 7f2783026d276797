// Tests for the Z3 backend: translation of every term kind, quantified
// axioms, sat/unsat outcomes, and model extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "core/error.hpp"
#include "logic/builder.hpp"
#include "smt/solver.hpp"

namespace vmn::smt {
namespace {

namespace l = vmn::logic;

class SmtTest : public ::testing::Test {
 protected:
  SmtTest() : vocab(f, {"A", "B", "OMEGA"}) {}

  std::unique_ptr<Solver> solver() { return make_z3_solver(vocab); }

  l::TermFactory f;
  l::Vocab vocab;
};

TEST_F(SmtTest, TrivialSatAndUnsat) {
  auto s1 = solver();
  s1->add(f.bool_val(true));
  EXPECT_EQ(s1->check(), CheckStatus::sat);

  auto s2 = solver();
  s2->add(f.bool_val(false));
  EXPECT_EQ(s2->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, ArithmeticAndComparisons) {
  auto s = solver();
  l::TermPtr x = f.var("x", l::Sort::integer());
  s->add(f.lt(f.int_val(3), x));
  s->add(f.lt(x, f.int_val(5)));
  EXPECT_EQ(s->check(), CheckStatus::sat);  // x = 4
  s->add(f.neq(x, f.int_val(4)));
  EXPECT_EQ(s->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, AddSubIteDistinct) {
  auto s = solver();
  l::TermPtr x = f.var("x", l::Sort::integer());
  l::TermPtr y = f.var("y", l::Sort::integer());
  s->add(f.eq(f.add(x, y), f.int_val(10)));
  s->add(f.eq(f.sub(x, y), f.int_val(4)));
  s->add(f.distinct({x, y}));
  s->add(f.eq(f.ite(f.lt(x, y), f.int_val(1), f.int_val(2)), f.int_val(2)));
  EXPECT_EQ(s->check(), CheckStatus::sat);  // x=7, y=3
}

TEST_F(SmtTest, EnumSortsAreFinite) {
  auto s = solver();
  l::TermPtr n = f.var("n", vocab.node_sort());
  s->add(f.neq(n, vocab.node_const("A")));
  s->add(f.neq(n, vocab.node_const("B")));
  s->add(f.neq(n, vocab.node_const("OMEGA")));
  EXPECT_EQ(s->check(), CheckStatus::unsat);  // only three elements
}

TEST_F(SmtTest, IffAndImplies) {
  auto s = solver();
  l::TermPtr p = f.var("p", l::Sort::boolean());
  l::TermPtr q = f.var("q", l::Sort::boolean());
  s->add(f.iff(p, f.not_(q)));
  s->add(f.implies(p, q));
  s->add(p);
  EXPECT_EQ(s->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, QuantifiedChannelAxiomUnsat) {
  // rcv requires an earlier snd; if nothing was ever sent to B, B cannot
  // have received - modeled as a quantified axiom plus a negative fact.
  auto s = solver();
  l::TermPtr a = f.fresh_var("a", vocab.node_sort());
  l::TermPtr b = f.fresh_var("b", vocab.node_sort());
  l::TermPtr p = f.fresh_var("p", vocab.packet_sort());
  l::TermPtr t = f.fresh_var("t", l::Sort::integer());
  l::TermPtr t1 = f.fresh_var("t", l::Sort::integer());
  s->add(f.forall({a, b, p, t},
                  f.implies(vocab.rcv_at(a, b, p, t),
                            f.exists({t1}, f.and_(f.lt(t1, t),
                                                  vocab.snd_at(a, b, p, t1))))));
  l::TermPtr n2 = f.fresh_var("n", vocab.node_sort());
  l::TermPtr p2 = f.fresh_var("p", vocab.packet_sort());
  l::TermPtr t2 = f.fresh_var("t", l::Sort::integer());
  s->add(f.forall({n2, p2, t2},
                  f.not_(vocab.snd_at(n2, vocab.node_const("B"), p2, t2))));
  // Claim: B received something. Must be unsatisfiable.
  l::TermPtr wp = f.var("wp", vocab.packet_sort());
  l::TermPtr wt = f.var("wt", l::Sort::integer());
  l::TermPtr wn = f.var("wn", vocab.node_sort());
  s->add(vocab.rcv_at(wn, vocab.node_const("B"), wp, wt));
  EXPECT_EQ(s->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, ModelExtractionFindsEvents) {
  auto s = solver();
  l::TermPtr wp = f.var("wp", vocab.packet_sort());
  s->add(vocab.rcv_at(vocab.node_const("OMEGA"), vocab.node_const("B"), wp,
                      f.int_val(5)));
  s->add(f.eq(f.app(vocab.src(), {wp}), f.int_val(1234)));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  SmtModel m = s->model();
  ASSERT_EQ(m.packets.size(), 1u);
  EXPECT_EQ(m.packets[0].src, 1234);
  // The model must expose a reception at B (Z3 may make the unconstrained
  // relation true at more instants than the asserted one).
  bool found = false;
  for (const ModelEvent& ev : m.events) {
    if (ev.kind == EventKind::receive && ev.to == 1 /* B */) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(SmtTest, FormulaShapedInterpretationsYieldExactEvents) {
  // Quantified axioms make Z3 interpret snd by a symbolic `else` body
  // rather than an entry list, so extraction takes the probe path, which
  // skips node pairs the body rules out. The events must still be exactly
  // the atoms the axioms force: a send A->B from time 2 on and one receive
  // B->A at time 5, at no other node pair.
  auto s = solver();
  l::TermPtr a = f.fresh_var("a", vocab.node_sort());
  l::TermPtr b = f.fresh_var("b", vocab.node_sort());
  l::TermPtr p = f.fresh_var("p", vocab.packet_sort());
  l::TermPtr t = f.fresh_var("t", l::Sort::integer());
  l::TermPtr node_a = vocab.node_const("A");
  l::TermPtr node_b = vocab.node_const("B");
  s->add(f.forall({a, b, p, t},
                  f.iff(vocab.snd_at(a, b, p, t),
                        f.and_({f.eq(a, node_a), f.eq(b, node_b),
                                f.le(f.int_val(2), t)}))));
  s->add(f.forall({a, b, p, t},
                  f.implies(vocab.rcv_at(a, b, p, t),
                            f.and_({f.eq(a, node_b), f.eq(b, node_a),
                                    f.eq(t, f.int_val(5))}))));
  l::TermPtr wp = f.var("wp", vocab.packet_sort());
  s->add(vocab.rcv_at(node_b, node_a, wp, f.int_val(5)));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  SmtModel m = s->model();

  // (kind, from, to) -> earliest time seen.
  std::map<std::tuple<EventKind, std::size_t, std::size_t>, std::int64_t>
      earliest;
  for (const ModelEvent& ev : m.events) {
    auto [it, fresh] =
        earliest.emplace(std::make_tuple(ev.kind, ev.from, ev.to), ev.time);
    if (!fresh) it->second = std::min(it->second, ev.time);
  }
  const std::map<std::tuple<EventKind, std::size_t, std::size_t>,
                 std::int64_t>
      want = {{{EventKind::send, 0 /* A */, 1 /* B */}, 2},
              {{EventKind::receive, 1 /* B */, 0 /* A */}, 5}};
  EXPECT_EQ(earliest, want);
}

TEST_F(SmtTest, EntryListInterpretationsYieldExactEvents) {
  // Quantifier-free ground atoms make Z3 interpret snd/rcv/fail as finite
  // entry lists over a `false` default (the negated atoms outnumber the
  // asserted ones, which tips the default). The probe closes every cell no
  // entry names and harvests the entry times, so the events are exactly
  // the asserted atoms: a send A->B at 3, a receive B->A at 7, OMEGA
  // failing at 4.
  auto s = solver();
  l::TermPtr node_a = vocab.node_const("A");
  l::TermPtr node_b = vocab.node_const("B");
  l::TermPtr omega = vocab.node_const("OMEGA");
  l::TermPtr wp = f.var("wp", vocab.packet_sort());
  s->add(vocab.snd_at(node_a, node_b, wp, f.int_val(3)));
  s->add(f.not_(vocab.snd_at(node_b, node_a, wp, f.int_val(3))));
  s->add(f.not_(vocab.snd_at(node_a, node_a, wp, f.int_val(3))));
  s->add(f.not_(vocab.snd_at(node_a, node_b, wp, f.int_val(2))));
  s->add(vocab.rcv_at(node_b, node_a, wp, f.int_val(7)));
  s->add(f.not_(vocab.rcv_at(node_a, node_b, wp, f.int_val(7))));
  s->add(f.not_(vocab.rcv_at(node_b, node_a, wp, f.int_val(6))));
  s->add(vocab.fail_at(omega, f.int_val(4)));
  s->add(f.not_(vocab.fail_at(node_a, f.int_val(4))));
  s->add(f.not_(vocab.fail_at(node_b, f.int_val(4))));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  SmtModel m = s->model();

  // (kind, from, to) -> earliest time seen.
  std::map<std::tuple<EventKind, std::size_t, std::size_t>, std::int64_t>
      earliest;
  for (const ModelEvent& ev : m.events) {
    auto [it, fresh] =
        earliest.emplace(std::make_tuple(ev.kind, ev.from, ev.to), ev.time);
    if (!fresh) it->second = std::min(it->second, ev.time);
  }
  const std::map<std::tuple<EventKind, std::size_t, std::size_t>,
                 std::int64_t>
      want = {{{EventKind::send, 0 /* A */, 1 /* B */}, 3},
              {{EventKind::receive, 1 /* B */, 0 /* A */}, 7},
              {{EventKind::fail, 2 /* OMEGA */, 2}, 4}};
  EXPECT_EQ(earliest, want);
}

TEST_F(SmtTest, ModelBeforeCheckThrows) {
  auto s = solver();
  EXPECT_THROW((void)s->model(), SolverError);
}

TEST_F(SmtTest, NonBoolAssertionRejected) {
  auto s = solver();
  EXPECT_THROW(s->add(f.int_val(1)), SolverError);
}

TEST_F(SmtTest, AssertionCountTracks) {
  auto s = solver();
  s->add(f.bool_val(true));
  s->add(f.var("p", l::Sort::boolean()));
  EXPECT_EQ(s->assertion_count(), 2u);
}

TEST_F(SmtTest, TimeoutReportsUnknownOrSolves) {
  // A tiny timeout on a non-trivial quantified problem should either give
  // a decisive answer quickly or report unknown - never hang.
  SolverOptions opts;
  opts.timeout_ms = 1;
  auto s = make_z3_solver(vocab, opts);
  l::TermPtr x = f.fresh_var("x", l::Sort::integer());
  l::TermPtr y = f.fresh_var("y", l::Sort::integer());
  l::FuncDeclPtr g = f.func("g", {l::Sort::integer()}, l::Sort::integer());
  s->add(f.forall({x, y}, f.implies(f.lt(x, y), f.lt(f.app(g, {x}),
                                                     f.app(g, {y})))));
  l::TermPtr z = f.var("z", l::Sort::integer());
  s->add(f.lt(f.app(g, {f.app(g, {z})}), f.app(g, {z})));
  CheckStatus st = s->check();
  EXPECT_TRUE(st == CheckStatus::unknown || st == CheckStatus::unsat ||
              st == CheckStatus::sat);
}

TEST_F(SmtTest, TimedOutChecksLeaveTheSolverUsable) {
  // Stopping a check at its deadline must not leave the context
  // cancelled: the warm path pushes, asserts and pops right after.
  SolverOptions opts;
  opts.timeout_ms = 1;
  auto s = make_z3_solver(vocab, opts);
  l::TermPtr x = f.fresh_var("x", l::Sort::integer());
  l::TermPtr y = f.fresh_var("y", l::Sort::integer());
  l::FuncDeclPtr g = f.func("g", {l::Sort::integer()}, l::Sort::integer());
  s->add(f.forall({x, y}, f.implies(f.lt(x, y), f.lt(f.app(g, {x}),
                                                     f.app(g, {y})))));
  l::TermPtr z = f.var("z", l::Sort::integer());
  s->add(f.lt(f.app(g, {f.app(g, {z})}), f.app(g, {z})));
  for (int round = 0; round < 10; ++round) {
    (void)s->check();
    EXPECT_NO_THROW(s->push()) << "round " << round;
    EXPECT_NO_THROW(s->add(f.bool_val(true))) << "round " << round;
    EXPECT_NO_THROW(s->pop()) << "round " << round;
  }
}

TEST_F(SmtTest, StatusToString) {
  EXPECT_EQ(to_string(CheckStatus::sat), "sat");
  EXPECT_EQ(to_string(CheckStatus::unsat), "unsat");
  EXPECT_EQ(to_string(CheckStatus::unknown), "unknown");
}

}  // namespace
}  // namespace vmn::smt
