#include "core/factoring.h"

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "eval/equivalence.h"
#include "eval/seminaive.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"

namespace factlog::core {
namespace {

using test::A;
using test::AddFacts;
using test::P;

FactorSplit Split(const std::string& pred, std::vector<int> p1,
                  std::vector<int> p2, const std::string& n1,
                  const std::string& n2) {
  FactorSplit s;
  s.predicate = pred;
  s.part1 = std::move(p1);
  s.part2 = std::move(p2);
  s.name1 = n1;
  s.name2 = n2;
  return s;
}

TEST(FactoringTest, RewritesHeadsAndBodies) {
  ast::Program p = P(R"(
    t(X, Y) :- m(X), e(X, Y).
    t(X, Y) :- m(X), e(X, W), t(W, Y).
  )");
  auto f = FactorTransform(p, A("t(5, Y)"), Split("t", {0}, {1}, "bt", "ft"));
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  // Each t-rule splits into two; the body occurrence becomes bt, ft.
  ASSERT_EQ(f->program.rules().size(), 5u);  // 2*2 + query rule
  EXPECT_EQ(f->program.rules()[0].ToString(), "bt(X) :- m(X), e(X, Y).");
  EXPECT_EQ(f->program.rules()[1].ToString(), "ft(Y) :- m(X), e(X, Y).");
  EXPECT_EQ(f->program.rules()[2].ToString(),
            "bt(X) :- m(X), e(X, W), bt(W), ft(Y).");
  EXPECT_EQ(f->program.rules()[3].ToString(),
            "ft(Y) :- m(X), e(X, W), bt(W), ft(Y).");
  // Query rewritten through a fresh query rule.
  EXPECT_EQ(f->program.rules()[4].ToString(), "query(Y) :- bt(5), ft(Y).");
  EXPECT_EQ(f->query.ToString(), "query(Y)");
}

TEST(FactoringTest, PredicateNoLongerOccurs) {
  ast::Program p = P("t(X, Y) :- e(X, Y). q(X) :- t(X, X).");
  auto f = FactorTransform(p, A("q(X)"), Split("t", {0}, {1}, "t1", "t2"));
  ASSERT_TRUE(f.ok());
  for (const ast::Rule& r : f->program.rules()) {
    EXPECT_NE(r.head().predicate(), "t");
    for (const ast::Atom& b : r.body()) EXPECT_NE(b.predicate(), "t");
  }
  // Query not on t: unchanged.
  EXPECT_EQ(f->query.ToString(), "q(X)");
}

TEST(FactoringTest, RejectsNonPartitionSplits) {
  ast::Program p = P("t(X, Y, Z) :- e(X, Y, Z).");
  ast::Atom q = A("t(X, Y, Z)");
  // Overlapping parts.
  EXPECT_FALSE(
      FactorTransform(p, q, Split("t", {0, 1}, {1, 2}, "a", "b")).ok());
  // Not covering.
  EXPECT_FALSE(FactorTransform(p, q, Split("t", {0}, {2}, "a", "b")).ok());
  // Trivial (empty part).
  EXPECT_FALSE(
      FactorTransform(p, q, Split("t", {}, {0, 1, 2}, "a", "b")).ok());
  // Out of range.
  EXPECT_FALSE(
      FactorTransform(p, q, Split("t", {0, 3}, {1, 2}, "a", "b")).ok());
  // Unknown predicate.
  EXPECT_FALSE(
      FactorTransform(p, q, Split("zz", {0}, {1}, "a", "b")).ok());
}

TEST(FactoringTest, NamesUniquifiedAgainstProgram) {
  ast::Program p = P("t(X, Y) :- bt(X), e(X, Y).");
  auto f = FactorTransform(p, A("t(5, Y)"), Split("t", {0}, {1}, "bt", "ft"));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->split.name1, "bt_");  // "bt" is taken by the EDB predicate
  EXPECT_EQ(f->split.name2, "ft");
}

TEST(FactoringTest, Theorem31CrossProductIsWrong) {
  // The undecidability construction: factoring t into t1(X) x t2(Y, Z) is
  // invalid when a1 != a2 distinguishes q1 from q2.
  ast::Program p = P(R"(
    t(X, Y, Z) :- a1(X), q1(Y, Z).
    t(X, Y, Z) :- a2(X), q2(Y, Z).
  )");
  ast::Atom q = A("t(X, Y, Z)");
  auto f = FactorTransform(p, q, Split("t", {0}, {1, 2}, "t1", "t2"));
  ASSERT_TRUE(f.ok());
  auto ce = eval::FindCounterexample(p, q, f->program, f->query);
  ASSERT_TRUE(ce.ok());
  ASSERT_TRUE(ce->has_value()) << "expected the cross product to differ";
}

TEST(FactoringTest, Theorem31SecondSplitAlsoWrong) {
  // The other nontrivial split t'1(X, Y) x t'2(Z) from the proof.
  ast::Program p = P(R"(
    t(X, Y, Z) :- a1(X), q1(Y, Z).
    t(X, Y, Z) :- a2(X), q2(Y, Z).
  )");
  ast::Atom q = A("t(X, Y, Z)");
  auto f = FactorTransform(p, q, Split("t", {0, 1}, {2}, "tp1", "tp2"));
  ASSERT_TRUE(f.ok());
  auto ce = eval::FindCounterexample(p, q, f->program, f->query);
  ASSERT_TRUE(ce.ok());
  EXPECT_TRUE(ce->has_value());
}

TEST(FactoringTest, ValidWhenBodiesShareNoCrossConstraints) {
  // t(X, Y) :- a(X), b(Y) genuinely factors into a x b.
  ast::Program p = P("t(X, Y) :- a(X), b(Y).");
  ast::Atom q = A("t(X, Y)");
  auto f = FactorTransform(p, q, Split("t", {0}, {1}, "t1", "t2"));
  ASSERT_TRUE(f.ok());
  auto ce = eval::FindCounterexample(p, q, f->program, f->query);
  ASSERT_TRUE(ce.ok());
  EXPECT_FALSE(ce->has_value()) << (*ce)->ToString();
}

TEST(FactoringTest, Example71RefactoringClaimIsRefuted) {
  // §7.1 claims the optimized factored Magic program of
  //   t(X,Y,Z) :- t(X,U,W), b(U,Y), d(Z).   t(X,Y,Z) :- e(X,Y,Z).
  // with ?- t(5,Y,Z) "can also be factored" on the binary ft into
  // ft1(Y) x ft2(Z), noting that the §4 theorems cannot establish it.
  // REPRODUCTION FINDING: the claim is false as stated. On an EDB where
  // only the exit rule fires, ft holds *correlated* pairs from e while the
  // ft1 x ft2 program computes their full cross product. The randomized
  // falsifier (and the concrete witness below) refutes it; see
  // EXPERIMENTS.md E12.
  ast::Program factored_once = P(R"(
    m(5).
    ft(Y, Z) :- ft(U, W), b(U, Y), d(Z).
    ft(Y, Z) :- m(X), e(X, Y, Z).
    ?- ft(Y, Z).
  )");
  ast::Atom q = A("ft(Y, Z)");
  auto f = FactorTransform(factored_once, q,
                           Split("ft", {0}, {1}, "ft1", "ft2"));
  ASSERT_TRUE(f.ok());
  // Shape matches the paper's §7.1 listing: ft1/ft2 are unary.
  for (const ast::Rule& r : f->program.rules()) {
    if (r.head().predicate() == "ft1" || r.head().predicate() == "ft2") {
      EXPECT_EQ(r.head().arity(), 1u);
    }
  }
  // Concrete witness: exit-only EDB with two correlated pairs.
  eval::Database db;
  AddFacts(&db, "e(5, 1, 2). e(5, 3, 4).");
  auto orig = eval::EvaluateQuery(factored_once, q, &db);
  auto refact = eval::EvaluateQuery(f->program, f->query, &db);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(refact.ok());
  EXPECT_EQ(orig->rows.size(), 2u);    // (1,2), (3,4)
  EXPECT_EQ(refact->rows.size(), 4u);  // plus the spurious (1,4), (3,2)
  // The randomized falsifier finds such EDBs on its own.
  auto ce = eval::FindCounterexample(factored_once, q, f->program, f->query);
  ASSERT_TRUE(ce.ok());
  EXPECT_TRUE(ce->has_value());
}

TEST(FactoringTest, FactoredEvaluationMatchesOnConcreteData) {
  ast::Program p = P("t(X, Y) :- a(X), b(Y).");
  ast::Atom q = A("t(X, Y)");
  auto f = FactorTransform(p, q, Split("t", {0}, {1}, "t1", "t2"));
  ASSERT_TRUE(f.ok());
  eval::Database db;
  AddFacts(&db, "a(1). a(2). b(7).");
  auto orig = eval::EvaluateQuery(p, q, &db);
  auto fact = eval::EvaluateQuery(f->program, f->query, &db);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(fact.ok());
  EXPECT_EQ(orig->rows, fact->rows);
  EXPECT_EQ(orig->rows.size(), 2u);
}

TEST(FactoringTest, LeftLinearTcDerivesNoMoreFactsThanMagic) {
  // Factored left-linear TC keeps one unary ft fact per answer; with the
  // query asking ft directly (no `query(Y) :- ft(Y)` copy) the §5-cleaned
  // program derives exactly the facts the Magic program does on a chain:
  // the seed plus one fact per reachable node.
  ast::Program p = P("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).");
  ast::Atom q = A("t(1, Y)");
  auto factored = CompileQuery(p, q, Strategy::kFactoring);
  auto magic = CompileQuery(p, q, Strategy::kMagic);
  ASSERT_TRUE(factored.ok()) << factored.status().ToString();
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  ASSERT_TRUE(factored->factoring_applied);
  EXPECT_EQ(factored->query.predicate(), "ft");

  constexpr int64_t kNodes = 200;
  eval::Database db;
  workload::MakeChain(kNodes, "e", &db);
  eval::EvalStats factored_stats, magic_stats;
  auto fa = eval::EvaluateQuery(factored->program, factored->query, &db, {},
                                &factored_stats);
  auto ma = eval::EvaluateQuery(magic->program, magic->query, &db, {},
                                &magic_stats);
  ASSERT_TRUE(fa.ok()) << fa.status().ToString();
  ASSERT_TRUE(ma.ok()) << ma.status().ToString();
  EXPECT_EQ(fa->rows.size(), static_cast<size_t>(kNodes - 1));
  EXPECT_EQ(fa->ToString(db.store()), ma->ToString(db.store()));
  EXPECT_EQ(factored_stats.total_facts, magic_stats.total_facts);
  EXPECT_EQ(factored_stats.total_facts, static_cast<uint64_t>(kNodes));
}

}  // namespace
}  // namespace factlog::core
