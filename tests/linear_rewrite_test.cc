#include "transform/linear_rewrite.h"

#include <gtest/gtest.h>

#include "core/canonical.h"
#include "core/pipeline.h"
#include "eval/equivalence.h"
#include "tests/test_util.h"

namespace factlog::transform {
namespace {

using test::A;
using test::P;

struct Prepared {
  analysis::AdornedProgram adorned;
  core::ProgramClassification classification;
};

Prepared Prepare(const ast::Program& p, const ast::Atom& q) {
  auto adorned = analysis::Adorn(p, q);
  EXPECT_TRUE(adorned.ok()) << adorned.status().ToString();
  auto c = core::ClassifyProgram(*adorned);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  return Prepared{std::move(adorned).value(), std::move(c).value()};
}

TEST(LinearRewriteTest, RightLinearTcMatchesPipeline) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  ast::Atom q = A("t(5, Y)");
  Prepared prep = Prepare(p, q);
  auto rewrite = RewriteRightLinear(prep.adorned, prep.classification);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();

  auto pipe = core::OptimizeQuery(p, q);
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(pipe->optimized.has_value());
  // §6.3: the [9] rewriting and Magic+factoring agree program-for-program,
  // once the rewriting also asks ft directly instead of through the query
  // copy rule the §5 cleanups drop.
  ast::Program rewritten = rewrite->program;
  core::InlineQueryCopyRule(&rewritten, nullptr);
  EXPECT_TRUE(core::StructurallyEqual(rewritten, *pipe->optimized))
      << "rewrite:\n" << rewritten.ToString()
      << "pipeline:\n" << pipe->optimized->ToString();
}

TEST(LinearRewriteTest, LeftLinearTcMatchesPipeline) {
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  ast::Atom q = A("t(5, Y)");
  Prepared prep = Prepare(p, q);
  auto rewrite = RewriteLeftLinear(prep.adorned, prep.classification);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  auto pipe = core::OptimizeQuery(p, q);
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(pipe->optimized.has_value());
  ast::Program rewritten = rewrite->program;
  core::InlineQueryCopyRule(&rewritten, nullptr);
  EXPECT_TRUE(core::StructurallyEqual(rewritten, *pipe->optimized))
      << "rewrite:\n" << rewritten.ToString()
      << "pipeline:\n" << pipe->optimized->ToString();
}

TEST(LinearRewriteTest, RewritePreservesAnswers) {
  ast::Program p = P(R"(
    t(X, Y) :- first1(X, U), t(U, Y), right1(Y).
    t(X, Y) :- exit0(X, Y), right1(Y).
  )");
  ast::Atom q = A("t(1, Y)");
  Prepared prep = Prepare(p, q);
  auto rewrite = RewriteRightLinear(prep.adorned, prep.classification);
  ASSERT_TRUE(rewrite.ok());
  eval::DiffTestOptions opts;
  opts.trials = 60;
  auto ce = eval::FindCounterexample(p, q, rewrite->program, rewrite->query,
                                     opts);
  ASSERT_TRUE(ce.ok());
  EXPECT_FALSE(ce->has_value()) << (*ce)->ToString();
}

TEST(LinearRewriteTest, LeftLinearWithLeftConjunctionPreservesAnswers) {
  // Nonempty left conjunction: the rewrite keeps the m/left guard.
  ast::Program p = P(R"(
    t(X, Y) :- l(X), t(X, W), d(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  ast::Atom q = A("t(1, Y)");
  Prepared prep = Prepare(p, q);
  auto rewrite = RewriteLeftLinear(prep.adorned, prep.classification);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  // The recursive rule keeps the goal guard.
  bool guard_present = false;
  for (const ast::Rule& r : rewrite->program.rules()) {
    bool has_l = false, has_ans_body = false;
    for (const ast::Atom& b : r.body()) {
      if (b.predicate() == "l") has_l = true;
      if (b.predicate() == rewrite->answer_name) has_ans_body = true;
    }
    if (has_l && has_ans_body) guard_present = true;
  }
  EXPECT_TRUE(guard_present) << rewrite->program.ToString();
  auto ce = eval::FindCounterexample(p, q, rewrite->program, rewrite->query);
  ASSERT_TRUE(ce.ok());
  EXPECT_FALSE(ce->has_value()) << (*ce)->ToString();
}

TEST(LinearRewriteTest, MultiRuleRightLinear) {
  ast::Program p = P(R"(
    t(X, Y) :- up(X, U), t(U, Y).
    t(X, Y) :- side(X, U), t(U, Y).
    t(X, Y) :- e(X, Y).
  )");
  ast::Atom q = A("t(1, Y)");
  Prepared prep = Prepare(p, q);
  auto rewrite = RewriteRightLinear(prep.adorned, prep.classification);
  ASSERT_TRUE(rewrite.ok());
  // Two goal-chain rules, one per recursive rule.
  int goal_rules = 0;
  for (const ast::Rule& r : rewrite->program.rules()) {
    if (r.head().predicate() == rewrite->goal_name && !r.body().empty()) {
      ++goal_rules;
    }
  }
  EXPECT_EQ(goal_rules, 2);
  auto ce = eval::FindCounterexample(p, q, rewrite->program, rewrite->query);
  ASSERT_TRUE(ce.ok());
  EXPECT_FALSE(ce->has_value());
}

TEST(LinearRewriteTest, WrongShapeRejected) {
  ast::Program left = P(R"(
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  Prepared prep = Prepare(left, A("t(5, Y)"));
  EXPECT_FALSE(RewriteRightLinear(prep.adorned, prep.classification).ok());

  ast::Program right = P(R"(
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  Prepared prep2 = Prepare(right, A("t(5, Y)"));
  EXPECT_FALSE(RewriteLeftLinear(prep2.adorned, prep2.classification).ok());
}

TEST(LinearRewriteTest, MultiLinearLeftRules) {
  // Multiple left-linear occurrences (the "multi-linear" case of [9]).
  ast::Program p = P(R"(
    t(X, Y) :- t(X, U), t(X, V), comb(U, V, Y).
    t(X, Y) :- e(X, Y).
  )");
  ast::Atom q = A("t(1, Y)");
  Prepared prep = Prepare(p, q);
  ASSERT_TRUE(prep.classification.rlc_stable)
      << prep.classification.diagnostic;
  auto rewrite = RewriteLeftLinear(prep.adorned, prep.classification);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  auto ce = eval::FindCounterexample(p, q, rewrite->program, rewrite->query);
  ASSERT_TRUE(ce.ok());
  EXPECT_FALSE(ce->has_value()) << (*ce)->ToString();
}

}  // namespace
}  // namespace factlog::transform
