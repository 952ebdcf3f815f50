#include "transform/counting.h"

#include <gtest/gtest.h>

#include "core/canonical.h"
#include "core/optimizations.h"
#include "core/pipeline.h"
#include "eval/seminaive.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"

namespace factlog::transform {
namespace {

using test::A;
using test::P;

Result<CountingProgram> Counting(const ast::Program& p, const ast::Atom& q) {
  auto adorned = analysis::Adorn(p, q);
  if (!adorned.ok()) return adorned.status();
  auto c = core::ClassifyProgram(*adorned);
  if (!c.ok()) return c.status();
  return CountingTransform(*adorned, *c);
}

const char kRightTc[] = R"(
  t(X, Y) :- e(X, W), t(W, Y).
  t(X, Y) :- e(X, Y).
)";

const char kLeftTc[] = R"(
  t(X, Y) :- t(X, W), e(W, Y).
  t(X, Y) :- e(X, Y).
)";

TEST(CountingTest, RightLinearComputesCorrectAnswersOnChain) {
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  eval::Database db;
  workload::MakeChain(10, "e", &db);
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->rows.size(), 9u);
  // Cross-check against the original program.
  eval::Database db2;
  workload::MakeChain(10, "e", &db2);
  auto orig = eval::EvaluateQuery(p, A("t(1, Y)"), &db2);
  ASSERT_TRUE(orig.ok());
  EXPECT_EQ(answers->rows.size(), orig->rows.size());
}

TEST(CountingTest, GoalPredicateCarriesIndexFields) {
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  eval::Database db;
  workload::MakeChain(5, "e", &db);
  auto result = eval::Evaluate(counting->program, &db);
  ASSERT_TRUE(result.ok());
  // cnt_t_bf holds one goal per chain node, each with its depth index.
  EXPECT_EQ(result->SizeOf(counting->cnt_name), 5u);
  // Answers are replayed at every smaller index: Theta(n^2) facts — the
  // index-maintenance overhead the paper contrasts with factoring.
  EXPECT_GT(result->SizeOf(counting->ans_name), 9u);
}

TEST(CountingTest, MultipleRulesEncodeRulePathInJ) {
  ast::Program p = P(R"(
    t(X, Y) :- e1(X, W), t(W, Y).
    t(X, Y) :- e2(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  eval::Database db;
  test::AddFacts(&db, "e1(1, 2). e2(2, 3). e(3, 9). e(2, 8). e(1, 7).");
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db);
  ASSERT_TRUE(answers.ok());
  // 7 directly; 8 via e1; 9 via e1;e2.
  EXPECT_EQ(answers->rows.size(), 3u);
}

TEST(CountingTest, LeftLinearDiverges) {
  // §6.4: cnt_t(X, I+1) :- cnt_t(X, I) never terminates bottom-up.
  ast::Program p = P(kLeftTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  eval::Database db;
  workload::MakeChain(4, "e", &db);
  eval::EvalOptions opts;
  opts.max_facts = 10'000;
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db,
                                     opts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(CountingTest, CyclicDataDivergesEvenRightLinear) {
  // Counting encodes goal depth; on a cycle the depth is unbounded. (Magic
  // and factoring terminate here — an advantage the paper leaves implicit.)
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  eval::Database db;
  workload::MakeCycle(4, "e", &db);
  eval::EvalOptions opts;
  opts.max_facts = 10'000;
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db,
                                     opts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(CountingTest, CombinedRulesRejected) {
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_FALSE(counting.ok());
  EXPECT_EQ(counting.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CountingTest, Theorem64IndexDeletionYieldsFactoredProgram) {
  // The paper's §6.4 worked example: two right-linear rules. After deleting
  // index fields and trivially redundant rules — and the query copy rule the
  // §5 cleanups also drop — the Counting program is the factored Magic
  // program up to predicate renaming.
  ast::Program p = P(R"(
    t(X, Y) :- first1(X, U), t(U, Y), right1(Y).
    t(X, Y) :- first2(X, U), t(U, Y), right2(Y).
    t(X, Y) :- exit0(X, Y), right1(Y), right2(Y).
    ?- t(5, Y).
  )");
  auto counting = Counting(p, *p.query());
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();

  ast::Program stripped = DeleteIndexFields(*counting);
  core::DeleteHeadInBodyRules(&stripped);
  core::DeleteDuplicateRules(&stripped);
  core::DeleteUnreachableRules(&stripped, counting->query_name);
  core::InlineQueryCopyRule(&stripped, nullptr);

  auto pipe = core::OptimizeQuery(p, *p.query());
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(pipe->factoring_applied);
  ASSERT_TRUE(pipe->optimized.has_value());

  std::map<std::string, std::string> renames = {
      {counting->cnt_name, "m_t_bf"}, {counting->ans_name, "ft"}};
  EXPECT_TRUE(core::StructurallyEqual(stripped, *pipe->optimized, renames))
      << "stripped counting:\n" << stripped.ToString()
      << "pipeline optimized:\n" << pipe->optimized->ToString();
}

TEST(CountingTest, Theorem64OnPlainRightLinearTc) {
  ast::Program p = P(kRightTc);
  p.set_query(A("t(1, Y)"));
  auto counting = Counting(p, *p.query());
  ASSERT_TRUE(counting.ok());
  ast::Program stripped = DeleteIndexFields(*counting);
  core::DeleteHeadInBodyRules(&stripped);
  core::DeleteDuplicateRules(&stripped);
  core::DeleteUnreachableRules(&stripped, counting->query_name);
  core::InlineQueryCopyRule(&stripped, nullptr);
  auto pipe = core::OptimizeQuery(p, *p.query());
  ASSERT_TRUE(pipe.ok());
  std::map<std::string, std::string> renames = {
      {counting->cnt_name, "m_t_bf"}, {counting->ans_name, "ft"}};
  EXPECT_TRUE(core::StructurallyEqual(stripped, *pipe->optimized, renames));
}

TEST(CountingTest, StrippedProgramStillAnswersCorrectly) {
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  ast::Program stripped = DeleteIndexFields(*counting);
  eval::Database db;
  workload::MakeChain(8, "e", &db);
  auto answers =
      eval::EvaluateQuery(stripped, *stripped.query(), &db);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 7u);
}

}  // namespace
}  // namespace factlog::transform
