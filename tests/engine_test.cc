// Tests for the api::Engine facade: the strategy-equivalence sweep over the
// workload generators, the plan cache, and the execution modes.

#include "api/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"
#include "workload/list_gen.h"

namespace factlog::api {
namespace {

using test::A;
using test::P;

const char kRightTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";

// ---- Strategy-equivalence sweep --------------------------------------------
//
// Every strategy that compiles a (program, workload) combination must return
// exactly the answers of the original program. kMagic, kSupplementaryMagic,
// kFactoring, and kAuto must always apply; kCounting and kLinearRewrite may
// refuse (kFailedPrecondition) or, for left-linear Counting, diverge into
// the evaluation budget (kResourceExhausted) — the paper's §6.4 observation.

class EngineSweepTest : public ::testing::TestWithParam<int> {};

struct ProgramSpec {
  const char* name;
  const char* program;
  const char* query;
  void (*load)(eval::Database* db);
};

void LoadChain(eval::Database* db) { workload::MakeChain(24, "e", db); }
void LoadCycle(eval::Database* db) { workload::MakeCycle(16, "e", db); }
void LoadGrid(eval::Database* db) { workload::MakeGrid(5, 5, "e", db); }
void LoadSg(eval::Database* db) { workload::MakeSameGeneration(2, 4, db); }
void LoadMembers(eval::Database* db) {
  workload::MakeMembershipPredicate(12, 2, 0, "p", db);
}

const ProgramSpec kSweep[] = {
    {"right_tc_chain",
     "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadChain},
    {"right_tc_cycle",
     "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadCycle},
    {"left_tc_chain",
     "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadChain},
    {"nonlinear_tc_grid",
     "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadGrid},
    {"three_form_tc_chain",
     "t(X, Y) :- t(X, W), t(W, Y). t(X, Y) :- e(X, W), t(W, Y). "
     "t(X, Y) :- t(X, W), e(W, Y). t(X, Y) :- e(X, Y). ?- t(1, Y).",
     "t(1, Y)", LoadChain},
    {"same_generation_tree",
     "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). "
     "?- sg(2, Y).",
     "sg(2, Y)", LoadSg},
};

TEST_P(EngineSweepTest, AllApplicableStrategiesAgree) {
  const ProgramSpec& spec = kSweep[GetParam()];
  Engine engine;
  spec.load(&engine.db());
  ast::Program program = P(spec.program);
  ast::Atom query = A(spec.query);

  // Reference: the original program evaluated bottom-up on the same store.
  auto reference = eval::EvaluateQuery(program, query, &engine.db());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected = reference->ToString(engine.db().store());

  std::vector<Strategy> required = {Strategy::kAuto, Strategy::kMagic,
                                    Strategy::kSupplementaryMagic,
                                    Strategy::kFactoring};
  for (Strategy s : required) {
    QueryStats stats;
    auto answers = engine.Query(program, query, s, &stats);
    ASSERT_TRUE(answers.ok())
        << spec.name << " / " << core::StrategyToString(s) << ": "
        << answers.status().ToString();
    EXPECT_EQ(answers->ToString(engine.db().store()), expected)
        << spec.name << " / " << core::StrategyToString(s);
  }

  // Counting and the direct linear rewritings are partial strategies: when
  // they compile and evaluate within budget, they too must agree. A small
  // fact budget keeps the §6.4 divergence of left-linear/cyclic Counting
  // from burning time before it is reported.
  EngineOptions partial_options;
  partial_options.eval.max_facts = 200'000;
  Engine partial(partial_options);
  spec.load(&partial.db());
  for (Strategy s : {Strategy::kCounting, Strategy::kLinearRewrite}) {
    auto plan = partial.Compile(program, query, s);
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition)
          << spec.name << " / " << core::StrategyToString(s);
      continue;
    }
    auto answers = partial.Execute(**plan);
    if (!answers.ok()) {
      // Left-linear Counting does not terminate (§6.4); the budget stops it.
      EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted)
          << spec.name << " / " << core::StrategyToString(s) << ": "
          << answers.status().ToString();
      continue;
    }
    EXPECT_EQ(answers->ToString(partial.db().store()), expected)
        << spec.name << " / " << core::StrategyToString(s);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, EngineSweepTest, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kSweep[info.param].name);
                         });

TEST(EngineSweepTest, ListMembershipStrategiesAgree) {
  // pmem (Example 1.2) carries function symbols; the original program is not
  // range-restricted, so the magic-transformed strategies are compared to
  // each other and to the known answer count.
  ast::Program program = workload::MakePmemProgram(12);
  ast::Atom query = *program.query();
  Engine engine;
  LoadMembers(&engine.db());

  std::map<std::string, std::string> results;
  for (Strategy s : {Strategy::kAuto, Strategy::kMagic,
                     Strategy::kSupplementaryMagic, Strategy::kFactoring}) {
    auto answers = engine.Query(program, query, s);
    ASSERT_TRUE(answers.ok()) << core::StrategyToString(s) << ": "
                              << answers.status().ToString();
    EXPECT_EQ(answers->rows.size(), 6u) << core::StrategyToString(s);
    results[core::StrategyToString(s)] =
        answers->ToString(engine.db().store());
  }
  for (const auto& [name, rendered] : results) {
    EXPECT_EQ(rendered, results.begin()->second) << name;
  }
}

// ---- Template binding sweep ------------------------------------------------
//
// Every program of the sweep, asked with several constants under every
// strategy, in both execution modes, at 1/8 shards x 0/2 threads: each
// strategy compiles its template once and every bound answer equals the
// unoptimized source program's. Partial strategies may refuse the program
// or run out of budget, as in AllApplicableStrategiesAgree; top-down runs
// of left-recursive plans diverge into the SLD budget the same way, so the
// sweep adds a nonrecursive program whose plans SLD does answer.

const ProgramSpec kTwoHopChain = {
    "two_hop_chain", "hop2(X, Y) :- e(X, W), e(W, Y). ?- hop2(1, Y).",
    "hop2(1, Y)", LoadChain};

const ProgramSpec& TemplateSweepSpec(int index) {
  constexpr int kNumSweep = static_cast<int>(std::size(kSweep));
  return index < kNumSweep ? kSweep[index] : kTwoHopChain;
}

class TemplateSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TemplateSweepTest, BoundTemplatesMatchSourceProgram) {
  const ProgramSpec& spec = TemplateSweepSpec(GetParam());
  ast::Program program = P(spec.program);
  const ast::Atom shape = A(spec.query);
  const int64_t constants[] = {1, 2, 5, 9, 999};

  // The reference answers: the source program, evaluated bottom-up.
  eval::Database ref_db;
  spec.load(&ref_db);
  std::map<int64_t, std::string> expected;
  std::map<int64_t, ast::Atom> queries;
  for (int64_t c : constants) {
    ast::Atom q = shape;
    (*q.mutable_args())[0] = ast::Term::Int(c);
    auto reference = eval::EvaluateQuery(program, q, &ref_db);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    expected[c] = reference->ToString(ref_db.store());
    queries.emplace(c, std::move(q));
  }

  std::vector<Strategy> strategies = core::AllConcreteStrategies();
  strategies.insert(strategies.begin(), Strategy::kAuto);
  std::map<ExecutionMode, size_t> answered;
  for (ExecutionMode mode : {ExecutionMode::kBottomUp,
                             ExecutionMode::kTopDown}) {
    for (size_t shards : {size_t{1}, size_t{8}}) {
      for (size_t threads : {size_t{0}, size_t{2}}) {
        EngineOptions options;
        options.execution = mode;
        options.num_shards = shards;
        options.num_threads = threads;
        options.eval.max_facts = 5'000;
        options.sld.max_depth = 64;
        options.sld.max_inferences = 5'000;
        Engine engine(options);
        spec.load(&engine.db());
        for (Strategy s : strategies) {
          const std::string where =
              std::string(spec.name) + " / " + core::StrategyToString(s) +
              (mode == ExecutionMode::kTopDown ? " / top-down" : "") + " @" +
              std::to_string(shards) + " shards, " +
              std::to_string(threads) + " threads";
          const uint64_t compiles_before = engine.stats().compiles;
          for (int64_t c : constants) {
            auto answers = engine.Query(program, queries.at(c), s);
            if (!answers.ok()) {
              const StatusCode code = answers.status().code();
              EXPECT_TRUE(code == StatusCode::kFailedPrecondition ||
                          code == StatusCode::kResourceExhausted)
                  << where << " c=" << c << ": "
                  << answers.status().ToString();
              continue;
            }
            EXPECT_EQ(answers->ToString(engine.db().store()), expected[c])
                << where << " c=" << c;
            ++answered[mode];
          }
          EXPECT_LE(engine.stats().compiles - compiles_before, 1u) << where;
        }
      }
    }
  }
  // Not vacuous: bottom-up answers every program, SLD the nonrecursive one.
  EXPECT_GT(answered[ExecutionMode::kBottomUp], 0u);
  if (&spec == &kTwoHopChain) {
    EXPECT_GT(answered[ExecutionMode::kTopDown], 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, TemplateSweepTest,
                         ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               TemplateSweepSpec(info.param).name);
                         });

// ---- Auto strategy selection -----------------------------------------------

TEST(EngineAutoTest, FactorsWhenTheoremConditionsHold) {
  Engine engine;
  ast::Program p = P(kRightTc);
  auto plan = engine.Compile(p, *p.query(), Strategy::kAuto);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->strategy, Strategy::kFactoring);
  EXPECT_TRUE((*plan)->factoring_applied);
}

TEST(EngineAutoTest, FallsBackToSupplementaryMagic) {
  Engine engine;
  ast::Program p = P(
      "sg(X, Y) :- flat(X, Y). "
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). ?- sg(1, Y).");
  auto plan = engine.Compile(p, *p.query(), Strategy::kAuto);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->strategy, Strategy::kSupplementaryMagic);
  EXPECT_FALSE((*plan)->factoring_applied);
}

// ---- Plan cache ------------------------------------------------------------

TEST(EnginePlanCacheTest, SecondCompileIsAHit) {
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  QueryStats first, second;
  auto a1 = engine.Query(kRightTc, Strategy::kAuto, &first);
  ASSERT_TRUE(a1.ok());
  EXPECT_FALSE(first.cache_hit);
  auto a2 = engine.Query(kRightTc, Strategy::kAuto, &second);
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.compile_us, 0);
  EXPECT_EQ(engine.stats().compiles, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.plan_cache_size(), 1u);
  EXPECT_EQ(a1->rows, a2->rows);
}

TEST(EnginePlanCacheTest, CacheHitRenamesAnswerVarsToCaller) {
  // Regression: a cache hit used to return columns named by the *cached*
  // plan's query variables, not the caller's.
  Engine engine;
  for (int i = 1; i < 5; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  QueryStats first, second;
  auto a1 = engine.Query(p, A("t(X, Y)"), Strategy::kAuto, &first);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(a1->vars, (std::vector<std::string>{"X", "Y"}));
  auto a2 = engine.Query(p, A("t(A, B)"), Strategy::kAuto, &second);
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(second.cache_hit);  // canonically the same plan
  EXPECT_EQ(a2->vars, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(a1->rows, a2->rows);
}

TEST(EnginePlanCacheTest, BoundCacheHitRenamesAnswerVars) {
  Engine engine;
  for (int i = 1; i < 5; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  QueryStats stats;
  ASSERT_TRUE(engine.Query(p, A("t(1, Y)")).ok());
  auto renamed = engine.Query(p, A("t(1, Out)"), Strategy::kAuto, &stats);
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(renamed->vars, (std::vector<std::string>{"Out"}));
}

TEST(EnginePlanCacheTest, ConcurrentMissesCompileOnce) {
  // Single-flight: concurrent misses on one key must not double-compile or
  // double-count EngineStats::compiles.
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      auto plan = engine.Compile(p, A("t(1, Y)"), Strategy::kAuto);
      if (!plan.ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.stats().compiles, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 3u);
  EXPECT_EQ(engine.plan_cache_size(), 1u);
}

TEST(EngineTest, MutationDuringQueryFailsPrecondition) {
  // The documented contract — mutations must not race evaluations — is now
  // enforced: AddFact during a running query returns kFailedPrecondition.
  EngineOptions options;
  options.eval.strategy = eval::Strategy::kNaive;  // deliberately slow
  Engine engine(options);
  // A 500-cycle under naive evaluation re-derives every t(1, *) fact on each
  // of ~500 iterations — plenty of wall-clock for the race window.
  for (int i = 1; i <= 500; ++i) engine.AddPair("e", i, i % 500 + 1);
  std::atomic<bool> done{false};
  std::thread worker([&] {
    auto answers = engine.Query(kRightTc);
    EXPECT_TRUE(answers.ok());
    done.store(true);
  });
  // Wait until the evaluation is visibly in flight, then mutate.
  while (engine.running_queries() == 0 && !done.load()) {
    std::this_thread::yield();
  }
  Status st = engine.AddFact(
      ast::Atom("e", {ast::Term::Int(500), ast::Term::Int(501)}));
  if (!st.ok()) {
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  } else {
    // The query finished in the window between the checks; legal.
    EXPECT_TRUE(done.load());
  }
  worker.join();
  // After the query drains, mutations succeed again.
  EXPECT_TRUE(engine
                  .AddFact(ast::Atom("e", {ast::Term::Int(600),
                                           ast::Term::Int(601)}))
                  .ok());
  EXPECT_EQ(engine.running_queries(), 0);
}

TEST(EnginePlanCacheTest, KeyIsCanonical) {
  // Renamed variables and reordered rules are the same plan.
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  QueryStats first, second;
  ASSERT_TRUE(engine.Query(kRightTc, Strategy::kAuto, &first).ok());
  ASSERT_TRUE(engine
                  .Query("t(P, Q) :- e(P, M), t(M, Q). t(P, Q) :- e(P, Q). "
                         "?- t(1, Out).",
                         Strategy::kAuto, &second)
                  .ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(engine.stats().compiles, 1u);
}

TEST(EnginePlanCacheTest, DifferentConstantsShareOneTemplate) {
  // The query constant only lands in the magic seed, so t(1, Y) and t(5, Y)
  // share one compiled template; each binds its own constant and answers
  // correctly.
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  QueryStats second;
  auto from1 = engine.Query(p, A("t(1, Y)"), Strategy::kAuto);
  auto from5 = engine.Query(p, A("t(5, Y)"), Strategy::kAuto, &second);
  ASSERT_TRUE(from1.ok());
  ASSERT_TRUE(from5.ok());
  EXPECT_EQ(engine.stats().compiles, 1u);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(from1->rows.size(), 7u);
  EXPECT_EQ(from5->rows.size(), 3u);
  EXPECT_EQ(Engine::PlanCacheKey(p, A("t(1, Y)"), Strategy::kAuto),
            Engine::PlanCacheKey(p, A("t(5, Y)"), Strategy::kAuto));
}

TEST(EnginePlanCacheTest, ConstantInRulesKeepsALiteralKey) {
  // 3 occurs in a rule head, so ?- t(3, Y) may specialize on it: it keeps
  // its own literal key, while constants the rules never mention share a
  // template.
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  engine.AddUnit("s", 42);
  ast::Program p = P(
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). t(3, Y) :- s(Y).");
  EXPECT_NE(Engine::PlanCacheKey(p, A("t(3, Y)"), Strategy::kAuto),
            Engine::PlanCacheKey(p, A("t(4, Y)"), Strategy::kAuto));
  EXPECT_EQ(Engine::PlanCacheKey(p, A("t(4, Y)"), Strategy::kAuto),
            Engine::PlanCacheKey(p, A("t(2, Y)"), Strategy::kAuto));
  for (const char* q : {"t(3, Y)", "t(4, Y)", "t(2, Y)", "t(3, Y)"}) {
    auto answers = engine.Query(p, A(q), Strategy::kAuto);
    ASSERT_TRUE(answers.ok()) << q << ": " << answers.status().ToString();
    auto expected = eval::EvaluateQuery(p, A(q), &engine.db());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(answers->ToString(engine.db().store()),
              expected->ToString(engine.db().store()))
        << q;
  }
  auto three = engine.Query(p, A("t(3, Y)"));
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three->rows.size(), 6u);  // 4..8 and 42
  EXPECT_EQ(engine.stats().compiles, 2u);
}

TEST(EnginePlanCacheTest, CountingZeroIsNotTheIndexField) {
  // Counting seeds its index field with the constant 0. A query constant 0
  // binds only the placeholder's sites, never the generated counter.
  Engine engine;
  for (int i = 0; i < 6; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  ASSERT_TRUE(engine.Query(p, A("t(3, Y)"), Strategy::kCounting).ok());
  for (const char* q : {"t(0, Y)", "t(1, Y)", "t(6, Y)"}) {
    QueryStats stats;
    auto answers = engine.Query(p, A(q), Strategy::kCounting, &stats);
    ASSERT_TRUE(answers.ok()) << q << ": " << answers.status().ToString();
    EXPECT_TRUE(stats.cache_hit) << q;
    auto expected = eval::EvaluateQuery(p, A(q), &engine.db());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(answers->ToString(engine.db().store()),
              expected->ToString(engine.db().store()))
        << q;
  }
  auto zero = engine.Query(p, A("t(0, Y)"), Strategy::kCounting);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->rows.size(), 6u);
  EXPECT_EQ(engine.stats().compiles, 1u);
}

TEST(EnginePlanCacheTest, GroundCompoundArgumentStaysLiteral) {
  // List programs: a ground compound query argument is part of the key, so
  // two different lists compile two plans — each answering correctly.
  Engine engine;
  for (int i = 1; i <= 4; ++i) engine.AddUnit("p", i * 2);
  ast::Program p = P(
      "pmem(X, [X | T]) :- p(X). pmem(X, [H | T]) :- pmem(X, T).");
  const char* lists[] = {"pmem(X, [1, 2, 3, 4])", "pmem(X, [4, 5, 6, 8])",
                         "pmem(X, [1, 2, 3, 4])"};
  EXPECT_NE(Engine::PlanCacheKey(p, A(lists[0]), Strategy::kAuto),
            Engine::PlanCacheKey(p, A(lists[1]), Strategy::kAuto));
  const size_t expected_rows[] = {2, 3, 2};
  for (size_t i = 0; i < 3; ++i) {
    auto answers = engine.Query(p, A(lists[i]), Strategy::kAuto);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(answers->rows.size(), expected_rows[i]) << lists[i];
  }
  EXPECT_EQ(engine.stats().compiles, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST(EnginePlanCacheTest, ViewOfOneConstantNeverAnswersAnother) {
  // t(1, Y) and t(2, Y) share a plan template, but not a view: the view key
  // carries the bound constant. Checked synchronously and while serving.
  for (bool serve : {false, true}) {
    SCOPED_TRACE(serve ? "serving" : "synchronous");
    EngineOptions options;
    options.num_threads = serve ? 1 : 0;
    Engine engine(options);
    for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
    ast::Program p = P(kRightTc);
    ASSERT_TRUE(engine.Materialize(p, A("t(1, Y)")).ok());
    if (serve) {
      ASSERT_TRUE(engine.StartServing().ok());
    }
    QueryStats other, same;
    auto from2 = engine.Query(p, A("t(2, Y)"), Strategy::kAuto, &other);
    ASSERT_TRUE(from2.ok()) << from2.status().ToString();
    EXPECT_FALSE(other.view_hit);
    EXPECT_EQ(from2->rows.size(), 6u);
    auto from1 = engine.Query(p, A("t(1, Y)"), Strategy::kAuto, &same);
    ASSERT_TRUE(from1.ok()) << from1.status().ToString();
    EXPECT_TRUE(same.view_hit);
    EXPECT_EQ(from1->rows.size(), 7u);
    EXPECT_EQ(engine.stats().compiles, 1u);
    ASSERT_TRUE(engine.StopServing().ok());
  }
}

TEST(EnginePlanCacheTest, StrategiesAreCachedSeparately) {
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  ASSERT_TRUE(engine.Query(p, *p.query(), Strategy::kMagic).ok());
  ASSERT_TRUE(engine.Query(p, *p.query(), Strategy::kFactoring).ok());
  EXPECT_EQ(engine.stats().compiles, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

TEST(EnginePlanCacheTest, LruEviction) {
  // Three templates: the bf, fb and ff adornments of one program.
  EngineOptions options;
  options.plan_cache_capacity = 2;
  Engine engine(options);
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  ASSERT_TRUE(engine.Query(p, A("t(1, Y)")).ok());
  ASSERT_TRUE(engine.Query(p, A("t(X, 2)")).ok());
  // Touch the bf template: it becomes the most recently used entry.
  ASSERT_TRUE(engine.Query(p, A("t(4, Y)")).ok());
  // A third template evicts fb, not bf.
  ASSERT_TRUE(engine.Query(p, A("t(X, Y)")).ok());
  EXPECT_EQ(engine.plan_cache_size(), 2u);
  QueryStats stats;
  ASSERT_TRUE(engine.Query(p, A("t(2, Y)"), Strategy::kAuto, &stats).ok());
  EXPECT_TRUE(stats.cache_hit);
  QueryStats stats2;
  ASSERT_TRUE(engine.Query(p, A("t(X, 5)"), Strategy::kAuto, &stats2).ok());
  EXPECT_FALSE(stats2.cache_hit);  // was evicted
}

TEST(EnginePlanCacheTest, CanBeDisabled) {
  EngineOptions options;
  options.enable_plan_cache = false;
  Engine engine(options);
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ASSERT_TRUE(engine.Query(kRightTc).ok());
  ASSERT_TRUE(engine.Query(kRightTc).ok());
  EXPECT_EQ(engine.stats().compiles, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
}

TEST(EnginePlanCacheTest, ClearPlanCache) {
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ASSERT_TRUE(engine.Query(kRightTc).ok());
  EXPECT_EQ(engine.plan_cache_size(), 1u);
  engine.ClearPlanCache();
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  QueryStats stats;
  ASSERT_TRUE(engine.Query(kRightTc, Strategy::kAuto, &stats).ok());
  EXPECT_FALSE(stats.cache_hit);
}

// ---- EDB loading and execution modes ---------------------------------------

TEST(EngineTest, LoadFactsParsesGroundFacts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 3). e(3, 4).").ok());
  auto answers = engine.Query(kRightTc);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 3u);
}

TEST(EngineTest, LoadFactsRejectsRules) {
  Engine engine;
  Status st = engine.LoadFacts("e(1, 2). t(X, Y) :- e(X, Y).");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, QueryTextWithoutQueryFails) {
  Engine engine;
  auto answers = engine.Query("t(X, Y) :- e(X, Y).");
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, TopDownExecutionMode) {
  // SLD on a nonrecursive magic plan: the top-down path is wired through
  // the same facade. (Recursive magic plans are left-recursive and diverge
  // under plain SLD, as in Prolog.)
  EngineOptions options;
  options.execution = ExecutionMode::kTopDown;
  Engine topdown(options);
  Engine bottomup;
  const char* text =
      "hop2(X, Y) :- e(X, W), e(W, Y). ?- hop2(1, Y).";
  for (Engine* e : {&topdown, &bottomup}) {
    ASSERT_TRUE(e->LoadFacts("e(1, 2). e(2, 3). e(2, 4).").ok());
  }
  QueryStats td_stats;
  auto td = topdown.Query(text, Strategy::kMagic, &td_stats);
  auto bu = bottomup.Query(text, Strategy::kMagic);
  ASSERT_TRUE(td.ok()) << td.status().ToString();
  ASSERT_TRUE(bu.ok());
  EXPECT_EQ(td->rows.size(), 2u);
  EXPECT_EQ(td->ToString(topdown.db().store()),
            bu->ToString(bottomup.db().store()));
  EXPECT_GT(td_stats.sld.inferences, 0u);
}

TEST(EngineTest, MutatingEdbBetweenQueriesUsesCachedPlan) {
  Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2).").ok());
  auto before = engine.Query(kRightTc);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 1u);
  engine.AddPair("e", 2, 3);
  QueryStats stats;
  auto after = engine.Query(kRightTc, Strategy::kAuto, &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(stats.cache_hit);  // plans depend on the program, not the EDB
  EXPECT_EQ(after->rows.size(), 2u);
}

}  // namespace
}  // namespace factlog::api
