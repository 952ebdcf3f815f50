// bound_queries: the paper's own traffic. One closed-loop client on a
// sequential engine sends query text for the paper's program classes under
// kAuto — left-, right- and nonlinear transitive closure over a
// chain-plus-random graph, the Theorem 4.1-4.3 shapes over a chain with
// seeded skip edges, and same-generation over a tree — so parse, lint,
// rewrite, planning and small fixpoints dominate.
//
// A round is 17 queries with constants the plan cache has not seen (drawn
// from per-class seeded permutations, so a constant recurs only long after
// the 128-plan cache evicted it) followed by 3 repeats of constants from the
// same round. op = mean latency of a round's fresh queries, op2 = of its
// repeats; medians over rounds, because the classes differ in cost and a
// per-query median over the mix would fall between their modes.

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "bench.h"

namespace perfbench {

namespace {

using namespace factlog;

enum Class { kLeftTc, kRightTc, kNonlinearTc, kSelection, kSymmetric,
             kAnswerProp, kSameGen, kNumClasses };

const char* const kPrograms[kNumClasses] = {
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y).",
    // Theorem 4.1 (selection-pushing), 4.2 (symmetric) and 4.3
    // (answer-propagating) shapes over the chain `b`.
    "p(X, Y) :- l(X), p(X, U), c1(U, V), p(V, Y), r1(Y)."
    " p(X, Y) :- l(X), p(X, U), c2(U, V), p(V, Y), r2(Y)."
    " p(X, Y) :- l(X), f(X, V), p(V, Y), r3(Y)."
    " p(X, Y) :- b(X, Y), r1(Y), r2(Y), r3(Y).",
    "p(X, Y) :- l1(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r1(Y)."
    " p(X, Y) :- l2(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r2(Y)."
    " p(X, Y) :- b(X, Y), r1(Y), r2(Y).",
    "p(X, Y) :- l1(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r1(Y)."
    " p(X, Y) :- l2(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r2(Y)."
    " p(X, Y) :- l1(X), l2(X), f(X, V), p(V, Y), r3(Y)."
    " p(X, Y) :- b(X, Y), r1(Y), r2(Y), r3(Y).",
    "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
};
const char* const kQueryPred[kNumClasses] = {"t", "t", "t", "p",
                                             "p", "p", "sg"};
// Fresh queries per class in one round (17 in all).
const int kPerRound[kNumClasses] = {3, 3, 3, 2, 2, 2, 2};
constexpr int kRepeatsPerRound = 3;

constexpr int64_t kTcNodes = 1000;
constexpr int64_t kTcExtraEdges = 500;
constexpr int64_t kShapeNodes = 60;
constexpr int64_t kShapeSkipEdges = 12;
constexpr int kSgRootChildren = 6;
constexpr int kSgDepth = 8;

struct Query {
  Class cls;
  int64_t constant;
  std::string text;
};

// One answered query; the answer set is kept as a hash so the record stays
// small and does not inflate the process's resident memory.
struct Recorded {
  Class cls;
  int64_t constant;
  uint64_t answers_hash;
};

// The same-generation tree: node 1 is the root with kSgRootChildren
// children, every deeper node has two. flat links depth-1 siblings whose
// indices differ by at most one, so sg(X, Y) holds exactly when X and Y have
// the same depth and their depth-1 ancestors are flat-linked.
struct SgTree {
  std::vector<int64_t> parent{0, 0};
  std::vector<int> depth{0, 0};
  std::vector<int64_t> top{0, 0};  // depth-1 ancestor's sibling index
  std::vector<int64_t> level1;

  SgTree() {
    std::vector<int64_t> frontier = {1};
    for (int d = 1; d <= kSgDepth; ++d) {
      std::vector<int64_t> next;
      for (int64_t p : frontier) {
        int kids = d == 1 ? kSgRootChildren : 2;
        for (int k = 0; k < kids; ++k) {
          int64_t id = static_cast<int64_t>(parent.size());
          parent.push_back(p);
          depth.push_back(d);
          top.push_back(d == 1 ? k : top[p]);
          if (d == 1) level1.push_back(id);
          next.push_back(id);
        }
      }
      frontier = std::move(next);
    }
  }
  int64_t size() const { return static_cast<int64_t>(parent.size()) - 1; }

  std::vector<int64_t> SameGeneration(int64_t x) const {
    std::vector<int64_t> out;
    for (int64_t y = 2; y <= size(); ++y) {
      if (depth[y] == depth[x] && std::abs(top[y] - top[x]) <= 1) {
        out.push_back(y);
      }
    }
    return out;
  }
};

// Inputs shared by the engine and the reference computations.
struct Inputs {
  Graph tc;
  Graph shape_chain;
  SgTree sg;

  explicit Inputs(uint64_t seed)
      : tc(ChainPlusRandom(kTcNodes, kTcExtraEdges, seed)),
        shape_chain(kShapeNodes) {
    std::mt19937_64 rng(seed ^ 0x5eedull);
    for (int64_t i = 1; i < kShapeNodes; ++i) shape_chain.Add(i, i + 1);
    std::uniform_int_distribution<int64_t> node(1, kShapeNodes);
    for (int64_t i = 0; i < kShapeSkipEdges; ++i) {
      int64_t a = node(rng), b = node(rng);
      if (a > b) std::swap(a, b);
      if (a < b) shape_chain.Add(a, b);
    }
  }

  // Loads every base relation into `db`.
  void Load(eval::Database* db) const {
    tc.ForEachEdge([&](int64_t a, int64_t b) { db->AddPair("e", a, b); });
    shape_chain.ForEachEdge(
        [&](int64_t a, int64_t b) { db->AddPair("b", a, b); });
    for (int64_t i = 1; i <= kShapeNodes; ++i) {
      for (const char* unit : {"l", "l1", "r1", "r2", "r3"}) {
        db->AddUnit(unit, i);
      }
      if (i % 2 == 0) db->AddUnit("l2", i);
      if (i + 1 <= kShapeNodes) {
        db->AddPair("c1", i, i + 1);
        db->AddPair("c2", i + 1, i);
      }
      if (i + 2 <= kShapeNodes) db->AddPair("f", i, i + 2);
      for (int64_t d = 0; d <= 0 && i + d + 1 <= kShapeNodes; ++d) {
        db->AddFact(ast::Atom("c", {ast::Term::Int(i), ast::Term::Int(i + d),
                                    ast::Term::Int(i + d + 1)}));
      }
    }
    for (int64_t x = 2; x <= sg.size(); ++x) {
      db->AddPair("up", x, sg.parent[x]);
      db->AddPair("down", sg.parent[x], x);
    }
    for (size_t i = 0; i < sg.level1.size(); ++i) {
      for (size_t j = 0; j < sg.level1.size(); ++j) {
        if (i + 1 >= j && j + 1 >= i) {
          db->AddPair("flat", sg.level1[i], sg.level1[j]);
        }
      }
    }
  }
};

// Produces the seeded query stream, one round at a time.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {
    for (int c = 0; c < kNumClasses; ++c) {
      int64_t lo = 1, hi = c <= kNonlinearTc ? kTcNodes : kShapeNodes - 1;
      if (c == kSameGen) {
        lo = 2;
        hi = SgTree().size();
      }
      for (int64_t v = lo; v <= hi; ++v) perm_[c].push_back(v);
      std::shuffle(perm_[c].begin(), perm_[c].end(), rng_);
    }
  }

  std::vector<Query> NextRound() {
    std::vector<Query> fresh;
    for (int c = 0; c < kNumClasses; ++c) {
      for (int k = 0; k < kPerRound[c]; ++k) {
        int64_t v = perm_[c][next_[c]++ % perm_[c].size()];
        fresh.push_back(Make(static_cast<Class>(c), v));
      }
    }
    std::shuffle(fresh.begin(), fresh.end(), rng_);
    std::vector<Query> round = fresh;
    std::uniform_int_distribution<size_t> pick(0, fresh.size() - 1);
    for (int r = 0; r < kRepeatsPerRound; ++r) {
      round.push_back(fresh[pick(rng_)]);
    }
    return round;
  }

  static Query Make(Class cls, int64_t v) {
    std::string text = kPrograms[cls];
    text += " ?- ";
    text += kQueryPred[cls];
    text += "(" + std::to_string(v) + ", Y).";
    return Query{cls, v, std::move(text)};
  }

 private:
  std::mt19937_64 rng_;
  std::vector<int64_t> perm_[kNumClasses];
  size_t next_[kNumClasses] = {};
};

// Per-layer accumulators of the traced phase.
struct LayerTotals {
  std::vector<double> compile_us;
  std::map<std::string, std::vector<double>> pass_us;
  uint64_t factored = 0, queries = 0, cache_hits = 0, compiles = 0;
  uint64_t facts = 0, iterations = 0, instantiations = 0, rows_matched = 0;
};

// Runs one query through the engine's layers one call at a time, timing
// each from outside. Returns false on a failed call.
bool TracedQuery(api::Engine* engine, const Query& q, Tracer* tracer,
                 LayerTotals* totals, eval::AnswerSet* answers) {
  Result<ast::Program> program = [&] {
    Tracer::Span span(tracer, "ast.parse");
    return ast::ParseProgram(q.text);
  }();
  if (!program.ok()) return false;
  {
    Tracer::Span span(tracer, "analysis.lint");
    if (!engine->Lint(*program).ok()) return false;
  }
  api::QueryStats stats;
  Result<std::shared_ptr<const core::CompiledQuery>> plan = [&] {
    Tracer::Span span(tracer, "core.compile");
    return engine->Compile(*program, *program->query(), core::Strategy::kAuto,
                           &stats);
  }();
  if (!plan.ok()) return false;
  ++totals->queries;
  if (stats.cache_hit) {
    ++totals->cache_hits;
  } else {
    ++totals->compiles;
    totals->compile_us.push_back(static_cast<double>(stats.compile_us));
    for (const core::PassTraceEntry& entry : (*plan)->trace) {
      totals->pass_us[entry.pass].push_back(
          static_cast<double>(entry.duration_us));
    }
  }
  if ((*plan)->factoring_applied) ++totals->factored;
  Result<eval::AnswerSet> result = [&] {
    Tracer::Span span(tracer, "eval.execute");
    return engine->Execute(**plan, &stats);
  }();
  if (!result.ok()) return false;
  totals->facts += stats.eval.total_facts;
  totals->iterations += stats.eval.iterations;
  totals->instantiations += stats.eval.instantiations;
  totals->rows_matched += stats.eval.rows_matched;
  *answers = std::move(result).value();
  return true;
}

// Runs whole rounds for `seconds`, recording every answer set.
Phase RunPhase(api::Engine* engine, Stream* stream, double seconds,
               Tracer* tracer, LayerTotals* totals,
               std::vector<Recorded>* recorded, uint64_t* rounds) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  do {
    std::vector<Query> round = stream->NextRound();
    std::vector<double> fresh_ms, repeat_ms;
    for (size_t i = 0; i < round.size(); ++i) {
      const Query& q = round[i];
      eval::AnswerSet answers;
      const Clock::time_point t0 = Clock::now();
      bool ok;
      if (tracer->enabled()) {
        ok = TracedQuery(engine, q, tracer, totals, &answers);
      } else {
        Result<eval::AnswerSet> r = engine->Query(q.text);
        ok = r.ok();
        if (ok) answers = std::move(r).value();
      }
      const double ms = MsSince(t0);
      ++phase.ops;
      if (!ok) {
        ++phase.failed;
        continue;
      }
      (i < round.size() - kRepeatsPerRound ? fresh_ms : repeat_ms)
          .push_back(ms);
      recorded->push_back(Recorded{
          q.cls, q.constant, Fnv(Column(answers, engine->db().store()))});
    }
    phase.op_ms.push_back(Mean(fresh_ms));
    phase.op2_ms.push_back(Mean(repeat_ms));
    ++*rounds;
  } while (MsSince(start) < seconds * 1000);
  phase.wall_s = MsSince(start) / 1000;
  return phase;
}

// Checks every recorded answer set against a computation made apart from
// the rewritten program: reachability for TC, depth and ancestry on the
// tree for same-generation, and the unrewritten program evaluated in full
// for the Theorem 4.1-4.3 shapes.
void Check(const Inputs& inputs, const std::vector<Recorded>& recorded,
           Outcome* out) {
  std::map<std::pair<int, int64_t>, uint64_t> expected;
  std::map<int, std::map<int64_t, std::vector<int64_t>>> shape_answers;
  for (int c = kSelection; c <= kAnswerProp; ++c) {
    eval::Database db;
    inputs.Load(&db);
    Result<ast::Program> program = ast::ParseProgram(kPrograms[c]);
    Result<eval::EvalResult> full =
        program.ok() ? eval::Evaluate(*program, &db) : program.status();
    if (!full.ok()) {
      out->Fail("reference evaluation: " + full.status().ToString());
      return;
    }
    const eval::Relation* p = full->Find("p");
    auto& by_x = shape_answers[c];
    for (size_t r = 0; p != nullptr && r < p->size(); ++r) {
      by_x[db.store().int_value(p->row(r)[0])].push_back(
          db.store().int_value(p->row(r)[1]));
    }
  }
  for (const Recorded& rec : recorded) {
    auto key = std::make_pair(static_cast<int>(rec.cls), rec.constant);
    auto it = expected.find(key);
    if (it == expected.end()) {
      std::vector<int64_t> want;
      if (rec.cls <= kNonlinearTc) {
        want = inputs.tc.Reach(rec.constant);
      } else if (rec.cls == kSameGen) {
        want = inputs.sg.SameGeneration(rec.constant);
      } else {
        want = shape_answers[rec.cls][rec.constant];
        std::sort(want.begin(), want.end());
      }
      it = expected.emplace(key, Fnv(want)).first;
    }
    if (rec.answers_hash != it->second) {
      out->Fail("wrong answers for class " + std::to_string(rec.cls) +
                " constant " + std::to_string(rec.constant));
      return;
    }
  }
}

}  // namespace

Outcome RunBoundQueries(const Config& config) {
  Outcome out;
  Inputs inputs(config.seed);
  api::Engine engine;  // sequential: num_threads = 0
  inputs.Load(&engine.db());
  Stream stream(config.seed);
  std::vector<Recorded> recorded;
  Tracer off(false);
  LayerTotals unused;
  uint64_t rounds = 0;
  RunPhase(&engine, &stream, 0, &off, &unused, &recorded, &rounds);  // warm-up
  out.setup_s = MsSince(config.process_start) / 1000;

  if (!config.trace) {
    Phase phase = RunPhase(&engine, &stream, config.seconds, &off, &unused,
                           &recorded, &rounds);
    Summarize(phase, nullptr, &out);
  } else {
    Phase untraced = RunPhase(&engine, &stream, config.seconds / 2, &off,
                              &unused, &recorded, &rounds);
    Tracer tracer(true);
    LayerTotals t;
    uint64_t traced_rounds = 0;
    const api::EngineStats before = engine.stats();
    Phase traced = RunPhase(&engine, &stream, config.seconds / 2, &tracer, &t,
                            &recorded, &traced_rounds);
    const api::EngineStats after = engine.stats();
    Summarize(untraced, &traced, &out);
    const double per_round = 1.0 / static_cast<double>(traced_rounds);
    out.Layer("ast.parse_us", tracer.MedianUs("ast.parse"), "us");
    out.Layer("analysis.lint_us", tracer.MedianUs("analysis.lint"), "us");
    out.Layer("core.compile_us", Median(t.compile_us), "us");
    for (const char* pass :
         {"lint", "classify", "factorability", "factoring",
          "section-5-cleanups"}) {
      out.Layer(std::string("core.pass_us.") + pass, Median(t.pass_us[pass]),
                "us");
    }
    out.Layer("core.factored_queries", t.factored * per_round, "count");
    out.Layer("plan.plan_us", Median(t.pass_us["join-plan"]), "us");
    out.Layer("plan.plans_recosted",
              (after.plans_recosted - before.plans_recosted) * per_round,
              "count");
    out.Layer("plan.replans", (after.replans - before.replans) * per_round,
              "count");
    out.Layer("api.compiles", t.compiles * per_round, "count");
    out.Layer("api.cache_hits", t.cache_hits * per_round, "count");
    out.Layer("api.cache_hit_ratio",
              static_cast<double>(t.cache_hits) /
                  static_cast<double>(std::max<uint64_t>(1, t.queries)),
              "ratio");
    out.Layer("eval.execute_us", tracer.MedianUs("eval.execute"), "us");
    out.Layer("eval.facts_derived", t.facts * per_round, "count");
    out.Layer("eval.iterations", t.iterations * per_round, "count");
    out.Layer("eval.instantiations", t.instantiations * per_round, "count");
    out.Layer("eval.rows_matched", t.rows_matched * per_round, "count");
    out.Layer("eval.facts_per_instantiation",
              static_cast<double>(t.facts) /
                  static_cast<double>(std::max<uint64_t>(1, t.instantiations)),
              "ratio");
  }
  Check(inputs, recorded, &out);
  return out;
}

}  // namespace perfbench
