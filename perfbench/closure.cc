// closure: unbound left- and right-linear transitive closure over a
// chain-plus-random graph, sized so one closure takes a sizeable fraction
// of a second. Compilation is negligible here; eval dedup, indices and joins
// and the exec parallel fixpoint do almost all the work.
//
// A round evaluates both programs on a sequential engine (op = their summed
// time) and then on a pooled, sharded engine with nproc - 1 workers plus the
// calling thread (op2). Every answer set must equal the sum of the per-node
// reachability sets, and the two engines' sets must be identical.

#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "bench.h"
#include "eval/relation.h"
#include "exec/parallel_seminaive.h"
#include "exec/thread_pool.h"

namespace perfbench {

namespace {

using namespace factlog;

constexpr int64_t kNodes = 200;
constexpr int64_t kExtraEdges = 100;

const char* const kPrograms[] = {
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(X, Y).",
};

// Sorted (x, y) integer pairs of an answer set, packed into one word each.
std::vector<uint64_t> Pairs(const eval::AnswerSet& answers,
                            const eval::ValueStore& store) {
  std::vector<uint64_t> out;
  out.reserve(answers.rows.size());
  for (const auto& row : answers.rows) {
    out.push_back((static_cast<uint64_t>(store.int_value(row[0])) << 32) |
                  static_cast<uint64_t>(store.int_value(row[1])));
  }
  std::sort(out.begin(), out.end());
  return out;
}

api::EngineOptions Pooled(size_t threads) {
  api::EngineOptions options;
  options.num_threads = threads;
  options.num_shards = 2 * threads;
  return options;
}

struct Engines {
  api::Engine seq;
  std::unique_ptr<api::Engine> par;
  std::vector<ast::Program> programs;

  Engines(const Graph& g, size_t threads)
      : par(std::make_unique<api::Engine>(Pooled(threads))) {
    g.ForEachEdge([&](int64_t a, int64_t b) {
      seq.AddPair("e", a, b);
      par->AddPair("e", a, b);
    });
    for (const char* text : kPrograms) {
      programs.push_back(ast::ParseProgram(text).value());
    }
  }
};

struct Check {
  std::vector<uint64_t> reference;  // the closure the reference computed
  Outcome* out;

  void Verify(const eval::AnswerSet& answers, const eval::ValueStore& store,
              const char* what) {
    if (Pairs(answers, store) != reference) {
      out->Fail(std::string(what) + " closure differs from reachability");
    }
  }
};

struct LayerTotals {
  std::vector<double> seq_ms, par_ms, execute_us;
  uint64_t facts = 0, iterations = 0, instantiations = 0, rows_matched = 0;
  uint64_t fixpoints = 0;
};

Phase RunPhase(Engines* engines, double seconds, Tracer* tracer,
               LayerTotals* totals, Check* check) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  do {
    double engine_ms[2] = {0, 0};
    for (int which = 0; which < 2; ++which) {
      api::Engine* engine = which == 0 ? &engines->seq : engines->par.get();
      for (const ast::Program& program : engines->programs) {
        api::QueryStats stats;
        const Clock::time_point t0 = Clock::now();
        Result<eval::AnswerSet> answers = [&] {
          Tracer::Span span(tracer, which == 0 ? "closure.seq" : "closure.par");
          return engine->Query(program, *program.query(),
                               core::Strategy::kAuto,
                               tracer->enabled() ? &stats : nullptr);
        }();
        engine_ms[which] += MsSince(t0);
        ++phase.ops;
        if (!answers.ok()) {
          ++phase.failed;
          continue;
        }
        check->Verify(*answers, engine->db().store(),
                      which == 0 ? "sequential" : "pooled");
        if (tracer->enabled() && which == 0) {
          totals->execute_us.push_back(static_cast<double>(stats.execute_us));
          totals->facts += stats.eval.total_facts;
          totals->iterations += stats.eval.iterations;
          totals->instantiations += stats.eval.instantiations;
          totals->rows_matched += stats.eval.rows_matched;
          ++totals->fixpoints;
        }
      }
    }
    phase.op_ms.push_back(engine_ms[0]);
    phase.op2_ms.push_back(engine_ms[1]);
    totals->seq_ms.push_back(engine_ms[0]);
    totals->par_ms.push_back(engine_ms[1]);
  } while (MsSince(start) < seconds * 1000);
  phase.wall_s = MsSince(start) / 1000;
  return phase;
}

// Times the eval::Relation primitives on the closure's rows: insert into a
// fresh relation, probe every row, build a one-column index.
void TimeRelation(Engines* engines, Outcome* out) {
  const ast::Program& program = engines->programs[0];
  Result<eval::AnswerSet> answers =
      engines->seq.Query(program, *program.query());
  if (!answers.ok() || answers->rows.empty()) {
    out->Fail("closure for the relation phase failed");
    return;
  }
  std::vector<double> insert_ns, contains_ns, index_ms;
  for (int rep = 0; rep < 5; ++rep) {
    eval::Relation rel(2);
    Clock::time_point t0 = Clock::now();
    for (const auto& row : answers->rows) rel.Insert(row);
    insert_ns.push_back(MsSince(t0) * 1e6 / answers->rows.size());
    size_t found = 0;
    t0 = Clock::now();
    for (const auto& row : answers->rows) found += rel.Contains(row.data());
    contains_ns.push_back(MsSince(t0) * 1e6 / answers->rows.size());
    t0 = Clock::now();
    rel.EnsureIndex({1});
    index_ms.push_back(MsSince(t0));
    if (found != answers->rows.size() || rel.size() != answers->rows.size()) {
      out->Fail("eval::Relation lost rows");
    }
  }
  out->Layer("eval.relation_insert_ns", Median(insert_ns), "ns");
  out->Layer("eval.relation_contains_ns", Median(contains_ns), "ns");
  out->Layer("eval.index_build_ms", Median(index_ms), "ms");
}

// One pooled fixpoint over the sequential engine's database on a pool the
// benchmark owns, sized and sharded like the pooled engine's, to read the
// scheduler's task counters. The pooled engine is destroyed first, so no
// more than nproc threads exist at once.
void CountTasks(Engines* engines, size_t threads, Outcome* out) {
  engines->par.reset();
  const ast::Program& program = engines->programs[0];
  Result<std::shared_ptr<const core::CompiledQuery>> plan =
      engines->seq.Compile(program, *program.query());
  if (!plan.ok()) {
    out->Fail("compile for the task count failed");
    return;
  }
  exec::ThreadPool pool(threads);
  exec::ParallelEvalOptions opts;
  opts.eval.program_plan = &(*plan)->plans;
  opts.num_shards = Pooled(threads).num_shards;
  const exec::ThreadPool::Stats before = pool.stats();
  Result<eval::EvalResult> result = exec::EvaluateParallel(
      (*plan)->program, &engines->seq.db(), &pool, opts);
  const exec::ThreadPool::Stats after = pool.stats();
  if (!result.ok()) {
    out->Fail("pooled fixpoint failed: " + result.status().ToString());
    return;
  }
  out->Layer("exec.tasks_executed", after.executed - before.executed, "count");
  out->Layer("exec.tasks_stolen", after.stolen - before.stolen, "count");
}

}  // namespace

Outcome RunClosure(const Config& config) {
  Outcome out;
  const Graph graph = ChainPlusRandom(kNodes, kExtraEdges, config.seed);
  // The reference closure is the benchmark's own work: its time is taken
  // out of the set-up time.
  const Clock::time_point ref_start = Clock::now();
  Check check{{}, &out};
  for (int64_t x = 1; x <= kNodes; ++x) {
    for (int64_t y : graph.Reach(x)) {
      check.reference.push_back((static_cast<uint64_t>(x) << 32) |
                                static_cast<uint64_t>(y));
    }
  }
  const double ref_ms = MsSince(ref_start);

  const size_t threads = std::max(1u, config.nproc - 1);
  Engines engines(graph, threads);
  Tracer off(false);
  LayerTotals unused;
  RunPhase(&engines, 0, &off, &unused, &check);  // warm-up round
  out.setup_s = (MsSince(config.process_start) - ref_ms) / 1000;
  if (!config.trace) {
    Phase phase = RunPhase(&engines, config.seconds, &off, &unused, &check);
    Summarize(phase, nullptr, &out);
    return out;
  }
  Phase untraced =
      RunPhase(&engines, config.seconds / 2, &off, &unused, &check);
  Tracer tracer(true);
  LayerTotals t;
  Phase traced = RunPhase(&engines, config.seconds / 2, &tracer, &t, &check);
  Summarize(untraced, &traced, &out);
  const double per_fixpoint = 1.0 / static_cast<double>(t.fixpoints);
  out.Layer("eval.execute_us", Median(t.execute_us), "us");
  out.Layer("eval.facts_derived", t.facts * per_fixpoint, "count");
  out.Layer("eval.iterations", t.iterations * per_fixpoint, "count");
  out.Layer("eval.instantiations", t.instantiations * per_fixpoint, "count");
  out.Layer("eval.rows_matched", t.rows_matched * per_fixpoint, "count");
  out.Layer("eval.facts_per_instantiation",
            static_cast<double>(t.facts) /
                static_cast<double>(std::max<uint64_t>(1, t.instantiations)),
            "ratio");
  const double seq = Median(t.seq_ms), par = Median(t.par_ms);
  out.Layer("exec.closure_seq_ms", seq, "ms");
  out.Layer("exec.closure_par_ms", par, "ms");
  out.Layer("exec.par_over_seq", seq > 0 ? par / seq : 0, "ratio");
  TimeRelation(&engines, &out);
  CountTasks(&engines, threads, &out);
  return out;
}

}  // namespace perfbench
