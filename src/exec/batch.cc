#include "exec/batch.h"

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/query_template.h"
#include "eval/rule_eval.h"

namespace factlog::exec {

namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

namespace {

// Builds the base-relation indices a program's plan declares, plus the
// answer-extraction probe index for `query`. The plan's per-literal
// index_cols ARE the probe keys the plan-ordered join uses, so warmup does
// exactly the needed work — the old StaticIndexCols re-walk predicted
// left-to-right probes the planned join never issues.
Status PrewarmFromPlan(const ast::Program& program,
                       const plan::ProgramPlan& program_plan,
                       const ast::Atom* query, eval::Database* db) {
  std::set<std::string> idb = program.IdbPredicates();
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const ast::Rule& rule = program.rules()[i];
    for (const plan::LiteralPlan& lp : program_plan.rules[i].order) {
      if (!lp.is_relation || lp.index_cols.empty()) continue;
      const std::string& pred = rule.body()[lp.body_index].predicate();
      if (idb.count(pred) > 0) continue;  // private per query
      eval::Relation* rel = db->Find(pred);
      if (rel != nullptr) rel->EnsureIndex(lp.index_cols);
    }
  }
  if (query != nullptr && idb.count(query->predicate()) == 0) {
    // Answer extraction probes the query predicate on the query's ground
    // argument positions; warm that index too when the predicate is a base
    // relation.
    std::vector<int> cols;
    for (size_t i = 0; i < query->arity(); ++i) {
      if (query->args()[i].IsGround()) cols.push_back(static_cast<int>(i));
    }
    eval::Relation* rel = db->Find(query->predicate());
    if (rel != nullptr && !cols.empty()) rel->EnsureIndex(cols);
  }
  return Status::OK();
}

}  // namespace

Status PrewarmIndexes(const core::CompiledQuery& plan, eval::Database* db) {
  if (plan.plans.Compatible(plan.program)) {
    return PrewarmFromPlan(plan.program, plan.plans, &plan.query, db);
  }
  // A plan-less CompiledQuery (hand-built, e.g. in tests): fall back to
  // planning on the spot.
  return PrewarmIndexes(plan.program, &plan.query, db);
}

Status PrewarmIndexes(const ast::Program& program, const ast::Atom* query,
                      eval::Database* db) {
  eval::EvalOptions opts;  // defaults: planned order, no precomputed plan
  plan::ProgramPlan program_plan = eval::PlanForEvaluation(program, *db, opts);
  return PrewarmFromPlan(program, program_plan, query, db);
}

Result<BatchResult> RunBatch(ThreadPool* pool, eval::Database* db,
                             size_t num_queries, const BatchCompileFn& compile,
                             const eval::EvalOptions& eval_options) {
  const auto wall_start = std::chrono::steady_clock::now();
  BatchResult result;
  result.answers.resize(num_queries);
  result.stats.resize(num_queries);
  result.summary.queries = num_queries;
  result.summary.threads = pool == nullptr ? 0 : pool->num_threads();

  // Phase 1: compile every query on the pool. The compile callback is
  // responsible for its own synchronization (the engine's plan cache mutex
  // and single-flight compiles).
  std::vector<BatchPlan> plans(num_queries);
  auto compile_one = [&](size_t i) {
    auto plan = compile(i, &result.stats[i]);
    if (plan.ok()) {
      plans[i] = std::move(plan).value();
    } else {
      result.stats[i].status = plan.status();
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_queries, compile_one);
  } else {
    for (size_t i = 0; i < num_queries; ++i) compile_one(i);
  }

  // Phase 2 (control thread): resolve the join plan each query will
  // evaluate with — the compiled query's stored plan under kPlanned, the
  // identity (source-order) plan under kLeftToRight — and pre-build exactly
  // the base-relation indices that plan declares, so the execute phase
  // stays on the const read path. Prewarm and evaluation must use the SAME
  // plan: a mismatch would silently degrade shared-EDB probes to full
  // scans. Templates are shared via the cache, so each one resolves once;
  // binding changes no rule, literal or ground position, so the template's
  // plan and indices serve every query bound from it.
  eval::EvalOptions exec_opts = eval_options;
  exec_opts.strategy = eval::Strategy::kSemiNaive;
  exec_opts.track_provenance = false;
  exec_opts.shared_edb = true;
  std::map<const core::CompiledQuery*, std::unique_ptr<plan::ProgramPlan>>
      resolved_plans;
  for (size_t i = 0; i < num_queries; ++i) {
    const core::CompiledQuery* tmpl = plans[i].plan.get();
    if (tmpl == nullptr) continue;
    auto [it, inserted] = resolved_plans.try_emplace(tmpl);
    if (!inserted) continue;
    eval::EvalOptions resolve_opts = exec_opts;
    resolve_opts.program_plan = &tmpl->plans;
    it->second = std::make_unique<plan::ProgramPlan>(
        eval::PlanForEvaluation(tmpl->program, *db, resolve_opts));
    Status warmed = PrewarmFromPlan(tmpl->program, *it->second, &tmpl->query,
                                    db);
    if (!warmed.ok()) {
      result.stats[i].status = warmed;
      plans[i].plan = nullptr;
    }
  }

  // Phase 3: bind and evaluate concurrently. Each query gets private IDB
  // state; the shared EDB is read-only and the ValueStore interns under its
  // own mutex.
  auto execute_one = [&](size_t i) {
    const core::CompiledQuery* tmpl = plans[i].plan.get();
    if (tmpl == nullptr) return;
    const auto start = std::chrono::steady_clock::now();
    Result<core::CompiledQuery> bound = core::Bind(*tmpl, plans[i].values);
    if (!bound.ok()) {
      result.stats[i].status = bound.status();
      return;
    }
    eval::EvalStats eval_stats;
    // Evaluate with the exact plan the prewarm phase built indices for
    // (resolved_plans outlives the parallel region).
    eval::EvalOptions query_opts = exec_opts;
    query_opts.program_plan = resolved_plans.at(tmpl).get();
    auto answers = eval::EvaluateQuery(bound->program, bound->query, db,
                                       query_opts, &eval_stats);
    result.stats[i].execute_us = MicrosSince(start);
    result.stats[i].iterations = eval_stats.iterations;
    result.stats[i].total_facts = eval_stats.total_facts;
    result.stats[i].shard_facts = std::move(eval_stats.shard_facts);
    if (answers.ok()) {
      result.stats[i].num_answers = answers->size();
      result.answers[i] = std::move(answers).value();
    } else {
      result.stats[i].status = answers.status();
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_queries, execute_one);
  } else {
    for (size_t i = 0; i < num_queries; ++i) execute_one(i);
  }

  for (const ExecStats& s : result.stats) {
    result.summary.sum_execute_us += s.execute_us;
    if (s.status.ok()) {
      ++result.summary.succeeded;
    } else {
      ++result.summary.failed;
    }
  }
  result.summary.wall_us = MicrosSince(wall_start);
  return result;
}

}  // namespace factlog::exec
