// factlog benchmark entry point: runs one workload for a fixed time and prints
// its metrics as one JSON object on the last line of standard output.
//
//   factlog_bench --workload <bound_queries|closure|view_maintenance|serving>
//                 --seed <n> --seconds <s> --trace <0|1> [--tmp <dir>]
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run (see README.md). A failed
// correctness check prints the line with "correct": false and exits 1.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

// Every per-layer metric the traced run reports, with its unit. A workload
// that does not reach a layer leaves its metrics at 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"ast.parse_us", "us"},
    {"analysis.lint_us", "us"},
    {"core.compile_us", "us"},
    {"core.pass_us.lint", "us"},
    {"core.pass_us.classify", "us"},
    {"core.pass_us.factorability", "us"},
    {"core.pass_us.factoring", "us"},
    {"core.pass_us.section-5-cleanups", "us"},
    {"core.factored_queries", "count"},
    {"plan.plan_us", "us"},
    {"plan.plans_recosted", "count"},
    {"plan.replans", "count"},
    {"api.compiles", "count"},
    {"api.cache_hits", "count"},
    {"api.cache_hit_ratio", "ratio"},
    {"api.view_hits", "count"},
    {"eval.execute_us", "us"},
    {"eval.facts_derived", "count"},
    {"eval.iterations", "count"},
    {"eval.instantiations", "count"},
    {"eval.rows_matched", "count"},
    {"eval.facts_per_instantiation", "ratio"},
    {"eval.relation_insert_ns", "ns"},
    {"eval.relation_contains_ns", "ns"},
    {"eval.index_build_ms", "ms"},
    {"exec.closure_seq_ms", "ms"},
    {"exec.closure_par_ms", "ms"},
    {"exec.par_over_seq", "ratio"},
    {"exec.tasks_executed", "count"},
    {"exec.tasks_stolen", "count"},
    {"inc.idb_inserted_per_insert", "count"},
    {"inc.cone_input_per_delete", "count"},
    {"inc.overdeleted", "count"},
    {"inc.rederived", "count"},
    {"inc.rederived_over_overdeleted", "ratio"},
    {"inc.delta_passes", "count"},
    {"storage.wal_bytes", "bytes"},
    {"storage.wal_records", "count"},
    {"storage.commits", "count"},
    {"storage.pool_hits", "count"},
    {"storage.pool_misses", "count"},
    {"storage.pages", "count"},
    {"storage.logged_update_ms", "ms"},
    {"storage.db_bytes", "bytes"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.open_ms", "ms"},
    {"storage.first_query_ms", "ms"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.service_us_p50", "us"},
    {"serve.epochs_installed", "count"},
    {"serve.updates_per_epoch", "ratio"},
    {"overhead.op_p50_ms", "ms"},
    {"overhead.op2_p50_ms", "ms"},
    {"overhead.ops_per_s", "1/s"},
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetric(std::string* json, bool* first, const std::string& name,
                  double value, const std::string& unit) {
  *json += *first ? "" : ", ";
  *first = false;
  *json += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
           unit + "\"}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: factlog_bench --workload "
               "<bound_queries|closure|view_maintenance|serving> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp <dir>]\n");
  return 2;
}

}  // namespace

void Summarize(const Phase& untraced, const Phase* traced, Outcome* out) {
  auto rate = [](const Phase& p) {
    return p.wall_s > 0 ? static_cast<double>(p.ops) / p.wall_s : 0;
  };
  out->op_p50_ms = Median(untraced.op_ms);
  out->op2_p50_ms = Median(untraced.op2_ms);
  out->ops_per_s = rate(untraced);
  out->attempted += untraced.ops;
  out->failed += untraced.failed;
  if (traced == nullptr) return;
  out->attempted += traced->ops;
  out->failed += traced->failed;
  out->Layer("overhead.op_p50_ms", Median(traced->op_ms) - out->op_p50_ms,
             "ms");
  out->Layer("overhead.op2_p50_ms", Median(traced->op2_ms) - out->op2_p50_ms,
             "ms");
  out->Layer("overhead.ops_per_s", rate(*traced) - out->ops_per_s, "1/s");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  config.process_start = Clock::now();
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--tmp") == 0) {
      config.tmp_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || !(config.seconds > 0)) return Usage();

  Outcome out;
  if (config.workload == "bound_queries") {
    out = RunBoundQueries(config);
  } else if (config.workload == "closure") {
    out = RunClosure(config);
  } else if (config.workload == "view_maintenance") {
    out = RunViewMaintenance(config);
  } else if (config.workload == "serving") {
    out = RunServing(config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return Usage();
  }
  if (out.attempted == 0) out.Fail("no operation was attempted");
  for (const auto& [name, metric] : out.layers) {
    bool known = false;
    for (const auto& [known_name, unit] : kLayerMetrics) {
      known = known || name == known_name;
    }
    if (!known) out.Fail("unlisted layer metric " + name);
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  if (config.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = out.layers.find(name);
      AppendMetric(&json, &first, name,
                   it == out.layers.end() ? 0.0 : it->second.value, unit);
    }
  } else {
    AppendMetric(&json, &first, "setup_s", out.setup_s, "s");
    AppendMetric(&json, &first, "op_p50_ms", out.op_p50_ms, "ms");
    AppendMetric(&json, &first, "op2_p50_ms", out.op2_p50_ms, "ms");
    AppendMetric(&json, &first, "ops_per_s", out.ops_per_s, "1/s");
    AppendMetric(&json, &first, "peak_rss_mb", PeakRssMb(), "MiB");
  }
  json += "}}";
  if (!out.correct) {
    std::fprintf(stderr, "correctness check failed: %s\n", out.error.c_str());
  }
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
