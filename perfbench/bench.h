// Shared pieces of the factlog benchmark: the run configuration, the result
// every workload fills in, order statistics, an in-memory span tracer, and
// the independent reference computations the outputs are checked against.

#ifndef FACTLOG_PERFBENCH_BENCH_H_
#define FACTLOG_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/seminaive.h"
#include "eval/value.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Process start (main's first statement): set-up time runs from here.
  Clock::time_point process_start;
  /// Worker threads the machine offers (std::thread::hardware_concurrency).
  unsigned nproc = 1;
  /// Directory for the workloads' temporary databases.
  std::string tmp_dir = ".bench_build/tmp";
};

/// One named metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload reports. The end-to-end metrics are the same five on
/// every workload (see README.md for what "op" and "op2" are on each);
/// `layers` holds the traced run's per-layer metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  double op_p50_ms = 0;
  double op2_p50_ms = 0;
  double ops_per_s = 0;
  std::map<std::string, Metric> layers;
  /// First correctness failure, printed to stderr.
  std::string error;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit};
  }
};

/// Samples of one timed phase. `op_ms` and `op2_ms` hold the two
/// operation kinds each workload keeps apart (README.md); `ops` counts every
/// operation the phase attempted, over `wall_s` seconds.
struct Phase {
  std::vector<double> op_ms;
  std::vector<double> op2_ms;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0;
};

/// Fills the end-to-end metrics from `untraced` and, for a traced run, the
/// `overhead.*` layer metrics as traced minus untraced. Counts the
/// operations of both phases.
void Summarize(const Phase& untraced, const Phase* traced, Outcome* out);

/// Median of `v` (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// In-memory span recorder for the traced run. Spans are kept until the
/// workload ends and then reduced to per-layer medians; with tracing off,
/// Span objects record nothing.
class Tracer {
 public:
  struct Record {
    std::string layer;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer* tracer, std::string layer) : tracer_(tracer) {
      if (!tracer_->enabled_) return;
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back(
          Record{std::move(layer), tracer_->NowUs(), 0, tracer_->open_});
      tracer_->open_ = index_;
    }
    ~Span() {
      if (index_ < 0) return;
      tracer_->spans_[index_].end_us = tracer_->NowUs();
      tracer_->open_ = tracer_->spans_[index_].parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Median duration in microseconds of the spans named `layer`.
  double MedianUs(const std::string& layer) const {
    std::vector<double> d;
    for (const Record& r : spans_) {
      if (r.layer == layer) d.push_back(r.end_us - r.start_us);
    }
    return Median(std::move(d));
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  int open_ = -1;
};

/// FNV-1a over a sorted sequence: equal sets hash equal.
template <typename T>
uint64_t Fnv(const std::vector<T>& sorted) {
  uint64_t h = 1469598103934665603ull;
  for (T x : sorted) {
    h ^= static_cast<uint64_t>(x);
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of a one-column answer set over its value ids. Answer rows are kept
/// sorted, so this needs no sort and never reads the value store.
inline uint64_t IdHash(const factlog::eval::AnswerSet& answers) {
  std::vector<factlog::eval::ValueId> ids;
  ids.reserve(answers.rows.size());
  for (const auto& row : answers.rows) ids.push_back(row[0]);
  return Fnv(ids);
}

/// The value ids of the integers 1..n, index-aligned (entry 0 unused), for
/// hashing reference answers the way IdHash hashes the program's.
inline std::vector<factlog::eval::ValueId> IntIds(
    factlog::eval::ValueStore* store, int64_t n) {
  std::vector<factlog::eval::ValueId> ids(static_cast<size_t>(n) + 1, 0);
  for (int64_t v = 1; v <= n; ++v) ids[v] = store->InternInt(v);
  return ids;
}

/// IdHash of the answer set {ids[v] : v in values}.
inline uint64_t IdHashOf(const std::vector<int64_t>& values,
                         const std::vector<factlog::eval::ValueId>& ids) {
  std::vector<factlog::eval::ValueId> mapped;
  mapped.reserve(values.size());
  for (int64_t v : values) mapped.push_back(ids[v]);
  std::sort(mapped.begin(), mapped.end());
  return Fnv(mapped);
}

/// Integer values of an answer set's rows (one column), sorted.
inline std::vector<int64_t> Column(const factlog::eval::AnswerSet& answers,
                                   const factlog::eval::ValueStore& store,
                                   size_t col = 0) {
  std::vector<int64_t> out;
  out.reserve(answers.rows.size());
  for (const auto& row : answers.rows) out.push_back(store.int_value(row[col]));
  std::sort(out.begin(), out.end());
  return out;
}

/// A directed graph over nodes 1..n kept as adjacency sets, the reference
/// the benchmark checks reachability answers against.
class Graph {
 public:
  explicit Graph(int64_t n) : out_(static_cast<size_t>(n) + 1) {}
  void Add(int64_t a, int64_t b) { out_[a].insert(b); }
  void Remove(int64_t a, int64_t b) { out_[a].erase(b); }

  /// Nodes reachable from `src` by a path of at least one edge, sorted.
  std::vector<int64_t> Reach(int64_t src) const {
    std::vector<char> seen(out_.size(), 0);
    std::vector<int64_t> stack(out_[src].begin(), out_[src].end());
    for (int64_t v : stack) seen[v] = 1;
    while (!stack.empty()) {
      int64_t u = stack.back();
      stack.pop_back();
      for (int64_t v : out_[u]) {
        if (!seen[v]) {
          seen[v] = 1;
          stack.push_back(v);
        }
      }
    }
    std::vector<int64_t> out;
    for (size_t v = 1; v < seen.size(); ++v) {
      if (seen[v]) out.push_back(static_cast<int64_t>(v));
    }
    return out;
  }

  /// The edges as `rel(a, b).` facts.
  std::string Facts(const std::string& rel) const {
    std::string text;
    for (size_t a = 1; a < out_.size(); ++a) {
      for (int64_t b : out_[a]) {
        text += rel + "(" + std::to_string(a) + ", " + std::to_string(b) +
                ").\n";
      }
    }
    return text;
  }

  template <typename Fn>
  void ForEachEdge(Fn fn) const {
    for (size_t a = 1; a < out_.size(); ++a) {
      for (int64_t b : out_[a]) fn(static_cast<int64_t>(a), b);
    }
  }

 private:
  std::vector<std::set<int64_t>> out_;
};

/// The chain 1 -> 2 -> ... -> n plus `extra` seeded random edges: the chain
/// keeps every fixpoint as deep as the paper's worst case, the random edges
/// make the graph cyclic and vary it with the seed.
inline Graph ChainPlusRandom(int64_t n, int64_t extra, uint64_t seed) {
  Graph g(n);
  for (int64_t i = 1; i < n; ++i) g.Add(i, i + 1);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> node(1, n);
  for (int64_t i = 0; i < extra; ++i) g.Add(node(rng), node(rng));
  return g;
}

// view_maintenance and serving maintain the same view over the same graph
// family with the same rounds of updates, so their update costs compare.
inline constexpr char kTcView[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(1, Y).";
inline constexpr int64_t kViewNodes = 2000;
inline constexpr int64_t kViewExtraEdges = 1000;

/// The sources k of one update round's chain edges k -> k+1: four distinct
/// random nodes of 1..n-1. A round deletes the four edges and then
/// re-inserts them in another order, so it ends on the edge set it started
/// from.
inline std::vector<int64_t> PickChainEdges(std::mt19937_64* rng, int64_t n) {
  std::vector<int64_t> picked;
  std::uniform_int_distribution<int64_t> node(1, n - 1);
  while (picked.size() < 4) {
    int64_t k = node(*rng);
    if (std::find(picked.begin(), picked.end(), k) == picked.end()) {
      picked.push_back(k);
    }
  }
  return picked;
}

// Workload entry points (one file each).
Outcome RunBoundQueries(const Config& config);
Outcome RunClosure(const Config& config);
Outcome RunViewMaintenance(const Config& config);
Outcome RunServing(const Config& config);

}  // namespace perfbench

#endif  // FACTLOG_PERFBENCH_BENCH_H_
