// serving: an in-memory engine with a materialized left-linear TC view
// `?- t(1, Y)` runs StartServing. One closed-loop reader client thread
// reads the view through SubmitQuery while one closed-loop writer client on
// the main thread streams the same rounds of chain-edge deletes and
// re-inserts as view_maintenance through SubmitUpdate. Threads: the main
// thread, the reader client, one pool worker and the server's writer
// thread, so at most four. Reader chains driven from completion callbacks on
// two workers split runs into two throughput modes, depending on which
// worker's deque their resubmissions settled on.
//
// op = read latency, submit to completion callback. op2 = mean time of a
// round's updates from SubmitUpdate until the response reports the epoch
// that holds them (a round mixes deletes and inserts, whose costs differ).
// Every read is checked against reachability over the edge set of the epoch
// it pinned; epochs must never go backwards within a session.

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "bench.h"

namespace perfbench {

namespace {

using namespace factlog;


// Latencies of the reads completed in one phase, in microseconds (kept
// compact: their number grows with the read rate, and the process's peak
// memory is a metric).
struct ReadSamples {
  std::vector<float> total_us;
  std::vector<float> queue_us;
  std::vector<float> execute_us;
};

// The closed-loop reader client: a thread that submits a query, waits for
// its response, records it, and submits the next. Answers are tallied by
// (epoch, answer hash) for the check after the phase.
class Reader {
 public:
  Reader(api::Engine* engine, const ast::Program* program)
      : engine_(engine), program_(program) {}
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Start() {
    running_.store(true);
    thread_ = std::thread([this] { Loop(); });
  }

  // Stops the client after its current read and returns the last samples.
  ReadSamples Stop() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
    return Take();
  }

  // Samples recorded since the last Take (the client keeps running).
  ReadSamples Take() {
    std::lock_guard<std::mutex> lock(mu_);
    ReadSamples out = std::move(samples_);
    samples_ = ReadSamples();
    return out;
  }

  uint64_t failed() const { return failed_.load(); }
  bool epochs_monotone() const { return monotone_.load(); }
  // (epoch, answer hash) of every read so far; call after Stop.
  const std::map<std::pair<uint64_t, uint64_t>, uint64_t>& answers() const {
    return answers_;
  }

 private:
  void Loop() {
    const uint64_t session = engine_->OpenSession();
    uint64_t last_epoch = 0;
    while (running_.load()) {
      const Clock::time_point t0 = Clock::now();
      serve::QueryResponse resp =
          engine_->SubmitQuery(session, *program_, *program_->query()).get();
      const float us = static_cast<float>(MsSince(t0) * 1000);
      if (!resp.status.ok()) {
        failed_.fetch_add(1);
        break;
      }
      if (resp.epoch < last_epoch) monotone_.store(false);
      last_epoch = resp.epoch;
      const uint64_t hash = IdHash(resp.answers);
      std::lock_guard<std::mutex> lock(mu_);
      samples_.total_us.push_back(us);
      samples_.queue_us.push_back(static_cast<float>(resp.queue_us));
      samples_.execute_us.push_back(static_cast<float>(resp.execute_us));
      ++answers_[{resp.epoch, hash}];
    }
    engine_->CloseSession(session);
  }

  api::Engine* engine_;
  const ast::Program* program_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> failed_{0};
  std::atomic<bool> monotone_{true};
  std::mutex mu_;
  ReadSamples samples_;  // guarded by mu_
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> answers_;  // by mu_
  std::thread thread_;
};

}  // namespace

Outcome RunServing(const Config& config) {
  Outcome out;
  Graph graph = ChainPlusRandom(kViewNodes, kViewExtraEdges, config.seed);
  std::mt19937_64 rng(config.seed ^ 0x5e7eull);
  api::EngineOptions options;
  options.num_threads = 1;
  options.num_shards = 2;
  api::Engine engine(options);
  const ast::Program program = ast::ParseProgram(kTcView).value();
  graph.ForEachEdge([&](int64_t a, int64_t b) { engine.AddPair("e", a, b); });
  if (auto h = engine.Materialize(program, *program.query()); !h.ok()) {
    out.Fail("materialize: " + h.status().ToString());
    return out;
  }
  if (Status st = engine.StartServing(); !st.ok()) {
    out.Fail("serve: " + st.ToString());
    return out;
  }
  const uint64_t writer = engine.OpenSession();

  // The writer logs each acknowledged update with the first epoch holding
  // it; reads are checked against a replay of that log after the phase, so
  // no reference computation runs while the program is timed.
  const uint64_t first_epoch = engine.serving_epoch();
  struct Logged {
    uint64_t epoch;
    bool insert;
    int64_t k;
  };
  std::vector<Logged> log;
  auto update = [&](bool insert, int64_t k, Phase* phase) -> double {
    const ast::Atom fact("e", {ast::Term::Int(k), ast::Term::Int(k + 1)});
    const Clock::time_point t0 = Clock::now();
    serve::UpdateResponse resp =
        engine.SubmitUpdate(writer, insert, fact).get();
    const double ms = MsSince(t0);
    ++phase->ops;
    if (!resp.status.ok()) {
      ++phase->failed;
      return ms;
    }
    if (engine.serving_epoch() < resp.epoch) {
      out.Fail("update acknowledged before its epoch was readable");
    }
    log.push_back(Logged{resp.epoch, insert, k});
    return ms;
  };

  // Whole writer rounds for `seconds` while the readers run.
  auto run = [&](double seconds) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    do {
      std::vector<int64_t> picked = PickChainEdges(&rng, kViewNodes);
      double round_ms = 0;
      for (int64_t k : picked) round_ms += update(false, k, &phase);
      std::shuffle(picked.begin(), picked.end(), rng);
      for (int64_t k : picked) round_ms += update(true, k, &phase);
      phase.op2_ms.push_back(round_ms / (2 * picked.size()));
    } while (MsSince(start) < seconds * 1000);
    phase.wall_s = MsSince(start) / 1000;
    return phase;
  };

  Reader reader(&engine, &program);
  reader.Start();
  run(0);  // warm-up round
  reader.Take();
  auto finish = [&](Phase* phase, const ReadSamples& reads) {
    for (float us : reads.total_us) phase->op_ms.push_back(us / 1000);
    phase->ops += reads.total_us.size();
  };
  out.setup_s = MsSince(config.process_start) / 1000;

  const serve::ServerStats before = engine.serving_stats();
  Phase untraced = run(config.trace ? config.seconds / 2 : config.seconds);
  if (!config.trace) {
    finish(&untraced, reader.Stop());
    untraced.failed += reader.failed();
    Summarize(untraced, nullptr, &out);
  } else {
    finish(&untraced, reader.Take());
    Phase traced = run(config.seconds / 2);
    const ReadSamples reads = reader.Stop();
    finish(&traced, reads);
    traced.failed += reader.failed();
    const serve::ServerStats after = engine.serving_stats();
    Summarize(untraced, &traced, &out);
    auto median = [](const std::vector<float>& v) {
      return Median(std::vector<double>(v.begin(), v.end()));
    };
    out.Layer("serve.queue_wait_us_p50", median(reads.queue_us), "us");
    out.Layer("serve.service_us_p50", median(reads.execute_us), "us");
    const double epochs =
        static_cast<double>(after.epochs_installed - before.epochs_installed);
    const double rounds = static_cast<double>(
        untraced.op2_ms.size() + traced.op2_ms.size());
    out.Layer("serve.epochs_installed", epochs / rounds, "count");  // per round
    const double updates = static_cast<double>(after.completed_updates -
                                               before.completed_updates);
    out.Layer("serve.updates_per_epoch", epochs > 0 ? updates / epochs : 0,
              "ratio");
  }
  if (!reader.epochs_monotone()) out.Fail("a session's epochs went backwards");
  // Reachability hash of the edge set each epoch holds, keyed by the first
  // epoch holding it.
  const std::vector<eval::ValueId> ids =
      IntIds(&engine.db().store(), kViewNodes);
  std::map<uint64_t, uint64_t> expected;
  expected[first_epoch] = IdHashOf(graph.Reach(1), ids);
  for (const Logged& u : log) {
    if (u.insert) {
      graph.Add(u.k, u.k + 1);
    } else {
      graph.Remove(u.k, u.k + 1);
    }
    expected[u.epoch] = IdHashOf(graph.Reach(1), ids);
  }
  for (const auto& [read, count] : reader.answers()) {
    auto it = expected.upper_bound(read.first);
    if (it == expected.begin() || std::prev(it)->second != read.second) {
      out.Fail("a read differs from reachability at its epoch");
      break;
    }
  }
  // Reads at the final epoch.
  for (int i = 0; i < 4; ++i) {
    serve::QueryResponse resp =
        engine.SubmitQuery(writer, program, *program.query()).get();
    if (!resp.status.ok() ||
        IdHash(resp.answers) != IdHashOf(graph.Reach(1), ids)) {
      out.Fail("final read differs from reachability over the final edges");
    }
  }
  engine.CloseSession(writer);
  engine.StopServing();
  return out;
}

}  // namespace perfbench
