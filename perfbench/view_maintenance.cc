// view_maintenance: incremental maintenance of a materialized left-linear TC
// view `?- t(1, Y)` over a chain-plus-random graph, and the durability of
// the same view on disk.
//
// Set-up builds the view twice. A persistent engine (Engine::Open in a
// private directory) loads the graph, materializes the view, checkpoints,
// takes a tail of single-edge updates held only in the WAL, and closes. An
// in-memory engine loads the same graph and materializes the same view.
//
// A timed round deletes four random chain edges of the in-memory engine and
// re-inserts them in another order, one RemoveFact/AddFact at a time, each
// followed by a bound read answered from the view; then it reopens the
// persistent database cold (Engine::Open with its WAL replay) and asks the
// first query.
//
// op = median over rounds of the mean latency of the round's AddFact and
// RemoveFact calls, view propagation included. A delete alone took about a
// quarter of an insert and, at 35 us, moved by a quarter from run to run.
// op2 = median cold reopen, from Engine::Open to the first answer.
//
// The timed updates carry no WAL commit: each commit is an fsync, and on a
// disk shared with other tenants fsync latency moved from 60 us to over
// 1 ms for a minute at a time, more than any median over a run can absorb.
// The committed updates of the tail are reported as the per-layer
// storage.logged_update_ms instead.
//
// Every read must equal reachability over the edge set the updates before
// it left, and every reopened answer must equal reachability over the edge
// set after the WAL-only tail: every acknowledged write survived.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "bench.h"

namespace perfbench {

namespace {

using namespace factlog;

constexpr int kTailUpdates = 6;

ast::Atom Edge(int64_t a, int64_t b) {
  return ast::Atom("e", {ast::Term::Int(a), ast::Term::Int(b)});
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

struct Totals {
  std::vector<double> idb_inserted, cone_input, overdeleted, rederived,
      delta_passes, open_ms, first_query_ms;
  uint64_t view_hits = 0, updates = 0;
};

class Workload {
 public:
  Workload(const Config& config, Outcome* out)
      : out_(out),
        graph_(ChainPlusRandom(kViewNodes, kViewExtraEdges, config.seed)),
        rng_(config.seed ^ 0x71e3ull),
        program_(ast::ParseProgram(kTcView).value()),
        dir_(config.tmp_dir + "/view_maintenance-" +
             std::to_string(::getpid())) {}

  ~Workload() {
    disk_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  bool Setup() { return SetupDisk() && SetupMemory(); }

  // Runs whole rounds for `seconds`.
  Phase Run(double seconds, bool traced, Totals* totals) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    do {
      std::vector<int64_t> picked = PickChainEdges(&rng_, kViewNodes);
      double update_ms = 0;
      for (int64_t k : picked) {
        update_ms += Update(false, k, &phase, traced, totals);
      }
      std::shuffle(picked.begin(), picked.end(), rng_);
      for (int64_t k : picked) {
        update_ms += Update(true, k, &phase, traced, totals);
      }
      phase.op_ms.push_back(update_ms / (2 * picked.size()));
      phase.op2_ms.push_back(Reopen(&phase, totals));
    } while (MsSince(start) < seconds * 1000);
    phase.wall_s = MsSince(start) / 1000;
    return phase;
  }

  // Checks every read of the in-memory view against reachability over the
  // edge set the updates before it left, replaying the update log.
  void Verify() {
    const std::vector<eval::ValueId> ids =
        IntIds(&mem_->db().store(), kViewNodes);
    size_t applied = 0;
    for (const Read& read : reads_) {
      for (; applied < read.updates; ++applied) Apply(log_[applied]);
      if (read.answers_hash != IdHashOf(graph_.Reach(1), ids)) {
        out_->Fail("view answers differ from reachability");
        return;
      }
    }
  }

  // Buffer-pool and page counts of the persistent engine's last reopen.
  void ReportPool() {
    const storage::StorageStats s = disk_->persistence_stats().storage;
    out_->Layer("storage.pool_hits", static_cast<double>(s.pool.hits),
                "count");
    out_->Layer("storage.pool_misses", static_cast<double>(s.pool.misses),
                "count");
    out_->Layer("storage.pages", static_cast<double>(s.num_pages), "count");
  }

 private:
  struct Logged {
    bool insert;
    int64_t k;
  };
  struct Read {
    size_t updates;  // log entries applied before the read
    uint64_t answers_hash;
  };

  // Load, materialize, checkpoint, WAL-only tail, close.
  bool SetupDisk() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Die("create " + dir_ + ": " + ec.message());
    if (!Open()) return false;
    if (Status st = disk_->LoadFacts(graph_.Facts("e")); !st.ok()) {
      return Die("load: " + st.ToString());
    }
    if (auto h = disk_->Materialize(program_, *program_.query()); !h.ok()) {
      return Die("materialize: " + h.status().ToString());
    }
    Clock::time_point t0 = Clock::now();
    if (Status st = disk_->Checkpoint(); !st.ok()) {
      return Die("checkpoint: " + st.ToString());
    }
    out_->Layer("storage.checkpoint_ms", MsSince(t0), "ms");
    out_->Layer("storage.db_bytes", static_cast<double>(DirBytes(dir_)),
                "bytes");

    // The tail inserts random edges and deletes chain edges, so the final
    // edge set differs from the checkpointed one. Inserting a present edge
    // or deleting an absent one is an accepted no-op.
    Graph final_graph = graph_;
    const storage::StorageStats before = disk_->persistence_stats().storage;
    std::vector<double> update_ms;
    std::uniform_int_distribution<int64_t> node(1, kViewNodes - 1);
    for (int i = 0; i < kTailUpdates; ++i) {
      const bool insert = i % 2 == 0;
      const int64_t a = node(rng_);
      const int64_t b = insert ? node(rng_) : a + 1;
      t0 = Clock::now();
      Status st =
          insert ? disk_->AddFact(Edge(a, b)) : disk_->RemoveFact(Edge(a, b));
      update_ms.push_back(MsSince(t0));
      if (!st.ok()) return Die("WAL-tail update: " + st.ToString());
      if (insert) {
        final_graph.Add(a, b);
      } else {
        final_graph.Remove(a, b);
      }
    }
    const storage::StorageStats after = disk_->persistence_stats().storage;
    const double per_update = 1.0 / kTailUpdates;
    out_->Layer("storage.logged_update_ms", Median(update_ms), "ms");
    out_->Layer("storage.wal_bytes",
                (after.wal_bytes - before.wal_bytes) * per_update, "bytes");
    out_->Layer("storage.wal_records",
                (after.wal_records_logged - before.wal_records_logged) *
                    per_update,
                "count");
    out_->Layer("storage.commits",
                (after.last_committed_epoch - before.last_committed_epoch) *
                    per_update,
                "count");
    disk_.reset();
    disk_answers_ = final_graph.Reach(1);
    return true;
  }

  bool SetupMemory() {
    mem_ = std::make_unique<api::Engine>();
    graph_.ForEachEdge(
        [&](int64_t a, int64_t b) { mem_->AddPair("e", a, b); });
    Result<api::ViewHandle> handle =
        mem_->Materialize(program_, *program_.query());
    if (!handle.ok()) return Die("materialize: " + handle.status().ToString());
    handle_ = *handle;
    return true;
  }

  bool Open() {
    Result<std::unique_ptr<api::Engine>> engine = api::Engine::Open(dir_);
    if (!engine.ok()) return Die("open: " + engine.status().ToString());
    disk_ = std::move(engine).value();
    return true;
  }

  bool Die(const std::string& why) {
    out_->Fail(why);
    return false;
  }

  void Apply(const Logged& u) {
    if (u.insert) {
      graph_.Add(u.k, u.k + 1);
    } else {
      graph_.Remove(u.k, u.k + 1);
    }
  }

  // One update of chain edge k -> k+1 on the in-memory engine, followed by
  // one read from the view. Returns the update's latency.
  double Update(bool insert, int64_t k, Phase* phase, bool traced,
                Totals* totals) {
    const ast::Atom fact = Edge(k, k + 1);
    const Clock::time_point t0 = Clock::now();
    Status st = insert ? mem_->AddFact(fact) : mem_->RemoveFact(fact);
    const double ms = MsSince(t0);
    ++phase->ops;
    if (!st.ok()) {
      ++phase->failed;
      return ms;
    }
    log_.push_back(Logged{insert, k});
    if (traced) {
      Result<inc::ViewStats> vs = mem_->ViewStatsFor(handle_);
      if (vs.ok()) {
        const inc::ViewUpdateStats& last = vs->last_update;
        ++totals->updates;
        totals->delta_passes.push_back(static_cast<double>(last.delta_passes));
        if (insert) {
          totals->idb_inserted.push_back(
              static_cast<double>(last.idb_inserted));
        } else {
          totals->cone_input.push_back(static_cast<double>(last.cone_input));
          totals->overdeleted.push_back(static_cast<double>(last.overdeleted));
          totals->rederived.push_back(static_cast<double>(last.rederived));
        }
      }
    }
    api::QueryStats stats;
    Result<eval::AnswerSet> answers =
        mem_->Query(program_, *program_.query(), core::Strategy::kAuto,
                    traced ? &stats : nullptr);
    ++phase->ops;
    if (!answers.ok()) {
      ++phase->failed;
      return ms;
    }
    if (stats.view_hit) ++totals->view_hits;
    reads_.push_back(Read{log_.size(), IdHash(*answers)});
    return ms;
  }

  // Closes the persistent engine and opens it cold: checkpoint restore, WAL
  // replay, first query. Returns the time from Open to the first answer.
  double Reopen(Phase* phase, Totals* totals) {
    disk_.reset();
    ++phase->ops;
    const Clock::time_point start = Clock::now();
    if (!Open()) {
      ++phase->failed;
      return MsSince(start);
    }
    totals->open_ms.push_back(MsSince(start));
    const Clock::time_point t0 = Clock::now();
    Result<eval::AnswerSet> answers =
        disk_->Query(program_, *program_.query());
    totals->first_query_ms.push_back(MsSince(t0));
    const double ms = MsSince(start);
    if (!answers.ok()) {
      ++phase->failed;
      return ms;
    }
    if (Column(*answers, disk_->db().store()) != disk_answers_) {
      out_->Fail("answers after reopen differ from reachability");
    }
    return ms;
  }

  Outcome* out_;
  Graph graph_;
  std::mt19937_64 rng_;
  ast::Program program_;
  std::string dir_;
  std::unique_ptr<api::Engine> disk_;
  std::unique_ptr<api::Engine> mem_;
  api::ViewHandle handle_;
  std::vector<int64_t> disk_answers_;
  std::vector<Logged> log_;
  std::vector<Read> reads_;
};

}  // namespace

Outcome RunViewMaintenance(const Config& config) {
  Outcome out;
  Workload workload(config, &out);
  if (!workload.Setup()) return out;
  Totals unused;
  workload.Run(0, false, &unused);  // warm-up round
  out.setup_s = MsSince(config.process_start) / 1000;

  if (!config.trace) {
    Phase phase = workload.Run(config.seconds, false, &unused);
    Summarize(phase, nullptr, &out);
  } else {
    Phase untraced = workload.Run(config.seconds / 2, false, &unused);
    Totals t;
    Phase traced = workload.Run(config.seconds / 2, true, &t);
    Summarize(untraced, &traced, &out);
    const double per_update =
        1.0 / static_cast<double>(std::max<uint64_t>(1, t.updates));
    out.Layer("api.view_hits", t.view_hits * per_update, "count");
    out.Layer("inc.idb_inserted_per_insert", Mean(t.idb_inserted), "count");
    out.Layer("inc.cone_input_per_delete", Mean(t.cone_input), "count");
    out.Layer("inc.overdeleted", Mean(t.overdeleted), "count");
    out.Layer("inc.rederived", Mean(t.rederived), "count");
    const double over = Mean(t.overdeleted);
    out.Layer("inc.rederived_over_overdeleted",
              over > 0 ? Mean(t.rederived) / over : 0, "ratio");
    out.Layer("inc.delta_passes", Mean(t.delta_passes), "count");
    out.Layer("storage.open_ms", Median(t.open_ms), "ms");
    out.Layer("storage.first_query_ms", Median(t.first_query_ms), "ms");
    workload.ReportPool();
    // The serving front end over the same view is measured here, per layer
    // only: its end-to-end read latency fell into per-process modes too far
    // apart to gate (README.md).
    Config serving = config;
    serving.seconds = config.seconds / 2;
    const Outcome served = RunServing(serving);
    for (const auto& [name, metric] : served.layers) {
      if (name.rfind("serve.", 0) == 0) out.layers[name] = metric;
    }
    if (!served.correct) out.Fail("serving: " + served.error);
    out.attempted += served.attempted;
    out.failed += served.failed;
  }
  workload.Verify();
  return out;
}

}  // namespace perfbench
