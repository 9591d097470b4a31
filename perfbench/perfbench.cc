// End-to-end and per-layer benchmark of the LPCE engine.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--out DIR]
//
// One process runs one named workload (see README.md for the rationale and
// sizes of each):
//   join8-reopt  serial closed loop over held-out 8-join queries, LPCE-I
//                initial estimates + LPCE-R refinement with re-optimization.
//   serve-churn  EngineServer, uniform traffic over 256 large templates, 4x
//                the plan cache, disk-backed feedback store, periodic
//                re-publishes of the model to the registry.
//
// The run sets up (builds the database and statistics, labels the training
// queries, trains the models) several times and reports the median, runs
// one untimed warm-up pass over the query pool, then measures a closed loop
// for --seconds. Every served row count is checked against its label; any
// mismatch or rejection makes the run exit 1. The last line of stdout is one
// JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1 (a traced run: half the window untraced, half traced, then
// a serial probe that times each layer's public entry point on the
// workload's queries; spans are written to DIR/trace-<workload>-<seed>.json).
//
// The seed drives the traffic (the order of each cycle's queries). The
// database, the training sample and the query pool are fixed per workload,
// so runs with different seeds measure the same work.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fpclass.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "engine/server.h"
#include "exec/executor.h"
#include "feedback/feedback_store.h"
#include "lpce/estimators.h"
#include "lpce/lpce_r.h"
#include "lpce/model_registry.h"
#include "lpce/tree_model.h"
#include "optimizer/plan_cache.h"
#include "optimizer/planner.h"
#include "spans.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "workload/workload.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace lpce;  // NOLINT: benchmark-local brevity

// ---------------------------------------------------------------------------
// Workload definitions.

struct Spec {
  std::string name;
  double scale = 0.2;
  // Training sample (labeled during setup).
  int train_queries = 0;
  int train_min_joins = 0;
  int train_max_joins = 0;
  int lpce_i_epochs = 8;
  int lpce_r_pretrain_epochs = 8;
  int lpce_r_refine_epochs = 4;
  // Measured query pool (templates), labeled after setup.
  int pool_size = 0;
  int pool_min_joins = 0;
  int pool_max_joins = 0;
  // Traffic.
  bool serve = false;     // false: serial closed loop on one Engine
  int cycle_copies = 1;   // copies of each template per traffic cycle
  size_t cache_capacity = 0;
  bool feedback = false;  // disk-backed FeedbackStore on the server
  int publish_every = 0;  // re-publish the model every N submissions
};

// Fixed generator seeds: the seed argument only drives traffic.
constexpr uint64_t kDatabaseSeed = 42;
constexpr uint64_t kTrainSeed = 7001;
constexpr uint64_t kPoolSeed = 9001;
constexpr int kSetupReps = 5;
// Served workloads: server workers, and queries the generator keeps
// outstanding (a closed window).
constexpr int kServerWorkers = 2;
constexpr size_t kWindow = 4;
constexpr int kProbePublishes = 16;
// Records the served feedback store keeps per template: small enough that
// its memory saturates within a run, so peak RSS does not grow with run
// length.
constexpr size_t kFeedbackCap = 8;
// How often the generator checks queries other than the oldest for
// completion.
constexpr std::chrono::microseconds kPollInterval{100};
// Longest a measured window may run while it gathers the samples its
// percentiles need; keeps a run well inside its time limit.
constexpr double kMaxWindowSeconds = 100.0;
// C library allocator settings: serve allocations up to 32 MiB (the largest
// threshold glibc accepts) from the heap instead of fresh mappings, and never
// hand freed heap memory back to the kernel. With the defaults, about a third
// of join8-reopt wall time was the kernel unmapping freed intermediates and
// faulting in zeroed pages for the next ones, a cost set by the host's memory
// state rather than by the engine, and a large part of the run-to-run
// spread on a shared machine.
constexpr int kMmapThreshold = 32 << 20;
constexpr int kTrimThreshold = std::numeric_limits<int>::max();
constexpr int kTopPad = 64 << 20;

Spec MakeSpec(const std::string& name, bool tiny) {
  Spec s;
  s.name = name;
  if (name == "join8-reopt") {
    s.scale = 0.2;
    s.train_queries = 16;
    s.train_min_joins = 6;
    s.train_max_joins = 8;
    s.pool_size = 16;
    s.pool_min_joins = 8;
    s.pool_max_joins = 8;
    s.serve = false;
  } else if (name == "serve-churn") {
    s.scale = 0.02;
    s.train_queries = 32;
    s.train_min_joins = 6;
    s.train_max_joins = 8;
    s.pool_size = 256;
    s.pool_min_joins = 6;
    s.pool_max_joins = 8;
    s.serve = true;
    s.cache_capacity = 64;
    s.cycle_copies = 2;
    s.feedback = true;
    s.publish_every = 128;
  } else {
    s.name.clear();
    return s;
  }
  if (tiny) {
    // Self-test sizes: same shape, seconds instead of tens of seconds.
    s.scale = std::min(s.scale, 0.02);
    s.train_queries = 6;
    s.lpce_i_epochs = 1;
    s.lpce_r_pretrain_epochs = 1;
    s.lpce_r_refine_epochs = 1;
    s.pool_size = std::min(s.pool_size, 32);
    s.cache_capacity = std::min<size_t>(s.cache_capacity, 4);
    if (s.publish_every > 0) s.publish_every = 8;
  }
  return s;
}

// Engine configuration: the re-optimization trigger of the bench_world
// LPCE-R lineup entry; one executor thread; every executor knob left at its
// RunConfig default so the benchmark measures the shipped defaults.
eng::RunConfig MakeRunConfig() {
  eng::RunConfig config;
  config.enable_reopt = true;
  config.underestimates_only = true;
  config.min_trip_rows = 2000;
  config.consider_restart = false;
  config.exec_threads = 1;
  return config;
}

// ---------------------------------------------------------------------------
// Setup.

struct Setup {
  std::unique_ptr<db::Database> database;
  std::unique_ptr<stats::DatabaseStats> stats;
  std::unique_ptr<model::FeatureEncoder> encoder;
  std::shared_ptr<model::TreeModel> lpce_i;
  std::shared_ptr<model::LpceR> lpce_r;
  double db_build_s = 0.0;
  double label_train_s = 0.0;
  double train_lpce_i_s = 0.0;
  double train_lpce_r_s = 0.0;

  double total_s() const {
    return db_build_s + label_train_s + train_lpce_i_s + train_lpce_r_s;
  }
};

std::unique_ptr<Setup> RunSetup(const Spec& spec) {
  auto setup = std::make_unique<Setup>();
  WallTimer timer;
  db::SynthImdbOptions db_options;
  db_options.seed = kDatabaseSeed;
  db_options.scale = spec.scale;
  setup->database = db::BuildSynthImdb(db_options);
  setup->stats = std::make_unique<stats::DatabaseStats>(*setup->database);
  setup->encoder = std::make_unique<model::FeatureEncoder>(
      &setup->database->catalog(), setup->stats.get());
  setup->db_build_s = timer.ElapsedSeconds();

  timer.Restart();
  wk::GeneratorOptions gen;
  gen.seed = kTrainSeed;
  gen.require_nonempty = true;
  const std::vector<wk::LabeledQuery> train =
      wk::QueryGenerator(setup->database.get(), gen)
          .GenerateLabeled(spec.train_queries, spec.train_min_joins,
                           spec.train_max_joins);
  setup->label_train_s = timer.ElapsedSeconds();

  // LPCE-I: the small SRU student configuration of the bench lineup,
  // trained node-wise (distillation from a large teacher is left out to
  // keep setup in seconds).
  timer.Restart();
  model::TreeModelConfig config;
  config.feature_dim = setup->encoder->dim();
  config.dim = 32;
  config.embed_hidden = 32;
  config.out_hidden = 64;
  config.log_max_card =
      std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  config.seed = 11;
  setup->lpce_i =
      std::make_shared<model::TreeModel>(setup->encoder.get(), config);
  model::TrainOptions train_options;
  train_options.epochs = spec.lpce_i_epochs;
  train_options.tag = "lpce_i";
  model::TrainTreeModel(setup->lpce_i.get(), *setup->database, train,
                        train_options);
  setup->train_lpce_i_s = timer.ElapsedSeconds();

  timer.Restart();
  setup->lpce_r = std::make_shared<model::LpceR>(
      setup->encoder.get(), config, model::RefinerMode::kFull);
  model::LpceRTrainOptions r_options;
  r_options.pretrain.epochs = spec.lpce_r_pretrain_epochs;
  r_options.pretrain.tag = "lpce_r_pretrain";
  r_options.refine_epochs = spec.lpce_r_refine_epochs;
  r_options.prefixes_per_query = 2;
  r_options.pretrained_content = setup->lpce_i.get();
  model::TrainLpceR(setup->lpce_r.get(), *setup->database, train, r_options);
  setup->train_lpce_r_s = timer.ElapsedSeconds();
  return setup;
}

// ---------------------------------------------------------------------------
// Statistics helpers.

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile. Emitted only when at least 10 samples lie beyond
// it; returns false otherwise.
bool Percentile(std::vector<double> v, double pct, double* out) {
  if (v.empty()) return false;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return false;
  *out = v[rank - 1];
  return true;
}

// Samples a pct percentile needs: at least 10 beyond its nearest rank.
size_t SamplesFor(double pct) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - pct / 100.0) - 1e-6));
}

double MaxRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit, size_t samples = 0) {
    if (samples > 0) {
      std::printf("# %-32s %14.6g %-6s (n=%zu)\n", name.c_str(), value,
                  unit.c_str(), samples);
    } else {
      std::printf("# %-32s %14.6g %s\n", name.c_str(), value, unit.c_str());
    }
    // Bit-level check: the Release build's -ffast-math folds std::isfinite.
    finite_ = finite_ && common::IsFinite(value);
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  // False when any value is NaN or infinite (not representable in JSON).
  bool finite() const { return finite_; }
  // Adds a percentile metric; a missing one (too few samples) is an error.
  bool AddPercentile(const std::string& name, const std::vector<double>& v,
                     double pct, const std::string& unit) {
    double value = 0.0;
    if (!Percentile(v, pct, &value)) {
      std::fprintf(stderr, "perfbench: %s needs %zu samples, have %zu\n",
                   name.c_str(), SamplesFor(pct), v.size());
      return false;
    }
    Add(name, value, unit, v.size());
    return true;
  }
  std::string Json() const {
    std::string out = "{";
    char buf[160];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  bool finite_ = true;
};

// ---------------------------------------------------------------------------
// Traffic and the measured closed loop.

// Deterministic traffic for one seed: indices into the query pool. Traffic
// is a sequence of cycles, each a fixed multiset of pool indices in a fresh
// seeded order: every template spec.cycle_copies times.
// Measuring whole cycles makes every run execute the same query mix; the
// seed only orders it. Two copies per cycle let a template recur at a random
// distance, as under independent draws, instead of exactly once per cycle,
// which would defeat an LRU cache smaller than the template set.
class Traffic {
 public:
  Traffic(const Spec& spec, size_t pool_size, uint64_t seed)
      : rng_(seed ^ 0x5eedf00dULL) {
    for (size_t r = 0; r < pool_size; ++r) {
      cycle_.insert(cycle_.end(), static_cast<size_t>(spec.cycle_copies), r);
    }
    cursor_ = cycle_.size();
  }

  size_t Next() {
    if (cursor_ == cycle_.size()) {
      rng_.Shuffle(&cycle_);
      cursor_ = 0;
    }
    return cycle_[cursor_++];
  }

  // True when the next Next() starts a new cycle.
  bool AtCycleStart() const { return cursor_ == cycle_.size(); }
  size_t cycle_length() const { return cycle_.size(); }

 private:
  Rng rng_;
  std::vector<size_t> cycle_;
  size_t cursor_ = 0;
};

struct QuerySample {
  double latency_ms = 0.0;  // client-observed, submit to result
  eng::RunStats stats;
};

struct WindowResult {
  std::vector<QuerySample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // rejections + row-count mismatches
  double seconds = 0.0;  // wall time from the first submission to the last result
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_evictions = 0;
  uint64_t rejected = 0;
  uint64_t session_rebuilds = 0;
};

// The system under test: either one Engine driven serially, or an
// EngineServer fed by a closed window of outstanding queries.
class Harness {
 public:
  Harness(const Spec& spec, const Setup& setup,
          const std::vector<wk::LabeledQuery>& pool,
          const std::string& feedback_dir)
      : spec_(spec), setup_(setup), pool_(pool), config_(MakeRunConfig()) {
    const db::Database* database = setup.database.get();
    if (!spec.serve) {
      engine_ = std::make_unique<eng::Engine>(database, opt::CostModel{});
      initial_ = std::make_unique<model::TreeModelEstimator>(
          "LPCE-I", setup.lpce_i.get(), database);
      refiner_ = std::make_unique<model::LpceREstimator>(setup.lpce_r.get(),
                                                         database);
      return;
    }
    if (spec.feedback) {
      fb::FeedbackStoreOptions fb_options;
      fb_options.dir = feedback_dir;
      fb_options.per_template_cap = kFeedbackCap;
      feedback_ = std::make_unique<fb::FeedbackStore>(fb_options);
    }
    registry_.Publish(setup.lpce_i, setup.lpce_r, "initial");
    eng::ServerOptions options;
    options.num_workers = kServerWorkers;
    options.max_queue = 256;
    options.run_config = config_;
    options.plan_cache_capacity = spec.cache_capacity;
    options.model_registry = &registry_;
    options.feedback_store = feedback_.get();
    server_ = std::make_unique<eng::EngineServer>(
        database, opt::CostModel{},
        [database](int, const model::ModelVersion& version) {
          eng::EngineServer::Session session;
          session.initial = std::make_unique<model::TreeModelEstimator>(
              "LPCE-I", version.model.get(), database);
          session.refiner = std::make_unique<model::LpceREstimator>(
              version.refiner.get(), database);
          return session;
        },
        options);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // One untimed pass over every pool query, in pool order.
  WindowResult WarmUp() {
    WindowResult result;
    SpanRecorder off;
    size_t next = 0;
    Drive([&](size_t* index) {
      if (next == pool_.size()) return false;
      *index = next++;
      return true;
    }, &off, &result);
    return result;
  }

  // Measures whole traffic cycles until `seconds` have passed and at least
  // `min_samples` queries ran, but stops submitting after kMaxWindowSeconds
  // (a percentile then lacks samples and the run fails). The plan cache
  // starts every window cold. Spans go to `spans` when it is enabled.
  WindowResult Run(Traffic* traffic, double seconds, size_t min_samples,
                   SpanRecorder* spans) {
    if (server_ != nullptr) server_->InvalidatePlanCache();
    WindowResult result;
    const opt::PlanCacheCounters cache_before = CacheCounters();
    const eng::EngineServer::Counters server_before = ServerCounters();
    WallTimer timer;
    Drive([&](size_t* index) {
      const double elapsed = timer.ElapsedSeconds();
      if (elapsed >= kMaxWindowSeconds ||
          (elapsed >= seconds && result.attempted >= min_samples &&
           traffic->AtCycleStart())) {
        return false;
      }
      *index = traffic->Next();
      return true;
    }, spans, &result);
    result.seconds = timer.ElapsedSeconds();
    const opt::PlanCacheCounters cache_after = CacheCounters();
    result.cache_hits = cache_after.hits - cache_before.hits;
    result.cache_lookups =
        result.cache_hits + cache_after.misses - cache_before.misses;
    result.cache_evictions = cache_after.evictions - cache_before.evictions;
    const eng::EngineServer::Counters server_after = ServerCounters();
    result.rejected = server_after.rejected - server_before.rejected;
    result.session_rebuilds =
        server_after.session_rebuilds - server_before.session_rebuilds;
    return result;
  }

 private:
  struct Outstanding {
    size_t index = 0;
    int span = -1;
    WallTimer latency;
    std::shared_future<eng::RunStats> future;
  };

  // Runs the pool indices `next(&index)` yields until it returns false: one
  // at a time on the serial engine, or keeping kWindow queries
  // outstanding on the server (the rest drain after the last submission).
  template <typename Next>
  void Drive(Next next, SpanRecorder* spans, WindowResult* result) {
    std::deque<Outstanding> outstanding;
    size_t index = 0;
    bool submitting = true;
    while (true) {
      while (submitting && outstanding.size() < kWindow) {
        if (!next(&index)) {
          submitting = false;
          break;
        }
        ++result->attempted;
        Outstanding o;
        o.index = index;
        o.span = spans->BeginRoot("query", static_cast<int64_t>(next_query_id_++));
        if (server_ == nullptr) {
          QuerySample sample;
          sample.stats = engine_->RunQuery(pool_[index].query, initial_.get(),
                                           refiner_.get(), config_);
          sample.latency_ms = o.latency.ElapsedMillis();
          spans->End(o.span);
          Retire(index, std::move(sample), result);
          continue;
        }
        if (spec_.publish_every > 0 && submissions_ > 0 &&
            submissions_ % static_cast<uint64_t>(spec_.publish_every) == 0) {
          ScopedSpan span(spans, "serve.registry.publish", -1);
          registry_.Publish(setup_.lpce_i, setup_.lpce_r, "republish");
        }
        ++submissions_;
        auto admitted = server_->Submit(pool_[index].query);
        if (!admitted.ok()) {
          spans->End(o.span);
          ++result->failed;
          continue;
        }
        o.future = admitted.value();
        outstanding.push_back(std::move(o));
      }
      if (outstanding.empty()) break;
      // Wait until any outstanding query completes: block briefly on the
      // oldest (it wakes the moment that one finishes), then retire every
      // query that is complete, so the window refills without waiting on
      // the oldest. Latency of a non-oldest query is read within one poll
      // interval of its completion.
      outstanding.front().future.wait_for(kPollInterval);
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        QuerySample sample;
        sample.stats = it->future.get();
        sample.latency_ms = it->latency.ElapsedMillis();
        spans->End(it->span);
        Retire(it->index, std::move(sample), result);
        it = outstanding.erase(it);
      }
    }
  }

  void Retire(size_t index, QuerySample sample, WindowResult* result) {
    if (sample.stats.result_count != pool_[index].FinalCard()) {
      ++result->failed;
      std::fprintf(stderr, "perfbench: query %zu returned %llu rows, label %llu\n",
                   index,
                   static_cast<unsigned long long>(sample.stats.result_count),
                   static_cast<unsigned long long>(pool_[index].FinalCard()));
      return;
    }
    sample.stats.trace.reset();  // keep memory flat over long windows
    sample.stats.initial_plan.clear();
    sample.stats.final_plan.clear();
    result->samples.push_back(std::move(sample));
  }

  opt::PlanCacheCounters CacheCounters() {
    if (server_ == nullptr || server_->plan_cache() == nullptr) return {};
    return server_->plan_cache()->counters();
  }
  eng::EngineServer::Counters ServerCounters() {
    return server_ == nullptr ? eng::EngineServer::Counters{}
                              : server_->counters();
  }

  const Spec& spec_;
  const Setup& setup_;
  const std::vector<wk::LabeledQuery>& pool_;
  const eng::RunConfig config_;
  // Serial loop.
  std::unique_ptr<eng::Engine> engine_;
  std::unique_ptr<card::CardinalityEstimator> initial_;
  std::unique_ptr<card::CardinalityEstimator> refiner_;
  // Served. The server is declared last so it shuts down (draining and
  // joining its workers) before the registry and store it uses go away.
  model::ModelRegistry registry_;
  std::unique_ptr<fb::FeedbackStore> feedback_;
  std::unique_ptr<eng::EngineServer> server_;
  uint64_t submissions_ = 0;
  uint64_t next_query_id_ = 0;
};

// ---------------------------------------------------------------------------
// Estimation quality: the served estimator's initial estimate of every
// labeled sub-plan of the pool. Deterministic for a given workload.

std::vector<double> InitialQErrors(const Setup& setup,
                                   const std::vector<wk::LabeledQuery>& pool) {
  model::TreeModelEstimator estimator("LPCE-I", setup.lpce_i.get(),
                                      setup.database.get());
  std::vector<double> qerrors;
  for (const wk::LabeledQuery& labeled : pool) {
    estimator.PrepareQuery(labeled.query);
    for (const auto& [rels, card] : labeled.true_cards) {
      qerrors.push_back(exec::QError(
          estimator.EstimateSubset(labeled.query, rels), static_cast<double>(card)));
    }
  }
  return qerrors;
}

int ConnectedSubsets(const qry::Query& query) {
  int count = 0;
  for (qry::RelSet rels = 1; rels <= query.AllRels(); ++rels) {
    if (query.IsConnected(rels)) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Layer probe: a serial replay of one traffic cycle that calls each layer's
// public entry point directly, inside spans, on the workload's own queries.

struct ProbeResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t queries = 0;
  double estimates = 0.0;
  double nodes = 0.0;       // sub-plans LPCE-I prepares (connected subsets)
  double rows = 0.0;        // output rows of every operator of the plan
  double peak_bytes = 0.0;  // summed over queries
  double reopts = 0.0;
  uint64_t log_bytes = 0;
};

ProbeResult RunProbe(const Spec& spec, const Setup& setup,
                     const std::vector<wk::LabeledQuery>& pool, uint64_t seed,
                     const std::string& feedback_dir, SpanRecorder* spans) {
  const db::Database* database = setup.database.get();
  model::TreeModelEstimator initial("LPCE-I", setup.lpce_i.get(), database);
  model::LpceREstimator refiner(setup.lpce_r.get(), database);
  opt::Planner planner(database, opt::CostModel{});
  eng::Engine engine(database, opt::CostModel{});
  const eng::RunConfig config = MakeRunConfig();
  opt::PlanCache cache(std::max<size_t>(spec.cache_capacity, 1));
  fb::FeedbackStoreOptions fb_options;
  fb_options.dir = feedback_dir;
  fb::FeedbackStore store(fb_options);
  const std::string log_path = feedback_dir + "/feedback.log";
  const uint64_t log_start = std::filesystem::file_size(log_path);

  ProbeResult result;
  Traffic traffic(spec, pool.size(), seed);
  const size_t count = traffic.cycle_length();
  constexpr int64_t kProbeIdBase = 1'000'000'000;  // apart from served ids
  for (size_t i = 0; i < count; ++i) {
    const wk::LabeledQuery& labeled = pool[traffic.Next()];
    const qry::Query& query = labeled.query;
    const int64_t id = kProbeIdBase + static_cast<int64_t>(i);
    ScopedSpan query_span(spans, "probe.query", id);
    ++result.attempted;

    qry::TemplateFingerprint fingerprint;
    opt::PlanCache::LookupOutcome lookup;
    {
      ScopedSpan span(spans, "plan_cache.lookup", id);
      fingerprint = opt::PlanCache::Fingerprint(query, initial);
      lookup = cache.Lookup(fingerprint, query);
    }
    {
      ScopedSpan span(spans, "lpce.prepare", id);
      initial.PrepareQuery(query);
    }
    result.nodes += ConnectedSubsets(query);
    opt::PlanResult planned;
    {
      ScopedSpan span(spans, "optimizer.plan", id);
      planned = planner.Plan(query, &initial);
    }
    result.estimates += static_cast<double>(planned.num_estimates);
    if (!lookup.hit()) {
      cache.Insert(fingerprint, lookup.epoch, *planned.plan, planned.pool);
    }

    exec::Executor executor(database, &query);
    exec::Executor::Options exec_options;
    exec_options.num_threads = 1;
    exec::Executor::RunResult run;
    {
      ScopedSpan span(spans, "exec.run", id);
      run = executor.Run(planned.plan.get(), exec_options);
    }
    if (run.result == nullptr || run.result->num_rows() != labeled.FinalCard()) {
      ++result.failed;
      std::fprintf(stderr, "perfbench: probe query %zu row count mismatch\n", i);
      continue;
    }
    std::vector<exec::PlanNode*> nodes;
    exec::PostOrderPlan(planned.plan.get(), &nodes);
    std::map<qry::RelSet, uint64_t> actuals;
    for (const exec::PlanNode* node : nodes) {
      result.rows += static_cast<double>(node->actual_card);
      actuals.emplace(node->rels, node->actual_card);
    }
    result.peak_bytes += static_cast<double>(executor.peak_intermediate_bytes());

    // Every operator below the root finished: observe them bottom-up as a
    // checkpoint would, then refine the root's estimate.
    refiner.ResetObservations();
    refiner.PrepareQuery(query);
    for (const exec::PlanNode* node : nodes) {
      if (node == planned.plan.get()) continue;
      refiner.ObserveActual(query, node->rels,
                            static_cast<double>(node->actual_card));
    }
    {
      ScopedSpan span(spans, "lpce.refine", id);
      refiner.EstimateSubset(query, query.AllRels());
    }

    fb::FeedbackQuery record;
    record.fss_hash = fingerprint.fss_hash;
    record.query = query;
    record.actuals.assign(actuals.begin(), actuals.end());
    {
      ScopedSpan span(spans, "feedback.append", id);
      store.Append(record);
    }

    eng::RunStats stats;
    {
      ScopedSpan span(spans, "engine.run_query", id);
      stats = engine.RunQuery(query, &initial, &refiner, config);
    }
    if (stats.result_count != labeled.FinalCard()) {
      ++result.failed;
      continue;
    }
    result.reopts += stats.num_reopts;
    ++result.queries;
  }
  result.log_bytes = std::filesystem::file_size(log_path) - log_start;

  // Registry: re-publish the served weights, with the server's plan-cache
  // invalidation hook attached.
  model::ModelRegistry registry;
  registry.AddPublishHook([&cache](const model::ModelVersion&) { cache.Invalidate(); });
  for (int i = 0; i < kProbePublishes; ++i) {
    ScopedSpan span(spans, "registry.publish", -1);
    registry.Publish(setup.lpce_i, setup.lpce_r, "probe");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Command line and main.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      args->has_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->has_seed && args->seconds > 0.0 &&
         args->trace >= 0;
}

// The benchmark configures the engine only through RunConfig and
// ServerOptions; an LPCE_* variable would silently change what is measured.
bool EnvironmentClean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "LPCE_", 5) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      clean = false;
    }
  }
  return clean;
}

int Main(int argc, char** argv) {
  const bool allocator_ok = mallopt(M_MMAP_THRESHOLD, kMmapThreshold) == 1 &&
                            mallopt(M_TRIM_THRESHOLD, kTrimThreshold) == 1 &&
                            mallopt(M_TOP_PAD, kTopPad) == 1;
  if (!allocator_ok) {
    std::fprintf(stderr, "perfbench: cannot configure the allocator\n");
    return 2;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload join8-reopt|serve-churn"
                 " --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]\n");
    return 2;
  }
  const Spec spec = MakeSpec(args.workload, args.tiny);
  if (spec.name.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!EnvironmentClean()) return 2;

  // One intra-query thread everywhere, training included: a pool sized to
  // the machine makes wall time drift far from CPU time on a shared box.
  common::SetGlobalPoolSize(1);
  const eng::RunConfig config = MakeRunConfig();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, args.tiny ? " tiny" : "");
  std::printf(
      "# config scale=%g train_queries=%d(%d-%d joins) epochs=lpce_i:%d,lpce_r:%d+%d"
      " pool=%d(%d-%d joins) cycle_copies=%d mode=%s workers=%d window=%zu plan_cache=%zu feedback=%s"
      " publish_every=%d pool_threads=%d exec_threads=%d exec_batch_size=%d"
      " exec_late_mat=%d reopt=%d qerror_threshold=%g min_trip_rows=%zu"
      " underestimates_only=%d consider_restart=%d max_reopts=%d"
      " malloc=mmap_threshold:%d,trim_threshold:%d,top_pad:%d\n",
      spec.scale, spec.train_queries, spec.train_min_joins, spec.train_max_joins,
      spec.lpce_i_epochs, spec.lpce_r_pretrain_epochs, spec.lpce_r_refine_epochs,
      spec.pool_size, spec.pool_min_joins, spec.pool_max_joins, spec.cycle_copies,
      spec.serve ? "server" : "serial",
      spec.serve ? kServerWorkers : 0, spec.serve ? kWindow : size_t{1},
      spec.cache_capacity, spec.feedback ? "disk(fflush per record, no fsync)" : "off",
      spec.publish_every, common::GlobalPool().size(), config.exec_threads,
      config.exec_batch_size, config.exec_late_mat, config.enable_reopt ? 1 : 0,
      config.qerror_threshold, config.min_trip_rows,
      config.underestimates_only ? 1 : 0, config.consider_restart ? 1 : 0,
      config.max_reopts, kMmapThreshold, kTrimThreshold, kTopPad);

  // Set up several times from scratch; the last setup is the one served.
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s, db_build_s, label_train_s, train_i_s, train_r_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    setup = RunSetup(spec);
    setup_s.push_back(setup->total_s());
    db_build_s.push_back(setup->db_build_s);
    label_train_s.push_back(setup->label_train_s);
    train_i_s.push_back(setup->train_lpce_i_s);
    train_r_s.push_back(setup->train_lpce_r_s);
  }

  WallTimer pool_timer;
  wk::GeneratorOptions gen;
  gen.seed = kPoolSeed;
  gen.require_nonempty = true;
  const std::vector<wk::LabeledQuery> pool =
      wk::QueryGenerator(setup->database.get(), gen)
          .GenerateLabeled(spec.pool_size, spec.pool_min_joins, spec.pool_max_joins);
  const std::vector<double> qerrors = InitialQErrors(*setup, pool);
  std::printf("# pool labeled in %.3fs\n", pool_timer.ElapsedSeconds());

  // Per-run scratch space inside the output directory, removed at exit.
  const std::string run_dir = args.out_dir + "/run-" + spec.name + "-" +
                              std::to_string(static_cast<long long>(getpid()));
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir + "/served-feedback");
  std::filesystem::create_directories(run_dir + "/probe-feedback");

  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  bool ok = true;
  int threads = 0;  // process threads while the system under test is live
  {
    Harness harness(spec, *setup, pool, run_dir + "/served-feedback");
    const WindowResult warm = harness.WarmUp();
    attempted += warm.attempted;
    failed += warm.failed;
    Traffic traffic(spec, pool.size(), args.seed);
    SpanRecorder spans;

    if (args.trace == 0) {
      const WindowResult w = harness.Run(&traffic, args.seconds, SamplesFor(99.0), &spans);
      attempted += w.attempted;
      failed += w.failed;
      std::vector<double> latency;
      for (const QuerySample& s : w.samples) latency.push_back(s.latency_ms);
      std::printf("# setup repetitions (s):");
      for (double v : setup_s) std::printf(" %.4f", v);
      std::printf("\n");
      metrics.Add("setup_s", Median(setup_s), "s", setup_s.size());
      std::vector<double> t_end;
      for (const QuerySample& s : w.samples) t_end.push_back(s.stats.TotalSeconds() * 1e3);
      metrics.Add("qps", static_cast<double>(w.samples.size()) / w.seconds, "1/s",
                  w.samples.size());
      ok &= metrics.AddPercentile("latency_p50_ms", latency, 50.0, "ms");
      ok &= metrics.AddPercentile("latency_p95_ms", latency, 95.0, "ms");
      ok &= metrics.AddPercentile("latency_p99_ms", latency, 99.0, "ms");
      metrics.Add("t_end_mean_ms", Mean(t_end), "ms", t_end.size());
      metrics.Add("success_frac",
                  w.attempted == 0 ? 0.0
                                   : static_cast<double>(w.attempted - w.failed) /
                                         static_cast<double>(w.attempted),
                  "frac", w.attempted);
      ok &= metrics.AddPercentile("qerror_p50", qerrors, 50.0, "ratio");
      ok &= metrics.AddPercentile("qerror_p95", qerrors, 95.0, "ratio");
      metrics.Add("max_rss_mb", MaxRssMb(), "MiB");
    } else {
      // Untraced and traced quarter-windows in ABBA order, so a steady drift
      // in machine speed cancels out of the tracing-overhead estimate.
      // Correct queries and wall seconds of the untraced [0] and traced [1]
      // quarters.
      double queries[2] = {0.0, 0.0};
      double seconds[2] = {0.0, 0.0};
      std::vector<QuerySample> traced;
      uint64_t rejected = 0, rebuilds = 0, hits = 0, lookups = 0, evictions = 0;
      for (int quarter = 0; quarter < 4; ++quarter) {
        const bool tracing = quarter == 1 || quarter == 2;
        spans.set_enabled(tracing);
        WindowResult w = harness.Run(&traffic, args.seconds / 4.0,
                                     SamplesFor(95.0) / 2, &spans);
        attempted += w.attempted;
        failed += w.failed;
        rejected += w.rejected;
        rebuilds += w.session_rebuilds;
        queries[tracing] += static_cast<double>(w.samples.size());
        seconds[tracing] += w.seconds;
        if (!tracing) continue;
        hits += w.cache_hits;
        lookups += w.cache_lookups;
        evictions += w.cache_evictions;
        for (QuerySample& sample : w.samples) traced.push_back(std::move(sample));
      }
      spans.set_enabled(true);

      std::vector<double> t_plan, t_infer, t_reopt, t_exec, t_end, wait;
      for (const QuerySample& s : traced) {
        t_plan.push_back(s.stats.plan_seconds * 1e3);
        t_infer.push_back(s.stats.inference_seconds * 1e3);
        t_reopt.push_back(s.stats.reopt_seconds * 1e3);
        t_exec.push_back(s.stats.exec_seconds * 1e3);
        t_end.push_back(s.stats.TotalSeconds() * 1e3);
        wait.push_back(s.latency_ms - s.stats.TotalSeconds() * 1e3);
      }
      const double phase_sum =
          Mean(t_plan) + Mean(t_infer) + Mean(t_reopt) + Mean(t_exec);
      std::printf("# engine phases sum to %.6f ms; mean T_end %.6f ms\n", phase_sum,
                  Mean(t_end));
      if (std::fabs(phase_sum - Mean(t_end)) > 1e-9 * std::max(1.0, Mean(t_end))) {
        std::fprintf(stderr, "perfbench: engine phases do not sum to T_end\n");
        ok = false;
      }
      const size_t n = traced.size();
      metrics.Add("engine.t_plan_ms", Mean(t_plan), "ms", n);
      metrics.Add("engine.t_infer_ms", Mean(t_infer), "ms", n);
      metrics.Add("engine.t_reopt_ms", Mean(t_reopt), "ms", n);
      metrics.Add("engine.t_exec_ms", Mean(t_exec), "ms", n);
      ok &= metrics.AddPercentile("server.queue_wait_ms_p50", wait, 50.0, "ms");
      ok &= metrics.AddPercentile("server.queue_wait_ms_p95", wait, 95.0, "ms");
      metrics.Add("server.rejected", static_cast<double>(rejected), "count");
      metrics.Add("server.session_rebuilds", static_cast<double>(rebuilds), "count");
      metrics.Add("plan_cache.hit_ratio",
                  lookups == 0 ? 0.0
                               : static_cast<double>(hits) / static_cast<double>(lookups),
                  "frac", lookups);
      metrics.Add("plan_cache.evictions", static_cast<double>(evictions), "count");
      const double qps_plain = queries[0] / seconds[0];
      const double qps_traced = queries[1] / seconds[1];

      const ProbeResult probe = RunProbe(spec, *setup, pool, args.seed,
                                         run_dir + "/probe-feedback", &spans);
      attempted += probe.attempted;
      failed += probe.failed;
      const auto summary = spans.Summarize();
      auto mean_us = [&](const char* name) {
        auto it = summary.find(name);
        return it == summary.end() || it->second.count == 0
                   ? 0.0
                   : it->second.total_us / static_cast<double>(it->second.count);
      };
      auto count = [&](const char* name) {
        auto it = summary.find(name);
        return it == summary.end() ? size_t{0} : static_cast<size_t>(it->second.count);
      };
      const double q = static_cast<double>(std::max<size_t>(probe.queries, 1));
      metrics.Add("engine.reopts_per_query", probe.reopts / q, "count", probe.queries);
      metrics.Add("optimizer.plan_us", mean_us("optimizer.plan"), "us",
                  count("optimizer.plan"));
      metrics.Add("optimizer.estimates_per_plan", probe.estimates / q, "count",
                  probe.queries);
      metrics.Add("plan_cache.lookup_us", mean_us("plan_cache.lookup"), "us",
                  count("plan_cache.lookup"));
      metrics.Add("lpce.prepare_us", mean_us("lpce.prepare"), "us",
                  count("lpce.prepare"));
      metrics.Add("lpce.infer_us_per_node",
                  mean_us("lpce.prepare") * static_cast<double>(count("lpce.prepare")) /
                      std::max(probe.nodes, 1.0),
                  "us", count("lpce.prepare"));
      metrics.Add("lpce.refine_us", mean_us("lpce.refine"), "us", count("lpce.refine"));
      const double exec_ms = mean_us("exec.run") * 1e-3;
      metrics.Add("exec.run_ms", exec_ms, "ms", count("exec.run"));
      metrics.Add("exec.ns_per_row",
                  exec_ms * 1e6 * static_cast<double>(count("exec.run")) /
                      std::max(probe.rows, 1.0),
                  "ns", count("exec.run"));
      metrics.Add("exec.rows_per_query", probe.rows / q, "count", probe.queries);
      metrics.Add("exec.peak_intermediate_mb", probe.peak_bytes / q / (1024.0 * 1024.0),
                  "MiB", probe.queries);
      metrics.Add("feedback.append_us", mean_us("feedback.append"), "us",
                  count("feedback.append"));
      metrics.Add("feedback.log_bytes_per_query",
                  static_cast<double>(probe.log_bytes) / q, "bytes", probe.queries);
      metrics.Add("registry.publish_us", mean_us("registry.publish"), "us",
                  count("registry.publish"));
      metrics.Add("setup.db_build_s", Median(db_build_s), "s", db_build_s.size());
      metrics.Add("setup.label_train_s", Median(label_train_s), "s",
                  label_train_s.size());
      metrics.Add("setup.train_lpce_i_s", Median(train_i_s), "s", train_i_s.size());
      metrics.Add("setup.train_lpce_r_s", Median(train_r_s), "s", train_r_s.size());
      metrics.Add("trace.overhead_frac", qps_plain / qps_traced - 1.0, "frac");

      const std::string trace_path = args.out_dir + "/trace-" + spec.name + "-" +
                                     std::to_string(args.seed) + ".json";
      if (!spans.WriteJson(trace_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
        ok = false;
      }
      std::printf("# spans: %zu written to %s\n", spans.spans().size(),
                  trace_path.c_str());
    }
    threads = ProcessThreads();
  }
  std::filesystem::remove_all(run_dir);
  std::printf("# process threads while serving: %d (nproc %ld)\n", threads,
              sysconf(_SC_NPROCESSORS_ONLN));

  const bool correct = ok && metrics.finite() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
