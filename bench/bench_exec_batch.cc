// Vectorized-executor bench: T_E on a join-heavy scan+filter+join workload,
// row-at-a-time (the oracle) vs the vectorized path (exec/vectorized.h,
// row-id intermediates), on two plan lanes over the same queries:
//  - canonical: exec::BuildCanonicalHashPlan, all hash joins;
//  - optimizer: the plans the DP planner picks from histogram estimates —
//    the plans the engine actually runs, nested-loop and merge joins
//    included.
// Plus the bit-identity pin the speedups are only allowed to ride on: every
// finished operator's rowset of the vectorized path, at pool sizes
// {1, 2, 4}, gathered through exec::MaterializeRowSet, must equal the row
// path's single-thread output bit for bit, on both lanes. Peak intermediate
// bytes are reported per path; the vectorized path must shrink them.
//
// Self-contained like bench_plancache: builds its own synthetic database,
// runs in seconds.
//
// Flags:
//   --scale=F             synthetic database scale (default 0.2)
//   --queries=N           generated queries (default 8)
//   --joins=N             joins per query (default 8 — the Join-eight shape)
//   --batch=N             batch size for the vectorized path (default 1024)
//   --repeats=N           timing repeats per query; min is kept (default 5)
//   --min_speedup=F       fail (exit 1) if the vectorized T_E speedup over
//                         the row path on the canonical lane is below this
//                         (default 2; 0 disables); also requires the
//                         vectorized peak bytes < row peak bytes
//   --metrics_json=PATH   append one summary JSON line
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "card/histogram_estimator.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "exec/vectorized.h"
#include "optimizer/planner.h"
#include "stats/column_stats.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace lpce::bench {
namespace {

struct Flags {
  double scale = 0.2;
  int queries = 8;
  int joins = 8;
  int batch = 1024;
  int repeats = 5;
  double min_speedup = 2.0;
  std::string metrics_json;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--scale=")) {
      flags.scale = std::atof(v);
    } else if (const char* v = value_of("--queries=")) {
      flags.queries = std::atoi(v);
    } else if (const char* v = value_of("--joins=")) {
      flags.joins = std::atoi(v);
    } else if (const char* v = value_of("--batch=")) {
      flags.batch = std::atoi(v);
    } else if (const char* v = value_of("--repeats=")) {
      flags.repeats = std::atoi(v);
    } else if (const char* v = value_of("--min_speedup=")) {
      flags.min_speedup = std::atof(v);
    } else if (const char* v = value_of("--metrics_json=")) {
      flags.metrics_json = v;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--scale=F] [--queries=N] "
                   "[--joins=N] [--batch=N] [--repeats=N] [--min_speedup=F] "
                   "[--metrics_json=PATH]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (flags.queries <= 0 || flags.joins <= 0 || flags.batch <= 0 ||
      flags.repeats <= 0) {
    std::fprintf(stderr, "need positive --queries/--joins/--batch/--repeats\n");
    std::exit(2);
  }
  return flags;
}

/// Post-order finished rowsets + root count of one executor run.
struct Outcome {
  std::vector<exec::RowSetPtr> rowsets;
  uint64_t result_rows = 0;
  double exec_seconds = 0.0;
  size_t peak_bytes = 0;
};

/// Runs `plan` once; batch_size 0 is the row oracle. Vectorized rowsets are
/// gathered back to payload columns when `materialize` is set.
Outcome RunOnce(const db::Database& database, const qry::Query& query,
                exec::PlanNode* plan, int batch_size, bool materialize) {
  Outcome outcome;
  exec::Executor executor(&database, &query);
  exec::Executor::Options options;
  options.batch_size = batch_size;
  WallTimer timer;
  exec::Executor::RunResult result = executor.Run(plan, options);
  outcome.exec_seconds = timer.ElapsedSeconds();
  outcome.peak_bytes = executor.peak_intermediate_bytes();
  std::vector<exec::PlanNode*> nodes;
  exec::PostOrderPlan(plan, &nodes);
  for (exec::PlanNode* node : nodes) {
    auto it = result.finished.find(node);
    exec::RowSetPtr rs = it != result.finished.end() ? it->second : nullptr;
    if (materialize && rs != nullptr) rs = exec::MaterializeRowSet(database, rs);
    outcome.rowsets.push_back(rs);
  }
  if (std::getenv("LPCE_BENCH_PER_NODE") != nullptr) {
    for (exec::PlanNode* node : nodes) {
      std::printf("  [batch=%d] %-12s card=%-10llu %.3fms\n", batch_size,
                  exec::PhysOpName(node->op),
                  static_cast<unsigned long long>(node->actual_card),
                  node->exec_seconds * 1e3);
    }
  }
  outcome.result_rows =
      result.result != nullptr ? result.result->num_rows() : 0;
  return outcome;
}

bool BitIdentical(const Outcome& a, const Outcome& b) {
  if (a.result_rows != b.result_rows) return false;
  if (a.rowsets.size() != b.rowsets.size()) return false;
  for (size_t i = 0; i < a.rowsets.size(); ++i) {
    if (a.rowsets[i] == nullptr || b.rowsets[i] == nullptr) {
      return a.rowsets[i] == b.rowsets[i];
    }
    if (!(a.rowsets[i]->schema == b.rowsets[i]->schema)) return false;
    if (a.rowsets[i]->row_count != b.rowsets[i]->row_count) return false;
    if (a.rowsets[i]->cols != b.rowsets[i]->cols) return false;
  }
  return true;
}

/// One plan lane: a plan per query, timed on both paths.
struct Lane {
  explicit Lane(const char* lane_name) : name(lane_name) {}
  const char* name;
  std::vector<std::unique_ptr<exec::PlanNode>> plans;
  double row_seconds = 0.0;
  double vec_seconds = 0.0;
  size_t row_peak = 0;
  size_t vec_peak = 0;
  uint64_t result_rows = 0;
  uint64_t mismatches = 0;

  double speedup() const {
    return vec_seconds > 0.0 ? row_seconds / vec_seconds : 0.0;
  }
};

// Timing: single-thread T_E, min of repeats. Single-thread is the honest
// comparison — the row oracle is sequential by design. Then the bit-identity
// pin at pool sizes {1, 2, 4}.
void MeasureLane(const db::Database& database,
                 const std::vector<qry::Query>& queries, const Flags& flags,
                 Lane* lane) {
  common::SetGlobalPoolSize(1);
  for (size_t q = 0; q < queries.size(); ++q) {
    exec::PlanNode* plan = lane->plans[q].get();
    double row_min = 0.0, vec_min = 0.0;
    for (int r = 0; r < flags.repeats; ++r) {
      const Outcome row = RunOnce(database, queries[q], plan, 0, false);
      if (r == 0 || row.exec_seconds < row_min) row_min = row.exec_seconds;
      const Outcome vec =
          RunOnce(database, queries[q], plan, flags.batch, false);
      if (r == 0 || vec.exec_seconds < vec_min) vec_min = vec.exec_seconds;
      if (r == 0) {
        lane->result_rows += row.result_rows;
        lane->row_peak += row.peak_bytes;
        lane->vec_peak += vec.peak_bytes;
      }
    }
    lane->row_seconds += row_min;
    lane->vec_seconds += vec_min;
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    exec::PlanNode* plan = lane->plans[q].get();
    common::SetGlobalPoolSize(1);
    const Outcome oracle = RunOnce(database, queries[q], plan, 0, false);
    for (int pool : {1, 2, 4}) {
      common::SetGlobalPoolSize(pool);
      const Outcome got =
          RunOnce(database, queries[q], plan, flags.batch, true);
      if (!BitIdentical(oracle, got)) {
        ++lane->mismatches;
        std::printf("!! %s bit-identity mismatch: query %zu batch=%d pool=%d\n",
                    lane->name, q, flags.batch, pool);
      }
    }
  }
  common::SetGlobalPoolSize(0);
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);

  db::SynthImdbOptions opts;
  opts.scale = flags.scale;
  auto database = db::BuildSynthImdb(opts);
  const stats::DatabaseStats stats(*database);
  card::HistogramEstimator estimator(&stats);
  opt::Planner planner(database.get(), opt::CostModel{});
  wk::GeneratorOptions gen;
  gen.seed = 811;
  wk::QueryGenerator generator(database.get(), gen);
  std::vector<qry::Query> queries;
  Lane canonical("canonical");
  Lane optimizer("optimizer");
  int join_mix[3] = {0, 0, 0};  // hash, merge, nested loop
  for (int i = 0; i < flags.queries; ++i) {
    queries.push_back(generator.Generate(flags.joins));
    canonical.plans.push_back(exec::BuildCanonicalHashPlan(queries.back()));
    estimator.PrepareQuery(queries.back());
    optimizer.plans.push_back(planner.Plan(queries.back(), &estimator).plan);
    std::vector<exec::PlanNode*> nodes;
    exec::PostOrderPlan(optimizer.plans.back().get(), &nodes);
    for (const exec::PlanNode* node : nodes) {
      join_mix[0] += node->op == exec::PhysOp::kHashJoin;
      join_mix[1] += node->op == exec::PhysOp::kMergeJoin;
      join_mix[2] += node->op == exec::PhysOp::kNestLoopJoin;
    }
  }

  const common::MetricsSnapshot before =
      common::MetricsRegistry::Global().Snapshot();
  MeasureLane(*database, queries, flags, &canonical);
  MeasureLane(*database, queries, flags, &optimizer);

  std::printf("exec batch bench: %d queries x %d joins, scale %.2f, "
              "batch %d, %llu result rows\n",
              flags.queries, flags.joins, flags.scale, flags.batch,
              static_cast<unsigned long long>(canonical.result_rows));
  std::printf("optimizer plans: %d hash / %d merge / %d nested-loop joins\n",
              join_mix[0], join_mix[1], join_mix[2]);
  for (const Lane* lane : {&canonical, &optimizer}) {
    std::printf("%-10s %-14s %10.1fms  peak %10llu B\n", lane->name,
                "row T_E", lane->row_seconds * 1e3,
                static_cast<unsigned long long>(lane->row_peak));
    std::printf("%-10s %-14s %10.1fms  peak %10llu B\n", lane->name,
                "vectorized T_E", lane->vec_seconds * 1e3,
                static_cast<unsigned long long>(lane->vec_peak));
    std::printf("%-10s vectorized speedup: %.2fx, peak bytes %.1f%% of row\n",
                lane->name, lane->speedup(),
                lane->row_peak > 0
                    ? 100.0 * static_cast<double>(lane->vec_peak) /
                          static_cast<double>(lane->row_peak)
                    : 0.0);
  }

  bool ok = true;
  const uint64_t mismatches = canonical.mismatches + optimizer.mismatches;
  if (mismatches > 0) {
    ok = false;
    std::printf("!! %llu bit-identity mismatches\n",
                static_cast<unsigned long long>(mismatches));
  }
  if (flags.min_speedup > 0.0) {
    if (canonical.speedup() < flags.min_speedup) {
      ok = false;
      std::printf("!! vectorized speedup %.2fx below required %.2fx\n",
                  canonical.speedup(), flags.min_speedup);
    }
    if (canonical.vec_peak >= canonical.row_peak) {
      ok = false;
      std::printf("!! vectorized peak bytes %llu not below row peak %llu\n",
                  static_cast<unsigned long long>(canonical.vec_peak),
                  static_cast<unsigned long long>(canonical.row_peak));
    }
  }

  if (!flags.metrics_json.empty()) {
    std::ofstream metrics_out(flags.metrics_json, std::ios::app);
    const common::MetricsSnapshot delta =
        common::Delta(before, common::MetricsRegistry::Global().Snapshot());
    char line[768];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"exec_batch\",\"queries\":%d,\"joins\":%d,"
        "\"scale\":%.3f,\"batch\":%d,\"repeats\":%d,\"row_te_ms\":%.3f,"
        "\"vec_te_ms\":%.3f,\"speedup\":%.3f,\"row_peak_bytes\":%llu,"
        "\"vec_peak_bytes\":%llu,\"opt_row_te_ms\":%.3f,"
        "\"opt_vec_te_ms\":%.3f,\"opt_speedup\":%.3f,"
        "\"opt_hash_joins\":%d,\"opt_merge_joins\":%d,\"opt_nl_joins\":%d,"
        "\"result_rows\":%llu,\"mismatches\":%llu,\"delta\":",
        flags.queries, flags.joins, flags.scale, flags.batch, flags.repeats,
        canonical.row_seconds * 1e3, canonical.vec_seconds * 1e3,
        canonical.speedup(),
        static_cast<unsigned long long>(canonical.row_peak),
        static_cast<unsigned long long>(canonical.vec_peak),
        optimizer.row_seconds * 1e3, optimizer.vec_seconds * 1e3,
        optimizer.speedup(), join_mix[0], join_mix[1], join_mix[2],
        static_cast<unsigned long long>(canonical.result_rows),
        static_cast<unsigned long long>(mismatches));
    metrics_out << line << delta.ToJson() << "}\n";
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lpce::bench

int main(int argc, char** argv) { return lpce::bench::Run(argc, argv); }
