// Executor edge cases: empty inputs, all-filtered scans, duplicate-heavy
// merge joins, row-limit aborts, peak-memory accounting, the vectorized
// path's selection-vector corners (empty batches, all-rows-pass filters,
// single-row tail batches, batch boundaries straddling join partition
// chunks), its merge / nested-loop kernels over row-id intermediates, and
// plans mixing all three join algorithms.
#include <functional>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/vectorized.h"
#include "storage/database.h"

namespace lpce::exec {
namespace {

class ExecEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = database_.AddTable({"a", {{"k"}, {"v"}}});
    b_ = database_.AddTable({"b", {{"k"}, {"w"}}});
    database_.catalog().AddJoinEdge({a_, 0}, {b_, 0});
    query_.tables = {a_, b_};
    query_.joins = {{{a_, 0}, {b_, 0}}};
  }

  std::unique_ptr<PlanNode> Scan(int pos, std::vector<qry::Predicate> filters = {}) {
    auto node = std::make_unique<PlanNode>();
    node->op = PhysOp::kSeqScan;
    node->rels = qry::Bit(pos);
    node->table_pos = pos;
    node->filters = std::move(filters);
    return node;
  }

  std::unique_ptr<PlanNode> Join(PhysOp op, std::unique_ptr<PlanNode> outer,
                                 std::unique_ptr<PlanNode> inner) {
    auto node = std::make_unique<PlanNode>();
    node->op = op;
    node->rels = outer->rels | inner->rels;
    node->outer = std::move(outer);
    node->inner = std::move(inner);
    node->outer_key = {a_, 0};
    node->inner_key = {b_, 0};
    return node;
  }

  /// Runs `make_plan()` row-at-a-time (the oracle) and vectorized at every
  /// requested (batch size x pool size), requiring every finished node's
  /// rowset to be bit-identical to the oracle's (row-id intermediates are
  /// gathered through their row ids first).
  void ExpectBatchMatchesRow(
      const std::function<std::unique_ptr<PlanNode>()>& make_plan,
      std::initializer_list<int> batches,
      std::initializer_list<int> pools = {1}) {
    struct Outcome {
      std::vector<RowSetPtr> rowsets;  // post-order
      std::vector<uint64_t> actuals;
    };
    auto run = [&](int batch, int pool) {
      common::SetGlobalPoolSize(pool);
      auto plan = make_plan();
      Executor executor(&database_, &query_);
      Executor::Options options;
      options.batch_size = batch;
      Executor::RunResult result = executor.Run(plan.get(), options);
      common::SetGlobalPoolSize(0);
      Outcome out;
      std::vector<PlanNode*> nodes;
      PostOrderPlan(plan.get(), &nodes);
      for (PlanNode* node : nodes) {
        auto it = result.finished.find(node);
        out.rowsets.push_back(it != result.finished.end()
                                  ? MaterializeRowSet(database_, it->second)
                                  : nullptr);
        out.actuals.push_back(node->actual_card);
      }
      return out;
    };
    const Outcome oracle = run(/*batch=*/0, /*pool=*/1);
    for (int batch : batches) {
      for (int pool : pools) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " pool=" + std::to_string(pool));
        const Outcome got = run(batch, pool);
        ASSERT_EQ(got.rowsets.size(), oracle.rowsets.size());
        for (size_t i = 0; i < oracle.rowsets.size(); ++i) {
          EXPECT_EQ(got.actuals[i], oracle.actuals[i]) << "node " << i;
          ASSERT_NE(got.rowsets[i], nullptr) << "node " << i;
          ASSERT_NE(oracle.rowsets[i], nullptr) << "node " << i;
          EXPECT_TRUE(got.rowsets[i]->schema == oracle.rowsets[i]->schema)
              << "node " << i;
          EXPECT_EQ(got.rowsets[i]->row_count, oracle.rowsets[i]->row_count)
              << "node " << i;
          EXPECT_TRUE(got.rowsets[i]->cols == oracle.rowsets[i]->cols)
              << "node " << i;
        }
      }
    }
  }

  db::Database database_;
  qry::Query query_;
  int32_t a_ = -1, b_ = -1;
};

TEST_F(ExecEdgeTest, EmptyTablesJoinToEmpty) {
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    auto plan = Join(op, Scan(0), Scan(1));
    Executor executor(&database_, &query_);
    EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u) << PhysOpName(op);
  }
}

TEST_F(ExecEdgeTest, AllFilteredScanYieldsEmptyJoin) {
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate impossible{{a_, 1}, qry::CmpOp::kGt, 1000};
  auto plan = Join(PhysOp::kHashJoin, Scan(0, {impossible}), Scan(1));
  Executor executor(&database_, &query_);
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, DuplicateKeysCrossProductInMergeJoin) {
  // 3 copies of key 7 on each side -> 9 output rows; merge join must emit
  // the full group cross product.
  for (int i = 0; i < 3; ++i) {
    database_.table(a_).AppendRow({7, i});
    database_.table(b_).AppendRow({7, i + 10});
  }
  database_.table(a_).AppendRow({1, 0});
  database_.table(b_).AppendRow({2, 0});
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    auto plan = Join(op, Scan(0), Scan(1));
    Executor executor(&database_, &query_);
    EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 9u) << PhysOpName(op);
  }
}

TEST_F(ExecEdgeTest, RowLimitAbortsExplodingJoin) {
  // 100x100 same-key rows -> 10000-row join; limit 1000 must abort, for
  // every join algorithm.
  for (int i = 0; i < 100; ++i) {
    database_.table(a_).AppendRow({5, i});
    database_.table(b_).AppendRow({5, i});
  }
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    auto plan = Join(op, Scan(0), Scan(1));
    Executor executor(&database_, &query_);
    Executor::Options options;
    options.max_node_rows = 1000;
    Executor::RunResult run = executor.Run(plan.get(), options);
    EXPECT_TRUE(run.aborted) << PhysOpName(op);
    EXPECT_EQ(run.result, nullptr) << PhysOpName(op);
  }
}

TEST_F(ExecEdgeTest, RowLimitDoesNotTriggerBelowThreshold) {
  for (int i = 0; i < 20; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  auto plan = Join(PhysOp::kHashJoin, Scan(0), Scan(1));
  Executor executor(&database_, &query_);
  Executor::Options options;
  options.max_node_rows = 1000;
  Executor::RunResult run = executor.Run(plan.get(), options);
  EXPECT_FALSE(run.aborted);
  ASSERT_NE(run.result, nullptr);
  EXPECT_EQ(run.result->num_rows(), 20u);
}

TEST_F(ExecEdgeTest, PeakIntermediateBytesSumsLiveResults) {
  for (int i = 0; i < 50; ++i) {
    database_.table(a_).AppendRow({i % 5, i});
    database_.table(b_).AppendRow({i % 5, i});
  }
  database_.BuildAllIndexes();
  auto plan = Join(PhysOp::kHashJoin, Scan(0), Scan(1));
  Executor executor(&database_, &query_);
  Executor::Options options;
  Executor::RunResult run = executor.Run(plan.get(), options);
  ASSERT_NE(run.result, nullptr);
  // Every finished intermediate stays retained for the run (checkpoints may
  // re-plan around it), so the peak is the *sum* of live rowsets — nothing is
  // ever released mid-run, making the peak exactly the sum of the finished
  // results. The old largest-single-rowset accounting under-reported this as
  // one scan. Computing the expectation from the retained rowsets themselves
  // keeps the assertion valid in both representations (row-oracle payload
  // columns / vectorized row-id intermediates).
  size_t finished_sum = 0;
  for (const auto& [node, rs] : run.finished) finished_sum += rs->ByteSize();
  EXPECT_EQ(executor.peak_intermediate_bytes(), finished_sum);
  // Both scans carry at least their 50-row key column — as int64 payloads or
  // as uint32 row ids, never less than the narrower width.
  EXPECT_GE(executor.peak_intermediate_bytes(), 2 * 50 * sizeof(uint32_t));
}

TEST_F(ExecEdgeTest, PeakBytesAccountingAgreesAcrossPathsOn3JoinQuery) {
  // Regression for the peak_intermediate_bytes contract on a known 3-join
  // query: both paths count the sum of their retained rowsets, and the
  // vectorized path's row-id intermediates must come in strictly lower than
  // the row oracle's payload columns — uint32 row ids versus int64 payloads
  // — at every batch size.
  db::Database db;
  std::vector<int32_t> tables;
  for (int t = 0; t < 4; ++t) {
    tables.push_back(
        db.AddTable({"t" + std::to_string(t), {{"k"}, {"v"}}}));
  }
  qry::Query query;
  query.tables = tables;
  for (int t = 0; t + 1 < 4; ++t) {
    db.catalog().AddJoinEdge({tables[t], 0}, {tables[t + 1], 0});
    query.joins.push_back({{tables[t], 0}, {tables[t + 1], 0}});
  }
  for (int t = 0; t < 4; ++t) {
    for (int64_t i = 0; i < 200; ++i) {
      db.table(tables[t]).AppendRow({i % 10, i});
    }
  }
  db.BuildAllIndexes();

  auto make_plan = [&] {
    auto scan = [&](int pos) {
      auto node = std::make_unique<PlanNode>();
      node->op = PhysOp::kSeqScan;
      node->rels = qry::Bit(pos);
      node->table_pos = pos;
      return node;
    };
    std::unique_ptr<PlanNode> plan = scan(0);
    for (int t = 1; t < 4; ++t) {
      auto join = std::make_unique<PlanNode>();
      join->op = PhysOp::kHashJoin;
      join->rels = plan->rels | qry::Bit(t);
      join->outer = std::move(plan);
      join->inner = scan(t);
      join->outer_key = {tables[t - 1], 0};
      join->inner_key = {tables[t], 0};
      plan = std::move(join);
    }
    return plan;
  };

  auto run_peak = [&](int batch, uint64_t* rows) {
    auto plan = make_plan();
    Executor executor(&db, &query);
    Executor::Options options;
    options.batch_size = batch;
    Executor::RunResult run = executor.Run(plan.get(), options);
    EXPECT_NE(run.result, nullptr);
    *rows = run.result != nullptr ? run.result->num_rows() : 0;
    size_t finished_sum = 0;
    for (const auto& [node, rs] : run.finished) finished_sum += rs->ByteSize();
    EXPECT_EQ(executor.peak_intermediate_bytes(), finished_sum);
    return executor.peak_intermediate_bytes();
  };

  uint64_t row_rows = 0;
  const size_t row_peak = run_peak(/*batch=*/0, &row_rows);
  size_t vec_peak = 0;
  for (int batch : {3, 1024}) {
    uint64_t vec_rows = 0;
    const size_t peak = run_peak(batch, &vec_rows);
    EXPECT_EQ(vec_rows, row_rows) << "batch=" << batch;
    if (vec_peak != 0) {
      EXPECT_EQ(peak, vec_peak) << "batch=" << batch;
    }
    vec_peak = peak;
  }
  EXPECT_LT(vec_peak, row_peak);
  EXPECT_GT(vec_peak, 0u);
}

TEST_F(ExecEdgeTest, IndexScanLtAtInt64MinIsEmptyNotUB) {
  // x < INT64_MIN matches nothing; the old bound arithmetic computed
  // `INT64_MIN - 1` (signed overflow, UB) which in practice wrapped to
  // INT64_MAX and returned every row.
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate lt_min{{a_, 0}, qry::CmpOp::kLt,
                        std::numeric_limits<int64_t>::min()};
  auto scan = Scan(0, {lt_min});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, IndexScanGtAtInt64MaxIsEmptyNotUB) {
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate gt_max{{a_, 0}, qry::CmpOp::kGt,
                        std::numeric_limits<int64_t>::max()};
  auto scan = Scan(0, {gt_max});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, IndexScanInclusiveBoundsAtExtremesKeepAllRows) {
  // The inclusive operators at the extreme literals must still return
  // everything (no clamping side effects).
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  for (auto [op, value] :
       {std::pair{qry::CmpOp::kLe, std::numeric_limits<int64_t>::max()},
        std::pair{qry::CmpOp::kGe, std::numeric_limits<int64_t>::min()}}) {
    qry::Predicate pred{{a_, 0}, op, value};
    auto scan = Scan(0, {pred});
    scan->op = PhysOp::kIndexScan;
    scan->index_col = {a_, 0};
    auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
    Executor executor(&database_, &query_);
    EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 10u);
  }
}

TEST_F(ExecEdgeTest, IndexScanOnEqualityBound) {
  for (int64_t i = 0; i < 30; ++i) database_.table(a_).AppendRow({i % 3, i});
  for (int64_t i = 0; i < 5; ++i) database_.table(b_).AppendRow({1, i});
  database_.BuildAllIndexes();
  qry::Predicate eq{{a_, 0}, qry::CmpOp::kEq, 1};
  auto scan = Scan(0, {eq});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  // 10 a-rows with key 1, each matching 5 b-rows.
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 50u);
}

TEST_F(ExecEdgeTest, NeFilterIsResidualOnIndexScan) {
  for (int64_t i = 0; i < 20; ++i) database_.table(a_).AppendRow({i, i % 4});
  for (int64_t i = 0; i < 20; ++i) database_.table(b_).AppendRow({i, 0});
  database_.BuildAllIndexes();
  qry::Predicate range{{a_, 0}, qry::CmpOp::kLt, 10};
  qry::Predicate ne{{a_, 1}, qry::CmpOp::kNe, 0};
  auto scan = Scan(0, {range, ne});
  scan->op = PhysOp::kIndexScan;
  scan->index_col = {a_, 0};
  auto plan = Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
  Executor executor(&database_, &query_);
  // a rows with k < 10 and v != 0: k in {1,2,3,5,6,7,9} -> 7 rows, each
  // joining exactly one b row.
  EXPECT_EQ(executor.Execute(plan.get())->num_rows(), 7u);
}

TEST_F(ExecEdgeTest, BatchEmptyTablesBitIdentical) {
  // Zero input rows -> zero batches; the batch path must still produce the
  // same (empty) rowsets and cardinalities as the row path.
  database_.BuildAllIndexes();
  ExpectBatchMatchesRow(
      [&] { return Join(PhysOp::kHashJoin, Scan(0), Scan(1)); }, {1, 3, 1024});
}

TEST_F(ExecEdgeTest, BatchAllRowsPassFilterBitIdentical) {
  // A filter every row passes exercises the full-selection path (the
  // selection vector is the identity), distinct from the dense no-filter
  // column-copy fast path — both must match the row path bit for bit.
  for (int64_t i = 0; i < 10; ++i) {
    database_.table(a_).AppendRow({i, i});
    database_.table(b_).AppendRow({i, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate all_pass{{a_, 1}, qry::CmpOp::kGe, 0};
  ExpectBatchMatchesRow(
      [&] { return Join(PhysOp::kHashJoin, Scan(0, {all_pass}), Scan(1)); },
      {1, 3, 1024});
  ExpectBatchMatchesRow(
      [&] { return Join(PhysOp::kHashJoin, Scan(0), Scan(1)); }, {1, 3, 1024});
}

TEST_F(ExecEdgeTest, BatchSingleRowTailBatchBitIdentical) {
  // 1025 rows: batch 1024 leaves a single-row tail batch; batch 4 leaves a
  // one-row tail too (1025 = 4*256 + 1); 1024 rows exactly fills the last
  // batch (no tail). Both shapes must be invisible in the output.
  for (int64_t i = 0; i < 1025; ++i) {
    database_.table(a_).AppendRow({i % 50, i});
    database_.table(b_).AppendRow({i % 50, i});
  }
  database_.BuildAllIndexes();
  qry::Predicate keep_most{{a_, 1}, qry::CmpOp::kNe, 500};
  ExpectBatchMatchesRow(
      [&] { return Join(PhysOp::kHashJoin, Scan(0, {keep_most}), Scan(1)); },
      {4, 1024, 1025, 2048});
}

TEST_F(ExecEdgeTest, BatchBoundariesStraddleJoinPartitionChunks) {
  // Enough rows to engage the pool (>= 4096) with duplicate-key groups of 7
  // that never align with the 1024-row batch boundaries or the pool's chunk
  // boundaries: match groups straddle both, and the output must still
  // concatenate back to the sequential row order at every pool size.
  for (int64_t i = 0; i < 6000; ++i) {
    database_.table(a_).AppendRow({i / 7, i});
    database_.table(b_).AppendRow({i / 7, i + 100000});
  }
  database_.BuildAllIndexes();
  ExpectBatchMatchesRow(
      [&] { return Join(PhysOp::kHashJoin, Scan(0), Scan(1)); }, {3, 1024},
      {1, 2, 4});
}

TEST_F(ExecEdgeTest, BatchIndexScanNeResidualBitIdentical) {
  // Index-driven scan with a kNe residual: the batch path seeds its
  // selection vector from the index row list (not the identity) and refines
  // it branch-free; must match the row path at every batch size.
  for (int64_t i = 0; i < 200; ++i) database_.table(a_).AppendRow({i, i % 4});
  for (int64_t i = 0; i < 200; ++i) database_.table(b_).AppendRow({i, 0});
  database_.BuildAllIndexes();
  qry::Predicate range{{a_, 0}, qry::CmpOp::kLt, 100};
  qry::Predicate ne{{a_, 1}, qry::CmpOp::kNe, 0};
  ExpectBatchMatchesRow(
      [&] {
        auto scan = Scan(0, {range, ne});
        scan->op = PhysOp::kIndexScan;
        scan->index_col = {a_, 0};
        return Join(PhysOp::kHashJoin, std::move(scan), Scan(1));
      },
      {1, 3, 7, 1024});
}

TEST_F(ExecEdgeTest, BatchRowLimitAbortsLikeRowPath) {
  // The overflow contract is part of bit-identity: every vectorized join
  // kernel must trip the row limit on exactly the same plans as the row
  // oracle, at every batch and pool size.
  for (int i = 0; i < 100; ++i) {
    database_.table(a_).AppendRow({5, i});
    database_.table(b_).AppendRow({5, i});
  }
  database_.BuildAllIndexes();
  for (auto op : {PhysOp::kHashJoin, PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    for (int batch : {0, 1, 3, 1024}) {
      for (int pool : {1, 2, 4}) {
        SCOPED_TRACE(std::string(PhysOpName(op)) +
                     " batch=" + std::to_string(batch) +
                     " pool=" + std::to_string(pool));
        common::SetGlobalPoolSize(pool);
        auto plan = Join(op, Scan(0), Scan(1));
        Executor executor(&database_, &query_);
        Executor::Options options;
        options.batch_size = batch;
        options.max_node_rows = 1000;
        Executor::RunResult run = executor.Run(plan.get(), options);
        EXPECT_TRUE(run.aborted);
        EXPECT_EQ(run.result, nullptr);
        // At the limit: must NOT abort (the trip condition is
        // strictly-greater in every kernel).
        auto plan_ok = Join(op, Scan(0), Scan(1));
        options.max_node_rows = 10000;
        Executor::RunResult ok = executor.Run(plan_ok.get(), options);
        EXPECT_FALSE(ok.aborted);
        ASSERT_NE(ok.result, nullptr);
        EXPECT_EQ(ok.result->num_rows(), 10000u);
      }
    }
  }
  common::SetGlobalPoolSize(0);
}

TEST_F(ExecEdgeTest, DefaultOptionsRunVectorizedPath) {
  // A default-constructed Options runs the vectorized path: intermediates
  // are row-id columns, so peak_intermediate_bytes counts 4 bytes per scanned
  // row; batch_size = 0 runs the row oracle, whose scans carry their int64
  // key columns. The root (nothing left to reference) carries no column in
  // either representation.
  for (int i = 0; i < 50; ++i) {
    database_.table(a_).AppendRow({i % 5, i});
    database_.table(b_).AppendRow({i % 5, i});
  }
  database_.BuildAllIndexes();
  auto plan = Join(PhysOp::kNestLoopJoin, Scan(0), Scan(1));
  Executor executor(&database_, &query_);
  Executor::RunResult run = executor.Run(plan.get(), Executor::Options{});
  ASSERT_NE(run.result, nullptr);
  EXPECT_EQ(run.result->num_rows(), 500u);
  EXPECT_TRUE(run.finished.at(plan->outer.get())->late());
  EXPECT_TRUE(run.finished.at(plan->inner.get())->late());
  EXPECT_EQ(executor.peak_intermediate_bytes(), 2 * 50 * sizeof(uint32_t));

  auto row_plan = Join(PhysOp::kNestLoopJoin, Scan(0), Scan(1));
  Executor::Options row_options;
  row_options.batch_size = 0;
  Executor::RunResult row_run = executor.Run(row_plan.get(), row_options);
  ASSERT_NE(row_run.result, nullptr);
  EXPECT_EQ(row_run.result->num_rows(), 500u);
  EXPECT_FALSE(row_run.finished.at(row_plan->outer.get())->late());
  EXPECT_EQ(executor.peak_intermediate_bytes(), 2 * 50 * sizeof(int64_t));
}

TEST_F(ExecEdgeTest, LateMergeAndNestLoopDuplicateAndResidualKeysBitIdentical) {
  // Duplicate-heavy keys on both sides plus a residual equi-join key (a
  // multigraph cut): the late merge and nested-loop kernels gather both
  // keys through the row ids and must emit the oracle's pairs in the
  // oracle's order — merge join's unstable std::sort permutations included.
  query_.joins.push_back({{a_, 1}, {b_, 1}});
  for (int64_t i = 0; i < 300; ++i) {
    database_.table(a_).AppendRow({i % 7, i % 3});
    database_.table(b_).AppendRow({(i * 5) % 11, i % 2});
  }
  database_.BuildAllIndexes();
  qry::Predicate some{{a_, 1}, qry::CmpOp::kNe, 2};
  for (auto op : {PhysOp::kMergeJoin, PhysOp::kNestLoopJoin}) {
    SCOPED_TRACE(PhysOpName(op));
    for (bool residual : {false, true}) {
      ExpectBatchMatchesRow(
          [&] {
            auto plan = Join(op, Scan(0, {some}), Scan(1));
            if (residual) plan->residual_keys.push_back({{a_, 1}, {b_, 1}});
            return plan;
          },
          {1, 3, 1024}, {1, 2, 4});
    }
  }
}

TEST_F(ExecEdgeTest, MixedJoinAlgorithmPlansBitIdentical) {
  // Plans mixing join algorithms: a hash subtree under a merge or
  // nested-loop join (on either side), and a nested-loop / merge subtree
  // under a hash join — row-id intermediates flow through every boundary.
  const int32_t c = database_.AddTable({"c", {{"k"}, {"x"}}});
  database_.catalog().AddJoinEdge({b_, 1}, {c, 0});
  query_.tables.push_back(c);
  query_.joins.push_back({{b_, 1}, {c, 0}});
  for (int64_t i = 0; i < 400; ++i) {
    database_.table(a_).AppendRow({i % 13, i});
    database_.table(b_).AppendRow({i % 17, i % 9});
    database_.table(c).AppendRow({i % 9, i});
  }
  database_.BuildAllIndexes();
  const qry::Predicate a_filter{{a_, 1}, qry::CmpOp::kLt, 300};
  const qry::Predicate c_filter{{c, 1}, qry::CmpOp::kGe, 50};
  // (a ⋈ b) ⋈ c with the top join keyed on b.w = c.k, or c ⋈ (a ⋈ b).
  auto make = [&](PhysOp bottom, PhysOp top, bool bottom_outer) {
    auto ab = Join(bottom, Scan(0, {a_filter}), Scan(1));
    auto scan_c = Scan(2, {c_filter});
    auto node = std::make_unique<PlanNode>();
    node->op = top;
    node->rels = ab->rels | scan_c->rels;
    if (bottom_outer) {
      node->outer = std::move(ab);
      node->inner = std::move(scan_c);
      node->outer_key = {b_, 1};
      node->inner_key = {c, 0};
    } else {
      node->outer = std::move(scan_c);
      node->inner = std::move(ab);
      node->outer_key = {c, 0};
      node->inner_key = {b_, 1};
    }
    return node;
  };
  for (auto [bottom, top] :
       {std::pair{PhysOp::kHashJoin, PhysOp::kNestLoopJoin},
        std::pair{PhysOp::kHashJoin, PhysOp::kMergeJoin},
        std::pair{PhysOp::kNestLoopJoin, PhysOp::kHashJoin},
        std::pair{PhysOp::kMergeJoin, PhysOp::kHashJoin}}) {
    for (bool bottom_outer : {true, false}) {
      SCOPED_TRACE(std::string(PhysOpName(bottom)) + " under " +
                   PhysOpName(top) + (bottom_outer ? " (outer)" : " (inner)"));
      ExpectBatchMatchesRow([&] { return make(bottom, top, bottom_outer); },
                            {1, 3, 1024}, {1, 2, 4});
    }
  }
}

TEST_F(ExecEdgeTest, RowLimitTripsInsideLateNestLoopOverHashSubtree) {
  // The overflow is raised by a late nested-loop join whose outer input is
  // itself a row-id intermediate (a hash join's output): the run aborts
  // exactly when the oracle's does, at every batch and pool size, and the
  // finished children match the oracle's.
  const int32_t c = database_.AddTable({"c", {{"k"}, {"x"}}});
  query_.tables.push_back(c);
  query_.joins.push_back({{b_, 1}, {c, 0}});
  for (int64_t i = 0; i < 60; ++i) {
    database_.table(a_).AppendRow({i % 6, i});
    database_.table(b_).AppendRow({i % 6, 1});
    database_.table(c).AppendRow({1, i});
  }
  database_.BuildAllIndexes();
  // a ⋈ b = 600 rows, all with b.w = 1; each matches all 60 c rows: 36000.
  auto make = [&] {
    auto ab = Join(PhysOp::kHashJoin, Scan(0), Scan(1));
    auto node = std::make_unique<PlanNode>();
    node->op = PhysOp::kNestLoopJoin;
    node->rels = ab->rels | qry::Bit(2);
    node->outer = std::move(ab);
    node->inner = Scan(2);
    node->outer_key = {b_, 1};
    node->inner_key = {c, 0};
    return node;
  };
  for (size_t limit : {size_t{35999}, size_t{36000}}) {
    for (int batch : {0, 1, 3, 1024}) {
      for (int pool : {1, 2, 4}) {
        SCOPED_TRACE("limit=" + std::to_string(limit) +
                     " batch=" + std::to_string(batch) +
                     " pool=" + std::to_string(pool));
        common::SetGlobalPoolSize(pool);
        auto plan = make();
        Executor executor(&database_, &query_);
        Executor::Options options;
        options.batch_size = batch;
        options.max_node_rows = limit;
        Executor::RunResult run = executor.Run(plan.get(), options);
        const bool expect_abort = limit < 36000;
        EXPECT_EQ(run.aborted, expect_abort);
        EXPECT_EQ(run.result == nullptr, expect_abort);
        EXPECT_EQ(plan->outer->actual_card, 600u);
        EXPECT_EQ(run.finished.count(plan.get()), expect_abort ? 0u : 1u);
      }
    }
  }
  common::SetGlobalPoolSize(0);
}

}  // namespace
}  // namespace lpce::exec
