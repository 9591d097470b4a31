// End-to-end engine tests: result correctness with every estimator family,
// re-optimization behavior, and the time decomposition.
#include <cmath>

#include <gtest/gtest.h>

#include "card/histogram_estimator.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "lpce/estimators.h"
#include "workload/workload.h"

namespace lpce::eng {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.04;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    wk::GeneratorOptions gen;
    gen.seed = 31;
    wk::QueryGenerator generator(database_.get(), gen);
    workload_ = generator.GenerateLabeled(8, 3, 6);
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  std::vector<wk::LabeledQuery> workload_;
};

/// Adversarial estimator: grossly underestimates joins so that nested-loop
/// plans get chosen and checkpoints trip.
class UnderEstimator : public card::CardinalityEstimator {
 public:
  explicit UnderEstimator(card::CardinalityEstimator* base) : base_(base) {}
  std::string name() const override { return "under"; }
  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override {
    const double base = base_->EstimateSubset(query, rels);
    return qry::PopCount(rels) > 1 ? std::max(1.0, base / 1e4) : base;
  }

 private:
  card::CardinalityEstimator* base_;
};

TEST_F(EngineTest, HistogramRunMatchesTruth) {
  card::HistogramEstimator estimator(&stats_);
  Engine engine(database_.get(), opt::CostModel{});
  for (const auto& labeled : workload_) {
    RunStats stats = engine.RunQuery(labeled.query, &estimator, nullptr, {});
    EXPECT_EQ(stats.result_count, labeled.FinalCard());
    EXPECT_EQ(stats.num_reopts, 0);
    EXPECT_GT(stats.exec_seconds, 0.0);
    EXPECT_GE(stats.plan_seconds, 0.0);
  }
}

TEST_F(EngineTest, ReoptPreservesResultCorrectness) {
  card::HistogramEstimator histogram(&stats_);
  UnderEstimator under(&histogram);
  Engine engine(database_.get(), opt::CostModel{});
  RunConfig config;
  config.enable_reopt = true;
  config.qerror_threshold = 10.0;
  int total_reopts = 0;
  for (const auto& labeled : workload_) {
    RunStats stats = engine.RunQuery(labeled.query, &under, nullptr, config);
    EXPECT_EQ(stats.result_count, labeled.FinalCard())
        << labeled.query.ToString(database_->catalog());
    total_reopts += stats.num_reopts;
  }
  // The gross underestimates must have tripped at least one checkpoint.
  EXPECT_GT(total_reopts, 0);
}

TEST_F(EngineTest, ReoptOverLatePseudoScansMatchesRowOracle) {
  // Re-optimization rounds on the vectorized path: the finished subtrees of
  // a tripped round carry row ids into the next round's pseudo scans, and
  // the underestimates keep luring the re-planner into merge / nested-loop
  // joins over them. Every query's result, deterministic trace,
  // and re-optimization count must match the row-at-a-time oracle at every
  // batch and pool size.
  card::HistogramEstimator histogram(&stats_);
  UnderEstimator under(&histogram);
  Engine engine(database_.get(), opt::CostModel{});
  auto run_all = [&](int batch, int pool) {
    common::SetGlobalPoolSize(pool);
    RunConfig config;
    config.enable_reopt = true;
    config.qerror_threshold = 10.0;
    config.exec_batch_size = batch;
    std::vector<RunStats> out;
    for (const auto& labeled : workload_) {
      out.push_back(engine.RunQuery(labeled.query, &under, nullptr, config));
    }
    return out;
  };
  const std::vector<RunStats> oracle = run_all(/*batch=*/0, /*pool=*/1);

  // The workload must actually exercise the widened coverage: some round
  // after the first runs a merge or nested-loop join fed by a pseudo scan.
  bool saw_late_pseudo_under_pair_join = false;
  for (const RunStats& stats : oracle) {
    const auto& spans = stats.trace->spans();
    for (const auto& span : spans) {
      const bool pair_join =
          span.op == "MergeJoin" || span.op == "NestLoopJoin";
      if (span.round == 0 || !pair_join) continue;
      for (int child : {span.outer_span, span.inner_span}) {
        saw_late_pseudo_under_pair_join |=
            child >= 0 && spans[child].op == "PseudoScan";
      }
    }
  }
  EXPECT_TRUE(saw_late_pseudo_under_pair_join);

  for (int batch : {1, 3, 1024}) {
    for (int pool : {1, 2, 4}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " pool=" + std::to_string(pool));
      const std::vector<RunStats> got = run_all(batch, pool);
      ASSERT_EQ(got.size(), oracle.size());
      for (size_t q = 0; q < got.size(); ++q) {
        EXPECT_EQ(got[q].result_count, workload_[q].FinalCard()) << q;
        EXPECT_EQ(got[q].num_reopts, oracle[q].num_reopts) << q;
        EXPECT_EQ(got[q].trace->ToJson(TraceJsonMode::kDeterministic),
                  oracle[q].trace->ToJson(TraceJsonMode::kDeterministic))
            << "query " << q;
        EXPECT_LE(got[q].peak_intermediate_bytes,
                  oracle[q].peak_intermediate_bytes)
            << q;
      }
    }
  }
  common::SetGlobalPoolSize(0);
}

TEST_F(EngineTest, DefaultRunConfigRunsVectorizedPath) {
  // A default RunConfig runs the vectorized executor: its peak intermediate
  // bytes equal an explicit vectorized run's (row-id width) and come in
  // below the row oracle's (int64 payload width).
  card::HistogramEstimator estimator(&stats_);
  Engine engine(database_.get(), opt::CostModel{});
  RunConfig vectorized;
  vectorized.exec_batch_size = 1024;
  RunConfig row;
  row.exec_batch_size = 0;
  size_t default_total = 0, row_total = 0;
  for (const auto& labeled : workload_) {
    const RunStats by_default =
        engine.RunQuery(labeled.query, &estimator, nullptr, RunConfig{});
    const RunStats explicit_vec =
        engine.RunQuery(labeled.query, &estimator, nullptr, vectorized);
    const RunStats oracle = engine.RunQuery(labeled.query, &estimator, nullptr, row);
    EXPECT_EQ(by_default.result_count, oracle.result_count);
    EXPECT_EQ(by_default.peak_intermediate_bytes,
              explicit_vec.peak_intermediate_bytes);
    default_total += by_default.peak_intermediate_bytes;
    row_total += oracle.peak_intermediate_bytes;
  }
  EXPECT_LT(default_total, row_total);
}

TEST_F(EngineTest, ReoptBudgetIsRespected) {
  card::HistogramEstimator histogram(&stats_);
  UnderEstimator under(&histogram);
  Engine engine(database_.get(), opt::CostModel{});
  RunConfig config;
  config.enable_reopt = true;
  config.qerror_threshold = 1.5;  // trips almost everywhere
  config.max_reopts = 2;
  for (const auto& labeled : workload_) {
    RunStats stats = engine.RunQuery(labeled.query, &under, nullptr, config);
    EXPECT_LE(stats.num_reopts, 2);
    EXPECT_EQ(stats.result_count, labeled.FinalCard());
  }
}

TEST_F(EngineTest, ReoptTimeIsAccountedSeparately) {
  card::HistogramEstimator histogram(&stats_);
  UnderEstimator under(&histogram);
  Engine engine(database_.get(), opt::CostModel{});
  RunConfig config;
  config.enable_reopt = true;
  config.qerror_threshold = 5.0;
  bool saw_reopt_time = false;
  for (const auto& labeled : workload_) {
    RunStats stats = engine.RunQuery(labeled.query, &under, nullptr, config);
    if (stats.num_reopts > 0) {
      EXPECT_GT(stats.reopt_seconds, 0.0);
      saw_reopt_time = true;
    }
    EXPECT_NEAR(stats.TotalSeconds(),
                stats.plan_seconds + stats.inference_seconds +
                    stats.reopt_seconds + stats.exec_seconds,
                1e-12);
  }
  EXPECT_TRUE(saw_reopt_time);
}

TEST_F(EngineTest, OracleEstimatorNeverTriggersReopt) {
  // With exact estimates, no checkpoint can trip.
  for (const auto& labeled : workload_) {
    std::unordered_map<qry::RelSet, double> truth;
    // Provide truth for ALL connected subsets by executing each one.
    for (qry::RelSet s = 1; s <= labeled.query.AllRels(); ++s) {
      if (!labeled.query.IsConnected(s)) continue;
      wk::LabeledQuery sub;
      sub.query.tables.clear();
      // Build the sub-query over the subset's tables.
      qry::Query q;
      std::vector<int> positions;
      for (int pos = 0; pos < labeled.query.num_tables(); ++pos) {
        if (qry::Contains(s, pos)) {
          positions.push_back(pos);
          q.tables.push_back(labeled.query.tables[pos]);
        }
      }
      for (int j : labeled.query.JoinsWithin(s)) {
        q.joins.push_back(labeled.query.joins[j]);
      }
      for (const auto& p : labeled.query.predicates) {
        if (q.PositionOf(p.col.table) >= 0) q.predicates.push_back(p);
      }
      wk::LabeledQuery sub_labeled;
      sub_labeled.query = q;
      wk::LabelQuery(*database_, &sub_labeled);
      truth[s] = static_cast<double>(sub_labeled.FinalCard());
    }
    card::OracleEstimator oracle(truth);
    Engine engine(database_.get(), opt::CostModel{});
    RunConfig config;
    config.enable_reopt = true;
    config.qerror_threshold = 2.0;
    RunStats stats = engine.RunQuery(labeled.query, &oracle, nullptr, config);
    EXPECT_EQ(stats.num_reopts, 0);
    EXPECT_EQ(stats.result_count, labeled.FinalCard());
  }
}

TEST_F(EngineTest, LpceEndToEndWithRefinement) {
  // Tiny LPCE-I + LPCE-R run through the full engine path.
  model::FeatureEncoder encoder(&database_->catalog(), &stats_);
  wk::GeneratorOptions gen;
  gen.seed = 77;
  wk::QueryGenerator generator(database_.get(), gen);
  auto train = generator.GenerateLabeled(30, 2, 6);

  model::TreeModelConfig config;
  config.feature_dim = encoder.dim();
  config.dim = 16;
  config.embed_hidden = 16;
  config.out_hidden = 32;
  config.log_max_card = std::log1p(static_cast<double>(wk::MaxCardinality(train)));
  model::TreeModel lpce_i(&encoder, config);
  model::TrainOptions topt;
  topt.epochs = 6;
  model::TrainTreeModel(&lpce_i, *database_, train, topt);

  model::LpceR lpce_r(&encoder, config);
  model::LpceRTrainOptions ropt;
  ropt.pretrain.epochs = 4;
  ropt.refine_epochs = 2;
  ropt.pretrained_content = &lpce_i;
  model::TrainLpceR(&lpce_r, *database_, train, ropt);

  model::TreeModelEstimator initial("LPCE-I", &lpce_i, database_.get());
  model::LpceREstimator refiner(&lpce_r, database_.get());
  Engine engine(database_.get(), opt::CostModel{});
  RunConfig run_config;
  run_config.enable_reopt = true;
  run_config.qerror_threshold = 20.0;
  for (const auto& labeled : workload_) {
    RunStats stats =
        engine.RunQuery(labeled.query, &initial, &refiner, run_config);
    EXPECT_EQ(stats.result_count, labeled.FinalCard())
        << labeled.query.ToString(database_->catalog());
  }
}

}  // namespace
}  // namespace lpce::eng
