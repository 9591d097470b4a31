// Tests for the LPCE estimator adapters: the LpceREstimator's executed-tree
// reconstruction from bottom-up observations, its unit-tree assembly for
// mixed subsets, and TreeModelEstimator consistency.
#include <cmath>

#include <gtest/gtest.h>

#include "lpce/estimators.h"
#include "workload/workload.h"

namespace lpce::model {
namespace {

class EstimatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::SynthImdbOptions opts;
    opts.scale = 0.03;
    database_ = db::BuildSynthImdb(opts);
    stats_.Build(*database_);
    encoder_ = std::make_unique<FeatureEncoder>(&database_->catalog(), &stats_);

    wk::GeneratorOptions gen;
    gen.seed = 15;
    gen.require_nonempty = true;
    wk::QueryGenerator generator(database_.get(), gen);
    train_ = generator.GenerateLabeled(30, 4, 6);
    labeled_ = train_.back();

    TreeModelConfig config;
    config.feature_dim = encoder_->dim();
    config.dim = 16;
    config.embed_hidden = 16;
    config.out_hidden = 32;
    config.log_max_card =
        std::log1p(static_cast<double>(wk::MaxCardinality(train_)));
    lpce_r_ = std::make_unique<LpceR>(encoder_.get(), config);
    LpceRTrainOptions options;
    options.pretrain.epochs = 3;
    options.refine_epochs = 2;
    options.prefixes_per_query = 2;
    TrainLpceR(lpce_r_.get(), *database_, train_, options);
  }

  std::unique_ptr<db::Database> database_;
  stats::DatabaseStats stats_;
  std::unique_ptr<FeatureEncoder> encoder_;
  std::vector<wk::LabeledQuery> train_;
  wk::LabeledQuery labeled_;
  std::unique_ptr<LpceR> lpce_r_;
};

TEST_F(EstimatorsTest, ObservationsMergeBottomUp) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  // Observe leaves then their join, in execution (post-order) order.
  auto logical = qry::BuildCanonicalTree(labeled_.query, labeled_.query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(logical.get(), &nodes);
  // First three post-order nodes of a left-deep tree: leaf, leaf, join.
  ASSERT_GE(nodes.size(), 3u);
  ASSERT_TRUE(nodes[0]->is_leaf());
  ASSERT_TRUE(nodes[1]->is_leaf());
  ASSERT_FALSE(nodes[2]->is_leaf());
  for (int i = 0; i < 3; ++i) {
    estimator.ObserveActual(
        labeled_.query, nodes[i]->rels,
        static_cast<double>(labeled_.true_cards.at(nodes[i]->rels)));
  }
  // Estimating any superset must work (the join root is now one unit).
  const double est =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_GE(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(EstimatorsTest, ObservedSubsetsInfluenceEstimates) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  const double before =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  auto logical = qry::BuildCanonicalTree(labeled_.query, labeled_.query.AllRels());
  std::vector<const qry::LogicalNode*> nodes;
  qry::PostOrder(logical.get(), &nodes);
  for (const auto* node : nodes) {
    if (node->rels == labeled_.query.AllRels()) continue;
    estimator.ObserveActual(
        labeled_.query, node->rels,
        static_cast<double>(labeled_.true_cards.at(node->rels)));
  }
  const double after =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  // With everything but the root executed, the refined estimate should not
  // be identical to the cold estimate (the injected encoding changes the
  // computation) — and must stay valid.
  EXPECT_TRUE(std::isfinite(after));
  EXPECT_GE(after, 0.0);
  EXPECT_NE(after, before);
}

TEST_F(EstimatorsTest, DuplicateObservationsAreIdempotent) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  estimator.ObserveActual(labeled_.query, 1, 100.0);
  estimator.ObserveActual(labeled_.query, 1, 100.0);  // duplicate: no effect
  const double est =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(EstimatorsTest, OutOfOrderObservationFallsBackGracefully) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  // Observe a 3-table subset without its children having been observed:
  // the estimator synthesizes a canonical tree instead of crashing.
  qry::RelSet rels = 0;
  for (qry::RelSet s = 1; s <= labeled_.query.AllRels(); ++s) {
    if (qry::PopCount(s) == 3 && labeled_.query.IsConnected(s)) {
      rels = s;
      break;
    }
  }
  ASSERT_NE(rels, 0u);
  estimator.ObserveActual(labeled_.query, rels, 500.0);
  const double est =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_TRUE(std::isfinite(est));
}

TEST_F(EstimatorsTest, ResetClearsState) {
  LpceREstimator estimator(lpce_r_.get(), database_.get());
  const double cold =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  estimator.ObserveActual(labeled_.query, 1, 42.0);
  estimator.ResetObservations();
  EXPECT_DOUBLE_EQ(
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels()), cold);
}

TEST_F(EstimatorsTest, CloneEstTreePreservesStructure) {
  auto logical = qry::BuildCanonicalTree(labeled_.query, labeled_.query.AllRels());
  auto tree = MakeEstTree(labeled_.query, logical.get(), *database_,
                          &labeled_.true_cards);
  auto copy = CloneEstTree(tree.get());
  std::function<void(const EstNode*, const EstNode*)> compare =
      [&](const EstNode* a, const EstNode* b) {
        ASSERT_EQ(a->rels, b->rels);
        EXPECT_EQ(a->table_pos, b->table_pos);
        EXPECT_EQ(a->join_idx, b->join_idx);
        EXPECT_DOUBLE_EQ(a->true_card, b->true_card);
        ASSERT_EQ(a->left == nullptr, b->left == nullptr);
        ASSERT_EQ(a->right == nullptr, b->right == nullptr);
        if (a->left != nullptr) compare(a->left.get(), b->left.get());
        if (a->right != nullptr) compare(a->right.get(), b->right.get());
      };
  compare(tree.get(), copy.get());
}

TEST_F(EstimatorsTest, BatchedPrepareMatchesLazyEstimates) {
  // The Sec. 6.1 batched preparation must agree exactly with per-subset
  // canonical-tree inference for every connected subset.
  TreeModelEstimator lazy("lazy", &lpce_r_->refine(), database_.get());
  TreeModelEstimator batched("batched", &lpce_r_->refine(), database_.get());
  for (const auto& labeled : {train_.front(), train_.back()}) {
    batched.PrepareQuery(labeled.query);
    for (qry::RelSet rels = 1; rels <= labeled.query.AllRels(); ++rels) {
      if (!labeled.query.IsConnected(rels)) continue;
      const double a = lazy.EstimateSubset(labeled.query, rels);
      const double b = batched.EstimateSubset(labeled.query, rels);
      EXPECT_NEAR(a, b, std::max(1.0, a) * 1e-4) << "rels=" << rels;
    }
  }
}

TEST_F(EstimatorsTest, BatchedPrepareInvalidatedByDifferentQuery) {
  TreeModelEstimator estimator("x", &lpce_r_->refine(), database_.get());
  estimator.PrepareQuery(train_.front().query);
  // A different query must not read the stale cache.
  const auto& other = train_[1];
  TreeModelEstimator fresh("y", &lpce_r_->refine(), database_.get());
  EXPECT_NEAR(estimator.EstimateSubset(other.query, other.query.AllRels()),
              fresh.EstimateSubset(other.query, other.query.AllRels()), 1e-6);

  // Same template, different literal: tables, join edges and predicate
  // count all match the prepared query, so only the literal tells them
  // apart. Each literal moves to the far end of its column's range.
  int discriminating = 0;
  for (const auto& labeled : train_) {
    const qry::Query& query = labeled.query;
    if (query.predicates.empty()) continue;
    qry::Query moved = query;
    qry::Predicate& pred = moved.predicates.front();
    const stats::ColumnStats& cs = stats_.column(pred.col);
    if (cs.max_value <= cs.min_value) continue;
    pred.value = pred.value - cs.min_value < cs.max_value - pred.value
                     ? cs.max_value
                     : cs.min_value;
    TreeModelEstimator prepared("x", &lpce_r_->refine(), database_.get());
    prepared.PrepareQuery(query);
    TreeModelEstimator lazy("y", &lpce_r_->refine(), database_.get());
    const qry::RelSet all = moved.AllRels();
    if (lazy.EstimateSubset(moved, all) != lazy.EstimateSubset(query, all)) {
      ++discriminating;
    }
    for (qry::RelSet rels = 1; rels <= all; ++rels) {
      if (!moved.IsConnected(rels)) continue;
      EXPECT_DOUBLE_EQ(prepared.EstimateSubset(moved, rels),
                       lazy.EstimateSubset(moved, rels))
          << "stale prepared estimate for rels " << rels;
    }
  }
  EXPECT_GT(discriminating, 0) << "no literal change moved an estimate";
}

TEST_F(EstimatorsTest, TreeModelEstimatorIsDeterministic) {
  TreeModelEstimator estimator("x", &lpce_r_->refine(), database_.get());
  const double a =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  const double b =
      estimator.EstimateSubset(labeled_.query, labeled_.query.AllRels());
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace lpce::model
