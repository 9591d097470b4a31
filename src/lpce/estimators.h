// CardinalityEstimator adapters for the tree models: LPCE-I / TLSTM (plain
// tree-model estimators) and LPCE-R (progressive refinement with executed-
// sub-plan tracking).
#ifndef LPCE_LPCE_ESTIMATORS_H_
#define LPCE_LPCE_ESTIMATORS_H_

#include <map>
#include <memory>
#include <string>

#include "card/estimator.h"
#include "lpce/lpce_r.h"
#include "lpce/tree_model.h"

namespace lpce::model {

/// Estimates any connected subset by running a TreeModel over the subset's
/// canonical tree. Instantiates LPCE-I, TLSTM, and the LPCE-T/S/C/Q ablation
/// variants (the differences are in the model's config/training, not here).
class TreeModelEstimator : public card::CardinalityEstimator {
 public:
  TreeModelEstimator(std::string name, const TreeModel* model,
                     const db::Database* database)
      : name_(std::move(name)), model_(model), db_(database) {}

  std::string name() const override { return name_; }

  /// Batched preparation (paper Sec. 6.1): estimates every connected subset
  /// of the query in one pass, sharing the recurrent state of each subset's
  /// canonical-chain prefix — one cell step per subset instead of |S|.
  void PrepareQuery(const qry::Query& query) override;

  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override;

 private:
  bool PreparedFor(const qry::Query& query) const;

  std::string name_;
  const TreeModel* model_;
  const db::Database* db_;

  // Batched-preparation cache, valid only for a query equal to the prepared
  // one (literals included: a same-template query must not read it).
  bool prepared_ = false;
  qry::Query prepared_query_;
  std::unordered_map<qry::RelSet, double> prepared_cards_;
};

/// LPCE-R: tracks the executed sub-plans reported via ObserveActual,
/// encodes them with the content/cardinality modules, and estimates
/// remaining subsets with the refine module (injected encodings).
class LpceREstimator : public card::CardinalityEstimator {
 public:
  LpceREstimator(const LpceR* model, const db::Database* database)
      : model_(model), db_(database) {}

  std::string name() const override {
    switch (model_->mode()) {
      case RefinerMode::kSingle:
        return "LPCE-R-Single";
      case RefinerMode::kTwo:
        return "LPCE-R-Two";
      default:
        return "LPCE-R";
    }
  }

  double EstimateSubset(const qry::Query& query, qry::RelSet rels) override;

  /// Mirrors execution: finished nodes arrive in post-order; singleton sets
  /// become leaves, larger sets join two previously-observed roots.
  void ObserveActual(const qry::Query& query, qry::RelSet rels,
                     double actual) override;

  void ResetObservations() override {
    roots_.clear();
    encoding_cache_.clear();
  }

  bool SupportsRefinement() const override { return true; }

 private:
  /// Lazily computes/caches c_AB for an executed root.
  nn::Tensor EncodingFor(const qry::Query& query, qry::RelSet rels);

  const LpceR* model_;
  const db::Database* db_;
  // Maximal executed subtrees, keyed by their covered relation set.
  // std::map: deterministic iteration order.
  std::map<qry::RelSet, std::unique_ptr<EstNode>> roots_;
  std::map<qry::RelSet, nn::Tensor> encoding_cache_;
};

/// Deep copy of an estimation tree (no injection).
std::unique_ptr<EstNode> CloneEstTree(const EstNode* node);

}  // namespace lpce::model

#endif  // LPCE_LPCE_ESTIMATORS_H_
