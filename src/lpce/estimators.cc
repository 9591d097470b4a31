#include "lpce/estimators.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/profiler.h"

namespace lpce::model {

std::unique_ptr<EstNode> CloneEstTree(const EstNode* node) {
  auto copy = std::make_unique<EstNode>();
  copy->rels = node->rels;
  copy->table_pos = node->table_pos;
  copy->join_idx = node->join_idx;
  copy->injected_c = node->injected_c;
  copy->child_card_left = node->child_card_left;
  copy->child_card_right = node->child_card_right;
  copy->true_card = node->true_card;
  if (node->left != nullptr) copy->left = CloneEstTree(node->left.get());
  if (node->right != nullptr) copy->right = CloneEstTree(node->right.get());
  return copy;
}

namespace {

/// Last table position the canonical builder adds for the connected subset
/// `rels` (see qry::BuildCanonicalTree: lowest bit first, then repeatedly
/// the lowest connected position).
int CanonicalLastPosition(const qry::Query& query, qry::RelSet rels) {
  qry::RelSet acc = qry::Bit(__builtin_ctz(rels));
  int last = __builtin_ctz(rels);
  while (acc != rels) {
    for (int pos = 0; pos < query.num_tables(); ++pos) {
      if (!qry::Contains(rels, pos) || qry::Contains(acc, pos)) continue;
      if (query.JoinsBetween(acc, qry::Bit(pos)).empty()) continue;
      acc |= qry::Bit(pos);
      last = pos;
      break;
    }
  }
  return last;
}

}  // namespace

bool TreeModelEstimator::PreparedFor(const qry::Query& query) const {
  return prepared_ && prepared_query_ == query;
}

void TreeModelEstimator::PrepareQuery(const qry::Query& query) {
  LPCE_PROFILE_SCOPE("lpce.prepare_query");
  static common::Counter* prepared_total =
      common::MetricsRegistry::Global().counter(
          "lpce.tree_model.prepared_queries_total");
  prepared_total->Increment();
  prepared_ = false;
  prepared_cards_.clear();
  if (model_->config().with_child_cards) return;  // unsupported; lazy path
  // Batched incremental chain (paper Sec. 6.1): all leaves run as
  // one [T x d] pass, then every connected subset of each popcount size
  // runs as one pass — its canonical prefix has one table fewer, so the
  // whole level's inputs exist before the level starts. States live in the
  // thread's inference arena: reset once here, kept alive across levels,
  // so a prepared query does zero heap allocations after warmup.
  static common::Counter* level_batches_total =
      common::MetricsRegistry::Global().counter(
          "lpce.infer.subplan_level_batches_total");
  nn::InferArena::ThreadLocal().Reset();
  std::unordered_map<qry::RelSet, TreeModel::RawState> states;
  std::vector<int> positions(static_cast<size_t>(query.num_tables()));
  for (int pos = 0; pos < query.num_tables(); ++pos) positions[pos] = pos;
  std::vector<TreeModel::RawState> level_states;
  model_->LeafStatesFastBatch(query, positions, &level_states);
  level_batches_total->Increment();
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    states[qry::Bit(pos)] = level_states[pos];
    prepared_cards_[qry::Bit(pos)] = level_states[pos].card;
  }
  const qry::RelSet all = query.AllRels();
  std::vector<qry::RelSet> level_rels;
  std::vector<TreeModel::JoinStateRequest> requests;
  for (int size = 2; size <= query.num_tables(); ++size) {
    level_rels.clear();
    requests.clear();
    for (qry::RelSet rels = 1; rels <= all; ++rels) {
      if (qry::PopCount(rels) != size || !query.IsConnected(rels)) continue;
      const int last = CanonicalLastPosition(query, rels);
      const qry::RelSet prefix = rels & ~qry::Bit(last);
      auto it = states.find(prefix);
      LPCE_CHECK_MSG(it != states.end(), "canonical prefix must be computed");
      const auto joins = query.JoinsBetween(prefix, qry::Bit(last));
      LPCE_CHECK(!joins.empty());
      level_rels.push_back(rels);
      // unordered_map references are stable across inserts.
      requests.push_back({joins[0], &it->second, &states[qry::Bit(last)]});
    }
    if (requests.empty()) continue;
    model_->JoinStatesFastBatch(query, requests, &level_states);
    level_batches_total->Increment();
    for (size_t i = 0; i < level_rels.size(); ++i) {
      states[level_rels[i]] = level_states[i];
      prepared_cards_[level_rels[i]] = level_states[i].card;
    }
  }
  prepared_query_ = query;
  prepared_ = true;
}

double TreeModelEstimator::EstimateSubset(const qry::Query& query,
                                          qry::RelSet rels) {
  if (PreparedFor(query)) {
    auto it = prepared_cards_.find(rels);
    if (it != prepared_cards_.end()) return it->second;
  }
  auto logical = qry::BuildCanonicalTree(query, rels);
  auto tree = MakeEstTree(query, logical.get(), *db_, nullptr);
  return model_->PredictCardFast(query, tree.get());
}

void LpceREstimator::ObserveActual(const qry::Query& query, qry::RelSet rels,
                                   double actual) {
  if (roots_.count(rels) > 0) return;  // duplicate observation
  static common::Counter* observations_total =
      common::MetricsRegistry::Global().counter(
          "lpce.refiner.observations_total");
  observations_total->Increment();
  auto node = std::make_unique<EstNode>();
  node->rels = rels;
  node->true_card = actual;
  if (qry::PopCount(rels) == 1) {
    node->table_pos = __builtin_ctz(rels);
    node->child_card_left = static_cast<double>(
        db_->table(query.tables[node->table_pos]).num_rows());
    node->child_card_right = 0.0;
  } else {
    // Find two previously-observed roots that partition `rels`.
    qry::RelSet left_rels = 0;
    for (const auto& [r, tree] : roots_) {
      if ((r & rels) == r && roots_.count(rels & ~r) > 0) {
        left_rels = r;
        break;
      }
    }
    if (left_rels == 0) {
      // Fallback (the engine always reports children first, but be robust):
      // synthesize a canonical tree for the whole set.
      auto logical = qry::BuildCanonicalTree(query, rels);
      node = MakeEstTree(query, logical.get(), *db_, nullptr);
      node->true_card = actual;
    } else {
      const qry::RelSet right_rels = rels & ~left_rels;
      auto joins = query.JoinsBetween(left_rels, right_rels);
      LPCE_CHECK(!joins.empty());
      node->join_idx = joins[0];
      node->left = std::move(roots_[left_rels]);
      node->right = std::move(roots_[right_rels]);
      roots_.erase(left_rels);
      roots_.erase(right_rels);
      encoding_cache_.erase(left_rels);
      encoding_cache_.erase(right_rels);
      node->child_card_left = node->left->true_card;
      node->child_card_right = node->right->true_card;
    }
  }
  roots_[rels] = std::move(node);
}

nn::Tensor LpceREstimator::EncodingFor(const qry::Query& query, qry::RelSet rels) {
  auto it = encoding_cache_.find(rels);
  if (it != encoding_cache_.end()) return it->second;
  auto root_it = roots_.find(rels);
  LPCE_CHECK(root_it != roots_.end());
  nn::Tensor enc = nn::MakeTensor(
      model_->EncodeExecutedFast(query, root_it->second.get()));
  encoding_cache_[rels] = enc;
  return enc;
}

double LpceREstimator::EstimateSubset(const qry::Query& query, qry::RelSet rels) {
  LPCE_PROFILE_SCOPE("lpce.refiner_estimate");
  static common::Counter* estimates_total =
      common::MetricsRegistry::Global().counter("lpce.refiner.estimates_total");
  estimates_total->Increment();
  // Units: maximal executed subtrees inside `rels` + uncovered base tables.
  struct Unit {
    qry::RelSet rels;
    const EstNode* executed = nullptr;  // null for base tables
  };
  std::vector<Unit> units;
  qry::RelSet covered = 0;
  for (const auto& [r, tree] : roots_) {
    if ((r & rels) == r) {
      units.push_back({r, tree.get()});
      covered |= r;
    }
  }
  for (int pos = 0; pos < query.num_tables(); ++pos) {
    if (qry::Contains(rels, pos) && !qry::Contains(covered, pos)) {
      units.push_back({qry::Bit(pos), nullptr});
    }
  }
  LPCE_CHECK(!units.empty());

  // Left-deep tree over units, greedily attaching a connected unit.
  std::sort(units.begin(), units.end(),
            [](const Unit& a, const Unit& b) { return a.rels < b.rels; });
  const bool single_mode = model_->mode() == RefinerMode::kSingle;

  auto make_leaf = [&](const Unit& unit) -> std::unique_ptr<EstNode> {
    if (unit.executed != nullptr) {
      if (single_mode) {
        // LPCE-R-Single re-processes the executed subtree with real cards.
        return CloneEstTree(unit.executed);
      }
      auto leaf = std::make_unique<EstNode>();
      leaf->rels = unit.rels;
      leaf->injected_c = EncodingFor(query, unit.rels);
      leaf->true_card = unit.executed->true_card;
      return leaf;
    }
    auto leaf = std::make_unique<EstNode>();
    leaf->rels = unit.rels;
    leaf->table_pos = __builtin_ctz(unit.rels);
    leaf->child_card_left = static_cast<double>(
        db_->table(query.tables[leaf->table_pos]).num_rows());
    leaf->child_card_right = 0.0;
    return leaf;
  };

  std::vector<bool> used(units.size(), false);
  std::unique_ptr<EstNode> acc = make_leaf(units[0]);
  used[0] = true;
  size_t remaining = units.size() - 1;
  while (remaining > 0) {
    bool attached = false;
    for (size_t i = 0; i < units.size(); ++i) {
      if (used[i]) continue;
      auto joins = query.JoinsBetween(acc->rels, units[i].rels);
      if (joins.empty()) continue;
      auto parent = std::make_unique<EstNode>();
      parent->rels = acc->rels | units[i].rels;
      parent->join_idx = joins[0];
      auto right = make_leaf(units[i]);
      parent->child_card_left = acc->true_card;
      parent->child_card_right = right->true_card;
      parent->left = std::move(acc);
      parent->right = std::move(right);
      acc = std::move(parent);
      used[i] = true;
      --remaining;
      attached = true;
      break;
    }
    LPCE_CHECK_MSG(attached, "estimate subset must be connected");
  }
  return model_->EstimateTreeFast(query, acc.get());
}

}  // namespace lpce::model
