#include "lpce/lpce_r.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/profiler.h"
#include "common/timer.h"
#include "nn/kernels.h"

namespace lpce::model {

LpceR::LpceR(const FeatureEncoder* encoder, TreeModelConfig base_config,
             RefinerMode mode)
    : mode_(mode), encoder_(encoder) {
  TreeModelConfig content_cfg = base_config;
  content_cfg.with_child_cards = false;
  TreeModelConfig card_cfg = base_config;
  card_cfg.with_child_cards = true;
  card_cfg.seed = base_config.seed + 101;
  TreeModelConfig refine_cfg = content_cfg;
  refine_cfg.seed = base_config.seed + 202;

  cardinality_ = std::make_unique<TreeModel>(encoder, card_cfg);
  if (mode_ != RefinerMode::kSingle) {
    refine_ = std::make_unique<TreeModel>(encoder, refine_cfg);
  }
  if (mode_ == RefinerMode::kFull) {
    content_ = std::make_unique<TreeModel>(encoder, content_cfg);
    Rng rng(base_config.seed + 303);
    const size_t dim = static_cast<size_t>(base_config.dim);
    wa_ = nn::Linear(&connect_params_, "connect.wa", dim, dim, &rng);
    wb_ = nn::Linear(&connect_params_, "connect.wb", dim, dim, &rng);
    wab_ = nn::Linear(&connect_params_, "connect.wab", dim, dim, &rng);
  }
}

nn::Tensor LpceR::Connect(const nn::Tensor& c_content,
                          const nn::Tensor& c_card) const {
  // Eq. 6: learned merge weights, then a ReLU projection.
  nn::Tensor w_a = nn::Sigmoid(wa_.Forward(c_content));
  nn::Tensor w_b = nn::Sigmoid(wb_.Forward(c_card));
  nn::Tensor merged =
      nn::Add(nn::Mul(w_a, c_content), nn::Mul(w_b, c_card));
  return nn::Relu(wab_.Forward(merged));
}

nn::Tensor LpceR::EncodeExecuted(const qry::Query& query,
                                 const EstNode* executed) const {
  // The executed modules are frozen during refinement training and pure
  // feature extractors at inference: detach their outputs.
  nn::Tensor c_card =
      Detach(cardinality_->Forward(query, executed).back().c);
  switch (mode_) {
    case RefinerMode::kFull: {
      nn::Tensor c_content = Detach(content_->Forward(query, executed).back().c);
      return Connect(c_content, c_card);
    }
    case RefinerMode::kTwo:
    case RefinerMode::kSingle:
      return c_card;
  }
  return c_card;
}

nn::Matrix LpceR::ConnectFast(const nn::Matrix& c_content,
                              const nn::Matrix& c_card) const {
  // Kernel-for-kernel mirror of the taped Connect (Eq. 6): Mul / Mul / Add
  // as three separate rounding passes, so the fast path is bit-identical to
  // the autograd path (a fused a*b + c*d expression could FMA-contract
  // differently under -ffast-math).
  namespace k = nn::kernels;
  nn::Matrix w_a = wa_.Apply(c_content);
  nn::SigmoidInPlace(&w_a);
  nn::Matrix w_b = wb_.Apply(c_card);
  nn::SigmoidInPlace(&w_b);
  k::MulInPlace(w_a.data(), c_content.data(), w_a.size());
  k::MulInPlace(w_b.data(), c_card.data(), w_b.size());
  nn::Matrix merged(1, c_content.cols());
  k::Add(w_a.data(), w_b.data(), merged.data(), merged.size());
  nn::Matrix out = wab_.Apply(merged);
  nn::ReluInPlace(&out);
  return out;
}

nn::Matrix LpceR::EncodeExecutedFast(const qry::Query& query,
                                     const EstNode* executed) const {
  nn::Matrix c_card = cardinality_->EncodeRootFast(query, executed);
  switch (mode_) {
    case RefinerMode::kFull: {
      nn::Matrix c_content = content_->EncodeRootFast(query, executed);
      return ConnectFast(c_content, c_card);
    }
    case RefinerMode::kTwo:
    case RefinerMode::kSingle:
      return c_card;
  }
  return c_card;
}

double LpceR::EstimateTreeFast(const qry::Query& query, const EstNode* tree) const {
  if (mode_ == RefinerMode::kSingle) {
    return cardinality_->PredictCardFast(query, tree,
                                         /*dynamic_child_cards=*/true);
  }
  return refine_->PredictCardFast(query, tree);
}

Status LpceR::Save(const std::string& prefix) const {
  LPCE_RETURN_IF_ERROR(cardinality_->params().SaveToFile(prefix + ".card.bin"));
  if (refine_ != nullptr) {
    LPCE_RETURN_IF_ERROR(refine_->params().SaveToFile(prefix + ".refine.bin"));
  }
  if (content_ != nullptr) {
    LPCE_RETURN_IF_ERROR(content_->params().SaveToFile(prefix + ".content.bin"));
    LPCE_RETURN_IF_ERROR(connect_params_.SaveToFile(prefix + ".connect.bin"));
  }
  return Status::Ok();
}

Status LpceR::Load(const std::string& prefix) {
  LPCE_RETURN_IF_ERROR(cardinality_->params().LoadFromFile(prefix + ".card.bin"));
  if (refine_ != nullptr) {
    LPCE_RETURN_IF_ERROR(refine_->params().LoadFromFile(prefix + ".refine.bin"));
  }
  if (content_ != nullptr) {
    LPCE_RETURN_IF_ERROR(content_->params().LoadFromFile(prefix + ".content.bin"));
    LPCE_RETURN_IF_ERROR(connect_params_.LoadFromFile(prefix + ".connect.bin"));
  }
  return Status::Ok();
}

namespace {

/// Deep copy of an estimation tree; the subtree covering `inject_rels`
/// (if non-zero) is replaced by an injected leaf carrying `injected_c`.
std::unique_ptr<EstNode> CloneWithInjection(const EstNode* node,
                                            qry::RelSet inject_rels,
                                            const nn::Tensor& injected_c) {
  auto copy = std::make_unique<EstNode>();
  copy->rels = node->rels;
  if (inject_rels != 0 && node->rels == inject_rels) {
    copy->injected_c = injected_c;
    copy->true_card = node->true_card;
    return copy;
  }
  copy->table_pos = node->table_pos;
  copy->join_idx = node->join_idx;
  copy->child_card_left = node->child_card_left;
  copy->child_card_right = node->child_card_right;
  copy->true_card = node->true_card;
  if (node->left != nullptr) {
    copy->left = CloneWithInjection(node->left.get(), inject_rels, injected_c);
  }
  if (node->right != nullptr) {
    copy->right = CloneWithInjection(node->right.get(), inject_rels, injected_c);
  }
  return copy;
}

void CollectSubtreeRoots(const EstNode* node, const EstNode* root,
                         std::vector<const EstNode*>* out) {
  if (node == nullptr) return;
  if (node != root) out->push_back(node);
  CollectSubtreeRoots(node->left.get(), root, out);
  CollectSubtreeRoots(node->right.get(), root, out);
}

}  // namespace

TrainStats TrainLpceR(LpceR* model, const db::Database& database,
                      const std::vector<wk::LabeledQuery>& train,
                      const LpceRTrainOptions& options) {
  LPCE_PROFILE_SCOPE("train.lpce_r");
  WallTimer total_timer;
  TrainStats stats;
  stats.model_tag = options.tag;
  // ---- Stage 1: pre-train the executed-sub-plan modules. ----------------
  if (model->mode() == RefinerMode::kFull) {
    if (options.pretrained_content != nullptr) {
      model->content().CopyParamsFrom(*options.pretrained_content);
    } else {
      TrainTreeModel(&model->content(), database, train, options.pretrain);
    }
  }
  TrainTreeModel(&model->cardinality(), database, train, options.pretrain);
  if (model->mode() == RefinerMode::kSingle) {
    // No refine module: the stage-2 report stays empty.
    stats.total_seconds = total_timer.ElapsedSeconds();
    RecordTrainStats(stats);
    return stats;
  }

  // Refine module starts from the content weights (Fig. 9) when available,
  // otherwise from its own LPCE-I-style pre-training.
  if (model->mode() == RefinerMode::kFull) {
    if (options.pretrained_content != nullptr) {
      model->refine().CopyParamsFrom(*options.pretrained_content);
    } else {
      model->refine().CopyParamsFrom(model->content());
    }
  } else {
    TrainTreeModel(&model->refine(), database, train, options.pretrain);
  }

  // ---- Stage 2: freeze content/cardinality, fine-tune refine (+connect). --
  nn::Adam refine_adam(&model->refine().params(), {.lr = options.lr});
  std::unique_ptr<nn::Adam> connect_adam;
  if (model->mode() == RefinerMode::kFull) {
    connect_adam =
        std::make_unique<nn::Adam>(&model->connect_params(),
                                   nn::Adam::Options{.lr = options.lr});
  }

  std::vector<std::unique_ptr<EstNode>> trees;
  trees.reserve(train.size());
  for (const auto& labeled : train) {
    auto logical = qry::BuildCanonicalTree(labeled.query, labeled.query.AllRels());
    trees.push_back(MakeEstTree(labeled.query, logical.get(), database,
                                &labeled.true_cards));
  }

  Rng rng(options.seed);
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < options.refine_epochs; ++epoch) {
    LPCE_PROFILE_SCOPE("train.lpce_r_refine");
    WallTimer epoch_timer;
    rng.Shuffle(&order);
    int batch_count = 0;
    double epoch_loss = 0.0;
    int samples = 0;
    double grad_norm_sum = 0.0;
    int grad_norm_steps = 0;
    for (size_t idx : order) {
      const auto& labeled = train[idx];
      std::vector<const EstNode*> candidates;
      CollectSubtreeRoots(trees[idx].get(), trees[idx].get(), &candidates);
      if (candidates.empty()) continue;
      for (int k = 0; k < options.prefixes_per_query; ++k) {
        const EstNode* executed = candidates[rng.Uniform(candidates.size())];
        nn::Tensor c_ab = model->EncodeExecuted(labeled.query, executed);
        auto refine_tree = CloneWithInjection(trees[idx].get(), executed->rels, c_ab);
        auto outputs = model->refine().Forward(labeled.query, refine_tree.get());
        // Node-wise loss over the remaining (labeled) operators.
        nn::Tensor loss;
        int terms = 0;
        for (const auto& out : outputs) {
          if (out.node->true_card < 0.0) continue;
          nn::Matrix target(1, 1);
          target.at(0, 0) =
              static_cast<float>(model->CardToY(out.node->true_card));
          nn::Tensor term = nn::Abs(nn::Sub(out.y, nn::MakeTensor(target)));
          loss = loss == nullptr ? term : nn::Add(loss, term);
          ++terms;
        }
        if (loss == nullptr) continue;
        if (terms > 1) loss = nn::Scale(loss, 1.0f / static_cast<float>(terms));
        nn::Backward(loss);
        epoch_loss += loss->value().at(0, 0);
        ++samples;
        if (++batch_count >= options.batch_size) {
          const float scale = 1.0f / static_cast<float>(batch_count);
          model->refine().params().ScaleGrads(scale);
          grad_norm_sum +=
              static_cast<double>(model->refine().params().GradNorm());
          ++grad_norm_steps;
          model->refine().params().ClipGradNorm(options.grad_clip);
          refine_adam.Step();
          if (connect_adam != nullptr) {
            model->connect_params().ScaleGrads(scale);
            model->connect_params().ClipGradNorm(options.grad_clip);
            connect_adam->Step();
          }
          // The frozen modules accumulated nothing (their outputs are
          // detached), but clear defensively.
          model->cardinality().params().ZeroGrads();
          if (model->mode() == RefinerMode::kFull) {
            model->content().params().ZeroGrads();
          }
          batch_count = 0;
        }
      }
    }
    if (batch_count > 0) {
      refine_adam.Step();
      if (connect_adam != nullptr) connect_adam->Step();
    }
    EpochStats es;
    es.epoch = epoch;
    es.stage = "refine";
    es.train_loss = samples > 0 ? epoch_loss / samples : 0.0;
    es.samples = samples;
    es.wall_seconds = epoch_timer.ElapsedSeconds();
    es.examples_per_sec =
        es.wall_seconds > 0.0 ? samples / es.wall_seconds : 0.0;
    es.grad_norm =
        grad_norm_steps > 0 ? grad_norm_sum / grad_norm_steps : 0.0;
    stats.epochs.push_back(std::move(es));
    LPCE_LOG(Debug) << "lpce-r refine epoch " << epoch << " loss "
                    << es.train_loss;
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  RecordTrainStats(stats);
  return stats;
}

}  // namespace lpce::model
