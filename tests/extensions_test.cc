#include <gtest/gtest.h>

#include "core/losses.h"
#include "eval/metrics.h"
#include "models/lightgcn.h"
#include "models/popularity.h"
#include "tensor/optim.h"
#include "tests/test_util.h"
#include "train/trainer.h"

namespace mgbr {
namespace {

using mgbr::testing::TinyDataset;

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest()
      : dataset_(TinyDataset(14, 7, 60, 99)),
        graphs_(BuildGraphInputs(dataset_)),
        index_(dataset_) {}

  GroupBuyingDataset dataset_;
  GraphInputs graphs_;
  InteractionIndex index_;
};

// ---------------------------------------------------------------------------
// LightGCN.
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, LightGcnHasOnlyEmbeddingParameters) {
  Rng rng(1);
  LightGcn model(graphs_, 8, 2, &rng);
  // No transform weights: exactly one parameter tensor (X0).
  EXPECT_EQ(model.Parameters().size(), 1u);
  EXPECT_EQ(model.ParameterCount(),
            (graphs_.n_users + graphs_.n_items) * 8);
}

TEST_F(ExtensionsTest, LightGcnScoresAndLearns) {
  Rng rng(2);
  LightGcn model(graphs_, 8, 2, &rng);
  model.Refresh();
  Var s = model.ScoreA({0, 1}, {0, 1});
  EXPECT_EQ(s.rows(), 2);

  TrainingSampler sampler(dataset_, &index_);
  Rng srng(3);
  auto batches = sampler.EpochBatchesA(64, 1, &srng);
  Adam opt(model.Parameters(), 0.05f);
  model.Refresh();
  const double before = TaskALoss(&model, batches[0]).value().item();
  for (int step = 0; step < 10; ++step) {
    model.Refresh();
    Var loss = TaskALoss(&model, batches[0]);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  model.Refresh();
  EXPECT_LT(TaskALoss(&model, batches[0]).value().item(), before);
}

TEST_F(ExtensionsTest, LightGcnFinalIsLayerMean) {
  // With one layer, final = (X0 + Â X0) / 2; verify against manual SpMM.
  Rng rng(4);
  LightGcn model(graphs_, 4, 1, &rng);
  model.Refresh();
  Var x0 = model.Parameters()[0];
  Tensor manual = BuildJointAdjacency(graphs_)->Multiply(x0.value());
  manual.AccumulateInPlace(x0.value());
  manual.ScaleInPlace(0.5f);
  Var s = model.ScoreA({0}, {0});
  // Score = <final[0], final[n_users+0]>.
  double expect = 0.0;
  for (int64_t c = 0; c < 4; ++c) {
    expect += manual.at(0, c) * manual.at(graphs_.n_users, c);
  }
  EXPECT_NEAR(s.value().item(), expect, 1e-4);
}

// ---------------------------------------------------------------------------
// Popularity.
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, PopularityRanksByFrequency) {
  GroupBuyingDataset tiny(4, 3, {{0, 2, {1}}, {1, 2, {3}}, {2, 0, {}}});
  Popularity model(tiny);
  model.Refresh();
  Var s = model.ScoreA({0, 0, 0}, {0, 1, 2});
  // Item 2 appears in 2 groups (+2 joins), item 0 once, item 1 never.
  EXPECT_GT(s.value().at(2, 0), s.value().at(0, 0));
  EXPECT_GT(s.value().at(0, 0), s.value().at(1, 0));
  EXPECT_EQ(model.ParameterCount(), 0);
}

TEST_F(ExtensionsTest, PopularityTaskBRanksByJoinActivity) {
  GroupBuyingDataset tiny(4, 2, {{0, 0, {1, 2}}, {0, 1, {1}}});
  Popularity model(tiny);
  model.Refresh();
  Var s = model.ScoreB({0, 0, 0}, {0, 0, 0}, {1, 2, 3});
  EXPECT_GT(s.value().at(0, 0), s.value().at(1, 0));  // u1 joined twice
  EXPECT_GT(s.value().at(1, 0), s.value().at(2, 0));  // u3 never joined
}

// ---------------------------------------------------------------------------
// Full-ranking evaluation.
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, FullRankingPerfectScorer) {
  std::vector<EvalInstanceA> instances;
  EvalInstanceA inst;
  inst.user = 0;
  inst.pos_item = 3;
  instances.push_back(inst);
  auto scorer = [](int64_t, const std::vector<int64_t>& items) {
    std::vector<double> s;
    for (int64_t i : items) s.push_back(i == 3 ? 1.0 : 0.0);
    return s;
  };
  RankingReport r = EvaluateTaskAFullRanking(instances, scorer, index_,
                                             dataset_.n_items(), 10);
  EXPECT_DOUBLE_EQ(r.mrr, 1.0);
}

TEST_F(ExtensionsTest, FullRankingExcludesInteractedItems) {
  // A scorer that puts every interacted item above the positive would
  // tank the rank IF interacted items were counted — they must not be.
  const int64_t user = dataset_.groups()[0].initiator;
  // Find an item the user never bought to use as positive.
  int64_t pos = -1;
  for (int64_t i = 0; i < dataset_.n_items(); ++i) {
    if (!index_.UserBoughtItem(user, i)) {
      pos = i;
      break;
    }
  }
  ASSERT_GE(pos, 0);
  std::vector<EvalInstanceA> instances;
  EvalInstanceA inst;
  inst.user = user;
  inst.pos_item = pos;
  instances.push_back(inst);
  auto scorer = [&](int64_t u, const std::vector<int64_t>& items) {
    std::vector<double> s;
    for (int64_t i : items) {
      if (i == pos) {
        s.push_back(0.5);
      } else if (index_.UserBoughtItem(u, i)) {
        s.push_back(1.0);  // bought items scored higher — must be ignored
      } else {
        s.push_back(0.0);
      }
    }
    return s;
  };
  RankingReport r = EvaluateTaskAFullRanking(instances, scorer, index_,
                                             dataset_.n_items(), 10);
  EXPECT_DOUBLE_EQ(r.mrr, 1.0);
}

// ---------------------------------------------------------------------------
// Trainer extensions: fresh-negative regeneration + LR decay.
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, LrDecayKicksIn) {
  TrainingSampler sampler(dataset_, &index_);
  Rng rng(5);
  LightGcn model(graphs_, 4, 1, &rng);
  TrainConfig tc;
  tc.epochs = 10;
  tc.learning_rate = 0.01f;
  tc.lr_decay_after = 0.5f;
  tc.lr_decay_factor = 0.1f;
  Trainer trainer(&model, &sampler, tc);
  trainer.Train();
  EXPECT_NEAR(trainer.optimizer()->learning_rate(), 0.001f, 1e-6);
}

TEST_F(ExtensionsTest, LrDecayDisabledWhenFactorIsOne) {
  TrainingSampler sampler(dataset_, &index_);
  Rng rng(6);
  LightGcn model(graphs_, 4, 1, &rng);
  TrainConfig tc;
  tc.epochs = 4;
  tc.learning_rate = 0.01f;
  tc.lr_decay_factor = 1.0f;
  Trainer trainer(&model, &sampler, tc);
  trainer.Train();
  EXPECT_FLOAT_EQ(trainer.optimizer()->learning_rate(), 0.01f);
}

TEST_F(ExtensionsTest, UnseenEvalBuildersSkipTrainPairs) {
  // With the train index equal to the heldout index, EVERY instance is
  // "seen" and the builders must return nothing.
  Rng rng(7);
  auto a = BuildEvalInstancesA(dataset_, index_, 5, &rng, 0, &index_);
  EXPECT_TRUE(a.empty());
  auto b = BuildEvalInstancesB(dataset_, index_, 5, &rng, 0, &index_);
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace mgbr
