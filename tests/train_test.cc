#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "core/mgbr.h"
#include "models/gbmf.h"
#include "train/checkpoint.h"
#include "tensor/ops.h"
#include "train/trainer.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;

using mgbr::testing::TinyDataset;

class TrainTest : public ::testing::Test {
 protected:
  TrainTest()
      : dataset_(TinyDataset(12, 6, 60, 55)),
        index_(dataset_),
        sampler_(dataset_, &index_),
        graphs_(BuildGraphInputs(dataset_)) {}

  GroupBuyingDataset dataset_;
  InteractionIndex index_;
  TrainingSampler sampler_;
  GraphInputs graphs_;
};

TEST_F(TrainTest, LossDecreasesForBaseline) {
  Rng rng(1);
  Gbmf model(graphs_.n_users, graphs_.n_items, 8, &rng);
  TrainConfig config;
  config.epochs = 6;
  config.batch_size = 64;
  config.negs_per_pos = 1;
  config.learning_rate = 0.02f;
  Trainer trainer(&model, &sampler_, config);
  auto history = trainer.Train();
  ASSERT_EQ(history.size(), 6u);
  EXPECT_LT(history.back().TotalLoss(), history.front().TotalLoss());
  for (const EpochStats& s : history) {
    EXPECT_GT(s.steps, 0);
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_TRUE(std::isfinite(s.TotalLoss()));
  }
}

TEST_F(TrainTest, LossDecreasesForMgbrWithAux) {
  MgbrConfig mc;
  mc.dim = 4;
  mc.n_experts = 2;
  mc.aux_negatives = 2;
  Rng rng(2);
  MgbrModel model(graphs_, mc, &rng);
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 64;
  config.negs_per_pos = 1;
  config.aux_batch_size = 8;
  config.learning_rate = 0.01f;
  Trainer trainer(&model, &sampler_, config);
  auto history = trainer.Train();
  EXPECT_LT(history.back().TotalLoss(), history.front().TotalLoss());
  // Aux losses were actually exercised.
  EXPECT_GT(history.front().aux_a, 0.0);
  EXPECT_GT(history.front().aux_b, 0.0);
}

TEST_F(TrainTest, AuxSkippedWhenVariantDisablesIt) {
  MgbrConfig mc = MgbrConfig::Variant("MGBR-R");
  mc.dim = 4;
  mc.n_experts = 2;
  Rng rng(3);
  MgbrModel model(graphs_, mc, &rng);
  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  Trainer trainer(&model, &sampler_, config);
  auto history = trainer.Train();
  EXPECT_EQ(history[0].aux_a, 0.0);
  EXPECT_EQ(history[0].aux_b, 0.0);
  EXPECT_GT(history[0].loss_a, 0.0);
}

TEST_F(TrainTest, TrainOverridesEpochCount) {
  Rng rng(4);
  Gbmf model(graphs_.n_users, graphs_.n_items, 4, &rng);
  TrainConfig config;
  config.epochs = 99;
  Trainer trainer(&model, &sampler_, config);
  auto history = trainer.Train(2);
  EXPECT_EQ(history.size(), 2u);
}

/// GBMF whose Task A scores are NaN on one chosen training step (the
/// step-th Refresh); `on_refresh` sees each step start before it runs.
class NanOnStepGbmf : public Gbmf {
 public:
  NanOnStepGbmf(int64_t n_users, int64_t n_items, Rng* rng, int64_t nan_step)
      : Gbmf(n_users, n_items, 4, rng), nan_step_(nan_step) {}

  void Refresh() override {
    if (on_refresh) on_refresh(refreshes_);
    ++refreshes_;
  }
  Var ScoreA(const std::vector<int64_t>& users,
             const std::vector<int64_t>& items) override {
    Var scores = Gbmf::ScoreA(users, items);
    return refreshes_ - 1 == nan_step_
               ? MulScalar(scores, std::numeric_limits<float>::quiet_NaN())
               : scores;
  }

  std::function<void(int64_t)> on_refresh;

 private:
  int64_t nan_step_;
  int64_t refreshes_ = 0;
};

/// Parameters and Adam state, copied.
struct TrainingState {
  std::vector<Tensor> params, m, v;
  int64_t t = -1;
};

TrainingState Capture(const RecModel& model, const Adam& adam) {
  TrainingState s;
  for (const Var& p : model.Parameters()) s.params.push_back(p.value());
  s.m = adam.first_moments();
  s.v = adam.second_moments();
  s.t = adam.step_count();
  return s;
}

bool BitEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_shape(b[i]) ||
        std::memcmp(a[i].data(), b[i].data(),
                    sizeof(float) * static_cast<size_t>(a[i].numel())) != 0) {
      return false;
    }
  }
  return true;
}

TEST_F(TrainTest, NonFiniteStepIsSkippedAndCounted) {
  Rng rng(4);
  NanOnStepGbmf model(graphs_.n_users, graphs_.n_items, &rng,
                      /*nan_step=*/1);
  TrainConfig config;
  config.batch_size = 16;
  config.negs_per_pos = 1;
  config.learning_rate = 0.02f;
  Trainer trainer(&model, &sampler_, config);
  TrainingState before, after;
  model.on_refresh = [&](int64_t step) {
    if (step == 1) before = Capture(model, *trainer.optimizer());
    if (step == 2) after = Capture(model, *trainer.optimizer());
  };
  const EpochStats stats = trainer.RunEpoch();

  ASSERT_EQ(after.t, 1) << "the epoch ended before step 2";
  EXPECT_EQ(stats.skipped_steps, 1);
  EXPECT_EQ(trainer.optimizer()->step_count(), stats.steps);
  EXPECT_TRUE(std::isfinite(stats.TotalLoss()));
  EXPECT_TRUE(std::isfinite(stats.grad_norm_pre));
  // The poisoned step changed neither the parameters nor Adam's state.
  EXPECT_EQ(before.t, after.t);
  EXPECT_TRUE(BitEqual(before.params, after.params));
  EXPECT_TRUE(BitEqual(before.m, after.m));
  EXPECT_TRUE(BitEqual(before.v, after.v));

  // What a checkpoint after the epoch holds loads back finite.
  const ScopedTempDir temp("train");
  const std::string path = temp.File("after_nan.mgbr");
  std::vector<Var> params = model.Parameters();
  ASSERT_TRUE(SaveParameters(params, path).ok());
  Rng other(5);
  Gbmf restored(graphs_.n_users, graphs_.n_items, 4, &other);
  std::vector<Var> loaded = restored.Parameters();
  ASSERT_TRUE(LoadParameters(path, &loaded).ok());
  for (const Var& p : loaded) {
    for (int64_t i = 0; i < p.value().numel(); ++i) {
      ASSERT_TRUE(std::isfinite(p.value().data()[i]));
    }
  }
  EXPECT_TRUE(BitEqual(Capture(restored, *trainer.optimizer()).params,
                       Capture(model, *trainer.optimizer()).params));
}

// ---------------------------------------------------------------------------
// EarlyStopping.
// ---------------------------------------------------------------------------

TEST(EarlyStoppingTest, StopsAfterPatienceExhausted) {
  EarlyStopping stop(2);
  EXPECT_FALSE(stop.ShouldStop(0.5));  // improvement
  EXPECT_FALSE(stop.ShouldStop(0.6));  // improvement
  EXPECT_FALSE(stop.ShouldStop(0.55));  // 1 bad
  EXPECT_TRUE(stop.ShouldStop(0.58));   // 2 bad -> stop
  EXPECT_DOUBLE_EQ(stop.best(), 0.6);
}

TEST(EarlyStoppingTest, ImprovementResetsCounter) {
  EarlyStopping stop(2);
  EXPECT_FALSE(stop.ShouldStop(0.5));
  EXPECT_FALSE(stop.ShouldStop(0.4));
  EXPECT_FALSE(stop.ShouldStop(0.6));  // reset
  EXPECT_FALSE(stop.ShouldStop(0.5));
  EXPECT_TRUE(stop.ShouldStop(0.5));
}

// ---------------------------------------------------------------------------
// Checkpointing.
// ---------------------------------------------------------------------------

TEST_F(TrainTest, CheckpointRoundTripRestoresScores) {
  MgbrConfig mc;
  mc.dim = 4;
  mc.n_experts = 2;
  Rng rng(5);
  MgbrModel model(graphs_, mc, &rng);
  model.Refresh();
  const float score_before = model.ScoreA({0}, {0}).value().item();

  const ScopedTempDir temp("train");
  const std::string path = temp.File("mgbr_ckpt_test.bin");
  auto params = model.Parameters();
  ASSERT_TRUE(SaveParameters(params, path).ok());

  // Corrupt the in-memory model, then restore.
  for (Var& p : params) p.mutable_value().Fill(0.123f);
  model.Refresh();
  EXPECT_NE(model.ScoreA({0}, {0}).value().item(), score_before);

  ASSERT_TRUE(LoadParameters(path, &params).ok());
  model.Refresh();
  EXPECT_FLOAT_EQ(model.ScoreA({0}, {0}).value().item(), score_before);
}

TEST_F(TrainTest, CheckpointRejectsWrongModel) {
  Rng rng(6);
  Gbmf small(graphs_.n_users, graphs_.n_items, 4, &rng);
  Gbmf big(graphs_.n_users, graphs_.n_items, 8, &rng);
  const ScopedTempDir temp("train");
  const std::string path = temp.File("mgbr_ckpt_mismatch.bin");
  auto small_params = small.Parameters();
  ASSERT_TRUE(SaveParameters(small_params, path).ok());
  auto big_params = big.Parameters();
  Status s = LoadParameters(path, &big_params);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, MissingFileIsIoError) {
  std::vector<Var> params = {Var(Tensor::Scalar(1.0f), true)};
  Status s = LoadParameters("/no/such/checkpoint.bin", &params);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CheckpointTest, TruncatedFileFailsCleanly) {
  const ScopedTempDir temp("train");
  const std::string path = temp.File("mgbr_ckpt_trunc.bin");
  std::vector<Var> params = {Var(Tensor::Full(4, 4, 2.0f), true)};
  ASSERT_TRUE(SaveParameters(params, path).ok());
  // Truncate the payload.
  {
    FILE* f = fopen(path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    ASSERT_EQ(ftruncate(fileno(f), size - 8), 0);
    fclose(f);
  }
  std::vector<Var> restore = {Var(Tensor::Zeros(4, 4), true)};
  Status s = LoadParameters(path, &restore);
  EXPECT_FALSE(s.ok());
  // Staged load: the target must be untouched on failure.
  EXPECT_FLOAT_EQ(restore[0].value().at(0, 0), 0.0f);
}

}  // namespace
}  // namespace mgbr
