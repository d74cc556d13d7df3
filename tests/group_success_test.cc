#include <gtest/gtest.h>

#include "core/group_success.h"
#include "tests/test_util.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;

using mgbr::testing::TinyDataset;

class GroupSuccessTest : public ::testing::Test {
 protected:
  GroupSuccessTest()
      : dataset_(TinyDataset(12, 6, 50, 7)),
        graphs_(BuildGraphInputs(dataset_)) {
    MgbrConfig config;
    config.dim = 6;
    config.n_experts = 2;
    config.sigmoid_head = false;
    Rng rng(3);
    model_ = std::make_unique<MgbrModel>(graphs_, config, &rng);
  }

  GroupBuyingDataset dataset_;
  GraphInputs graphs_;
  std::unique_ptr<MgbrModel> model_;
};

TEST_F(GroupSuccessTest, ScoreIsFiniteAndNegative) {
  GroupSuccessEstimator estimator(model_.get());
  std::vector<int64_t> pool = {1, 2, 3, 4, 5};
  const double score =
      estimator.LogSuccessScore({0, 0}, pool, /*threshold=*/2);
  EXPECT_TRUE(std::isfinite(score));
  // Sum of log-sigmoids is strictly negative.
  EXPECT_LT(score, 0.0);
}

TEST_F(GroupSuccessTest, MoreRequiredParticipantsLowersScore) {
  GroupSuccessEstimator estimator(model_.get());
  std::vector<int64_t> pool = {1, 2, 3, 4, 5, 6, 7};
  const double easy = estimator.LogSuccessScore({0, 0}, pool, 1);
  const double hard = estimator.LogSuccessScore({0, 0}, pool, 5);
  // Each extra required participant adds a negative log term.
  EXPECT_LT(hard, easy);
}

TEST_F(GroupSuccessTest, ThresholdClampedToPool) {
  GroupSuccessEstimator estimator(model_.get());
  std::vector<int64_t> pool = {1, 2};
  const double clamped = estimator.LogSuccessScore({0, 0}, pool, 99);
  const double exact = estimator.LogSuccessScore({0, 0}, pool, 2);
  EXPECT_DOUBLE_EQ(clamped, exact);
}

TEST_F(GroupSuccessTest, RankingIsPermutationSortedByScore) {
  GroupSuccessEstimator estimator(model_.get());
  std::vector<GroupSuccessEstimator::OpenGroup> open = {
      {0, 0}, {1, 1}, {2, 2}, {3, 3}};
  std::vector<int64_t> pool = {4, 5, 6, 7, 8};
  auto order = estimator.RankOpenGroups(open, pool, 2);
  ASSERT_EQ(order.size(), open.size());
  std::set<size_t> uniq(order.begin(), order.end());
  EXPECT_EQ(uniq.size(), open.size());
  // Scores along the returned order are non-increasing.
  double prev = 1e300;
  for (size_t idx : order) {
    const double s = estimator.LogSuccessScore(open[idx], pool, 2);
    EXPECT_LE(s, prev + 1e-9);
    prev = s;
  }
}

TEST_F(GroupSuccessTest, TrainingMovesObservedGroupsUp) {
  // After training, an actually-dealt (train) group should outrank a
  // random (user, item) pair on average.
  InteractionIndex index(dataset_);
  TrainingSampler sampler(dataset_, &index);
  TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 64;
  tc.learning_rate = 1e-2f;
  Trainer trainer(model_.get(), &sampler, tc);
  trainer.Train();

  GroupSuccessEstimator estimator(model_.get());
  std::vector<int64_t> pool;
  for (int64_t p = 0; p < dataset_.n_users(); ++p) pool.push_back(p);

  double observed = 0.0;
  int64_t n_observed = 0;
  for (const DealGroup& g : dataset_.groups()) {
    if (g.participants.empty()) continue;
    observed += estimator.LogSuccessScore({g.initiator, g.item}, pool, 2);
    if (++n_observed >= 10) break;
  }
  observed /= static_cast<double>(n_observed);

  Rng rng(17);
  double random_score = 0.0;
  const int64_t n_random = 10;
  for (int64_t k = 0; k < n_random; ++k) {
    GroupSuccessEstimator::OpenGroup g{
        static_cast<int64_t>(rng.UniformInt(dataset_.n_users())),
        static_cast<int64_t>(rng.UniformInt(dataset_.n_items()))};
    random_score += estimator.LogSuccessScore(g, pool, 2);
  }
  random_score /= static_cast<double>(n_random);
  EXPECT_GT(observed, random_score);
}

TEST(EarlyStoppingTrainTest, StopsAndTracksBest) {
  GroupBuyingDataset dataset = TinyDataset(12, 6, 50, 9);
  GraphInputs graphs = BuildGraphInputs(dataset);
  InteractionIndex index(dataset);
  TrainingSampler sampler(dataset, &index);
  MgbrConfig mc;
  mc.dim = 4;
  mc.n_experts = 2;
  Rng rng(5);
  MgbrModel model(graphs, mc, &rng);
  TrainConfig tc;
  tc.batch_size = 64;
  Trainer trainer(&model, &sampler, tc);

  // A synthetic validation metric that improves twice then plateaus:
  // training must stop after `patience` flat epochs.
  int calls = 0;
  auto validate = [&calls]() {
    ++calls;
    return calls <= 2 ? static_cast<double>(calls) : 2.0;
  };
  ValidatedTrainResult result = TrainWithEarlyStopping(
      &trainer, &model, validate, /*max_epochs=*/50, /*patience=*/3);
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(result.best_epoch, 1);  // second epoch (0-based)
  EXPECT_DOUBLE_EQ(result.best_metric, 2.0);
  EXPECT_EQ(result.history.size(), 5u);  // 2 improving + 3 patience
}

TEST(EarlyStoppingTrainTest, SavesBestCheckpoint) {
  GroupBuyingDataset dataset = TinyDataset(10, 5, 40, 11);
  GraphInputs graphs = BuildGraphInputs(dataset);
  InteractionIndex index(dataset);
  TrainingSampler sampler(dataset, &index);
  MgbrConfig mc;
  mc.dim = 4;
  mc.n_experts = 2;
  Rng rng(6);
  MgbrModel model(graphs, mc, &rng);
  TrainConfig tc;
  tc.batch_size = 64;
  Trainer trainer(&model, &sampler, tc);

  const ScopedTempDir temp("group_success");
  const std::string path = temp.File("mgbr_best.ckpt");
  int calls = 0;
  auto validate = [&calls]() { return calls++ == 0 ? 1.0 : 0.0; };
  TrainWithEarlyStopping(&trainer, &model, validate, 10, 2, path);
  // Checkpoint must exist and load back into the same architecture.
  auto params = model.Parameters();
  EXPECT_TRUE(LoadParameters(path, &params).ok());
}

}  // namespace
}  // namespace mgbr
