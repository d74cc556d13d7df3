#include <memory>

#include <gtest/gtest.h>

#include "core/losses.h"
#include "models/deep_mf.h"
#include "models/diffnet.h"
#include "models/eatnn.h"
#include "models/gbgcn.h"
#include "models/gbmf.h"
#include "models/graph_inputs.h"
#include "models/ngcf.h"
#include "tensor/optim.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::TinyDataset;

/// Shared fixture: a tiny dataset plus its graph inputs.
class ModelsTest : public ::testing::Test {
 protected:
  ModelsTest()
      : dataset_(TinyDataset(12, 6, 40, 21)),
        graphs_(BuildGraphInputs(dataset_)) {}

  /// Builds every baseline against the fixture graphs.
  std::vector<std::unique_ptr<RecModel>> AllBaselines() {
    std::vector<std::unique_ptr<RecModel>> models;
    Rng r1(1), r2(2), r3(3), r4(4), r5(5), r6(6);
    models.push_back(
        std::make_unique<DeepMf>(graphs_.n_users, graphs_.n_items, 8, 2, &r1));
    models.push_back(
        std::make_unique<Gbmf>(graphs_.n_users, graphs_.n_items, 8, &r2));
    models.push_back(std::make_unique<Ngcf>(graphs_, 8, 2, &r3));
    models.push_back(std::make_unique<DiffNet>(graphs_, dataset_, 8, 2, &r4));
    models.push_back(std::make_unique<Eatnn>(graphs_, 8, &r5));
    models.push_back(std::make_unique<Gbgcn>(graphs_, 8, 2, &r6));
    return models;
  }

  GroupBuyingDataset dataset_;
  GraphInputs graphs_;
};

TEST_F(ModelsTest, GraphInputsShapes) {
  const int64_t n_all = graphs_.n_users + graphs_.n_items;
  EXPECT_EQ(graphs_.a_ui->rows(), n_all);
  EXPECT_EQ(graphs_.a_pi->rows(), n_all);
  EXPECT_EQ(graphs_.a_up->rows(), graphs_.n_users);
  const SharedCsr joint = BuildJointAdjacency(graphs_);
  const SharedCsr hin = BuildHeterogeneousAdjacency(graphs_);
  EXPECT_EQ(joint->rows(), n_all);
  EXPECT_EQ(hin->rows(), n_all);
  // HIN contains at least as many edges as each view.
  EXPECT_GE(hin->nnz(), graphs_.a_ui->nnz());
  EXPECT_GE(joint->nnz(), graphs_.a_pi->nnz());
}

TEST_F(ModelsTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (const auto& m : AllBaselines()) names.insert(m->name());
  EXPECT_EQ(names.size(), 6u);
}

TEST_F(ModelsTest, ScoreShapesAndDeterminism) {
  for (const auto& m : AllBaselines()) {
    m->Refresh();
    std::vector<int64_t> users = {0, 1, 2};
    std::vector<int64_t> items = {0, 1, 2};
    std::vector<int64_t> parts = {3, 4, 5};
    Var a1 = m->ScoreA(users, items);
    EXPECT_EQ(a1.rows(), 3) << m->name();
    EXPECT_EQ(a1.cols(), 1) << m->name();
    Var b1 = m->ScoreB(users, items, parts);
    EXPECT_EQ(b1.rows(), 3) << m->name();
    // Same inputs => same outputs within one Refresh.
    Var a2 = m->ScoreA(users, items);
    EXPECT_TRUE(AllClose(a1.value(), a2.value())) << m->name();
  }
}

TEST_F(ModelsTest, ParameterCountsArePositiveAndOrdered) {
  auto models = AllBaselines();
  for (const auto& m : models) {
    EXPECT_GT(m->ParameterCount(), 0) << m->name();
  }
  // EATNN's three user embedding tables make it the largest MF-family
  // model (mirrors Table V's ordering among the baselines' user-table
  // dominated models).
  auto by_name = [&](const std::string& name) -> int64_t {
    for (const auto& m : models) {
      if (m->name() == name) return m->ParameterCount();
    }
    return -1;
  };
  EXPECT_GT(by_name("EATNN"), by_name("GBMF"));
  EXPECT_GT(by_name("GBMF"), by_name("DeepMF") - 200);  // role tables > single
}

TEST_F(ModelsTest, GradientsReachParameters) {
  for (const auto& m : AllBaselines()) {
    m->Refresh();
    std::vector<int64_t> users = {0, 1, 2, 3};
    std::vector<int64_t> pos = {0, 1, 2, 3};
    std::vector<int64_t> neg = {4, 5, 4, 5};
    Var loss = BprLoss(m->ScoreA(users, pos), m->ScoreA(users, neg));
    for (Var& p : m->Parameters()) p.ZeroGrad();
    loss.Backward();
    double total = 0.0;
    for (const Var& p : m->Parameters()) total += p.grad().Norm();
    EXPECT_GT(total, 0.0) << m->name() << ": no gradient reached any param";
  }
}

TEST_F(ModelsTest, RefreshPicksUpParameterChanges) {
  for (const auto& m : AllBaselines()) {
    m->Refresh();
    std::vector<int64_t> users = {0};
    std::vector<int64_t> items = {0};
    const float before = m->ScoreA(users, items).value().item();
    // Perturb every parameter.
    for (Var& p : m->Parameters()) {
      p.mutable_value().ScaleInPlace(1.5f);
      for (int64_t i = 0; i < p.value().numel(); ++i) {
        p.mutable_value().data()[i] += 0.05f;
      }
    }
    m->Refresh();
    const float after = m->ScoreA(users, items).value().item();
    EXPECT_NE(before, after) << m->name();
  }
}

TEST_F(ModelsTest, OneTrainingStepReducesBatchLoss) {
  InteractionIndex index(dataset_);
  TrainingSampler sampler(dataset_, &index);
  Rng rng(31);
  auto batches = sampler.EpochBatchesA(64, 1, &rng);
  ASSERT_FALSE(batches.empty());
  const TaskABatch& batch = batches[0];

  for (const auto& m : AllBaselines()) {
    Adam opt(m->Parameters(), 0.05f);
    m->Refresh();
    const double before = TaskALoss(m.get(), batch).value().item();
    for (int step = 0; step < 10; ++step) {
      m->Refresh();
      Var loss = TaskALoss(m.get(), batch);
      opt.ZeroGrad();
      loss.Backward();
      opt.Step();
    }
    m->Refresh();
    const double after = TaskALoss(m.get(), batch).value().item();
    EXPECT_LT(after, before) << m->name() << " failed to fit one batch";
  }
}

TEST_F(ModelsTest, TaskBHeadIgnoresNothingItShouldUse) {
  // Task B scores must depend on the participant argument.
  for (const auto& m : AllBaselines()) {
    m->Refresh();
    std::vector<int64_t> users = {0, 0};
    std::vector<int64_t> items = {1, 1};
    Var s1 = m->ScoreB(users, items, {2, 3});
    EXPECT_NE(s1.value().at(0, 0), s1.value().at(1, 0)) << m->name();
  }
}

TEST_F(ModelsTest, EvalScorerMatchesScoreCall) {
  auto models = AllBaselines();
  auto& m = models[2];  // NGCF
  m->Refresh();
  TaskAScorer scorer = m->MakeTaskAScorer();
  std::vector<int64_t> items = {0, 3, 5};
  std::vector<double> via_scorer = scorer(1, items);
  Var direct = m->ScoreA({1, 1, 1}, items);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_NEAR(via_scorer[i], direct.value().at(static_cast<int64_t>(i), 0),
                1e-6);
  }
}

}  // namespace
}  // namespace mgbr
