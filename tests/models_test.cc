#include <cstdint>
#include <ios>
#include <memory>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "core/losses.h"
#include "data/sampler.h"
#include "models/deep_mf.h"
#include "models/diffnet.h"
#include "models/eatnn.h"
#include "models/gbgcn.h"
#include "models/gbmf.h"
#include "models/graph_inputs.h"
#include "models/lightgcn.h"
#include "models/ngcf.h"
#include "tensor/optim.h"
#include "tests/test_util.h"
#include "train/trainer.h"

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

uint32_t CrcOf(const Tensor& t, uint32_t seed = 0) {
  return Crc32(t.data(), static_cast<size_t>(t.numel()) * sizeof(float),
               seed);
}

TEST(DotModelPinTest, TrainedBitsMatchRecordedChecksums) {
  // Each dot-product baseline trains a few epochs of both tasks, then
  // every parameter byte and several full-catalogue score columns are
  // checksummed. The values were recorded from the RowSum(Mul(...))
  // composition the row-dot kernel replaced, so any change to a score
  // or gradient bit in RowDot / DotAllRows fails here. EATNN's Task B
  // feeds two gathers of one table into one RowDot, where the order
  // the two gradients reach that table matters.
  //
  // src/ is compiled with -ffp-contract=off, so no build (native,
  // portable or Debug) fuses a*b+c into an FMA and one recording holds
  // for all of them.
  struct Pinned {
    const char* name;
    uint32_t params, score_a_all, score_b_all;
  };
  constexpr Pinned kPinned[] = {
      {"GBMF", 0xDD5B1500u, 0x558952EAu, 0x83DCDF55u},
      {"DeepMF", 0xC0FF2B78u, 0x9745B9B4u, 0x5BE7E9D6u},
      {"DiffNet", 0x30136D17u, 0x968B0F2Du, 0xDE4CBA59u},
      {"EATNN", 0xF2080436u, 0x8F3358E6u, 0xB724B2DEu},
      {"LightGCN", 0xD71F951Fu, 0x3EBA7E7Bu, 0xC6049B49u},
      {"NGCF", 0x34CBEB5Eu, 0x25F1AA98u, 0x6A8C1E65u},
      {"GBGCN", 0x80AEE99Du, 0x9A46AD7Bu, 0x0A0D56CCu},
  };
  const GroupBuyingDataset dataset = TinyDataset(16, 8, 60, 27);
  const GraphInputs graphs = BuildGraphInputs(dataset);
  InteractionIndex index(dataset);
  TrainingSampler sampler(dataset, &index);
  Rng r1(11), r2(12), r3(13), r4(14), r5(15), r6(16), r7(17);
  std::vector<std::unique_ptr<RecModel>> models;
  models.push_back(
      std::make_unique<Gbmf>(graphs.n_users, graphs.n_items, 8, &r1));
  models.push_back(
      std::make_unique<DeepMf>(graphs.n_users, graphs.n_items, 8, 2, &r2));
  models.push_back(std::make_unique<DiffNet>(graphs, dataset, 8, 2, &r3));
  models.push_back(std::make_unique<Eatnn>(graphs, 8, &r4));
  models.push_back(std::make_unique<LightGcn>(graphs, 8, 2, &r5));
  models.push_back(std::make_unique<Ngcf>(graphs, 8, 2, &r6));
  models.push_back(std::make_unique<Gbgcn>(graphs, 8, 2, &r7));
  ASSERT_EQ(models.size(), std::size(kPinned));

  for (size_t m = 0; m < models.size(); ++m) {
    RecModel* model = models[m].get();
    ASSERT_EQ(model->name(), kPinned[m].name);
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 32;
    config.negs_per_pos = 1;
    config.learning_rate = 0.02f;
    Trainer trainer(model, &sampler, config);
    trainer.Train();
    model->Refresh();
    uint32_t params = 0;
    for (const Var& p : model->Parameters()) params = CrcOf(p.value(), params);
    uint32_t score_a = 0;
    uint32_t score_b = 0;
    for (int64_t u : {0, 5, 9, 15}) {
      score_a = CrcOf(model->ScoreAAll(u).value(), score_a);
      score_b = CrcOf(model->ScoreBAll(u, u % graphs.n_items).value(),
                      score_b);
    }
    EXPECT_EQ(params, kPinned[m].params)
        << kPinned[m].name << " params 0x" << std::hex << params;
    EXPECT_EQ(score_a, kPinned[m].score_a_all)
        << kPinned[m].name << " ScoreAAll 0x" << std::hex << score_a;
    EXPECT_EQ(score_b, kPinned[m].score_b_all)
        << kPinned[m].name << " ScoreBAll 0x" << std::hex << score_b;
  }
}

}  // namespace
}  // namespace mgbr
