// Tests for the sublinear top-K retrieval subsystem (src/retrieval/):
// the IVF-flat index's determinism contract (bit-identical construction
// across runs, thread counts and the SIMD toggle), its exactness when
// probing every list, the (score desc, id asc) tie rule shared with
// TopKIndices, and the two-stage ANN + exact-re-rank pipeline against
// the brute-force reference path.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/mgbr.h"
#include "eval/metrics.h"
#include "models/gbgcn.h"
#include "models/graph_inputs.h"
#include "retrieval/ivf_index.h"
#include "retrieval/two_stage.h"
#include "tensor/kernels.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::TinyDataset;
using retrieval::IvfConfig;
using retrieval::IvfIndex;
using retrieval::ItemRetriever;
using retrieval::RetrievalResult;
using retrieval::TwoStageConfig;
using retrieval::TwoStageTopK;

struct ScopedSimd {
  explicit ScopedSimd(bool on) : saved(kernels::SimdEnabled()) {
    kernels::SetSimdEnabled(on);
  }
  ~ScopedSimd() { kernels::SetSimdEnabled(saved); }
  bool saved;
};

/// Deterministic pseudo-random row set.
std::vector<float> RandomRows(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(n * d));
  for (float& v : data) v = static_cast<float>(rng.Gaussian());
  return data;
}

/// Exact inner-product scores of `query` against every row, through the
/// same kernels:: primitive the index uses (so equal-score ties in the
/// float domain are preserved exactly).
std::vector<double> ExactScores(const std::vector<float>& data, int64_t n,
                                int64_t d, const float* query) {
  std::vector<float> out(static_cast<size_t>(n), 0.0f);
  kernels::GemmRowsABt(query, data.data(), out.data(), 1, d, n);
  return std::vector<double>(out.begin(), out.end());
}

TEST(IvfIndexTest, BuildIsBitIdenticalAcrossRunsThreadsAndSimd) {
  const int64_t n = 300, d = 16;
  const std::vector<float> data = RandomRows(n, d, 42);
  IvfConfig config;
  config.nlist = 12;

  IvfIndex reference;
  {
    ScopedSimd simd(true);
    ScopedNumThreads threads(1);
    reference.Build(data.data(), n, d, config);
  }
  const struct {
    bool simd;
    int threads;
    const char* label;
  } variants[] = {
      {true, 1, "rebuild, same settings"},
      {true, 4, "4 threads"},
      {false, 1, "scalar dispatch"},
      {false, 4, "scalar dispatch, 4 threads"},
  };
  for (const auto& v : variants) {
    ScopedSimd simd(v.simd);
    ScopedNumThreads threads(v.threads);
    IvfIndex rebuilt;
    rebuilt.Build(data.data(), n, d, config);
    EXPECT_EQ(rebuilt.Fingerprint(), reference.Fingerprint()) << v.label;
  }
  // A different seed draws different initial centroids: the fingerprint
  // must be sensitive to the config, not just the data.
  IvfConfig other = config;
  other.seed = config.seed + 1;
  IvfIndex different;
  different.Build(data.data(), n, d, other);
  EXPECT_NE(different.Fingerprint(), reference.Fingerprint());
}

TEST(IvfIndexTest, ExhaustiveProbeEqualsExactTopK) {
  const int64_t n = 257, d = 12;
  const std::vector<float> data = RandomRows(n, d, 7);
  IvfConfig config;
  config.nlist = 10;
  IvfIndex index;
  index.Build(data.data(), n, d, config);

  Rng qrng(99);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<float> query(static_cast<size_t>(d));
    for (float& v : query) v = static_cast<float>(qrng.Gaussian());
    for (const int64_t k : {1, 5, 32}) {
      const std::vector<int64_t> got =
          index.Search(query.data(), k, /*nprobe=*/index.nlist());
      const std::vector<int64_t> want =
          TopKIndices(ExactScores(data, n, d, query.data()), k);
      EXPECT_EQ(got, want) << "trial " << trial << " k " << k;
    }
  }
}

TEST(IvfIndexTest, EqualScoreTiesSurfaceLowestIdFirst) {
  // Rows 3, 20 and 41 are identical — and dominate every other row's
  // inner product with the query by construction — so their scores tie
  // exactly and the (score desc, id asc) rule must order them 3 < 20
  // < 41 regardless of which inverted lists they landed in.
  const int64_t n = 64, d = 8;
  std::vector<float> data = RandomRows(n, d, 11);
  for (int64_t c = 0; c < d; ++c) data[static_cast<size_t>(3 * d + c)] = 4.0f;
  std::memcpy(data.data() + 20 * d, data.data() + 3 * d,
              sizeof(float) * static_cast<size_t>(d));
  std::memcpy(data.data() + 41 * d, data.data() + 3 * d,
              sizeof(float) * static_cast<size_t>(d));
  IvfConfig config;
  config.nlist = 6;
  IvfIndex index;
  index.Build(data.data(), n, d, config);

  // Query along the duplicated row: the three copies are the top three.
  const std::vector<int64_t> got =
      index.Search(data.data() + 3 * d, 3, index.nlist());
  EXPECT_EQ(got, (std::vector<int64_t>{3, 20, 41}));
}

TEST(IvfIndexTest, BoundedHeapMatchesMaterializedSortOnTies) {
  // Entries from {-1, 0, 1} over d = 4 give at most 81 distinct rows
  // among 500, and integer scores, so most scores tie exactly and the
  // id tiebreak decides which rows make the cut.
  const int64_t n = 500, d = 4;
  Rng rng(17);
  std::vector<float> data(static_cast<size_t>(n * d));
  for (float& v : data) v = static_cast<float>(rng.UniformInt(3)) - 1.0f;
  IvfConfig config;
  config.nlist = 16;
  IvfIndex index;
  index.Build(data.data(), n, d, config);

  for (int trial = 0; trial < 6; ++trial) {
    std::vector<float> query(static_cast<size_t>(d));
    for (float& v : query) v = static_cast<float>(rng.UniformInt(3)) - 1.0f;
    const std::vector<double> exact = ExactScores(data, n, d, query.data());
    for (const int64_t nprobe : {int64_t{1}, int64_t{3}, index.nlist()}) {
      // k = n keeps every row of the probed lists: the candidate set.
      const std::vector<int64_t> probed = index.Search(query.data(), n, nprobe);
      // Reference: materialize every (score, id) pair and partial_sort.
      std::vector<std::pair<float, int64_t>> cands;
      for (const int64_t id : probed) {
        cands.emplace_back(static_cast<float>(exact[static_cast<size_t>(id)]),
                           id);
      }
      for (const int64_t k : {1, 2, 7, 40, 600}) {
        const int64_t take =
            std::min<int64_t>(k, static_cast<int64_t>(cands.size()));
        auto ref = cands;
        std::partial_sort(ref.begin(), ref.begin() + take, ref.end(),
                          [](const auto& a, const auto& b) {
                            return a.first != b.first ? a.first > b.first
                                                      : a.second < b.second;
                          });
        std::vector<int64_t> want(static_cast<size_t>(take));
        for (int64_t i = 0; i < take; ++i) {
          want[static_cast<size_t>(i)] = ref[static_cast<size_t>(i)].second;
        }
        EXPECT_EQ(index.Search(query.data(), k, nprobe), want)
            << "trial " << trial << " nprobe " << nprobe << " k " << k;
      }
    }
  }
}

TEST(IvfIndexTest, ReturnsFewerIdsWhenProbedListsRunOut) {
  const int64_t n = 40, d = 4;
  const std::vector<float> data = RandomRows(n, d, 5);
  IvfConfig config;
  config.nlist = 8;
  IvfIndex index;
  index.Build(data.data(), n, d, config);
  const std::vector<float> query(static_cast<size_t>(d), 1.0f);
  // One probed list cannot hold more rows than the whole catalogue and
  // usually holds far fewer; asking for n ids must not fabricate any.
  const std::vector<int64_t> got = index.Search(query.data(), n, 1);
  EXPECT_LT(got.size(), static_cast<size_t>(n));
  EXPECT_FALSE(got.empty());
  // nprobe values beyond nlist clamp to exhaustive.
  EXPECT_EQ(index.Search(query.data(), 5, 1000),
            index.Search(query.data(), 5, index.nlist()));
}

// ---------------------------------------------------------------------------
// Two-stage pipeline against the brute-force reference.
// ---------------------------------------------------------------------------

class TwoStageTest : public ::testing::Test {
 protected:
  TwoStageTest()
      : dataset_(TinyDataset(12, 6, 40, 21)),
        graphs_(BuildGraphInputs(dataset_)) {}

  std::unique_ptr<Gbgcn> MakeGbgcn(uint64_t seed) const {
    Rng rng(seed);
    auto model = std::make_unique<Gbgcn>(graphs_, /*dim=*/8, /*n_layers=*/2,
                                         &rng);
    model->Refresh();
    return model;
  }

  /// Brute-force reference: TopKIndices over the full catalogue.
  static RetrievalResult BruteTopK(RecModel* model, int64_t u, int64_t k) {
    NoGradScope no_grad;
    const Var column = model->ScoreAAll(u);
    std::vector<double> scores(static_cast<size_t>(column.rows()));
    for (int64_t r = 0; r < column.rows(); ++r) {
      scores[static_cast<size_t>(r)] = column.value().at(r, 0);
    }
    RetrievalResult result;
    result.top_k = TopKIndices(scores, k);
    for (int64_t i : result.top_k) {
      result.scores.push_back(scores[static_cast<size_t>(i)]);
    }
    return result;
  }

  GroupBuyingDataset dataset_;
  GraphInputs graphs_;
};

TEST_F(TwoStageTest, BuildForReturnsNullWithoutARetrievalView) {
  // MGBR's MLP scoring head exposes no inner-product item view, so the
  // retriever must decline (and serving silently stays brute-force).
  MgbrConfig config = MgbrConfig::Variant("MGBR");
  config.dim = 4;
  config.n_experts = 2;
  Rng rng(3);
  MgbrModel mgbr(graphs_, config, &rng);
  mgbr.Refresh();
  EXPECT_EQ(ItemRetriever::BuildFor(mgbr, TwoStageConfig{}), nullptr);
  EXPECT_NE(ItemRetriever::BuildFor(*MakeGbgcn(4), TwoStageConfig{}),
            nullptr);
}

TEST_F(TwoStageTest, CandidatesAreSortedAscendingAndSizedByOverfetch) {
  std::unique_ptr<Gbgcn> model = MakeGbgcn(4);
  TwoStageConfig config;
  config.overfetch = 2;
  std::shared_ptr<const ItemRetriever> retriever =
      ItemRetriever::BuildFor(*model, config);
  ASSERT_NE(retriever, nullptr);
  const std::vector<int64_t> cands = retriever->Candidates(*model, 0, 5);
  EXPECT_LE(cands.size(), static_cast<size_t>(10));
  EXPECT_FALSE(cands.empty());
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LT(cands[i - 1], cands[i]) << "not ascending at " << i;
  }
}

TEST_F(TwoStageTest, ExhaustiveTwoStageEqualsBruteBitwise) {
  // nprobe >= nlist and k * overfetch >= catalogue: the candidate set
  // is the whole catalogue, so the exact re-rank must reproduce the
  // brute path bit for bit (ids and double scores).
  std::unique_ptr<Gbgcn> model = MakeGbgcn(4);
  TwoStageConfig config;
  config.nprobe = 1 << 20;
  config.overfetch = 64;  // 64 * k covers the 40-item catalogue
  std::shared_ptr<const ItemRetriever> retriever =
      ItemRetriever::BuildFor(*model, config);
  ASSERT_NE(retriever, nullptr);
  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    const RetrievalResult got = TwoStageTopK(model.get(), *retriever, u, 4);
    const RetrievalResult want = BruteTopK(model.get(), u, 4);
    EXPECT_EQ(got.top_k, want.top_k) << "user " << u;
    EXPECT_EQ(got.scores, want.scores) << "user " << u;
  }
}

TEST_F(TwoStageTest, DefaultConfigIsExactOnSmallCatalogues) {
  // With the defaults, nprobe (12) >= auto-nlist (ceil(sqrt(40)) = 7),
  // so small catalogues are searched exhaustively and the ANN path can
  // only differ from brute through a too-small candidate budget.
  std::unique_ptr<Gbgcn> model = MakeGbgcn(9);
  std::shared_ptr<const ItemRetriever> retriever =
      ItemRetriever::BuildFor(*model, TwoStageConfig{});
  ASSERT_NE(retriever, nullptr);
  for (int64_t u = 0; u < graphs_.n_users; ++u) {
    const RetrievalResult got = TwoStageTopK(model.get(), *retriever, u, 10);
    const RetrievalResult want = BruteTopK(model.get(), u, 10);
    EXPECT_EQ(got.top_k, want.top_k) << "user " << u;
    EXPECT_EQ(got.scores, want.scores) << "user " << u;
  }
}

TEST_F(TwoStageTest, RetrieverIsDeterministicPerModelVersion) {
  std::unique_ptr<Gbgcn> model = MakeGbgcn(4);
  const TwoStageConfig config;
  std::shared_ptr<const ItemRetriever> a =
      ItemRetriever::BuildFor(*model, config);
  std::shared_ptr<const ItemRetriever> b =
      ItemRetriever::BuildFor(*model, config);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  // Different parameters (a different "version") must re-index.
  std::unique_ptr<Gbgcn> other = MakeGbgcn(5);
  std::shared_ptr<const ItemRetriever> c =
      ItemRetriever::BuildFor(*other, config);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c->Fingerprint(), a->Fingerprint());
}

}  // namespace
}  // namespace mgbr
