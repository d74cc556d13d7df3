#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "data/dataset.h"
#include "graph/gcn.h"
#include "graph/graph.h"
#include "models/graph_inputs.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::CheckGradients;

// ---------------------------------------------------------------------------
// CsrMatrix.
// ---------------------------------------------------------------------------

TEST(CsrMatrixTest, FromCooBasics) {
  CsrMatrix m = CsrMatrix::FromCoo(3, 4, {{0, 1, 2.0f}, {2, 3, 1.0f},
                                          {0, 0, 1.0f}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_FLOAT_EQ(m.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(2, 3), 1.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 0.0f);
}

TEST(CsrMatrixTest, DuplicatesSummed) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_FLOAT_EQ(m.At(0, 0), 3.5f);
  // In input order: 1e8 + 1 rounds back to 1e8, then -1e8 leaves 0;
  // cancelling the two large terms first would keep the 1.
  CsrMatrix ordered = CsrMatrix::FromCoo(
      2, 2, {{0, 0, 1e8f}, {1, 1, 5.0f}, {0, 0, 1.0f}, {0, 0, -1e8f}});
  EXPECT_EQ(ordered.nnz(), 2);
  EXPECT_EQ(ordered.At(0, 0), 0.0f);
  EXPECT_EQ(ordered.At(1, 1), 5.0f);
}

TEST(CsrMatrixTest, EmptyMatrix) {
  CsrMatrix m(3, 3);
  EXPECT_EQ(m.nnz(), 0);
  Tensor x = Tensor::Full(3, 2, 1.0f);
  Tensor y = m.Multiply(x);
  EXPECT_TRUE(AllClose(y, Tensor::Zeros(3, 2)));
}

TEST(CsrMatrixTest, IdentityMultiplyIsNoop) {
  CsrMatrix eye = CsrMatrix::Identity(4);
  Tensor x = Tensor::FromVector(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_TRUE(AllClose(eye.Multiply(x), x));
  EXPECT_TRUE(AllClose(eye.TransposeMultiply(x), x));
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  Rng rng(5);
  std::vector<Coo> entries;
  for (int i = 0; i < 20; ++i) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(5)),
                       static_cast<int64_t>(rng.UniformInt(6)),
                       static_cast<float>(rng.Gaussian())});
  }
  CsrMatrix m = CsrMatrix::FromCoo(5, 6, entries);
  Tensor dense = m.ToDense();
  Tensor x(6, 3);
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Gaussian());
  }
  Tensor got = m.Multiply(x);
  // Reference: dense matmul.
  Tensor want(5, 3);
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      double acc = 0.0;
      for (int64_t k = 0; k < 6; ++k) acc += dense.at(r, k) * x.at(k, c);
      want.at(r, c) = static_cast<float>(acc);
    }
  }
  EXPECT_TRUE(AllClose(got, want, 1e-4));
}

TEST(CsrMatrixTest, TransposeMultiplyMatchesDense) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 3, {{0, 1, 2.0f}, {1, 2, -1.0f}});
  Tensor x = Tensor::FromVector(2, 2, {1, 2, 3, 4});
  Tensor got = m.TransposeMultiply(x);  // (3x2)
  Tensor want = Tensor::FromVector(3, 2, {0, 0, 2, 4, -3, -4});
  EXPECT_TRUE(AllClose(got, want));
}

TEST(CsrMatrixTest, RowSums) {
  CsrMatrix m = CsrMatrix::FromCoo(3, 3, {{0, 1, 2.0f}, {0, 2, 3.0f},
                                          {2, 0, 1.0f}});
  auto sums = m.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 5.0);
  EXPECT_DOUBLE_EQ(sums[1], 0.0);
  EXPECT_DOUBLE_EQ(sums[2], 1.0);
}

TEST(CsrMatrixDeathTest, OutOfBoundsCooAborts) {
  EXPECT_DEATH(CsrMatrix::FromCoo(2, 2, {{2, 0, 1.0f}}), "out of bounds");
}

// ---------------------------------------------------------------------------
// GraphBuilder.
// ---------------------------------------------------------------------------

TEST(GraphBuilderTest, UserItemIsSymmetricBipartite) {
  GraphBuilder b(3, 2);
  b.AddLaunch(0, 1);
  b.AddLaunch(2, 0);
  b.AddLaunch(0, 1);  // duplicate collapses to weight 1
  CsrMatrix m = b.BuildUserItem();
  EXPECT_EQ(m.rows(), 5);
  EXPECT_FLOAT_EQ(m.At(0, 3 + 1), 1.0f);  // u0 - item1 (offset 3)
  EXPECT_FLOAT_EQ(m.At(3 + 1, 0), 1.0f);  // symmetric
  EXPECT_FLOAT_EQ(m.At(2, 3 + 0), 1.0f);
  EXPECT_EQ(m.nnz(), 4);
}

TEST(GraphBuilderTest, SocialViewSkipsSelfEdges) {
  GraphBuilder b(3, 1);
  b.AddSocial(0, 0);  // ignored
  b.AddSocial(0, 1);
  CsrMatrix m = b.BuildUserUser();
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(m.At(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(GraphBuilderTest, ViewsAreDisjointEdgeSets) {
  GraphBuilder b(2, 2);
  b.AddLaunch(0, 0);
  b.AddJoin(1, 1);
  CsrMatrix ui = b.BuildUserItem();
  CsrMatrix pi = b.BuildParticipantItem();
  EXPECT_FLOAT_EQ(ui.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(ui.At(1, 3), 0.0f);  // join not in UI view
  EXPECT_FLOAT_EQ(pi.At(1, 3), 1.0f);
  EXPECT_FLOAT_EQ(pi.At(0, 2), 0.0f);  // launch not in PI view
}

TEST(GraphBuilderTest, JointAndHinContainEverything) {
  GraphBuilder b(2, 2);
  b.AddLaunch(0, 0);
  b.AddJoin(1, 0);
  b.AddSocial(0, 1);
  const CsrMatrix ui = b.BuildUserItem();
  const CsrMatrix pi = b.BuildParticipantItem();
  const CsrMatrix up = b.BuildUserUser();
  CsrMatrix joint = UnionEdges(4, {&ui, &pi});
  EXPECT_FLOAT_EQ(joint.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(joint.At(1, 2), 1.0f);
  EXPECT_FLOAT_EQ(joint.At(0, 1), 0.0f);  // no social edge in joint UI
  CsrMatrix hin = UnionEdges(4, {&ui, &pi, &up});
  EXPECT_FLOAT_EQ(hin.At(0, 1), 1.0f);  // social edge present in HIN
  EXPECT_FLOAT_EQ(hin.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(hin.At(1, 2), 1.0f);
}

// ---------------------------------------------------------------------------
// NormalizeAdjacency.
// ---------------------------------------------------------------------------

TEST(NormalizeTest, RowSumsBoundedByOne) {
  // Â = D^{-1/2}(A+I)D^{-1/2} has spectral radius 1; for a regular
  // graph every row sums to exactly 1.
  GraphBuilder b(4, 0);
  b.AddSocial(0, 1);
  b.AddSocial(1, 2);
  b.AddSocial(2, 3);
  b.AddSocial(3, 0);  // 2-regular cycle
  CsrMatrix norm = NormalizeAdjacency(b.BuildUserUser());
  auto sums = norm.RowSums();
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-6);
}

TEST(NormalizeTest, IsolatedNodeGetsUnitSelfLoop) {
  CsrMatrix empty(3, 3);
  CsrMatrix norm = NormalizeAdjacency(empty);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(norm.At(i, i), 1.0f, 1e-6);
  }
  EXPECT_EQ(norm.nnz(), 3);
}

TEST(NormalizeTest, SymmetricOutput) {
  GraphBuilder b(3, 2);
  b.AddLaunch(0, 0);
  b.AddLaunch(0, 1);
  b.AddLaunch(2, 1);
  CsrMatrix norm = NormalizeAdjacency(b.BuildUserItem());
  for (int64_t r = 0; r < norm.rows(); ++r) {
    for (int64_t c = 0; c < norm.cols(); ++c) {
      EXPECT_NEAR(norm.At(r, c), norm.At(c, r), 1e-6);
    }
  }
}

TEST(NormalizeTest, KnownTwoNodeValues) {
  // Two nodes with one edge: degrees (with self loop) are 2, 2;
  // Â = [[1/2, 1/2], [1/2, 1/2]].
  CsrMatrix adj = CsrMatrix::FromCoo(2, 2, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  CsrMatrix norm = NormalizeAdjacency(adj);
  EXPECT_NEAR(norm.At(0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(norm.At(0, 1), 0.5f, 1e-6);
  EXPECT_NEAR(norm.At(1, 1), 0.5f, 1e-6);
}

TEST(NormalizeTest, DiagonalEntryAddsToSelfLoop) {
  // A = [[2, 1], [1, 0]]: degrees of A + I are 4 and 2, so
  // Â = [[3/4, 1/sqrt(8)], [1/sqrt(8), 1/2]].
  CsrMatrix adj = CsrMatrix::FromCoo(
      2, 2, {{0, 0, 2.0f}, {0, 1, 1.0f}, {1, 0, 1.0f}});
  CsrMatrix norm = NormalizeAdjacency(adj);
  EXPECT_EQ(norm.nnz(), 4);
  EXPECT_FLOAT_EQ(norm.At(0, 0), 0.75f);
  EXPECT_FLOAT_EQ(norm.At(0, 1), static_cast<float>(1.0 / std::sqrt(8.0)));
  EXPECT_FLOAT_EQ(norm.At(1, 0), static_cast<float>(1.0 / std::sqrt(8.0)));
  EXPECT_FLOAT_EQ(norm.At(1, 1), 0.5f);
}

// ---------------------------------------------------------------------------
// The five normalized views of a deal log.
// ---------------------------------------------------------------------------

/// Every normalized adjacency a model can read, by name.
std::vector<std::pair<std::string, SharedCsr>> FiveViews(
    const GraphInputs& g) {
  return {{"ui", g.a_ui},
          {"pi", g.a_pi},
          {"up", g.a_up},
          {"joint", BuildJointAdjacency(g)},
          {"hin", BuildHeterogeneousAdjacency(g)}};
}

template <typename T>
uint32_t CrcOf(const std::vector<T>& v) {
  return Crc32(v.data(), v.size() * sizeof(T));
}

TEST(GraphViewsPinTest, ArraysMatchRecordedChecksums) {
  // A CSR sorted by (row, col) without duplicates is canonical, so how
  // the views are built may change but not one byte of what they hold.
  // The checksums were recorded from the sort-based construction.
  struct Pinned {
    const char* name;
    uint32_t row_ptr, col_idx, values, transpose_multiply;
  };
  constexpr Pinned kPinned[] = {
      {"ui", 0x2C22EBA0u, 0x0F8ACE80u, 0xFCE9E42Cu, 0xB21F71DDu},
      {"pi", 0x779A2C68u, 0xA2A8E38Bu, 0xD5446178u, 0x87807EEAu},
      {"up", 0xDF35AD15u, 0x94272825u, 0xE8B4757Eu, 0xD56905E4u},
      {"joint", 0xCB79E5EFu, 0x7AFADF77u, 0xCFD4BF57u, 0x035A568Eu},
      {"hin", 0x0C29CACCu, 0x0C2BB083u, 0x5EEF4C8Au, 0x2F26B3D1u},
  };
  const GraphInputs graphs =
      BuildGraphInputs(mgbr::testing::TinyDataset(40, 15, 300, 11));
  const auto views = FiveViews(graphs);
  ASSERT_EQ(views.size(), std::size(kPinned));
  for (size_t v = 0; v < views.size(); ++v) {
    const auto& [name, m] = views[v];
    ASSERT_EQ(name, kPinned[v].name);
    // Exactly representable inputs: the product is fixed by the
    // matrix and the kernel's accumulation order alone.
    Tensor x(m->rows(), 3);
    for (int64_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = static_cast<float>((i * 37) % 101 - 50) / 64.0f;
    }
    const Tensor t = m->TransposeMultiply(x);
    EXPECT_EQ(CrcOf(m->row_ptr()), kPinned[v].row_ptr) << name;
    EXPECT_EQ(CrcOf(m->col_idx()), kPinned[v].col_idx) << name;
    EXPECT_EQ(CrcOf(m->values()), kPinned[v].values) << name;
    EXPECT_EQ(Crc32(t.data(), static_cast<size_t>(t.numel()) * sizeof(float)),
              kPinned[v].transpose_multiply)
        << name;
  }
}

TEST(GraphViewsOracleTest, NormalizedViewsMatchDenseOracle) {
  // 30 users, 10 items. User 29 and item 9 appear in no group. The log
  // repeats a launch (3 -> item 2), a join (5 -> item 2) and a social
  // pair (3, 5), and group {8, item 1} lists its initiator among its
  // participants.
  constexpr int64_t kUsers = 30;
  constexpr int64_t kItems = 10;
  std::vector<DealGroup> groups = {
      {3, 2, {5}}, {3, 2, {7}}, {3, 4, {5, 6}}, {8, 1, {8, 9}},
      {11, 2, {5}},
  };
  for (int64_t g = 0; g < 24; ++g) {
    DealGroup group;
    group.initiator = (g * 7 + 1) % 29;
    group.item = (g * 5 + 3) % 9;
    for (int64_t k = 0; k < g % 4; ++k) {
      group.participants.push_back((g * 11 + k * 13 + 2) % 29);
    }
    groups.push_back(std::move(group));
  }

  // Plain-loop transcription of Â = D^-1/2 (A + I) D^-1/2 in double,
  // from the raw log: node ids are users then items (offset kUsers);
  // the social view spans users only. Social edges link an initiator
  // to each distinct participant (no self edge); repeats collapse.
  const int64_t n_all = kUsers + kItems;
  auto dense_view = [&](int64_t n, bool launches, bool joins, bool social) {
    std::vector<std::vector<double>> a(static_cast<size_t>(n),
                                       std::vector<double>(n, 0.0));
    auto edge = [&](int64_t x, int64_t y) {
      a[static_cast<size_t>(x)][static_cast<size_t>(y)] = 1.0;
      a[static_cast<size_t>(y)][static_cast<size_t>(x)] = 1.0;
    };
    for (const DealGroup& g : groups) {
      if (launches) edge(g.initiator, kUsers + g.item);
      for (int64_t p : g.participants) {
        if (joins) edge(p, kUsers + g.item);
        if (social && p != g.initiator) edge(g.initiator, p);
      }
    }
    std::vector<double> degree(static_cast<size_t>(n), 1.0);
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t c = 0; c < n; ++c) {
        degree[static_cast<size_t>(r)] += a[static_cast<size_t>(r)][c];
      }
    }
    for (int64_t r = 0; r < n; ++r) {
      a[static_cast<size_t>(r)][static_cast<size_t>(r)] += 1.0;
      for (int64_t c = 0; c < n; ++c) {
        a[static_cast<size_t>(r)][static_cast<size_t>(c)] /=
            std::sqrt(degree[static_cast<size_t>(r)] *
                      degree[static_cast<size_t>(c)]);
      }
    }
    return a;
  };
  struct Expected {
    std::string name;
    std::vector<std::vector<double>> dense;
  };
  const std::vector<Expected> expected = {
      {"ui", dense_view(n_all, true, false, false)},
      {"pi", dense_view(n_all, false, true, false)},
      {"up", dense_view(kUsers, false, false, true)},
      {"joint", dense_view(n_all, true, true, false)},
      {"hin", dense_view(n_all, true, true, true)},
  };

  const GraphInputs graphs =
      BuildGraphInputs(GroupBuyingDataset(kUsers, kItems, groups));
  const auto views = FiveViews(graphs);
  ASSERT_EQ(views.size(), expected.size());
  for (size_t v = 0; v < views.size(); ++v) {
    const auto& [name, m] = views[v];
    const auto& dense = expected[v].dense;
    ASSERT_EQ(name, expected[v].name);
    ASSERT_EQ(m->rows(), static_cast<int64_t>(dense.size())) << name;
    ASSERT_EQ(m->cols(), static_cast<int64_t>(dense.size())) << name;
    int64_t oracle_nnz = 0;
    for (const auto& row : dense) {
      for (double x : row) oracle_nnz += x != 0.0 ? 1 : 0;
    }
    EXPECT_EQ(m->nnz(), oracle_nnz) << name;
    for (int64_t r = 0; r < m->rows(); ++r) {
      auto [begin, end] = m->RowRange(r);
      for (int64_t k = begin; k < end; ++k) {
        const int64_t c = m->col_idx()[static_cast<size_t>(k)];
        const double want =
            dense[static_cast<size_t>(r)][static_cast<size_t>(c)];
        ASSERT_NE(want, 0.0) << name << " stores (" << r << ", " << c << ")";
        EXPECT_NEAR(m->values()[static_cast<size_t>(k)], want,
                    1e-6 * std::fabs(want))
            << name << " (" << r << ", " << c << ")";
      }
    }
  }
  // The log's special cases reached the oracle as intended.
  EXPECT_EQ(expected[2].dense[29][29], 1.0);                  // user 29
  EXPECT_EQ(expected[0].dense[kUsers + 9][kUsers + 9], 1.0);  // item 9
  EXPECT_GT(expected[1].dense[8][kUsers + 1], 0.0);  // 8 joined its own
}

// ---------------------------------------------------------------------------
// SpMM + GCN.
// ---------------------------------------------------------------------------

TEST(SpMMTest, ForwardMatchesCsrMultiply) {
  auto a = MakeShared(CsrMatrix::FromCoo(3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f},
                                                {2, 2, 2.0f}}));
  Var x(Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6}), false);
  Tensor got = SpMM(a, x).value();
  EXPECT_TRUE(AllClose(got, a->Multiply(x.value())));
}

TEST(SpMMTest, GradientMatchesFiniteDifference) {
  auto a = MakeShared(CsrMatrix::FromCoo(
      4, 4, {{0, 1, 0.5f}, {1, 0, 0.5f}, {2, 3, 1.5f}, {3, 3, -1.0f}}));
  Rng rng(3);
  Tensor x0(4, 3);
  for (int64_t i = 0; i < x0.numel(); ++i) {
    x0.data()[i] = static_cast<float>(rng.Gaussian());
  }
  std::vector<Var> leaves = {Var(x0, true)};
  mgbr::testing::CheckGradients(
      leaves, [&] { return Sum(Square(SpMM(a, leaves[0]))); });
}

TEST(GcnStackTest, OutputShapeAndParams) {
  Rng rng(7);
  GcnStack stack(6, 4, 2, &rng);
  EXPECT_EQ(stack.n_nodes(), 6);
  EXPECT_EQ(stack.dim(), 4);
  auto a = MakeShared(NormalizeAdjacency(CsrMatrix(6, 6)));
  Var out = stack.Forward(a);
  EXPECT_EQ(out.rows(), 6);
  EXPECT_EQ(out.cols(), 4);
  // Params: X0 (6x4) + 2 layer weights (4x4).
  EXPECT_EQ(CountParameters(stack.Parameters()), 6 * 4 + 2 * 4 * 4);
}

TEST(GcnStackTest, PropagationMixesNeighbors) {
  // Node 0 and 1 connected; identity weights would mix their features.
  Rng rng(8);
  GcnStack stack(2, 2, 1, &rng, Activation::kNone);
  auto a = MakeShared(
      NormalizeAdjacency(CsrMatrix::FromCoo(2, 2, {{0, 1, 1.0f},
                                                   {1, 0, 1.0f}})));
  Var out = stack.Forward(a);
  // With Â = [[.5,.5],[.5,.5]], both output rows must be identical
  // (before weights they are the same mixture).
  EXPECT_NEAR(out.value().at(0, 0), out.value().at(1, 0), 1e-5);
  EXPECT_NEAR(out.value().at(0, 1), out.value().at(1, 1), 1e-5);
}

TEST(GcnStackTest, BackwardReachesEmbeddings) {
  Rng rng(9);
  GcnStack stack(3, 2, 2, &rng);
  auto a = MakeShared(NormalizeAdjacency(
      CsrMatrix::FromCoo(3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}})));
  Var loss = Sum(Square(stack.Forward(a)));
  loss.Backward();
  EXPECT_GT(stack.embeddings0().grad().Norm(), 0.0);
}

}  // namespace
}  // namespace mgbr
