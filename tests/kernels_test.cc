// Tests for the vectorized kernel layer (tensor/kernels.h) and the
// TensorArena recycling allocator (tensor/arena.h).
//
// Three kinds of guarantees are exercised:
//  1. Correctness: every kernel matches a naive double-precision
//     reference on odd shapes, zero-sized inputs are no-ops, and
//     writes stay inside the output block (guard bytes).
//  2. The determinism contract: simd:: and scalar:: variants produce
//     bit-identical outputs, and end-to-end MGBR training is
//     bit-identical across simd on/off, arena on/off and thread counts
//     {1, 2, 4, 8}.
//  3. Arena semantics: buffers are recycled (hits), always come back
//     zero-filled, honor Trim(), and keep honest byte accounting when
//     disabled.

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/mgbr.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "train/trainer.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::TinyDataset;

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   sizeof(float) * a.size()) == 0);
}

bool BitEqualT(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

/// Restores the SIMD dispatch flag on scope exit.
struct ScopedSimd {
  explicit ScopedSimd(bool on) : saved(kernels::SimdEnabled()) {
    kernels::SetSimdEnabled(on);
  }
  ~ScopedSimd() { kernels::SetSimdEnabled(saved); }
  bool saved;
};

/// Restores the arena switch on scope exit.
struct ScopedArena {
  explicit ScopedArena(bool on) : saved(TensorArena::Enabled()) {
    TensorArena::SetEnabled(on);
  }
  ~ScopedArena() { TensorArena::SetEnabled(saved); }
  bool saved;
};

// ---------------------------------------------------------------------------
// Dense GEMM kernels vs a naive double-precision reference.
// ---------------------------------------------------------------------------

struct GemmShape {
  int64_t m, k, n;
};

// Odd shapes straddle every tile boundary: the 4-row micro-tile, the
// 16-column register tile, the 8-lane dot product, and the 256/512
// cache blocks.
const GemmShape kShapes[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 16, 16}, {5, 17, 33},
    {8, 256, 20}, {2, 300, 18}, {7, 9, 65},  {13, 261, 37},
};

TEST(KernelsTest, GemmAbMatchesReferenceAndVariantsAgree) {
  for (const GemmShape& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, 1000 + s.m);
    const auto b = RandomVec(s.k * s.n, 2000 + s.n);
    auto c_init = RandomVec(s.m * s.n, 3000 + s.k);  // accumulate semantics
    auto c_simd = c_init, c_scalar = c_init;
    kernels::simd::GemmRowsAB(a.data(), b.data(), c_simd.data(), s.m, s.k,
                              s.n);
    kernels::scalar::GemmRowsAB(a.data(), b.data(), c_scalar.data(), s.m,
                                s.k, s.n);
    EXPECT_TRUE(BitEqual(c_simd, c_scalar))
        << "simd/scalar diverge at m=" << s.m << " k=" << s.k
        << " n=" << s.n;
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        double ref = c_init[static_cast<size_t>(i * s.n + j)];
        for (int64_t kk = 0; kk < s.k; ++kk) {
          ref += static_cast<double>(a[static_cast<size_t>(i * s.k + kk)]) *
                 b[static_cast<size_t>(kk * s.n + j)];
        }
        EXPECT_NEAR(c_simd[static_cast<size_t>(i * s.n + j)], ref,
                    1e-4 * std::max(1.0, std::fabs(ref)))
            << "m=" << s.m << " k=" << s.k << " n=" << s.n << " at (" << i
            << "," << j << ")";
      }
    }
  }
}

TEST(KernelsTest, GemmAtBMatchesReferenceAndVariantsAgree) {
  for (const GemmShape& s : kShapes) {
    // A is k x m (output rows are columns of A).
    const auto a = RandomVec(s.k * s.m, 1100 + s.m);
    const auto b = RandomVec(s.k * s.n, 2100 + s.n);
    auto c_init = RandomVec(s.m * s.n, 3100 + s.k);
    auto c_simd = c_init, c_scalar = c_init;
    kernels::simd::GemmRowsAtB(a.data(), s.m, 0, b.data(), c_simd.data(),
                               s.m, s.k, s.n);
    kernels::scalar::GemmRowsAtB(a.data(), s.m, 0, b.data(), c_scalar.data(),
                                 s.m, s.k, s.n);
    EXPECT_TRUE(BitEqual(c_simd, c_scalar));
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        double ref = c_init[static_cast<size_t>(i * s.n + j)];
        for (int64_t kk = 0; kk < s.k; ++kk) {
          ref += static_cast<double>(a[static_cast<size_t>(kk * s.m + i)]) *
                 b[static_cast<size_t>(kk * s.n + j)];
        }
        EXPECT_NEAR(c_simd[static_cast<size_t>(i * s.n + j)], ref,
                    1e-4 * std::max(1.0, std::fabs(ref)));
      }
    }
  }
}

TEST(KernelsTest, GemmAtBRowSplitMatchesWholeCall) {
  // Calling the kernel on [0, m) must equal the pair [0, s) + [s, m):
  // ParallelFor relies on this to chunk freely without changing bits.
  const int64_t m = 11, k = 37, n = 23;
  const auto a = RandomVec(k * m, 7);
  const auto b = RandomVec(k * n, 8);
  std::vector<float> whole(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> split(static_cast<size_t>(m * n), 0.0f);
  kernels::simd::GemmRowsAtB(a.data(), m, 0, b.data(), whole.data(), m, k, n);
  const int64_t s = 5;
  kernels::simd::GemmRowsAtB(a.data(), m, 0, b.data(), split.data(), s, k, n);
  kernels::simd::GemmRowsAtB(a.data(), m, s, b.data(), split.data() + s * n,
                             m - s, k, n);
  EXPECT_TRUE(BitEqual(whole, split));
}

TEST(KernelsTest, GemmAbWidePackedPanelsMatchReferenceAndVariantsAgree) {
  // n > 512 engages the B-panel packing path in BlockedAxB. Shapes
  // straddle the pack boundary (513), a partial second jc block (520)
  // and a k crossing the kKc=256 cache block with a multi-block n.
  const GemmShape wide[] = {{3, 300, 520}, {5, 17, 513}, {4, 260, 1029}};
  for (const GemmShape& s : wide) {
    const auto a = RandomVec(s.m * s.k, 1300 + s.m);
    const auto b = RandomVec(s.k * s.n, 2300 + s.n);
    auto c_init = RandomVec(s.m * s.n, 3300 + s.k);
    auto c_simd = c_init, c_scalar = c_init;
    kernels::simd::GemmRowsAB(a.data(), b.data(), c_simd.data(), s.m, s.k,
                              s.n);
    kernels::scalar::GemmRowsAB(a.data(), b.data(), c_scalar.data(), s.m,
                                s.k, s.n);
    EXPECT_TRUE(BitEqual(c_simd, c_scalar))
        << "simd/scalar diverge at m=" << s.m << " k=" << s.k
        << " n=" << s.n;
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        double ref = c_init[static_cast<size_t>(i * s.n + j)];
        for (int64_t kk = 0; kk < s.k; ++kk) {
          ref += static_cast<double>(a[static_cast<size_t>(i * s.k + kk)]) *
                 b[static_cast<size_t>(kk * s.n + j)];
        }
        EXPECT_NEAR(c_simd[static_cast<size_t>(i * s.n + j)], ref,
                    1e-4 * std::max(1.0, std::fabs(ref)))
            << "m=" << s.m << " k=" << s.k << " n=" << s.n << " at (" << i
            << "," << j << ")";
      }
    }
    // GemmRowsAtB shares BlockedAxB and therefore the packing path.
    const auto at = RandomVec(s.k * s.m, 1400 + s.m);
    auto ct_simd = c_init, ct_scalar = c_init;
    kernels::simd::GemmRowsAtB(at.data(), s.m, 0, b.data(), ct_simd.data(),
                               s.m, s.k, s.n);
    kernels::scalar::GemmRowsAtB(at.data(), s.m, 0, b.data(),
                                 ct_scalar.data(), s.m, s.k, s.n);
    EXPECT_TRUE(BitEqual(ct_simd, ct_scalar))
        << "AtB simd/scalar diverge at m=" << s.m << " k=" << s.k
        << " n=" << s.n;
  }
}

TEST(KernelsTest, GemmAbPackedPanelIsAPureRelayout) {
  // Strongest form of the packing contract: for the SAME (kc, jc)
  // block, the packed run (wide n, panels copied to stride nc) must be
  // BITWISE equal to an unpacked run over a B holding just that block
  // (n = 512, below the packing threshold) — the micro-kernel consumes
  // identical values in an identical order either way.
  const int64_t m = 6, k = 300, n_wide = 520, n_block = 512;
  const auto a = RandomVec(m * k, 41);
  const auto b = RandomVec(k * n_wide, 42);
  // B_sub = first 512 columns of B, re-laid out with stride 512.
  std::vector<float> b_sub(static_cast<size_t>(k * n_block));
  for (int64_t kk = 0; kk < k; ++kk) {
    std::memcpy(b_sub.data() + kk * n_block, b.data() + kk * n_wide,
                static_cast<size_t>(n_block) * sizeof(float));
  }
  std::vector<float> c_wide(static_cast<size_t>(m * n_wide), 0.0f);
  std::vector<float> c_block(static_cast<size_t>(m * n_block), 0.0f);
  kernels::simd::GemmRowsAB(a.data(), b.data(), c_wide.data(), m, k, n_wide);
  kernels::simd::GemmRowsAB(a.data(), b_sub.data(), c_block.data(), m, k,
                            n_block);
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(std::memcmp(c_wide.data() + i * n_wide,
                          c_block.data() + i * n_block,
                          static_cast<size_t>(n_block) * sizeof(float)),
              0)
        << "packed vs unpacked bytes differ in row " << i;
  }
}

TEST(KernelsTest, GemmABtMatchesReferenceAndVariantsAgree) {
  // k values cover the fixed-lane reduction edge cases: below one lane
  // group, exactly one, tails of every length, and multi-block. n
  // values cover the kJcABt=128 j-tiling: below one block, exactly
  // one, a partial second block, and a multi-block tail.
  for (int64_t k : {1, 5, 8, 13, 16, 261}) {
    for (int64_t n : {9, 127, 128, 131, 257}) {
      const int64_t m = 7;
      const auto a = RandomVec(m * k, 1200 + k);
      const auto b = RandomVec(n * k, 2200 + 7 * n + k);
      auto c_init = RandomVec(m * n, 3200 + 11 * n + k);
      auto c_simd = c_init, c_scalar = c_init;
      kernels::simd::GemmRowsABt(a.data(), b.data(), c_simd.data(), m, k, n);
      kernels::scalar::GemmRowsABt(a.data(), b.data(), c_scalar.data(), m, k,
                                   n);
      EXPECT_TRUE(BitEqual(c_simd, c_scalar)) << "k=" << k << " n=" << n;
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          double ref = c_init[static_cast<size_t>(i * n + j)];
          for (int64_t kk = 0; kk < k; ++kk) {
            ref += static_cast<double>(a[static_cast<size_t>(i * k + kk)]) *
                   b[static_cast<size_t>(j * k + kk)];
          }
          EXPECT_NEAR(c_simd[static_cast<size_t>(i * n + j)], ref,
                      1e-4 * std::max(1.0, std::fabs(ref)))
              << "k=" << k << " n=" << n << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(KernelsTest, ZeroSizedGemmIsANoop) {
  std::vector<float> c(4, 42.0f);
  const float dummy = 0.0f;
  kernels::GemmRowsAB(&dummy, &dummy, c.data(), 0, 3, 2);
  kernels::GemmRowsAB(&dummy, &dummy, c.data(), 2, 0, 2);
  kernels::GemmRowsABt(&dummy, &dummy, c.data(), 0, 3, 2);
  kernels::GemmRowsAtB(&dummy, 1, 0, &dummy, c.data(), 0, 3, 1);
  kernels::SpmmRows(nullptr, nullptr, nullptr, nullptr, c.data(), 0, 0, 2);
  kernels::AddInPlace(c.data(), &dummy, 0);
  kernels::ScaleInPlace(c.data(), 0.5f, 0);
  for (float v : c) EXPECT_EQ(v, 42.0f);
}

TEST(KernelsTest, GemmWritesStayInsideOutputBlock) {
  // Guard words around C must survive every kernel (catches tile
  // overruns on odd shapes).
  const int64_t m = 5, k = 17, n = 19;
  const auto a = RandomVec(m * k, 31);
  const auto b = RandomVec(k * n, 32);
  const int64_t guard = 64;
  std::vector<float> buf(static_cast<size_t>(m * n + 2 * guard), -7.5f);
  float* c = buf.data() + guard;
  std::fill(c, c + m * n, 0.0f);
  kernels::simd::GemmRowsAB(a.data(), b.data(), c, m, k, n);
  kernels::simd::GemmRowsABt(a.data(), b.data(), c, m, k, /*n=*/5);
  for (int64_t i = 0; i < guard; ++i) {
    EXPECT_EQ(buf[static_cast<size_t>(i)], -7.5f);
    EXPECT_EQ(buf[static_cast<size_t>(guard + m * n + i)], -7.5f);
  }
}

// ---------------------------------------------------------------------------
// SpMM kernel.
// ---------------------------------------------------------------------------

TEST(KernelsTest, SpmmMatchesReferenceAndVariantsAgree) {
  const int64_t rows = 23, cols = 17, d = 11;
  Rng rng(41);
  // Simple CSR: ~4 entries per row.
  std::vector<int64_t> row_ptr = {0};
  std::vector<int64_t> col_idx;
  std::vector<float> values;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t cnt = static_cast<int64_t>(rng.UniformInt(5));
    for (int64_t e = 0; e < cnt; ++e) {
      col_idx.push_back(static_cast<int64_t>(rng.UniformInt(cols)));
      values.push_back(static_cast<float>(rng.Uniform(-1.0, 1.0)));
    }
    row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
  }
  const auto x = RandomVec(cols * d, 43);
  std::vector<float> out_simd(static_cast<size_t>(rows * d), 0.0f);
  auto out_scalar = out_simd;
  kernels::simd::SpmmRows(row_ptr.data(), col_idx.data(), values.data(),
                          x.data(), out_simd.data(), 0, rows, d);
  kernels::scalar::SpmmRows(row_ptr.data(), col_idx.data(), values.data(),
                            x.data(), out_scalar.data(), 0, rows, d);
  EXPECT_TRUE(BitEqual(out_simd, out_scalar));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < d; ++j) {
      double ref = 0.0;
      for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
        ref += static_cast<double>(values[static_cast<size_t>(e)]) *
               x[static_cast<size_t>(col_idx[static_cast<size_t>(e)] * d + j)];
      }
      EXPECT_NEAR(out_simd[static_cast<size_t>(r * d + j)], ref, 1e-4);
    }
  }
}

// ---------------------------------------------------------------------------
// Row-dot kernel.
// ---------------------------------------------------------------------------

/// The column RowSum(Mul(a, b)) computes: the composition DotRows
/// replaced behind RowDot and DotAllRows.
std::vector<float> RowSumOfMul(const Tensor& a, const Tensor& b) {
  const Var col = RowSum(Mul(Var(a), Var(b)));
  return std::vector<float>(col.value().data(),
                            col.value().data() + col.value().numel());
}

TEST(KernelsTest, DotRowsMatchesRowSumOfMulAndVariantsAgree) {
  const int64_t rows = 37;
  for (const int64_t d : {1, 7, 8, 16, 33}) {
    const auto a = RandomVec(rows * d, 70 + static_cast<uint64_t>(d));
    const auto b = RandomVec(rows * d, 90 + static_cast<uint64_t>(d));
    // a_stride d pairs row r of a with row r of b; 0 scores a's first
    // row against every row of b.
    for (const int64_t a_stride : {d, int64_t{0}}) {
      Tensor a_rows(rows, d);
      for (int64_t r = 0; r < rows; ++r) {
        std::memcpy(a_rows.data() + r * d, a.data() + r * a_stride,
                    sizeof(float) * static_cast<size_t>(d));
      }
      const std::vector<float> want =
          RowSumOfMul(a_rows, Tensor::FromVector(rows, d, b));
      std::vector<float> got_simd(static_cast<size_t>(rows), 0.0f);
      auto got_scalar = got_simd;
      auto got_split = got_simd;
      kernels::simd::DotRows(a.data(), a_stride, b.data(), got_simd.data(), 0,
                             rows, d);
      kernels::scalar::DotRows(a.data(), a_stride, b.data(),
                               got_scalar.data(), 0, rows, d);
      // Two calls over a split row range write the same rows.
      kernels::simd::DotRows(a.data(), a_stride, b.data(), got_split.data(), 0,
                             13, d);
      kernels::scalar::DotRows(a.data(), a_stride, b.data(),
                               got_split.data(), 13, rows, d);
      EXPECT_TRUE(BitEqual(got_simd, want)) << "d=" << d << " s=" << a_stride;
      EXPECT_TRUE(BitEqual(got_scalar, want))
          << "d=" << d << " s=" << a_stride;
      EXPECT_TRUE(BitEqual(got_split, want)) << "d=" << d << " s=" << a_stride;
    }
  }
}

TEST(KernelsTest, RowDotVarMatchesUnfusedCompositionBitwise) {
  // Values and both gradients, for two leaves, for two gathers of one
  // table (EATNN's Task B: the table's gradient gets a's share, then
  // b's), and for one Var on both sides.
  Rng rng(63);
  Var left(GaussianInit(9, 7, &rng), true);
  Var right(GaussianInit(9, 7, &rng), true);
  Var table(GaussianInit(6, 7, &rng), true);
  const std::vector<int64_t> gather_a = {0, 3, 3, 5, 1, 0, 2, 4, 5};
  const std::vector<int64_t> gather_b = {3, 0, 5, 5, 2, 1, 0, 3, 4};
  using Head = Var (*)(const Var&, const Var&);
  const Head fused = RowDot;
  const Head unfused = [](const Var& a, const Var& b) {
    return RowSum(Mul(a, b));
  };
  const std::function<Var(Head)> cases[] = {
      [&](Head head) { return head(left, right); },
      [&](Head head) {
        return head(Rows(table, gather_a), Rows(table, gather_b));
      },
      [&](Head head) { return head(left, left); },
  };
  for (size_t c = 0; c < std::size(cases); ++c) {
    std::vector<Tensor> values;
    std::vector<std::vector<Tensor>> grads;
    for (const Head head : {fused, unfused}) {
      for (Var* leaf : {&left, &right, &table}) leaf->ZeroGrad();
      const Var scores = cases[c](head);
      // A per-row upstream gradient, so every row's g differs.
      Mean(LogSigmoid(scores)).Backward();
      values.push_back(scores.value());
      grads.push_back({left.grad(), right.grad(), table.grad()});
    }
    EXPECT_TRUE(BitEqualT(values[0], values[1])) << "case " << c;
    for (size_t l = 0; l < grads[0].size(); ++l) {
      EXPECT_TRUE(BitEqualT(grads[0][l], grads[1][l]))
          << "case " << c << " leaf " << l;
    }
  }
}

TEST(KernelsTest, DotAllRowsMatchesBroadcastComposition) {
  Rng rng(64);
  const Var source(GaussianInit(5, 16, &rng));
  const Var table(GaussianInit(301, 16, &rng));
  NoGradScope no_grad;
  for (int64_t row = 0; row < source.rows(); ++row) {
    const Var got = DotAllRows(source, row, table);
    const Var query = BroadcastRow(Rows(source, {row}), table.rows());
    const Var want = RowSum(Mul(query, table));
    EXPECT_FALSE(got.requires_grad());
    EXPECT_TRUE(BitEqualT(got.value(), want.value())) << "row " << row;
  }
}

// ---------------------------------------------------------------------------
// Fused bias + activation.
// ---------------------------------------------------------------------------

TEST(KernelsTest, BiasActForwardMatchesUnfusedAndAliases) {
  const int64_t rows = 6, cols = 13;
  const auto x = RandomVec(rows * cols, 51);
  const auto bias = RandomVec(cols, 52);
  for (kernels::Act act : {kernels::Act::kNone, kernels::Act::kRelu,
                           kernels::Act::kSigmoid, kernels::Act::kTanh}) {
    std::vector<float> y(static_cast<size_t>(rows * cols), 0.0f);
    auto y_scalar = y;
    kernels::simd::BiasActForward(act, x.data(), bias.data(), y.data(), rows,
                                  cols);
    kernels::scalar::BiasActForward(act, x.data(), bias.data(),
                                    y_scalar.data(), rows, cols);
    EXPECT_TRUE(BitEqual(y, y_scalar));
    // In-place (y aliases x) must give the same answer.
    auto inplace = x;
    kernels::simd::BiasActForward(act, inplace.data(), bias.data(),
                                  inplace.data(), rows, cols);
    EXPECT_TRUE(BitEqual(y, inplace));
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        const float pre = x[static_cast<size_t>(r * cols + c)] +
                          bias[static_cast<size_t>(c)];
        float want = pre;
        switch (act) {
          case kernels::Act::kNone:
            break;
          case kernels::Act::kRelu:
            want = pre > 0.0f ? pre : 0.0f;
            break;
          case kernels::Act::kSigmoid:
            want = 1.0f / (1.0f + std::exp(-pre));
            break;
          case kernels::Act::kTanh:
            want = std::tanh(pre);
            break;
        }
        EXPECT_NEAR(y[static_cast<size_t>(r * cols + c)], want, 1e-6);
      }
    }
  }
}

TEST(KernelsTest, FusedBiasActVarMatchesUnfusedComposition) {
  Rng rng(61);
  Var x(GaussianInit(9, 7, &rng), true);
  Var bias(GaussianInit(1, 7, &rng), true);
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kSigmoid, Activation::kTanh}) {
    Var fused = BiasAct(x, bias, act);
    Var unfused = ApplyActivation(AddRowBroadcast(x, bias), act);
    EXPECT_TRUE(AllClose(fused.value(), unfused.value(), 1e-6));
  }
}

TEST(KernelsTest, DispatchFollowsRuntimeFlag) {
  ScopedSimd off(false);
  EXPECT_FALSE(kernels::SimdEnabled());
  kernels::SetSimdEnabled(true);
  EXPECT_TRUE(kernels::SimdEnabled());
}

// ---------------------------------------------------------------------------
// TensorArena.
// ---------------------------------------------------------------------------

TEST(ArenaTest, RecyclesBuffersAndZeroFills) {
  ScopedArena on(true);
  TensorArena& arena = TensorArena::Global();
  arena.ResetStats();
  auto buf = arena.Acquire(100);
  ASSERT_EQ(buf.size(), 100u);
  std::fill(buf.begin(), buf.end(), 3.25f);  // dirty it
  const float* old_data = buf.data();
  arena.Release(std::move(buf));
  auto again = arena.Acquire(90);  // same pow2 bucket (128 floats)
  EXPECT_EQ(again.data(), old_data);  // recycled, not reallocated
  for (float v : again) EXPECT_EQ(v, 0.0f);
  const auto stats = arena.GetStats();
  EXPECT_GE(stats.hits, 1);
  arena.Release(std::move(again));
}

TEST(ArenaTest, TensorBuffersComeBackZeroed) {
  ScopedArena on(true);
  for (int round = 0; round < 3; ++round) {
    Tensor t(17, 19);
    for (int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_EQ(t.data()[i], 0.0f) << "round " << round << " elem " << i;
    }
    t.Fill(9.5f);  // dirty before release
  }
}

TEST(ArenaTest, StatsTrackInUseAndHighWater) {
  ScopedArena on(true);
  TensorArena& arena = TensorArena::Global();
  arena.Trim();
  arena.ResetStats();
  const auto before = arena.GetStats();
  {
    Tensor t(64, 64);  // 16 KiB exactly (one bucket)
    const auto during = arena.GetStats();
    EXPECT_GE(during.bytes_in_use, before.bytes_in_use + 16384);
    EXPECT_GE(during.high_water_bytes, during.bytes_in_use);
  }
  const auto after = arena.GetStats();
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
  EXPECT_GE(after.bytes_cached, 16384);
  arena.Trim();
  EXPECT_EQ(arena.GetStats().bytes_cached, 0);
}

TEST(ArenaTest, DisabledModeKeepsHonestAccounting) {
  ScopedArena off(false);
  TensorArena& arena = TensorArena::Global();
  const auto before = arena.GetStats();
  {
    Tensor t(32, 32);
    EXPECT_GT(arena.GetStats().bytes_in_use, before.bytes_in_use);
  }
  EXPECT_EQ(arena.GetStats().bytes_in_use, before.bytes_in_use);
  // Nothing got parked while disabled.
  EXPECT_EQ(arena.GetStats().bytes_cached, before.bytes_cached);
}

TEST(ArenaTest, CopySemanticsSurviveRecycling) {
  ScopedArena on(true);
  Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = a;                  // copy
  Tensor c = Tensor::Zeros(2, 3);
  c = a;                         // copy-assign
  Tensor d = std::move(b);       // move
  EXPECT_TRUE(BitEqualT(a, c));
  EXPECT_TRUE(BitEqualT(a, d));
  EXPECT_EQ(b.numel(), 0);  // NOLINT(bugprone-use-after-move): spec'd empty
  a.Fill(0.0f);
  EXPECT_EQ(d.at(1, 2), 6.0f);  // d owns its own buffer
}

// ---------------------------------------------------------------------------
// End-to-end determinism: simd on/off x arena on/off x thread count.
// ---------------------------------------------------------------------------

std::vector<Tensor> TrainMgbrParams(bool simd_on, bool arena_on,
                                    int threads) {
  ScopedSimd simd(simd_on);
  ScopedArena arena(arena_on);
  ScopedNumThreads scoped(threads);
  GroupBuyingDataset dataset = TinyDataset(12, 6, 60, 55);
  InteractionIndex index(dataset);
  TrainingSampler sampler(dataset, &index);
  GraphInputs graphs = BuildGraphInputs(dataset);
  MgbrConfig mc;
  mc.dim = 4;
  mc.n_experts = 2;
  mc.aux_negatives = 2;
  Rng rng(2);
  MgbrModel model(graphs, mc, &rng);
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 64;
  config.negs_per_pos = 1;
  config.aux_batch_size = 8;
  config.learning_rate = 0.01f;
  Trainer trainer(&model, &sampler, config);
  trainer.Train();
  std::vector<Tensor> params;
  for (const Var& p : model.Parameters()) params.push_back(p.value());
  return params;
}

TEST(EngineDeterminismTest, TrainingBitIdenticalAcrossSimdArenaThreads) {
  const std::vector<Tensor> base = TrainMgbrParams(true, true, 1);
  ASSERT_FALSE(base.empty());
  const struct {
    bool simd, arena;
    int threads;
    const char* label;
  } variants[] = {
      {false, true, 1, "scalar dispatch"},
      {true, false, 1, "arena off"},
      {false, false, 1, "scalar + arena off"},
      {true, true, 2, "2 threads"},
      {true, true, 4, "4 threads"},
      {true, true, 8, "8 threads"},
  };
  for (const auto& v : variants) {
    const std::vector<Tensor> got =
        TrainMgbrParams(v.simd, v.arena, v.threads);
    ASSERT_EQ(got.size(), base.size()) << v.label;
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_TRUE(BitEqualT(base[i], got[i]))
          << "parameter " << i << " diverged under " << v.label;
    }
  }
}

}  // namespace
}  // namespace mgbr
