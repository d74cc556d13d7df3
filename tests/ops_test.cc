#include "tensor/ops.h"

#include <cmath>

#include "common/rng.h"

#include <gtest/gtest.h>

namespace mgbr {
namespace {

Var V(std::vector<float> values, int64_t rows, int64_t cols,
      bool grad = false) {
  return Var(Tensor::FromVector(rows, cols, values), grad);
}

TEST(OpsTest, AddSubMulDiv) {
  Var a = V({1, 2, 3, 4}, 2, 2);
  Var b = V({4, 3, 2, 1}, 2, 2);
  EXPECT_TRUE(AllClose(Add(a, b).value(), Tensor::Full(2, 2, 5.0f)));
  EXPECT_TRUE(AllClose(Sub(a, b).value(),
                       Tensor::FromVector(2, 2, {-3, -1, 1, 3})));
  EXPECT_TRUE(AllClose(Mul(a, b).value(),
                       Tensor::FromVector(2, 2, {4, 6, 6, 4})));
}

TEST(OpsTest, ScalarOps) {
  Var a = V({1, 2}, 1, 2);
  EXPECT_TRUE(AllClose(AddScalar(a, 1.5f).value(),
                       Tensor::FromVector(1, 2, {2.5f, 3.5f})));
  EXPECT_TRUE(AllClose(MulScalar(a, -2.0f).value(),
                       Tensor::FromVector(1, 2, {-2, -4})));
  EXPECT_TRUE(AllClose(Neg(a).value(), Tensor::FromVector(1, 2, {-1, -2})));
}

TEST(OpsTest, AddRowBroadcast) {
  Var a = V({1, 2, 3, 4}, 2, 2);
  Var row = V({10, 20}, 1, 2);
  EXPECT_TRUE(AllClose(AddRowBroadcast(a, row).value(),
                       Tensor::FromVector(2, 2, {11, 22, 13, 24})));
}

TEST(OpsTest, MulColBroadcast) {
  Var a = V({1, 2, 3, 4}, 2, 2);
  Var col = V({2, -1}, 2, 1);
  EXPECT_TRUE(AllClose(MulColBroadcast(a, col).value(),
                       Tensor::FromVector(2, 2, {2, 4, -3, -4})));
}

TEST(OpsTest, BroadcastRow) {
  Var row = V({1, 2}, 1, 2);
  EXPECT_TRUE(AllClose(BroadcastRow(row, 3).value(),
                       Tensor::FromVector(3, 2, {1, 2, 1, 2, 1, 2})));
}

TEST(OpsTest, MatMulKnownProduct) {
  Var a = V({1, 2, 3, 4, 5, 6}, 2, 3);
  Var b = V({7, 8, 9, 10, 11, 12}, 3, 2);
  EXPECT_TRUE(AllClose(MatMul(a, b).value(),
                       Tensor::FromVector(2, 2, {58, 64, 139, 154})));
}

TEST(OpsTest, MatMulIdentity) {
  Var a = V({1, 2, 3, 4}, 2, 2);
  Var eye = V({1, 0, 0, 1}, 2, 2);
  EXPECT_TRUE(AllClose(MatMul(a, eye).value(), a.value()));
}

TEST(OpsTest, Transpose) {
  Var a = V({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_TRUE(AllClose(Transpose(a).value(),
                       Tensor::FromVector(3, 2, {1, 4, 2, 5, 3, 6})));
}

TEST(OpsTest, ConcatCols) {
  Var a = V({1, 2}, 2, 1);
  Var b = V({3, 4, 5, 6}, 2, 2);
  EXPECT_TRUE(AllClose(ConcatCols({a, b}).value(),
                       Tensor::FromVector(2, 3, {1, 3, 4, 2, 5, 6})));
}

TEST(OpsTest, SliceColsAndRows) {
  Var a = V({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_TRUE(AllClose(SliceCols(a, 1, 2).value(),
                       Tensor::FromVector(2, 2, {2, 3, 5, 6})));
  EXPECT_TRUE(AllClose(SliceRows(a, 1, 1).value(),
                       Tensor::FromVector(1, 3, {4, 5, 6})));
}

TEST(OpsTest, Reshape) {
  Var a = V({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor r = Reshape(a, 3, 2).value();
  EXPECT_TRUE(AllClose(r, Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6})));
}

TEST(OpsTest, RowsGather) {
  Var a = V({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor g = Rows(a, {2, 0, 2}).value();
  EXPECT_TRUE(AllClose(g, Tensor::FromVector(3, 2, {5, 6, 1, 2, 5, 6})));
}

TEST(OpsTest, UnaryValues) {
  Var a = V({0.0f, 1.0f, -1.0f}, 1, 3);
  Tensor sig = Sigmoid(a).value();
  EXPECT_NEAR(sig.at(0, 0), 0.5, 1e-6);
  EXPECT_NEAR(sig.at(0, 1), 1.0 / (1.0 + std::exp(-1.0)), 1e-6);
  Tensor th = Tanh(a).value();
  EXPECT_NEAR(th.at(0, 1), std::tanh(1.0), 1e-6);
  Tensor re = Relu(a).value();
  EXPECT_FLOAT_EQ(re.at(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(re.at(0, 1), 1.0f);
  Tensor lre = LeakyRelu(a, 0.1f).value();
  EXPECT_FLOAT_EQ(lre.at(0, 2), -0.1f);
}

TEST(OpsTest, ExpLogSquare) {
  Var a = V({1.0f, 2.0f}, 1, 2);
  EXPECT_NEAR(Log(a).value().at(0, 1), std::log(2.0), 1e-6);
  EXPECT_FLOAT_EQ(Square(a).value().at(0, 1), 4.0f);
}

TEST(OpsTest, LogSigmoidStable) {
  Var a = V({-100.0f, 0.0f, 100.0f}, 1, 3);
  Tensor ls = LogSigmoid(a).value();
  EXPECT_NEAR(ls.at(0, 0), -100.0, 1e-4);
  EXPECT_NEAR(ls.at(0, 1), std::log(0.5), 1e-6);
  EXPECT_NEAR(ls.at(0, 2), 0.0, 1e-6);
}

TEST(OpsTest, Reductions) {
  Var a = V({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_FLOAT_EQ(Sum(a).value().item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).value().item(), 3.5f);
  EXPECT_TRUE(AllClose(RowSum(a).value(), Tensor::FromVector(2, 1, {6, 15})));
  EXPECT_TRUE(AllClose(SumOverRows(a).value(),
                       Tensor::FromVector(1, 3, {5, 7, 9})));
  EXPECT_TRUE(AllClose(MeanOverRows(a).value(),
                       Tensor::FromVector(1, 3, {2.5f, 3.5f, 4.5f})));
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Var a = V({1, 2, 3, -1, 0, 1}, 2, 3);
  Tensor s = RowSoftmax(a).value();
  for (int64_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_GT(s.at(r, c), 0.0f);
      total += s.at(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
  // Monotone in the logits.
  EXPECT_LT(s.at(0, 0), s.at(0, 1));
  EXPECT_LT(s.at(0, 1), s.at(0, 2));
}

TEST(OpsTest, RowSoftmaxHandlesLargeLogits) {
  Var a = V({1000.0f, 1001.0f}, 1, 2);
  Tensor s = RowSoftmax(a).value();
  EXPECT_TRUE(std::isfinite(s.at(0, 0)));
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1), 1.0, 1e-6);
}

TEST(OpsTest, BlockMixForward) {
  // blocks: row 0 = [1,2 | 3,4], weights [0.5, 2] => [0.5*1+2*3, 0.5*2+2*4].
  Var blocks = V({1, 2, 3, 4, 5, 6, 7, 8}, 2, 4);
  Var weights = V({0.5f, 2.0f, 1.0f, 0.0f}, 2, 2);
  Tensor out = BlockMix(blocks, weights, 2).value();
  EXPECT_TRUE(AllClose(out, Tensor::FromVector(2, 2, {6.5f, 9.0f, 5, 6})));
}

TEST(OpsTest, BlockMixMatchesManualMixture) {
  // BlockMix == sum_k MulColBroadcast(slice_k, w_k).
  Rng rng(99);
  Tensor bt(3, 8), wt(3, 4);
  for (int64_t i = 0; i < bt.numel(); ++i) bt.data()[i] = (float)rng.Gaussian();
  for (int64_t i = 0; i < wt.numel(); ++i) wt.data()[i] = (float)rng.Gaussian();
  Var blocks(bt, false), weights(wt, false);
  Tensor fused = BlockMix(blocks, weights, 2).value();
  Var manual = MulColBroadcast(SliceCols(blocks, 0, 2), SliceCols(weights, 0, 1));
  for (int64_t k = 1; k < 4; ++k) {
    manual = Add(manual, MulColBroadcast(SliceCols(blocks, 2 * k, 2),
                                         SliceCols(weights, k, 1)));
  }
  EXPECT_TRUE(AllClose(fused, manual.value(), 1e-4));
}

TEST(OpsTest, BprLossValue) {
  // Equal scores => loss = -log(sigmoid(0)) = log 2.
  Var pos = V({1.0f, 1.0f}, 2, 1);
  Var neg = V({1.0f, 1.0f}, 2, 1);
  EXPECT_NEAR(BprLoss(pos, neg).value().item(), std::log(2.0), 1e-6);
  // Strongly separated => near zero.
  Var pos2 = V({50.0f}, 1, 1);
  Var neg2 = V({-50.0f}, 1, 1);
  EXPECT_NEAR(BprLoss(pos2, neg2).value().item(), 0.0, 1e-5);
}

TEST(OpsTest, BprLossDecreasesWithMargin) {
  Var neg = V({0.0f}, 1, 1);
  double prev = 1e9;
  for (float margin : {0.0f, 0.5f, 1.0f, 2.0f}) {
    Var pos = V({margin}, 1, 1);
    const double loss = BprLoss(pos, neg).value().item();
    EXPECT_LT(loss, prev);
    prev = loss;
  }
}

TEST(OpsTest, ListNetLossMinimizedAtTarget) {
  // Uniform target: loss is minimized when scores are uniform.
  Tensor target = Tensor::Full(1, 3, 1.0f / 3.0f);
  Var uniform = V({1, 1, 1}, 1, 3);
  Var skewed = V({5, 1, 1}, 1, 3);
  EXPECT_LT(ListNetLoss(uniform, target).value().item(),
            ListNetLoss(skewed, target).value().item());
}

TEST(OpsDeathTest, ShapeMismatchAborts) {
  Var a = V({1, 2}, 1, 2);
  Var b = V({1, 2}, 2, 1);
  EXPECT_DEATH(Add(a, b), "CHECK");
  EXPECT_DEATH(MatMul(a, a), "MatMul shape mismatch");
}

TEST(OpsTest, RowDotAndDotAllRows) {
  Var a = V({1, 2, 3, 4, 5, 6}, 2, 3, /*grad=*/true);
  Var b = V({2, 0, 1, -1, 1, 0.5f}, 2, 3);
  Var dots = RowDot(a, b);
  EXPECT_TRUE(AllClose(dots.value(), Tensor::FromVector(2, 1, {5, 4})));
  EXPECT_TRUE(dots.requires_grad());
  NoGradScope no_grad;
  // Row 1 of `a` against both rows of `b`.
  Var all = DotAllRows(a, 1, b);
  EXPECT_TRUE(AllClose(all.value(), Tensor::FromVector(2, 1, {14, 4})));
  EXPECT_FALSE(all.requires_grad());
}

TEST(OpsDeathTest, DotAllRowsOutsideNoGradScopeAborts) {
  Var source = V({1, 2}, 1, 2, /*grad=*/true);
  Var table = V({1, 2, 3, 4}, 2, 2, /*grad=*/true);
  EXPECT_DEATH(DotAllRows(source, 0, table), "NoGradScope");
}

TEST(OpsTest, RequiresGradPropagates) {
  Var a = V({1, 2}, 1, 2, /*grad=*/true);
  Var b = V({3, 4}, 1, 2, /*grad=*/false);
  EXPECT_TRUE(Add(a, b).requires_grad());
  EXPECT_FALSE(Add(b, b).requires_grad());
}

TEST(OpsTest, BackwardThroughChain) {
  // f = sum((a * 2 + 1)^2), df/da = 2*(2a+1)*2.
  Var a = V({1.0f, -2.0f}, 1, 2, /*grad=*/true);
  Var f = Sum(Square(AddScalar(MulScalar(a, 2.0f), 1.0f)));
  f.Backward();
  EXPECT_NEAR(a.grad().at(0, 0), 2.0 * 3.0 * 2.0, 1e-4);
  EXPECT_NEAR(a.grad().at(0, 1), 2.0 * -3.0 * 2.0, 1e-4);
}

TEST(OpsTest, GradAccumulatesAcrossBackwardCalls) {
  Var a = V({1.0f}, 1, 1, /*grad=*/true);
  Var f = MulScalar(a, 3.0f);
  f.Backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 3.0f);
  Var g = MulScalar(a, 3.0f);
  g.Backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 6.0f);  // accumulated
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad().item(), 0.0f);
}

TEST(OpsTest, DiamondGraphAccumulatesBothPaths) {
  // f = sum(a + a): gradient should be 2 everywhere.
  Var a = V({1.0f, 2.0f}, 1, 2, /*grad=*/true);
  Var f = Sum(Add(a, a));
  f.Backward();
  EXPECT_FLOAT_EQ(a.grad().at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(a.grad().at(0, 1), 2.0f);
}

}  // namespace
}  // namespace mgbr
