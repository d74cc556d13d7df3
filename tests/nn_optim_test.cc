#include <gtest/gtest.h>

#include "tensor/init.h"
#include "tensor/nn.h"
#include "tensor/optim.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

TEST(InitTest, GaussianMoments) {
  Rng rng(1);
  Tensor t = GaussianInit(100, 100, &rng, 1.0f, 2.0f);
  double sum = 0.0, sum2 = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    sum += t.data()[i];
    sum2 += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  const double mean = sum / t.numel();
  const double var = sum2 / t.numel() - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(InitTest, XavierWithinBounds) {
  Rng rng(2);
  Tensor t = XavierInit(30, 50, &rng);
  const float bound = std::sqrt(6.0f / 80.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t.data()[i], -bound);
    EXPECT_LE(t.data()[i], bound);
  }
}

TEST(InitTest, UniformRange) {
  Rng rng(3);
  Tensor t = UniformInit(10, 10, &rng, -0.5f, 0.5f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t.data()[i], -0.5f);
    EXPECT_LT(t.data()[i], 0.5f);
  }
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(4);
  Linear layer(3, 5, &rng);
  Var x(Tensor::Full(2, 3, 1.0f), false);
  Var y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 5);
  EXPECT_EQ(layer.Parameters().size(), 2u);  // W and b
  Linear no_bias(3, 5, &rng, /*with_bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(MlpTest, ParameterCount) {
  Rng rng(5);
  Mlp mlp({4, 8, 1}, &rng);
  // (4*8 + 8) + (8*1 + 1) = 49.
  EXPECT_EQ(mlp.ParameterCount(), 49);
}

TEST(MlpTest, OutputActivationApplied) {
  Rng rng(6);
  Mlp mlp({2, 2, 1}, &rng, Activation::kRelu, Activation::kSigmoid);
  Var x(Tensor::Full(3, 2, 0.5f), false);
  Tensor y = mlp.Forward(x).value();
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_GT(y.data()[i], 0.0f);
    EXPECT_LT(y.data()[i], 1.0f);
  }
}

TEST(MlpTest, GradientFlowsToAllParameters) {
  Rng rng(7);
  Mlp mlp({3, 4, 1}, &rng, Activation::kTanh, Activation::kNone);
  Var x(GaussianInit(5, 3, &rng), false);
  Var loss = Mean(Square(mlp.Forward(x)));
  loss.Backward();
  for (const Var& p : mlp.Parameters()) {
    EXPECT_GT(p.grad().Norm(), 0.0) << "dead parameter";
  }
}

// ---------------------------------------------------------------------------
// Optimizers: convergence on a quadratic and a small regression.
// ---------------------------------------------------------------------------

TEST(AdamTest, MinimizesQuadratic) {
  Var x(Tensor::Full(1, 1, 5.0f), true);
  Adam opt({x}, 0.3f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Var loss = Square(x);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value().item(), 0.0f, 1e-2);
}

TEST(AdamTest, LearnsLinearRegression) {
  // y = X w* with known w*; Adam should recover it.
  Rng rng(8);
  Tensor xt = GaussianInit(64, 3, &rng);
  Tensor wstar = Tensor::FromVector(3, 1, {1.0f, -2.0f, 0.5f});
  Tensor yt(64, 1);
  for (int64_t r = 0; r < 64; ++r) {
    double acc = 0.0;
    for (int64_t c = 0; c < 3; ++c) acc += xt.at(r, c) * wstar.at(c, 0);
    yt.at(r, 0) = static_cast<float>(acc);
  }
  Var x(xt, false), y(yt, false);
  Var w(Tensor::Zeros(3, 1), true);
  Adam opt({w}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    Var loss = Mean(Square(Sub(MatMul(x, w), y)));
    loss.Backward();
    opt.Step();
  }
  EXPECT_TRUE(AllClose(w.value(), wstar, 0.02));
}

TEST(AdamTest, WeightDecayShrinksUnusedParams) {
  // A parameter with zero gradient should decay toward zero.
  Var used(Tensor::Full(1, 1, 1.0f), true);
  Var unused(Tensor::Full(1, 1, 1.0f), true);
  Adam opt({used, unused}, 0.01f, 0.9f, 0.999f, 1e-8f,
           /*weight_decay=*/0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Var loss = Square(used);
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(std::fabs(unused.value().item()), 0.2f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Var x(Tensor::Full(1, 4, 10.0f), true);
  Var loss = Sum(Square(x));  // grad = 2x = 20 each; norm = 40
  x.ZeroGrad();
  loss.Backward();
  std::vector<Var> params = {x};
  const double pre = ClipGradNorm(params, 1.0);
  EXPECT_NEAR(pre, 40.0, 1e-3);
  double post = 0.0;
  for (int64_t i = 0; i < 4; ++i) {
    post += static_cast<double>(x.grad().data()[i]) * x.grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-4);
}

TEST(ClipGradNormTest, NoopBelowThreshold) {
  Var x(Tensor::Full(1, 1, 0.1f), true);
  Var loss = Square(x);
  x.ZeroGrad();
  loss.Backward();
  std::vector<Var> params = {x};
  ClipGradNorm(params, 100.0);
  EXPECT_NEAR(x.grad().item(), 0.2f, 1e-5);
}

TEST(OptimizerDeathTest, RejectsNonGradParams) {
  Var constant(Tensor::Scalar(1.0f), false);
  EXPECT_DEATH(Adam({constant}, 0.1f), "requires_grad");
}

}  // namespace
}  // namespace mgbr
