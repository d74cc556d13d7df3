#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::CheckGradients;

/// Builds a leaf with reproducible mildly-random values away from
/// non-differentiable points.
Var Leaf(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    float v = static_cast<float>(rng.Uniform(-1.5, 1.5));
    if (std::fabs(v) < 0.15f) v += 0.3f;  // keep clear of relu kinks
    t.data()[i] = v;
  }
  return Var(std::move(t), /*requires_grad=*/true);
}

/// Positive-valued leaf (for Log).
Var PositiveLeaf(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform(0.5, 2.0));
  }
  return Var(std::move(t), /*requires_grad=*/true);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: every unary op x several shapes.
// ---------------------------------------------------------------------------

using UnaryBuilder = Var (*)(const Var&);

struct UnaryCase {
  const char* name;
  UnaryBuilder op;
  bool positive_only;
};

/// Prints the case as its op name. Without this gtest prints the struct's
/// raw bytes, which hold pointers, and the discovered ctest names (which
/// carry the printed parameter) would change with every run's load address.
void PrintTo(const UnaryCase& unary, std::ostream* os) { *os << unary.name; }

class UnaryGradTest
    : public ::testing::TestWithParam<std::tuple<UnaryCase, std::pair<int, int>>> {};

std::string UnaryCaseName(
    const ::testing::TestParamInfo<std::tuple<UnaryCase, std::pair<int, int>>>&
        info) {
  const auto& unary = std::get<0>(info.param);
  const auto& shape = std::get<1>(info.param);
  return std::string(unary.name) + "_" + std::to_string(shape.first) + "x" +
         std::to_string(shape.second);
}

TEST_P(UnaryGradTest, MatchesFiniteDifference) {
  const auto& [unary, shape] = GetParam();
  std::vector<Var> leaves = {unary.positive_only
                                 ? PositiveLeaf(shape.first, shape.second, 11)
                                 : Leaf(shape.first, shape.second, 11)};
  CheckGradients(leaves, [&] { return Sum(unary.op(leaves[0])); });
}

Var SigmoidOp(const Var& a) { return Sigmoid(a); }
Var TanhOp(const Var& a) { return Tanh(a); }
Var ReluOp(const Var& a) { return Relu(a); }
Var LeakyOp(const Var& a) { return LeakyRelu(a, 0.2f); }
Var LogOp(const Var& a) { return Log(a); }
Var SquareOp(const Var& a) { return Square(a); }
Var LogSigmoidOp(const Var& a) { return LogSigmoid(a); }
Var NegOp(const Var& a) { return Neg(a); }
Var SoftmaxOp(const Var& a) { return RowSoftmax(a); }
Var TransposeOp(const Var& a) { return Transpose(a); }

INSTANTIATE_TEST_SUITE_P(
    AllUnary, UnaryGradTest,
    ::testing::Combine(
        ::testing::Values(UnaryCase{"Sigmoid", &SigmoidOp, false},
                          UnaryCase{"Tanh", &TanhOp, false},
                          UnaryCase{"Relu", &ReluOp, false},
                          UnaryCase{"LeakyRelu", &LeakyOp, false},
                          UnaryCase{"Log", &LogOp, true},
                          UnaryCase{"Square", &SquareOp, false},
                          UnaryCase{"LogSigmoid", &LogSigmoidOp, false},
                          UnaryCase{"Neg", &NegOp, false},
                          UnaryCase{"RowSoftmax", &SoftmaxOp, false},
                          UnaryCase{"Transpose", &TransposeOp, false}),
        ::testing::Values(std::pair<int, int>{1, 1},
                          std::pair<int, int>{3, 4},
                          std::pair<int, int>{5, 2})),
    UnaryCaseName);

// ---------------------------------------------------------------------------
// Binary and structural ops.
// ---------------------------------------------------------------------------

TEST(GradCheckTest, AddBothInputs) {
  std::vector<Var> leaves = {Leaf(2, 3, 1), Leaf(2, 3, 2)};
  CheckGradients(leaves,
                 [&] { return Sum(Add(leaves[0], leaves[1])); });
}

TEST(GradCheckTest, SubBothInputs) {
  std::vector<Var> leaves = {Leaf(2, 3, 3), Leaf(2, 3, 4)};
  CheckGradients(leaves,
                 [&] { return Sum(Sub(leaves[0], leaves[1])); });
}

TEST(GradCheckTest, MulBothInputs) {
  std::vector<Var> leaves = {Leaf(2, 3, 5), Leaf(2, 3, 6)};
  CheckGradients(leaves,
                 [&] { return Sum(Mul(leaves[0], leaves[1])); });
}

TEST(GradCheckTest, MatMulBothInputs) {
  std::vector<Var> leaves = {Leaf(3, 4, 9), Leaf(4, 2, 10)};
  CheckGradients(leaves,
                 [&] { return Sum(MatMul(leaves[0], leaves[1])); });
}

TEST(GradCheckTest, MatMulWithDownstreamNonlinearity) {
  std::vector<Var> leaves = {Leaf(2, 3, 21), Leaf(3, 2, 22)};
  CheckGradients(leaves, [&] {
    return Mean(Sigmoid(MatMul(leaves[0], leaves[1])));
  });
}

TEST(GradCheckTest, AddRowBroadcastBothInputs) {
  std::vector<Var> leaves = {Leaf(4, 3, 11), Leaf(1, 3, 12)};
  CheckGradients(
      leaves, [&] { return Sum(AddRowBroadcast(leaves[0], leaves[1])); });
}

TEST(GradCheckTest, MulColBroadcastBothInputs) {
  std::vector<Var> leaves = {Leaf(4, 3, 13), Leaf(4, 1, 14)};
  CheckGradients(
      leaves, [&] { return Sum(Square(MulColBroadcast(leaves[0], leaves[1]))); });
}

TEST(GradCheckTest, BroadcastRow) {
  std::vector<Var> leaves = {Leaf(1, 3, 15)};
  CheckGradients(leaves,
                 [&] { return Sum(Square(BroadcastRow(leaves[0], 5))); });
}

TEST(GradCheckTest, RowDotBothInputs) {
  std::vector<Var> leaves = {Leaf(4, 5, 24), Leaf(4, 5, 25)};
  CheckGradients(leaves,
                 [&] { return Sum(Square(RowDot(leaves[0], leaves[1]))); });
}

TEST(GradCheckTest, RowDotOfTwoGathersFromOneTable) {
  std::vector<Var> leaves = {Leaf(4, 3, 26)};
  const std::vector<int64_t> left = {0, 2, 2, 3};
  const std::vector<int64_t> right = {1, 2, 0, 0};
  CheckGradients(leaves, [&] {
    return Sum(Square(RowDot(Rows(leaves[0], left), Rows(leaves[0], right))));
  });
}

TEST(GradCheckTest, ConcatColsAllInputs) {
  std::vector<Var> leaves = {Leaf(3, 2, 16), Leaf(3, 1, 17), Leaf(3, 3, 18)};
  CheckGradients(leaves, [&] {
    return Sum(Square(ConcatCols({leaves[0], leaves[1], leaves[2]})));
  });
}

TEST(GradCheckTest, SliceColsGrad) {
  std::vector<Var> leaves = {Leaf(3, 5, 19)};
  CheckGradients(leaves,
                 [&] { return Sum(Square(SliceCols(leaves[0], 1, 3))); });
}

TEST(GradCheckTest, SliceRowsGrad) {
  std::vector<Var> leaves = {Leaf(5, 3, 20)};
  CheckGradients(leaves,
                 [&] { return Sum(Square(SliceRows(leaves[0], 2, 2))); });
}

TEST(GradCheckTest, ReshapeGrad) {
  std::vector<Var> leaves = {Leaf(2, 6, 23)};
  CheckGradients(leaves,
                 [&] { return Sum(Square(Reshape(leaves[0], 3, 4))); });
}

TEST(GradCheckTest, RowsGatherWithRepeats) {
  std::vector<Var> leaves = {Leaf(4, 3, 24)};
  // Row 2 appears twice: scatter-add must accumulate both contributions.
  CheckGradients(leaves, [&] {
    return Sum(Square(Rows(leaves[0], {2, 0, 2, 3})));
  });
}

TEST(GradCheckTest, ReductionGrads) {
  std::vector<Var> leaves = {Leaf(3, 4, 25)};
  CheckGradients(leaves, [&] { return Mean(Square(leaves[0])); });
  CheckGradients(leaves, [&] { return Sum(Square(RowSum(leaves[0]))); });
  CheckGradients(leaves,
                 [&] { return Sum(Square(SumOverRows(leaves[0]))); });
  CheckGradients(leaves,
                 [&] { return Sum(Square(MeanOverRows(leaves[0]))); });
}

TEST(GradCheckTest, BlockMixBothInputs) {
  // 3 blocks of width 4 mixed by per-row weights.
  std::vector<Var> leaves = {Leaf(5, 12, 40), Leaf(5, 3, 41)};
  CheckGradients(leaves, [&] {
    return Sum(Square(BlockMix(leaves[0], leaves[1], 4)));
  });
}

TEST(GradCheckTest, BlockMixWithSoftmaxWeights) {
  // The exact composition used by the MGBR gates.
  std::vector<Var> leaves = {Leaf(4, 6, 42), Leaf(4, 3, 43)};
  CheckGradients(leaves, [&] {
    return Mean(Square(BlockMix(leaves[0], RowSoftmax(leaves[1]), 2)));
  });
}

TEST(GradCheckTest, BprLossGrad) {
  std::vector<Var> leaves = {Leaf(4, 1, 28), Leaf(4, 1, 29)};
  CheckGradients(leaves, [&] { return BprLoss(leaves[0], leaves[1]); });
}

TEST(GradCheckTest, ListNetLossGrad) {
  Tensor target(2, 4);
  target.at(0, 0) = 0.5f;
  target.at(0, 2) = 0.5f;
  target.at(1, 1) = 1.0f;
  std::vector<Var> leaves = {Leaf(2, 4, 30)};
  CheckGradients(leaves, [&] { return ListNetLoss(leaves[0], target); });
}

TEST(GradCheckTest, RowSoftmaxComposite) {
  std::vector<Var> leaves = {Leaf(3, 5, 31)};
  CheckGradients(leaves, [&] {
    return Mean(Square(RowSoftmax(leaves[0])));
  });
}

TEST(GradCheckTest, DeepCompositeExpression) {
  // A miniature of the MGBR scoring path: gather, concat, matmul,
  // softmax mixture, sigmoid head.
  std::vector<Var> leaves = {Leaf(5, 4, 32), Leaf(8, 3, 33), Leaf(3, 1, 34)};
  CheckGradients(leaves, [&] {
    Var gathered = Rows(leaves[0], {0, 2, 4});
    Var joined = ConcatCols({gathered, Rows(leaves[0], {1, 1, 3})});
    Var hidden = Tanh(MatMul(joined, leaves[1]));
    Var score = Sigmoid(MatMul(hidden, leaves[2]));
    return Mean(score);
  });
}

// ---------------------------------------------------------------------------
// Fused bias + activation (tensor/nn.h) and kernel-dispatch variants.
// ---------------------------------------------------------------------------

TEST(GradCheckTest, BiasActBothInputsEveryActivation) {
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kSigmoid, Activation::kTanh}) {
    std::vector<Var> leaves = {Leaf(4, 3, 41), Leaf(1, 3, 42)};
    CheckGradients(leaves, [&, act] {
      return Mean(BiasAct(leaves[0], leaves[1], act));
    });
  }
}

/// Re-runs the deepest composite checks with the scalar kernel variants
/// dispatched, so both halves of tensor/kernels.cc stay gradcheck-clean.
TEST(GradCheckTest, CompositeWithScalarKernelDispatch) {
  const bool saved = kernels::SimdEnabled();
  kernels::SetSimdEnabled(false);
  std::vector<Var> leaves = {Leaf(3, 4, 51), Leaf(4, 2, 52), Leaf(1, 2, 53)};
  CheckGradients(leaves, [&] {
    return Mean(BiasAct(MatMul(leaves[0], leaves[1]), leaves[2],
                        Activation::kSigmoid));
  });
  kernels::SetSimdEnabled(saved);
}

}  // namespace
}  // namespace mgbr
