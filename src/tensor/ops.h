#ifndef MGBR_TENSOR_OPS_H_
#define MGBR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/variable.h"

namespace mgbr {

// ---------------------------------------------------------------------------
// Elementwise binary ops (shapes must match exactly).
// ---------------------------------------------------------------------------

/// out = a + b.
Var Add(const Var& a, const Var& b);
/// out = a - b.
Var Sub(const Var& a, const Var& b);
/// out = a ⊙ b (Hadamard product).
Var Mul(const Var& a, const Var& b);

// ---------------------------------------------------------------------------
// Scalar ops.
// ---------------------------------------------------------------------------

/// out = a + s.
Var AddScalar(const Var& a, float s);
/// out = s * a.
Var MulScalar(const Var& a, float s);

// ---------------------------------------------------------------------------
// Broadcast ops. These are the only implicit-broadcast forms in the
// engine; everything else requires exact shapes.
// ---------------------------------------------------------------------------

/// out[r,:] = a[r,:] + row[0,:]. `row` must be 1 x a.cols().
Var AddRowBroadcast(const Var& a, const Var& row);

/// out[r,c] = a[r,c] * col[r,0]. `col` must be a.rows() x 1.
Var MulColBroadcast(const Var& a, const Var& col);

/// Repeats a 1 x d row `n` times into an n x d tensor.
Var BroadcastRow(const Var& row, int64_t n);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// Dense matrix product: (m x k) @ (k x n) -> (m x n).
Var MatMul(const Var& a, const Var& b);

/// Matrix transpose.
Var Transpose(const Var& a);

// ---------------------------------------------------------------------------
// Shape ops.
// ---------------------------------------------------------------------------

/// Horizontal concatenation: all parts share rows; cols add up.
Var ConcatCols(const std::vector<Var>& parts);

/// Column slice [start, start+len).
Var SliceCols(const Var& a, int64_t start, int64_t len);

/// Row slice [start, start+len).
Var SliceRows(const Var& a, int64_t start, int64_t len);

/// Reinterprets the (contiguous, row-major) data as rows x cols.
/// rows * cols must equal a.numel().
Var Reshape(const Var& a, int64_t rows, int64_t cols);

/// Row gather: out[r,:] = a[indices[r],:]. Gradient scatter-adds, so a
/// row referenced multiple times accumulates all contributions (this is
/// the embedding-lookup op).
Var Rows(const Var& a, const std::vector<int64_t>& indices);

// ---------------------------------------------------------------------------
// Unary elementwise.
// ---------------------------------------------------------------------------

Var Neg(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
/// max(x, slope*x) with slope in (0, 1); NGCF's activation.
Var LeakyRelu(const Var& a, float slope = 0.2f);
/// Natural log; caller guarantees positive inputs.
Var Log(const Var& a);
Var Square(const Var& a);
/// Numerically stable log(sigmoid(x)) = -softplus(-x).
Var LogSigmoid(const Var& a);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum of all elements -> 1x1.
Var Sum(const Var& a);
/// Mean of all elements -> 1x1.
Var Mean(const Var& a);
/// Per-row sum: (B x d) -> (B x 1).
Var RowSum(const Var& a);
/// Column means: (B x d) -> (1 x d).
Var MeanOverRows(const Var& a);
/// Column sums: (B x d) -> (1 x d).
Var SumOverRows(const Var& a);

// ---------------------------------------------------------------------------
// Row-wise inner products (kernels::DotRows).
// ---------------------------------------------------------------------------

/// Per-row inner product of two (B x d) batches -> (B x 1); the score
/// head the baselines use ("we used inner product of two embeddings to
/// measure their distance", §III-B). Each float product is widened and
/// summed in double in column order, so the value is bitwise
/// RowSum(Mul(a, b)), computed in one pass and one tape node.
Var RowDot(const Var& a, const Var& b);

/// Full-catalogue dot scoring: out[r] = <source[row], table[r]> for
/// every row of `table`, reading the query row in place (no broadcast
/// copy). Row r is bitwise identical to
/// RowDot(Rows(source, {row}), Rows(table, {r})): one kernel computes
/// both. Inference only: the result is untaped, and calling it outside
/// a NoGradScope is a checked error.
Var DotAllRows(const Var& source, int64_t row, const Var& table);

// ---------------------------------------------------------------------------
// Expert mixtures.
// ---------------------------------------------------------------------------

/// Block mixture for mixture-of-experts gates. `blocks` is (B x K*d)
/// holding K consecutive d-wide expert outputs per row; `weights` is
/// (B x K). Returns (B x d) with out[r] = sum_k weights[r,k] *
/// blocks[r, k*d : (k+1)*d]. Equivalent to K MulColBroadcast+Add ops
/// but a single tape node (the hot path of the multi-task module).
Var BlockMix(const Var& blocks, const Var& weights, int64_t block_dim);

// ---------------------------------------------------------------------------
// Row-wise softmax and ranking-loss helpers.
// ---------------------------------------------------------------------------

/// Softmax along each row (numerically stabilized).
Var RowSoftmax(const Var& a);

/// Mean BPR loss: -mean(log sigmoid(pos - neg)); pos/neg are (B x 1).
Var BprLoss(const Var& pos_scores, const Var& neg_scores);

/// ListNet cross-entropy: -mean over rows of sum_j target[r,j] *
/// log softmax(scores)[r,j]. `target` rows should sum to 1; it is a
/// constant (no gradient flows into it).
Var ListNetLoss(const Var& scores, const Tensor& target);

}  // namespace mgbr

#endif  // MGBR_TENSOR_OPS_H_
