#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "tensor/kernels.h"

namespace mgbr {

using internal::MakeOpVar;
using internal::VarNode;

namespace {

/// Minimum scalar operations per ParallelFor chunk; below this the
/// fork/join overhead dominates and the kernels run serially.
constexpr int64_t kElemGrain = 1 << 14;

/// Row grain sized so one chunk covers roughly kElemGrain scalar ops.
inline int64_t RowGrain(int64_t work_per_row) {
  return std::max<int64_t>(1,
                           kElemGrain / std::max<int64_t>(1, work_per_row));
}

/// GEMM chunks are floored at two register tiles (8 rows) so the
/// kernel's 4-row micro-tile never degenerates into single-row panels
/// on large matrices. Chunk boundaries only partition C row ownership,
/// so the grain has no effect on numerics.
inline int64_t GemmRowGrain(int64_t work_per_row) {
  return std::max<int64_t>(8, RowGrain(work_per_row));
}

/// Accumulates `delta` into `parent`'s grad if the parent needs one.
inline void Accumulate(const std::shared_ptr<VarNode>& parent,
                       const Tensor& delta) {
  if (parent->requires_grad) parent->EnsureGrad().AccumulateInPlace(delta);
}

inline float StableSoftplus(float x) {
  // log(1 + e^x) = max(x, 0) + log1p(exp(-|x|))
  float m = x > 0.0f ? x : 0.0f;
  return m + std::log1p(std::exp(-std::fabs(x)));
}

inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  float z = std::exp(x);
  return z / (1.0f + z);
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise binary.
// ---------------------------------------------------------------------------

Var Add(const Var& a, const Var& b) {
  MGBR_CHECK(a.value().same_shape(b.value()));
  Tensor out = a.value();
  out.AccumulateInPlace(b.value());
  return MakeOpVar(std::move(out), {a, b}, [](VarNode& n) {
    Accumulate(n.parents[0], n.grad);
    Accumulate(n.parents[1], n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  MGBR_CHECK(a.value().same_shape(b.value()));
  Tensor out = a.value();
  const float* bp = b.value().data();
  float* op = out.data();
  ParallelFor(0, out.numel(), kElemGrain, [op, bp](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) op[i] -= bp[i];
  });
  return MakeOpVar(std::move(out), {a, b}, [](VarNode& n) {
    Accumulate(n.parents[0], n.grad);
    if (n.parents[1]->requires_grad) {
      Tensor neg = n.grad;
      neg.ScaleInPlace(-1.0f);
      n.parents[1]->EnsureGrad().AccumulateInPlace(neg);
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  MGBR_CHECK(a.value().same_shape(b.value()));
  Tensor out = a.value();
  const float* bp = b.value().data();
  float* op = out.data();
  ParallelFor(0, out.numel(), kElemGrain, [op, bp](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) op[i] *= bp[i];
  });
  return MakeOpVar(std::move(out), {a, b}, [](VarNode& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      Tensor d = n.grad;
      float* dp = d.data();
      const float* bp2 = bv.data();
      ParallelFor(0, d.numel(), kElemGrain, [dp, bp2](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dp[i] *= bp2[i];
      });
      n.parents[0]->EnsureGrad().AccumulateInPlace(d);
    }
    if (n.parents[1]->requires_grad) {
      Tensor d = n.grad;
      float* dp = d.data();
      const float* ap = av.data();
      ParallelFor(0, d.numel(), kElemGrain, [dp, ap](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) dp[i] *= ap[i];
      });
      n.parents[1]->EnsureGrad().AccumulateInPlace(d);
    }
  });
}

// ---------------------------------------------------------------------------
// Scalar ops.
// ---------------------------------------------------------------------------

Var AddScalar(const Var& a, float s) {
  Tensor out = a.value();
  float* op = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) op[i] += s;
  return MakeOpVar(std::move(out), {a}, [](VarNode& n) {
    Accumulate(n.parents[0], n.grad);
  });
}

Var MulScalar(const Var& a, float s) {
  Tensor out = a.value();
  out.ScaleInPlace(s);
  return MakeOpVar(std::move(out), {a}, [s](VarNode& n) {
    if (n.parents[0]->requires_grad) {
      Tensor d = n.grad;
      d.ScaleInPlace(s);
      n.parents[0]->EnsureGrad().AccumulateInPlace(d);
    }
  });
}

// ---------------------------------------------------------------------------
// Broadcast ops.
// ---------------------------------------------------------------------------

Var AddRowBroadcast(const Var& a, const Var& row) {
  MGBR_CHECK_EQ(row.rows(), 1);
  MGBR_CHECK_EQ(row.cols(), a.cols());
  Tensor out = a.value();
  const float* rp = row.value().data();
  for (int64_t r = 0; r < out.rows(); ++r) {
    float* op = out.data() + r * out.cols();
    for (int64_t c = 0; c < out.cols(); ++c) op[c] += rp[c];
  }
  return MakeOpVar(std::move(out), {a, row}, [](VarNode& n) {
    Accumulate(n.parents[0], n.grad);
    if (n.parents[1]->requires_grad) {
      Tensor d(1, n.grad.cols());
      for (int64_t r = 0; r < n.grad.rows(); ++r) {
        const float* gp = n.grad.data() + r * n.grad.cols();
        float* dp = d.data();
        for (int64_t c = 0; c < n.grad.cols(); ++c) dp[c] += gp[c];
      }
      n.parents[1]->EnsureGrad().AccumulateInPlace(d);
    }
  });
}

Var MulColBroadcast(const Var& a, const Var& col) {
  MGBR_CHECK_EQ(col.cols(), 1);
  MGBR_CHECK_EQ(col.rows(), a.rows());
  Tensor out = a.value();
  const float* cp = col.value().data();
  for (int64_t r = 0; r < out.rows(); ++r) {
    float* op = out.data() + r * out.cols();
    for (int64_t c = 0; c < out.cols(); ++c) op[c] *= cp[r];
  }
  return MakeOpVar(std::move(out), {a, col}, [](VarNode& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& cv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      Tensor d = n.grad;
      for (int64_t r = 0; r < d.rows(); ++r) {
        float* dp = d.data() + r * d.cols();
        for (int64_t c = 0; c < d.cols(); ++c) dp[c] *= cv.data()[r];
      }
      n.parents[0]->EnsureGrad().AccumulateInPlace(d);
    }
    if (n.parents[1]->requires_grad) {
      Tensor d(av.rows(), 1);
      for (int64_t r = 0; r < av.rows(); ++r) {
        const float* gp = n.grad.data() + r * av.cols();
        const float* ap = av.data() + r * av.cols();
        double acc = 0.0;
        for (int64_t c = 0; c < av.cols(); ++c) acc += gp[c] * ap[c];
        d.data()[r] = static_cast<float>(acc);
      }
      n.parents[1]->EnsureGrad().AccumulateInPlace(d);
    }
  });
}

Var BroadcastRow(const Var& row, int64_t n_rows) {
  MGBR_CHECK_EQ(row.rows(), 1);
  MGBR_CHECK_GT(n_rows, 0);
  Tensor out(n_rows, row.cols());
  const float* rp = row.value().data();
  for (int64_t r = 0; r < n_rows; ++r) {
    float* op = out.data() + r * out.cols();
    for (int64_t c = 0; c < out.cols(); ++c) op[c] = rp[c];
  }
  return MakeOpVar(std::move(out), {row}, [](VarNode& n) {
    if (n.parents[0]->requires_grad) {
      Tensor d(1, n.grad.cols());
      for (int64_t r = 0; r < n.grad.rows(); ++r) {
        const float* gp = n.grad.data() + r * n.grad.cols();
        float* dp = d.data();
        for (int64_t c = 0; c < n.grad.cols(); ++c) dp[c] += gp[c];
      }
      n.parents[0]->EnsureGrad().AccumulateInPlace(d);
    }
  });
}

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

namespace {

/// C += A @ B via the register-tiled, cache-blocked kernel layer
/// (tensor/kernels.h). Parallel over rows of C: each output row is
/// owned by exactly one chunk and its k-accumulation order is fixed by
/// the kernel's kc-block structure, so results are bit-identical for
/// every thread count and for SIMD on/off.
void GemmAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  MGBR_CHECK_EQ(b.rows(), k);
  MGBR_CHECK_EQ(c->rows(), m);
  MGBR_CHECK_EQ(c->cols(), n);
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c->data();
  ParallelFor(0, m, GemmRowGrain(k * n), [=](int64_t lo, int64_t hi) {
    kernels::GemmRowsAB(ap + lo * k, bp, cp + lo * n, hi - lo, k, n);
  });
}

/// C += Aᵀ @ B. Parallel over rows of C (columns of A).
void GemmAtBAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  const int64_t m = a.cols(), k = a.rows(), n = b.cols();
  MGBR_CHECK_EQ(b.rows(), k);
  MGBR_CHECK_EQ(c->rows(), m);
  MGBR_CHECK_EQ(c->cols(), n);
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c->data();
  ParallelFor(0, m, GemmRowGrain(k * n), [=](int64_t lo, int64_t hi) {
    kernels::GemmRowsAtB(ap, m, lo, bp, cp + lo * n, hi - lo, k, n);
  });
}

/// C += A @ Bᵀ. Parallel over rows of C; per element the kernel uses
/// the fixed-lane dot-product reduction documented in kernels.h.
void GemmABtAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  MGBR_CHECK_EQ(b.cols(), k);
  MGBR_CHECK_EQ(c->rows(), m);
  MGBR_CHECK_EQ(c->cols(), n);
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c->data();
  ParallelFor(0, m, GemmRowGrain(k * n), [=](int64_t lo, int64_t hi) {
    kernels::GemmRowsABt(ap + lo * k, bp, cp + lo * n, hi - lo, k, n);
  });
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  MGBR_CHECK_MSG(a.cols() == b.rows(), "MatMul shape mismatch: ", a.rows(),
                 "x", a.cols(), " @ ", b.rows(), "x", b.cols());
  Tensor out(a.rows(), b.cols());
  GemmAccumulate(a.value(), b.value(), &out);
  return MakeOpVar(std::move(out), {a, b}, [](VarNode& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      // dA = dC @ Bᵀ
      GemmABtAccumulate(n.grad, bv, &n.parents[0]->EnsureGrad());
    }
    if (n.parents[1]->requires_grad) {
      // dB = Aᵀ @ dC
      GemmAtBAccumulate(av, n.grad, &n.parents[1]->EnsureGrad());
    }
  });
}

Var Transpose(const Var& a) {
  Tensor out(a.cols(), a.rows());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      out.at(c, r) = a.value().at(r, c);
    }
  }
  return MakeOpVar(std::move(out), {a}, [](VarNode& n) {
    if (n.parents[0]->requires_grad) {
      Tensor d(n.grad.cols(), n.grad.rows());
      for (int64_t r = 0; r < n.grad.rows(); ++r) {
        for (int64_t c = 0; c < n.grad.cols(); ++c) {
          d.at(c, r) = n.grad.at(r, c);
        }
      }
      n.parents[0]->EnsureGrad().AccumulateInPlace(d);
    }
  });
}

// ---------------------------------------------------------------------------
// Shape ops.
// ---------------------------------------------------------------------------

Var ConcatCols(const std::vector<Var>& parts) {
  MGBR_CHECK(!parts.empty());
  const int64_t rows = parts[0].rows();
  int64_t total_cols = 0;
  for (const Var& p : parts) {
    MGBR_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
  }
  Tensor out(rows, total_cols);
  int64_t offset = 0;
  for (const Var& p : parts) {
    const Tensor& pv = p.value();
    for (int64_t r = 0; r < rows; ++r) {
      const float* src = pv.data() + r * pv.cols();
      float* dst = out.data() + r * total_cols + offset;
      for (int64_t c = 0; c < pv.cols(); ++c) dst[c] = src[c];
    }
    offset += p.cols();
  }
  return MakeOpVar(std::move(out), parts, [](VarNode& n) {
    int64_t off = 0;
    const int64_t total = n.grad.cols();
    for (auto& parent : n.parents) {
      const int64_t pc = parent->value.cols();
      if (parent->requires_grad) {
        Tensor d(n.grad.rows(), pc);
        for (int64_t r = 0; r < n.grad.rows(); ++r) {
          const float* src = n.grad.data() + r * total + off;
          float* dst = d.data() + r * pc;
          for (int64_t c = 0; c < pc; ++c) dst[c] = src[c];
        }
        parent->EnsureGrad().AccumulateInPlace(d);
      }
      off += pc;
    }
  });
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  MGBR_CHECK_GE(start, 0);
  MGBR_CHECK_GE(len, 0);
  MGBR_CHECK_LE(start + len, a.cols());
  Tensor out(a.rows(), len);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.value().data() + r * a.cols() + start;
    float* dst = out.data() + r * len;
    for (int64_t c = 0; c < len; ++c) dst[c] = src[c];
  }
  return MakeOpVar(std::move(out), {a}, [start, len](VarNode& n) {
    if (n.parents[0]->requires_grad) {
      Tensor& pg = n.parents[0]->EnsureGrad();
      for (int64_t r = 0; r < n.grad.rows(); ++r) {
        const float* src = n.grad.data() + r * len;
        float* dst = pg.data() + r * pg.cols() + start;
        for (int64_t c = 0; c < len; ++c) dst[c] += src[c];
      }
    }
  });
}

Var SliceRows(const Var& a, int64_t start, int64_t len) {
  MGBR_CHECK_GE(start, 0);
  MGBR_CHECK_GE(len, 0);
  MGBR_CHECK_LE(start + len, a.rows());
  const int64_t d = a.cols();
  Tensor out(len, d);
  const float* src = a.value().data() + start * d;
  float* dst = out.data();
  for (int64_t i = 0; i < len * d; ++i) dst[i] = src[i];
  return MakeOpVar(std::move(out), {a}, [start, len, d](VarNode& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& pg = n.parents[0]->EnsureGrad();
    const float* src2 = n.grad.data();
    float* dst2 = pg.data() + start * d;
    for (int64_t i = 0; i < len * d; ++i) dst2[i] += src2[i];
  });
}

Var Reshape(const Var& a, int64_t rows, int64_t cols) {
  MGBR_CHECK_EQ(rows * cols, a.value().numel());
  Tensor out(rows, cols);
  const float* src = a.value().data();
  float* dst = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) dst[i] = src[i];
  return MakeOpVar(std::move(out), {a}, [](VarNode& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& pg = n.parents[0]->EnsureGrad();
    const float* src2 = n.grad.data();
    float* dst2 = pg.data();
    for (int64_t i = 0; i < pg.numel(); ++i) dst2[i] += src2[i];
  });
}

Var Rows(const Var& a, const std::vector<int64_t>& indices) {
  const int64_t d = a.cols();
  Tensor out(static_cast<int64_t>(indices.size()), d);
  for (size_t r = 0; r < indices.size(); ++r) {
    MGBR_CHECK(indices[r] >= 0 && indices[r] < a.rows());
    const float* src = a.value().data() + indices[r] * d;
    float* dst = out.data() + static_cast<int64_t>(r) * d;
    for (int64_t c = 0; c < d; ++c) dst[c] = src[c];
  }
  return MakeOpVar(std::move(out), {a}, [indices, d](VarNode& n) {
    if (n.parents[0]->requires_grad) {
      Tensor& pg = n.parents[0]->EnsureGrad();
      for (size_t r = 0; r < indices.size(); ++r) {
        const float* src = n.grad.data() + static_cast<int64_t>(r) * d;
        float* dst = pg.data() + indices[r] * d;
        for (int64_t c = 0; c < d; ++c) dst[c] += src[c];
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Unary elementwise.
// ---------------------------------------------------------------------------

namespace {

/// Builds a unary elementwise op. `dydx` receives (x, y) and returns the
/// local derivative.
template <typename Fwd, typename Dydx>
Var UnaryOp(const Var& a, Fwd fwd, Dydx dydx) {
  Tensor out = a.value();
  float* op = out.data();
  ParallelFor(0, out.numel(), kElemGrain, [op, &fwd](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) op[i] = fwd(op[i]);
  });
  Tensor saved = out;  // many derivatives are cheaper in terms of y
  return MakeOpVar(std::move(out), {a},
                   [saved, dydx](VarNode& n) {
                     if (!n.parents[0]->requires_grad) return;
                     const Tensor& xv = n.parents[0]->value;
                     Tensor d = n.grad;
                     float* dp = d.data();
                     const float* xp = xv.data();
                     const float* yp = saved.data();
                     ParallelFor(0, d.numel(), kElemGrain,
                                 [&](int64_t lo, int64_t hi) {
                                   for (int64_t i = lo; i < hi; ++i) {
                                     dp[i] *= dydx(xp[i], yp[i]);
                                   }
                                 });
                     n.parents[0]->EnsureGrad().AccumulateInPlace(d);
                   });
}

}  // namespace

Var Neg(const Var& a) { return MulScalar(a, -1.0f); }

Var Sigmoid(const Var& a) {
  return UnaryOp(
      a, [](float x) { return StableSigmoid(x); },
      [](float, float y) { return y * (1.0f - y); });
}

Var Tanh(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Var Relu(const Var& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Var LeakyRelu(const Var& a, float slope) {
  return UnaryOp(
      a, [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Var Log(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Var Square(const Var& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Var LogSigmoid(const Var& a) {
  return UnaryOp(
      a, [](float x) { return -StableSoftplus(-x); },
      [](float x, float) { return 1.0f - StableSigmoid(x); });
}

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

Var Sum(const Var& a) {
  Tensor out = Tensor::Scalar(static_cast<float>(a.value().Sum()));
  return MakeOpVar(std::move(out), {a}, [](VarNode& n) {
    if (!n.parents[0]->requires_grad) return;
    const float g = n.grad.item();
    Tensor& pg = n.parents[0]->EnsureGrad();
    float* dst = pg.data();
    for (int64_t i = 0; i < pg.numel(); ++i) dst[i] += g;
  });
}

Var Mean(const Var& a) {
  MGBR_CHECK_GT(a.value().numel(), 0);
  const float inv = 1.0f / static_cast<float>(a.value().numel());
  Tensor out = Tensor::Scalar(static_cast<float>(a.value().Sum()) * inv);
  return MakeOpVar(std::move(out), {a}, [inv](VarNode& n) {
    if (!n.parents[0]->requires_grad) return;
    const float g = n.grad.item() * inv;
    Tensor& pg = n.parents[0]->EnsureGrad();
    float* dst = pg.data();
    for (int64_t i = 0; i < pg.numel(); ++i) dst[i] += g;
  });
}

Var RowSum(const Var& a) {
  Tensor out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.value().data() + r * a.cols();
    double acc = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) acc += src[c];
    out.data()[r] = static_cast<float>(acc);
  }
  return MakeOpVar(std::move(out), {a}, [](VarNode& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& pg = n.parents[0]->EnsureGrad();
    for (int64_t r = 0; r < pg.rows(); ++r) {
      const float g = n.grad.data()[r];
      float* dst = pg.data() + r * pg.cols();
      for (int64_t c = 0; c < pg.cols(); ++c) dst[c] += g;
    }
  });
}

Var SumOverRows(const Var& a) {
  Tensor out(1, a.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* src = a.value().data() + r * a.cols();
    float* dst = out.data();
    for (int64_t c = 0; c < a.cols(); ++c) dst[c] += src[c];
  }
  return MakeOpVar(std::move(out), {a}, [](VarNode& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& pg = n.parents[0]->EnsureGrad();
    for (int64_t r = 0; r < pg.rows(); ++r) {
      float* dst = pg.data() + r * pg.cols();
      const float* g = n.grad.data();
      for (int64_t c = 0; c < pg.cols(); ++c) dst[c] += g[c];
    }
  });
}

Var MeanOverRows(const Var& a) {
  MGBR_CHECK_GT(a.rows(), 0);
  return MulScalar(SumOverRows(a), 1.0f / static_cast<float>(a.rows()));
}

// ---------------------------------------------------------------------------
// Row-wise inner products.
// ---------------------------------------------------------------------------

Var RowDot(const Var& a, const Var& b) {
  MGBR_CHECK(a.value().same_shape(b.value()));
  const int64_t d = a.cols();
  Tensor out(a.rows(), 1);
  const float* ap = a.value().data();
  const float* bp = b.value().data();
  float* op = out.data();
  ParallelFor(0, a.rows(), RowGrain(d), [=](int64_t lo, int64_t hi) {
    kernels::DotRows(ap, d, bp, op, lo, hi, d);
  });
  return MakeOpVar(std::move(out), {a, b}, [](VarNode& n) {
    // a gets g[r] * b[r,:], then b gets g[r] * a[r,:]. Each product is
    // stored before AccumulateInPlace adds it, so no FMA can merge the
    // two roundings: the gradients are RowSum(Mul(a, b))'s, bit for bit.
    for (int p = 0; p < 2; ++p) {
      if (!n.parents[p]->requires_grad) continue;
      Tensor d = n.parents[1 - p]->value;
      const int64_t cols = d.cols();
      float* dp = d.data();
      const float* gp = n.grad.data();
      ParallelFor(0, d.rows(), RowGrain(cols), [=](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          for (int64_t c = 0; c < cols; ++c) dp[r * cols + c] *= gp[r];
        }
      });
      n.parents[p]->EnsureGrad().AccumulateInPlace(d);
    }
  });
}

Var DotAllRows(const Var& source, int64_t row, const Var& table) {
  MGBR_CHECK_MSG(NoGradScope::Active(),
                 "DotAllRows is untaped; call it inside a NoGradScope");
  MGBR_CHECK(row >= 0 && row < source.rows());
  MGBR_CHECK_EQ(source.cols(), table.cols());
  const int64_t d = table.cols();
  Tensor out(table.rows(), 1);
  const float* query = source.value().data() + row * d;
  const float* tp = table.value().data();
  float* op = out.data();
  ParallelFor(0, table.rows(), RowGrain(d), [=](int64_t lo, int64_t hi) {
    kernels::DotRows(query, /*a_stride=*/0, tp, op, lo, hi, d);
  });
  return Var(std::move(out));
}

// ---------------------------------------------------------------------------
// Softmax & losses.
// ---------------------------------------------------------------------------

Var BlockMix(const Var& blocks, const Var& weights, int64_t block_dim) {
  const int64_t b = blocks.rows();
  const int64_t k = weights.cols();
  MGBR_CHECK_EQ(weights.rows(), b);
  MGBR_CHECK_EQ(blocks.cols(), k * block_dim);
  Tensor out(b, block_dim);
  {
    const float* ep = blocks.value().data();
    const float* wp = weights.value().data();
    float* op = out.data();
    ParallelFor(0, b, RowGrain(k * block_dim), [=](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        const float* erow = ep + r * k * block_dim;
        const float* wrow = wp + r * k;
        float* orow = op + r * block_dim;
        for (int64_t kk = 0; kk < k; ++kk) {
          const float w = wrow[kk];
          const float* eblk = erow + kk * block_dim;
          for (int64_t j = 0; j < block_dim; ++j) orow[j] += w * eblk[j];
        }
      }
    });
  }
  return MakeOpVar(
      std::move(out), {blocks, weights}, [block_dim, k](VarNode& n) {
        const Tensor& ev = n.parents[0]->value;
        const Tensor& wv = n.parents[1]->value;
        const int64_t b2 = ev.rows();
        const int64_t grain = RowGrain(k * block_dim);
        if (n.parents[0]->requires_grad) {
          Tensor& eg = n.parents[0]->EnsureGrad();
          ParallelFor(0, b2, grain, [&, block_dim, k](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
              const float* grow = n.grad.data() + r * block_dim;
              const float* wrow = wv.data() + r * k;
              float* egrow = eg.data() + r * k * block_dim;
              for (int64_t kk = 0; kk < k; ++kk) {
                const float w = wrow[kk];
                float* eblk = egrow + kk * block_dim;
                for (int64_t j = 0; j < block_dim; ++j) eblk[j] += w * grow[j];
              }
            }
          });
        }
        if (n.parents[1]->requires_grad) {
          Tensor& wg = n.parents[1]->EnsureGrad();
          ParallelFor(0, b2, grain, [&, block_dim, k](int64_t lo, int64_t hi) {
            for (int64_t r = lo; r < hi; ++r) {
              const float* grow = n.grad.data() + r * block_dim;
              const float* erow = ev.data() + r * k * block_dim;
              float* wgrow = wg.data() + r * k;
              for (int64_t kk = 0; kk < k; ++kk) {
                const float* eblk = erow + kk * block_dim;
                double acc = 0.0;
                for (int64_t j = 0; j < block_dim; ++j) {
                  acc += grow[j] * eblk[j];
                }
                wgrow[kk] += static_cast<float>(acc);
              }
            }
          });
        }
      });
}

Var RowSoftmax(const Var& a) {
  Tensor out = a.value();
  const int64_t cols = out.cols();
  float* op = out.data();
  ParallelFor(0, out.rows(), RowGrain(cols), [op, cols](int64_t lo,
                                                        int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* row = op + r * cols;
      float mx = row[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      double denom = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        row[c] = std::exp(row[c] - mx);
        denom += row[c];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t c = 0; c < cols; ++c) row[c] *= inv;
    }
  });
  Tensor saved = out;
  return MakeOpVar(std::move(out), {a}, [saved](VarNode& n) {
    if (!n.parents[0]->requires_grad) return;
    // dx = y ⊙ (g - rowsum(g ⊙ y))
    Tensor d = n.grad;
    const int64_t dcols = d.cols();
    float* dbase = d.data();
    const float* ybase = saved.data();
    ParallelFor(0, d.rows(), RowGrain(dcols),
                [dbase, ybase, dcols](int64_t lo, int64_t hi) {
                  for (int64_t r = lo; r < hi; ++r) {
                    float* dp = dbase + r * dcols;
                    const float* yp = ybase + r * dcols;
                    double dot = 0.0;
                    for (int64_t c = 0; c < dcols; ++c) dot += dp[c] * yp[c];
                    for (int64_t c = 0; c < dcols; ++c) {
                      dp[c] = yp[c] * (dp[c] - static_cast<float>(dot));
                    }
                  }
                });
    n.parents[0]->EnsureGrad().AccumulateInPlace(d);
  });
}

Var BprLoss(const Var& pos_scores, const Var& neg_scores) {
  MGBR_CHECK(pos_scores.value().same_shape(neg_scores.value()));
  MGBR_CHECK_EQ(pos_scores.cols(), 1);
  return Neg(Mean(LogSigmoid(Sub(pos_scores, neg_scores))));
}

Var ListNetLoss(const Var& scores, const Tensor& target) {
  MGBR_CHECK(scores.value().same_shape(target));
  Var log_probs = Log(AddScalar(RowSoftmax(scores), 1e-12f));
  Var target_var(target, /*requires_grad=*/false);
  return Neg(Mean(RowSum(Mul(log_probs, target_var))));
}

}  // namespace mgbr
