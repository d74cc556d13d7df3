#ifndef MGBR_TENSOR_KERNELS_H_
#define MGBR_TENSOR_KERNELS_H_

#include <cstdint>

namespace mgbr {
namespace kernels {

/// Vectorized, cache-blocked compute kernels behind the dense hot paths
/// (GEMM, SpMM, elementwise chains). Every kernel exists in two
/// variants compiled from the same source: `simd::` (inner loops carry
/// `#pragma omp simd`) and `scalar::` (no pragma). The public
/// free functions dispatch on `SimdEnabled()`.
///
/// Determinism contract (see docs/performance.md):
///  * Vectorization happens only over independent output lanes (the
///    `j` loops), never over a reduction, so lane order is irrelevant.
///  * Dot-product reductions (`GemmRowsABt`) accumulate into kLanes
///    fixed-width partial sums (lane l owns k indices with
///    k mod kLanes == l) followed by a pairwise tree reduction
///    (l, l+4), (s, s+2), (s, s+1) and a sequential tail; the order is
///    identical in both variants.
///  * The one exception is `DotRows`, which sums each row sequentially
///    in double because it must equal `RowSum(Mul(a, b))` bit for bit:
///    the dot-product models' recorded scores and trained weights
///    depend on that order (tests/models_test.cc pins them). It is not
///    vectorized either.
///  * Every translation unit under src/, this one included, is compiled
///    with -ffp-contract=off, so neither variant silently fuses a*b+c
///    into an FMA the other does not.
/// Together these make simd-on and simd-off outputs bit-identical,
/// which tests/kernels_test.cc asserts.

/// Activation codes shared with nn.h (plain enum here so the kernel
/// layer does not depend on the autograd headers).
enum class Act : int { kNone = 0, kRelu = 1, kSigmoid = 2, kTanh = 3 };

/// Whether the dispatching wrappers use the `simd::` variants.
/// Default: the MGBR_SIMD CMake option, overridable by the MGBR_SIMD
/// environment variable ("0" disables) and at runtime by
/// SetSimdEnabled (tests, benchmarks).
bool SimdEnabled();
void SetSimdEnabled(bool on);

// ---------------------------------------------------------------------------
// Dense GEMM row-range kernels.
//
// All three accumulate into `m` contiguous rows of C (row-major,
// leading dimension n) and are safe to call concurrently on disjoint
// row ranges — ParallelFor partitions rows at the call site. C must
// not alias A or B.
// ---------------------------------------------------------------------------

/// C[0..m) += A[0..m) @ B. A is m x k (row-major, ld k), B is k x n.
void GemmRowsAB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

/// C[0..m) += (Aᵀ @ B)[col0..col0+m). A is k x a_cols (row-major);
/// output row i is column col0+i of A against B (k x n).
void GemmRowsAtB(const float* a, int64_t a_cols, int64_t col0,
                 const float* b, float* c, int64_t m, int64_t k, int64_t n);

/// C[0..m) += A[0..m) @ Bᵀ. A is m x k, B is n x k; C(i,j) accumulates
/// dot(A row i, B row j) via the fixed-lane reduction described above.
void GemmRowsABt(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n);

/// out[r] = float(sum_c double(a[r * a_stride + c] * b[r * d + c])) for
/// r in [row_begin, row_end). Each product is rounded to float before
/// it is widened, and the double sum runs sequentially in c, so a row
/// is bitwise RowSum(Mul(a, b)). `a_stride` is d for a batch of row
/// pairs (RowDot) or 0 to score one query row against every row of b
/// (DotAllRows). Rows are independent outputs, so ParallelFor may
/// partition them freely.
void DotRows(const float* a, int64_t a_stride, const float* b, float* out,
             int64_t row_begin, int64_t row_end, int64_t d);

// ---------------------------------------------------------------------------
// Sparse (CSR) row kernels.
// ---------------------------------------------------------------------------

/// out[row_begin..row_end) += CSR rows @ X, where X has `d` columns.
/// Row r of `out` accumulates values[e] * X[col_idx[e]] for
/// e in [row_ptr[r], row_ptr[r+1]), sequentially in e and vectorized
/// over the d output lanes.
void SpmmRows(const int64_t* row_ptr, const int64_t* col_idx,
              const float* values, const float* x, float* out,
              int64_t row_begin, int64_t row_end, int64_t d);

// ---------------------------------------------------------------------------
// Elementwise kernels.
// ---------------------------------------------------------------------------

/// dst[i] += src[i].
void AddInPlace(float* dst, const float* src, int64_t n);
/// dst[i] -= src[i].
void SubInPlace(float* dst, const float* src, int64_t n);
/// dst[i] *= src[i].
void MulInPlace(float* dst, const float* src, int64_t n);
/// dst[i] *= s.
void ScaleInPlace(float* dst, float s, int64_t n);

/// Fused y = act(x + bias) over a row-major block: `rows` rows of
/// `cols` columns, bias broadcast along rows. x and y may alias.
void BiasActForward(Act act, const float* x, const float* bias, float* y,
                    int64_t rows, int64_t cols);

/// g[i] *= act'(y[i]) where y is the saved forward output; the local
/// derivative of every supported activation is a function of y alone.
void ActGradInPlace(Act act, float* g, const float* y, int64_t n);

// ---------------------------------------------------------------------------
// Quantized-table kernels (bf16 / int8 storage, fp32 compute).
//
// Storage conversions are elementwise and exactly specified (RNE), so
// quantized bytes are identical across simd/scalar variants and thread
// counts. The GEMV kernels reuse the GemmRowsABt fixed-lane reduction
// (kLanes partial sums + pairwise tree + sequential tail) on the
// decoded values, so quantized scores carry the same determinism
// contract as the fp32 path. See docs/quantization.md.
// ---------------------------------------------------------------------------

/// dst[i] = bf16(src[i]) with round-to-nearest-even (NaNs quieted).
void Fp32ToBf16(const float* src, uint16_t* dst, int64_t n);
/// dst[i] = fp32(src[i]); exact — every bf16 value is an fp32 value.
void Bf16ToFp32(const uint16_t* src, float* dst, int64_t n);
/// Per-row symmetric int8 quantization of a row-major rows x cols
/// block: scales[r] = maxabs(row r) / 127 (0 for an all-zero row),
/// codes = nearbyint(src * (127 / maxabs)) clamped to [-127, 127].
void QuantizeInt8Rows(const float* src, int8_t* dst, float* scales,
                      int64_t rows, int64_t cols);
/// dst[i] = scale * src[i] — the exact decode the int8 GEMV scores with.
void DequantizeInt8Row(const int8_t* src, float scale, float* dst, int64_t n);

/// out[r] = dot(query, table row r) for r in [row_begin, row_end);
/// `table` is n x d row-major in the named storage format. Rows are
/// independent outputs, so ParallelFor may partition [0, n) freely.
void GemvRowsFp32(const float* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d);
void GemvRowsBf16(const uint16_t* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d);
/// Int8 rows decode as scales[r] * code; the dot accumulates
/// query[j] * float(code[j]) in fp32 and applies scales[r] once.
void GemvRowsInt8(const int8_t* table, const float* scales,
                  const float* query, float* out, int64_t row_begin,
                  int64_t row_end, int64_t d);

// Variant namespaces (both always compiled; tests compare them
// bitwise). Signatures mirror the dispatchers above.
namespace simd {
void GemmRowsAB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);
void GemmRowsAtB(const float* a, int64_t a_cols, int64_t col0,
                 const float* b, float* c, int64_t m, int64_t k, int64_t n);
void GemmRowsABt(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n);
void DotRows(const float* a, int64_t a_stride, const float* b, float* out,
             int64_t row_begin, int64_t row_end, int64_t d);
void SpmmRows(const int64_t* row_ptr, const int64_t* col_idx,
              const float* values, const float* x, float* out,
              int64_t row_begin, int64_t row_end, int64_t d);
void AddInPlace(float* dst, const float* src, int64_t n);
void SubInPlace(float* dst, const float* src, int64_t n);
void MulInPlace(float* dst, const float* src, int64_t n);
void ScaleInPlace(float* dst, float s, int64_t n);
void BiasActForward(Act act, const float* x, const float* bias, float* y,
                    int64_t rows, int64_t cols);
void ActGradInPlace(Act act, float* g, const float* y, int64_t n);
void Fp32ToBf16(const float* src, uint16_t* dst, int64_t n);
void Bf16ToFp32(const uint16_t* src, float* dst, int64_t n);
void QuantizeInt8Rows(const float* src, int8_t* dst, float* scales,
                      int64_t rows, int64_t cols);
void DequantizeInt8Row(const int8_t* src, float scale, float* dst, int64_t n);
void GemvRowsFp32(const float* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d);
void GemvRowsBf16(const uint16_t* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d);
void GemvRowsInt8(const int8_t* table, const float* scales,
                  const float* query, float* out, int64_t row_begin,
                  int64_t row_end, int64_t d);
}  // namespace simd

namespace scalar {
void GemmRowsAB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);
void GemmRowsAtB(const float* a, int64_t a_cols, int64_t col0,
                 const float* b, float* c, int64_t m, int64_t k, int64_t n);
void GemmRowsABt(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n);
void DotRows(const float* a, int64_t a_stride, const float* b, float* out,
             int64_t row_begin, int64_t row_end, int64_t d);
void SpmmRows(const int64_t* row_ptr, const int64_t* col_idx,
              const float* values, const float* x, float* out,
              int64_t row_begin, int64_t row_end, int64_t d);
void AddInPlace(float* dst, const float* src, int64_t n);
void SubInPlace(float* dst, const float* src, int64_t n);
void MulInPlace(float* dst, const float* src, int64_t n);
void ScaleInPlace(float* dst, float s, int64_t n);
void BiasActForward(Act act, const float* x, const float* bias, float* y,
                    int64_t rows, int64_t cols);
void ActGradInPlace(Act act, float* g, const float* y, int64_t n);
void Fp32ToBf16(const float* src, uint16_t* dst, int64_t n);
void Bf16ToFp32(const uint16_t* src, float* dst, int64_t n);
void QuantizeInt8Rows(const float* src, int8_t* dst, float* scales,
                      int64_t rows, int64_t cols);
void DequantizeInt8Row(const int8_t* src, float scale, float* dst, int64_t n);
void GemvRowsFp32(const float* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d);
void GemvRowsBf16(const uint16_t* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d);
void GemvRowsInt8(const int8_t* table, const float* scales,
                  const float* query, float* out, int64_t row_begin,
                  int64_t row_end, int64_t d);
}  // namespace scalar

}  // namespace kernels
}  // namespace mgbr

#endif  // MGBR_TENSOR_KERNELS_H_
