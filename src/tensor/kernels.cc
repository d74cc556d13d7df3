#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

// Both kernel variants are instantiated from one implementation file so
// their loop bodies can never drift apart (the bitwise-equality tests
// in tests/kernels_test.cc compare them directly). This translation
// unit is compiled with -fopenmp-simd (honor the pragmas; see
// src/tensor/CMakeLists.txt) and, like all of src/, -ffp-contract=off
// (no silent FMA divergence between the variants; see
// src/CMakeLists.txt).

#define MGBR_KERNELS_NS simd
#define MGBR_KERNELS_USE_SIMD 1
#include "tensor/kernels_impl.inc"
#undef MGBR_KERNELS_NS
#undef MGBR_KERNELS_USE_SIMD

#define MGBR_KERNELS_NS scalar
#define MGBR_KERNELS_USE_SIMD 0
#include "tensor/kernels_impl.inc"
#undef MGBR_KERNELS_NS
#undef MGBR_KERNELS_USE_SIMD

namespace mgbr {
namespace kernels {

namespace {

#ifndef MGBR_SIMD_DEFAULT
#define MGBR_SIMD_DEFAULT 1
#endif

bool InitialSimdEnabled() {
  const char* env = std::getenv("MGBR_SIMD");
  if (env != nullptr && *env != '\0') {
    return !(env[0] == '0' && env[1] == '\0');
  }
  return MGBR_SIMD_DEFAULT != 0;
}

std::atomic<bool>& SimdFlag() {
  static std::atomic<bool> flag{InitialSimdEnabled()};
  return flag;
}

}  // namespace

bool SimdEnabled() { return SimdFlag().load(std::memory_order_relaxed); }

void SetSimdEnabled(bool on) {
  SimdFlag().store(on, std::memory_order_relaxed);
}

#define MGBR_KERNELS_DISPATCH(fn, ...)    \
  do {                                    \
    if (SimdEnabled()) {                  \
      simd::fn(__VA_ARGS__);              \
    } else {                              \
      scalar::fn(__VA_ARGS__);            \
    }                                     \
  } while (0)

void GemmRowsAB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  MGBR_KERNELS_DISPATCH(GemmRowsAB, a, b, c, m, k, n);
}

void GemmRowsAtB(const float* a, int64_t a_cols, int64_t col0,
                 const float* b, float* c, int64_t m, int64_t k, int64_t n) {
  MGBR_KERNELS_DISPATCH(GemmRowsAtB, a, a_cols, col0, b, c, m, k, n);
}

void GemmRowsABt(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n) {
  MGBR_KERNELS_DISPATCH(GemmRowsABt, a, b, c, m, k, n);
}

void DotRows(const float* a, int64_t a_stride, const float* b, float* out,
             int64_t row_begin, int64_t row_end, int64_t d) {
  MGBR_KERNELS_DISPATCH(DotRows, a, a_stride, b, out, row_begin, row_end, d);
}

void SpmmRows(const int64_t* row_ptr, const int64_t* col_idx,
              const float* values, const float* x, float* out,
              int64_t row_begin, int64_t row_end, int64_t d) {
  MGBR_KERNELS_DISPATCH(SpmmRows, row_ptr, col_idx, values, x, out,
                        row_begin, row_end, d);
}

void AddInPlace(float* dst, const float* src, int64_t n) {
  MGBR_KERNELS_DISPATCH(AddInPlace, dst, src, n);
}

void SubInPlace(float* dst, const float* src, int64_t n) {
  MGBR_KERNELS_DISPATCH(SubInPlace, dst, src, n);
}

void MulInPlace(float* dst, const float* src, int64_t n) {
  MGBR_KERNELS_DISPATCH(MulInPlace, dst, src, n);
}

void ScaleInPlace(float* dst, float s, int64_t n) {
  MGBR_KERNELS_DISPATCH(ScaleInPlace, dst, s, n);
}

void BiasActForward(Act act, const float* x, const float* bias, float* y,
                    int64_t rows, int64_t cols) {
  MGBR_KERNELS_DISPATCH(BiasActForward, act, x, bias, y, rows, cols);
}

void ActGradInPlace(Act act, float* g, const float* y, int64_t n) {
  MGBR_KERNELS_DISPATCH(ActGradInPlace, act, g, y, n);
}

void Fp32ToBf16(const float* src, uint16_t* dst, int64_t n) {
  MGBR_KERNELS_DISPATCH(Fp32ToBf16, src, dst, n);
}

void Bf16ToFp32(const uint16_t* src, float* dst, int64_t n) {
  MGBR_KERNELS_DISPATCH(Bf16ToFp32, src, dst, n);
}

void QuantizeInt8Rows(const float* src, int8_t* dst, float* scales,
                      int64_t rows, int64_t cols) {
  MGBR_KERNELS_DISPATCH(QuantizeInt8Rows, src, dst, scales, rows, cols);
}

void DequantizeInt8Row(const int8_t* src, float scale, float* dst,
                       int64_t n) {
  MGBR_KERNELS_DISPATCH(DequantizeInt8Row, src, scale, dst, n);
}

void GemvRowsFp32(const float* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d) {
  MGBR_KERNELS_DISPATCH(GemvRowsFp32, table, query, out, row_begin, row_end,
                        d);
}

void GemvRowsBf16(const uint16_t* table, const float* query, float* out,
                  int64_t row_begin, int64_t row_end, int64_t d) {
  MGBR_KERNELS_DISPATCH(GemvRowsBf16, table, query, out, row_begin, row_end,
                        d);
}

void GemvRowsInt8(const int8_t* table, const float* scales,
                  const float* query, float* out, int64_t row_begin,
                  int64_t row_end, int64_t d) {
  MGBR_KERNELS_DISPATCH(GemvRowsInt8, table, scales, query, out, row_begin,
                        row_end, d);
}

#undef MGBR_KERNELS_DISPATCH

}  // namespace kernels
}  // namespace mgbr
