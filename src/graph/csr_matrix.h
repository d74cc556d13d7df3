#ifndef MGBR_GRAPH_CSR_MATRIX_H_
#define MGBR_GRAPH_CSR_MATRIX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "tensor/tensor.h"

namespace mgbr {

/// A single weighted edge used to build sparse matrices.
struct Coo {
  int64_t row;
  int64_t col;
  float value;
};

/// Immutable square-or-rectangular sparse matrix in CSR layout.
///
/// Always canonical: each row's columns are strictly increasing, so
/// equal matrices hold byte-identical arrays however they were built.
/// Built once and then used read-only for SpMM inside GCN propagation.
/// Row-major CSR matches the dense row-major Tensor layout so
/// `out = A @ X` streams X rows.
class CsrMatrix {
 public:
  /// Empty matrix of the given shape.
  CsrMatrix(int64_t rows, int64_t cols);

  /// Takes canonical CSR arrays: `row_ptr` holds rows + 1 non-decreasing
  /// offsets from 0 to nnz, and each row's columns are strictly
  /// increasing within [0, cols). Checked in O(nnz + rows).
  CsrMatrix(int64_t rows, int64_t cols, std::vector<int64_t> row_ptr,
            std::vector<int64_t> col_idx, std::vector<float> values);

  /// Builds from COO triplets in O(nnz + rows): a counting pass buckets
  /// the entries by row, then each row is sorted by column. Duplicate
  /// (row, col) entries are summed in input order.
  static CsrMatrix FromCoo(int64_t rows, int64_t cols,
                           std::vector<Coo> entries);

  /// Identity matrix of size n.
  static CsrMatrix Identity(int64_t n);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Entries in row `r` as [begin, end) offsets into col_idx/values.
  std::pair<int64_t, int64_t> RowRange(int64_t r) const {
    MGBR_DCHECK(r >= 0 && r < rows_);
    return {row_ptr_[static_cast<size_t>(r)],
            row_ptr_[static_cast<size_t>(r) + 1]};
  }

  /// Value at (r, c); zero if no entry exists (O(log nnz_row)).
  float At(int64_t r, int64_t c) const;

  /// out = this @ dense. dense must be (cols() x d).
  Tensor Multiply(const Tensor& dense) const;

  /// out = thisᵀ @ dense. dense must be (rows() x d). Used by the SpMM
  /// backward pass; reads the transpose layout (built by the first
  /// call) so the kernel is row-parallel over output rows.
  Tensor TransposeMultiply(const Tensor& dense) const;

  /// Per-row sum of values (weighted out-degree).
  std::vector<double> RowSums() const;

  /// Materializes to a dense Tensor (tests only; O(rows*cols) memory).
  Tensor ToDense() const;

 private:
  /// Transpose in CSR layout (== CSC of this matrix), so
  /// TransposeMultiply can partition output rows across threads without
  /// scatter races. Entry lists are ordered by ascending original row.
  struct Transpose {
    std::vector<int64_t> row_ptr;
    std::vector<int64_t> col_idx;
    std::vector<float> values;
  };

  /// Builds the transpose once, on first use by any thread. Only
  /// training's SpMM backward reads it, so a graph that is only
  /// normalized, or only propagated forward, never pays for it.
  const Transpose& transpose() const;

  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int64_t> col_idx_;
  std::vector<float> values_;
  mutable std::unique_ptr<std::once_flag> transpose_once_ =
      std::make_unique<std::once_flag>();
  mutable std::unique_ptr<const Transpose> transpose_;
};

}  // namespace mgbr

#endif  // MGBR_GRAPH_CSR_MATRIX_H_
