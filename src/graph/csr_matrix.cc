#include "graph/csr_matrix.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "tensor/kernels.h"

namespace mgbr {

namespace {

/// Target scalar multiply-adds per SpMM chunk; rows are grouped so the
/// fork/join overhead stays small on sparse rows.
constexpr int64_t kSpmmChunkWork = 1 << 14;

/// Row-chunk boundaries balanced by cumulative nnz: each chunk owns a
/// contiguous row range holding roughly kSpmmChunkWork / d entries.
/// row_ptr IS the cumulative-nnz array, so boundaries cost one scan.
/// The previous scheme fixed rows-per-chunk from the AVERAGE degree,
/// which left threads idle on skewed-degree graphs (one hub row could
/// carry a whole chunk's work). Chunks still partition row ownership —
/// each output row is accumulated sequentially by exactly one chunk —
/// so results stay bit-identical for every thread count.
std::vector<int64_t> NnzBalancedBounds(const int64_t* row_ptr, int64_t rows,
                                       int64_t dense_cols) {
  std::vector<int64_t> bounds = {0};
  const int64_t target = std::max<int64_t>(
      1, kSpmmChunkWork / std::max<int64_t>(1, dense_cols));
  int64_t chunk_start_nnz = 0;
  for (int64_t r = 0; r < rows; ++r) {
    if (row_ptr[r + 1] - chunk_start_nnz >= target) {
      bounds.push_back(r + 1);
      chunk_start_nnz = row_ptr[r + 1];
    }
  }
  if (bounds.back() != rows) bounds.push_back(rows);
  return bounds;
}

}  // namespace

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), row_ptr_(static_cast<size_t>(rows) + 1, 0) {
  MGBR_CHECK_GE(rows, 0);
  MGBR_CHECK_GE(cols, 0);
}

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols, std::vector<int64_t> row_ptr,
                     std::vector<int64_t> col_idx, std::vector<float> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  MGBR_CHECK_GE(rows, 0);
  MGBR_CHECK_GE(cols, 0);
  MGBR_CHECK_EQ(row_ptr_.size(), static_cast<size_t>(rows) + 1);
  MGBR_CHECK_EQ(row_ptr_.front(), 0);
  MGBR_CHECK_EQ(row_ptr_.back(), static_cast<int64_t>(col_idx_.size()));
  MGBR_CHECK_EQ(col_idx_.size(), values_.size());
  for (int64_t r = 0; r < rows; ++r) {
    auto [begin, end] = RowRange(r);
    MGBR_CHECK(begin <= end && end <= row_ptr_.back());
    int64_t prev = -1;
    for (int64_t k = begin; k < end; ++k) {
      const int64_t c = col_idx_[static_cast<size_t>(k)];
      MGBR_CHECK_MSG(c > prev && c < cols, "CSR row ", r,
                     " is not strictly increasing within ", cols,
                     " columns at column ", c);
      prev = c;
    }
  }
}

CsrMatrix CsrMatrix::FromCoo(int64_t rows, int64_t cols,
                             std::vector<Coo> entries) {
  MGBR_CHECK_GE(rows, 0);
  std::vector<int64_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
  for (const Coo& e : entries) {
    MGBR_CHECK_MSG(e.row >= 0 && e.row < rows && e.col >= 0 && e.col < cols,
                   "COO entry out of bounds: (", e.row, ", ", e.col,
                   ") for shape ", rows, "x", cols);
    ++row_ptr[static_cast<size_t>(e.row) + 1];
  }
  for (size_t r = 1; r < row_ptr.size(); ++r) row_ptr[r] += row_ptr[r - 1];
  // Stable scatter: each row's bucket keeps its entries in input order.
  std::vector<int64_t> col_idx(entries.size());
  std::vector<float> values(entries.size());
  {
    std::vector<int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
    for (const Coo& e : entries) {
      const size_t slot =
          static_cast<size_t>(cursor[static_cast<size_t>(e.row)]++);
      col_idx[slot] = e.col;
      values[slot] = e.value;
    }
  }
  std::vector<Coo>().swap(entries);
  // Sort each row by column (stably, so duplicates meet in input order)
  // and merge duplicates, compacting in place: a row never starts after
  // its bucket did.
  std::vector<std::pair<int64_t, float>> row;
  size_t out = 0;
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    const size_t begin = static_cast<size_t>(row_ptr[r]);
    const size_t end = static_cast<size_t>(row_ptr[r + 1]);
    row.clear();
    for (size_t k = begin; k < end; ++k) {
      row.emplace_back(col_idx[k], values[k]);
    }
    std::stable_sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    row_ptr[r] = static_cast<int64_t>(out);
    for (size_t k = 0; k < row.size();) {
      const int64_t c = row[k].first;
      float v = 0.0f;
      for (; k < row.size() && row[k].first == c; ++k) v += row[k].second;
      col_idx[out] = c;
      values[out] = v;
      ++out;
    }
  }
  row_ptr.back() = static_cast<int64_t>(out);
  col_idx.resize(out);
  values.resize(out);
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

const CsrMatrix::Transpose& CsrMatrix::transpose() const {
  std::call_once(*transpose_once_, [this] {
    // Counting sort of the CSR entries by column. The per-column entry
    // lists come out ordered by ascending original row, which keeps the
    // TransposeMultiply accumulation order identical to the historical
    // row-scan kernel.
    auto t = std::make_unique<Transpose>();
    t->row_ptr.assign(static_cast<size_t>(cols_) + 1, 0);
    t->col_idx.resize(col_idx_.size());
    t->values.resize(values_.size());
    for (int64_t c : col_idx_) ++t->row_ptr[static_cast<size_t>(c) + 1];
    for (size_t c = 1; c < t->row_ptr.size(); ++c) {
      t->row_ptr[c] += t->row_ptr[c - 1];
    }
    std::vector<int64_t> cursor(t->row_ptr.begin(), t->row_ptr.end() - 1);
    for (int64_t r = 0; r < rows_; ++r) {
      auto [begin, end] = RowRange(r);
      for (int64_t k = begin; k < end; ++k) {
        const int64_t c = col_idx_[static_cast<size_t>(k)];
        const size_t slot =
            static_cast<size_t>(cursor[static_cast<size_t>(c)]++);
        t->col_idx[slot] = r;
        t->values[slot] = values_[static_cast<size_t>(k)];
      }
    }
    transpose_ = std::move(t);
  });
  return *transpose_;
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  std::vector<Coo> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) entries.push_back({i, i, 1.0f});
  return FromCoo(n, n, std::move(entries));
}

float CsrMatrix::At(int64_t r, int64_t c) const {
  auto [begin, end] = RowRange(r);
  auto first = col_idx_.begin() + begin;
  auto last = col_idx_.begin() + end;
  auto it = std::lower_bound(first, last, c);
  if (it != last && *it == c) {
    return values_[static_cast<size_t>(it - col_idx_.begin())];
  }
  return 0.0f;
}

Tensor CsrMatrix::Multiply(const Tensor& dense) const {
  MGBR_CHECK_EQ(dense.rows(), cols_);
  const int64_t d = dense.cols();
  Tensor out(rows_, d);
  const float* xp = dense.data();
  float* op = out.data();
  // Row-partitioned with nnz-balanced chunk boundaries: each output
  // row is accumulated by exactly one chunk, sequentially over its CSR
  // entries, so the result is bit-identical for every thread count.
  const std::vector<int64_t> bounds =
      NnzBalancedBounds(row_ptr_.data(), rows_, d);
  ParallelFor(0, static_cast<int64_t>(bounds.size()) - 1, 1,
              [&, xp, op, d](int64_t lo, int64_t hi) {
                for (int64_t c = lo; c < hi; ++c) {
                  kernels::SpmmRows(row_ptr_.data(), col_idx_.data(),
                                    values_.data(), xp, op,
                                    bounds[static_cast<size_t>(c)],
                                    bounds[static_cast<size_t>(c) + 1], d);
                }
              });
  return out;
}

Tensor CsrMatrix::TransposeMultiply(const Tensor& dense) const {
  MGBR_CHECK_EQ(dense.rows(), rows_);
  const int64_t d = dense.cols();
  Tensor out(cols_, d);
  const float* xp = dense.data();
  float* op = out.data();
  // Uses the transpose (CSC view) so every output row — a column of
  // this matrix — is owned by exactly one chunk; chunk boundaries
  // balance cumulative nnz, not row count.
  const Transpose& t = transpose();
  const std::vector<int64_t> bounds =
      NnzBalancedBounds(t.row_ptr.data(), cols_, d);
  ParallelFor(0, static_cast<int64_t>(bounds.size()) - 1, 1,
              [&, xp, op, d](int64_t lo, int64_t hi) {
                for (int64_t c = lo; c < hi; ++c) {
                  kernels::SpmmRows(t.row_ptr.data(), t.col_idx.data(),
                                    t.values.data(), xp, op,
                                    bounds[static_cast<size_t>(c)],
                                    bounds[static_cast<size_t>(c) + 1], d);
                }
              });
  return out;
}

std::vector<double> CsrMatrix::RowSums() const {
  std::vector<double> sums(static_cast<size_t>(rows_), 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    auto [begin, end] = RowRange(r);
    for (int64_t k = begin; k < end; ++k) {
      sums[static_cast<size_t>(r)] += values_[static_cast<size_t>(k)];
    }
  }
  return sums;
}

Tensor CsrMatrix::ToDense() const {
  Tensor out(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    auto [begin, end] = RowRange(r);
    for (int64_t k = begin; k < end; ++k) {
      out.at(r, col_idx_[static_cast<size_t>(k)]) =
          values_[static_cast<size_t>(k)];
    }
  }
  return out;
}

}  // namespace mgbr
