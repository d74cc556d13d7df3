#include "graph/graph.h"

#include <cmath>
#include <utility>

namespace mgbr {
namespace {

/// Emits both directions of an undirected edge.
void AddSymmetric(std::vector<Coo>* entries, int64_t a, int64_t b) {
  entries->push_back({a, b, 1.0f});
  entries->push_back({b, a, 1.0f});
}

/// Replaces every stored value with 1 (binary adjacency). The pattern
/// is already sorted and merged, so it is copied as it stands.
CsrMatrix BinaryClamp(const CsrMatrix& raw) {
  return CsrMatrix(raw.rows(), raw.cols(), raw.row_ptr(), raw.col_idx(),
                   std::vector<float>(static_cast<size_t>(raw.nnz()), 1.0f));
}

}  // namespace

void GraphBuilder::AddLaunch(int64_t u, int64_t i) {
  MGBR_CHECK(u >= 0 && u < n_users_);
  MGBR_CHECK(i >= 0 && i < n_items_);
  launches_.emplace_back(u, i);
}

void GraphBuilder::AddJoin(int64_t p, int64_t i) {
  MGBR_CHECK(p >= 0 && p < n_users_);
  MGBR_CHECK(i >= 0 && i < n_items_);
  joins_.emplace_back(p, i);
}

void GraphBuilder::AddSocial(int64_t u, int64_t p) {
  MGBR_CHECK(u >= 0 && u < n_users_);
  MGBR_CHECK(p >= 0 && p < n_users_);
  if (u == p) return;  // no self edges
  socials_.emplace_back(u, p);
}

CsrMatrix GraphBuilder::BuildUserItem() const {
  const int64_t n = n_users_ + n_items_;
  std::vector<Coo> entries;
  entries.reserve(launches_.size() * 2);
  for (const auto& [u, i] : launches_) {
    AddSymmetric(&entries, u, n_users_ + i);
  }
  return BinaryClamp(CsrMatrix::FromCoo(n, n, std::move(entries)));
}

CsrMatrix GraphBuilder::BuildParticipantItem() const {
  const int64_t n = n_users_ + n_items_;
  std::vector<Coo> entries;
  entries.reserve(joins_.size() * 2);
  for (const auto& [p, i] : joins_) {
    AddSymmetric(&entries, p, n_users_ + i);
  }
  return BinaryClamp(CsrMatrix::FromCoo(n, n, std::move(entries)));
}

CsrMatrix GraphBuilder::BuildUserUser() const {
  std::vector<Coo> entries;
  entries.reserve(socials_.size() * 2);
  for (const auto& [u, p] : socials_) {
    AddSymmetric(&entries, u, p);
  }
  return BinaryClamp(CsrMatrix::FromCoo(n_users_, n_users_, std::move(entries)));
}

CsrMatrix NormalizeAdjacency(const CsrMatrix& adj) {
  MGBR_CHECK_EQ(adj.rows(), adj.cols());
  const int64_t n = adj.rows();
  // D^{-1/2} of A + I.
  std::vector<double> inv_sqrt = adj.RowSums();
  for (double& d : inv_sqrt) d = 1.0 / std::sqrt(d + 1.0);

  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int64_t> col_idx;
  std::vector<float> values;
  col_idx.reserve(static_cast<size_t>(adj.nnz() + n));
  values.reserve(static_cast<size_t>(adj.nnz() + n));
  for (int64_t r = 0; r < n; ++r) {
    auto [begin, end] = adj.RowRange(r);
    const double dr = inv_sqrt[static_cast<size_t>(r)];
    const float self_loop = static_cast<float>(dr * dr);
    bool looped = false;
    for (int64_t k = begin; k < end; ++k) {
      const int64_t c = adj.col_idx()[static_cast<size_t>(k)];
      float v = static_cast<float>(adj.values()[static_cast<size_t>(k)] * dr *
                                   inv_sqrt[static_cast<size_t>(c)]);
      if (!looped && c >= r) {
        looped = true;
        if (c == r) {
          v += self_loop;  // A's own diagonal entry, then the loop
        } else {
          col_idx.push_back(r);
          values.push_back(self_loop);
        }
      }
      col_idx.push_back(c);
      values.push_back(v);
    }
    if (!looped) {
      col_idx.push_back(r);
      values.push_back(self_loop);
    }
    row_ptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix UnionEdges(int64_t n,
                     std::initializer_list<const CsrMatrix*> views) {
  std::vector<Coo> entries;
  for (const CsrMatrix* view : views) {
    MGBR_CHECK(view->rows() <= n && view->cols() <= n);
    for (int64_t r = 0; r < view->rows(); ++r) {
      auto [begin, end] = view->RowRange(r);
      for (int64_t k = begin; k < end; ++k) {
        const int64_t c = view->col_idx()[static_cast<size_t>(k)];
        if (c != r) entries.push_back({r, c, 1.0f});
      }
    }
  }
  return BinaryClamp(CsrMatrix::FromCoo(n, n, std::move(entries)));
}

}  // namespace mgbr
