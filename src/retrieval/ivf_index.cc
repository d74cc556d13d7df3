#include "retrieval/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "common/checksum.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/kernels.h"

namespace mgbr::retrieval {

namespace {

/// Nearest centroid of one row under squared L2, expanded as
/// c·c - 2 x·c (the x·x term is constant per row). The inner products
/// come from the deterministic GemmRowsABt reduction; the comparison
/// runs in double so the argmin never depends on summation shortcuts.
int64_t NearestCentroid(const float* row, const float* centroids,
                        const std::vector<double>& centroid_sqnorms,
                        int64_t nlist, int64_t d, float* ip_scratch) {
  std::fill(ip_scratch, ip_scratch + nlist, 0.0f);
  kernels::GemmRowsABt(row, centroids, ip_scratch, 1, d, nlist);
  int64_t best = 0;
  double best_val = centroid_sqnorms[0] - 2.0 * ip_scratch[0];
  for (int64_t c = 1; c < nlist; ++c) {
    const double val =
        centroid_sqnorms[static_cast<size_t>(c)] - 2.0 * ip_scratch[c];
    if (val < best_val) {
      best = c;
      best_val = val;
    }
  }
  return best;
}

std::vector<double> CentroidSqNorms(const std::vector<float>& centroids,
                                    int64_t nlist, int64_t d) {
  std::vector<double> out(static_cast<size_t>(nlist));
  for (int64_t c = 0; c < nlist; ++c) {
    double s = 0.0;
    const float* row = centroids.data() + c * d;
    for (int64_t j = 0; j < d; ++j) s += double{row[j]} * double{row[j]};
    out[static_cast<size_t>(c)] = s;
  }
  return out;
}

/// One assignment pass: assign[i] = nearest centroid of row i. Rows
/// are independent, so the pass parallelizes over the pool without
/// affecting the result.
void AssignAll(const float* data, int64_t n, int64_t d,
               const std::vector<float>& centroids, int64_t nlist,
               std::vector<int64_t>* assign) {
  const std::vector<double> sqnorms = CentroidSqNorms(centroids, nlist, d);
  ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
    std::vector<float> ip(static_cast<size_t>(nlist));
    for (int64_t i = lo; i < hi; ++i) {
      (*assign)[static_cast<size_t>(i)] = NearestCentroid(
          data + i * d, centroids.data(), sqnorms, nlist, d, ip.data());
    }
  });
}

}  // namespace

void IvfIndex::Build(const float* data, int64_t n, int64_t d,
                     const IvfConfig& config) {
  MGBR_CHECK_GE(n, 1);
  MGBR_CHECK_GE(d, 1);
  n_ = n;
  d_ = d;
  nlist_ = config.nlist > 0
               ? std::min<int64_t>(config.nlist, n)
               : std::max<int64_t>(
                     1, static_cast<int64_t>(
                            std::ceil(std::sqrt(static_cast<double>(n)))));

  // Initial centroids: nlist_ distinct row indices drawn from a fixed
  // Rng stream, sorted ascending so the centroid order (and therefore
  // every downstream tie-break) is a function of the seed alone.
  Rng rng(config.seed);
  std::vector<uint64_t> picks = rng.SampleWithoutReplacement(
      static_cast<uint64_t>(n), static_cast<uint64_t>(nlist_));
  std::sort(picks.begin(), picks.end());
  centroids_.assign(static_cast<size_t>(nlist_ * d), 0.0f);
  for (int64_t c = 0; c < nlist_; ++c) {
    std::memcpy(centroids_.data() + c * d,
                data + static_cast<int64_t>(picks[static_cast<size_t>(c)]) * d,
                static_cast<size_t>(d) * sizeof(float));
  }

  std::vector<int64_t> assign(static_cast<size_t>(n), 0);
  std::vector<double> sums(static_cast<size_t>(nlist_ * d));
  std::vector<int64_t> counts(static_cast<size_t>(nlist_));
  const int64_t iters = std::max<int64_t>(1, config.kmeans_iters);
  for (int64_t it = 0; it < iters; ++it) {
    AssignAll(data, n, d, centroids_, nlist_, &assign);
    // Centroid update: double accumulation in point-index order; an
    // emptied cluster keeps its previous centroid.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), int64_t{0});
    for (int64_t i = 0; i < n; ++i) {
      const int64_t c = assign[static_cast<size_t>(i)];
      double* dst = sums.data() + c * d;
      const float* row = data + i * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += double{row[j]};
      ++counts[static_cast<size_t>(c)];
    }
    for (int64_t c = 0; c < nlist_; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[static_cast<size_t>(c)]);
      float* dst = centroids_.data() + c * d;
      const double* src = sums.data() + c * d;
      for (int64_t j = 0; j < d; ++j) {
        dst[j] = static_cast<float>(src[j] * inv);
      }
    }
  }

  // Final assignment against the final centroids populates the lists;
  // within a list, ids ascend because points are appended in index
  // order.
  AssignAll(data, n, d, centroids_, nlist_, &assign);
  list_offsets_.assign(static_cast<size_t>(nlist_ + 1), 0);
  for (int64_t i = 0; i < n; ++i) {
    ++list_offsets_[static_cast<size_t>(assign[static_cast<size_t>(i)] + 1)];
  }
  for (int64_t c = 0; c < nlist_; ++c) {
    list_offsets_[static_cast<size_t>(c + 1)] +=
        list_offsets_[static_cast<size_t>(c)];
  }
  list_ids_.assign(static_cast<size_t>(n), 0);
  list_data_.assign(static_cast<size_t>(n * d), 0.0f);
  std::vector<int64_t> cursor(list_offsets_.begin(), list_offsets_.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = assign[static_cast<size_t>(i)];
    const int64_t pos = cursor[static_cast<size_t>(c)]++;
    list_ids_[static_cast<size_t>(pos)] = i;
    std::memcpy(list_data_.data() + pos * d, data + i * d,
                static_cast<size_t>(d) * sizeof(float));
  }
}

std::vector<int64_t> IvfIndex::Search(const float* query, int64_t k,
                                      int64_t nprobe) const {
  MGBR_CHECK_GE(n_, 1);  // Build() must have run
  if (k <= 0) return {};
  nprobe = std::clamp<int64_t>(nprobe, 1, nlist_);

  // Rank lists by query-centroid inner product (desc, list id asc).
  std::vector<float> cent_ip(static_cast<size_t>(nlist_), 0.0f);
  kernels::GemmRowsABt(query, centroids_.data(), cent_ip.data(), 1, d_,
                       nlist_);
  std::vector<int64_t> order(static_cast<size_t>(nlist_));
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + nprobe, order.end(),
                    [&](int64_t a, int64_t b) {
                      const float sa = cent_ip[static_cast<size_t>(a)];
                      const float sb = cent_ip[static_cast<size_t>(b)];
                      return sa != sb ? sa > sb : a < b;
                    });

  // Exact scan of the probed lists into a bounded heap of the k best
  // (score, id) pairs under the strict (score desc, id asc) order. Ids
  // are distinct, so the order is total and the kept set is exactly
  // what sorting every scanned pair would select. The heap top is the
  // worst kept pair, as in TopKIndices.
  using Cand = std::pair<float, int64_t>;
  const auto better = [](const Cand& a, const Cand& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::vector<Cand> heap;
  heap.reserve(static_cast<size_t>(std::min(k, n_)));
  std::vector<float> scores;
  for (int64_t p = 0; p < nprobe; ++p) {
    const int64_t list = order[static_cast<size_t>(p)];
    const int64_t lo = list_offsets_[static_cast<size_t>(list)];
    const int64_t hi = list_offsets_[static_cast<size_t>(list + 1)];
    const int64_t len = hi - lo;
    if (len == 0) continue;
    scores.assign(static_cast<size_t>(len), 0.0f);
    kernels::GemmRowsABt(query, list_data_.data() + lo * d_, scores.data(), 1,
                         d_, len);
    for (int64_t r = 0; r < len; ++r) {
      const Cand cand(scores[static_cast<size_t>(r)],
                      list_ids_[static_cast<size_t>(lo + r)]);
      if (static_cast<int64_t>(heap.size()) < k) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), better);
      }
    }
  }

  std::sort(heap.begin(), heap.end(), better);
  std::vector<int64_t> out(heap.size());
  for (size_t i = 0; i < heap.size(); ++i) out[i] = heap[i].second;
  return out;
}

uint32_t IvfIndex::Fingerprint() const {
  uint32_t crc = Crc32(&n_, sizeof(n_));
  crc = Crc32(&d_, sizeof(d_), crc);
  crc = Crc32(&nlist_, sizeof(nlist_), crc);
  crc = Crc32(centroids_.data(), centroids_.size() * sizeof(float), crc);
  crc = Crc32(list_offsets_.data(), list_offsets_.size() * sizeof(int64_t),
              crc);
  crc = Crc32(list_ids_.data(), list_ids_.size() * sizeof(int64_t), crc);
  crc = Crc32(list_data_.data(), list_data_.size() * sizeof(float), crc);
  return crc;
}

}  // namespace mgbr::retrieval
