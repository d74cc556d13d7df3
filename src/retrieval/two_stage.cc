#include "retrieval/two_stage.h"

#include <algorithm>

#include "common/check.h"
#include "eval/metrics.h"
#include "tensor/variable.h"

namespace mgbr::retrieval {

std::shared_ptr<const ItemRetriever> ItemRetriever::BuildFor(
    const RecModel& model, const TwoStageConfig& config) {
  const float* data = nullptr;
  int64_t n = 0;
  int64_t d = 0;
  if (!model.RetrievalItemView(&data, &n, &d)) return nullptr;
  MGBR_CHECK(data != nullptr);
  MGBR_CHECK_GE(config.nprobe, 1);
  MGBR_CHECK_GE(config.overfetch, 1);
  IvfConfig ivf;
  ivf.nlist = config.nlist;
  ivf.kmeans_iters = config.kmeans_iters;
  ivf.seed = config.seed;
  auto retriever = std::shared_ptr<ItemRetriever>(new ItemRetriever());
  retriever->config_ = config;
  retriever->index_.Build(data, n, d, ivf);
  return retriever;
}

std::vector<int64_t> ItemRetriever::Candidates(const RecModel& model,
                                               int64_t u, int64_t k,
                                               int64_t nprobe_override) const {
  std::vector<float> query;
  if (!model.RetrievalQueryA(u, &query)) return {};
  MGBR_CHECK_EQ(static_cast<int64_t>(query.size()), index_.d());
  const int64_t nprobe =
      nprobe_override > 0 ? std::max<int64_t>(1, nprobe_override)
                          : config_.nprobe;
  // A cutoff of the catalogue size already asks for every item the
  // probed lists hold; clamping first keeps the product from overflowing
  // for any request k.
  const int64_t cutoff = std::min(k, index_.n());
  std::vector<int64_t> ids =
      index_.Search(query.data(), cutoff * config_.overfetch, nprobe);
  std::sort(ids.begin(), ids.end());
  return ids;
}

RetrievalResult TwoStageTopK(RecModel* model, const ItemRetriever& retriever,
                             int64_t u, int64_t k) {
  MGBR_CHECK(model != nullptr);
  RetrievalResult result;
  const std::vector<int64_t> cands = retriever.Candidates(*model, u, k);
  if (cands.empty()) return result;
  NoGradScope no_grad;
  const std::vector<int64_t> users(cands.size(), u);
  const Var column = model->ScoreA(users, cands);
  std::vector<double> scores(cands.size());
  for (size_t r = 0; r < cands.size(); ++r) {
    scores[r] = column.value().at(static_cast<int64_t>(r), 0);
  }
  const std::vector<int64_t> cut = TopKIndices(scores, k);
  result.top_k.reserve(cut.size());
  result.scores.reserve(cut.size());
  for (int64_t pos : cut) {
    result.top_k.push_back(cands[static_cast<size_t>(pos)]);
    result.scores.push_back(scores[static_cast<size_t>(pos)]);
  }
  return result;
}

}  // namespace mgbr::retrieval
