#include "models/rec_model.h"

#include <numeric>

#include "tensor/nn.h"

namespace mgbr {

int64_t RecModel::ParameterCount() const {
  return CountParameters(Parameters());
}

Var RecModel::ScoreAAll(int64_t u) {
  NoGradScope no_grad;
  std::vector<int64_t> users(static_cast<size_t>(num_items()), u);
  std::vector<int64_t> items(users.size());
  std::iota(items.begin(), items.end(), int64_t{0});
  return ScoreA(users, items);
}

Var RecModel::ScoreBAll(int64_t u, int64_t item) {
  NoGradScope no_grad;
  std::vector<int64_t> users(static_cast<size_t>(num_users()), u);
  std::vector<int64_t> items(users.size(), item);
  std::vector<int64_t> parts(users.size());
  std::iota(parts.begin(), parts.end(), int64_t{0});
  return ScoreB(users, items, parts);
}

std::vector<double> RecModel::ColumnToDoubles(const Var& column) {
  std::vector<double> out(static_cast<size_t>(column.rows()));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = column.value().at(static_cast<int64_t>(i), 0);
  }
  return out;
}

TaskAScorer RecModel::MakeTaskAScorer() {
  return [this](int64_t u, const std::vector<int64_t>& items) {
    std::vector<int64_t> users(items.size(), u);
    return ColumnToDoubles(ScoreA(users, items));
  };
}

TaskBScorer RecModel::MakeTaskBScorer() {
  return [this](int64_t u, int64_t item, const std::vector<int64_t>& parts) {
    std::vector<int64_t> users(parts.size(), u);
    std::vector<int64_t> items(parts.size(), item);
    return ColumnToDoubles(ScoreB(users, items, parts));
  };
}

BatchTaskAScorer RecModel::MakeBatchTaskAScorer() {
  return [this](const std::vector<int64_t>& users,
                const std::vector<int64_t>& items) {
    // The scope is per-call so every eval worker thread gets its own
    // no-grad flag.
    NoGradScope no_grad;
    return ColumnToDoubles(ScoreA(users, items));
  };
}

BatchTaskBScorer RecModel::MakeBatchTaskBScorer() {
  return [this](const std::vector<int64_t>& users,
                const std::vector<int64_t>& items,
                const std::vector<int64_t>& parts) {
    NoGradScope no_grad;
    return ColumnToDoubles(ScoreB(users, items, parts));
  };
}

FullTaskAScorer RecModel::MakeFullTaskAScorer() {
  return [this](int64_t u) { return ColumnToDoubles(ScoreAAll(u)); };
}

}  // namespace mgbr
