#include "models/ngcf.h"

#include "graph/gcn.h"
#include "models/model_util.h"
#include "tensor/init.h"

namespace mgbr {

Ngcf::Ngcf(const GraphInputs& graphs, int64_t dim, int64_t n_layers, Rng* rng)
    : n_users_(graphs.n_users),
      n_items_(graphs.n_items),
      a_joint_(BuildJointAdjacency(graphs)),
      x0_(GaussianInit(graphs.n_users + graphs.n_items, dim, rng, 0.0f, 0.1f),
          true) {
  MGBR_CHECK_GE(n_layers, 1);
  for (int64_t l = 0; l < n_layers; ++l) {
    w1_.emplace_back(dim, dim, rng, /*with_bias=*/false);
    w2_.emplace_back(dim, dim, rng, /*with_bias=*/false);
  }
}

std::vector<Var> Ngcf::Parameters() const {
  std::vector<Var> params = {x0_};
  for (const Linear& w : w1_) AppendParams(&params, w.Parameters());
  for (const Linear& w : w2_) AppendParams(&params, w.Parameters());
  return params;
}

void Ngcf::Refresh() {
  std::vector<Var> layers = {x0_};
  Var h = x0_;
  for (size_t l = 0; l < w1_.size(); ++l) {
    Var agg = SpMM(a_joint_, h);
    Var self_interaction = Mul(agg, h);
    h = LeakyRelu(
        Add(w1_[l].Forward(agg), w2_[l].Forward(self_interaction)));
    layers.push_back(h);
  }
  final_ = ConcatCols(layers);
  NoGradScope no_grad;
  user_block_ = SliceRows(final_, 0, n_users_);
  item_block_ = SliceRows(final_, n_users_, n_items_);
}

Var Ngcf::ScoreAAll(int64_t u) {
  MGBR_CHECK(item_block_.defined());
  NoGradScope no_grad;
  return DotAllRows(final_, u, item_block_);
}

Var Ngcf::ScoreBAll(int64_t u, int64_t item) {
  (void)item;
  MGBR_CHECK(user_block_.defined());
  NoGradScope no_grad;
  return DotAllRows(final_, u, user_block_);
}

Var Ngcf::ScoreA(const std::vector<int64_t>& users,
                 const std::vector<int64_t>& items) {
  MGBR_CHECK(final_.defined());
  std::vector<int64_t> item_nodes(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    item_nodes[i] = n_users_ + items[i];
  }
  return RowDot(Rows(final_, users), Rows(final_, item_nodes));
}

Var Ngcf::ScoreB(const std::vector<int64_t>& users,
                 const std::vector<int64_t>& items,
                 const std::vector<int64_t>& parts) {
  (void)items;
  MGBR_CHECK(final_.defined());
  return RowDot(Rows(final_, users), Rows(final_, parts));
}

}  // namespace mgbr
