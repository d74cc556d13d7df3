#include "models/lightgcn.h"

#include "graph/gcn.h"
#include "models/model_util.h"
#include "tensor/init.h"

namespace mgbr {

LightGcn::LightGcn(const GraphInputs& graphs, int64_t dim, int64_t n_layers,
                   Rng* rng)
    : n_users_(graphs.n_users),
      n_items_(graphs.n_items),
      n_layers_(n_layers),
      a_joint_(BuildJointAdjacency(graphs)),
      x0_(GaussianInit(graphs.n_users + graphs.n_items, dim, rng, 0.0f,
                       0.1f),
          /*requires_grad=*/true) {
  MGBR_CHECK_GE(n_layers, 1);
}

std::vector<Var> LightGcn::Parameters() const { return {x0_}; }

void LightGcn::Refresh() {
  Var h = x0_;
  Var sum = x0_;
  for (int64_t l = 0; l < n_layers_; ++l) {
    h = SpMM(a_joint_, h);
    sum = Add(sum, h);
  }
  final_ = MulScalar(sum, 1.0f / static_cast<float>(n_layers_ + 1));
  NoGradScope no_grad;
  user_block_ = SliceRows(final_, 0, n_users_);
  item_block_ = SliceRows(final_, n_users_, n_items_);
}

Var LightGcn::ScoreAAll(int64_t u) {
  MGBR_CHECK(item_block_.defined());
  NoGradScope no_grad;
  return DotAllRows(final_, u, item_block_);
}

Var LightGcn::ScoreBAll(int64_t u, int64_t item) {
  (void)item;
  MGBR_CHECK(user_block_.defined());
  NoGradScope no_grad;
  return DotAllRows(final_, u, user_block_);
}

bool LightGcn::RetrievalItemView(const float** data, int64_t* n,
                                 int64_t* d) const {
  if (!item_block_.defined()) return false;
  *data = item_block_.value().data();
  *n = item_block_.rows();
  *d = item_block_.cols();
  return true;
}

bool LightGcn::RetrievalQueryA(int64_t u, std::vector<float>* query) const {
  if (!final_.defined()) return false;
  MGBR_CHECK(u >= 0 && u < n_users_);
  const float* row = final_.value().data() + u * final_.cols();
  query->assign(row, row + final_.cols());
  return true;
}

bool LightGcn::RetrievalPartView(const float** data, int64_t* n,
                                 int64_t* d) const {
  if (!user_block_.defined()) return false;
  *data = user_block_.value().data();
  *n = user_block_.rows();
  *d = user_block_.cols();
  return true;
}

bool LightGcn::RetrievalQueryB(int64_t u, int64_t item,
                               std::vector<float>* query) const {
  (void)item;
  return RetrievalQueryA(u, query);
}

Var LightGcn::ScoreA(const std::vector<int64_t>& users,
                     const std::vector<int64_t>& items) {
  MGBR_CHECK(final_.defined());
  std::vector<int64_t> item_nodes(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    item_nodes[i] = n_users_ + items[i];
  }
  return RowDot(Rows(final_, users), Rows(final_, item_nodes));
}

Var LightGcn::ScoreB(const std::vector<int64_t>& users,
                     const std::vector<int64_t>& items,
                     const std::vector<int64_t>& parts) {
  (void)items;
  MGBR_CHECK(final_.defined());
  return RowDot(Rows(final_, users), Rows(final_, parts));
}

}  // namespace mgbr
