#ifndef MGBR_MODELS_NGCF_H_
#define MGBR_MODELS_NGCF_H_

#include "models/graph_inputs.h"
#include "models/rec_model.h"
#include "tensor/nn.h"

namespace mgbr {

/// NGCF baseline (Wang et al., SIGIR'19): neural graph collaborative
/// filtering over the user-item bipartite graph. Propagation layer
/// (self-interaction form):
///   X^{l+1} = LeakyReLU( (Â X^l) W1 + (Â X^l ⊙ X^l) W2 )
/// and the final representation concatenates all layer outputs, giving
/// higher-order collaborative signals. The graph merges both roles'
/// interactions (launches and joins), which is why NGCF is the
/// strongest baseline: it has no social-channel assumptions to violate.
class Ngcf : public RecModel {
 public:
  /// Propagates over the joint adjacency (BuildJointAdjacency): the
  /// normalized (U+I)-node graph of ALL training user-item
  /// interactions, launches and joins alike, without social edges.
  Ngcf(const GraphInputs& graphs, int64_t dim, int64_t n_layers, Rng* rng);

  std::string name() const override { return "NGCF"; }
  std::vector<Var> Parameters() const override;
  void Refresh() override;
  Var ScoreA(const std::vector<int64_t>& users,
             const std::vector<int64_t>& items) override;
  Var ScoreB(const std::vector<int64_t>& users,
             const std::vector<int64_t>& items,
             const std::vector<int64_t>& parts) override;

  int64_t num_users() const override { return n_users_; }
  int64_t num_items() const override { return n_items_; }
  Var ScoreAAll(int64_t u) override;
  Var ScoreBAll(int64_t u, int64_t item) override;

 private:
  int64_t n_users_;
  int64_t n_items_;
  SharedCsr a_joint_;
  Var x0_;
  std::vector<Linear> w1_;
  std::vector<Linear> w2_;
  Var final_;  // (U+I) x (dim * (L+1)), cached by Refresh
  // Detached role blocks of final_, cached by Refresh for the batched
  // inference path.
  Var user_block_;
  Var item_block_;
};

}  // namespace mgbr

#endif  // MGBR_MODELS_NGCF_H_
