#include "core/multi_view.h"

#include "common/trace.h"
#include "tensor/ops.h"

namespace mgbr {

MultiViewEmbedding::MultiViewEmbedding(const GraphInputs& graphs,
                                       const MgbrConfig& config, Rng* rng)
    : n_users_(graphs.n_users),
      n_items_(graphs.n_items),
      single_hin_(config.use_single_hin) {
  const int64_t n_all = n_users_ + n_items_;
  if (single_hin_) {
    views_ = {BuildHeterogeneousAdjacency(graphs)};
    // One GCN of width 2d so downstream dimensions are unchanged.
    stacks_.emplace_back(n_all, 2 * config.dim, config.gcn_layers, rng,
                         config.gcn_activation);
  } else {
    views_ = {graphs.a_ui, graphs.a_pi, graphs.a_up};
    const Activation act = config.gcn_activation;
    stacks_.emplace_back(n_all, config.dim, config.gcn_layers, rng, act);
    stacks_.emplace_back(n_all, config.dim, config.gcn_layers, rng, act);
    stacks_.emplace_back(n_users_, config.dim, config.gcn_layers, rng, act);
  }
}

MultiViewEmbedding::Output MultiViewEmbedding::Forward() const {
  MGBR_TRACE_SPAN("mgbr.multi_view_forward", "core");
  Output out;
  if (single_hin_) {
    Var x = stacks_[0].Forward(views_[0]);
    out.users = SliceRows(x, 0, n_users_);
    out.items = SliceRows(x, n_users_, n_items_);
    out.parts = out.users;  // no role separation in the HIN variant
    return out;
  }
  Var x_ui = stacks_[0].Forward(views_[0]);
  Var x_pi = stacks_[1].Forward(views_[1]);
  Var x_up = stacks_[2].Forward(views_[2]);

  Var u_ui = SliceRows(x_ui, 0, n_users_);
  Var i_ui = SliceRows(x_ui, n_users_, n_items_);
  Var p_pi = SliceRows(x_pi, 0, n_users_);
  Var i_pi = SliceRows(x_pi, n_users_, n_items_);

  out.users = ConcatCols({u_ui, x_up});  // e_u = e_u^UI || e_u^UP
  out.items = ConcatCols({i_ui, i_pi});  // e_i = e_i^UI || e_i^PI
  out.parts = ConcatCols({p_pi, x_up});  // e_p = e_p^PI || e_p^UP
  return out;
}

std::vector<Var> MultiViewEmbedding::Parameters() const {
  std::vector<Var> params;
  for (const GcnStack& stack : stacks_) {
    for (Var& p : stack.Parameters()) params.push_back(std::move(p));
  }
  return params;
}

}  // namespace mgbr
