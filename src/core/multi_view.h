#ifndef MGBR_CORE_MULTI_VIEW_H_
#define MGBR_CORE_MULTI_VIEW_H_

#include <vector>

#include "core/mgbr_config.h"
#include "graph/gcn.h"
#include "models/graph_inputs.h"

namespace mgbr {

/// MGBR's multi-view embedding learning module (§II-C).
///
/// Three GCNs run over the three views; each object sits in exactly two
/// views, and its embedding is the concatenation of its two final-layer
/// view embeddings (Eqs. 4-6):
///   e_u = e_u^{UI} || e_u^{UP},   e_i = e_i^{UI} || e_i^{PI},
///   e_p = e_p^{PI} || e_p^{UP},   all in R^{2d}.
///
/// With `use_single_hin` (variant MGBR-D) a single GCN of width 2d runs
/// over the heterogeneous graph instead, and e_u = e_p (one user
/// embedding, no role separation).
class MultiViewEmbedding {
 public:
  MultiViewEmbedding(const GraphInputs& graphs, const MgbrConfig& config,
                     Rng* rng);

  /// Propagated embeddings of one refresh. Vars stay connected to the
  /// tape, so losses backprop into the GCN weights and X^0.
  struct Output {
    Var users;  // U x 2d — initiator-role embeddings e_u
    Var items;  // I x 2d — item embeddings e_i
    Var parts;  // U x 2d — participant-role embeddings e_p
  };

  /// Runs all GCNs and assembles the concatenated embeddings.
  Output Forward() const;

  std::vector<Var> Parameters() const;

  int64_t n_users() const { return n_users_; }
  int64_t n_items() const { return n_items_; }

 private:
  int64_t n_users_;
  int64_t n_items_;
  bool single_hin_;
  // One GCN stack per view propagated over.
  std::vector<SharedCsr> views_;  // [UI, PI, UP] or [HIN]
  std::vector<GcnStack> stacks_;
};

}  // namespace mgbr

#endif  // MGBR_CORE_MULTI_VIEW_H_
