#ifndef MGBR_MODELS_GRAPH_INPUTS_H_
#define MGBR_MODELS_GRAPH_INPUTS_H_

#include "data/dataset.h"
#include "graph/graph.h"

namespace mgbr {

/// The normalized role views graph-based models propagate over, built
/// from the TRAINING split only (no held-out leakage). Shapes:
///   * a_ui / a_pi: (U+I) x (U+I), items offset by n_users;
///   * a_up: U x U.
/// MGBR, GBGCN and the other baselines read these three alone. Graphs
/// merging the views are built from them by the models that read them.
struct GraphInputs {
  int64_t n_users = 0;
  int64_t n_items = 0;
  SharedCsr a_ui;  // initiator view   Â(G_UI)
  SharedCsr a_pi;  // participant view Â(G_PI)
  SharedCsr a_up;  // social view      Â(G_UP)
};

/// Builds the three normalized role views from the training groups:
/// a launch edge per (initiator, item), a join edge per (participant,
/// item), a social edge per (initiator, participant). No p-p edges.
GraphInputs BuildGraphInputs(const GroupBuyingDataset& train);

/// Â of the bipartite user-item graph of both roles (launch and join
/// edges, no social edges): the graph NGCF and LightGCN read. (U+I) x
/// (U+I), the union of a_ui's and a_pi's edges.
SharedCsr BuildJointAdjacency(const GraphInputs& graphs);

/// Â of the single heterogeneous graph of launch, join and social
/// edges together: the graph variant MGBR-D reads. (U+I) x (U+I), the
/// union of all three role views' edges.
SharedCsr BuildHeterogeneousAdjacency(const GraphInputs& graphs);

}  // namespace mgbr

#endif  // MGBR_MODELS_GRAPH_INPUTS_H_
