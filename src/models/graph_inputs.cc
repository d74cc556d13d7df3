#include "models/graph_inputs.h"

namespace mgbr {

GraphInputs BuildGraphInputs(const GroupBuyingDataset& train) {
  GraphBuilder builder(train.n_users(), train.n_items());
  for (const DealGroup& g : train.groups()) {
    builder.AddLaunch(g.initiator, g.item);
    for (int64_t p : g.participants) {
      builder.AddJoin(p, g.item);
      builder.AddSocial(g.initiator, p);
    }
  }
  GraphInputs inputs;
  inputs.n_users = train.n_users();
  inputs.n_items = train.n_items();
  inputs.a_ui = MakeShared(NormalizeAdjacency(builder.BuildUserItem()));
  inputs.a_pi = MakeShared(NormalizeAdjacency(builder.BuildParticipantItem()));
  inputs.a_up = MakeShared(NormalizeAdjacency(builder.BuildUserUser()));
  return inputs;
}

SharedCsr BuildJointAdjacency(const GraphInputs& graphs) {
  const int64_t n = graphs.n_users + graphs.n_items;
  return MakeShared(NormalizeAdjacency(
      UnionEdges(n, {graphs.a_ui.get(), graphs.a_pi.get()})));
}

SharedCsr BuildHeterogeneousAdjacency(const GraphInputs& graphs) {
  const int64_t n = graphs.n_users + graphs.n_items;
  return MakeShared(NormalizeAdjacency(UnionEdges(
      n, {graphs.a_ui.get(), graphs.a_pi.get(), graphs.a_up.get()})));
}

}  // namespace mgbr
