#ifndef MGBR_GRAPH_GRAPH_H_
#define MGBR_GRAPH_GRAPH_H_

#include <initializer_list>
#include <memory>
#include <vector>

#include "graph/csr_matrix.h"

namespace mgbr {

/// Undirected edge list between two node classes (or within one).
///
/// GraphBuilder assembles the paper's three views:
///  * initiator-view  G_UI: users [0, n_users) and items
///    [n_users, n_users + n_items) in one node space, edge per launch;
///  * participant-view G_PI: same node space, edge per join;
///  * social-view      G_UP: users only, edge initiator-participant.
/// None has a self-edge. Graphs merging views (NGCF's joint user-item
/// graph, MGBR-D's heterogeneous graph) are their union: UnionEdges.
class GraphBuilder {
 public:
  GraphBuilder(int64_t n_users, int64_t n_items)
      : n_users_(n_users), n_items_(n_items) {}

  /// Records that user `u` launched a group for item `i`.
  void AddLaunch(int64_t u, int64_t i);

  /// Records that user `p` joined a group buying of item `i`.
  void AddJoin(int64_t p, int64_t i);

  /// Records that participant `p` joined a group launched by `u`.
  void AddSocial(int64_t u, int64_t p);

  int64_t n_users() const { return n_users_; }
  int64_t n_items() const { return n_items_; }

  /// Symmetric adjacency (no self-loops) of the initiator view;
  /// shape (U+I) x (U+I), items offset by n_users.
  CsrMatrix BuildUserItem() const;

  /// Symmetric adjacency of the participant view; shape (U+I) x (U+I).
  CsrMatrix BuildParticipantItem() const;

  /// Symmetric adjacency of the social view; shape U x U. Per the
  /// paper, participant-participant edges are never added.
  CsrMatrix BuildUserUser() const;

 private:
  int64_t n_users_;
  int64_t n_items_;
  std::vector<std::pair<int64_t, int64_t>> launches_;  // (u, i)
  std::vector<std::pair<int64_t, int64_t>> joins_;     // (p, i)
  std::vector<std::pair<int64_t, int64_t>> socials_;   // (u, p)
};

/// Symmetrically normalized adjacency with self-loops:
///   Â = D^{-1/2} (A + I) D^{-1/2},
/// the GCN propagation operator of Kipf & Welling used in Eqs. 1-3.
/// `adj` must be square and is expected to be symmetric. O(nnz + n):
/// rows are written in order with the self-loop slotted in by column.
CsrMatrix NormalizeAdjacency(const CsrMatrix& adj);

/// Binary adjacency over `n` nodes whose edges are the off-diagonal
/// entries of `views`; a view smaller than n x n covers the top-left
/// block (the U x U social view inside the (U+I) node space). Views of
/// graphs without self-edges hold exactly their edges off the diagonal,
/// normalized or not, so the union of Â(G_1), Â(G_2), ... is the raw
/// adjacency of G_1 ∪ G_2 ∪ ....
CsrMatrix UnionEdges(int64_t n, std::initializer_list<const CsrMatrix*> views);

/// Shared handle used by models so one normalized adjacency can be
/// captured by many autograd closures without copies.
using SharedCsr = std::shared_ptr<const CsrMatrix>;

inline SharedCsr MakeShared(CsrMatrix m) {
  return std::make_shared<const CsrMatrix>(std::move(m));
}

}  // namespace mgbr

#endif  // MGBR_GRAPH_GRAPH_H_
