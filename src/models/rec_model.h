#ifndef MGBR_MODELS_REC_MODEL_H_
#define MGBR_MODELS_REC_MODEL_H_

#include <string>
#include <vector>

#include "eval/metrics.h"
#include "tensor/variable.h"

namespace mgbr {

/// Common interface of every compared recommender (MGBR, its variants
/// and the six baselines). All models serve BOTH sub-tasks, exactly as
/// §III-B tailors the baselines:
///   * Task A — s(i|u), general item recommendation;
///   * Task B — s(p|u,i); baselines not designed for it use the inner
///     product of u's and p's representations.
///
/// Usage contract: after any parameter update, call `Refresh()` to
/// rebuild the propagation tape (GCN layers etc.); then any number of
/// ScoreA/ScoreB calls reuse the cached propagated embeddings within
/// that tape. The trainer calls Refresh once per mini-batch; the
/// evaluator once per evaluation pass.
class RecModel {
 public:
  virtual ~RecModel() = default;

  /// Display name used in result tables ("MGBR", "NGCF", ...).
  virtual std::string name() const = 0;

  /// All trainable parameters.
  virtual std::vector<Var> Parameters() const = 0;

  /// Rebuilds cached propagated embeddings from current parameters.
  virtual void Refresh() = 0;

  /// Task A batch scores: returns a (B x 1) Var with s(items[b] |
  /// users[b]). Differentiable.
  virtual Var ScoreA(const std::vector<int64_t>& users,
                     const std::vector<int64_t>& items) = 0;

  /// Task B batch scores: (B x 1) Var with s(parts[b] | users[b],
  /// items[b]). Differentiable.
  virtual Var ScoreB(const std::vector<int64_t>& users,
                     const std::vector<int64_t>& items,
                     const std::vector<int64_t>& parts) = 0;

  /// Catalogue sizes the batched full-catalogue scorers below range
  /// over (Task B candidates are users in their participant role).
  virtual int64_t num_users() const = 0;
  virtual int64_t num_items() const = 0;

  /// Full-catalogue Task A inference: an (n_items x 1) Var with
  /// s(i | u) for every item i, always computed under a NoGradScope
  /// (the result is detached — no tape, no Backward). Row i is bitwise
  /// identical to ScoreA({u}, {i}) because every engine op computes
  /// each output row independently of its batch neighbours (see
  /// docs/inference.md). The default lifts ScoreA over the whole
  /// catalogue in one call; models override it to skip the candidate
  /// gather and score straight off their cached propagated embeddings.
  virtual Var ScoreAAll(int64_t u);

  /// Full-catalogue Task B inference: (n_users x 1) scores of every
  /// user as candidate participant of (u, item). Same contract as
  /// ScoreAAll.
  virtual Var ScoreBAll(int64_t u, int64_t item);

  /// Retrieval view for ANN candidate generation (src/retrieval/):
  /// when the model's Task A score is an inner product over cached
  /// propagated embeddings, points *data at the (n x d) row-major item
  /// block those scores are taken against and returns true. The block
  /// stays valid (and frozen) until the next Refresh(); retrieval
  /// indexes built from it are therefore exact proxies of ScoreAAll's
  /// ordering. Models whose Task A head is not an inner product of a
  /// fixed item table (e.g. the MGBR MLP head) keep the default false
  /// and are served by the brute-force path.
  virtual bool RetrievalItemView(const float** data, int64_t* n,
                                 int64_t* d) const {
    (void)data;
    (void)n;
    (void)d;
    return false;
  }

  /// The Task A query vector paired with RetrievalItemView: copies the
  /// d floats whose inner product with item row i equals (bitwise) the
  /// products ScoreAAll(u) row i reduces. Returns false whenever
  /// RetrievalItemView does.
  virtual bool RetrievalQueryA(int64_t u, std::vector<float>* query) const {
    (void)u;
    (void)query;
    return false;
  }

  /// Task B analogue of RetrievalItemView: the (n_users x d) row-major
  /// candidate-participant block ScoreBAll's inner products are taken
  /// against, valid and frozen until the next Refresh(). Same default
  /// (false) for models whose Task B head is not an inner product of a
  /// fixed table.
  virtual bool RetrievalPartView(const float** data, int64_t* n,
                                 int64_t* d) const {
    (void)data;
    (void)n;
    (void)d;
    return false;
  }

  /// The Task B query vector paired with RetrievalPartView: copies the
  /// d floats whose inner product with participant row p equals
  /// (bitwise) the products ScoreBAll(u, item) row p reduces. Returns
  /// false whenever RetrievalPartView does.
  virtual bool RetrievalQueryB(int64_t u, int64_t item,
                               std::vector<float>* query) const {
    (void)u;
    (void)item;
    (void)query;
    return false;
  }

  /// Total number of scalar parameters (Table V).
  int64_t ParameterCount() const;

  /// Copies a (B x 1) score column into the double vector the
  /// evaluator and top-K selection consume. float -> double widening is
  /// exact, so downstream rank comparisons see the scores bit-for-bit.
  /// A static member rather than a free function: argument-dependent
  /// lookup on Var would make a same-named helper in a caller's own
  /// namespace ambiguous.
  static std::vector<double> ColumnToDoubles(const Var& column);

  /// Evaluation adapters wrapping ScoreA/ScoreB (no Refresh inside —
  /// caller refreshes once per pass).
  TaskAScorer MakeTaskAScorer();
  TaskBScorer MakeTaskBScorer();

  /// No-grad batched eval adapters: same contract as the adapters
  /// above, but scoring whole concatenated candidate batches (or the
  /// full catalogue) per call without building autograd state.
  BatchTaskAScorer MakeBatchTaskAScorer();
  BatchTaskBScorer MakeBatchTaskBScorer();
  FullTaskAScorer MakeFullTaskAScorer();
};

}  // namespace mgbr

#endif  // MGBR_MODELS_REC_MODEL_H_
