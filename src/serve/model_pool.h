#ifndef MGBR_SERVE_MODEL_POOL_H_
#define MGBR_SERVE_MODEL_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/quant_view.h"
#include "models/rec_model.h"
#include "retrieval/two_stage.h"
#include "serve/types.h"
#include "tensor/quant.h"
#include "train/checkpoint.h"

namespace mgbr::serve {

/// Pre-publish validation gate for candidate versions. On top of the
/// checkpoint format's own per-section CRC32 + config-fingerprint
/// verification (which LoadVersion already gets for free), an enabled
/// gate canary-scores a fixed probe set under NoGradScope:
///   * every probe score must be finite (a NaN/Inf-poisoned parameter
///     set passes CRC — the canary is what catches it);
///   * optionally, the probes' top-k must agree with the recorded
///     reference (the last accepted version) at `min_ref_overlap`
///     mean overlap — a guard against semantically-wrong checkpoints
///     of the right shape.
/// Rejected candidates never publish: Install returns 0 and the served
/// version is untouched.
struct ValidationConfig {
  bool enabled = false;
  /// Canary probe set: users 0..min(probe_users, n_users)-1.
  int64_t probe_users = 16;
  /// Top-k cutoff per probe for the agreement check.
  int64_t probe_k = 10;
  /// Minimum mean top-k overlap vs the recorded reference in [0, 1];
  /// 0 disables the agreement check (finite-score canary only).
  double min_ref_overlap = 0.0;
};

/// What every version a pool publishes carries, fixed when the pool is
/// constructed: ModelPool builds each version's artifacts from it
/// before publishing, and the served scoring path follows from what
/// the pinned version holds.
struct PoolConfig {
  /// Two-stage Task-A top-K: ANN candidate generation over the model's
  /// retrieval view, exact batched re-rank of the candidates. Off by
  /// default — brute force stays the reference path. When enabled,
  /// every version carries an index built over its own embeddings and
  /// the server serves its Task A two-stage; versions of models
  /// without a retrieval view carry none and are brute-forced.
  retrieval::TwoStageConfig retrieval;
  /// Quantized scoring: kBf16/kInt8 make every version carry a
  /// QuantizedEmbeddingView, and the server scores Task A/B (and the
  /// two-stage re-rank) off it instead of the fp32 blocks. kFp32
  /// (default) keeps the reference path bitwise unchanged. Models
  /// without a retrieval view (MGBR's MLP head) carry no view and stay
  /// fp32. Gated on ranking agreement by the quant-gate CI job
  /// (docs/quantization.md).
  QuantMode quant = QuantMode::kFp32;
  /// Pre-publish validation gate (off by default). When enabled it
  /// screens every Install/LoadVersion/LoadLatest, the first included;
  /// the first accepted version becomes the agreement reference.
  ValidationConfig validation;
};

/// The pool's swap accounting (ModelPool::stats()), rendered next to
/// ServerStats in /metrics, /varz and the load generator's reports.
struct PoolStats {
  /// Successful Install/LoadVersion/LoadLatest swaps.
  int64_t swap_count = 0;
  /// Candidates rejected by the validation gate or a failed load.
  int64_t swap_rejected = 0;
  /// Successful Rollback() calls.
  int64_t rollbacks = 0;
  /// Transient-read retry attempts consumed by LoadVersion/LoadLatest.
  int64_t load_retries = 0;
};

inline constexpr StatsField<PoolStats> kPoolStatsFields[] = {
    {"swap_count", &PoolStats::swap_count},
    {"swap_rejected", &PoolStats::swap_rejected},
    {"rollbacks", &PoolStats::rollbacks},
    {"load_retries", &PoolStats::load_retries},
};

/// Double-buffered model versions for zero-downtime refresh.
///
/// The pool owns the currently served model behind a shared_ptr that
/// readers snapshot with Acquire(). LoadVersion() builds a FRESH model
/// instance through the factory, restores a checkpoint's parameters
/// into that instance, runs Refresh() on it under a NoGradScope (a
/// served version keeps no autograd tape), and only then swaps the
/// pointer — the served model is never mutated in place, so a reader
/// that acquired the old version keeps scoring off an immutable
/// snapshot until its last reference drops. A response is therefore
/// bitwise attributable to exactly one version: there is no moment at
/// which any thread can observe a half-loaded parameter set.
///
/// Per its PoolConfig, every version also carries an immutable ANN
/// ItemRetriever and a QuantizedEmbeddingView built over that exact
/// model instance's refreshed embeddings BEFORE the version is
/// published. Model, index and quantized table always travel together
/// inside one Version object, so a hot swap can never pair a new model
/// with a stale index (or vice versa) — the swap safety half of the
/// retrieval determinism contract (docs/retrieval.md).
class ModelPool {
 public:
  /// Builds an uninitialised model whose parameter shapes match the
  /// checkpoints being served (same config/graphs/seed family).
  using Factory = std::function<std::unique_ptr<RecModel>()>;

  struct Version {
    std::shared_ptr<RecModel> model;
    /// Null when retrieval is disabled or the model exposes no
    /// retrieval view; the server then brute-forces this version.
    std::shared_ptr<const retrieval::ItemRetriever> retriever;
    /// Quantized copy of this model's cached embedding tables; null
    /// when quantization is off or the model exposes no retrieval
    /// view. Built before the version is published, exactly like the
    /// retriever, so the quantized table always matches the model.
    std::shared_ptr<const QuantizedEmbeddingView> quant;
    int64_t id = 0;          // monotonically increasing, first is 1
    std::string source;      // checkpoint path or a caller-chosen tag
  };

  /// One entry of the bounded swap audit log: installs, validation
  /// rejections, and rollbacks, oldest first.
  struct SwapEvent {
    enum class Kind { kInstall, kReject, kRollback };
    Kind kind = Kind::kInstall;
    /// Published version id (kInstall/kRollback); 0 for rejections.
    int64_t version_id = 0;
    std::string source;
    std::string detail;  // rejection reason, empty otherwise
  };

  /// `config` fixes what every version carries for the pool's
  /// lifetime; there is no way to change it once the pool exists.
  explicit ModelPool(Factory factory, PoolConfig config = {});

  /// Wraps an already-built (and Refreshed) model as the next version.
  /// Returns the new version id — or 0 when the validation gate is
  /// enabled and rejects the candidate (the served version is then
  /// untouched; the rejection is counted and event-logged).
  int64_t Install(std::unique_ptr<RecModel> model, std::string source);

  /// Factory -> LoadCheckpoint(params only) -> Refresh -> atomic swap.
  /// A failed build/load (CRC/fingerprint corruption, exhausted read
  /// retries) or a validation rejection leaves the served version
  /// untouched and returns a non-OK status; either way the event is
  /// recorded in the swap log.
  Status LoadVersion(const std::string& checkpoint_path);

  /// LoadVersion from the newest checkpoint in `manager` that fully
  /// verifies (CheckpointManager::RestoreLatest fall-back semantics).
  /// Shares LoadVersion's retry and failure path: a failed restore is
  /// a rejected swap, counted and event-logged with the manager's
  /// directory as its source.
  Status LoadLatest(CheckpointManager* manager);

  /// Re-publishes the last-known-good version (the one displaced by
  /// the most recent successful Install) under ITS ORIGINAL id — the
  /// model object is unchanged, so cached scores for that id stay
  /// bitwise valid. The displaced current version becomes the new
  /// rollback target (a second Rollback undoes the first). Fails with
  /// kFailedPrecondition when no previous version is retained.
  Status Rollback();

  /// Observer called synchronously after every swap-log append (the
  /// server feeds these to the flight recorder). Set before traffic;
  /// replace with nullptr to detach.
  void SetEventHook(std::function<void(const SwapEvent&)> hook);

  /// Snapshot of the current version; null before the first Install/
  /// LoadVersion. Holding the returned pointer pins the version, so
  /// scoring through it is immune to concurrent swaps.
  std::shared_ptr<Version> Acquire() const;

  /// The construction-time config; immutable, so read without the lock.
  const PoolConfig& config() const { return config_; }

  /// Id of the served version (0 when empty).
  int64_t current_id() const;

  /// Snapshot of the swap accounting (one lock).
  PoolStats stats() const;
  int64_t swap_count() const { return stats().swap_count; }
  int64_t rejected_count() const { return stats().swap_rejected; }
  int64_t rollback_count() const { return stats().rollbacks; }
  int64_t load_retries() const { return stats().load_retries; }

  /// Copy of the bounded swap audit log, oldest first.
  std::vector<SwapEvent> SwapEvents() const;

  /// Bytes of embedding table the version actually scores with: the
  /// quantized payload when a QuantizedEmbeddingView is attached, else
  /// the fp32 bytes of the model's exposed retrieval views (0 for
  /// models with no view — their working set is not a fixed table).
  /// Read when the server renders /varz and its serve.model_bytes
  /// gauge.
  static int64_t ServedTableBytes(const Version& version);

 private:
  /// Per-probe top-k id lists forming a version's canary signature.
  using ProbeSignature = std::vector<std::vector<int64_t>>;

  /// The one load path behind LoadVersion and LoadLatest: a fresh
  /// factory model, `read` into its parameters under the bounded
  /// kIoError retry policy, a tape-free Refresh, then Install. `read`
  /// may narrow `*source` to the file it actually restored. A failed
  /// read is counted and event-logged as a rejected swap.
  using ReadFn =
      std::function<Status(const CheckpointReadRequest&, std::string*)>;
  Status Load(std::string source, const ReadFn& read);
  /// Canary-scores the probe set; fills `*signature` and fails on any
  /// non-finite score or reference disagreement.
  Status ValidateCandidate(RecModel* model, const ProbeSignature& reference,
                           ProbeSignature* signature) const;
  /// Appends to the bounded swap log and fires the event hook.
  /// Called without mu_ held.
  void RecordEvent(SwapEvent event);

  Factory factory_;
  const PoolConfig config_;
  mutable std::mutex mu_;
  std::shared_ptr<Version> current_;
  /// Last-known-good: the version displaced by the latest successful
  /// Install, retained as the Rollback() target.
  std::shared_ptr<Version> previous_;
  int64_t next_id_ = 1;
  PoolStats stats_;
  /// Canary signature of the last ACCEPTED version (agreement
  /// reference); empty until a version passes an enabled gate.
  ProbeSignature reference_signature_;
  std::deque<SwapEvent> events_;  // bounded to kMaxSwapEvents
  std::function<void(const SwapEvent&)> event_hook_;
};

}  // namespace mgbr::serve

#endif  // MGBR_SERVE_MODEL_POOL_H_
