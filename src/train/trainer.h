#ifndef MGBR_TRAIN_TRAINER_H_
#define MGBR_TRAIN_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "core/mgbr.h"
#include "data/sampler.h"
#include "models/rec_model.h"
#include "tensor/optim.h"
#include "train/checkpoint.h"

namespace mgbr {

/// Knobs of the joint training loop. Paper values (Table II): lr 2e-4,
/// batch 64, 9 negatives per positive, |T| = 99; defaults here are
/// scaled to the simulator-sized dataset (larger lr, fewer negatives)
/// while keeping the loss structure identical.
struct TrainConfig {
  int64_t epochs = 12;
  size_t batch_size = 256;
  /// Negatives drawn per positive (paper's 1:9 ratio => 9).
  int64_t negs_per_pos = 2;
  /// Positive triples per auxiliary-loss step (each expands to
  /// 1 + 2|T| scored triples).
  size_t aux_batch_size = 48;
  float learning_rate = 5e-3f;
  float weight_decay = 0.0f;
  /// Global gradient-norm clip applied before each Adam step
  /// (<= 0 disables). Deep expert/gate stacks occasionally spike.
  float clip_grad_norm = 5.0f;
  /// Learning-rate decay: after `lr_decay_after` fraction of the
  /// scheduled epochs, lr is multiplied by `lr_decay_factor` once
  /// (a simple step schedule that stabilizes the final optimum).
  float lr_decay_after = 0.7f;
  float lr_decay_factor = 0.3f;
  /// β of Eq. 18 for baselines (MGBR reads β, β_A, β_B from its own
  /// MgbrConfig instead).
  float beta = 1.0f;
  uint64_t seed = 7;
  /// Persistent sampler RNG streams (0 = legacy single-stream mode).
  /// When > 0, negative sampling draws its per-chunk seeds from this
  /// many dedicated streams (round-robin) instead of the trainer's main
  /// Rng, and every stream is checkpointed in the RNG1 section, so a
  /// resumed run stays bit-identical at ANY thread count. The streams
  /// are seeded from `seed`, so results depend only on (seed,
  /// sampler_streams), never on MGBR_NUM_THREADS.
  int sampler_streams = 0;
  bool verbose = false;

  /// Crash-safe checkpointing (docs/robustness.md). Empty dir disables
  /// it. When set, the trainer writes parameters + Adam moments + RNG
  /// state + trainer bookkeeping to `<checkpoint_dir>/ckpt-NNNNNN.mgbr`
  /// every `checkpoint_every` epochs (and always at the final epoch or
  /// on a stop signal), keeping the newest `checkpoint_keep` files.
  std::string checkpoint_dir;
  int64_t checkpoint_every = 1;
  int checkpoint_keep = 3;
  /// Write checkpoints from a background thread. The training state is
  /// still serialized synchronously between epochs (so the snapshot is
  /// exact and files are byte-identical to sync mode), but the fsync +
  /// rename + rotation happen off the train thread. Write errors
  /// surface on the next checkpoint attempt or at the end of Train().
  bool async_checkpoints = false;
};

/// Per-epoch training statistics. Loss and grad-norm fields are sums
/// over the epoch's applied steps; divide by `steps` for per-step means
/// (or use the derived EpochTelemetry record, which stores means).
struct EpochStats {
  double loss_a = 0.0;
  double loss_b = 0.0;
  double aux_a = 0.0;
  double aux_b = 0.0;
  /// Global gradient norm summed over steps, before/after clipping.
  double grad_norm_pre = 0.0;
  double grad_norm_post = 0.0;
  /// Learning rate in effect during this epoch.
  double learning_rate = 0.0;
  double seconds = 0.0;
  /// Steps applied (one Adam update each).
  int64_t steps = 0;
  /// Steps whose loss or global gradient norm was NaN/Inf: no update,
  /// and their loss terms stay out of the sums above.
  int64_t skipped_steps = 0;
  /// Mean combined loss per step.
  double TotalLoss() const {
    return steps > 0 ? (loss_a + loss_b + aux_a + aux_b) /
                           static_cast<double>(steps)
                     : 0.0;
  }
};

/// Joint two-task trainer used by every compared model (the paper
/// trains all baselines on both sub-tasks simultaneously). For MGBR
/// models with auxiliary losses enabled, each step optimizes
///   L = L_A + β L_B + β_A L'_A + β_B L'_B          (Eq. 25)
/// and plain L = L_A + β L_B otherwise (Eq. 18). Optimizer: Adam.
class Trainer {
 public:
  /// `model` and `sampler` must outlive the trainer. If `model` is an
  /// MgbrModel whose config enables auxiliary losses, they are added
  /// automatically.
  Trainer(RecModel* model, const TrainingSampler* sampler,
          TrainConfig config);

  /// Runs one epoch over all Task A and Task B positives.
  EpochStats RunEpoch();

  /// Runs `config.epochs` epochs (or `epochs` if > 0) and returns
  /// per-epoch stats.
  std::vector<EpochStats> Train(int64_t epochs = 0);

  Adam* optimizer() { return optimizer_.get(); }

  /// Attaches a telemetry sink (may be null; must outlive the trainer).
  /// Every subsequent RunEpoch() appends one EpochTelemetry record —
  /// per-term losses, grad norms, lr, sampler effort, wall time.
  void SetTelemetry(RunTelemetry* telemetry) { telemetry_ = telemetry; }
  RunTelemetry* telemetry() const { return telemetry_; }

  /// Epoch cursor + early-stopping scoreboard, exactly what the
  /// checkpoint's TRN1 section round-trips.
  const TrainerState& state() const { return state_; }
  TrainerState* mutable_state() { return &state_; }

  /// Structural hash of the training setup (model name, parameter
  /// shapes, and the MgbrConfig when the model is an MgbrModel).
  /// Stored in every checkpoint; a resume against a different setup is
  /// rejected instead of silently mis-trained.
  uint64_t ConfigFingerprint() const;

  /// Restores the newest valid checkpoint from config.checkpoint_dir
  /// (params, Adam moments, RNG stream, trainer state) and refreshes
  /// the model. Returns the number of epochs already run (0 = nothing
  /// to resume, fresh start). Corrupt files fall back to older ones;
  /// a fingerprint mismatch or unreadable directory is an error. A
  /// resumed run continues bit-identically with an uninterrupted one.
  Result<int64_t> TryResume();

  /// Writes a checkpoint for the epochs run so far when checkpointing
  /// is enabled and the cadence (or `force`) calls for one; otherwise a
  /// no-op. With config.async_checkpoints the write completes in the
  /// background; the returned status then covers serialization and the
  /// previous pending write (see CheckpointManager::Save).
  Status MaybeCheckpoint(bool force = false);

  /// Blocks until any in-flight async checkpoint write has landed and
  /// returns its status. No-op (OK) in sync mode or when checkpointing
  /// is disabled. Train() calls this before returning.
  Status FlushCheckpoints();

 private:
  /// Lazily-created persistent manager (lives across epochs so an async
  /// writer can span the gap between checkpoints).
  CheckpointManager* Manager();

  RecModel* model_;
  MgbrModel* mgbr_;  // non-null when model_ is an MgbrModel
  const TrainingSampler* sampler_;
  TrainConfig config_;
  Rng rng_;
  /// Dedicated sampler streams (empty in legacy mode); passed to every
  /// Epoch* sampler call and round-tripped through checkpoints.
  std::vector<Rng> sampler_streams_;
  std::unique_ptr<Adam> optimizer_;
  RunTelemetry* telemetry_ = nullptr;
  TrainerState state_;
  std::unique_ptr<CheckpointManager> ckpt_manager_;
};

/// Installs SIGINT/SIGTERM handlers that set the stop flag polled by
/// Train / TrainWithEarlyStopping: the current epoch finishes, a final
/// checkpoint is written (when enabled), and the loop exits cleanly.
void InstallStopSignalHandlers();

/// True once a stop signal arrived (or RequestStop() was called).
bool StopRequested();

/// Sets / clears the stop flag programmatically (tests, embedding).
void RequestStop();
void ClearStopRequest();

/// Result of TrainWithEarlyStopping.
struct ValidatedTrainResult {
  std::vector<EpochStats> history;
  /// Best validation metric seen and the (0-based) epoch it occurred.
  double best_metric = -1e300;
  int64_t best_epoch = -1;
  /// True when training ended because patience ran out (vs max epochs).
  bool stopped_early = false;
};

/// Runs up to `max_epochs` epochs, calling `validate` (higher = better)
/// after each; stops after `patience` epochs without improvement.
/// `checkpoint_path` (optional, may be empty) receives the parameters
/// of the best epoch so callers can restore the best model with
/// LoadParameters.
ValidatedTrainResult TrainWithEarlyStopping(
    Trainer* trainer, RecModel* model,
    const std::function<double()>& validate, int64_t max_epochs,
    int64_t patience, const std::string& checkpoint_path = "");

/// Patience-based early stopping on a maximized validation metric.
class EarlyStopping {
 public:
  explicit EarlyStopping(int64_t patience) : patience_(patience) {}

  /// Records `metric`; returns true when training should stop (no
  /// improvement for `patience` consecutive updates).
  bool ShouldStop(double metric);

  double best() const { return best_; }

 private:
  int64_t patience_;
  double best_ = -1e300;
  int64_t since_best_ = 0;
};

}  // namespace mgbr

#endif  // MGBR_TRAIN_TRAINER_H_
