#ifndef MGBR_TRAIN_CHECKPOINT_H_
#define MGBR_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tensor/optim.h"
#include "tensor/variable.h"

namespace mgbr {

/// Crash-safe checkpointing (format v2). See docs/robustness.md.
///
/// A v2 checkpoint is a sectioned binary file:
///
///   magic "MGBRCKP2" | u32 version=2 | u32 n_sections
///   per section: u32 tag | u32 crc32(payload) | u64 payload_bytes
///                | payload
///
/// Sections (all optional except params):
///   CFG1  model/config fingerprint (u64)
///   PAR1  parameter tensors: u64 count, then {i64 rows, i64 cols, f32[]}
///   ADM1  Adam state: i64 t, f32 lr, u64 count,
///         then {i64 rows, i64 cols, f32 m[], f32 v[]}
///   RNG1  RNG streams: u64 n, then {u64 s[4], u8 has_cached, f64 cached}
///   TRN1  trainer state: i64 epochs_run, f64 best_metric,
///         i64 best_epoch, i64 since_best
///
/// Durability: files are written to `<path>.tmp`, fsync'd, then
/// atomically renamed over `<path>` (with a parent-directory fsync), so
/// a reader never observes a half-written checkpoint under its final
/// name. Every section carries a CRC32, so torn writes and bit flips
/// are detected at load time instead of silently corrupting a model.

/// Trainer bookkeeping that must survive a restart for a resumed run to
/// continue exactly where the original left off (epoch cursor plus the
/// early-stopping scoreboard).
struct TrainerState {
  int64_t epochs_run = 0;
  double best_metric = -1e300;
  int64_t best_epoch = -1;
  int64_t since_best = 0;
};

/// What to persist. `params` is required; every other pointer is
/// optional and simply omits its section when null.
struct CheckpointWriteRequest {
  const std::vector<Var>* params = nullptr;
  const Adam* optimizer = nullptr;
  const Rng* rng = nullptr;
  /// Optional extra RNG streams (e.g. the trainer's persistent sampler
  /// streams) appended after `rng` in the RNG1 section. Ignored when
  /// `rng` is null.
  const std::vector<Rng>* rng_streams = nullptr;
  const TrainerState* trainer = nullptr;
  /// Stored in the CFG1 section when non-zero (see
  /// Trainer::ConfigFingerprint / MgbrConfig::Fingerprint).
  uint64_t fingerprint = 0;
};

/// Where to restore. `params` is required and must match the file's
/// tensor count/shapes; optional pointers demand their section (a file
/// without it fails with NotFound). Restoration is all-or-nothing:
/// every section is parsed and validated before the first byte of
/// model/optimizer/RNG state is mutated.
struct CheckpointReadRequest {
  std::vector<Var>* params = nullptr;
  Adam* optimizer = nullptr;
  Rng* rng = nullptr;
  /// When non-null, the RNG1 section must carry exactly
  /// 1 + rng_streams->size() streams; the extras are restored into
  /// *rng_streams in order. When null, the file must carry exactly one
  /// stream (the legacy layout). Ignored when `rng` is null.
  std::vector<Rng>* rng_streams = nullptr;
  TrainerState* trainer = nullptr;
  /// When non-zero, the file's CFG1 fingerprint must equal it.
  uint64_t expected_fingerprint = 0;
};

/// Writes a v2 checkpoint atomically (temp + fsync + rename).
/// Equivalent to SerializeCheckpoint + WriteCheckpointBytes.
Status SaveCheckpoint(const CheckpointWriteRequest& request,
                      const std::string& path);

/// Builds the complete v2 file image (magic, header, CRC'd sections)
/// into `*out` without touching the filesystem. Splitting serialization
/// from I/O lets an async writer snapshot training state on the train
/// thread — while the parameters are guaranteed quiescent — and pay the
/// fsync latency elsewhere.
Status SerializeCheckpoint(const CheckpointWriteRequest& request,
                           std::string* out);

/// Durably lands pre-serialized checkpoint bytes at `path` via the
/// temp + fsync + atomic-rename protocol (including the crash-safety
/// kill points exercised by the fault-injection tests). The bytes are
/// written verbatim, so the produced file is byte-identical regardless
/// of which thread calls this.
Status WriteCheckpointBytes(const std::string& bytes,
                            const std::string& path);

/// Loads and verifies a v2 checkpoint. Corruption — truncation, CRC
/// mismatch, impossible counts/shapes — yields an error, and any other
/// magic (the retired unchecksummed v1 "MGBRCKP1" included) an
/// InvalidArgument; either way every target is left untouched.
Status LoadCheckpoint(const std::string& path,
                      const CheckpointReadRequest& request);

/// Params-only convenience wrappers: SaveParameters writes an atomic,
/// CRC-protected v2 file holding only the PAR1 section; LoadParameters
/// reads the params of any v2 file.
Status SaveParameters(const std::vector<Var>& params,
                      const std::string& path);
Status LoadParameters(const std::string& path, std::vector<Var>* params);

/// Rotating checkpoint directory with corruption fall-back.
///
/// Files are `<dir>/ckpt-NNNNNN.mgbr` (NNNNNN = epoch). Save() writes
/// atomically, prunes to the newest `keep_last` files, and clears stale
/// temp files from interrupted earlier runs. RestoreLatest() walks the
/// epochs newest-first and returns the first checkpoint that fully
/// verifies, counting corrupt files (checkpoint.corrupt_detected) and
/// fall-backs (checkpoint.fallbacks) along the way.
///
/// Async mode (`async = true`): Save() serializes the request on the
/// calling thread — capturing the exact training state at the call —
/// then hands the bytes to a background writer that performs the
/// temp + fsync + rename and rotation, so the train loop never blocks
/// on disk. At most one write is in flight: the next Save() (and
/// WaitForPending()) first joins the previous writer and surfaces its
/// status, so no write error is ever silently dropped. The produced
/// files are byte-identical to sync mode. The destructor joins any
/// in-flight write, so a manager never outlives its writer thread.
/// All methods must be called from one thread (the train loop).
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir, int keep_last = 3,
                             bool async = false);
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// `<dir>/ckpt-NNNNNN.mgbr` for the given epoch.
  std::string PathFor(int64_t epoch) const;

  /// Atomically writes the checkpoint for `epoch`, then rotates. In
  /// async mode the serialized bytes are handed to the writer thread
  /// and the returned status covers serialization plus the PREVIOUS
  /// pending write (use WaitForPending() to collect the last one).
  Status Save(const CheckpointWriteRequest& request, int64_t epoch);

  /// Joins the in-flight async write, if any, and returns its status
  /// (OK when idle or in sync mode). Call before reading checkpoints
  /// back or at end of training to ensure the last write is durable.
  Status WaitForPending();

  /// Restores the newest checkpoint that verifies; `*epoch_out`
  /// receives its epoch. NotFound when the directory holds no valid
  /// checkpoint.
  Status RestoreLatest(const CheckpointReadRequest& request,
                       int64_t* epoch_out);

  /// Epochs with a checkpoint file present, ascending.
  std::vector<int64_t> ListEpochs() const;

  const std::string& dir() const { return dir_; }
  int keep_last() const { return keep_last_; }
  bool async() const { return async_; }

 private:
  /// Write + rotate for pre-serialized bytes (the writer-thread body;
  /// also the tail of the sync path, keeping the two modes identical).
  Status WriteAndRotate(const std::string& bytes, int64_t epoch);

  std::string dir_;
  int keep_last_;
  bool async_;
  /// In-flight async writer. Joined (and its status collected) before
  /// the next write starts and in the destructor. `pending_status_` is
  /// written by the writer thread and read only after join(), which
  /// provides the necessary synchronization.
  std::thread writer_;
  Status pending_status_;
};

}  // namespace mgbr

#endif  // MGBR_TRAIN_CHECKPOINT_H_
