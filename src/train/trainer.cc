#include "train/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>

#include "common/checksum.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/losses.h"
#include "train/checkpoint.h"
#include "tensor/ops.h"

namespace mgbr {

namespace {

Counter* SamplerDrawsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("sampler.draws");
  return c;
}

Counter* SamplerRejectionsCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("sampler.rejections");
  return c;
}

#if MGBR_TELEMETRY
Gauge* LearningRateGauge() {
  static Gauge* g =
      MetricsRegistry::Global().GetGauge("trainer.learning_rate");
  return g;
}
#endif  // MGBR_TELEMETRY

std::atomic<bool> g_stop_requested{false};

void MgbrStopSignalHandler(int /*signum*/) {
  // Only async-signal-safe work here: flip the flag, let the training
  // loop notice it at the next epoch boundary.
  g_stop_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

void InstallStopSignalHandlers() {
  std::signal(SIGINT, MgbrStopSignalHandler);
  std::signal(SIGTERM, MgbrStopSignalHandler);
}

bool StopRequested() {
  return g_stop_requested.load(std::memory_order_relaxed);
}

void RequestStop() { g_stop_requested.store(true, std::memory_order_relaxed); }

void ClearStopRequest() {
  g_stop_requested.store(false, std::memory_order_relaxed);
}

Trainer::Trainer(RecModel* model, const TrainingSampler* sampler,
                 TrainConfig config)
    : model_(model),
      mgbr_(dynamic_cast<MgbrModel*>(model)),
      sampler_(sampler),
      config_(config),
      rng_(config.seed) {
  MGBR_CHECK(model != nullptr);
  MGBR_CHECK(sampler != nullptr);
  MGBR_CHECK_GE(config_.sampler_streams, 0);
  // Stream s gets its own ForStream lane off the base seed (offset past
  // the lanes the samplers themselves derive), so the set is stable for
  // a given (seed, sampler_streams) regardless of thread count.
  sampler_streams_.reserve(static_cast<size_t>(config_.sampler_streams));
  for (int s = 0; s < config_.sampler_streams; ++s) {
    sampler_streams_.push_back(
        Rng::ForStream(config_.seed, 1000 + static_cast<uint64_t>(s)));
  }
  optimizer_ = std::make_unique<Adam>(model_->Parameters(),
                                      config_.learning_rate, 0.9f, 0.999f,
                                      1e-8f, config_.weight_decay);
}

EpochStats Trainer::RunEpoch() {
  // The epoch span is the single timing source of truth: its duration
  // becomes EpochStats.seconds, the telemetry record, and (when
  // tracing) the Chrome trace event — they can never disagree.
  TimedSpan epoch_span("trainer.epoch", "trainer");
  EpochStats stats;

  // Sampler-effort deltas for the telemetry record (counters are
  // process-global; only the within-epoch growth belongs to us).
  const int64_t draws_before = SamplerDrawsCounter()->Value();
  const int64_t rejections_before = SamplerRejectionsCounter()->Value();

  const bool use_aux = mgbr_ != nullptr && mgbr_->config().use_aux_losses;
  const float beta = mgbr_ != nullptr ? mgbr_->config().beta : config_.beta;
  const float beta_a = mgbr_ != nullptr ? mgbr_->config().beta_a : 0.0f;
  const float beta_b = mgbr_ != nullptr ? mgbr_->config().beta_b : 0.0f;

  std::vector<Rng>* streams =
      sampler_streams_.empty() ? nullptr : &sampler_streams_;
  std::vector<TaskABatch> batches_a;
  std::vector<TaskBBatch> batches_b;
  std::vector<AuxBatch> batches_aux;
  {
    MGBR_TRACE_SPAN("trainer.sample_epoch", "trainer");
    batches_a = sampler_->EpochBatchesA(config_.batch_size,
                                        config_.negs_per_pos, &rng_, streams);
    batches_b = sampler_->EpochBatchesB(config_.batch_size,
                                        config_.negs_per_pos, &rng_, streams);
    if (use_aux) {
      batches_aux = sampler_->EpochAuxBatches(config_.aux_batch_size,
                                              mgbr_->config().aux_negatives,
                                              &rng_, streams);
    }
  }

  const size_t steps = std::max(batches_a.size(), batches_b.size());
  MGBR_CHECK_GT(steps, 0u);
  for (size_t step = 0; step < steps; ++step) {
    MGBR_TRACE_SPAN("trainer.step", "trainer");
    // Crash-recovery testing hook: MGBR_FAULT="kill@trainer.step:N"
    // terminates the process at the N-th step (common/fault.h).
    fault::KillPoint("trainer.step");
    {
      MGBR_TRACE_SPAN("trainer.refresh", "trainer");
      model_->Refresh();
    }

    // When the shorter task's batch list is exhausted mid-epoch,
    // regenerate it so revisited positives get FRESH negative samples
    // instead of replaying stale ones.
    if (!batches_a.empty() && step > 0 && step % batches_a.size() == 0 &&
        batches_a.size() < steps) {
      batches_a = sampler_->EpochBatchesA(
          config_.batch_size, config_.negs_per_pos, &rng_, streams);
    }
    if (!batches_b.empty() && step > 0 && step % batches_b.size() == 0 &&
        batches_b.size() < steps) {
      batches_b = sampler_->EpochBatchesB(
          config_.batch_size, config_.negs_per_pos, &rng_, streams);
    }
    if (use_aux && !batches_aux.empty() && step > 0 &&
        step % batches_aux.size() == 0 && batches_aux.size() < steps) {
      batches_aux = sampler_->EpochAuxBatches(config_.aux_batch_size,
                                              mgbr_->config().aux_negatives,
                                              &rng_, streams);
    }

    // This step's loss terms; they join the epoch sums only if the
    // step is applied.
    double loss_a = 0.0, loss_b = 0.0, aux_a = 0.0, aux_b = 0.0;
    Var loss;
    if (!batches_a.empty()) {
      MGBR_TRACE_SPAN("trainer.loss_a", "trainer");
      const TaskABatch& ba = batches_a[step % batches_a.size()];
      Var la = TaskALoss(model_, ba);
      loss_a = la.value().item();
      loss = la;
    }
    if (!batches_b.empty()) {
      MGBR_TRACE_SPAN("trainer.loss_b", "trainer");
      const TaskBBatch& bb = batches_b[step % batches_b.size()];
      Var lb = TaskBLoss(model_, bb);
      loss_b = lb.value().item();
      Var weighted = MulScalar(lb, beta);
      loss = loss.defined() ? Add(loss, weighted) : weighted;
    }
    if (use_aux && !batches_aux.empty()) {
      MGBR_TRACE_SPAN("trainer.aux_loss", "trainer");
      const AuxBatch& bx = batches_aux[step % batches_aux.size()];
      Var laa = AuxLossA(mgbr_, bx);
      Var lab = AuxLossB(mgbr_, bx);
      aux_a = laa.value().item();
      aux_b = lab.value().item();
      loss = Add(loss, Add(MulScalar(laa, beta_a), MulScalar(lab, beta_b)));
    }

    optimizer_->ZeroGrad();
    {
      MGBR_TRACE_SPAN("trainer.backward", "trainer");
      loss.Backward();
    }
    double norm = 0.0;
    {
      MGBR_TRACE_SPAN("trainer.clip_grad", "trainer");
      norm = ClipGradNorm(optimizer_->params_mutable(),
                          config_.clip_grad_norm);
    }
    // A NaN/Inf loss or gradient would poison every parameter Adam
    // touches and every checkpoint after it: such a step updates
    // nothing and is only counted.
    if (!std::isfinite(loss.value().item()) || !std::isfinite(norm)) {
      ++stats.skipped_steps;
      MGBR_LOG_WARNING(model_->name(), " skipped step ", step,
                       ": non-finite loss or gradient norm");
      continue;
    }
    stats.loss_a += loss_a;
    stats.loss_b += loss_b;
    stats.aux_a += aux_a;
    stats.aux_b += aux_b;
    stats.grad_norm_pre += norm;
    stats.grad_norm_post +=
        (config_.clip_grad_norm > 0.0f &&
         norm > static_cast<double>(config_.clip_grad_norm))
            ? static_cast<double>(config_.clip_grad_norm)
            : norm;
    {
      MGBR_TRACE_SPAN("trainer.optim_step", "trainer");
      optimizer_->Step();
    }
    ++stats.steps;
  }

  stats.learning_rate = optimizer_->learning_rate();
#if MGBR_TELEMETRY
  MGBR_GAUGE_SET(LearningRateGauge(),
                 static_cast<double>(stats.learning_rate));
#endif
  stats.seconds = epoch_span.Finish();
  ++state_.epochs_run;

  if (telemetry_ != nullptr) {
    const double inv =
        stats.steps > 0 ? 1.0 / static_cast<double>(stats.steps) : 0.0;
    EpochTelemetry record;
    record.model = model_->name();
    record.epoch = state_.epochs_run;
    record.steps = stats.steps;
    record.loss_a = stats.loss_a * inv;
    record.loss_b = stats.loss_b * inv;
    record.aux_a = stats.aux_a * inv;
    record.aux_b = stats.aux_b * inv;
    record.total_loss = stats.TotalLoss();
    record.grad_norm_pre = stats.grad_norm_pre * inv;
    record.grad_norm_post = stats.grad_norm_post * inv;
    record.learning_rate = stats.learning_rate;
    record.sampler_draws = SamplerDrawsCounter()->Value() - draws_before;
    record.sampler_rejections =
        SamplerRejectionsCounter()->Value() - rejections_before;
    record.sampler_rejection_rate =
        record.sampler_draws > 0
            ? static_cast<double>(record.sampler_rejections) /
                  static_cast<double>(record.sampler_draws)
            : 0.0;
    record.seconds = stats.seconds;
    telemetry_->RecordEpoch(record);
  }
  return stats;
}

std::vector<EpochStats> Trainer::Train(int64_t epochs) {
  if (epochs <= 0) epochs = config_.epochs;
  std::vector<EpochStats> history;
  const int64_t decay_epoch = static_cast<int64_t>(
      static_cast<float>(epochs) * config_.lr_decay_after);
  // The epoch cursor is absolute (state_.epochs_run), so a resumed
  // trainer picks up exactly where the checkpoint left off: the decay
  // step fires at the same absolute epoch, checkpoints land on the same
  // cadence, and the drawn random stream continues unbroken.
  for (int64_t e = state_.epochs_run; e < epochs; ++e) {
    if (config_.lr_decay_factor > 0.0f && config_.lr_decay_factor < 1.0f &&
        e == decay_epoch && decay_epoch > 0) {
      optimizer_->set_learning_rate(optimizer_->learning_rate() *
                                    config_.lr_decay_factor);
    }
    EpochStats stats = RunEpoch();
    if (config_.verbose) {
      MGBR_LOG_INFO(model_->name(), " epoch ", e + 1, "/", epochs,
                    " loss=", FormatFloat(stats.TotalLoss(), 4),
                    " (A=", FormatFloat(stats.loss_a / stats.steps, 4),
                    " B=", FormatFloat(stats.loss_b / stats.steps, 4),
                    ") ", FormatFloat(stats.seconds, 2), "s");
    }
    history.push_back(stats);
    const bool stopping = StopRequested();
    const Status saved = MaybeCheckpoint(stopping || e + 1 >= epochs);
    if (!saved.ok()) {
      MGBR_LOG_WARNING("checkpoint failed: ", saved.ToString());
    }
    if (stopping) {
      MGBR_LOG_WARNING("stop requested; exiting after epoch ",
                       state_.epochs_run, " (checkpoint ",
                       config_.checkpoint_dir.empty() ? "disabled"
                                                      : "written",
                       ")");
      break;
    }
  }
  // The final checkpoint must be durable before Train() returns: in
  // async mode the last Save() may still be in flight here.
  const Status flushed = FlushCheckpoints();
  if (!flushed.ok()) {
    MGBR_LOG_WARNING("final checkpoint write failed: ", flushed.ToString());
  }
  return history;
}

uint64_t Trainer::ConfigFingerprint() const {
  const std::string name = model_->name();
  uint64_t h = Fnv1a64(name.data(), name.size());
  for (const Var& p : optimizer_->params()) {
    h = Fnv1a64Mix(p.value().rows(), h);
    h = Fnv1a64Mix(p.value().cols(), h);
  }
  if (mgbr_ != nullptr) h = mgbr_->config().Fingerprint(h);
  return h;
}

CheckpointManager* Trainer::Manager() {
  if (ckpt_manager_ == nullptr) {
    ckpt_manager_ = std::make_unique<CheckpointManager>(
        config_.checkpoint_dir, config_.checkpoint_keep,
        config_.async_checkpoints);
  }
  return ckpt_manager_.get();
}

Status Trainer::FlushCheckpoints() {
  if (ckpt_manager_ == nullptr) return Status::OK();
  return ckpt_manager_->WaitForPending();
}

Result<int64_t> Trainer::TryResume() {
  if (config_.checkpoint_dir.empty()) return int64_t{0};
  CheckpointManager& manager = *Manager();
  CheckpointReadRequest request;
  // The optimizer's Vars are shared handles onto the model's parameters
  // (Trainer's constructor passes model->Parameters()), so restoring
  // through them updates the model in place.
  request.params = &optimizer_->params_mutable();
  request.optimizer = optimizer_.get();
  request.rng = &rng_;
  request.rng_streams = sampler_streams_.empty() ? nullptr : &sampler_streams_;
  request.trainer = &state_;
  request.expected_fingerprint = ConfigFingerprint();
  int64_t epoch = 0;
  const Status status = manager.RestoreLatest(request, &epoch);
  if (status.code() == StatusCode::kNotFound) return int64_t{0};
  if (!status.ok()) return status;
  model_->Refresh();
  MGBR_LOG_INFO("resumed from ", manager.PathFor(epoch), " (",
                state_.epochs_run, " epoch(s) already run)");
  return state_.epochs_run;
}

Status Trainer::MaybeCheckpoint(bool force) {
  if (config_.checkpoint_dir.empty()) return Status::OK();
  if (!force && (config_.checkpoint_every <= 0 ||
                 state_.epochs_run % config_.checkpoint_every != 0)) {
    return Status::OK();
  }
  CheckpointManager& manager = *Manager();
  CheckpointWriteRequest request;
  request.params = &optimizer_->params();
  request.optimizer = optimizer_.get();
  request.rng = &rng_;
  request.rng_streams = sampler_streams_.empty() ? nullptr : &sampler_streams_;
  request.trainer = &state_;
  request.fingerprint = ConfigFingerprint();
  return manager.Save(request, state_.epochs_run);
}

ValidatedTrainResult TrainWithEarlyStopping(
    Trainer* trainer, RecModel* model,
    const std::function<double()>& validate, int64_t max_epochs,
    int64_t patience, const std::string& checkpoint_path) {
  MGBR_CHECK(trainer != nullptr);
  MGBR_CHECK(model != nullptr);
  MGBR_CHECK_GE(patience, 1);
  ValidatedTrainResult result;
  // The scoreboard lives in TrainerState so it rides along in periodic
  // checkpoints; a resumed trainer (TryResume) re-enters this loop with
  // its best-so-far and patience budget intact.
  TrainerState* state = trainer->mutable_state();
  result.best_metric = state->best_metric;
  result.best_epoch = state->best_epoch;
  for (int64_t epoch = state->epochs_run; epoch < max_epochs; ++epoch) {
    result.history.push_back(trainer->RunEpoch());
    const double metric = validate();
    if (trainer->telemetry() != nullptr) {
      trainer->telemetry()->AnnotateLastEpoch({{"val_metric", metric}});
    }
    bool stop = StopRequested();
    if (metric > state->best_metric) {
      state->best_metric = metric;
      state->best_epoch = epoch;
      state->since_best = 0;
      result.best_metric = metric;
      result.best_epoch = epoch;
      if (!checkpoint_path.empty()) {
        auto params = model->Parameters();
        Status s = SaveParameters(params, checkpoint_path);
        if (!s.ok()) {
          MGBR_LOG_WARNING("best-epoch checkpoint failed: ", s.ToString());
        }
      }
    } else if (++state->since_best >= patience) {
      result.stopped_early = true;
      stop = true;
    }
    const Status saved =
        trainer->MaybeCheckpoint(stop || epoch + 1 >= max_epochs);
    if (!saved.ok()) {
      MGBR_LOG_WARNING("checkpoint failed: ", saved.ToString());
    }
    if (stop) break;
  }
  const Status flushed = trainer->FlushCheckpoints();
  if (!flushed.ok()) {
    MGBR_LOG_WARNING("final checkpoint write failed: ", flushed.ToString());
  }
  return result;
}

bool EarlyStopping::ShouldStop(double metric) {
  if (metric > best_) {
    best_ = metric;
    since_best_ = 0;
    return false;
  }
  ++since_best_;
  return since_best_ >= patience_;
}

}  // namespace mgbr
