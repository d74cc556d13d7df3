#include "serve/model_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "tensor/variable.h"

namespace mgbr::serve {

namespace {

/// Swap audit log retention (installs + rejections + rollbacks).
constexpr size_t kMaxSwapEvents = 64;

/// Bounded retry for kIoError checkpoint-read failures: attempts =
/// 1 + kLoadMaxRetries, exponential backoff from kLoadBackoffMs with
/// deterministic jitter seeded by kLoadJitterSeed. The checkpoint
/// format reports both transient EIO and detected corruption as
/// kIoError, so a corrupt file burns the (small, bounded) retry budget
/// before rejection — a deliberate trade: it also rides out the
/// it-was-still-being-written window. Every other code fails fast.
constexpr int kLoadMaxRetries = 2;
constexpr int64_t kLoadBackoffMs = 5;
constexpr uint64_t kLoadJitterSeed = 0x10adbeef;

/// Refreshes a freshly loaded version. Nothing runs backward through a
/// served model, so the refresh builds no tape: its cached embeddings
/// are plain values, bitwise those of a taped refresh (variable.h).
void RefreshForServing(RecModel* model) {
  NoGradScope no_grad;
  model->Refresh();
}

}  // namespace

ModelPool::ModelPool(Factory factory, PoolConfig config)
    : factory_(std::move(factory)), config_(config) {
  if (config_.retrieval.enabled) {
    MGBR_CHECK_GE(config_.retrieval.nprobe, 1);
    MGBR_CHECK_GE(config_.retrieval.overfetch, 1);
  }
}

int64_t ModelPool::ServedTableBytes(const Version& version) {
  if (version.quant != nullptr) return version.quant->model_bytes();
  if (version.model == nullptr) return 0;
  int64_t bytes = 0;
  const float* data = nullptr;
  int64_t n = 0;
  int64_t d = 0;
  if (version.model->RetrievalItemView(&data, &n, &d)) bytes += n * d * 4;
  if (version.model->RetrievalPartView(&data, &n, &d)) bytes += n * d * 4;
  return bytes;
}

void ModelPool::RecordEvent(SwapEvent event) {
  std::function<void(const SwapEvent&)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
    while (events_.size() > kMaxSwapEvents) events_.pop_front();
    hook = event_hook_;
  }
  if (hook) hook(event);
}

Status ModelPool::ValidateCandidate(RecModel* model,
                                    const ProbeSignature& reference,
                                    ProbeSignature* signature) const {
  const ValidationConfig& config = config_.validation;
  NoGradScope no_grad;
  const int64_t probes = std::min(config.probe_users, model->num_users());
  signature->clear();
  signature->reserve(static_cast<size_t>(probes));
  for (int64_t u = 0; u < probes; ++u) {
    const Var column = model->ScoreAAll(u);
    std::vector<double> scores(static_cast<size_t>(column.rows()));
    for (int64_t r = 0; r < column.rows(); ++r) {
      const double v = column.value().at(r, 0);
      if (!std::isfinite(v)) {
        return Status::FailedPrecondition(
            "canary: non-finite score for probe user " + std::to_string(u) +
            " item " + std::to_string(r));
      }
      scores[static_cast<size_t>(r)] = v;
    }
    signature->push_back(TopKIndices(scores, config.probe_k));
  }
  if (config.min_ref_overlap > 0.0 && !reference.empty()) {
    const size_t n = std::min(signature->size(), reference.size());
    double overlap_sum = 0.0;
    for (size_t u = 0; u < n; ++u) {
      const std::vector<int64_t>& got = (*signature)[u];
      const std::vector<int64_t>& want = reference[u];
      int64_t common = 0;
      for (int64_t id : got) {
        if (std::find(want.begin(), want.end(), id) != want.end()) ++common;
      }
      const size_t denom = std::max(got.size(), want.size());
      overlap_sum += denom == 0 ? 1.0
                                : static_cast<double>(common) /
                                      static_cast<double>(denom);
    }
    const double mean = n == 0 ? 1.0 : overlap_sum / static_cast<double>(n);
    if (mean < config.min_ref_overlap) {
      return Status::FailedPrecondition(
          "canary: probe top-k overlap " + std::to_string(mean) +
          " below reference threshold " +
          std::to_string(config.min_ref_overlap));
    }
  }
  return Status::OK();
}

int64_t ModelPool::Install(std::unique_ptr<RecModel> model,
                           std::string source) {
  MGBR_CHECK(model != nullptr);
  ProbeSignature signature;
  if (config_.validation.enabled) {
    ProbeSignature reference;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reference = reference_signature_;
    }
    const Status verdict =
        ValidateCandidate(model.get(), reference, &signature);
    if (!verdict.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.swap_rejected;
      }
      MGBR_LOG_WARNING("pool: rejected candidate '", source, "': ",
                       verdict.message());
      RecordEvent(SwapEvent{SwapEvent::Kind::kReject, 0, source,
                            verdict.message()});
      return 0;
    }
  }
  auto version = std::make_shared<Version>();
  version->model = std::shared_ptr<RecModel>(std::move(model));
  version->source = std::move(source);
  // Index and quantized-table construction happen before the version
  // becomes visible, so no reader can ever pair this model with
  // another version's index or quantized table, and outside mu_, so a
  // k-means build never serializes Acquire().
  if (config_.retrieval.enabled) {
    version->retriever =
        retrieval::ItemRetriever::BuildFor(*version->model, config_.retrieval);
  }
  version->quant =
      QuantizedEmbeddingView::BuildFor(*version->model, config_.quant);
  int64_t id = 0;
  std::string event_source;
  {
    std::lock_guard<std::mutex> lock(mu_);
    version->id = next_id_++;
    // The displaced version becomes the last-known-good Rollback()
    // target.
    previous_ = current_;
    current_ = std::move(version);
    ++stats_.swap_count;
    if (config_.validation.enabled) reference_signature_ = std::move(signature);
    id = current_->id;
    event_source = current_->source;
  }
  RecordEvent(SwapEvent{SwapEvent::Kind::kInstall, id,
                        std::move(event_source), ""});
  return id;
}

Status ModelPool::Rollback() {
  std::shared_ptr<Version> restored;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (previous_ == nullptr) {
      return Status::FailedPrecondition(
          "rollback: no last-known-good version retained");
    }
    // Swap current/previous: the restored version keeps its original
    // id (the model object is unchanged, so cached scores for that id
    // stay bitwise valid), and a second Rollback undoes the first.
    std::swap(current_, previous_);
    restored = current_;
    ++stats_.rollbacks;
  }
  MGBR_LOG_WARNING("pool: rolled back to version ", restored->id, " ('",
                   restored->source, "')");
  RecordEvent(SwapEvent{SwapEvent::Kind::kRollback, restored->id,
                        restored->source, ""});
  // Re-anchor the agreement reference on the restored model: the next
  // candidate must agree with what is actually serving now.
  if (config_.validation.enabled) {
    ProbeSignature signature;
    if (ValidateCandidate(restored->model.get(), {}, &signature).ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (current_ == restored) reference_signature_ = std::move(signature);
    }
  }
  return Status::OK();
}

void ModelPool::SetEventHook(std::function<void(const SwapEvent&)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  event_hook_ = std::move(hook);
}

Status ModelPool::Load(std::string source, const ReadFn& read) {
  MGBR_CHECK(factory_ != nullptr);
  std::unique_ptr<RecModel> model = factory_();
  MGBR_CHECK(model != nullptr);
  fault::DelayPoint("pool.load");
  std::vector<Var> params = model->Parameters();
  CheckpointReadRequest request;
  request.params = &params;
  Status status;
  for (int attempt = 0; attempt <= kLoadMaxRetries; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with deterministic seeded jitter: the
      // schedule of a given (seed, source, attempt) never varies run to
      // run, so fault-injection tests stay reproducible.
      const int64_t base = kLoadBackoffMs << (attempt - 1);
      Rng rng(kLoadJitterSeed ^ std::hash<std::string>{}(source) ^
              static_cast<uint64_t>(attempt));
      const int64_t jitter =
          static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(base)));
      std::this_thread::sleep_for(std::chrono::milliseconds(base + jitter));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.load_retries;
      }
      MGBR_LOG_WARNING("pool: retrying load of '", source, "' (attempt ",
                       attempt + 1, "/", kLoadMaxRetries + 1,
                       ") after: ", status.message());
    }
    status = read(request, &source);
    // Retry only transient IO errors; corruption (kDataLoss-class
    // failures surface as other codes) fails fast — the bytes on disk
    // will not get better.
    if (status.ok() || status.code() != StatusCode::kIoError) break;
  }
  if (!status.ok()) {
    // A failed load is a rejected swap: count and event-log it so the
    // serving audit trail shows the candidate that never published.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.swap_rejected;
    }
    RecordEvent(
        SwapEvent{SwapEvent::Kind::kReject, 0, source, status.ToString()});
    return status;
  }
  RefreshForServing(model.get());
  if (Install(std::move(model), source) == 0) {
    return Status::FailedPrecondition("validation rejected '" + source + "'");
  }
  return Status::OK();
}

Status ModelPool::LoadVersion(const std::string& checkpoint_path) {
  return Load(checkpoint_path,
              [&checkpoint_path](const CheckpointReadRequest& request,
                                 std::string*) {
                return LoadCheckpoint(checkpoint_path, request);
              });
}

Status ModelPool::LoadLatest(CheckpointManager* manager) {
  MGBR_CHECK(manager != nullptr);
  // The retry wraps the whole newest-first restore: RestoreLatest's own
  // fall-back handles permanent corruption, the retry a transiently
  // flaky read of an otherwise-good file.
  return Load(manager->dir(), [manager](const CheckpointReadRequest& request,
                                        std::string* source) {
    int64_t epoch = 0;
    const Status status = manager->RestoreLatest(request, &epoch);
    if (status.ok()) *source = manager->PathFor(epoch);
    return status;
  });
}

std::shared_ptr<ModelPool::Version> ModelPool::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

int64_t ModelPool::current_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ == nullptr ? 0 : current_->id;
}

PoolStats ModelPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ModelPool::SwapEvent> ModelPool::SwapEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SwapEvent>(events_.begin(), events_.end());
}

}  // namespace mgbr::serve
