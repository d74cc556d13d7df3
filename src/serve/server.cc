#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "eval/metrics.h"
#include "tensor/variable.h"

namespace mgbr::serve {

namespace {

#if MGBR_TELEMETRY
/// Batch sizes: 1 * 2^k buckets up to 2048 requests.
Histogram* BatchSizeHistogram() {
  static Histogram* h =
      MetricsRegistry::Global().GetHistogram("serve.batch_size", 1.0, 2.0, 12);
  return h;
}
/// End-to-end latency (admission -> response): 1us * 4^k up to ~1000s;
/// p50/p99 are exported by MetricsRegistry::ToJson.
Histogram* LatencyHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "serve.latency_us", 1.0, 4.0, 16);
  return h;
}
// Per-stage latency attribution (same 1us * 4^k shape as the
// end-to-end histogram so tails line up column-for-column).
Histogram* QueueWaitHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "serve.stage.queue_wait_us", 1.0, 4.0, 16);
  return h;
}
Histogram* BatchWaitHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "serve.stage.batch_wait_us", 1.0, 4.0, 16);
  return h;
}
Histogram* ScoreHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "serve.stage.score_us", 1.0, 4.0, 16);
  return h;
}
// Cache hit/miss split of the score stage: a hit skips the model
// entirely, so the two populations have very different shapes.
Histogram* ScoreHitHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "serve.stage.score_hit_us", 1.0, 4.0, 16);
  return h;
}
Histogram* ScoreMissHistogram() {
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "serve.stage.score_miss_us", 1.0, 4.0, 16);
  return h;
}
#endif  // MGBR_TELEMETRY

template <typename Stats, size_t N>
void AppendFieldsJson(const Stats& stats, const StatsField<Stats> (&fields)[N],
                      std::string* out) {
  for (size_t i = 0; i < N; ++i) {
    if (i > 0) *out += ',';
    internal::AppendJsonString(fields[i].name, out);
    *out += ':';
    *out += std::to_string(stats.*fields[i].member);
  }
}

template <typename Stats, size_t N>
void AppendCounters(const Stats& stats, const StatsField<Stats> (&fields)[N],
                    MetricsSnapshot* snapshot) {
  for (const StatsField<Stats>& field : fields) {
    snapshot->counters.emplace_back(std::string("serve.") + field.name,
                                    stats.*field.member);
  }
}

const char* SwapEventKindName(ModelPool::SwapEvent::Kind kind) {
  switch (kind) {
    case ModelPool::SwapEvent::Kind::kInstall:
      return "install";
    case ModelPool::SwapEvent::Kind::kReject:
      return "reject";
    case ModelPool::SwapEvent::Kind::kRollback:
      return "rollback";
  }
  return "unknown";
}

/// Flight-recorder outcome codes for the synthetic swap-event records
/// (task = -1): offset past every ResponseCode so the two spaces never
/// collide in the dump.
constexpr int64_t kFlightSwapOutcomeBase = 100;

}  // namespace

const char* ResponseCodeToString(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk:
      return "Ok";
    case ResponseCode::kShedQueueFull:
      return "ShedQueueFull";
    case ResponseCode::kShedDeadline:
      return "ShedDeadline";
    case ResponseCode::kInvalidArgument:
      return "InvalidArgument";
    case ResponseCode::kShutdown:
      return "Shutdown";
    case ResponseCode::kShedLoad:
      return "ShedLoad";
  }
  return "Unknown";
}

Server::Server(ModelPool* pool, ServerConfig config)
    : pool_(pool), config_(config) {
  MGBR_CHECK(pool_ != nullptr);
  MGBR_CHECK(pool_->current_id() > 0);  // a version must be installed
  MGBR_CHECK_GE(config_.queue_capacity, 1);
  MGBR_CHECK_GE(config_.max_batch, 1);
  MGBR_CHECK_GE(config_.n_workers, 1);
  MGBR_CHECK_GE(config_.cache_capacity, 0);
  if (config_.degrade.enabled) {
    degrade_ = std::make_unique<DegradationController>(config_.degrade);
  }

  if (config_.obs.enabled() || config_.degrade.enabled) {
    obs::SloConfig slo_config;
    slo_config.window_s = config_.obs.slo_window_s;
    slo_config.fast_window_s = config_.obs.slo_fast_window_s;
    slo_config.target_p99_ms = config_.obs.slo_target_p99_ms;
    slo_config.max_shed_fraction = config_.obs.slo_max_shed_fraction;
    slo_ = std::make_unique<obs::SloMonitor>(slo_config);
  }
  if (config_.obs.enabled()) {
    if (config_.obs.flight_capacity > 0) {
      flight_ =
          std::make_unique<obs::FlightRecorder>(config_.obs.flight_capacity);
      flight_->set_outcome_namer([](int64_t v) -> const char* {
        switch (v - kFlightSwapOutcomeBase) {
          case static_cast<int64_t>(ModelPool::SwapEvent::Kind::kInstall):
            return "SwapInstall";
          case static_cast<int64_t>(ModelPool::SwapEvent::Kind::kReject):
            return "SwapReject";
          case static_cast<int64_t>(ModelPool::SwapEvent::Kind::kRollback):
            return "Rollback";
          default:
            return ResponseCodeToString(static_cast<ResponseCode>(v));
        }
      });
      flight_->set_task_namer([](int64_t v) {
        if (v < 0) return "Swap";
        return v == static_cast<int64_t>(TaskKind::kTopKItems)
                   ? "TopKItems"
                   : "TopKParticipants";
      });
      if (!config_.obs.flight_dump_path.empty()) {
        slo_->SetShedThresholdCallback(
            config_.obs.flight_dump_shed_threshold,
            [this](const obs::SloWindowStats& s) { MaybeDumpFlight(s); });
      }
      // Swap-lifecycle events land in the same ring as requests
      // (task = -1), so a postmortem dump shows installs, rejections
      // and rollbacks interleaved with the traffic they affected.
      pool_->SetEventHook([this](const ModelPool::SwapEvent& event) {
        obs::FlightRecord record;
        record.task = -1;
        record.done_us = trace::NowMicros();
        record.outcome =
            kFlightSwapOutcomeBase + static_cast<int64_t>(event.kind);
        record.version = event.version_id;
        flight_->Record(record);
      });
    }
  }
  if (slo_ != nullptr) {
    if (degrade_ != nullptr) {
      // Wired before Start() so the ladder sees every evaluation from
      // the first ticker tick.
      slo_->SetEvaluationCallback([this](const obs::SloWindowStats& stats) {
        degrade_->OnEvaluate(stats);
      });
    }
    slo_->Start();
  }
  if (config_.obs.enabled() && config_.obs.metrics_port >= 0) {
    obs::ExporterConfig exporter_config;
    exporter_config.port = config_.obs.metrics_port;
    auto wire = [this](obs::Exporter* exporter) {
      exporter->set_healthz_handler([this] { return HealthzJson(); });
      exporter->set_varz_handler(
          [this](bool flight) { return VarzJson(flight); });
      exporter->set_metrics_handler([this] { return Metrics(); });
    };
    exporter_ = std::make_unique<obs::Exporter>(exporter_config);
    wire(exporter_.get());
    Status status = exporter_->Start();
    if (!status.ok() && exporter_config.port > 0) {
      // The configured port stayed taken through the exporter's own
      // bounded bind retries. Fall back to an ephemeral port instead of
      // serving blind: scrapers reconcile the actual port from /varz
      // ("exporter_port") and the bench report.
      MGBR_LOG_WARNING("serve: exporter port ", exporter_config.port,
                       " unavailable (", status.ToString(),
                       "); retrying on an ephemeral port");
      exporter_config.port = 0;
      exporter_ = std::make_unique<obs::Exporter>(exporter_config);
      wire(exporter_.get());
      status = exporter_->Start();
    }
    if (!status.ok()) {
      // Even the ephemeral bind failed (fd/socket exhaustion) — that
      // must not take down serving; run blind instead.
      MGBR_LOG_WARNING("serve: exporter disabled: ", status.ToString());
      exporter_.reset();
    }
  }

  workers_.reserve(static_cast<size_t>(config_.n_workers));
  worker_slots_.reserve(static_cast<size_t>(config_.n_workers));
  const int64_t spawn_us = trace::NowMicros();
  for (int i = 0; i < config_.n_workers; ++i) {
    auto slot = std::make_shared<WorkerSlot>();
    slot->heartbeat_us.store(spawn_us, std::memory_order_relaxed);
    worker_slots_.push_back(slot);
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
  if (config_.watchdog.enabled) {
    MGBR_CHECK_GE(config_.watchdog.stall_timeout_ms, 1);
    MGBR_CHECK_GE(config_.watchdog.check_interval_ms, 1);
    MGBR_CHECK_GE(config_.watchdog.max_restarts, 0);
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

Server::~Server() {
  Stop();
  // The pool outlives the server; detach the hook before flight_
  // (which it captures) destructs.
  pool_->SetEventHook(nullptr);
  // The exporter's handlers and the SLO ticker's callbacks capture
  // `this` (and degrade_); shut both threads down before members start
  // destructing.
  exporter_.reset();
  if (slo_ != nullptr) slo_->Stop();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // Already stopped; threads were joined by the first Stop().
      return;
    }
    stop_ = true;
    state_.store(static_cast<int>(State::kDraining),
                 std::memory_order_release);
  }
  cv_nonempty_.notify_all();
  // The watchdog stays up through the drain, so a worker that wedges
  // now is still replaced and the queue keeps moving. Each thread is
  // taken out under watchdog_mu_ (no restart can race the move) and
  // joined outside it; a replacement spawned meanwhile is found by the
  // next scan. Replaced (zombie) workers still own their in-flight
  // batches and must deliver every terminal status before Stopped.
  for (;;) {
    std::thread thread;
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      const auto joinable = [](const std::thread& t) { return t.joinable(); };
      auto it = std::find_if(workers_.begin(), workers_.end(), joinable);
      if (it == workers_.end()) {
        it = std::find_if(zombies_.begin(), zombies_.end(), joinable);
        if (it == zombies_.end()) {
          watchdog_stop_ = true;
          break;
        }
      }
      thread = std::move(*it);
    }
    thread.join();
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  state_.store(static_cast<int>(State::kStopped), std::memory_order_release);
}

std::future<Response> Server::Submit(const Request& request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const int64_t now = trace::NowMicros();
  const int64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed) +
                     1;  // ids start at 1; 0 = "never assigned"
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const int dl = degrade_level();

  Response shed;
  shed.id = id;
  shed.enqueue_us = now;
  shed.done_us = now;
  shed.degrade_level = dl;
  if (dl >= static_cast<int>(DegradeLevel::kShed)) {
    // Ladder shed tier: admit one request in N (deterministic by id so
    // the decision is attributable and replayable). These sheds are
    // deliberately NOT fed into the SLO shed stream — the ladder must
    // not latch itself at kShed on its own output.
    const int64_t keep = degrade_->config().shed_keep_one_in;
    if (keep <= 1 || id % keep != 0) {
      shed_load_.fetch_add(1, std::memory_order_relaxed);
      shed.code = ResponseCode::kShedLoad;
      FinishUnadmitted(request, now, std::move(promise), std::move(shed));
      return future;
    }
  }
  if (request.deadline_us > 0 && now >= request.deadline_us) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    shed.code = ResponseCode::kShedDeadline;
    FinishUnadmitted(request, now, std::move(promise), std::move(shed));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      shed.code = ResponseCode::kShutdown;
      FinishUnadmitted(request, now, std::move(promise), std::move(shed));
      return future;
    }
    if (static_cast<int64_t>(queue_.size()) >= config_.queue_capacity) {
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      shed.code = ResponseCode::kShedQueueFull;
      FinishUnadmitted(request, now, std::move(promise), std::move(shed));
      return future;
    }
    Pending pending;
    pending.request = request;
    if (dl >= static_cast<int>(DegradeLevel::kTightDeadline)) {
      // Tight-deadline tier: clamp the admission deadline so work that
      // ages in the queue sheds instead of serving late.
      const int64_t budget = now + degrade_->config().admission_budget_us;
      pending.request.deadline_us =
          pending.request.deadline_us > 0
              ? std::min(pending.request.deadline_us, budget)
              : budget;
    }
    pending.promise = std::move(promise);
    pending.id = id;
    pending.enqueue_us = now;
    queue_.push_back(std::move(pending));
    admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_nonempty_.notify_one();
  return future;
}

void Server::FinishUnadmitted(const Request& request, int64_t now_us,
                              std::promise<Response> promise,
                              Response response) {
  // kShedLoad is intentionally excluded: the ladder's own sheds must
  // not feed the SLO signal that drives the ladder (self-latch).
  if (slo_ != nullptr && (response.code == ResponseCode::kShedQueueFull ||
                          response.code == ResponseCode::kShedDeadline)) {
    slo_->RecordShed(now_us);
  }
  RecordFlight(request, response);
  promise.set_value(std::move(response));
}

void Server::WorkerLoop(std::shared_ptr<WorkerSlot> slot) {
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      slot->heartbeat_us.store(trace::NowMicros(), std::memory_order_relaxed);
      cv_nonempty_.wait(lock, [this, &slot] {
        return stop_ || !queue_.empty() ||
               slot->retired.load(std::memory_order_relaxed);
      });
      // A retired slot exits without taking another batch — its
      // replacement owns the logical worker index now, and gets the
      // wake-up this thread may have consumed.
      if (slot->retired.load(std::memory_order_relaxed)) {
        cv_nonempty_.notify_one();
        return;
      }
      if (queue_.empty()) return;  // stopped and drained
      // Work-conserving pickup: everything queued, up to max_batch, is
      // one batch. A lone request never waits for company.
      const int64_t take = std::min<int64_t>(
          static_cast<int64_t>(queue_.size()), config_.max_batch);
      batch.reserve(static_cast<size_t>(take));
      const int64_t taken_at = trace::NowMicros();
      for (int64_t i = 0; i < take; ++i) {
        queue_.front().batch_close_us = taken_at;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    slot->heartbeat_us.store(trace::NowMicros(), std::memory_order_relaxed);
    slot->busy.store(true, std::memory_order_relaxed);
    ExecuteBatch(std::move(batch), slot.get());
    slot->busy.store(false, std::memory_order_relaxed);
    slot->heartbeat_us.store(trace::NowMicros(), std::memory_order_relaxed);
    if (slot->retired.load(std::memory_order_relaxed)) return;
  }
}

void Server::WatchdogLoop() {
  const int64_t stall_us = config_.watchdog.stall_timeout_ms * 1000;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(
          lock, std::chrono::milliseconds(config_.watchdog.check_interval_ms),
          [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
      const int64_t now = trace::NowMicros();
      for (size_t i = 0; i < worker_slots_.size(); ++i) {
        WorkerSlot* slot = worker_slots_[i].get();
        if (!slot->busy.load(std::memory_order_relaxed)) continue;
        const int64_t beat = slot->heartbeat_us.load(std::memory_order_relaxed);
        if (beat == 0 || now - beat < stall_us) continue;
        if (worker_restarts_.load(std::memory_order_relaxed) >=
            config_.watchdog.max_restarts) {
          continue;  // lifetime cap: stop leaking zombie threads
        }
        // Presumed wedged: retire the slot (the old thread keeps its
        // in-flight batch and finishes it whenever it unwedges — every
        // admitted request still gets exactly one terminal status) and
        // spawn a replacement on a FRESH slot, so the two threads never
        // share liveness flags.
        slot->retired.store(true, std::memory_order_relaxed);
        zombies_.push_back(std::move(workers_[i]));
        auto fresh = std::make_shared<WorkerSlot>();
        fresh->heartbeat_us.store(now, std::memory_order_relaxed);
        worker_slots_[i] = fresh;
        workers_[i] = std::thread([this, fresh] { WorkerLoop(fresh); });
        worker_restarts_.fetch_add(1, std::memory_order_relaxed);
        MGBR_LOG_WARNING("serve: watchdog replaced stalled worker ", i,
                         " (no heartbeat for ", (now - beat) / 1000, "ms)");
      }
    }
  }
}

void Server::Finish(Pending* pending, Response response) {
  response.id = pending->id;
  response.enqueue_us = pending->enqueue_us;
  response.batch_close_us = pending->batch_close_us;
  response.score_start_us = pending->score_start_us;
  response.done_us = trace::NowMicros();
  if (response.code == ResponseCode::kOk) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (pending->request.deadline_us > 0 &&
        response.done_us > pending->request.deadline_us) {
      late_completions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  MGBR_HISTOGRAM_OBSERVE(
      LatencyHistogram(),
      static_cast<double>(response.done_us - response.enqueue_us));
  // Stage attribution; a stage the request never reached stays
  // unobserved (e.g. no score stage for an in-batch deadline shed).
  if (response.batch_close_us > 0) {
    MGBR_HISTOGRAM_OBSERVE(
        QueueWaitHistogram(),
        static_cast<double>(response.batch_close_us - response.enqueue_us));
  }
  if (response.score_start_us > 0 && response.batch_close_us > 0) {
    MGBR_HISTOGRAM_OBSERVE(BatchWaitHistogram(),
                           static_cast<double>(response.score_start_us -
                                               response.batch_close_us));
  }
  if (response.score_start_us > 0) {
    const double score_us =
        static_cast<double>(response.done_us - response.score_start_us);
    MGBR_HISTOGRAM_OBSERVE(ScoreHistogram(), score_us);
    if (response.code == ResponseCode::kOk) {
      if (response.cache_hit) {
        MGBR_HISTOGRAM_OBSERVE(ScoreHitHistogram(), score_us);
      } else {
        MGBR_HISTOGRAM_OBSERVE(ScoreMissHistogram(), score_us);
      }
    }
  }
  if (slo_ != nullptr) {
    if (response.code == ResponseCode::kShedDeadline) {
      slo_->RecordShed(response.done_us);
    } else {
      slo_->RecordLatency(
          response.done_us,
          static_cast<double>(response.done_us - response.enqueue_us));
    }
  }
  RecordFlight(pending->request, response);
  pending->promise.set_value(std::move(response));
}

void Server::RecordFlight(const Request& request, const Response& response) {
  if (flight_ == nullptr) return;
  obs::FlightRecord record;
  record.id = response.id;
  record.task = static_cast<int64_t>(request.task);
  record.user = request.user;
  record.item = request.item;
  record.k = request.k;
  record.submit_us = response.enqueue_us;
  record.batch_close_us = response.batch_close_us;
  record.score_start_us = response.score_start_us;
  record.done_us = response.done_us;
  record.outcome = static_cast<int64_t>(response.code);
  record.version = response.version;
  record.cache_hit = response.cache_hit ? 1 : 0;
  flight_->Record(record);
}

void Server::MaybeDumpFlight(const obs::SloWindowStats& stats) {
  if (flight_ == nullptr || config_.obs.flight_dump_path.empty()) return;
  const Status status = flight_->DumpTo(config_.obs.flight_dump_path);
  if (status.ok()) {
    flight_dumps_.fetch_add(1, std::memory_order_relaxed);
    MGBR_LOG_WARNING(
        "serve: shed fraction ", stats.fast_shed_fraction,
        " crossed the flight-dump threshold; wrote flight recorder to ",
        config_.obs.flight_dump_path);
  } else {
    MGBR_LOG_WARNING("serve: flight dump failed: ", status.ToString());
  }
}

bool Server::CacheLookup(const CacheKey& key, int64_t version,
                         CacheValue* out) {
  if (config_.cache_capacity <= 0) return false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  if (it->second.version != version) {
    // Stale version: a swap happened since this entry was cached.
    lru_.erase(it->second.lru_pos);
    cache_.erase(it);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  *out = it->second.value;
  return true;
}

void Server::CacheInsert(const CacheKey& key, int64_t version,
                         CacheValue value) {
  if (config_.cache_capacity <= 0) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.version = version;
    it->second.value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  while (static_cast<int64_t>(cache_.size()) >= config_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  cache_.emplace(key, CacheEntry{version, std::move(value), lru_.begin()});
}

void Server::ExecuteBatch(Batch batch, WorkerSlot* slot) {
  MGBR_TRACE_SPAN("serve.batch", "serve");
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  MGBR_HISTOGRAM_OBSERVE(BatchSizeHistogram(),
                         static_cast<double>(batch.size()));
  // Everything from here on is the score stage.
  const int64_t score_start = trace::NowMicros();
  for (Pending& pending : batch) pending.score_start_us = score_start;

  // One version pinned for the whole batch: every response in it is
  // attributable to this snapshot even if a swap lands mid-batch.
  const std::shared_ptr<ModelPool::Version> snapshot = pool_->Acquire();
  MGBR_CHECK(snapshot != nullptr);
  RecModel* model = snapshot->model.get();
  const int64_t n_users = model->num_users();
  const int64_t n_items = model->num_items();
  // The retriever and the quantized view travel inside the pinned
  // version, so candidates and quantized scores always come from the
  // artifacts built over THIS snapshot's embeddings — a hot swap
  // mid-batch can never mix versions. Each is null when the version
  // carries none (brute-force / fp32 path).
  const retrieval::ItemRetriever* retriever = snapshot->retriever.get();
  const QuantizedEmbeddingView* quant = snapshot->quant.get();

  // Ladder tier pinned for the whole batch, exactly like the model
  // version: every response is attributable to one (version, tier)
  // pair even if the ladder steps mid-batch.
  const int dl = degrade_ != nullptr ? degrade_->level() : 0;
  // Probe budget at this tier: 0 = the retriever's configured default.
  const int64_t probe_override =
      degrade_ != nullptr && retriever != nullptr
          ? degrade_->EffectiveNprobe(retriever->config().nprobe)
          : 0;

  // Group requests by (task, user, item, probe) in first-appearance
  // order so a key shared by several requests is scored exactly once.
  // Two-stage Task-A keys encode the cutoff as item = -k: the candidate
  // set (and so the cached value) depends on k, and keying on it keeps
  // the "results are independent of batch composition" property —
  // different-k requests never share a candidate set. The probe field
  // carries the tier's nprobe budget so cached vectors never cross
  // degradation tiers.
  std::vector<CacheKey> keys;
  std::unordered_map<CacheKey, std::vector<size_t>, CacheKeyHash> groups;
  for (size_t idx = 0; idx < batch.size(); ++idx) {
    Pending& pending = batch[idx];
    const Request& req = pending.request;
    const int64_t now = trace::NowMicros();
    if (req.deadline_us > 0 && now >= req.deadline_us) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.code = ResponseCode::kShedDeadline;
      response.degrade_level = dl;
      Finish(&pending, std::move(response));
      continue;
    }
    const bool task_a = req.task == TaskKind::kTopKItems;
    if (req.user < 0 || req.user >= n_users ||
        (!task_a && (req.item < 0 || req.item >= n_items))) {
      invalid_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.code = ResponseCode::kInvalidArgument;
      response.version = snapshot->id;
      response.degrade_level = dl;
      Finish(&pending, std::move(response));
      continue;
    }
    const bool two_stage = task_a && retriever != nullptr && req.k > 0;
    CacheKey key{static_cast<int64_t>(req.task), req.user,
                 task_a ? (two_stage ? -req.k : int64_t{0}) : req.item,
                 two_stage ? probe_override : int64_t{0}};
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) keys.push_back(key);
    it->second.push_back(idx);
  }

  NoGradScope no_grad;
  for (const CacheKey& key : keys) {
    // Per-key heartbeat: the watchdog distinguishes a worker grinding
    // through a large batch from one wedged inside a single score call.
    if (slot != nullptr) {
      slot->heartbeat_us.store(trace::NowMicros(), std::memory_order_relaxed);
    }
    CacheValue value;
    const bool hit = CacheLookup(key, snapshot->id, &value);
    if (!hit) {
      MGBR_TRACE_SPAN("serve.score", "serve");
      fault::DelayPoint("serve.score");
      const bool task_a = key.task == static_cast<int64_t>(TaskKind::kTopKItems);
      std::vector<int64_t> cands;
      if (task_a && key.item < 0) {
        cands = retriever->Candidates(*model, key.user, -key.item, key.probe);
      }
      std::vector<double> qscores;
      if (!cands.empty()) {
        // Two-stage: re-rank of the ANN candidates — quantized when the
        // view is attached, else through the same differentiable scorer
        // the brute path lifts (row i of ScoreAAll is bitwise
        // ScoreA({u},{i})), restricted to the candidate set.
        if (quant != nullptr &&
            quant->ScoreACandidates(*model, key.user, cands, &qscores)) {
          value.scores = std::make_shared<const std::vector<double>>(
              std::move(qscores));
          value.quantized = true;
        } else {
          const std::vector<int64_t> users(cands.size(), key.user);
          const Var column = model->ScoreA(users, cands);
          value.scores = std::make_shared<const std::vector<double>>(
              RecModel::ColumnToDoubles(column));
        }
        value.ids = std::make_shared<const std::vector<int64_t>>(
            std::move(cands));
      } else if (quant != nullptr &&
                 (task_a
                      ? quant->ScoreAAll(*model, key.user, &qscores)
                      : quant->ScoreBAll(*model, key.user, key.item,
                                         &qscores))) {
        value.scores = std::make_shared<const std::vector<double>>(
            std::move(qscores));
        value.quantized = true;
      } else {
        const Var column = task_a ? model->ScoreAAll(key.user)
                                  : model->ScoreBAll(key.user, key.item);
        value.scores = std::make_shared<const std::vector<double>>(
            RecModel::ColumnToDoubles(column));
      }
      unique_scored_.fetch_add(1, std::memory_order_relaxed);
      CacheInsert(key, snapshot->id, value);
    }
    const std::vector<size_t>& members = groups.at(key);
    if (hit) {
      cache_hits_.fetch_add(static_cast<int64_t>(members.size()),
                            std::memory_order_relaxed);
    } else if (members.size() > 1) {
      coalesced_.fetch_add(static_cast<int64_t>(members.size()) - 1,
                           std::memory_order_relaxed);
    }
    if (value.ids != nullptr) {
      two_stage_.fetch_add(static_cast<int64_t>(members.size()),
                           std::memory_order_relaxed);
    }
    if (value.quantized) {
      quant_scored_.fetch_add(static_cast<int64_t>(members.size()),
                              std::memory_order_relaxed);
    }
    const std::vector<double>& scores = *value.scores;
    for (size_t idx : members) {
      Pending& pending = batch[idx];
      Response response;
      response.code = ResponseCode::kOk;
      response.version = snapshot->id;
      response.cache_hit = hit;
      response.degrade_level = dl;
      // TopKIndices positions map straight to item ids on the brute
      // path; on the two-stage path they index the ascending candidate
      // list, so position-ascending ties stay id-ascending ties.
      response.top_k = TopKIndices(scores, pending.request.k);
      response.scores.reserve(response.top_k.size());
      for (int64_t i : response.top_k) {
        response.scores.push_back(scores[static_cast<size_t>(i)]);
      }
      if (value.ids != nullptr) {
        for (int64_t& id : response.top_k) {
          id = (*value.ids)[static_cast<size_t>(id)];
        }
      }
      Finish(&pending, std::move(response));
    }
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.late_completions = late_completions_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.unique_scored = unique_scored_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.two_stage = two_stage_.load(std::memory_order_relaxed);
  s.quant_scored = quant_scored_.load(std::memory_order_relaxed);
  s.shed_load = shed_load_.load(std::memory_order_relaxed);
  s.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  return s;
}

int64_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

int Server::metrics_port() const {
  return exporter_ != nullptr && exporter_->running() ? exporter_->port() : 0;
}

namespace {
const char* StateName(Server::State state) {
  switch (state) {
    case Server::State::kRunning:
      return "running";
    case Server::State::kDraining:
      return "draining";
    case Server::State::kStopped:
      return "stopped";
  }
  return "unknown";
}
}  // namespace

std::string Server::HealthzJson() const {
  std::string out = "{\"status\":\"";
  out += StateName(state());
  out += "\",\"model_version\":";
  out += std::to_string(pool_->current_id());
  out += ",\"swap_count\":";
  out += std::to_string(pool_->swap_count());
  out += ",\"degrade_level\":";
  out += std::to_string(degrade_level());
  out += '}';
  return out;
}

std::string Server::VarzJson(bool include_flight) const {
  std::string out = "{\"state\":\"";
  out += StateName(state());
  out += "\",\"model_version\":";
  out += std::to_string(pool_->current_id());
  out += ",\"server\":{";
  AppendStatsJson(stats(), &out);
  out += "},\"swap\":{";
  AppendStatsJson(pool_->stats(), &out);
  out += ",\"events\":[";
  {
    const std::vector<ModelPool::SwapEvent> events = pool_->SwapEvents();
    for (size_t i = 0; i < events.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"kind\":\"";
      out += SwapEventKindName(events[i].kind);
      out += "\",\"version\":";
      out += std::to_string(events[i].version_id);
      out += ",\"source\":";
      internal::AppendJsonString(events[i].source, &out);
      out += ",\"detail\":";
      internal::AppendJsonString(events[i].detail, &out);
      out += '}';
    }
  }
  out += "]},\"degrade\":{\"enabled\":";
  out += degrade_ != nullptr ? "true" : "false";
  {
    const int level = degrade_level();
    out += ",\"level\":";
    out += std::to_string(level);
    out += ",\"level_name\":\"";
    out += DegradeLevelName(level);
    out += "\",\"transitions\":";
    out += std::to_string(degrade_ != nullptr ? degrade_->transitions() : 0);
    out += ",\"max_level_seen\":";
    out += std::to_string(degrade_ != nullptr ? degrade_->max_level_seen() : 0);
  }
  out += "},\"exporter_port\":";
  out += std::to_string(metrics_port());
  out += ",\"quant_mode\":\"";
  out += QuantModeName(pool_->config().quant);
  out += "\",\"model_bytes\":";
  {
    const std::shared_ptr<ModelPool::Version> v = pool_->Acquire();
    out += std::to_string(v == nullptr ? 0 : ModelPool::ServedTableBytes(*v));
  }
  out += ",\"metrics\":";
  out += MetricsRegistry::Global().ToJson();
  if (include_flight && flight_ != nullptr) {
    out += ",\"flight\":";
    out += flight_->ToJson();
  }
  out += '}';
  return out;
}

MetricsSnapshot Server::Metrics() const {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  AppendCounters(stats(), kServerStatsFields, &snapshot);
  AppendCounters(pool_->stats(), kPoolStatsFields, &snapshot);
  const std::shared_ptr<ModelPool::Version> v = pool_->Acquire();
  snapshot.gauges.emplace_back("serve.queue_depth",
                               static_cast<double>(queue_depth()));
  snapshot.gauges.emplace_back("serve.model_version",
                               static_cast<double>(v == nullptr ? 0 : v->id));
  snapshot.gauges.emplace_back(
      "serve.model_bytes",
      static_cast<double>(v == nullptr ? 0 : ModelPool::ServedTableBytes(*v)));
  snapshot.gauges.emplace_back("serve.degrade_level",
                               static_cast<double>(degrade_level()));
  snapshot.counters.emplace_back(
      "serve.degrade_transitions",
      degrade_ != nullptr ? degrade_->transitions() : 0);
  return snapshot;
}

void AppendStatsJson(const ServerStats& stats, std::string* out) {
  AppendFieldsJson(stats, kServerStatsFields, out);
}

void AppendStatsJson(const PoolStats& stats, std::string* out) {
  AppendFieldsJson(stats, kPoolStatsFields, out);
}

}  // namespace mgbr::serve
