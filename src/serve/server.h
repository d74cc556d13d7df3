#ifndef MGBR_SERVE_SERVER_H_
#define MGBR_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/slo.h"
#include "serve/degrade.h"
#include "serve/model_pool.h"
#include "serve/types.h"

namespace mgbr::serve {

/// Appends `"name":value` for every field of kServerStatsFields /
/// kPoolStatsFields, comma-separated: the body of the `server` and
/// `swap` objects in /varz and the load generator's reports.
void AppendStatsJson(const ServerStats& stats, std::string* out);
void AppendStatsJson(const PoolStats& stats, std::string* out);

/// Opt-in serving observability (exporter, SLO monitor, flight
/// recorder). Everything defaults off: a default-constructed server
/// spawns no extra threads and records nothing beyond the always-on
/// ServerStats counters, preserving the zero-cost-when-off contract.
struct ObsOptions {
  /// -1 disables the HTTP exposition endpoint; 0 binds an ephemeral
  /// port (Server::metrics_port() reads it back).
  int metrics_port = -1;
  /// Sliding-window SLO targets (docs/observability.md). The monitor
  /// runs whenever any obs feature is enabled.
  int slo_window_s = 30;
  int slo_fast_window_s = 5;
  double slo_target_p99_ms = 15.0;
  double slo_max_shed_fraction = 0.01;
  /// Flight-recorder ring capacity; 0 disables the recorder.
  int64_t flight_capacity = 0;
  /// Auto-dump the flight ring to `flight_dump_path` when the SLO
  /// monitor's fast-window shed fraction crosses this (edge-triggered;
  /// re-arms when the fraction drops back below).
  double flight_dump_shed_threshold = 0.05;
  std::string flight_dump_path;

  bool enabled() const { return metrics_port >= 0 || flight_capacity > 0; }
};

/// Stall watchdog over the scoring workers (off by default). Workers
/// heartbeat before waits, on batch pickup, and per scored key; a
/// worker that is busy but has not heartbeaten for `stall_timeout_ms`
/// is presumed wedged and replaced — the wedged thread keeps its
/// in-flight batch and finishes it whenever it unwedges (every
/// admitted request still gets exactly one terminal status), it just
/// stops taking new batches. The watchdog keeps running while Stop()
/// drains, so a worker that wedges mid-drain is replaced too.
struct WatchdogConfig {
  bool enabled = false;
  int64_t stall_timeout_ms = 1000;
  int64_t check_interval_ms = 100;
  /// Lifetime cap on replacements — a systematically wedging scorer
  /// must not leak an unbounded number of zombie threads.
  int max_restarts = 4;
};

/// Batching policy and capacity bounds. See docs/serving.md.
struct ServerConfig {
  /// Bounded admission queue; Submit() beyond it sheds immediately
  /// with kShedQueueFull (explicit backpressure, never unbounded RAM).
  /// At most queue_capacity + n_workers * max_batch requests are in
  /// flight.
  int64_t queue_capacity = 256;
  /// An idle worker takes every queued request, up to this many, as one
  /// batch; batches grow only while every worker is busy.
  int64_t max_batch = 32;
  /// Scoring threads pulling batches off the admission queue. Each
  /// drives RecModel::ScoreAAll/ScoreBAll under NoGradScope; the
  /// kernels inside parallelize over the shared thread pool.
  int n_workers = 2;
  /// Per-version score cache entries (unique (task, user, item) keys);
  /// 0 disables caching. Exact, not approximate: a version's
  /// propagated embeddings are frozen between swaps, so the
  /// full-catalogue score vector of a key is immutable for the
  /// lifetime of that version. Entries are invalidated by version id,
  /// so a hot swap can never serve stale scores.
  int64_t cache_capacity = 0;
  /// Serving observability stack (off by default).
  ObsOptions obs;
  /// SLO-driven degradation ladder (off by default). When enabled the
  /// SLO monitor runs even if the obs stack is otherwise off. The
  /// ladder builds nothing: its reduced-probe tiers narrow the probe of
  /// versions that carry an index (PoolConfig::retrieval), and
  /// versions without one brute-force at every tier; the
  /// deadline/shed tiers apply either way.
  DegradeConfig degrade;
  /// Worker stall watchdog (off by default).
  WatchdogConfig watchdog;
};

/// Multi-threaded request router with work-conserving batching.
///
/// Data path: Submit() -> bounded admission queue -> worker threads. An
/// idle worker takes every queued request, up to max_batch, as one
/// batch, so no request waits while a worker is free. A worker pins one
/// ModelPool version for the whole batch, coalesces requests that share
/// a (task, user, item) key into one full-catalogue scorer call (the
/// kEvalBatchCandidates-packed mega-batch path from the inference
/// engine), consults the per-version score cache, and resolves each
/// request's future with a deterministic TopKIndices cut. Per-request
/// results are independent of batch composition: batching changes only
/// latency, never scores.
///
/// Shutdown is graceful: Stop() rejects new submissions, drains every
/// admitted request through the normal scoring path, then joins the
/// workers. The destructor calls Stop().
class Server {
 public:
  /// Lifecycle reported by /healthz: Running until Stop() is called,
  /// Draining while Stop() flushes admitted requests through scoring,
  /// Stopped once the workers have joined.
  enum class State { kRunning = 0, kDraining, kStopped };

  /// `pool` must outlive the server and already hold a version. What
  /// each version carries (index, quantized table, validation gate) is
  /// the pool's PoolConfig; the server only reads it.
  Server(ModelPool* pool, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Non-blocking admission. Shed decisions (queue full, deadline
  /// already passed, shutdown) resolve the future immediately.
  std::future<Response> Submit(const Request& request);

  /// Graceful drain; idempotent. The exporter (if enabled) keeps
  /// serving /metrics and /healthz until destruction so post-drain
  /// totals stay scrapeable.
  void Stop();

  /// Snapshot of the always-on functional counters.
  ServerStats stats() const;

  const ServerConfig& config() const { return config_; }

  /// Current admission queue depth (tests/monitoring).
  int64_t queue_depth() const;

  State state() const {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }

  /// Port the exposition endpoint actually bound (0 when disabled or
  /// Start failed). With obs.metrics_port = 0 this is the ephemeral
  /// port the OS picked.
  int metrics_port() const;

  /// /healthz body: {"status":"running|draining|stopped",
  /// "model_version":N,"swap_count":M}. Public so tests can assert
  /// transitions without the socket layer.
  std::string HealthzJson() const;
  /// /varz body: metrics snapshot + server stats + state; with
  /// `include_flight`, the flight-recorder dump too.
  std::string VarzJson(bool include_flight) const;
  /// /metrics snapshot: the process registry (telemetry-gated
  /// histograms included) plus this server's and its pool's counts as
  /// `serve.<name>` counters, the gauges serve.queue_depth,
  /// serve.model_version, serve.model_bytes and serve.degrade_level,
  /// and the serve.degrade_transitions counter, all read now.
  MetricsSnapshot Metrics() const;

  /// Flight-recorder auto-dumps performed so far (tests/monitoring).
  int64_t flight_dumps() const {
    return flight_dumps_.load(std::memory_order_relaxed);
  }
  /// The recorder itself (nullptr when obs.flight_capacity == 0).
  const obs::FlightRecorder* flight_recorder() const {
    return flight_.get();
  }
  /// The SLO monitor (nullptr when the obs stack is disabled). Tests
  /// drive Evaluate directly with synthetic clocks.
  obs::SloMonitor* slo_monitor() { return slo_.get(); }

  /// The degradation controller (nullptr when the ladder is off).
  /// Tests feed it synthetic window stats via OnEvaluate.
  DegradationController* degrade_controller() { return degrade_.get(); }

  /// Current ladder tier (0 when the ladder is off).
  int degrade_level() const {
    return degrade_ == nullptr ? 0 : degrade_->level();
  }

  /// Stalled workers replaced by the watchdog so far.
  int64_t worker_restarts() const {
    return worker_restarts_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    int64_t id = 0;
    int64_t enqueue_us = 0;
    int64_t batch_close_us = 0;
    int64_t score_start_us = 0;
  };
  using Batch = std::vector<Pending>;

  struct CacheKey {
    int64_t task = 0;
    int64_t user = 0;
    int64_t item = 0;
    /// Effective nprobe the entry was scored under (0 = configured
    /// default / brute force). Keyed so degradation-tier results can
    /// never be served to a request scored at a different tier —
    /// every cached vector stays bitwise attributable to its tier.
    int64_t probe = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      uint64_t h = 0x9E3779B97F4A7C15ULL;
      for (uint64_t v : {static_cast<uint64_t>(k.task),
                         static_cast<uint64_t>(k.user),
                         static_cast<uint64_t>(k.item),
                         static_cast<uint64_t>(k.probe)}) {
        h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };
  /// Cached result of one scorer call. `ids` is null for brute-force
  /// entries (scores index the full catalogue) and holds the
  /// ascending candidate ids for two-stage entries (scores[i] is the
  /// exact re-rank score of ids[i]). Both kinds are exact for their
  /// version: embeddings AND the per-version ANN index are frozen
  /// between swaps, so a candidate set is immutable too.
  struct CacheValue {
    std::shared_ptr<const std::vector<double>> scores;
    std::shared_ptr<const std::vector<int64_t>> ids;
    /// True when `scores` came from the quantized embedding view
    /// (stats attribution only; the cache keying is unaffected because
    /// the quant mode is fixed for the pool's lifetime).
    bool quantized = false;
  };
  struct CacheEntry {
    int64_t version = 0;
    CacheValue value;
    std::list<CacheKey>::iterator lru_pos;
  };

  /// Liveness state of one scoring worker. Allocated per spawned thread
  /// and shared with the watchdog; a replaced worker keeps its own
  /// retired slot alive through the shared_ptr its loop captured, so
  /// old and new threads never share flags.
  struct WorkerSlot {
    std::atomic<int64_t> heartbeat_us{0};
    std::atomic<bool> busy{false};
    /// Set by the watchdog: finish the in-flight batch, then exit
    /// without taking another.
    std::atomic<bool> retired{false};
  };

  void WorkerLoop(std::shared_ptr<WorkerSlot> slot);
  void WatchdogLoop();
  void ExecuteBatch(Batch batch, WorkerSlot* slot);
  void Finish(Pending* pending, Response response);
  /// Records a request that never entered the pipeline (shed at
  /// admission / shutdown) into the obs stack and resolves `promise`.
  void FinishUnadmitted(const Request& request, int64_t now_us,
                        std::promise<Response> promise, Response response);
  void RecordFlight(const Request& request, const Response& response);
  void MaybeDumpFlight(const obs::SloWindowStats& stats);
  bool CacheLookup(const CacheKey& key, int64_t version, CacheValue* out);
  void CacheInsert(const CacheKey& key, int64_t version, CacheValue value);

  ModelPool* pool_;
  const ServerConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_nonempty_;  // workers <- Submit / Stop
  std::deque<Pending> queue_;
  bool stop_ = false;

  std::mutex cache_mu_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  std::list<CacheKey> lru_;  // front = most recently used

  // Observability stack (all nullptr when config_.obs is disabled;
  // slo_ also runs when the degradation ladder alone is enabled).
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::Exporter> exporter_;
  std::unique_ptr<DegradationController> degrade_;
  std::atomic<int64_t> flight_dumps_{0};

  std::atomic<int> state_{0};  // State enum
  std::atomic<int64_t> next_request_id_{0};

  // Always-on functional accounting (see ServerStats).
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> shed_queue_full_{0};
  std::atomic<int64_t> shed_deadline_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> invalid_{0};
  std::atomic<int64_t> late_completions_{0};
  std::atomic<int64_t> n_batches_{0};
  std::atomic<int64_t> unique_scored_{0};
  std::atomic<int64_t> coalesced_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> two_stage_{0};
  std::atomic<int64_t> quant_scored_{0};
  std::atomic<int64_t> shed_load_{0};
  std::atomic<int64_t> worker_restarts_{0};

  /// workers_[i] is logical scoring slot i; its liveness state is
  /// worker_slots_[i] (replaced together on a watchdog restart).
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<WorkerSlot>> worker_slots_;
  /// Watchdog thread state. watchdog_mu_ guards workers_, worker_slots_
  /// and zombies_; Stop() takes each thread out under it before joining,
  /// and stops the watchdog only once no joinable thread is left.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::vector<std::thread> zombies_;  // replaced workers, joined in Stop
};

}  // namespace mgbr::serve

#endif  // MGBR_SERVE_SERVER_H_
