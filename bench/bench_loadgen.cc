// Open-loop load generator for the serving layer (the CI latency-SLO
// gate's workload): arrivals are scheduled on a fixed clock at the
// offered QPS regardless of completion times, so queueing delay shows
// up in the measured latency instead of silently throttling the
// generator (closed-loop generators hide overload; see docs/serving.md).
//
// Phases: build model -> install into a ModelPool -> closed-loop cache
// fill over the request working set -> timed open-loop window at
// --qps for --duration-s with per-request deadlines. Emits a
// "mgbr-loadgen-v1" JSON report (--json-out) that
// scripts/check_bench_gate.py --serving checks against the floors in
// BENCH_baseline.json, plus a human summary on stdout.
//
// Honours MGBR_BENCH_FAST=1 (smaller synthetic dataset) and the
// telemetry flags --trace-out / --trace-stream / --metrics-out.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "eval/metrics.h"
#include "models/quant_view.h"
#include "serve/model_pool.h"
#include "serve/server.h"
#include "tensor/quant.h"
#include "tensor/variable.h"
#include "train/checkpoint.h"

namespace mgbr::bench {
namespace {

using serve::ModelPool;
using serve::Request;
using serve::Response;
using serve::ResponseCode;
using serve::Server;
using serve::ServerConfig;
using serve::ServerStats;
using serve::TaskKind;

struct LoadgenOptions {
  double qps = 2000.0;
  double duration_s = 10.0;
  int64_t deadline_ms = 50;  // 0 = no deadline
  std::string task = "a";    // a | b | mix
  /// "mgbr" (default) or "gbgcn". The two-stage retrieval path needs a
  /// dot-product scoring head, which MGBR's MLP head is not — with
  /// --retrieval=1 and the default model the server silently serves
  /// brute force (stats.two_stage stays 0); gbgcn exercises the ANN
  /// candidate path end to end through the batching router.
  std::string model = "mgbr";
  /// Enables PoolConfig.retrieval (ANN candidates + exact re-rank)
  /// for Task A requests. Off by default, like the pool's own.
  bool retrieval = false;
  /// Quantized scoring mode: "off" (fp32 reference), "bf16" or "int8".
  /// Like retrieval, the quantized path needs a dot-product scoring
  /// head — with the default MGBR model the server silently serves
  /// fp32 (stats.quant_scored stays 0, quant.supported is false in the
  /// report); use --model=gbgcn to exercise it end to end.
  QuantMode quant = QuantMode::kFp32;
  int64_t k = 10;
  int64_t cache = -1;  // -1 = auto-size to the working set
  int64_t workers = 2;
  int64_t max_batch = 32;
  int64_t queue_capacity = 512;
  int64_t b_pairs = 256;  // distinct (user, item) pairs in the Task B mix
  std::string json_out;
  /// Serving observability stack (docs/observability.md). -1 keeps the
  /// exporter off (the default, and what the perf-gated CI run uses so
  /// the floors measure the zero-cost path); 0 binds an ephemeral port.
  int64_t metrics_port = -1;
  int64_t flight_capacity = 0;
  std::string flight_dump_out;
  /// Seconds to keep the process (and therefore the exporter, which
  /// lives until the Server is destroyed) alive after the report is
  /// written, so CI can take a final post-drain scrape.
  double linger_s = 0.0;
  /// Serving chaos schedule ("corrupt-swap", "worker-stall" or
  /// "overload"); empty runs the normal open-loop load test. A chaos
  /// run drives the named failure through the full serving stack and
  /// emits an "mgbr-chaos-v1" report that
  /// scripts/check_bench_gate.py --chaos validates (zero crashes, no
  /// lost requests, schedule-specific recovery counters).
  std::string chaos;
};

/// Deterministic request working set: Task A cycles every user, Task B
/// cycles `b_pairs` (user, item) pairs, "mix" interleaves one B request
/// per three A requests. Deterministic so the cache-fill phase can
/// enumerate exactly the keys the timed window will replay.
class KeySchedule {
 public:
  KeySchedule(const std::string& task, int64_t n_users, int64_t n_items,
              int64_t b_pairs)
      : task_(task),
        n_users_(n_users),
        n_items_(n_items),
        b_pairs_(std::min(b_pairs, n_users)) {}

  Request At(int64_t i) const {
    Request r;
    if (task_ == "b" || (task_ == "mix" && i % 4 == 3)) {
      const int64_t p = i % b_pairs_;
      r.task = TaskKind::kTopKParticipants;
      r.user = p;
      r.item = (p * 31 + 7) % n_items_;
    } else {
      r.task = TaskKind::kTopKItems;
      r.user = i % n_users_;
    }
    return r;
  }

  /// Every distinct (task, user, item) key the schedule can emit.
  std::vector<Request> WorkingSet() const {
    std::vector<Request> keys;
    if (task_ == "a" || task_ == "mix") {
      for (int64_t u = 0; u < n_users_; ++u) {
        Request r;
        r.task = TaskKind::kTopKItems;
        r.user = u;
        keys.push_back(r);
      }
    }
    if (task_ == "b" || task_ == "mix") {
      for (int64_t p = 0; p < b_pairs_; ++p) {
        Request r;
        r.task = TaskKind::kTopKParticipants;
        r.user = p;
        r.item = (p * 31 + 7) % n_items_;
        keys.push_back(r);
      }
    }
    return keys;
  }

 private:
  std::string task_;
  int64_t n_users_;
  int64_t n_items_;
  int64_t b_pairs_;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Footprint and Task-A agreement snapshot of the served quantized
/// view, for the report's "quant" block. Taken after the drain so the
/// sample scoring cannot perturb the timed window. `supported` stays
/// false when quantization is off or the model exposes no retrieval
/// view (MGBR) — the gate treats that as "fp32 served", not a failure.
struct QuantReport {
  bool supported = false;
  int64_t model_bytes = 0;
  int64_t fp32_bytes = 0;
  double bytes_per_item = 0.0;
  double mean_topk_overlap = 1.0;
  double min_topk_overlap = 1.0;
  int64_t overlap_users = 0;
};

QuantReport MeasureQuant(ModelPool* pool, int64_t k, int64_t n_users) {
  QuantReport rep;
  const auto version = pool->Acquire();
  if (version == nullptr || version->quant == nullptr) return rep;
  const QuantizedEmbeddingView& view = *version->quant;
  rep.supported = true;
  rep.model_bytes = view.model_bytes();
  rep.fp32_bytes = view.fp32_bytes();
  rep.bytes_per_item = view.bytes_per_item();
  rep.overlap_users = std::min<int64_t>(32, n_users);
  double sum = 0.0;
  for (int64_t u = 0; u < rep.overlap_users; ++u) {
    std::vector<double> ref;
    {
      NoGradScope no_grad;
      ref = RecModel::ColumnToDoubles(version->model->ScoreAAll(u));
    }
    std::vector<double> quant;
    MGBR_CHECK(view.ScoreAAll(*version->model, u, &quant));
    const std::vector<int64_t> ref_top = TopKIndices(ref, k);
    const std::vector<int64_t> quant_top = TopKIndices(quant, k);
    int64_t hit = 0;
    for (const int64_t id : quant_top) {
      hit += std::find(ref_top.begin(), ref_top.end(), id) != ref_top.end()
                 ? 1
                 : 0;
    }
    const double overlap =
        ref_top.empty() ? 1.0
                        : static_cast<double>(hit) /
                              static_cast<double>(ref_top.size());
    sum += overlap;
    rep.min_topk_overlap = std::min(rep.min_topk_overlap, overlap);
  }
  rep.mean_topk_overlap =
      rep.overlap_users > 0 ? sum / static_cast<double>(rep.overlap_users)
                            : 1.0;
  return rep;
}

// ---------------------------------------------------------------------------
// Serving chaos harness (--chaos=<schedule>)
//
// Each schedule injects one failure family through the REAL serving
// stack — no mocks — and asserts the self-healing contract:
//   corrupt-swap : a bit-flipped checkpoint (CRC) and a NaN-poisoned
//                  checkpoint (canary) are both rejected, a good swap
//                  lands, Rollback() restores the prior version, and
//                  every OK response is bitwise identical to direct
//                  scoring through the version it names.
//   worker-stall : an injected delay@serve.score wedges scoring past
//                  the watchdog timeout; the watchdog replaces the
//                  worker and every admitted request still completes.
//   overload     : a sustained burst overruns capacity; the SLO-driven
//                  ladder climbs to its shed tier, and once the burst
//                  stops it releases back to normal with hysteresis.
// A crash writes no report, so the gate's schema check fails loudly;
// "crashes": 0 in the report is the survivor's signature.
// ---------------------------------------------------------------------------

struct ChaosOutcome {
  int64_t offered = 0;
  int64_t terminal = 0;
  int64_t ok = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t shed_load = 0;
  int64_t other = 0;
  // corrupt-swap: post-drain bitwise re-verification of OK responses.
  int64_t sampled = 0;
  int64_t score_mismatches = 0;
  // overload: ladder trajectory.
  int64_t max_degrade_level = 0;
  int64_t final_degrade_level = 0;
  int64_t degrade_transitions = 0;
  std::vector<std::string> violations;
};

/// One submitted request with its future, kept so the drain can both
/// classify the terminal status and re-verify OK scores.
struct ChaosFlight {
  Request request;
  std::future<Response> future;
};

void ChaosSubmit(Server* server, const Request& request,
                 std::vector<ChaosFlight>* flights) {
  ChaosFlight flight;
  flight.request = request;
  flight.future = server->Submit(request);
  flights->push_back(std::move(flight));
}

/// Resolves every future (every admitted request must reach exactly one
/// terminal status — a hang here is a harness failure CI times out on)
/// and classifies the outcomes.
std::vector<std::pair<Request, Response>> ChaosDrain(
    std::vector<ChaosFlight>* flights, ChaosOutcome* out) {
  std::vector<std::pair<Request, Response>> resolved;
  resolved.reserve(flights->size());
  for (ChaosFlight& flight : *flights) {
    const Response r = flight.future.get();
    ++out->terminal;
    switch (r.code) {
      case ResponseCode::kOk:
        ++out->ok;
        break;
      case ResponseCode::kShedQueueFull:
        ++out->shed_queue_full;
        break;
      case ResponseCode::kShedDeadline:
        ++out->shed_deadline;
        break;
      case ResponseCode::kShedLoad:
        ++out->shed_load;
        break;
      default:
        ++out->other;
        break;
    }
    resolved.emplace_back(flight.request, r);
  }
  out->offered += static_cast<int64_t>(flights->size());
  flights->clear();
  return resolved;
}

void Expect(bool ok, const std::string& what, ChaosOutcome* out) {
  if (ok) return;
  MGBR_LOG_ERROR("chaos violation: ", what);
  out->violations.push_back(what);
}

std::string ChaosReadAll(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

bool ChaosWriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return !(std::fclose(f) != 0 || !ok);
}

/// Brute-force reference scores for one request through `model` — the
/// same NoGradScope full-catalogue path the server's fp32 brute branch
/// takes, so an uncorrupted server must match it bitwise.
std::vector<double> ChaosDirectScores(RecModel* model, const Request& r) {
  NoGradScope no_grad;
  return RecModel::ColumnToDoubles(r.task == TaskKind::kTopKItems
                                       ? model->ScoreAAll(r.user)
                                       : model->ScoreBAll(r.user, r.item));
}

/// Verifies an OK response bitwise against direct scoring through the
/// model registered for the version the response names.
void ChaosVerifyScores(
    const std::map<int64_t, RecModel*>& version_models,
    const std::vector<std::pair<Request, Response>>& resolved,
    ChaosOutcome* out) {
  for (const auto& [request, response] : resolved) {
    if (response.code != ResponseCode::kOk) continue;
    ++out->sampled;
    const auto it = version_models.find(response.version);
    if (it == version_models.end()) {
      ++out->score_mismatches;
      Expect(false,
             "OK response names unknown version " +
                 std::to_string(response.version),
             out);
      continue;
    }
    const std::vector<double> ref = ChaosDirectScores(it->second, request);
    const std::vector<int64_t> want_ids = TopKIndices(ref, request.k);
    bool match = response.top_k == want_ids &&
                 response.scores.size() == want_ids.size();
    if (match) {
      for (size_t i = 0; i < want_ids.size(); ++i) {
        if (response.scores[i] != ref[static_cast<size_t>(want_ids[i])]) {
          match = false;
          break;
        }
      }
    }
    if (!match) ++out->score_mismatches;
  }
  Expect(out->score_mismatches == 0,
         std::to_string(out->score_mismatches) +
             " OK responses diverged bitwise from their version's direct "
             "scores",
         out);
}

/// corrupt-swap: bad checkpoints must never publish, good ones must,
/// and rollback must restore last-known-good — all under live traffic,
/// with every OK response bitwise attributable to the version it names.
void RunChaosCorruptSwap(ExperimentHarness* harness, ModelPool* pool,
                         Server* server, ChaosOutcome* out) {
  std::vector<ChaosFlight> flights;
  std::vector<std::pair<Request, Response>> resolved;
  const int64_t n_users = harness->n_users();
  int64_t cursor = 0;
  const auto wave = [&](int64_t n) {
    for (int64_t i = 0; i < n; ++i, ++cursor) {
      Request r;
      r.task = TaskKind::kTopKItems;
      r.user = cursor % n_users;
      r.k = 10;
      ChaosSubmit(server, r, &flights);
    }
  };

  // Reference models: version 1 is the pool seed (factory default);
  // version 2 is the checkpoint of an independently trained-looking
  // model (different init seed). Both kept alive for the post-drain
  // bitwise check.
  auto base_model = harness->MakeMgbr(harness->MgbrBenchConfig(), 7);
  base_model->Refresh();
  auto good_model = harness->MakeMgbr(harness->MgbrBenchConfig(), 11);
  good_model->Refresh();

  const std::string dir =
      "/tmp/mgbr_chaos_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  const std::string good_path = dir + "/good.mgbr";
  const std::string corrupt_path = dir + "/corrupt.mgbr";
  const std::string nan_path = dir + "/nan.mgbr";
  {
    const std::vector<Var> params = good_model->Parameters();
    Expect(SaveParameters(params, good_path).ok(), "save good checkpoint",
           out);
  }
  {
    // Silent media corruption: one flipped bit mid-file. The per-section
    // CRC32 is what must catch it at load time.
    std::string bytes = ChaosReadAll(good_path);
    Expect(!bytes.empty(), "read back good checkpoint", out);
    if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x10;
    Expect(ChaosWriteAll(corrupt_path, bytes), "write corrupt checkpoint",
           out);
  }
  {
    // NaN poison with VALID checksums: every parameter's first element
    // is NaN, so the contamination reaches every probe score. Only the
    // validation gate's finite-score canary can catch this one.
    auto poisoned = harness->MakeMgbr(harness->MgbrBenchConfig(), 7);
    std::vector<Var> params = poisoned->Parameters();
    for (Var& p : params) {
      p.mutable_value().at(0, 0) = std::numeric_limits<float>::quiet_NaN();
    }
    Expect(SaveParameters(params, nan_path).ok(), "save NaN checkpoint",
           out);
  }

  wave(64);
  const Status corrupt_status = pool->LoadVersion(corrupt_path);
  Expect(!corrupt_status.ok(), "bit-flipped checkpoint must be rejected",
         out);
  Expect(pool->current_id() == 1,
         "served version untouched after corrupt-load rejection", out);
  const Status nan_status = pool->LoadVersion(nan_path);
  Expect(!nan_status.ok(), "NaN-poisoned checkpoint must be rejected", out);
  Expect(pool->current_id() == 1,
         "served version untouched after canary rejection", out);
  wave(64);
  const Status good_status = pool->LoadVersion(good_path);
  Expect(good_status.ok(),
         "good checkpoint must publish: " + good_status.ToString(), out);
  Expect(pool->current_id() == 2, "good swap serves as version 2", out);
  wave(64);
  const Status rollback_status = pool->Rollback();
  Expect(rollback_status.ok(),
         "rollback must succeed: " + rollback_status.ToString(), out);
  Expect(pool->current_id() == 1,
         "rollback restores version 1 under its original id", out);
  wave(64);

  server->Stop();
  resolved = ChaosDrain(&flights, out);
  Expect(out->ok == out->offered,
         "no deadline/no overload run must complete every request", out);
  Expect(pool->rejected_count() >= 2,
         "both bad checkpoints counted as rejections", out);
  Expect(pool->rollback_count() == 1, "one rollback counted", out);
  const std::vector<ModelPool::SwapEvent> events = pool->SwapEvents();
  int64_t reject_events = 0, rollback_events = 0;
  for (const ModelPool::SwapEvent& e : events) {
    reject_events +=
        e.kind == ModelPool::SwapEvent::Kind::kReject ? 1 : 0;
    rollback_events +=
        e.kind == ModelPool::SwapEvent::Kind::kRollback ? 1 : 0;
  }
  Expect(reject_events >= 2, "rejections appear in the swap audit log",
         out);
  Expect(rollback_events == 1, "rollback appears in the swap audit log",
         out);

  std::map<int64_t, RecModel*> version_models;
  version_models[1] = base_model.get();
  version_models[2] = good_model.get();
  ChaosVerifyScores(version_models, resolved, out);

  std::remove(good_path.c_str());
  std::remove(corrupt_path.c_str());
  std::remove(nan_path.c_str());
  ::rmdir(dir.c_str());
}

/// worker-stall: a repeating injected delay on the score path wedges
/// workers past the watchdog timeout; the watchdog must replace them
/// while every admitted request still reaches a terminal status.
void RunChaosWorkerStall(ExperimentHarness* harness, ModelPool* pool,
                         Server* server, ChaosOutcome* out) {
  (void)pool;
  fault::Injection delay;
  delay.kind = fault::Injection::Kind::kDelay;
  delay.match = "serve.score";
  delay.ms = 400;
  delay.every = 8;  // every 8th scorer call sleeps 400ms
  fault::Install(delay);

  std::vector<ChaosFlight> flights;
  const int64_t n_users = harness->n_users();
  for (int64_t i = 0; i < 64; ++i) {
    Request r;
    r.task = TaskKind::kTopKItems;
    r.user = i % n_users;
    r.k = 10;
    ChaosSubmit(server, r, &flights);
    // Spread the arrivals so batches keep forming while earlier ones
    // are wedged (the watchdog must restart workers under live load).
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server->Stop();
  fault::Clear();
  ChaosDrain(&flights, out);
  Expect(out->ok == out->offered,
         "every admitted request completes despite worker stalls", out);
  Expect(server->worker_restarts() >= 1,
         "watchdog replaced at least one stalled worker", out);
}

/// overload: a sustained burst far over capacity must walk the ladder
/// up to its shed tier; once the burst stops, clean evaluations must
/// walk it back down to normal (hysteresis in both directions).
void RunChaosOverload(ExperimentHarness* harness, ModelPool* pool,
                      Server* server, ChaosOutcome* out) {
  (void)pool;
  std::vector<ChaosFlight> flights;
  const int64_t n_users = harness->n_users();
  serve::DegradationController* ladder = server->degrade_controller();
  Expect(ladder != nullptr, "overload schedule needs the ladder enabled",
         out);
  if (ladder == nullptr) {
    server->Stop();
    ChaosDrain(&flights, out);
    return;
  }

  // Burst until the ladder reaches its shed tier (then a little past
  // it, so kShedLoad responses actually occur), capped at 20s.
  const int64_t burst_cap_us = trace::NowMicros() + 20'000'000;
  int64_t cursor = 0;
  int bursts_after_shed = 0;
  while (trace::NowMicros() < burst_cap_us && bursts_after_shed < 40) {
    for (int i = 0; i < 200; ++i, ++cursor) {
      Request r;
      r.task = TaskKind::kTopKItems;
      r.user = cursor % n_users;
      r.k = 10;
      ChaosSubmit(server, r, &flights);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (server->degrade_level() >=
        static_cast<int>(serve::DegradeLevel::kShed)) {
      ++bursts_after_shed;
    }
  }
  out->max_degrade_level = ladder->max_level_seen();
  Expect(out->max_degrade_level >=
             static_cast<int64_t>(serve::DegradeLevel::kShed),
         "ladder reached its shed tier under sustained overload", out);

  // Burst over: the fast window drains, evaluations read clean, and
  // the ladder must release tier by tier (step_down hysteresis).
  const int64_t release_cap_us = trace::NowMicros() + 30'000'000;
  while (trace::NowMicros() < release_cap_us && server->degrade_level() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  out->final_degrade_level = server->degrade_level();
  out->degrade_transitions = ladder->transitions();
  Expect(out->final_degrade_level == 0,
         "ladder released back to normal after the burst", out);
  Expect(out->degrade_transitions >= 2 * out->max_degrade_level,
         "ladder both engaged and released tier by tier", out);

  server->Stop();
  ChaosDrain(&flights, out);
  Expect(server->stats().shed_load > 0,
         "shed tier actually dropped load at admission", out);
}

int RunChaos(const LoadgenOptions& opt) {
  ExperimentHarness harness(HarnessConfig::FromEnv());
  MGBR_LOG_INFO("chaos[", opt.chaos, "] dataset: ", harness.DataSummary());

  const auto make_model = [&harness]() -> std::unique_ptr<RecModel> {
    auto m = harness.MakeMgbr(harness.MgbrBenchConfig(), 7);
    m->Refresh();
    return std::unique_ptr<RecModel>(std::move(m));
  };
  serve::PoolConfig pool_config;
  ServerConfig config;
  config.n_workers = static_cast<int>(opt.workers);
  config.cache_capacity = 0;  // every request exercises the score path
  if (opt.chaos == "corrupt-swap") {
    // Validation on (finite-score canary; no agreement threshold —
    // independently seeded models legitimately disagree), brute-force
    // fp32 scoring so responses are bitwise comparable to direct
    // scoring, generous queue so nothing sheds.
    pool_config.validation.enabled = true;
    pool_config.validation.probe_users = 8;
    pool_config.validation.probe_k = 10;
    pool_config.validation.min_ref_overlap = 0.0;
    config.queue_capacity = 4096;
  } else if (opt.chaos == "worker-stall") {
    config.queue_capacity = 4096;
    config.watchdog.enabled = true;
    config.watchdog.stall_timeout_ms = 150;
    config.watchdog.check_interval_ms = 25;
    config.watchdog.max_restarts = 6;
  } else {  // overload
    config.queue_capacity = 32;
    config.max_batch = 8;
    config.n_workers = 1;
    config.degrade.enabled = true;
    config.degrade.step_up_after = 1;
    config.degrade.step_down_after = 2;
    config.degrade.shed_keep_one_in = 4;
    config.degrade.admission_budget_us = 50'000;
    config.obs.slo_window_s = 4;
    // The 1 Hz ticker evaluates milliseconds into each second, when the
    // current-second bucket can still be empty mid-burst; a 2 s fast
    // window always includes the previous, fully-populated second.
    config.obs.slo_fast_window_s = 2;
    // Shed-driven paging signal: the latency target is parked out of
    // reach so only the shed fraction drives fast_breach.
    config.obs.slo_target_p99_ms = 1e9;
    config.obs.slo_max_shed_fraction = 0.05;
  }
  ModelPool pool(make_model, pool_config);
  pool.Install(make_model(), "chaos-seed");

  ChaosOutcome out;
  {
    Server server(&pool, config);
    if (opt.chaos == "corrupt-swap") {
      RunChaosCorruptSwap(&harness, &pool, &server, &out);
    } else if (opt.chaos == "worker-stall") {
      RunChaosWorkerStall(&harness, &pool, &server, &out);
    } else {
      RunChaosOverload(&harness, &pool, &server, &out);
    }
    const ServerStats stats = server.stats();
    const int64_t lost = out.offered - out.terminal;
    const double availability =
        out.offered > 0 ? static_cast<double>(out.terminal) /
                              static_cast<double>(out.offered)
                        : 1.0;
    Expect(lost == 0, "no request may vanish without a terminal status",
           &out);

    std::printf(
        "chaos[%s]: offered %" PRId64 ", terminal %" PRId64 " (ok %" PRId64
        ", shed q=%" PRId64 " d=%" PRId64 " l=%" PRId64 ", other %" PRId64
        "), lost %" PRId64 "\n"
        "  swap: rejected=%" PRId64 " rollbacks=%" PRId64
        " load_retries=%" PRId64 "; worker_restarts=%" PRId64
        "; degrade max=%" PRId64 " final=%" PRId64 "\n"
        "  violations: %zu\n",
        opt.chaos.c_str(), out.offered, out.terminal, out.ok,
        out.shed_queue_full, out.shed_deadline, out.shed_load, out.other,
        lost, pool.rejected_count(), pool.rollback_count(),
        pool.load_retries(), stats.worker_restarts, out.max_degrade_level,
        out.final_degrade_level, out.violations.size());
    for (const std::string& v : out.violations) {
      std::printf("  VIOLATION: %s\n", v.c_str());
    }

    if (!opt.json_out.empty()) {
      std::string js;
      js += "{\"schema\":\"mgbr-chaos-v1\",";
      js += "\"config\":{\"schedule\":\"" + opt.chaos + "\"";
      js += ",\"n_workers\":" + std::to_string(config.n_workers);
      js += ",\"fast\":" +
            std::string(harness.config().fast ? "true" : "false");
      // A crashed process never writes this report: the literal zero
      // is the survivor's signature the gate checks for.
      js += "},\"chaos\":{\"crashes\":0";
      js += ",\"offered\":" + std::to_string(out.offered);
      js += ",\"terminal\":" + std::to_string(out.terminal);
      js += ",\"lost\":" + std::to_string(lost);
      js += ",\"availability\":" + Num(availability);
      js += ",\"ok\":" + std::to_string(out.ok);
      js += ",\"shed_queue_full\":" + std::to_string(out.shed_queue_full);
      js += ",\"shed_deadline\":" + std::to_string(out.shed_deadline);
      js += ",\"shed_load\":" + std::to_string(out.shed_load);
      js += ",\"other\":" + std::to_string(out.other);
      js += ",\"sampled\":" + std::to_string(out.sampled);
      js += ",\"score_mismatches\":" + std::to_string(out.score_mismatches);
      js += ",\"worker_restarts\":" + std::to_string(stats.worker_restarts);
      js +=
          ",\"max_degrade_level\":" + std::to_string(out.max_degrade_level);
      js += ",\"final_degrade_level\":" +
            std::to_string(out.final_degrade_level);
      js += ",\"degrade_transitions\":" +
            std::to_string(out.degrade_transitions);
      js += ",\"violations\":[";
      for (size_t i = 0; i < out.violations.size(); ++i) {
        if (i > 0) js += ',';
        internal::AppendJsonString(out.violations[i], &js);
      }
      js += "]},\"swap\":{";
      serve::AppendStatsJson(pool.stats(), &js);
      js += "},\"server\":{";
      serve::AppendStatsJson(stats, &js);
      js += "}}\n";
      std::FILE* f = std::fopen(opt.json_out.c_str(), "w");
      if (f == nullptr ||
          std::fwrite(js.data(), 1, js.size(), f) != js.size() ||
          std::fclose(f) != 0) {
        MGBR_LOG_ERROR("cannot write chaos report: ", opt.json_out);
        return 1;
      }
      MGBR_LOG_INFO("wrote chaos report to ", opt.json_out);
    }
  }
  return out.violations.empty() ? 0 : 1;
}

int Run(const LoadgenOptions& opt) {
  ExperimentHarness harness(HarnessConfig::FromEnv());
  MGBR_LOG_INFO("loadgen dataset: ", harness.DataSummary());

  const auto make_model = [&harness, &opt]() -> std::unique_ptr<RecModel> {
    if (opt.model == "gbgcn") {
      auto m = harness.MakeBaseline("GBGCN", 8);
      m->Refresh();
      return m;
    }
    auto m = harness.MakeMgbr(harness.MgbrBenchConfig(), 7);
    m->Refresh();
    return std::unique_ptr<RecModel>(std::move(m));
  };
  serve::PoolConfig pool_config;
  pool_config.retrieval.enabled = opt.retrieval;
  pool_config.quant = opt.quant;
  ModelPool pool(make_model, pool_config);
  pool.Install(make_model(), "loadgen-seed");

  const KeySchedule schedule(opt.task, harness.n_users(), harness.n_items(),
                             opt.b_pairs);
  const std::vector<Request> working_set = schedule.WorkingSet();

  ServerConfig config;
  config.queue_capacity = opt.queue_capacity;
  config.max_batch = opt.max_batch;
  config.n_workers = static_cast<int>(opt.workers);
  config.cache_capacity =
      opt.cache >= 0 ? opt.cache
                     : static_cast<int64_t>(working_set.size()) * 2;
  config.obs.metrics_port = static_cast<int>(opt.metrics_port);
  config.obs.flight_capacity = opt.flight_capacity;
  config.obs.flight_dump_path = opt.flight_dump_out;
  if (opt.metrics_port >= 0) {
    // The serve counts scrape without the runtime switch; it turns on
    // the serve.* latency, stage and batch-size histograms, which
    // /metrics renders from the registry.
    SetTelemetryEnabled(true);
  }
  Server server(&pool, config);
  if (opt.metrics_port >= 0) {
    MGBR_LOG_INFO("metrics exporter on http://127.0.0.1:",
                  server.metrics_port());
  }

  // Cache fill: score every key in the working set once, closed-loop,
  // so the timed window measures the steady serving state (between
  // model swaps a version's scores are immutable and fully cacheable;
  // a production server would precompute exactly this set on swap).
  {
    const int64_t t0 = trace::NowMicros();
    std::vector<std::future<Response>> fills;
    fills.reserve(working_set.size());
    for (Request r : working_set) {
      r.k = opt.k;
      fills.push_back(server.Submit(r));
    }
    int64_t ok = 0;
    for (auto& f : fills) {
      ok += f.get().code == ResponseCode::kOk ? 1 : 0;
    }
    MGBR_LOG_INFO("cache fill: ", ok, "/", working_set.size(), " keys in ",
                  Num(static_cast<double>(trace::NowMicros() - t0) * 1e-6),
                  "s");
  }

  // Timed open-loop window.
  const int64_t interval_count =
      static_cast<int64_t>(opt.qps * opt.duration_s);
  std::vector<std::future<Response>> futures;
  futures.reserve(static_cast<size_t>(interval_count));
  const int64_t start_us = trace::NowMicros();
  for (int64_t i = 0; i < interval_count; ++i) {
    const int64_t arrival_us =
        start_us + static_cast<int64_t>(static_cast<double>(i) * 1e6 /
                                        opt.qps);
    const int64_t now = trace::NowMicros();
    if (arrival_us > now) {
      std::this_thread::sleep_for(std::chrono::microseconds(arrival_us - now));
    }
    Request r = schedule.At(i);
    r.k = opt.k;
    if (opt.deadline_ms > 0) {
      r.deadline_us = trace::NowMicros() + opt.deadline_ms * 1000;
    }
    futures.push_back(server.Submit(r));
  }
  server.Stop();  // drain; every future resolves
  const int64_t end_us = trace::NowMicros();
  const double window_s = static_cast<double>(end_us - start_us) * 1e-6;

  int64_t ok = 0, shed_queue = 0, shed_deadline = 0, other = 0;
  int64_t cache_hits = 0;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(futures.size());
  for (auto& f : futures) {
    const Response r = f.get();
    switch (r.code) {
      case ResponseCode::kOk:
        ++ok;
        cache_hits += r.cache_hit ? 1 : 0;
        latencies_ms.push_back(
            static_cast<double>(r.done_us - r.enqueue_us) * 1e-3);
        break;
      case ResponseCode::kShedQueueFull:
        ++shed_queue;
        break;
      case ResponseCode::kShedDeadline:
        ++shed_deadline;
        break;
      default:
        ++other;
        break;
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double qps = static_cast<double>(ok) / window_s;
  const double shed_fraction =
      futures.empty() ? 0.0
                      : static_cast<double>(shed_queue + shed_deadline) /
                            static_cast<double>(futures.size());
  const double p50 = Percentile(latencies_ms, 0.50);
  const double p90 = Percentile(latencies_ms, 0.90);
  const double p99 = Percentile(latencies_ms, 0.99);
  const double lat_max = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  const ServerStats stats = server.stats();
  const QuantReport quant = MeasureQuant(&pool, opt.k, harness.n_users());

  std::printf(
      "loadgen: offered %.0f qps for %.1fs (task=%s)\n"
      "  completed %" PRId64 "/%zu (%.1f qps), shed %.2f%% "
      "(queue=%" PRId64 " deadline=%" PRId64 " other=%" PRId64 ")\n"
      "  latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n"
      "  batches=%" PRId64 " unique_scored=%" PRId64 " coalesced=%" PRId64
      " cache_hits=%" PRId64 " two_stage=%" PRId64 " quant_scored=%" PRId64
      "\n",
      opt.qps, window_s, opt.task.c_str(), ok, futures.size(), qps,
      shed_fraction * 100.0, shed_queue, shed_deadline, other, p50, p90, p99,
      lat_max, stats.batches, stats.unique_scored, stats.coalesced,
      stats.cache_hits, stats.two_stage, stats.quant_scored);
  if (quant.supported) {
    std::printf("  quant[%s]: model_bytes=%" PRId64 " (fp32 %" PRId64
                "), bytes_per_item=%.1f, top-%" PRId64
                " overlap mean=%.4f min=%.4f over %" PRId64 " users\n",
                QuantModeName(opt.quant), quant.model_bytes, quant.fp32_bytes,
                quant.bytes_per_item, opt.k, quant.mean_topk_overlap,
                quant.min_topk_overlap, quant.overlap_users);
  }

  if (!opt.json_out.empty()) {
    std::string out;
    out += "{\"schema\":\"mgbr-loadgen-v1\",";
    out += "\"config\":{";
    out += "\"offered_qps\":" + Num(opt.qps);
    out += ",\"duration_s\":" + Num(opt.duration_s);
    out += ",\"deadline_ms\":" + std::to_string(opt.deadline_ms);
    out += ",\"task\":\"" + opt.task + "\"";
    out += ",\"model\":\"" + opt.model + "\"";
    out += ",\"retrieval\":" + std::string(opt.retrieval ? "true" : "false");
    out += ",\"quant\":\"" + std::string(QuantModeName(opt.quant)) + "\"";
    out += ",\"k\":" + std::to_string(opt.k);
    out += ",\"cache_capacity\":" + std::to_string(config.cache_capacity);
    out += ",\"n_workers\":" + std::to_string(config.n_workers);
    out += ",\"max_batch\":" + std::to_string(config.max_batch);
    out += ",\"queue_capacity\":" + std::to_string(config.queue_capacity);
    out += ",\"working_set\":" + std::to_string(working_set.size());
    out += ",\"fast\":" +
           std::string(harness.config().fast ? "true" : "false");
    out += "},\"results\":{";
    out += "\"offered\":" + std::to_string(futures.size());
    out += ",\"completed\":" + std::to_string(ok);
    out += ",\"shed_queue_full\":" + std::to_string(shed_queue);
    out += ",\"shed_deadline\":" + std::to_string(shed_deadline);
    out += ",\"other\":" + std::to_string(other);
    out += ",\"qps\":" + Num(qps);
    out += ",\"shed_fraction\":" + Num(shed_fraction);
    out += ",\"cache_hit_fraction\":" +
           Num(ok > 0 ? static_cast<double>(cache_hits) /
                            static_cast<double>(ok)
                      : 0.0);
    out += ",\"latency_ms\":{\"p50\":" + Num(p50) + ",\"p90\":" + Num(p90) +
           ",\"p99\":" + Num(p99) + ",\"max\":" + Num(lat_max) + "}";
    // The server's own lifetime accounting (cache fill included), the
    // ground truth the CI scrape-reconciliation checks /metrics against.
    out += "},\"server\":{";
    serve::AppendStatsJson(stats, &out);
    // Flight-recorder dumps the SLO monitor's shed trigger wrote.
    out += ",\"flight_dumps\":" + std::to_string(server.flight_dumps());
    // Final bound port (ephemeral-port runs included), so the CI scrape
    // reconciliation can verify it scraped THIS server.
    out += ",\"metrics_port\":" + std::to_string(server.metrics_port());
    // Footprint + Task-A agreement of the served quantized view (all
    // defaults when --quant=off or the model has no retrieval view).
    out += "},\"quant\":{";
    out += "\"mode\":\"" + std::string(QuantModeName(opt.quant)) + "\"";
    out += ",\"supported\":" + std::string(quant.supported ? "true" : "false");
    out += ",\"model_bytes\":" + std::to_string(quant.model_bytes);
    out += ",\"fp32_bytes\":" + std::to_string(quant.fp32_bytes);
    out += ",\"bytes_per_item\":" + Num(quant.bytes_per_item);
    out += ",\"mean_topk_overlap\":" + Num(quant.mean_topk_overlap);
    out += ",\"min_topk_overlap\":" + Num(quant.min_topk_overlap);
    out += ",\"overlap_users\":" + std::to_string(quant.overlap_users);
    out += "}}\n";
    std::FILE* f = std::fopen(opt.json_out.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(out.data(), 1, out.size(), f) != out.size() ||
        std::fclose(f) != 0) {
      MGBR_LOG_ERROR("cannot write loadgen report: ", opt.json_out);
      return 1;
    }
    MGBR_LOG_INFO("wrote loadgen report to ", opt.json_out);
  }

  // Linger with the (already drained) server alive: its exporter keeps
  // answering /metrics and /healthz, so a scraper can reconcile the
  // final counters against the JSON report above.
  if (opt.linger_s > 0.0) {
    MGBR_LOG_INFO("lingering ", Num(opt.linger_s),
                  "s for post-drain scrapes");
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opt.linger_s));
  }
  return 0;
}

}  // namespace
}  // namespace mgbr::bench

int main(int argc, char** argv) {
  const mgbr::TelemetryOptions telemetry =
      mgbr::TelemetryOptions::FromArgs(argc, argv);
  telemetry.EnableRequested();

  mgbr::bench::LoadgenOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (mgbr::bench::ParseFlag(arg, "qps", &v)) {
      opt.qps = std::stod(v);
    } else if (mgbr::bench::ParseFlag(arg, "duration-s", &v)) {
      opt.duration_s = std::stod(v);
    } else if (mgbr::bench::ParseFlag(arg, "deadline-ms", &v)) {
      opt.deadline_ms = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "task", &v)) {
      opt.task = v;
    } else if (mgbr::bench::ParseFlag(arg, "model", &v)) {
      opt.model = v;
    } else if (mgbr::bench::ParseFlag(arg, "retrieval", &v)) {
      opt.retrieval = v != "0";
    } else if (mgbr::bench::ParseFlag(arg, "quant", &v)) {
      if (!mgbr::ParseQuantMode(v, &opt.quant)) {
        std::fprintf(stderr, "--quant must be off, fp32, bf16 or int8\n");
        return 2;
      }
    } else if (mgbr::bench::ParseFlag(arg, "k", &v)) {
      opt.k = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "cache", &v)) {
      opt.cache = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "workers", &v)) {
      opt.workers = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "max-batch", &v)) {
      opt.max_batch = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "queue-capacity", &v)) {
      opt.queue_capacity = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "b-pairs", &v)) {
      opt.b_pairs = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "json-out", &v)) {
      opt.json_out = v;
    } else if (mgbr::bench::ParseFlag(arg, "metrics-port", &v)) {
      opt.metrics_port = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "flight-capacity", &v)) {
      opt.flight_capacity = std::stoll(v);
    } else if (mgbr::bench::ParseFlag(arg, "flight-dump-out", &v)) {
      opt.flight_dump_out = v;
    } else if (mgbr::bench::ParseFlag(arg, "linger-s", &v)) {
      opt.linger_s = std::stod(v);
    } else if (mgbr::bench::ParseFlag(arg, "chaos", &v)) {
      opt.chaos = v;
    } else if (arg.rfind("--trace-out", 0) == 0 ||
               arg.rfind("--metrics-out", 0) == 0 || arg == "--trace-stream") {
      if ((arg == "--trace-out" || arg == "--metrics-out") && i + 1 < argc) {
        ++i;  // handled by TelemetryOptions; skip its value form too
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.task != "a" && opt.task != "b" && opt.task != "mix") {
    std::fprintf(stderr, "--task must be a, b or mix\n");
    return 2;
  }
  if (opt.model != "mgbr" && opt.model != "gbgcn") {
    std::fprintf(stderr, "--model must be mgbr or gbgcn\n");
    return 2;
  }
  if (!opt.chaos.empty() && opt.chaos != "corrupt-swap" &&
      opt.chaos != "worker-stall" && opt.chaos != "overload") {
    std::fprintf(stderr,
                 "--chaos must be corrupt-swap, worker-stall or overload\n");
    return 2;
  }

  const int rc = opt.chaos.empty() ? mgbr::bench::Run(opt)
                                   : mgbr::bench::RunChaos(opt);
  const mgbr::Status flush = telemetry.Flush(nullptr);
  return rc != 0 ? rc : (flush.ok() ? 0 : 1);
}
