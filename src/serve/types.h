#ifndef MGBR_SERVE_TYPES_H_
#define MGBR_SERVE_TYPES_H_

#include <cstdint>
#include <vector>

namespace mgbr::serve {

/// Which catalogue a request ranks over.
enum class TaskKind {
  kTopKItems,         // Task A: top-K items for `user`
  kTopKParticipants,  // Task B: top-K co-buyers for (`user`, `item`)
};

/// One top-K request. `deadline_us` is an absolute time on the
/// trace::NowMicros() clock (0 = no deadline); a request whose deadline
/// has passed before scoring starts is shed, never served late.
struct Request {
  TaskKind task = TaskKind::kTopKItems;
  int64_t user = 0;
  int64_t item = 0;  // Task B context item; ignored for Task A
  int64_t k = 10;
  int64_t deadline_us = 0;
};

enum class ResponseCode {
  kOk = 0,
  kShedQueueFull,     // admission queue at capacity (backpressure)
  kShedDeadline,      // deadline passed before scoring started
  kInvalidArgument,   // user/item outside the served catalogue
  kShutdown,          // server stopped before the request was admitted
  kShedLoad,          // degradation ladder at its shed tier dropped it
};

const char* ResponseCodeToString(ResponseCode code);

struct Response {
  ResponseCode code = ResponseCode::kShutdown;
  /// Monotonically increasing per-server request id, assigned at
  /// Submit() for every request (shed ones included) so logs, traces
  /// and flight-recorder records can be joined on it.
  int64_t id = 0;
  /// Item (Task A) or participant-user (Task B) indices in TopKIndices
  /// order (score desc, index asc), plus their scores.
  std::vector<int64_t> top_k;
  std::vector<double> scores;
  /// ModelPool version id that produced the scores (0 = none; every OK
  /// response is attributable to exactly one version).
  int64_t version = 0;
  /// True when the score vector came from the per-version score cache.
  bool cache_hit = false;
  /// Degradation-ladder tier the response was produced under (0 when
  /// the ladder is off or at kNormal). Part of the attribution
  /// contract: tier + version + request fully determine the scores.
  int degrade_level = 0;
  // Lifecycle timestamps on the trace::NowMicros() clock; a stage the
  // request never reached stays 0 (e.g. batch_close_us for a request
  // shed at admission). batch_close_us is when a worker took the
  // request off the admission queue. Stage waits:
  //   queue wait  = batch_close_us - enqueue_us
  //   batch wait  = score_start_us - batch_close_us (pickup to scoring)
  //   score       = done_us - score_start_us
  int64_t enqueue_us = 0;
  int64_t batch_close_us = 0;
  int64_t score_start_us = 0;
  int64_t done_us = 0;
};

/// Always-on functional accounting, independent of the telemetry
/// switches: the admission/shed contract is part of the server's API,
/// not an observability extra. These atomics are the only count of each
/// number; /metrics (`serve.<name>` counters), /varz and the load
/// generator's reports all render them through kServerStatsFields.
struct ServerStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t completed = 0;
  int64_t invalid = 0;
  /// Completed after their deadline (scoring started in time but ran
  /// long); the response is still delivered.
  int64_t late_completions = 0;
  int64_t batches = 0;
  /// ScoreAAll/ScoreBAll calls actually issued (after in-batch
  /// coalescing and cache hits).
  int64_t unique_scored = 0;
  /// Requests whose score vector was shared with an earlier request of
  /// the same (task, user, item) key in the same batch.
  int64_t coalesced = 0;
  int64_t cache_hits = 0;
  /// OK responses produced by the two-stage ANN candidate-gen +
  /// exact re-rank path (0 when retrieval is off or the served model
  /// exposes no retrieval view).
  int64_t two_stage = 0;
  /// OK responses whose scores came from the quantized embedding view
  /// (0 when PoolConfig::quant is kFp32 or the served model exposes
  /// no retrieval view — those fall back to the fp32 path).
  int64_t quant_scored = 0;
  /// Requests dropped at admission by the degradation ladder's shed
  /// tier (kShedLoad).
  int64_t shed_load = 0;
  /// Stalled workers replaced by the watchdog.
  int64_t worker_restarts = 0;
};

/// One named count of a stats struct. Every view of the counts loops
/// over a list of these, so each count is named exactly once: the name
/// is the JSON key in /varz and the load generator's reports, and
/// `serve.<name>` is the /metrics series.
template <typename Stats>
struct StatsField {
  const char* name;
  int64_t Stats::*member;
};

inline constexpr StatsField<ServerStats> kServerStatsFields[] = {
    {"submitted", &ServerStats::submitted},
    {"admitted", &ServerStats::admitted},
    {"shed_queue_full", &ServerStats::shed_queue_full},
    {"shed_deadline", &ServerStats::shed_deadline},
    {"completed", &ServerStats::completed},
    {"invalid", &ServerStats::invalid},
    {"late_completions", &ServerStats::late_completions},
    {"batches", &ServerStats::batches},
    {"unique_scored", &ServerStats::unique_scored},
    {"coalesced", &ServerStats::coalesced},
    {"cache_hits", &ServerStats::cache_hits},
    {"two_stage", &ServerStats::two_stage},
    {"quant_scored", &ServerStats::quant_scored},
    {"shed_load", &ServerStats::shed_load},
    {"worker_restarts", &ServerStats::worker_restarts},
};

}  // namespace mgbr::serve

#endif  // MGBR_SERVE_TYPES_H_
