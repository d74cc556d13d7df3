#ifndef MGBR_SERVE_DEGRADE_H_
#define MGBR_SERVE_DEGRADE_H_

#include <atomic>
#include <cstdint>

#include "obs/slo.h"

namespace mgbr::serve {

/// Cost tiers of the serving degradation ladder, cheapest-response
/// first. Each level keeps every cheaper level's measure active:
///
///   0 kNormal        — the pinned version's scoring path: two-stage
///                      Task A when it carries an index, else brute
///                      force.
///   1 kTwoStage      — no change to scoring (the ladder builds no
///                      index); the tier is still recorded so the
///                      response stays attributable.
///   2 kReducedProbe  — a narrowed nprobe budget for versions that
///                      carry an index; the rest brute-force.
///   3 kTightDeadline — admission clamps every request's deadline to a
///                      short budget, so queue-aged work sheds instead
///                      of serving late.
///   4 kShed          — admission admits only 1-in-N requests; the
///                      rest complete immediately with kShedLoad.
enum class DegradeLevel : int {
  kNormal = 0,
  kTwoStage = 1,
  kReducedProbe = 2,
  kTightDeadline = 3,
  kShed = 4,
};

/// Human-readable tier name ("normal", "two-stage", ...).
const char* DegradeLevelName(int level);

struct DegradeConfig {
  bool enabled = false;
  /// Highest tier the ladder may reach (clamped to [0, 4]).
  int max_level = 4;
  /// Step up one tier after this many CONSECUTIVE fast-window-breach
  /// evaluations; step down after `step_down_after` consecutive clean
  /// ones. Evaluations run at ~1 Hz, so these are roughly seconds.
  int step_up_after = 2;
  int step_down_after = 5;
  /// nprobe used at kReducedProbe and above; 0 = auto
  /// (max(1, configured nprobe / 4)).
  int64_t reduced_nprobe = 0;
  /// Admission deadline budget applied at kTightDeadline and above.
  int64_t admission_budget_us = 5000;
  /// At kShed, admit one request in this many (by request id).
  int64_t shed_keep_one_in = 4;
};

/// SLO-driven ladder state machine. OnEvaluate consumes each
/// SloMonitor window verdict on the evaluator thread; level() is a
/// relaxed atomic read safe from admission and worker threads. The
/// controller deliberately keys on `fast_breach` only — the fast
/// sub-window is the paging signal, and the load-shed responses the
/// ladder itself produces are NOT fed back into the SLO shed stream
/// (see Server::Submit), so the ladder cannot latch itself at kShed:
/// once exogenous pressure clears, evaluations read clean and the
/// ladder steps back down.
class DegradationController {
 public:
  explicit DegradationController(DegradeConfig config);

  DegradationController(const DegradationController&) = delete;
  DegradationController& operator=(const DegradationController&) = delete;

  /// Consumes one SLO evaluation; steps the ladder with hysteresis.
  void OnEvaluate(const obs::SloWindowStats& stats);

  /// Current tier, readable from any thread.
  int level() const { return level_.load(std::memory_order_relaxed); }

  /// Effective per-call nprobe for `configured_nprobe` at the current
  /// tier: 0 (= use configured) below kReducedProbe, the reduced
  /// budget at or above it.
  int64_t EffectiveNprobe(int64_t configured_nprobe) const;

  int64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }
  int max_level_seen() const {
    return max_level_seen_.load(std::memory_order_relaxed);
  }

  const DegradeConfig& config() const { return config_; }

 private:
  void SetLevel(int level);

  const DegradeConfig config_;
  std::atomic<int> level_{0};
  std::atomic<int64_t> transitions_{0};
  std::atomic<int> max_level_seen_{0};
  // Evaluator-thread-only hysteresis state.
  int breach_streak_ = 0;
  int clean_streak_ = 0;
};

}  // namespace mgbr::serve

#endif  // MGBR_SERVE_DEGRADE_H_
