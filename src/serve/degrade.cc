#include "serve/degrade.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace mgbr::serve {

const char* DegradeLevelName(int level) {
  switch (level) {
    case 0:
      return "normal";
    case 1:
      return "two-stage";
    case 2:
      return "reduced-probe";
    case 3:
      return "tight-deadline";
    case 4:
      return "shed";
    default:
      return "?";
  }
}

DegradationController::DegradationController(DegradeConfig config)
    : config_([&config] {
        config.max_level = std::max(0, std::min(config.max_level, 4));
        config.step_up_after = std::max(1, config.step_up_after);
        config.step_down_after = std::max(1, config.step_down_after);
        config.shed_keep_one_in = std::max<int64_t>(1, config.shed_keep_one_in);
        return config;
      }()) {}

void DegradationController::OnEvaluate(const obs::SloWindowStats& stats) {
  if (stats.fast_breach) {
    clean_streak_ = 0;
    if (++breach_streak_ >= config_.step_up_after) {
      breach_streak_ = 0;
      const int level = level_.load(std::memory_order_relaxed);
      if (level < config_.max_level) SetLevel(level + 1);
    }
  } else {
    breach_streak_ = 0;
    if (++clean_streak_ >= config_.step_down_after) {
      clean_streak_ = 0;
      const int level = level_.load(std::memory_order_relaxed);
      if (level > 0) SetLevel(level - 1);
    }
  }
}

void DegradationController::SetLevel(int level) {
  const int prev = level_.exchange(level, std::memory_order_relaxed);
  if (prev == level) return;
  transitions_.fetch_add(1, std::memory_order_relaxed);
  int seen = max_level_seen_.load(std::memory_order_relaxed);
  while (level > seen &&
         !max_level_seen_.compare_exchange_weak(seen, level,
                                                std::memory_order_relaxed)) {
  }
  MGBR_LOG_WARNING("degrade: ", prev > level ? "release" : "engage", " ",
                   DegradeLevelName(prev), " -> ", DegradeLevelName(level));
}

int64_t DegradationController::EffectiveNprobe(
    int64_t configured_nprobe) const {
  if (level() < static_cast<int>(DegradeLevel::kReducedProbe)) return 0;
  if (config_.reduced_nprobe > 0) return config_.reduced_nprobe;
  return std::max<int64_t>(1, configured_nprobe / 4);
}

}  // namespace mgbr::serve
