// In-memory span log of the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call it
// makes into a layer of the system (the program's own MGBR_TRACE stays
// off). Each span keeps its name, start, end, parent span and the lane
// (thread) it ran on; serving spans also carry the request id or the
// scored key. The log is written once, as Chrome-trace JSON, when the
// run ends. With the log disabled a Span costs one relaxed load.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t parent = -1;  // index into the log, -1 for a root span
  int lane = 0;
  /// Request id (serving request spans) or -1.
  int64_t id = -1;
  /// Scored key (user, item) of model-call spans, or -1.
  int64_t user = -1;
  int64_t item = -1;
  /// Operating point the span belongs to ("lo", "hi") or empty.
  std::string phase;
};

class SpanLog {
 public:
  static SpanLog& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread's lane; its parent is the
  /// innermost span still open on that thread.
  int64_t Begin(const std::string& name, int64_t user = -1,
                int64_t item = -1);
  void End(int64_t index);

  /// Appends a finished span reconstructed after the fact (serving
  /// request stages); returns its index.
  int64_t Add(SpanRecord record);
  void SetParent(int64_t index, int64_t parent);

  /// Lane of the calling thread (assigned on first use).
  static int CurrentLane();

  /// Sets the phase stamped on spans opened from now on.
  void SetPhase(const std::string& phase);

  std::vector<SpanRecord> Snapshot() const;

  /// Writes every span as a Chrome-trace complete event; parent, id,
  /// key and phase go into the event's args.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::string phase_;
};

/// RAII span; a no-op while the log is disabled.
class Span {
 public:
  explicit Span(const std::string& name, int64_t user = -1,
                int64_t item = -1);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End();

 private:
  int64_t index_ = -1;
};

/// Stops recording for its scope: the untraced reference runs inside
/// a traced run (whose difference is the tracing overhead).
class PauseSpans {
 public:
  PauseSpans() : was_enabled_(SpanLog::Get().enabled()) {
    SpanLog::Get().Disable();
  }
  ~PauseSpans() {
    if (was_enabled_) SpanLog::Get().Enable();
  }
  PauseSpans(const PauseSpans&) = delete;
  PauseSpans& operator=(const PauseSpans&) = delete;

 private:
  bool was_enabled_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
