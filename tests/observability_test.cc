// Tests of the observability layer (common/metrics.h, common/trace.h,
// common/telemetry.h): metric semantics under concurrent updates, span
// nesting and Chrome trace-event JSON validity, telemetry JSONL
// round-trips, flag parsing, and a concurrent stress test that the
// sanitizer CI runs under TSan.
//
// Metrics and trace buffers are process-global, so every test runs
// through ObservabilityTest's save/reset/restore fixture.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "models/graph_inputs.h"
#include "train/trainer.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator, enough to assert that every
// exported artifact is well-formed (values are not interpreted).
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped character
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonValidator(s).Valid(); }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

// Saves + restores the global switches and clears global state so the
// process-wide registry/buffers never leak between tests.
class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_metrics_ = TelemetryEnabled();
    saved_trace_ = trace::Enabled();
    SetTelemetryEnabled(false);
    trace::SetEnabled(false);
    if (trace::StreamingActive()) trace::FinishStreaming();
    trace::Clear();
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override {
    if (trace::StreamingActive()) trace::FinishStreaming();
    SetTelemetryEnabled(saved_metrics_);
    trace::SetEnabled(saved_trace_);
    trace::Clear();
    MetricsRegistry::Global().ResetAll();
  }

 private:
  bool saved_metrics_ = false;
  bool saved_trace_ = false;
};

// ---------------------------------------------------------------------------
// Metric semantics.
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, CounterIsExactUnderConcurrentIncrements) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter");
  const int kThreads = 8;
  const int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<int64_t>(kThreads) * kAdds);
  c->Reset();
  EXPECT_EQ(c->Value(), 0);
}

TEST_F(ObservabilityTest, GaugeKeepsLastWrittenValue) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge");
  g->Set(1.5);
  g->Set(-3.25);
  EXPECT_DOUBLE_EQ(g->Value(), -3.25);
  g->Reset();
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST_F(ObservabilityTest, HistogramBucketsTotalsAndQuantiles) {
  // Bounds: 1, 4, 16, 64 (+ overflow).
  Histogram h("test.hist", 1.0, 4.0, 4);
  ASSERT_EQ(h.bounds().size(), 4u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[3], 64.0);

  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(2.0);    // bucket 1 (<= 4)
  h.Observe(10.0);   // bucket 2 (<= 16)
  h.Observe(100.0);  // overflow
  EXPECT_EQ(h.Count(), 4);
  EXPECT_DOUBLE_EQ(h.Sum(), 112.5);
  EXPECT_DOUBLE_EQ(h.Mean(), 112.5 / 4.0);

  std::vector<int64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 0);
  EXPECT_EQ(buckets[4], 1);

  // Quantile interpolates linearly within the containing bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  // target = 2 observations: all of bucket [0,1] plus all of (1,4].
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 4.0);
  // target = 1.5: halfway through the (1,4] bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.375), 2.5);
  // The top quantile lands in the unbounded overflow bucket; the last
  // finite bound is reported.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 64.0);

  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST_F(ObservabilityTest, HistogramQuantileInterpolatesKnownDistributions) {
  // Uniform: 100 observations spread evenly over (0, 100] with bounds
  // 100, 200, 400 land in the first bucket; interpolation recovers the
  // true percentiles to bucket-width resolution.
  Histogram uniform("test.hist.uniform", 100.0, 2.0, 3);
  for (int i = 1; i <= 100; ++i) uniform.Observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(uniform.Quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(uniform.Quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(uniform.Quantile(0.99), 99.0);

  // Point mass: every observation in one bucket; quantiles stay inside
  // that bucket's bounds instead of jumping to the upper edge.
  Histogram point("test.hist.point", 1.0, 10.0, 3);  // bounds 1, 10, 100
  for (int i = 0; i < 8; ++i) point.Observe(5.0);    // all in (1, 10]
  const double p50 = point.Quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LT(p50, 10.0);
  EXPECT_DOUBLE_EQ(p50, 1.0 + 0.5 * 9.0);  // halfway through (1, 10]

  // Bimodal: half at the bottom, half at the top; the median sits at
  // the seam between the two occupied buckets.
  Histogram bimodal("test.hist.bimodal", 1.0, 10.0, 3);
  for (int i = 0; i < 10; ++i) bimodal.Observe(0.5);   // bucket [0, 1]
  for (int i = 0; i < 10; ++i) bimodal.Observe(50.0);  // bucket (10, 100]
  EXPECT_DOUBLE_EQ(bimodal.Quantile(0.5), 1.0);
  // p75 = 5 observations into the (10, 100] bucket of 10 -> halfway.
  EXPECT_DOUBLE_EQ(bimodal.Quantile(0.75), 10.0 + 0.5 * 90.0);
}

TEST_F(ObservabilityTest, HistogramIsExactUnderConcurrentObserves) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.hist.mt", 1.0, 2.0, 8);
  const int kThreads = 8;
  const int kObs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kObs; ++i) h->Observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->Count(), static_cast<int64_t>(kThreads) * kObs);
  EXPECT_DOUBLE_EQ(h->Sum(), static_cast<double>(kThreads) * kObs);
}

TEST_F(ObservabilityTest, MacrosRespectTheRuntimeSwitch) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.switch");
  MGBR_COUNTER_ADD(c, 5);  // switch off -> no-op
  EXPECT_EQ(c->Value(), 0);
  SetTelemetryEnabled(true);
  MGBR_COUNTER_ADD(c, 5);
#if MGBR_TELEMETRY
  EXPECT_EQ(c->Value(), 5);
#else
  EXPECT_EQ(c->Value(), 0);  // macros compiled out entirely
#endif
}

TEST_F(ObservabilityTest, RegistryReturnsStablePointersAndValidJson) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c1 = reg.GetCounter("test.stable");
  Counter* c2 = reg.GetCounter("test.stable");
  EXPECT_EQ(c1, c2);
  reg.GetGauge("test.stable.gauge")->Set(2.0);
  reg.GetHistogram("test.stable.hist", 1.0, 2.0, 4)->Observe(3.0);
  c1->Add(7);

  const std::string json = reg.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.stable\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("test.stable.hist"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans.
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, SpansAreInertWhenDisabled) {
  { TraceSpan span("test.disabled", "test"); }
  EXPECT_EQ(trace::EventCount(), 0);
}

TEST_F(ObservabilityTest, TimedSpanMeasuresEvenWhenTracingIsOff) {
  TimedSpan span("test.timed", "test");
  const double seconds = span.Finish();
  EXPECT_GE(seconds, 0.0);
  EXPECT_DOUBLE_EQ(span.Finish(), seconds);  // idempotent
  EXPECT_EQ(trace::EventCount(), 0);
}

TEST_F(ObservabilityTest, NestedSpansProduceValidChromeTraceJson) {
  trace::SetEnabled(true);
  {
    TraceSpan outer("test.outer", "test");
    {
      TraceSpan inner("test.inner", "test");
    }
    { TimedSpan timed("test.timed", "test"); }
  }
  EXPECT_EQ(trace::EventCount(), 3);

  const ScopedTempDir temp("obs");
  const std::string path = temp.File("observability_trace.json");
  ASSERT_TRUE(trace::WriteChromeTrace(path).ok());
  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"test.timed\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ObservabilityTest, ClearDiscardsBufferedEvents) {
  trace::SetEnabled(true);
  { TraceSpan span("test.cleared", "test"); }
  EXPECT_EQ(trace::EventCount(), 1);
  trace::Clear();
  EXPECT_EQ(trace::EventCount(), 0);
}

// ---------------------------------------------------------------------------
// Streaming trace export.
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, StreamingFlushesChunksIncrementallyWithoutDrops) {
  const ScopedTempDir temp("obs");
  const std::string path = temp.File("observability_stream.json");
  ASSERT_TRUE(trace::StartStreaming(path, /*chunk_events=*/8).ok());
  EXPECT_TRUE(trace::StreamingActive());
  EXPECT_TRUE(trace::Enabled());  // StartStreaming enables recording

  // Two full chunks flush mid-run; the remainder stays buffered until
  // FinishStreaming. Nothing is ever dropped while streaming.
  for (int i = 0; i < 20; ++i) {
    TraceSpan span("test.stream", "test");
  }
  EXPECT_EQ(trace::FlushedCount(), 16);
  EXPECT_EQ(trace::EventCount(), 4);
  EXPECT_EQ(trace::DroppedCount(), 0);

  ASSERT_TRUE(trace::FinishStreaming().ok());
  EXPECT_FALSE(trace::StreamingActive());
  EXPECT_EQ(trace::FlushedCount(), 20);
  EXPECT_EQ(trace::EventCount(), 0);  // drained into the file

  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(IsValidJson(json)) << json;
  size_t events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 20u);
}

TEST_F(ObservabilityTest, StreamingRejectsDoubleStartAndBadFinish) {
  EXPECT_FALSE(trace::FinishStreaming().ok());  // nothing active
  const ScopedTempDir temp("obs");
  const std::string path = temp.File("observability_stream2.json");
  ASSERT_TRUE(trace::StartStreaming(path).ok());
  EXPECT_FALSE(trace::StartStreaming(path).ok());  // already active
  EXPECT_FALSE(trace::StartStreaming(path, 0).ok());  // bad chunk size
  ASSERT_TRUE(trace::FinishStreaming().ok());
  EXPECT_FALSE(trace::FinishStreaming().ok());  // idempotence is an error
}

TEST_F(ObservabilityTest, StreamingIsRaceFreeUnderConcurrentSpans) {
  const ScopedTempDir temp("obs");
  const std::string path = temp.File("observability_stream3.json");
  ASSERT_TRUE(trace::StartStreaming(path, /*chunk_events=*/32).ok());
  const int kThreads = 4;
  const int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        TraceSpan span("test.stream.mt", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(trace::FinishStreaming().ok());
  EXPECT_EQ(trace::FlushedCount(), kThreads * kSpans);
  EXPECT_EQ(trace::DroppedCount(), 0);
  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(IsValidJson(json));
}

// ---------------------------------------------------------------------------
// Run telemetry JSONL.
// ---------------------------------------------------------------------------

EpochTelemetry MakeRecord(int64_t epoch) {
  EpochTelemetry r;
  r.model = "MGBR";
  r.epoch = epoch;
  r.steps = 10;
  r.loss_a = 0.5;
  r.loss_b = 0.25;
  r.aux_a = 0.0625;
  r.aux_b = 0.03125;
  r.total_loss = 0.84375;
  r.grad_norm_pre = 2.0;
  r.grad_norm_post = 1.5;
  r.learning_rate = 1e-2;
  r.sampler_draws = 100;
  r.sampler_rejections = 25;
  r.sampler_rejection_rate = 0.25;
  r.seconds = 0.125;
  return r;
}

TEST_F(ObservabilityTest, TelemetryJsonlRoundTrips) {
  RunTelemetry run;
  run.SetMeta("model", "MGBR");
  run.RecordEpoch(MakeRecord(1));
  run.RecordEpoch(MakeRecord(2));
  run.AnnotateLastEpoch({{"val_metric", 0.75}});
  EXPECT_EQ(run.n_epochs(), 2);

  const ScopedTempDir temp("obs");
  const std::string path = temp.File("observability_run.jsonl");
  ASSERT_TRUE(run.WriteJsonl(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // 2 epochs + summary
  for (const std::string& l : lines) {
    EXPECT_TRUE(IsValidJson(l)) << l;
  }
  // All four loss terms of Eq. 25, the grad norms and the lr must
  // round-trip (values exactly representable in binary).
  EXPECT_NE(lines[0].find("\"type\":\"epoch\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"loss_a\":0.5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"loss_b\":0.25"), std::string::npos);
  EXPECT_NE(lines[0].find("\"aux_a\":0.0625"), std::string::npos);
  EXPECT_NE(lines[0].find("\"aux_b\":0.03125"), std::string::npos);
  EXPECT_NE(lines[0].find("\"grad_norm_pre\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"grad_norm_post\":1.5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"learning_rate\":0.01"), std::string::npos);
  EXPECT_NE(lines[0].find("\"seconds\":0.125"), std::string::npos);
  EXPECT_NE(lines[1].find("\"val_metric\":0.75"), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"n_epochs\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"best_eval\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"model\":\"MGBR\""), std::string::npos);
}

TEST_F(ObservabilityTest, TelemetryOptionsParseBothFlagForms) {
  const char* argv_eq[] = {"prog", "--trace-out=t.json",
                           "--metrics-out=m.jsonl"};
  TelemetryOptions eq = TelemetryOptions::FromArgs(3, argv_eq);
  EXPECT_EQ(eq.trace_out, "t.json");
  EXPECT_EQ(eq.metrics_out, "m.jsonl");

  const char* argv_sp[] = {"prog", "--trace-out", "t.json", "--metrics-out",
                           "m.jsonl", "--other=1"};
  TelemetryOptions sp = TelemetryOptions::FromArgs(6, argv_sp);
  EXPECT_EQ(sp.trace_out, "t.json");
  EXPECT_EQ(sp.metrics_out, "m.jsonl");
  EXPECT_TRUE(sp.any());

  const char* argv_none[] = {"prog", "--other=1"};
  EXPECT_FALSE(TelemetryOptions::FromArgs(2, argv_none).any());
}

// End-to-end: a real (tiny) training run must produce an epoch record
// with sampler effort and positive wall time.
TEST_F(ObservabilityTest, TrainerFeedsTelemetrySink) {
  SetTelemetryEnabled(true);
  BeibeiSimConfig sim;
  sim.n_users = 40;
  sim.n_items = 20;
  sim.n_groups = 120;
  sim.seed = 11;
  GroupBuyingDataset data = GenerateBeibeiSim(sim);
  InteractionIndex index(data);
  TrainingSampler sampler(data, &index);
  GraphInputs graphs = BuildGraphInputs(data);
  MgbrConfig mc;
  mc.dim = 4;
  Rng rng(5);
  MgbrModel model(graphs, mc, &rng);
  TrainConfig tc;
  tc.batch_size = 32;
  RunTelemetry run;
  Trainer trainer(&model, &sampler, tc);
  trainer.SetTelemetry(&run);
  trainer.RunEpoch();

  ASSERT_EQ(run.n_epochs(), 1);
  const EpochTelemetry r = run.epochs()[0];
  EXPECT_EQ(r.epoch, 1);
  EXPECT_GT(r.steps, 0);
  EXPECT_NE(r.loss_a, 0.0);
  EXPECT_GT(r.grad_norm_pre, 0.0);
  EXPECT_GT(r.learning_rate, 0.0);
#if MGBR_TELEMETRY
  EXPECT_GT(r.sampler_draws, 0);
#endif
  EXPECT_GT(r.seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Concurrent stress: spans + metrics + exporters racing. Runs under
// TSan in the sanitizer CI job (suite name is in its --gtest_filter).
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, ConcurrentSpansMetricsAndExportsAreRaceFree) {
  SetTelemetryEnabled(true);
  trace::SetEnabled(true);
  [[maybe_unused]] Counter* c =
      MetricsRegistry::Global().GetCounter("stress.counter");
  [[maybe_unused]] Histogram* h =
      MetricsRegistry::Global().GetHistogram("stress.hist", 1.0, 2.0, 8);

  const int kThreads = 8;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        TraceSpan span("stress.span", "test");
        MGBR_COUNTER_ADD(c, 1);
        MGBR_HISTOGRAM_OBSERVE(h, static_cast<double>(i % 32));
      }
    });
  }
  // Exporters race with the writers on purpose.
  std::thread exporter([&] {
    const ScopedTempDir temp("obs");
    const std::string path = temp.File("observability_stress.json");
    while (!stop.load()) {
      (void)MetricsRegistry::Global().ToJson();
      (void)trace::WriteChromeTrace(path);
      (void)trace::EventCount();
    }
  });
  for (auto& t : workers) t.join();
  stop.store(true);
  exporter.join();

#if MGBR_TELEMETRY
  EXPECT_EQ(c->Value(), kThreads * 2000);
  EXPECT_EQ(h->Count(), kThreads * 2000);
#endif
  EXPECT_EQ(trace::EventCount() + trace::DroppedCount(), kThreads * 2000);
}

}  // namespace
}  // namespace mgbr
