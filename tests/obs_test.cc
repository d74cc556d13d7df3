// Serving observability stack: Prometheus exposition, sliding-window
// SLO monitor, flight recorder, and the HTTP exporter.
//
//  1. Prometheus text 0.0.4 rendering: name sanitization, label
//     escaping, cumulative `le` buckets ending in +Inf, and counter
//     monotonicity across scrapes.
//  2. SloMonitor windowed quantiles, burn-rate counters, and the
//     edge-triggered shed-threshold callback.
//  3. FlightRecorder ring semantics and the JSON dump.
//  4. Exporter request routing (socket-free) plus one real socket
//     round-trip.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/prometheus.h"
#include "obs/slo.h"
#include "tests/test_util.h"

namespace mgbr::obs {
namespace {

using mgbr::testing::ScopedTempDir;

// ---------------------------------------------------------------------------
// Prometheus rendering.
// ---------------------------------------------------------------------------

TEST(PrometheusTest, SanitizesMetricNames) {
  EXPECT_EQ(internal::SanitizeMetricName("serve.latency_us"),
            "serve_latency_us");
  EXPECT_EQ(internal::SanitizeMetricName("a:b_c9"), "a:b_c9");
  EXPECT_EQ(internal::SanitizeMetricName("weird name-with/chars"),
            "weird_name_with_chars");
  // A leading digit is not a valid Prometheus name start.
  EXPECT_EQ(internal::SanitizeMetricName("9lives"), "_9lives");
}

TEST(PrometheusTest, EscapesLabelValues) {
  EXPECT_EQ(internal::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(internal::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(internal::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(internal::EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusTest, FormatsNonFiniteValues) {
  EXPECT_EQ(internal::FormatValue(
                std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(internal::FormatValue(
                -std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(internal::FormatValue(std::nan("")), "NaN");
  EXPECT_EQ(internal::FormatValue(2.5), "2.5");
}

MetricsSnapshot::HistogramData MakeHistogramData() {
  MetricsSnapshot::HistogramData h;
  h.name = "serve.stage.score_us";
  h.bounds = {1.0, 4.0, 16.0};
  // Disjoint per-bucket counts: 2 in (0,1], 3 in (1,4], 0 in (4,16],
  // 1 overflow.
  h.buckets = {2, 3, 0, 1};
  h.count = 6;
  h.sum = 40.0;
  return h;
}

TEST(PrometheusTest, RendersCumulativeBucketsEndingInInf) {
  MetricsSnapshot snapshot;
  snapshot.histograms.push_back(MakeHistogramData());
  const std::string text = RenderPrometheusText(snapshot);

  EXPECT_NE(text.find("# TYPE serve_stage_score_us histogram"),
            std::string::npos);
  // Buckets must be cumulative, not the registry's disjoint counts.
  EXPECT_NE(text.find("serve_stage_score_us_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_stage_score_us_bucket{le=\"4\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_stage_score_us_bucket{le=\"16\"} 5\n"),
            std::string::npos);
  // The +Inf bucket equals _count (overflow included).
  EXPECT_NE(text.find("serve_stage_score_us_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_stage_score_us_sum 40\n"), std::string::npos);
  EXPECT_NE(text.find("serve_stage_score_us_count 6\n"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(PrometheusTest, RendersCountersAndGauges) {
  MetricsSnapshot snapshot;
  snapshot.counters.emplace_back("serve.completed", 17);
  snapshot.gauges.emplace_back("slo.window.p99_ms", 3.25);
  const std::string text = RenderPrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE serve_completed counter"), std::string::npos);
  EXPECT_NE(text.find("serve_completed 17\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE slo_window_p99_ms gauge"), std::string::npos);
  EXPECT_NE(text.find("slo_window_p99_ms 3.25\n"), std::string::npos);
}

int64_t ScrapeCounterValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoll(line.substr(name.size() + 1));
    }
  }
  return -1;
}

TEST(PrometheusTest, CountersAreMonotonicAcrossScrapes) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("obs_test.monotonic");
  counter->Reset();
  int64_t previous = -1;
  for (int scrape = 0; scrape < 4; ++scrape) {
    counter->Add(scrape + 1);
    const std::string text = RenderPrometheusText(registry.Snapshot());
    const int64_t value = ScrapeCounterValue(text, "obs_test_monotonic");
    EXPECT_GT(value, previous) << "scrape " << scrape;
    previous = value;
  }
  EXPECT_EQ(previous, 1 + 2 + 3 + 4);
}

TEST(PrometheusTest, LiveHistogramMatchesItsRegistrySnapshot) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* hist =
      registry.GetHistogram("obs_test.render_hist", 1.0, 4.0, 3);
  hist->Reset();
  for (double v : {0.5, 2.0, 3.0, 100.0}) hist->Observe(v);
  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_hist_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_hist_count 4\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sliding-window SLO monitor. Tests drive Evaluate with a synthetic
// clock; the 1 Hz ticker thread is exercised only for start/stop.
// ---------------------------------------------------------------------------

TEST(SloMonitorTest, WindowedQuantilesAndShedFraction) {
  SloConfig config;
  config.window_s = 10;
  config.fast_window_s = 2;
  SloMonitor monitor(config);
  const int64_t now = 100'000'000;  // 100 s
  // 90 fast completions at ~100us, 10 slow at ~70ms, 10 sheds.
  for (int i = 0; i < 90; ++i) monitor.RecordLatency(now, 100.0);
  for (int i = 0; i < 10; ++i) monitor.RecordLatency(now, 70'000.0);
  for (int i = 0; i < 10; ++i) monitor.RecordShed(now);
  const SloWindowStats stats = monitor.Evaluate(now);
  EXPECT_EQ(stats.completed, 100);
  EXPECT_EQ(stats.shed, 10);
  EXPECT_DOUBLE_EQ(stats.shed_fraction, 10.0 / 110.0);
  EXPECT_LT(stats.p50_ms, 1.0);
  EXPECT_GT(stats.p99_ms, 15.0);  // the slow tail dominates p99
  // Everything landed in the current second => fast window sees it too.
  EXPECT_EQ(stats.fast_completed, 100);
  EXPECT_EQ(stats.fast_shed, 10);
}

TEST(SloMonitorTest, OldSecondsFallOutOfTheWindow) {
  SloConfig config;
  config.window_s = 5;
  config.fast_window_s = 1;
  SloMonitor monitor(config);
  const int64_t t0 = 50'000'000;
  monitor.RecordLatency(t0, 500.0);
  // Within the window 3 s later...
  SloWindowStats stats = monitor.Evaluate(t0 + 3'000'000);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.fast_completed, 0);  // ...but already out of the fast one
  // Out of the window 30 s later.
  stats = monitor.Evaluate(t0 + 30'000'000);
  EXPECT_EQ(stats.completed, 0);
}

/// The slo.* gauges/counters go through the MGBR_* macros, so they need
/// the runtime telemetry switch on.
class ScopedTelemetry {
 public:
  ScopedTelemetry() : was_(TelemetryEnabled()) { SetTelemetryEnabled(true); }
  ~ScopedTelemetry() { SetTelemetryEnabled(was_); }

 private:
  bool was_;
};

TEST(SloMonitorTest, BurnRateCountersAdvanceOnBreach) {
  ScopedTelemetry telemetry;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* violations = registry.GetCounter("slo.p99_violations");
  Counter* fast = registry.GetCounter("slo.burn_rate_fast");
  Counter* slow = registry.GetCounter("slo.burn_rate_slow");
  const int64_t v0 = violations->Value();
  const int64_t f0 = fast->Value();
  const int64_t s0 = slow->Value();

  SloConfig config;
  config.target_p99_ms = 1.0;
  SloMonitor monitor(config);
  const int64_t now = 200'000'000;
  for (int i = 0; i < 50; ++i) monitor.RecordLatency(now, 5'000.0);  // 5 ms
  monitor.Evaluate(now);
  EXPECT_EQ(violations->Value(), v0 + 1);
  EXPECT_EQ(fast->Value(), f0 + 1);
  EXPECT_EQ(slow->Value(), s0 + 1);

  // A healthy window burns nothing further.
  SloMonitor healthy(SloConfig{});
  for (int i = 0; i < 50; ++i) healthy.RecordLatency(now, 100.0);
  healthy.Evaluate(now);
  EXPECT_EQ(violations->Value(), v0 + 1);
}

TEST(SloMonitorTest, ShedThresholdCallbackIsEdgeTriggered) {
  SloConfig config;
  config.fast_window_s = 2;
  SloMonitor monitor(config);
  int fires = 0;
  monitor.SetShedThresholdCallback(
      0.05, [&fires](const SloWindowStats&) { ++fires; });

  int64_t now = 300'000'000;
  for (int i = 0; i < 10; ++i) monitor.RecordLatency(now, 100.0);
  for (int i = 0; i < 10; ++i) monitor.RecordShed(now);  // 50% shed
  monitor.Evaluate(now);
  EXPECT_EQ(fires, 1);
  monitor.Evaluate(now);  // still breaching: no re-fire until re-armed
  EXPECT_EQ(fires, 1);

  // Shed fraction drops below the threshold => re-arm...
  now += 60'000'000;
  for (int i = 0; i < 10; ++i) monitor.RecordLatency(now, 100.0);
  monitor.Evaluate(now);
  EXPECT_EQ(fires, 1);
  // ...and a new burst fires again.
  now += 60'000'000;
  for (int i = 0; i < 10; ++i) monitor.RecordShed(now);
  monitor.Evaluate(now);
  EXPECT_EQ(fires, 2);
}

TEST(SloMonitorTest, EvaluationCallbackSeesEveryWindowVerdict) {
  // The degradation ladder hangs off this hook: it must fire on EVERY
  // Evaluate, carry the already-computed breach verdicts, and reflect
  // the thresholds in SloConfig (consumers never re-derive them).
  SloConfig config;
  config.fast_window_s = 2;
  config.max_shed_fraction = 0.10;
  SloMonitor monitor(config);
  std::vector<SloWindowStats> seen;
  monitor.SetEvaluationCallback(
      [&seen](const SloWindowStats& stats) { seen.push_back(stats); });

  int64_t now = 400'000'000;
  for (int i = 0; i < 9; ++i) monitor.RecordLatency(now, 100.0);
  monitor.RecordShed(now);  // 10% shed: at the threshold, not above
  monitor.Evaluate(now);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_FALSE(seen[0].fast_breach);
  EXPECT_EQ(seen[0].fast_completed, 9);

  for (int i = 0; i < 5; ++i) monitor.RecordShed(now);  // now ~40%
  monitor.Evaluate(now);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[1].fast_breach);
  EXPECT_TRUE(seen[1].slow_breach);

  // An empty window later: the callback still fires, verdict clean.
  monitor.Evaluate(now + 120'000'000);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_FALSE(seen[2].fast_breach);
  EXPECT_EQ(seen[2].completed, 0);
}

TEST(SloMonitorTest, TickerStartStopIsClean) {
  SloMonitor monitor(SloConfig{});
  monitor.Start();
  monitor.RecordLatency(0, 100.0);
  monitor.Stop();
  monitor.Stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

FlightRecord MakeRecord(int64_t id) {
  FlightRecord r;
  r.id = id;
  r.task = 0;
  r.user = id * 10;
  r.item = 3;
  r.k = 5;
  r.submit_us = 1000 * id;
  r.batch_close_us = 1000 * id + 40;
  r.score_start_us = 1000 * id + 90;
  r.done_us = 1000 * id + 290;
  r.outcome = 0;
  r.version = 7;
  r.cache_hit = id % 2;
  return r;
}

TEST(FlightRecorderTest, KeepsTheLastCapacityRecords) {
  FlightRecorder recorder(4);
  for (int64_t id = 1; id <= 10; ++id) recorder.Record(MakeRecord(id));
  EXPECT_EQ(recorder.total_recorded(), 10);
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Ring of 4 after 10 writes: ids 7..10, sorted ascending.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, static_cast<int64_t>(7 + i));
    EXPECT_EQ(records[i].user, records[i].id * 10);
  }
}

TEST(FlightRecorderTest, JsonDumpCarriesStageWaits) {
  FlightRecorder recorder(8);
  recorder.set_task_namer([](int64_t) { return "top_k_items"; });
  recorder.set_outcome_namer([](int64_t) { return "ok"; });
  recorder.Record(MakeRecord(42));
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"task\":\"top_k_items\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
  // 40us queue wait, 50us batch wait, 200us score (MakeRecord layout).
  EXPECT_NE(json.find("\"queue_wait_us\":40"), std::string::npos);
  EXPECT_NE(json.find("\"batch_wait_us\":50"), std::string::npos);
  EXPECT_NE(json.find("\"score_us\":200"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToWritesTheFile) {
  FlightRecorder recorder(2);
  recorder.Record(MakeRecord(1));
  const ScopedTempDir temp("obs");
  const std::string path = temp.File("flight_dump_test.json");
  ASSERT_TRUE(recorder.DumpTo(path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"id\":1"), std::string::npos);
  EXPECT_EQ(content.str().back(), '\n');
}

// ---------------------------------------------------------------------------
// Exporter: routing without sockets, then one real socket round-trip.
// ---------------------------------------------------------------------------

TEST(ExporterTest, RoutesKnownTargets) {
  Exporter exporter;
  const std::string metrics = exporter.HandleRequest("GET", "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(metrics.find("Connection: close"), std::string::npos);

  const std::string healthz = exporter.HandleRequest("GET", "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("{\"status\":\"ok\"}"), std::string::npos);

  EXPECT_NE(exporter.HandleRequest("GET", "/varz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(exporter.HandleRequest("GET", "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(exporter.HandleRequest("POST", "/metrics").find("405"),
            std::string::npos);
}

TEST(ExporterTest, CustomHandlersAndFlightFlag) {
  Exporter exporter;
  exporter.set_healthz_handler([] {
    return std::string("{\"status\":\"draining\"}");
  });
  exporter.set_varz_handler([](bool flight) {
    return flight ? std::string("{\"flight\":true}")
                  : std::string("{\"flight\":false}");
  });
  EXPECT_NE(
      exporter.HandleRequest("GET", "/healthz").find("draining"),
      std::string::npos);
  EXPECT_NE(
      exporter.HandleRequest("GET", "/varz").find("\"flight\":false"),
      std::string::npos);
  EXPECT_NE(
      exporter.HandleRequest("GET", "/varz?flight=1").find("\"flight\":true"),
      std::string::npos);
}

/// Blocking one-shot HTTP GET against 127.0.0.1:`port`.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ExporterTest, ServesMetricsOverARealSocket) {
  MetricsRegistry::Global()
      .GetCounter("obs_test.socket_counter")
      ->Add(3);
  Exporter exporter;  // ephemeral port
  ASSERT_TRUE(exporter.Start().ok());
  ASSERT_GT(exporter.port(), 0);

  const std::string response = HttpGet(exporter.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("# TYPE obs_test_socket_counter counter"),
            std::string::npos);
  const std::string healthz = HttpGet(exporter.port(), "/healthz");
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);
  exporter.Stop();
}

TEST(ExporterTest, SecondExporterOnTheSamePortFailsCleanly) {
  Exporter first;
  ASSERT_TRUE(first.Start().ok());
  ExporterConfig config;
  config.port = first.port();
  config.bind_retries = 0;  // fail fast: the holder never lets go
  Exporter second(config);
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

TEST(ExporterTest, BindRetryRidesOutATransientPortHolder) {
  // A predecessor process still winding down holds the port for a few
  // retry intervals; the successor's bounded bind retry must pick the
  // port up once it frees instead of failing the whole obs stack.
  auto first = std::make_unique<Exporter>();
  ASSERT_TRUE(first->Start().ok());
  const int port = first->port();

  std::thread releaser([&first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    first.reset();  // Stop + close: frees the port mid-retry-loop
  });

  ExporterConfig config;
  config.port = port;
  config.bind_retries = 10;
  config.bind_retry_ms = 30;
  Exporter second(config);
  const Status status = second.Start();
  releaser.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(second.port(), port);
  // The retried exporter actually serves.
  const std::string response = HttpGet(port, "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  second.Stop();
}

}  // namespace
}  // namespace mgbr::obs
