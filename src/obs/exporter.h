#ifndef MGBR_OBS_EXPORTER_H_
#define MGBR_OBS_EXPORTER_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"

namespace mgbr::obs {

struct ExporterConfig {
  /// TCP port to listen on; 0 binds an ephemeral port (read back via
  /// port() after Start, used by tests and single-box benches).
  int port = 0;
  /// Listen address. Loopback by default: the exporter is a debugging
  /// and scrape endpoint, not a public API.
  std::string bind_address = "127.0.0.1";
  /// Extra bind attempts when the port is taken (total attempts =
  /// 1 + bind_retries), `bind_retry_ms` apart — rides out TIME_WAIT
  /// remnants and a predecessor process still winding down. Only a
  /// failed bind/listen retries; socket() failures and bad addresses
  /// fail fast.
  int bind_retries = 3;
  int64_t bind_retry_ms = 50;
};

/// Minimal self-contained HTTP/1.1 exposition server (POSIX sockets,
/// no third-party deps), one thread, one connection at a time:
///   GET /metrics   Prometheus text format 0.0.4 rendered from the
///                  registered metrics handler's snapshot (default:
///                  MetricsRegistry::Global().Snapshot())
///   GET /healthz   JSON from the registered healthz handler
///                  (default {"status":"ok"})
///   GET /varz      JSON from the registered varz handler (default:
///                  the registry's ToJson snapshot); `?flight=1`
///                  requests the flight-recorder dump too
/// Anything else is 404; non-GET is 405. Responses always close the
/// connection, which keeps the loop allocation-free of state and is
/// plenty for scrapers and curl.
class Exporter {
 public:
  explicit Exporter(ExporterConfig config = {});
  ~Exporter();

  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// Binds + listens + spawns the serving thread. Fails (IoError) when
  /// the port is taken; the process keeps running without an exporter.
  Status Start();
  void Stop();

  bool running() const { return listen_fd_ >= 0; }
  /// Actual bound port (differs from config.port when that was 0).
  int port() const { return port_; }

  void set_healthz_handler(std::function<std::string()> handler) {
    healthz_handler_ = std::move(handler);
  }
  void set_varz_handler(std::function<std::string(bool)> handler) {
    varz_handler_ = std::move(handler);
  }
  void set_metrics_handler(std::function<MetricsSnapshot()> handler) {
    metrics_handler_ = std::move(handler);
  }

  /// Routes one parsed request; exposed for handler tests that want to
  /// skip the socket layer. `target` is the raw request target, e.g.
  /// "/varz?flight=1". Returns the full HTTP response bytes.
  std::string HandleRequest(const std::string& method,
                            const std::string& target) const;

 private:
  void ServeLoop();

  const ExporterConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::function<std::string()> healthz_handler_;
  std::function<std::string(bool)> varz_handler_;
  std::function<MetricsSnapshot()> metrics_handler_;
};

}  // namespace mgbr::obs

#endif  // MGBR_OBS_EXPORTER_H_
