#include "obs/exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "obs/prometheus.h"

namespace mgbr::obs {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
constexpr int kAcceptPollMs = 100;  // Stop() latency upper bound
constexpr int kReadPollMs = 2000;   // slowloris guard

std::string BuildResponse(int status, const char* reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// True when `query` (no leading '?') contains `key` set to a truthy
/// value ("key", "key=1", "key=true").
bool QueryFlagSet(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string param = query.substr(pos, amp - pos);
    const size_t eq = param.find('=');
    const std::string name = param.substr(0, eq);
    if (name == key) {
      if (eq == std::string::npos) return true;
      const std::string value = param.substr(eq + 1);
      return value == "1" || value == "true";
    }
    pos = amp + 1;
  }
  return false;
}

}  // namespace

Exporter::Exporter(ExporterConfig config) : config_(std::move(config)) {}

Exporter::~Exporter() { Stop(); }

Status Exporter::Start() {
  if (listen_fd_ >= 0) return Status::OK();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("exporter: bad bind address: " +
                                   config_.bind_address);
  }
  // Bounded bind retry: a taken port is frequently transient (TIME_WAIT
  // remnant, predecessor still winding down). Each attempt gets a fresh
  // socket; the last failure's errno is what the caller sees.
  const int attempts = 1 + std::max(0, config_.bind_retries);
  std::string last_err;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      MGBR_LOG_WARNING("exporter: bind to ", config_.bind_address, ":",
                       config_.port, " failed (", last_err, "); retry ",
                       attempt, "/", attempts - 1, " in ",
                       config_.bind_retry_ms, "ms");
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.bind_retry_ms));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IoError("exporter: socket() failed: " +
                             std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
      last_err = std::strerror(errno);
      ::close(fd);
      continue;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
    listen_fd_ = fd;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { ServeLoop(); });
    return Status::OK();
  }
  return Status::IoError("exporter: cannot listen on " + config_.bind_address +
                         ":" + std::to_string(config_.port) + " after " +
                         std::to_string(attempts) + " attempts: " + last_err);
}

void Exporter::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::string Exporter::HandleRequest(const std::string& method,
                                    const std::string& target) const {
  if (method != "GET") {
    return BuildResponse(405, "Method Not Allowed", "text/plain",
                         "method not allowed\n");
  }
  const size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  const std::string query =
      q == std::string::npos ? std::string() : target.substr(q + 1);
  if (path == "/metrics") {
    return BuildResponse(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                         RenderPrometheusText(
                             metrics_handler_
                                 ? metrics_handler_()
                                 : MetricsRegistry::Global().Snapshot()));
  }
  if (path == "/healthz") {
    const std::string body = healthz_handler_ ? healthz_handler_()
                                              : "{\"status\":\"ok\"}";
    return BuildResponse(200, "OK", "application/json", body);
  }
  if (path == "/varz") {
    const bool flight = QueryFlagSet(query, "flight");
    const std::string body = varz_handler_
                                 ? varz_handler_(flight)
                                 : MetricsRegistry::Global().ToJson();
    return BuildResponse(200, "OK", "application/json", body);
  }
  return BuildResponse(404, "Not Found", "text/plain", "not found\n");
}

void Exporter::ServeLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    // Read until the end of the request head; body (if any) is ignored
    // since every endpoint is a GET.
    std::string request;
    while (request.size() < kMaxRequestBytes &&
           request.find("\r\n\r\n") == std::string::npos) {
      pollfd cfd{conn, POLLIN, 0};
      if (::poll(&cfd, 1, kReadPollMs) <= 0) break;
      char buf[1024];
      const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }

    std::string response;
    const size_t line_end = request.find("\r\n");
    const size_t sp1 = request.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request.find(' ', sp1 + 1);
    if (line_end == std::string::npos || sp1 == std::string::npos ||
        sp2 == std::string::npos || sp2 > line_end) {
      response = BuildResponse(400, "Bad Request", "text/plain",
                               "malformed request\n");
    } else {
      response = HandleRequest(request.substr(0, sp1),
                               request.substr(sp1 + 1, sp2 - sp1 - 1));
    }
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n =
          ::send(conn, response.data() + sent, response.size() - sent,
                 MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::close(conn);
  }
}

}  // namespace mgbr::obs
