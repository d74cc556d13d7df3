// Benchmark binary. perfbench/run.py builds and runs it; one
// invocation runs one workload once and prints a JSON object with the
// run's raw values, per-phase attempted/failed counts and any check
// failures as its last stdout line.
//
//   perfbench --workload=train|serve-mgbr|serve-dot --seed=N
//             --seconds=S [--trace=0|1 --trace-out=PATH] [--setup-only=1]
//             [--lo-qps=R --hi-qps=R [--max-qps=1]] [--expect.NAME=V ...]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parallel.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

Phase* RunResult::AddPhase(const std::string& name) {
  phases.push_back(Phase{name, 0, 0});
  return &phases.back();
}

void RunResult::Fail(const std::string& message) {
  errors.push_back(message);
  std::fprintf(stderr, "perfbench: FAIL %s\n", message.c_str());
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string RunResult::ToJson() const {
  std::string out = "{\"values\":{";
  const char* sep = "";
  for (const auto& [k, v] : values) {
    out.append(sep).append(Quote(k)).append(":").append(Number(v));
    sep = ",";
  }
  out += "},\"info\":{";
  sep = "";
  for (const auto& [k, v] : info) {
    out.append(sep).append(Quote(k)).append(":").append(Quote(v));
    sep = ",";
  }
  out += "},\"phases\":[";
  sep = "";
  for (const Phase& p : phases) {
    out.append(sep).append("{\"name\":").append(Quote(p.name));
    out.append(",\"attempted\":").append(std::to_string(p.attempted));
    out.append(",\"failed\":").append(std::to_string(p.failed)).append("}");
    sep = ",";
  }
  out += "],\"errors\":[";
  sep = "";
  for (const std::string& e : errors) {
    out.append(sep).append(Quote(e));
    sep = ",";
  }
  return out + "]}";
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Also keeps +inf samples (failed requests) from turning into NaN.
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Flag;
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "workload", &v)) {
      opt.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      opt.seed = std::stoull(v);
    } else if (Flag(arg, "seconds", &v)) {
      opt.seconds = std::stod(v);
    } else if (Flag(arg, "trace", &v)) {
      opt.trace = v == "1";
    } else if (Flag(arg, "setup-only", &v)) {
      opt.setup_only = v == "1";
    } else if (Flag(arg, "trace-out", &v)) {
      opt.trace_out = v;
    } else if (Flag(arg, "lo-qps", &v)) {
      opt.lo_qps = std::stod(v);
    } else if (Flag(arg, "hi-qps", &v)) {
      opt.hi_qps = std::stod(v);
    } else if (Flag(arg, "max-qps", &v)) {
      opt.max_qps = v == "1";
    } else if (arg.rfind("--expect.", 0) == 0 &&
               arg.find('=') != std::string::npos) {
      const size_t eq = arg.find('=');
      opt.expect[arg.substr(9, eq - 9)] = std::stod(arg.substr(eq + 1));
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  // One kernel thread: the serving workers, batcher and load generator
  // then fit the host's cores, and every per-layer time is single-core.
  if (mgbr::NumThreads() != 1) {
    std::fprintf(stderr, "perfbench: MGBR_NUM_THREADS must be 1 (got %d)\n",
                 mgbr::NumThreads());
    return 2;
  }
  if (opt.trace) perfbench::SpanLog::Get().Enable();

  perfbench::RunResult result;
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;
  result.info["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  int rc = 0;
  if (opt.workload == "train") {
    rc = perfbench::RunTrain(opt, &result);
  } else if (opt.workload == "serve-mgbr" || opt.workload == "serve-dot") {
    rc = perfbench::RunServe(opt, &result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  result.values["peak_rss_mb"] = perfbench::PeakRssMb();
  if (opt.trace && !opt.setup_only && !opt.trace_out.empty() &&
      !perfbench::SpanLog::Get().WriteChromeTrace(opt.trace_out)) {
    result.Fail("cannot write trace " + opt.trace_out);
  }
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  if (rc == 0 && !result.errors.empty()) rc = 1;
  return rc;
}
