#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>

namespace mgbr::obs {

namespace internal {

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (alpha || (digit && i > 0)) {
      out.push_back(c);
    } else if (digit) {
      // A leading digit is invalid; prefix instead of dropping.
      out.push_back('_');
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  // %.17g round-trips every double; trim to %g when lossless for
  // readable small integers (bucket counts, totals).
  std::snprintf(buf, sizeof(buf), "%g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back != v) std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace internal

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  using internal::FormatValue;
  using internal::SanitizeMetricName;
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = SanitizeMetricName(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = SanitizeMetricName(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + FormatValue(value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string n = SanitizeMetricName(h.name);
    out += "# TYPE " + n + " histogram\n";
    // Registry buckets are disjoint; the exposition format wants
    // cumulative counts-at-or-below each bound.
    int64_t cumulative = 0;
    for (size_t k = 0; k < h.bounds.size(); ++k) {
      cumulative += k < h.buckets.size() ? h.buckets[k] : 0;
      out += n + "_bucket{le=\"" + FormatValue(h.bounds[k]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    if (h.buckets.size() > h.bounds.size()) {
      cumulative += h.buckets.back();  // overflow bucket
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += n + "_sum " + FormatValue(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace mgbr::obs
