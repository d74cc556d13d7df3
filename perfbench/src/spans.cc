#include "spans.h"

#include <cstdio>

#include "common/trace.h"

namespace perfbench {
namespace {

thread_local std::vector<int64_t> t_open;  // open spans, innermost last
std::atomic<int> g_next_lane{0};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

int SpanLog::CurrentLane() {
  thread_local const int lane = g_next_lane.fetch_add(1);
  return lane;
}

int64_t SpanLog::Begin(const std::string& name, int64_t user, int64_t item) {
  SpanRecord r;
  r.name = name;
  r.parent = t_open.empty() ? -1 : t_open.back();
  r.lane = CurrentLane();
  r.user = user;
  r.item = item;
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.phase = phase_;
    r.start_us = mgbr::trace::NowMicros();
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(r));
  }
  t_open.push_back(index);
  return index;
}

void SpanLog::End(int64_t index) {
  const int64_t now = mgbr::trace::NowMicros();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_us = now;
}

int64_t SpanLog::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::SetParent(int64_t index, int64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].parent = parent;
}

void SpanLog::SetPhase(const std::string& phase) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = phase;
}

std::vector<SpanRecord> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%lld,\"dur\":%lld,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"id\":%lld,\"user\":%lld,\"item\":%lld,"
                 "\"phase\":\"%s\"}}\n",
                 i == 0 ? "" : ",", Escape(s.name).c_str(), s.lane,
                 static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us - s.start_us), i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.user),
                 static_cast<long long>(s.item), Escape(s.phase).c_str());
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const std::string& name, int64_t user, int64_t item) {
  SpanLog& log = SpanLog::Get();
  if (log.enabled()) index_ = log.Begin(name, user, item);
}

void Span::End() {
  if (index_ < 0) return;
  SpanLog::Get().End(index_);
  index_ = -1;
}

}  // namespace perfbench
