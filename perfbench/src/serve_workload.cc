// `serve-mgbr` and `serve-dot` workloads: an in-process Server with its
// default config (2 workers, max_batch 32, 2 ms batch timeout, no score
// cache, brute-force fp32, k = 10, no deadlines) over a ModelPool.
//
//   serve-mgbr  MGBR at the calibrated table-bench point (457 users x
//               267 items, d = 24). Every request runs the expert/gate
//               stack and MLP head over the whole catalogue.
//   serve-dot   GBGCN (d = 16, 2 layers) at the paper's Beibei shape,
//               125,012 users x 30,516 items x 430,360 groups, over a
//               seeded uniform deal log. Every request is DotAllRows over
//               tables larger than L2 plus the heap path of TopKIndices.
//
// Traffic is an open loop: seeded Poisson arrivals from one generator
// thread, 3 Task A : 1 Task B, keys replayed from (initiator, item)
// pairs of the deal log (Zipf-skewed on serve-mgbr, uniform on
// serve-dot). Latency runs from each request's scheduled send time to
// its response, so a stalled generator cannot hide queueing. The lo and
// hi windows alternate, so slow drift of the host's speed lands on both
// operating points alike.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/mgbr.h"
#include "eval/metrics.h"
#include "models/gbgcn.h"
#include "models/graph_inputs.h"
#include "serve/model_pool.h"
#include "serve/server.h"
#include "spans.h"
#include "tensor/variable.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mgbr;
using serve::ModelPool;
using serve::Request;
using serve::Response;
using serve::ResponseCode;
using serve::Server;
using serve::ServerStats;
using serve::TaskKind;

/// Lane that holds the reconstructed per-request span trees.
constexpr int kRequestLane = 1000;
/// OK responses re-scored directly after each window.
constexpr int64_t kRescoreSample = 48;
/// A window whose generator ran later than this at p99 is invalid.
constexpr double kMaxGenLagMs = 10.0;
/// p99 latency limit of the max_qps search, on both serving workloads:
/// about twice the unloaded p99 (about 20 ms: Task B scoring plus the
/// 2 ms batch timeout).
constexpr double kLimitMs = 40.0;

/// Streams of the workload seed (Rng::ForStream). Each window draws its
/// requests from its own stream, so the requests of a window depend only
/// on the seed: not on the host's speed, nor on a re-run window.
enum Stream : uint64_t {
  kWarmUpStream = 0,
  kCheckStream = 1,
  kProbeStream = 2,    // + probe index
  kWindowStream = 64,  // + 2 x round + (0 for lo, 1 for hi)
};

/// Forwarding model owned by the benchmark: spans Refresh, ScoreAAll
/// and ScoreBAll of the served model under the model's layer name.
class TracedModel : public RecModel {
 public:
  TracedModel(std::unique_ptr<RecModel> inner, std::string layer)
      : inner_(std::move(inner)),
        refresh_(layer + ".refresh"),
        score_a_(layer + ".score_a_all"),
        score_b_(layer + ".score_b_all") {}

  RecModel* inner() const { return inner_.get(); }

  std::string name() const override { return inner_->name(); }
  std::vector<Var> Parameters() const override {
    return inner_->Parameters();
  }
  void Refresh() override {
    Span span(refresh_);
    inner_->Refresh();
  }
  Var ScoreA(const std::vector<int64_t>& users,
             const std::vector<int64_t>& items) override {
    return inner_->ScoreA(users, items);
  }
  Var ScoreB(const std::vector<int64_t>& users,
             const std::vector<int64_t>& items,
             const std::vector<int64_t>& parts) override {
    return inner_->ScoreB(users, items, parts);
  }
  int64_t num_users() const override { return inner_->num_users(); }
  int64_t num_items() const override { return inner_->num_items(); }
  Var ScoreAAll(int64_t u) override {
    Span span(score_a_, u, 0);
    return inner_->ScoreAAll(u);
  }
  Var ScoreBAll(int64_t u, int64_t item) override {
    Span span(score_b_, u, item);
    return inner_->ScoreBAll(u, item);
  }
  bool RetrievalItemView(const float** data, int64_t* n,
                         int64_t* d) const override {
    return inner_->RetrievalItemView(data, n, d);
  }
  bool RetrievalQueryA(int64_t u, std::vector<float>* query) const override {
    return inner_->RetrievalQueryA(u, query);
  }
  bool RetrievalPartView(const float** data, int64_t* n,
                         int64_t* d) const override {
    return inner_->RetrievalPartView(data, n, d);
  }
  bool RetrievalQueryB(int64_t u, int64_t item,
                       std::vector<float>* query) const override {
    return inner_->RetrievalQueryB(u, item, query);
  }

 private:
  std::unique_ptr<RecModel> inner_;
  const std::string refresh_, score_a_, score_b_;
};

/// Uniform deal log at the Beibei shape (the generator bench_retrieval
/// uses): every item and user carries interactions, nothing is
/// filtered away.
GroupBuyingDataset UniformDealLog(int64_t n_users, int64_t n_items,
                                  int64_t n_groups, uint64_t seed) {
  Rng rng(seed);
  std::vector<DealGroup> groups;
  groups.reserve(static_cast<size_t>(n_groups));
  for (int64_t g = 0; g < n_groups; ++g) {
    DealGroup group;
    group.initiator = static_cast<int64_t>(rng.UniformInt(n_users));
    group.item = static_cast<int64_t>(rng.UniformInt(n_items));
    const int n_parts = static_cast<int>(rng.UniformInt(4));
    for (int p = 0; p < n_parts; ++p) {
      const int64_t cand = static_cast<int64_t>(rng.UniformInt(n_users));
      if (cand != group.initiator) group.participants.push_back(cand);
    }
    groups.push_back(std::move(group));
  }
  return GroupBuyingDataset(n_users, n_items, std::move(groups));
}

/// The served system: inputs, the pool holding one version, the server.
struct ServeSystem {
  std::vector<std::pair<int64_t, int64_t>> pairs;  // (initiator, item)
  GraphInputs graphs;
  std::unique_ptr<ModelPool> pool;
  std::unique_ptr<Server> server;
  std::shared_ptr<ModelPool::Version> version;
  RecModel* model = nullptr;  // the unwrapped served model
  std::string shape;
};

std::unique_ptr<ServeSystem> BuildSystem(bool dot, uint64_t seed,
                                         bool wrap) {
  auto sys = std::make_unique<ServeSystem>();
  {
    Span span("data.build");
    GroupBuyingDataset data;
    if (dot) {
      data = UniformDealLog(125012, 30516, 430360, seed);
      sys->graphs = BuildGraphInputs(data);
    } else {
      CalibratedData calibrated = MakeCalibratedData();
      sys->graphs = BuildGraphInputs(calibrated.split.train);
      data = std::move(calibrated.data);
    }
    for (const DealGroup& g : data.groups()) {
      sys->pairs.emplace_back(g.initiator, g.item);
    }
    sys->shape = std::to_string(data.n_users()) + " users x " +
                 std::to_string(data.n_items()) + " items x " +
                 std::to_string(data.n_groups()) + " groups";
  }
  const std::string layer = dot ? "models" : "core";
  std::unique_ptr<RecModel> model;
  {
    Span span(layer + ".init");
    if (dot) {
      Rng rng(8);
      model = std::make_unique<Gbgcn>(sys->graphs, 16, 2, &rng);
    } else {
      model = MakeCalibratedMgbr(sys->graphs);
    }
  }
  sys->model = model.get();
  if (wrap) model = std::make_unique<TracedModel>(std::move(model), layer);
  model->Refresh();
  {
    Span span("serve.install");
    // The benchmark installs built models; it never loads checkpoints.
    sys->pool = std::make_unique<ModelPool>(
        [] { return std::unique_ptr<RecModel>(); });
    sys->pool->Install(std::move(model), "perfbench");
    sys->version = sys->pool->Acquire();
    sys->server = std::make_unique<Server>(sys->pool.get());
  }
  return sys;
}

struct Arrival {
  int64_t offset_us = 0;
  Request request;
};

/// One request of the mix: a deal-log (initiator, item) pair, Task A
/// with probability 3/4, else Task B for that group.
Request DrawRequest(const ServeSystem& sys, Rng* rng) {
  const auto& [user, item] = sys.pairs[rng->UniformInt(sys.pairs.size())];
  Request r;
  r.task = rng->Uniform() < 0.75 ? TaskKind::kTopKItems
                                 : TaskKind::kTopKParticipants;
  r.user = user;
  r.item = r.task == TaskKind::kTopKItems ? 0 : item;
  r.k = 10;
  return r;
}

/// Seeded Poisson schedule of `rate` requests/s over `seconds`.
std::vector<Arrival> Schedule(const ServeSystem& sys, double rate,
                              double seconds, Rng* rng) {
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->Uniform()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.offset_us = static_cast<int64_t>(t * 1e6);
    a.request = DrawRequest(sys, rng);
    out.push_back(a);
  }
  return out;
}

struct Window {
  std::string phase;
  std::vector<Arrival> arrivals;
  std::vector<int64_t> scheduled_us;
  std::vector<Response> responses;
  ServerStats before, after;
  int64_t end_depth = 0;  // admission queue depth when the schedule ended
};

/// Runs one open-loop window: a generator thread submits every arrival
/// at its scheduled time; the responses are collected after it ends.
void RunWindow(Server* server, Window* w) {
  const size_t n = w->arrivals.size();
  std::vector<std::future<Response>> futures(n);
  w->scheduled_us.assign(n, 0);
  w->before = server->stats();
  std::thread generator([&] {
    const auto tp0 = std::chrono::steady_clock::now();
    const int64_t us0 = trace::NowMicros();
    for (size_t i = 0; i < n; ++i) {
      const int64_t off = w->arrivals[i].offset_us;
      std::this_thread::sleep_until(tp0 + std::chrono::microseconds(off));
      w->scheduled_us[i] = us0 + off;
      futures[i] = server->Submit(w->arrivals[i].request);
    }
  });
  generator.join();
  w->end_depth = server->queue_depth();
  w->responses.resize(n);
  for (size_t i = 0; i < n; ++i) w->responses[i] = futures[i].get();
  w->after = server->stats();
}

/// Latency samples in ms from scheduled send to response; a failed
/// request counts as exceeding every percentile.
std::vector<double> Latencies(const Window& w) {
  std::vector<double> out;
  for (size_t i = 0; i < w.responses.size(); ++i) {
    const Response& r = w.responses[i];
    out.push_back(r.code == ResponseCode::kOk
                      ? static_cast<double>(r.done_us - w.scheduled_us[i]) *
                            1e-3
                      : INFINITY);
  }
  return out;
}

std::vector<double> GenLags(const Window& w) {
  std::vector<double> out;
  for (size_t i = 0; i < w.responses.size(); ++i) {
    out.push_back(
        static_cast<double>(w.responses[i].enqueue_us - w.scheduled_us[i]) *
        1e-3);
  }
  return out;
}

/// Highest percentile in {99, 98, 95, 90} with at least ten samples
/// beyond it (the median when none has); returns its rank in [0, 1].
double ValidTailQuantile(size_t n) {
  for (double q : {0.99, 0.98, 0.95, 0.90}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

std::vector<double> ColumnToDoubles(const Var& column) {
  std::vector<double> out(static_cast<size_t>(column.rows()));
  for (int64_t r = 0; r < column.rows(); ++r) {
    out[static_cast<size_t>(r)] = column.value().at(r, 0);
  }
  return out;
}

/// Response checks: every request must come back OK with k ids, and a
/// seeded sample is re-scored directly on the served version
/// (ScoreAAll/ScoreBAll + TopKIndices), ids and scores bit for bit.
void CheckWindow(const ServeSystem& sys, const Window& w, Rng* rng,
                 Phase* phase, RunResult* result) {
  Span span("bench.check");
  PauseSpans pause;
  phase->attempted += static_cast<int64_t>(w.responses.size());
  std::vector<size_t> ok;
  for (size_t i = 0; i < w.responses.size(); ++i) {
    const Response& r = w.responses[i];
    if (r.code != ResponseCode::kOk || r.top_k.size() != 10 ||
        r.version != sys.version->id) {
      ++phase->failed;
      if (phase->failed <= 3) {
        result->Fail(w.phase + " request " + std::to_string(r.id) + ": " +
                     serve::ResponseCodeToString(r.code));
      }
    } else {
      ok.push_back(i);
    }
  }
  NoGradScope no_grad;
  for (int64_t s = 0; s < kRescoreSample && !ok.empty(); ++s) {
    const size_t i = ok[rng->UniformInt(ok.size())];
    const Request& q = w.arrivals[i].request;
    const Response& r = w.responses[i];
    const Var column = q.task == TaskKind::kTopKItems
                           ? sys.model->ScoreAAll(q.user)
                           : sys.model->ScoreBAll(q.user, q.item);
    const std::vector<double> scores = ColumnToDoubles(column);
    const std::vector<int64_t> want = TopKIndices(scores, q.k);
    bool same = want == r.top_k && r.scores.size() == want.size();
    for (size_t j = 0; same && j < want.size(); ++j) {
      same = scores[static_cast<size_t>(want[j])] == r.scores[j];
    }
    ++phase->attempted;
    if (!same) {
      ++phase->failed;
      result->Fail(w.phase + " request " + std::to_string(r.id) +
                   " differs from a direct re-score");
    }
  }
}

/// Warm-up: two waves no larger than the admission queue, each drained
/// before the next, every response required OK.
void WarmUp(const ServeSystem& sys, uint64_t seed, Phase* phase,
            RunResult* result) {
  Span span("bench.warmup");
  PauseSpans pause;
  Rng rng = Rng::ForStream(seed, kWarmUpStream);
  const int64_t wave = std::min<int64_t>(128, sys.server->config().queue_capacity);
  for (int w = 0; w < 2; ++w) {
    std::vector<std::future<Response>> futures;
    for (int64_t i = 0; i < wave; ++i) {
      futures.push_back(sys.server->Submit(DrawRequest(sys, &rng)));
    }
    for (auto& f : futures) {
      ++phase->attempted;
      if (f.get().code != ResponseCode::kOk) ++phase->failed;
    }
  }
  if (phase->failed > 0) {
    result->Fail(std::to_string(phase->failed) + " warm-up requests failed");
  }
}

/// Turns a traced window into spans: per request a tree of its stages
/// on the request lane, and per batch a score-stage span on the worker
/// lane that ran it, parenting the model calls made inside it. Each
/// worker lane gets a root spanning the window, whose self time is the
/// worker's idle time.
void ReconstructSpans(const Window& w, const std::string& layer) {
  SpanLog& log = SpanLog::Get();
  const std::vector<SpanRecord> spans = log.Snapshot();
  // Model calls of this window, by key.
  std::multimap<std::pair<int64_t, int64_t>, int64_t> calls;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.phase == w.phase && s.user >= 0 && s.parent < 0 &&
        s.name.rfind(layer + ".score_", 0) == 0) {
      calls.emplace(std::make_pair(s.user, s.item), static_cast<int64_t>(i));
    }
  }
  int64_t t_begin = INT64_MAX, t_end = 0;
  // Batches keyed by (batch close, score start).
  std::map<std::pair<int64_t, int64_t>, std::vector<size_t>> batches;
  for (size_t i = 0; i < w.responses.size(); ++i) {
    const Response& r = w.responses[i];
    if (r.code != ResponseCode::kOk) continue;
    const int64_t sched = w.scheduled_us[i];
    t_begin = std::min(t_begin, sched);
    t_end = std::max(t_end, r.done_us);
    SpanRecord root;
    root.name = "serve.request";
    root.start_us = sched;
    root.end_us = r.done_us;
    root.lane = kRequestLane;
    root.id = r.id;
    root.phase = w.phase;
    const int64_t parent = log.Add(root);
    const std::pair<const char*, std::pair<int64_t, int64_t>> stages[] = {
        {"serve.gen_lag", {sched, r.enqueue_us}},
        {"serve.queue_wait", {r.enqueue_us, r.batch_close_us}},
        {"serve.batch_wait", {r.batch_close_us, r.score_start_us}},
        {"serve.score", {r.score_start_us, r.done_us}}};
    for (const auto& [name, interval] : stages) {
      SpanRecord s = root;
      s.name = name;
      s.start_us = interval.first;
      s.end_us = interval.second;
      s.parent = parent;
      log.Add(s);
    }
    batches[{r.batch_close_us, r.score_start_us}].push_back(i);
  }
  std::map<int, int64_t> worker_roots;
  for (const auto& [key, members] : batches) {
    const int64_t start = key.second;
    int64_t end = 0;
    for (size_t i : members) end = std::max(end, w.responses[i].done_us);
    // The batch ran on the lane whose call for its first key lies
    // inside the batch's score stage.
    const Request& q = w.arrivals[members.front()].request;
    int lane = -1;
    auto range = calls.equal_range({q.user, q.item});
    for (auto it = range.first; it != range.second; ++it) {
      const SpanRecord& c = spans[static_cast<size_t>(it->second)];
      if (c.start_us >= start && c.end_us <= end) {
        lane = c.lane;
        break;
      }
    }
    if (lane < 0) continue;
    if (worker_roots.count(lane) == 0) {
      SpanRecord root;
      root.name = "serve.worker";
      root.start_us = t_begin;
      root.end_us = t_end;
      root.lane = lane;
      root.phase = w.phase;
      worker_roots[lane] = log.Add(root);
    }
    SpanRecord b;
    b.name = "serve.batch_score";
    b.start_us = start;
    b.end_us = end;
    b.lane = lane;
    b.parent = worker_roots[lane];
    b.phase = w.phase;
    b.id = w.responses[members.front()].id;
    const int64_t bi = log.Add(b);
    for (const auto& [k, index] : calls) {
      const SpanRecord& c = spans[static_cast<size_t>(index)];
      if (c.lane == lane && c.start_us >= start && c.end_us <= end) {
        log.SetParent(index, bi);
      }
    }
  }
}

void StoreWindowStats(const std::string& suffix,
                      const std::vector<Window>& windows, RunResult* result) {
  std::vector<double> lat, lag;
  int64_t completed = 0, batches = 0, coalesced = 0;
  for (const Window& w : windows) {
    const std::vector<double> l = Latencies(w), g = GenLags(w);
    lat.insert(lat.end(), l.begin(), l.end());
    lag.insert(lag.end(), g.begin(), g.end());
    completed += w.after.completed - w.before.completed;
    batches += w.after.batches - w.before.batches;
    coalesced += w.after.coalesced - w.before.coalesced;
  }
  std::string per_window;
  double best = INFINITY;
  for (const Window& w : windows) {
    const double p50 = Quantile(Latencies(w), 0.5);
    best = std::min(best, p50);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", per_window.empty() ? "" : " ",
                  p50);
    per_window += buf;
  }
  result->info["window_p50_ms" + suffix] = per_window;
  result->values["p50_best_ms" + suffix] = best;
  const double q = ValidTailQuantile(lat.size());
  result->values["p50_ms" + suffix] = Quantile(lat, 0.5);
  result->values["tail_ms" + suffix] = Quantile(lat, q);
  result->values["tail_q" + suffix] = q;
  result->values["requests" + suffix] = static_cast<double>(lat.size());
  result->values["gen_lag_p99_ms" + suffix] = Quantile(lag, 0.99);
  result->values["serve.batch_size" + suffix] =
      batches > 0 ? static_cast<double>(completed) / batches : 0.0;
  result->values["serve.coalesced_frac" + suffix] =
      completed > 0 ? static_cast<double>(coalesced) / completed : 0.0;
}

/// Highest offered rate whose window meets all three conditions: p99
/// within kLimitMs, no failed request, and a backlog that does not
/// grow (the admission queue holds at most one batch when the schedule
/// ends). Each probe lasts long enough for ten samples beyond p99. The
/// search grows the rate from hi_qps by 1.5x until a probe fails, then
/// bisects to within 5%. Probes are not output-checked and their
/// failures do not count as the run's: above capacity they are the
/// expected outcome.
double MaxQps(const ServeSystem& sys, const Options& opt, Phase* phase) {
  auto passes = [&](int probe, double rate) {
    Window w;
    w.phase = "probe";
    Rng rng = Rng::ForStream(opt.seed, kProbeStream + probe);
    w.arrivals = Schedule(sys, rate, std::max(2.0, 1000.0 / rate), &rng);
    RunWindow(sys.server.get(), &w);
    ++phase->attempted;
    const std::vector<double> lat = Latencies(w);
    const bool ok = std::all_of(w.responses.begin(), w.responses.end(),
                                [](const Response& r) {
                                  return r.code == ResponseCode::kOk;
                                }) &&
                    Quantile(lat, 0.99) <= kLimitMs &&
                    w.end_depth <= sys.server->config().max_batch &&
                    Quantile(GenLags(w), 0.99) <= kMaxGenLagMs;
    std::fprintf(stderr, "perfbench: max_qps probe %.1f/s p99 %.2f ms depth %lld %s\n",
                 rate, Quantile(lat, 0.99), static_cast<long long>(w.end_depth),
                 ok ? "pass" : "fail");
    return ok;
  };
  double best = 0.0, worst = 0.0;  // highest pass, lowest fail
  double rate = opt.hi_qps;
  for (int probe = 0; probe < 12; ++probe) {
    if (passes(probe, rate)) {
      best = rate;
    } else {
      worst = rate;
    }
    if (worst > 0.0 && best > 0.0 && worst / best < 1.05) break;
    rate = worst == 0.0 ? rate * 1.5
           : best == 0.0 ? rate / 1.5
                         : 0.5 * (best + worst);
  }
  return best;
}

}  // namespace

int RunServe(const Options& opt, RunResult* result) {
  const bool dot = opt.workload == "serve-dot";
  if (!opt.setup_only && (opt.lo_qps <= 0.0 || opt.hi_qps <= 0.0)) {
    result->Fail("--lo-qps and --hi-qps are required");
    return 2;
  }
  Span root("workload");
  const double t0 = NowSeconds();
  std::unique_ptr<ServeSystem> sys;
  {
    Span span("bench.setup");
    sys = BuildSystem(dot, opt.seed, /*wrap=*/opt.trace);
  }
  result->values["setup_s"] = NowSeconds() - t0;
  result->info["shape"] = sys->shape;
  result->values["models.table_mb"] =
      static_cast<double>(ModelPool::ServedTableBytes(*sys->version)) / 1e6;
  if (opt.setup_only) return 0;

  Rng check_rng = Rng::ForStream(opt.seed, kCheckStream);
  WarmUp(*sys, opt.seed, result->AddPhase("warmup"), result);
  Phase* served = result->AddPhase("windows");
  const std::string layer = dot ? "models" : "core";

  auto run = [&](const std::string& phase, uint64_t stream, double rate,
                 double seconds, std::vector<Window>* into) {
    // A window whose generator fell behind is run again with the same
    // requests, up to twice; if it still falls behind the run fails
    // rather than report it.
    for (int attempt = 0; attempt < 3; ++attempt) {
      Window w;
      w.phase = phase;
      Rng rng = Rng::ForStream(opt.seed, stream);
      w.arrivals = Schedule(*sys, rate, seconds, &rng);
      SpanLog::Get().SetPhase(phase);
      {
        Span span("bench.window");
        RunWindow(sys->server.get(), &w);
      }
      SpanLog::Get().SetPhase("");
      const double lag = Quantile(GenLags(w), 0.99);
      if (lag > kMaxGenLagMs) {
        result->info["invalid_window." + phase] =
            "generator p99 lag " + std::to_string(lag) + " ms";
        if (attempt < 2) continue;
        ++served->failed;
        result->Fail(phase + " window invalid: generator p99 lag " +
                     std::to_string(lag) + " ms");
      }
      CheckWindow(*sys, w, &check_rng, served, result);
      if (SpanLog::Get().enabled()) ReconstructSpans(w, layer);
      into->push_back(std::move(w));
      return;
    }
  };

  std::vector<Window> lo, hi;
  if (opt.trace) {
    // Untraced reference at the lo rate, then one traced window per
    // operating point. The reference and the traced lo window replay the
    // same requests; their difference is the tracing overhead.
    const double w = opt.seconds / 3.0;
    std::vector<Window> ref;
    {
      Span span("bench.window_untraced");
      PauseSpans pause;
      run("ref", kWindowStream, opt.lo_qps, w, &ref);
    }
    run("lo", kWindowStream, opt.lo_qps, w, &lo);
    run("hi", kWindowStream + 1, opt.hi_qps, w, &hi);
    StoreWindowStats(".ref", ref, result);
    StoreWindowStats(".lo", lo, result);
    StoreWindowStats(".hi", hi, result);
    result->values["overhead.p50_ms.lo"] =
        result->values["p50_ms.lo"] - result->values["p50_ms.ref"];
  } else {
    // Alternating rounds; each operating point gets half the time.
    const int rounds = 8;
    const double w = opt.seconds / (2.0 * rounds);
    for (int r = 0; r < rounds; ++r) {
      run("lo", kWindowStream + 2 * r, opt.lo_qps, w, &lo);
      run("hi", kWindowStream + 2 * r + 1, opt.hi_qps, w, &hi);
    }
    StoreWindowStats(".lo", lo, result);
    StoreWindowStats(".hi", hi, result);
  }
  if (opt.max_qps) {
    result->values["max_qps"] =
        MaxQps(*sys, opt, result->AddPhase("max_qps_probes"));
    result->values["max_qps_limit_ms"] = kLimitMs;
  }
  sys->server->Stop();
  // `train` is not a BENCHMARK.json workload (its times spread beyond the
  // largest bound), so the serve-mgbr trace carries its layers.
  return opt.trace && !dot ? TraceTraining(result) : 0;
}

}  // namespace perfbench
