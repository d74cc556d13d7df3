// `train` workload: MGBR with both auxiliary losses at the calibrated
// table-bench operating point (BeibeiSim 500 x 400 x 3000, >=5 filter
// -> 457 users x 267 items, d = 24): a fixed number of
// Trainer::RunEpoch calls from a fixed seed, then repeated evaluation
// passes of the trained model. Inputs do not depend on --seed: the
// recorded loss and ranking values are then a check every run can
// apply.
//
// The traced run trains two identical models side by side. One runs
// Trainer::RunEpoch untraced; the other runs a replica epoch that makes
// the same public calls in the same order from the same seed, with a
// span around each. The per-term loss sums must agree bit for bit, or
// the traced numbers are reported stale.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/losses.h"
#include "core/mgbr.h"
#include "data/sampler.h"
#include "eval/metrics.h"
#include "models/graph_inputs.h"
#include "spans.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "train/trainer.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mgbr;

/// Epochs per run, then evaluation passes of the trained model. The
/// recorded values are those of this many epochs, so the work is fixed
/// rather than read from --seconds.
constexpr int64_t kEpochs = 5;
constexpr int64_t kEvalPasses = 3;
/// Tolerances of the recorded values: losses relative, ranking metrics
/// absolute. Reduction-order changes move trained weights a little; a
/// broken layer moves them a lot.
constexpr double kLossRtol = 0.01;
constexpr double kMetricAtol = 0.02;

/// Everything the trainer and the evaluator consume, built exactly as
/// bench/harness.cc builds its calibrated experiment.
struct TrainInputs {
  CalibratedData calibrated;
  std::unique_ptr<InteractionIndex> full_index;
  std::unique_ptr<InteractionIndex> train_index;
  std::unique_ptr<TrainingSampler> sampler;
  GraphInputs graphs;
  // {unseen, seen} x {@10, @100} x {A, B}, in report order.
  std::vector<std::vector<EvalInstanceA>> eval_a;
  std::vector<std::vector<EvalInstanceB>> eval_b;
  std::vector<EvalInstanceA> full_rank;  // unseen @10 then @100
  TrainConfig train_config;

  const GroupBuyingDataset& data() const { return calibrated.data; }
  const DatasetSplit& split() const { return calibrated.split; }
};

std::unique_ptr<TrainInputs> BuildInputs() {
  Span span("data.build");
  auto in = std::make_unique<TrainInputs>();
  in->calibrated = MakeCalibratedData();
  const DatasetSplit& split = in->split();
  in->full_index = std::make_unique<InteractionIndex>(in->data());
  in->train_index = std::make_unique<InteractionIndex>(split.train);
  in->sampler = std::make_unique<TrainingSampler>(split.train,
                                                  in->full_index.get());
  in->graphs = BuildGraphInputs(split.train);

  std::vector<DealGroup> held = split.validation.groups();
  held.insert(held.end(), split.test.groups().begin(),
              split.test.groups().end());
  const GroupBuyingDataset heldout(in->data().n_users(), in->data().n_items(),
                                   std::move(held));
  Rng erng(3);
  const size_t cap = 400;
  const InteractionIndex* unseen = in->train_index.get();
  const InteractionIndex& full = *in->full_index;
  in->eval_a.push_back(BuildEvalInstancesA(heldout, full, 9, &erng, cap, unseen));
  in->eval_a.push_back(
      BuildEvalInstancesA(heldout, full, 99, &erng, cap, unseen));
  in->eval_b.push_back(BuildEvalInstancesB(heldout, full, 9, &erng, cap, unseen));
  in->eval_b.push_back(
      BuildEvalInstancesB(heldout, full, 99, &erng, cap, unseen));
  in->eval_a.push_back(BuildEvalInstancesA(heldout, full, 9, &erng, cap));
  in->eval_a.push_back(BuildEvalInstancesA(heldout, full, 99, &erng, cap));
  in->eval_b.push_back(BuildEvalInstancesB(heldout, full, 9, &erng, cap));
  in->eval_b.push_back(BuildEvalInstancesB(heldout, full, 99, &erng, cap));
  in->full_rank = in->eval_a[0];
  in->full_rank.insert(in->full_rank.end(), in->eval_a[1].begin(),
                       in->eval_a[1].end());

  TrainConfig& tc = in->train_config;
  tc.batch_size = 256;
  tc.negs_per_pos = 2;
  tc.learning_rate = 1e-2f;
  tc.weight_decay = 2e-4f;
  tc.aux_batch_size = 24;
  return in;
}

std::unique_ptr<MgbrModel> BuildModel(const TrainInputs& in) {
  std::unique_ptr<MgbrModel> model;
  {
    Span span("core.init");
    model = MakeCalibratedMgbr(in.graphs);
  }
  Span span("core.refresh");
  model->Refresh();
  return model;
}

/// Per-term loss sums of one epoch (what EpochStats carries).
struct LossSums {
  double a = 0.0, b = 0.0, aux_a = 0.0, aux_b = 0.0;
  int64_t steps = 0;
  bool operator==(const LossSums&) const = default;
  bool finite() const {
    return std::isfinite(a) && std::isfinite(b) && std::isfinite(aux_a) &&
           std::isfinite(aux_b);
  }
};

LossSums FromStats(const EpochStats& s) {
  return LossSums{s.loss_a, s.loss_b, s.aux_a, s.aux_b, s.steps};
}

/// The calls Trainer::RunEpoch makes, in its order, with a span around
/// each layer call. `rng` plays the trainer's main Rng (same seed, no
/// persistent sampler streams) and `adam` its optimizer.
LossSums ReplicaEpoch(MgbrModel* model, const TrainingSampler& sampler,
                      const TrainConfig& tc, Adam* adam, Rng* rng) {
  Span epoch_span("bench.epoch");
  const MgbrConfig& mc = model->config();
  std::vector<TaskABatch> batches_a;
  std::vector<TaskBBatch> batches_b;
  std::vector<AuxBatch> batches_aux;
  {
    Span span("data.sample");
    batches_a = sampler.EpochBatchesA(tc.batch_size, tc.negs_per_pos, rng);
    batches_b = sampler.EpochBatchesB(tc.batch_size, tc.negs_per_pos, rng);
    batches_aux =
        sampler.EpochAuxBatches(tc.aux_batch_size, mc.aux_negatives, rng);
  }
  LossSums sums;
  const size_t steps = std::max(batches_a.size(), batches_b.size());
  for (size_t step = 0; step < steps; ++step) {
    Span step_span("bench.step");
    {
      Span span("core.refresh");
      model->Refresh();
    }
    if (step > 0 && step % batches_a.size() == 0 &&
        batches_a.size() < steps) {
      Span span("data.sample");
      batches_a = sampler.EpochBatchesA(tc.batch_size, tc.negs_per_pos, rng);
    }
    if (step > 0 && step % batches_b.size() == 0 &&
        batches_b.size() < steps) {
      Span span("data.sample");
      batches_b = sampler.EpochBatchesB(tc.batch_size, tc.negs_per_pos, rng);
    }
    if (step > 0 && step % batches_aux.size() == 0 &&
        batches_aux.size() < steps) {
      Span span("data.sample");
      batches_aux =
          sampler.EpochAuxBatches(tc.aux_batch_size, mc.aux_negatives, rng);
    }
    Var loss;
    {
      Span span("core.loss_fwd");
      Var la = TaskALoss(model, batches_a[step % batches_a.size()]);
      sums.a += la.value().item();
      loss = la;
      Var lb = TaskBLoss(model, batches_b[step % batches_b.size()]);
      sums.b += lb.value().item();
      loss = Add(loss, MulScalar(lb, mc.beta));
      const AuxBatch& bx = batches_aux[step % batches_aux.size()];
      Var laa = AuxLossA(model, bx);
      Var lab = AuxLossB(model, bx);
      sums.aux_a += laa.value().item();
      sums.aux_b += lab.value().item();
      loss = Add(loss, Add(MulScalar(laa, mc.beta_a), MulScalar(lab, mc.beta_b)));
    }
    {
      Span span("tensor.optim");
      adam->ZeroGrad();
    }
    {
      Span span("tensor.backward");
      loss.Backward();
    }
    {
      Span span("tensor.optim");
      ClipGradNorm(adam->params_mutable(), tc.clip_grad_norm);
      adam->Step();
    }
    ++sums.steps;
  }
  return sums;
}

/// One evaluation pass's ranking results, in report order.
struct EvalResult {
  std::vector<RankingReport> reports;  // a10 a100 b10 b100 (unseen, seen)
  RankingReport full;
};

bool SameBits(const EvalResult& x, const EvalResult& y) {
  auto same = [](const RankingReport& p, const RankingReport& q) {
    return p.mrr == q.mrr && p.ndcg == q.ndcg && p.hit == q.hit &&
           p.n_instances == q.n_instances;
  };
  if (!same(x.full, y.full) || x.reports.size() != y.reports.size()) {
    return false;
  }
  for (size_t i = 0; i < x.reports.size(); ++i) {
    if (!same(x.reports[i], y.reports[i])) return false;
  }
  return true;
}

/// One complete evaluation: Refresh, the paper's sampled protocol over
/// the eight instance sets with batched scorers, then the full-ranking
/// Task A pass. With `timed` the scorers are timing wrappers, so the
/// evaluators' own work shows as the eval spans' self time. A non-null
/// `stage_s` receives the seconds of each of the ten stages.
EvalResult EvaluatePass(MgbrModel* model, const TrainInputs& in, bool timed,
                        std::vector<double>* stage_s = nullptr) {
  Span pass_span("eval.pass");
  double t = NowSeconds();
  auto stage_done = [&] {
    const double now = NowSeconds();
    if (stage_s != nullptr) stage_s->push_back(now - t);
    t = now;
  };
  {
    Span span("core.refresh");
    model->Refresh();
  }
  stage_done();
  BatchTaskAScorer sa = model->MakeBatchTaskAScorer();
  BatchTaskBScorer sb = model->MakeBatchTaskBScorer();
  FullTaskAScorer sf = model->MakeFullTaskAScorer();
  if (timed) {
    sa = [inner = sa](const std::vector<int64_t>& u,
                      const std::vector<int64_t>& i) {
      Span span("core.score_batch_a");
      return inner(u, i);
    };
    sb = [inner = sb](const std::vector<int64_t>& u,
                      const std::vector<int64_t>& i,
                      const std::vector<int64_t>& p) {
      Span span("core.score_batch_b");
      return inner(u, i, p);
    };
    sf = [inner = sf](int64_t u) {
      Span span("core.score_a_all", u);
      return inner(u);
    };
  }
  EvalResult out;
  {
    Span span("eval.sampled");
    for (size_t set = 0; set < 2; ++set) {  // unseen, seen
      const size_t a = 2 * set;
      out.reports.push_back(EvaluateTaskA(in.eval_a[a], sa, 10));
      stage_done();
      out.reports.push_back(EvaluateTaskA(in.eval_a[a + 1], sa, 100));
      stage_done();
      out.reports.push_back(EvaluateTaskB(in.eval_b[a], sb, 10));
      stage_done();
      out.reports.push_back(EvaluateTaskB(in.eval_b[a + 1], sb, 100));
      stage_done();
    }
  }
  {
    Span span("eval.full_rank");
    out.full = EvaluateTaskAFullRanking(in.full_rank, sf, *in.full_index,
                                        in.data().n_items(), 100);
  }
  stage_done();
  return out;
}

/// Names of the recorded values an evaluation produces.
std::vector<std::pair<std::string, double>> EvalValues(const EvalResult& r) {
  static const char* kNames[] = {"a10",      "a100",      "b10",
                                 "b100",     "a10_seen",  "a100_seen",
                                 "b10_seen", "b100_seen"};
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < r.reports.size(); ++i) {
    out.emplace_back(std::string(kNames[i]) + ".mrr", r.reports[i].mrr);
    out.emplace_back(std::string(kNames[i]) + ".ndcg", r.reports[i].ndcg);
  }
  out.emplace_back("full.mrr", r.full.mrr);
  out.emplace_back("full.ndcg", r.full.ndcg);
  return out;
}

std::vector<std::pair<std::string, double>> LossValues(const LossSums& s) {
  const double n = static_cast<double>(s.steps);
  return {{"loss.a", s.a / n},
          {"loss.b", s.b / n},
          {"loss.aux_a", s.aux_a / n},
          {"loss.aux_b", s.aux_b / n}};
}

/// Compares against the recorded values within kLossRtol / kMetricAtol.
/// Returns the number of mismatches and records each.
int64_t CheckRecorded(const std::vector<std::pair<std::string, double>>& got,
                      const Options& opt, RunResult* result) {
  int64_t failed = 0;
  for (const auto& [name, value] : got) {
    result->values["got." + name] = value;
    if (!std::isfinite(value)) {
      ++failed;
      result->Fail(name + " is not finite");
      continue;
    }
    const auto it = opt.expect.find(name);
    if (it == opt.expect.end()) continue;
    const bool loss = name.rfind("loss.", 0) == 0;
    const double err = std::fabs(value - it->second);
    const double limit = loss ? kLossRtol * std::fabs(it->second)
                              : kMetricAtol;
    if (err > limit) {
      ++failed;
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s = %.6g, recorded %.6g (tol %.3g)",
                    name.c_str(), value, it->second, limit);
      result->Fail(buf);
    }
  }
  return failed;
}

std::string Join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

int RunUntraced(const Options& opt, TrainInputs* in, MgbrModel* model,
                Trainer* trainer, RunResult* result) {
  Phase* steps = result->AddPhase("train_steps");
  std::vector<double> epoch_s;
  LossSums last;
  for (int64_t e = 0; e < kEpochs; ++e) {
    const double t0 = NowSeconds();
    const EpochStats stats = trainer->RunEpoch();
    epoch_s.push_back(NowSeconds() - t0);
    last = FromStats(stats);
    steps->attempted += stats.steps;
    if (!last.finite()) {
      steps->failed += stats.steps;
      result->Fail("epoch " + std::to_string(e + 1) + " has a non-finite loss");
    }
  }
  // Every pass evaluates the same trained model, so all passes must give
  // the same bits. The fastest pass is assembled stage by stage: each of
  // its ten stages (up to 0.8 s) at the fastest it ran in any pass, so a
  // slow second of the host spoils one stage sample, not a whole pass.
  Phase* eval = result->AddPhase("eval");
  std::vector<double> pass_s, best_stage_s;
  EvalResult final_pass;
  for (int64_t p = 0; p < kEvalPasses; ++p) {
    const double t0 = NowSeconds();
    std::vector<double> stage_s;
    const EvalResult pass =
        EvaluatePass(model, *in, /*timed=*/false, &stage_s);
    pass_s.push_back(NowSeconds() - t0);
    if (p == 0) best_stage_s = stage_s;
    for (size_t i = 0; i < stage_s.size(); ++i) {
      best_stage_s[i] = std::min(best_stage_s[i], stage_s[i]);
    }
    ++eval->attempted;
    if (p > 0 && !SameBits(pass, final_pass)) {
      ++eval->failed;
      result->Fail("evaluation pass " + std::to_string(p + 1) +
                   " differs from the first");
    }
    if (p == 0) final_pass = pass;
  }
  result->values["train_epoch_s"] = Median(epoch_s);
  result->values["train_epoch_best_s"] =
      *std::min_element(epoch_s.begin(), epoch_s.end());
  result->values["eval_pass_s"] = Median(pass_s);
  result->values["eval_pass_best_s"] = 0.0;
  for (double x : best_stage_s) result->values["eval_pass_best_s"] += x;
  result->info["epochs"] = std::to_string(epoch_s.size());
  result->info["epoch_s"] = Join(epoch_s);
  result->info["eval_passes"] = std::to_string(pass_s.size());
  result->info["eval_pass_s"] = Join(pass_s);

  // The trained model's final losses and ranking against the recorded
  // values.
  Phase* recorded = result->AddPhase("recorded");
  auto values = LossValues(last);
  const auto eval_values = EvalValues(final_pass);
  values.insert(values.end(), eval_values.begin(), eval_values.end());
  recorded->attempted = static_cast<int64_t>(values.size());
  recorded->failed = CheckRecorded(values, opt, result);
  return 0;
}

int RunTraced(TrainInputs* in, MgbrModel* reference, Trainer* trainer,
              RunResult* result) {
  // The replica model starts from the same weights as the reference.
  std::unique_ptr<MgbrModel> replica = BuildModel(*in);
  const TrainConfig& tc = in->train_config;
  Adam adam(replica->Parameters(), tc.learning_rate, 0.9f, 0.999f, 1e-8f,
            tc.weight_decay);
  Rng rng(tc.seed);

  // Two epochs each: the first warms allocations, the second gives the
  // tracing overhead (replica minus RunEpoch, same work).
  Phase* check = result->AddPhase("replica_loss_check");
  double untraced_s = 0.0, traced_s = 0.0;
  bool stale = false;
  for (int e = 0; e < 2; ++e) {
    double t0 = NowSeconds();
    EpochStats stats;
    {
      Span span("bench.run_epoch");
      stats = trainer->RunEpoch();
    }
    untraced_s = NowSeconds() - t0;
    t0 = NowSeconds();
    const LossSums mine =
        ReplicaEpoch(replica.get(), *in->sampler, tc, &adam, &rng);
    traced_s = NowSeconds() - t0;
    ++check->attempted;
    if (!(mine == FromStats(stats)) || !mine.finite()) {
      stale = true;
      ++check->failed;
      result->Fail("replica epoch " + std::to_string(e + 1) +
                   " loss sums differ from Trainer::RunEpoch");
    }
  }
  result->info["replica_loss_check"] = stale ? "mismatch (stale)" : "bitwise equal";
  result->values["trace.stale"] = stale ? 1.0 : 0.0;
  result->values["overhead.train_epoch_s"] = traced_s - untraced_s;
  result->values["untraced.train_epoch_s"] = untraced_s;

  Phase* eval = result->AddPhase("eval_check");
  double t0 = NowSeconds();
  EvalResult plain;
  {
    Span span("bench.eval_untraced");
    PauseSpans pause;
    plain = EvaluatePass(reference, *in, /*timed=*/false);
  }
  const double plain_s = NowSeconds() - t0;
  t0 = NowSeconds();
  const EvalResult timed = EvaluatePass(replica.get(), *in, /*timed=*/true);
  result->values["overhead.eval_pass_s"] = NowSeconds() - t0 - plain_s;
  result->values["untraced.eval_pass_s"] = plain_s;
  ++eval->attempted;
  if (!SameBits(plain, timed)) {
    ++eval->failed;
    result->Fail("traced evaluation differs from the untraced one");
  }
  return 0;
}

}  // namespace

int TraceTraining(RunResult* result) {
  Span span("bench.training");
  std::unique_ptr<TrainInputs> in = BuildInputs();
  std::unique_ptr<MgbrModel> model = BuildModel(*in);
  std::unique_ptr<Trainer> trainer;
  {
    Span init("train.init");
    trainer = std::make_unique<Trainer>(model.get(), in->sampler.get(),
                                        in->train_config);
  }
  return RunTraced(in.get(), model.get(), trainer.get(), result);
}

int RunTrain(const Options& opt, RunResult* result) {
  Span root("workload");
  const double t0 = NowSeconds();
  std::unique_ptr<TrainInputs> in;
  std::unique_ptr<MgbrModel> model;
  std::unique_ptr<Trainer> trainer;
  {
    Span span("bench.setup");
    in = BuildInputs();
    model = BuildModel(*in);
    Span init("train.init");
    trainer = std::make_unique<Trainer>(model.get(), in->sampler.get(),
                                        in->train_config);
  }
  result->values["setup_s"] = NowSeconds() - t0;
  result->info["shape"] = std::to_string(in->data().n_users()) + " users x " +
                          std::to_string(in->data().n_items()) + " items, " +
                          std::to_string(in->split().train.n_groups()) +
                          " train groups, d=24";
  if (opt.setup_only) return 0;
  return opt.trace
             ? RunTraced(in.get(), model.get(), trainer.get(), result)
             : RunUntraced(opt, in.get(), model.get(), trainer.get(), result);
}

}  // namespace perfbench
