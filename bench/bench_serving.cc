// Serving-path benchmarks for the no-grad inference engine: what
// single-request latency and batched QPS the engine sustains for
// "top-K items for user u" (Task A) and "top-K co-buyers for (u, i)"
// (Task B) on the calibrated synthetic Beibei operating point, plus
// the eval-pass pair the CI gate compares — one full evaluation pass
// on the per-instance tape scorers vs the batched no-grad scorers
// (scripts/check_bench_gate.py --eval enforces the speedup floor
// committed in BENCH_baseline.json).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "eval/metrics.h"
#include "retrieval/two_stage.h"

namespace mgbr::bench {
namespace {

/// One harness + one refreshed MGBR model shared by every benchmark.
/// The model is deliberately untrained: serving cost is a function of
/// shapes and graph structure, not of weight values, and skipping
/// training keeps the bench start-up in seconds.
struct ServingFixture {
  ExperimentHarness harness;
  std::unique_ptr<MgbrModel> model;
  std::unique_ptr<RecModel> gbgcn;
  // The run's complete Task A instance list (@10 then @100), as a
  // final-reporting full-ranking pass would consume it. Users repeat
  // across instances and across the two operating points, which is
  // exactly what the once-per-unique-user batched path exploits.
  std::vector<EvalInstanceA> full_rank_instances;

  // ANN retriever over the GBGCN item view (built once; the fixture's
  // model is never swapped). Exercised by the brute/two-stage pair
  // below; bench_retrieval measures the same pair at catalogue scale.
  std::shared_ptr<const retrieval::ItemRetriever> retriever;

  ServingFixture() : harness(HarnessConfig::FromEnv()) {
    model = harness.MakeMgbr(harness.MgbrBenchConfig(), 7);
    model->Refresh();
    gbgcn = harness.MakeBaseline("GBGCN", 8);
    gbgcn->Refresh();
    retrieval::TwoStageConfig two_stage;
    two_stage.enabled = true;
    retriever = retrieval::ItemRetriever::BuildFor(*gbgcn, two_stage);
    full_rank_instances = harness.eval_a10();
    full_rank_instances.insert(full_rank_instances.end(),
                               harness.eval_a100().begin(),
                               harness.eval_a100().end());
  }

  static ServingFixture& Get() {
    static ServingFixture fixture;
    return fixture;
  }
};

/// Caps the eval-pass benches at a fixed instance count so the tape
/// side stays affordable; both sides of the gate pair see the same
/// slice, so the ratio is a fair before/after.
template <typename Instance>
std::vector<Instance> GateSlice(const std::vector<Instance>& instances) {
  const size_t cap = 64;
  return std::vector<Instance>(
      instances.begin(),
      instances.begin() +
          static_cast<int64_t>(std::min(cap, instances.size())));
}

// ---- Single-request latency ----------------------------------------

void BM_ServeTopKItems(benchmark::State& state) {
  const int64_t k = state.range(0);
  ServingFixture& f = ServingFixture::Get();
  FullTaskAScorer scorer = f.model->MakeFullTaskAScorer();
  int64_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopKIndices(scorer(u), k));
    u = (u + 1) % f.harness.n_users();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["catalogue"] = static_cast<double>(f.harness.n_items());
}
BENCHMARK(BM_ServeTopKItems)->Arg(10)->Arg(100);

// The brute/two-stage pair on the harness catalogue: same GBGCN model,
// same (score desc, id asc) contract, only the candidate set differs.
// At this catalogue size the default nprobe covers most lists, so the
// pair mostly shows the fixed pipeline overhead; the retrieval gate
// (bench_retrieval) measures the sublinear win at 20000 items.
void BM_ServeTopKItemsBrute(benchmark::State& state) {
  const int64_t k = state.range(0);
  ServingFixture& f = ServingFixture::Get();
  FullTaskAScorer scorer = f.gbgcn->MakeFullTaskAScorer();
  int64_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopKIndices(scorer(u), k));
    u = (u + 1) % f.harness.n_users();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["catalogue"] = static_cast<double>(f.harness.n_items());
}
BENCHMARK(BM_ServeTopKItemsBrute)->Arg(10);

void BM_ServeTopKItemsTwoStage(benchmark::State& state) {
  const int64_t k = state.range(0);
  ServingFixture& f = ServingFixture::Get();
  int64_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        retrieval::TwoStageTopK(f.gbgcn.get(), *f.retriever, u, k));
    u = (u + 1) % f.harness.n_users();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["catalogue"] = static_cast<double>(f.harness.n_items());
  state.counters["nlist"] = static_cast<double>(f.retriever->index().nlist());
}
BENCHMARK(BM_ServeTopKItemsTwoStage)->Arg(10);

void BM_ServeTopKParticipants(benchmark::State& state) {
  const int64_t k = state.range(0);
  ServingFixture& f = ServingFixture::Get();
  int64_t u = 0;
  int64_t item = 0;
  for (auto _ : state) {
    std::vector<double> scores =
        RecModel::ColumnToDoubles(f.model->ScoreBAll(u, item));
    benchmark::DoNotOptimize(TopKIndices(scores, k));
    u = (u + 1) % f.harness.n_users();
    item = (item + 1) % f.harness.n_items();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["catalogue"] = static_cast<double>(f.harness.n_users());
}
BENCHMARK(BM_ServeTopKParticipants)->Arg(10)->Arg(100);

// ---- Batched throughput (items/s == requests/s == QPS) -------------

void BM_ServeQpsTaskA(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ScopedNumThreads scoped(threads);
  ServingFixture& f = ServingFixture::Get();
  FullTaskAScorer scorer = f.model->MakeFullTaskAScorer();
  const int64_t batch = 32;
  const int64_t n_users = f.harness.n_users();
  for (auto _ : state) {
    // One request per user of the batch; requests are independent, so
    // they parallelize across the pool like an eval chunk does.
    ParallelFor(0, batch, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        benchmark::DoNotOptimize(TopKIndices(scorer(b % n_users), 10));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ServeQpsTaskA)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// ---- Eval-pass gate pairs: tape per-instance vs no-grad batched ----
// Same instances, same metrics (bit-identical by the engine's
// row-independence contract); only the scoring path differs. The CI
// gate recomputes tape/no-grad per pair and fails below the floor.
// Two regimes on purpose: MGBR's pass is dominated by the MTL GEMMs
// (both paths pay them — the win there is tape suppression and chunk
// amortization), while GBGCN's dot-product pass is dominated by
// per-call dispatch and tape bookkeeping, which the batched no-grad
// path removes almost entirely.

void BM_EvalTaskA_TapePerInstance(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA> instances = GateSlice(f.harness.eval_a100());
  TaskAScorer scorer = f.model->MakeTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskA(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskA_TapePerInstance);

void BM_EvalTaskA_NoGradBatched(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA> instances = GateSlice(f.harness.eval_a100());
  BatchTaskAScorer scorer = f.model->MakeBatchTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskA(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskA_NoGradBatched);

void BM_EvalTaskB_TapePerInstance(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceB> instances = GateSlice(f.harness.eval_b100());
  TaskBScorer scorer = f.model->MakeTaskBScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskB(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskB_TapePerInstance);

void BM_EvalTaskB_NoGradBatched(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceB> instances = GateSlice(f.harness.eval_b100());
  BatchTaskBScorer scorer = f.model->MakeBatchTaskBScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskB(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskB_NoGradBatched);

void BM_EvalTaskA_Gbgcn_TapePerInstance(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA>& instances = f.harness.eval_a100();
  TaskAScorer scorer = f.gbgcn->MakeTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskA(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskA_Gbgcn_TapePerInstance);

void BM_EvalTaskA_Gbgcn_NoGradBatched(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA>& instances = f.harness.eval_a100();
  BatchTaskAScorer scorer = f.gbgcn->MakeBatchTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskA(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskA_Gbgcn_NoGradBatched);

void BM_EvalTaskB_Gbgcn_TapePerInstance(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceB>& instances = f.harness.eval_b100();
  TaskBScorer scorer = f.gbgcn->MakeTaskBScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskB(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskB_Gbgcn_TapePerInstance);

void BM_EvalTaskB_Gbgcn_NoGradBatched(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceB>& instances = f.harness.eval_b100();
  BatchTaskBScorer scorer = f.gbgcn->MakeBatchTaskBScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskB(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalTaskB_Gbgcn_NoGradBatched);

void BM_EvalFullRankA_Gbgcn_TapePerInstance(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA>& instances = f.full_rank_instances;
  TaskAScorer scorer = f.gbgcn->MakeTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskAFullRanking(
        instances, scorer, f.harness.full_index(), f.harness.n_items(), 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalFullRankA_Gbgcn_TapePerInstance);

void BM_EvalFullRankA_Gbgcn_NoGradBatched(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA>& instances = f.full_rank_instances;
  FullTaskAScorer scorer = f.gbgcn->MakeFullTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskAFullRanking(
        instances, scorer, f.harness.full_index(), f.harness.n_items(), 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalFullRankA_Gbgcn_NoGradBatched);

// ---- Full-ranking eval pass: the structural win -------------------
// The tape path scores the whole catalogue once PER INSTANCE through
// the differentiable scorer; the no-grad path scores it once per
// unique USER and shares the vector across that user's instances, so
// the speedup compounds tape suppression with instance/user dedup.

void BM_EvalFullRankA_TapePerInstance(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA>& instances = f.full_rank_instances;
  TaskAScorer scorer = f.model->MakeTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskAFullRanking(
        instances, scorer, f.harness.full_index(), f.harness.n_items(), 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalFullRankA_TapePerInstance);

void BM_EvalFullRankA_NoGradBatched(benchmark::State& state) {
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA>& instances = f.full_rank_instances;
  FullTaskAScorer scorer = f.model->MakeFullTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskAFullRanking(
        instances, scorer, f.harness.full_index(), f.harness.n_items(), 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
}
BENCHMARK(BM_EvalFullRankA_NoGradBatched);

// Thread scaling of one full batched eval pass (the chunked evaluator
// parallelizes over candidate chunks; real time is the figure of
// merit).

void BM_EvalTaskA_NoGradBatchedThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ScopedNumThreads scoped(threads);
  ServingFixture& f = ServingFixture::Get();
  const std::vector<EvalInstanceA>& instances = f.harness.eval_a100();
  BatchTaskAScorer scorer = f.model->MakeBatchTaskAScorer();
  for (auto _ : state) {
    RankingReport report = EvaluateTaskA(instances, scorer, 100);
    benchmark::DoNotOptimize(report.mrr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instances.size()));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_EvalTaskA_NoGradBatchedThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace mgbr::bench

// Custom main mirroring bench_micro_engine: accepts --trace-out /
// --metrics-out (or MGBR_TRACE_OUT / MGBR_METRICS_OUT) and flushes the
// Chrome trace plus a metrics snapshot after the run; our flags are
// stripped before benchmark::Initialize sees them.
int main(int argc, char** argv) {
  const mgbr::TelemetryOptions telemetry =
      mgbr::TelemetryOptions::FromArgs(argc, argv);
  telemetry.EnableRequested();

  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace-out", 0) == 0 ||
        arg.rfind("--metrics-out", 0) == 0) {
      if ((arg == "--trace-out" || arg == "--metrics-out") && i + 1 < argc) {
        ++i;  // skip the space-separated value too
      }
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return telemetry.Flush(nullptr).ok() ? 0 : 1;
}
