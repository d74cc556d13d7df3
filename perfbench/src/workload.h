// Shared plumbing of the benchmark workloads: options, the result a
// run reports, the calibrated MGBR operating point, and small
// statistics helpers.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mgbr.h"
#include "data/dataset.h"
#include "models/graph_inputs.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Build the workload's inputs and system, report the set-up time
  /// and exit (run.py repeats this to take a median cold start).
  bool setup_only = false;
  /// Where the traced run writes its Chrome trace.
  std::string trace_out;

  // Serving operating points (perfbench/workloads.json).
  double lo_qps = 0.0;
  double hi_qps = 0.0;
  /// Also search the highest offered rate that meets the latency limit
  /// with no failure and no growing backlog (report mode).
  bool max_qps = false;

  /// Training: the recorded values (perfbench/workloads.json) the final
  /// epoch's mean losses and the evaluation's MRR/NDCG must match.
  /// Unrecorded values are only required to be finite.
  std::map<std::string, double> expect;
};

/// Attempted/failed operations of one phase of a run.
struct Phase {
  std::string name;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// What one run reports. Values carry the report names of
/// perfbench/README.md (train_epoch_s, p50_ms.lo, ...).
struct RunResult {
  std::map<std::string, double> values;
  std::map<std::string, std::string> info;
  std::deque<Phase> phases;  // AddPhase pointers stay valid
  std::vector<std::string> errors;

  Phase* AddPhase(const std::string& name);
  void Fail(const std::string& message);
  std::string ToJson() const;
};

int RunTrain(const Options& options, RunResult* result);
int RunServe(const Options& options, RunResult* result);
/// The traced part of `train` on a fresh model at the calibrated point:
/// replica epochs checked bit for bit against Trainer::RunEpoch, then a
/// traced evaluation pass. serve-mgbr's traced run appends it, so the
/// training and evaluation layers are traced on a BENCHMARK.json workload.
int TraceTraining(RunResult* result);

// ---- the calibrated MGBR operating point ------------------------------

/// The deal log of the table benches (bench/harness.cc): BeibeiSim
/// 500 users x 400 items x 3000 groups, >= 5 filter (457 users x 267
/// items), split 7:3:1 from seed 1.
struct CalibratedData {
  mgbr::GroupBuyingDataset data;
  mgbr::DatasetSplit split;
};
CalibratedData MakeCalibratedData();

/// MGBR with both auxiliary losses at that point (d = 24, 4 auxiliary
/// negatives, raw-logit head), initialised from seed 7.
std::unique_ptr<mgbr::MgbrModel> MakeCalibratedMgbr(
    const mgbr::GraphInputs& graphs);

// ---- helpers --------------------------------------------------------

double NowSeconds();
/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
/// Peak resident set of this process in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
