// The calibrated MGBR operating point shared by `train` and `serve-mgbr`,
// so both workloads always measure the same model on the same data.
#include "common/rng.h"
#include "data/synthetic.h"
#include "workload.h"

namespace perfbench {

using namespace mgbr;

CalibratedData MakeCalibratedData() {
  BeibeiSimConfig sim;
  sim.n_users = 500;
  sim.n_items = 400;
  sim.n_groups = 3000;
  sim.temperature = 1.2;
  sim.group_size_mean = 3.5;
  sim.popularity_weight = 0.3;
  sim.seed = 20230101;
  CalibratedData out;
  out.data = GenerateBeibeiSim(sim).FilterMinInteractions(5);
  Rng split_rng(1);
  out.split = out.data.SplitByRatio(7, 3, 1, &split_rng);
  return out;
}

std::unique_ptr<MgbrModel> MakeCalibratedMgbr(const GraphInputs& graphs) {
  MgbrConfig config = MgbrConfig::Variant("MGBR");
  config.dim = 24;
  config.aux_negatives = 4;
  config.sigmoid_head = false;
  Rng rng(7);
  return std::make_unique<MgbrModel>(graphs, config, &rng);
}

}  // namespace perfbench
