#include "core/expert_gate.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace mgbr {

MultiTaskModule::MultiTaskModule(const MgbrConfig& config, Rng* rng)
    : dim_(config.dim),
      n_experts_(config.n_experts),
      alpha_a_(config.alpha_a),
      alpha_b_(config.alpha_b),
      shared_(config.use_shared_experts),
      softmax_gates_(config.softmax_gates) {
  MGBR_CHECK_GE(config.mtl_layers, 1);
  MGBR_CHECK_GE(n_experts_, 1);
  const int64_t d = dim_;
  const int64_t k = n_experts_;
  const int64_t g0_width = 6 * d;  // e_u||e_i||e_p with e_* in R^{2d}

  for (int64_t l = 0; l < config.mtl_layers; ++l) {
    Layer layer;
    const bool first = (l == 0);
    const int64_t in_a = first ? g0_width : (shared_ ? 2 * d : d);
    const int64_t in_b = in_a;
    const int64_t in_s = first ? g0_width : 3 * d;

    layer.experts_a = Var(XavierInit(in_a, k * d, rng), true);
    layer.experts_b = Var(XavierInit(in_b, k * d, rng), true);
    if (shared_) {
      layer.experts_s = Var(XavierInit(in_s, k * d, rng), true);
    }
    const int64_t mix_a = shared_ ? 2 * k : k;
    layer.gate_a = Var(XavierInit(in_a, mix_a, rng), true);
    layer.gate_b = Var(XavierInit(in_b, mix_a, rng), true);
    // g_S^L is never consumed (only g_A^L and g_B^L feed the heads),
    // so the final layer carries no gate-S mixing weight.
    if (shared_ && l + 1 < config.mtl_layers) {
      layer.gate_s = Var(XavierInit(in_s, 3 * k, rng), true);
    }
    if (alpha_a_ != 0.0f) {
      layer.adj_a_ui = Var(XavierInit(4 * d, k, rng), true);
      if (shared_) {
        layer.adj_a_ip = Var(XavierInit(4 * d, k, rng), true);
        layer.adj_a_up = Var(XavierInit(4 * d, k, rng), true);
      }
    }
    if (alpha_b_ != 0.0f) {
      if (shared_) {
        layer.adj_b_ui = Var(XavierInit(4 * d, k, rng), true);
      }
      layer.adj_b_ip = Var(XavierInit(4 * d, k, rng), true);
      layer.adj_b_up = Var(XavierInit(4 * d, k, rng), true);
    }
    layers_.push_back(std::move(layer));
  }
}

MultiTaskModule::Output MultiTaskModule::Forward(const Var& e_u,
                                                 const Var& e_i,
                                                 const Var& e_p) const {
#if MGBR_TELEMETRY
  MGBR_TRACE_SPAN("mtl.forward", "core");
  static Counter* rows_counter =
      MetricsRegistry::Global().GetCounter("mtl.forward_rows");
  MGBR_COUNTER_ADD(rows_counter, e_u.rows());
#endif  // MGBR_TELEMETRY
  MGBR_CHECK_EQ(e_u.cols(), 2 * dim_);
  MGBR_CHECK(e_u.value().same_shape(e_i.value()));
  MGBR_CHECK(e_u.value().same_shape(e_p.value()));
  const int64_t d = dim_;

  // Attentive mixture over the d-wide blocks of `blocks`; mixture
  // weights optionally pass through a row softmax (DESIGN.md §7.1).
  auto Mix = [this, d](const Var& blocks, const Var& logits,
                       int64_t block_dim) {
    (void)d;
    return BlockMix(blocks,
                    softmax_gates_ ? RowSoftmax(logits) : logits,
                    block_dim);
  };

  // Pairwise inputs of the adjusted gates (Eq. 11/13), layer-invariant.
  const Var c_ui = ConcatCols({e_u, e_i});
  const Var c_ip = ConcatCols({e_i, e_p});
  const Var c_up = ConcatCols({e_u, e_p});

  // Eq. 15: g^0 for all three gates.
  const Var g0 = ConcatCols({e_u, e_i, e_p});
  Var g_a = g0, g_b = g0, g_s = g0;

  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool first = (l == 0);

    // Expert inputs (Eqs. 7-9; layer 1 uses g^0 alone).
    Var in_a = first ? g0 : (shared_ ? ConcatCols({g_a, g_s}) : g_a);
    Var in_b = first ? g0 : (shared_ ? ConcatCols({g_b, g_s}) : g_b);
    Var in_s;
    if (shared_) in_s = first ? g0 : ConcatCols({g_a, g_s, g_b});

    // All K experts of a sub-module in one GEMM: (B x in) @ (in x K*d).
    Var ex_a = MatMul(in_a, layer.experts_a);
    Var ex_b = MatMul(in_b, layer.experts_b);
    Var ex_s;
    if (shared_) ex_s = MatMul(in_s, layer.experts_s);

    // Generic gate sections (Eq. 10 for A; symmetric for B; Eq. 14 S).
    const Var basis_a = shared_ ? ConcatCols({ex_a, ex_s}) : ex_a;
    const Var basis_b = shared_ ? ConcatCols({ex_b, ex_s}) : ex_b;
    Var g_a1 = Mix(basis_a, MatMul(in_a, layer.gate_a), d);
    Var g_b1 = Mix(basis_b, MatMul(in_b, layer.gate_b), d);

    // Adjusted gate sections (Eqs. 11-13).
    Var new_g_a = g_a1;
    if (alpha_a_ != 0.0f) {
      Var g_a2 = Mix(ex_a, MatMul(c_ui, layer.adj_a_ui), d);
      if (shared_) {
        g_a2 = Add(g_a2, Mix(ex_s, MatMul(c_ip, layer.adj_a_ip), d));
        g_a2 = Add(g_a2, Mix(ex_s, MatMul(c_up, layer.adj_a_up), d));
      }
      new_g_a = Add(g_a1, MulScalar(g_a2, alpha_a_));
    }
    Var new_g_b = g_b1;
    if (alpha_b_ != 0.0f) {
      Var g_b2 = Mix(ex_b, MatMul(c_ip, layer.adj_b_ip), d);
      g_b2 = Add(g_b2, Mix(ex_b, MatMul(c_up, layer.adj_b_up), d));
      if (shared_) {
        g_b2 = Add(g_b2, Mix(ex_s, MatMul(c_ui, layer.adj_b_ui), d));
      }
      new_g_b = Add(g_b1, MulScalar(g_b2, alpha_b_));
    }
    Var new_g_s;
    const bool last = (l + 1 == layers_.size());
    if (shared_ && !last) {
      new_g_s = Mix(ConcatCols({ex_a, ex_s, ex_b}),
                    MatMul(in_s, layer.gate_s), d);
    }

    g_a = new_g_a;
    g_b = new_g_b;
    if (shared_ && !last) g_s = new_g_s;
  }
  return Output{g_a, g_b};
}

std::vector<Var> MultiTaskModule::Parameters() const {
  std::vector<Var> params;
  auto add = [&params](const Var& v) {
    if (v.defined()) params.push_back(v);
  };
  for (const Layer& layer : layers_) {
    add(layer.experts_a);
    add(layer.experts_b);
    add(layer.experts_s);
    add(layer.gate_a);
    add(layer.gate_b);
    add(layer.gate_s);
    add(layer.adj_a_ui);
    add(layer.adj_a_ip);
    add(layer.adj_a_up);
    add(layer.adj_b_ui);
    add(layer.adj_b_ip);
    add(layer.adj_b_up);
  }
  return params;
}

}  // namespace mgbr
