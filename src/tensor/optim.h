#ifndef MGBR_TENSOR_OPTIM_H_
#define MGBR_TENSOR_OPTIM_H_

#include <vector>

#include "common/status.h"
#include "tensor/variable.h"

namespace mgbr {

/// Base class for gradient-descent optimizers over a fixed parameter
/// list. Typical loop:
///
///   optimizer.ZeroGrad();
///   loss.Backward();
///   optimizer.Step();
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Zeroes the gradient of every registered parameter.
  void ZeroGrad();

  /// Applies one update using the current gradients.
  virtual void Step() = 0;

  const std::vector<Var>& params() const { return params_; }
  std::vector<Var>& params_mutable() { return params_; }

 protected:
  std::vector<Var> params_;
};

/// Scales all gradients so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm. No-op if max_norm <= 0.
double ClipGradNorm(std::vector<Var>& params, double max_norm);

/// Adam with bias correction (Kingma & Ba, 2015) — the optimizer the
/// paper trains MGBR with. Optional decoupled weight decay.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Var> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);
  void Step() override;

  /// Current learning rate (schedules adjust it between steps).
  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

  /// Checkpoint access: bias-correction step count and the per-param
  /// first/second moment estimates, in Parameters() order.
  int64_t step_count() const { return t_; }
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }

  /// Restores optimizer state captured from an identical parameter
  /// list: `m`/`v` must have one tensor per parameter with matching
  /// shapes, `t` must be >= 0. On any mismatch the optimizer is left
  /// unchanged and an InvalidArgument Status is returned.
  Status RestoreState(int64_t t, float lr, std::vector<Tensor> m,
                      std::vector<Tensor> v);

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace mgbr

#endif  // MGBR_TENSOR_OPTIM_H_
