#include "tensor/optim.h"

#include <cmath>
#include <utility>

#include "common/string_util.h"

namespace mgbr {

Optimizer::Optimizer(std::vector<Var> params) : params_(std::move(params)) {
  for (const Var& p : params_) {
    MGBR_CHECK(p.defined());
    MGBR_CHECK(p.requires_grad());
  }
}

void Optimizer::ZeroGrad() {
  for (Var& p : params_) p.ZeroGrad();
}

double ClipGradNorm(std::vector<Var>& params, double max_norm) {
  double total = 0.0;
  for (const Var& p : params) {
    const Tensor& g = p.grad();
    for (int64_t i = 0; i < g.numel(); ++i) {
      total += static_cast<double>(g.data()[i]) * g.data()[i];
    }
  }
  const double norm = std::sqrt(total);
  if (max_norm > 0.0 && norm > max_norm) {
    const float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (Var& p : params) {
      // Safe: grad() exposes the node's buffer; scaling in place is the
      // optimizer's prerogative between Backward() and Step().
      const_cast<Tensor&>(p.grad()).ScaleInPlace(scale);
    }
  }
  return norm;
}

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

Status Adam::RestoreState(int64_t t, float lr, std::vector<Tensor> m,
                          std::vector<Tensor> v) {
  if (t < 0) {
    return Status::InvalidArgument(
        StrCat("Adam step count must be >= 0, got ", t));
  }
  if (m.size() != params_.size() || v.size() != params_.size()) {
    return Status::InvalidArgument(
        StrCat("Adam moment count mismatch: got ", m.size(), "/", v.size(),
               " tensors, optimizer has ", params_.size(), " parameters"));
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = params_[i].value();
    if (m[i].rows() != p.rows() || m[i].cols() != p.cols() ||
        v[i].rows() != p.rows() || v[i].cols() != p.cols()) {
      return Status::InvalidArgument(
          StrCat("Adam moment shape mismatch at parameter ", i));
    }
  }
  t_ = t;
  lr_ = lr;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t idx = 0; idx < params_.size(); ++idx) {
    Tensor& value = params_[idx].mutable_value();
    const Tensor& grad = params_[idx].grad();
    float* vp = value.data();
    const float* gp = grad.data();
    float* mp = m_[idx].data();
    float* sp = v_[idx].data();
    for (int64_t i = 0; i < value.numel(); ++i) {
      float g = gp[i];
      if (weight_decay_ != 0.0f) g += weight_decay_ * vp[i];
      mp[i] = beta1_ * mp[i] + (1.0f - beta1_) * g;
      sp[i] = beta2_ * sp[i] + (1.0f - beta2_) * g * g;
      const float m_hat = mp[i] / bc1;
      const float v_hat = sp[i] / bc2;
      vp[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace mgbr
