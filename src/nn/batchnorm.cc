#include "nn/batchnorm.h"

#include <cassert>

#include <cmath>
#include <vector>

#include "ir/builder.h"
#include "tensor/channel_ops.h"
#include "tensor/ops.h"

namespace podnet::nn {

BatchNorm::BatchNorm(Index channels, float momentum, float eps,
                     std::string name)
    : name_(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(name_ + "/gamma", Tensor::full(Shape{channels}, 1.f),
             /*decay=*/false, /*adapt=*/false),
      beta_(name_ + "/beta", Tensor(Shape{channels}), /*decay=*/false,
            /*adapt=*/false),
      running_mean_(Shape{channels}),
      running_var_(Tensor::full(Shape{channels}, 1.f)) {}

Tensor BatchNorm::forward(const Tensor& x, bool training) {
  assert(x.shape().rank() == 4 && x.shape()[3] == channels_);
  const Index C = channels_;
  const Index rows = x.numel() / C;
  const float* xd = x.data();

  if (!training) {
    Tensor y = Tensor::uninitialized(x.shape());
    std::vector<float> scale_shift(static_cast<std::size_t>(2 * C));
    float* scale = scale_shift.data();
    tensor::bn_scale_shift(gamma_.value.data(), beta_.value.data(),
                           running_mean_.data(), running_var_.data(), eps_, C,
                           scale, scale + C);
    tensor::channel_affine(xd, scale, scale + C, rows, C, y.data());
    return y;
  }

  // Per-channel sum / sum-of-squares over the local batch, then (optionally)
  // over the replica subgroup. Layout: [sum(C), sumsq(C), count].
  std::vector<float> stats(static_cast<std::size_t>(2 * C + 1), 0.f);
  tensor::column_sums(xd, xd, rows, C, stats.data(), stats.data() + C);
  stats[static_cast<std::size_t>(2 * C)] = static_cast<float>(rows);
  if (sync_ != nullptr) sync_->allreduce_sum(stats);
  const double m = stats[static_cast<std::size_t>(2 * C)];
  group_count_ = m;

  Tensor mean(Shape{C});
  inv_std_ = Tensor(Shape{C});
  for (Index c = 0; c < C; ++c) {
    const double mu = stats[c] / m;
    double var = stats[C + c] / m - mu * mu;
    if (var < 0) var = 0;  // numerical floor
    mean.at(c) = static_cast<float>(mu);
    inv_std_.at(c) = static_cast<float>(1.0 / std::sqrt(var + eps_));
    running_mean_.at(c) = momentum_ * running_mean_.at(c) +
                          (1.f - momentum_) * static_cast<float>(mu);
    running_var_.at(c) = momentum_ * running_var_.at(c) +
                         (1.f - momentum_) * static_cast<float>(var);
  }

  xhat_ = Tensor::uninitialized(x.shape());
  Tensor y = Tensor::uninitialized(x.shape());
  tensor::bn_normalize(xd, mean.data(), inv_std_.data(), gamma_.value.data(),
                       beta_.value.data(), rows, C, xhat_.data(), y.data());
  return y;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  const Index C = channels_;
  const Index rows = grad_out.numel() / C;
  const std::size_t n = static_cast<std::size_t>(C);

  // Local reductions [sum(dy), sum(dy * xhat)]; dgamma/dbeta stay local
  // (the trainer's gradient all-reduce completes them), but dx needs
  // subgroup totals because the normalization statistics were computed over
  // the subgroup. The tail [k, a] holds dx's per-channel factors.
  std::vector<float> sums(4 * n, 0.f);
  float* sum_dy = sums.data();
  float* sum_dy_xhat = sum_dy + C;
  tensor::column_sums(grad_out.data(), xhat_.data(), rows, C, sum_dy,
                      sum_dy_xhat);
  tensor::add_inplace({sum_dy, n}, beta_.grad.span());
  tensor::add_inplace({sum_dy_xhat, n}, gamma_.grad.span());
  if (sync_ != nullptr) sync_->allreduce_sum({sums.data(), 2 * n});

  const float inv_m = static_cast<float>(1.0 / group_count_);
  float* k = sum_dy + 2 * C;
  float* a = sum_dy + 3 * C;
  const float* g = gamma_.value.data();
  for (Index c = 0; c < C; ++c) {
    k[c] = g[c] * inv_std_.at(c);
    a[c] = inv_m * sum_dy[c];
  }
  Tensor dx = Tensor::uninitialized(grad_out.shape());
  tensor::bn_backward_dx(grad_out.data(), xhat_.data(), k, a, sum_dy_xhat,
                         inv_m, rows, C, dx.data());
  xhat_ = Tensor();
  return dx;
}

void BatchNorm::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm::collect_state(std::vector<Tensor*>& out) {
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

int BatchNorm::lower(ir::Builder& b, int x) const {
  return b.batch_norm(x, channels_, eps_, &gamma_.value, &beta_.value,
                      &running_mean_, &running_var_, name_);
}

}  // namespace podnet::nn
