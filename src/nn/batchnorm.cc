#include "nn/batchnorm.h"

#include <cassert>

#include <cmath>
#include <vector>

#include "ir/builder.h"
#include "tensor/channel_ops.h"

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
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < C; ++c) {
      const float v = xd[r * C + c];
      stats[c] += v;
      stats[C + c] += v * v;
    }
  }
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

  xhat_ = Tensor(x.shape());
  Tensor y(x.shape());
  float* xh = xhat_.data();
  float* yd = y.data();
  const float* g = gamma_.value.data();
  const float* b = beta_.value.data();
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < C; ++c) {
      const float h = (xd[r * C + c] - mean.at(c)) * inv_std_.at(c);
      xh[r * C + c] = h;
      yd[r * C + c] = g[c] * h + b[c];
    }
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  const Index C = channels_;
  const Index rows = grad_out.numel() / C;
  const float* gy = grad_out.data();
  const float* xh = xhat_.data();

  // Local reductions; dgamma/dbeta stay local (the trainer's gradient
  // all-reduce completes them), but dx needs subgroup totals because the
  // normalization statistics were computed over the subgroup.
  std::vector<float> sums(static_cast<std::size_t>(2 * C), 0.f);
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < C; ++c) {
      sums[c] += gy[r * C + c];                    // sum(dy)
      sums[C + c] += gy[r * C + c] * xh[r * C + c];  // sum(dy * xhat)
    }
  }
  float* dgamma = gamma_.grad.data();
  float* dbeta = beta_.grad.data();
  for (Index c = 0; c < C; ++c) {
    dbeta[c] += sums[c];
    dgamma[c] += sums[C + c];
  }
  if (sync_ != nullptr) sync_->allreduce_sum(sums);

  const float inv_m = static_cast<float>(1.0 / group_count_);
  Tensor dx(grad_out.shape());
  float* dxd = dx.data();
  const float* g = gamma_.value.data();
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < C; ++c) {
      const float term = gy[r * C + c] - inv_m * sums[c] -
                         xh[r * C + c] * inv_m * sums[C + c];
      dxd[r * C + c] = g[c] * inv_std_.at(c) * term;
    }
  }
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
