#include "nn/dense.h"

#include <cassert>

#include "ir/builder.h"
#include "nn/init.h"
#include "tensor/channel_ops.h"

namespace podnet::nn {

Dense::Dense(Index in_features, Index out_features, Rng& init_rng,
             bool use_bias, std::string name)
    : name_(std::move(name)),
      in_(in_features),
      out_(out_features),
      use_bias_(use_bias),
      weight_(name_ + "/kernel", dense_init(Shape{in_, out_}, init_rng)) {
  if (use_bias_) {
    bias_ = std::make_unique<Param>(name_ + "/bias", Tensor(Shape{out_}),
                                    /*decay=*/false, /*adapt=*/false);
  }
}

Tensor Dense::forward(const Tensor& x, bool training) {
  assert(x.shape().rank() == 2 && x.shape()[1] == in_);
  const Index n = x.shape()[0];
  Tensor y(Shape{n, out_});
  tensor::gemm_contiguous(false, false, n, out_, in_, 1.f, x.data(),
                          weight_.value.data(), 0.f, y.data());
  if (use_bias_) {
    tensor::bias_act({.bias = bias_->value.data()}, y.data(), n, out_);
  }
  if (training) x_ = x;
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  const Index n = x_.shape()[0];
  assert(grad_out.shape() == Shape({n, out_}));

  // dW[in, out] += x^T[in, n] * dY[n, out]
  tensor::gemm_contiguous(true, false, in_, out_, n, 1.f, x_.data(),
                          grad_out.data(), 1.f, weight_.grad.data());
  if (use_bias_) {
    float* db = bias_->grad.data();
    const float* g = grad_out.data();
    for (Index r = 0; r < n; ++r) {
      for (Index c = 0; c < out_; ++c) db[c] += g[r * out_ + c];
    }
  }
  // dX[n, in] = dY[n, out] * W^T[out, in]
  Tensor dx(Shape{n, in_});
  tensor::gemm_contiguous(false, true, n, in_, out_, 1.f, grad_out.data(),
                          weight_.value.data(), 0.f, dx.data());
  x_ = Tensor();
  return dx;
}

void Dense::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(bias_.get());
}

int Dense::lower(ir::Builder& b, int x) const {
  return b.dense(x, in_, out_, &weight_.value,
                 use_bias_ ? &bias_->value : nullptr, name_, use_bias_);
}

}  // namespace podnet::nn
