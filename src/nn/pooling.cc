#include "nn/pooling.h"

#include <cassert>

#include "ir/builder.h"
#include "tensor/channel_ops.h"
#include "tensor/ops.h"

namespace podnet::nn {

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  assert(x.shape().rank() == 4);
  const Index N = x.shape()[0], H = x.shape()[1], W = x.shape()[2],
              C = x.shape()[3];
  if (training) in_shape_ = x.shape();
  Tensor y = Tensor::uninitialized(Shape{N, C});
  tensor::channel_mean(x.data(), N, H * W, C, y.data());
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const Index N = in_shape_[0], H = in_shape_[1], W = in_shape_[2],
              C = in_shape_[3];
  assert(grad_out.shape() == Shape({N, C}));
  Tensor share = Tensor::uninitialized(grad_out.shape());
  tensor::scale_copy(1.0f / static_cast<float>(H * W), grad_out.span(),
                     share.span());
  Tensor dx = Tensor::uninitialized(in_shape_);
  tensor::channel_scale_shift(nullptr, nullptr, share.data(), N, H * W, C,
                              dx.data());
  return dx;
}

int GlobalAvgPool::lower(ir::Builder& b, int x) const {
  return b.global_avg_pool(x);
}

}  // namespace podnet::nn
