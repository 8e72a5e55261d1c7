#include "nn/pooling.h"

#include <cassert>

#include "ir/builder.h"
#include "tensor/channel_ops.h"

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
  Tensor dx(in_shape_);
  const float inv = 1.0f / static_cast<float>(H * W);
  const float* g = grad_out.data();
  float* dxd = dx.data();
  for (Index n = 0; n < N; ++n) {
    const float* grow = g + n * C;
    for (Index p = 0; p < H * W; ++p) {
      float* px = dxd + (n * H * W + p) * C;
      for (Index c = 0; c < C; ++c) px[c] = grow[c] * inv;
    }
  }
  return dx;
}

int GlobalAvgPool::lower(ir::Builder& b, int x) const {
  return b.global_avg_pool(x);
}

}  // namespace podnet::nn
