#include "nn/squeeze_excite.h"

#include <cassert>

#include "ir/builder.h"
#include "tensor/channel_ops.h"

namespace podnet::nn {

SqueezeExcite::SqueezeExcite(Index channels, Index se_channels, Rng& init_rng,
                             std::string name)
    : name_(std::move(name)),
      channels_(channels),
      reduce_(channels, se_channels, init_rng, /*use_bias=*/true,
              name_ + "/reduce"),
      expand_(se_channels, channels, init_rng, /*use_bias=*/true,
              name_ + "/expand") {}

Tensor SqueezeExcite::forward(const Tensor& x, bool training) {
  assert(x.shape().rank() == 4 && x.shape()[3] == channels_);
  const Index N = x.shape()[0], H = x.shape()[1], W = x.shape()[2],
              C = channels_;
  Tensor squeezed = gap_.forward(x, training);
  Tensor gate = sigmoid_.forward(
      expand_.forward(swish_.forward(reduce_.forward(squeezed, training),
                                     training),
                      training),
      training);

  Tensor y = Tensor::uninitialized(x.shape());
  tensor::channel_scale(x.data(), gate.data(), N, H * W, C, y.data());
  if (training) {
    x_ = x;
    gate_ = std::move(gate);
  }
  return y;
}

Tensor SqueezeExcite::backward(const Tensor& grad_out) {
  const Index N = x_.shape()[0], H = x_.shape()[1], W = x_.shape()[2],
              C = channels_;
  assert(grad_out.shape() == x_.shape());

  // Direct path: dX1 = dY * gate; gate path: dGate = sum_hw dY * X.
  Tensor dx(x_.shape());
  Tensor dgate(Shape{N, C});
  const float* g = grad_out.data();
  const float* xd = x_.data();
  const float* gd = gate_.data();
  float* dxd = dx.data();
  float* dgd = dgate.data();
  for (Index n = 0; n < N; ++n) {
    const float* grow = gd + n * C;
    float* dgrow = dgd + n * C;
    for (Index p = 0; p < H * W; ++p) {
      const Index off = (n * H * W + p) * C;
      for (Index c = 0; c < C; ++c) {
        dxd[off + c] = g[off + c] * grow[c];
        dgrow[c] += g[off + c] * xd[off + c];
      }
    }
  }

  // Through the bottleneck MLP and the squeeze.
  Tensor dsq = reduce_.backward(
      swish_.backward(expand_.backward(sigmoid_.backward(dgate))));
  Tensor dx2 = gap_.backward(dsq);
  const float* dx2d = dx2.data();
  for (Index i = 0; i < dx.numel(); ++i) dxd[i] += dx2d[i];

  x_ = Tensor();
  gate_ = Tensor();
  return dx;
}

void SqueezeExcite::collect_params(std::vector<Param*>& out) {
  reduce_.collect_params(out);
  expand_.collect_params(out);
}

int SqueezeExcite::lower(ir::Builder& b, int x) const {
  return b.squeeze_excite(x, channels_, reduce_.out_features(),
                          &reduce_.weight().value, &reduce_.bias()->value,
                          &expand_.weight().value, &expand_.bias()->value,
                          name_);
}

}  // namespace podnet::nn
