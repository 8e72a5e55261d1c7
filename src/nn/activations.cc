#include "nn/activations.h"

#include <cmath>

#include "ir/builder.h"
#include "tensor/channel_ops.h"
#include "tensor/ops.h"

namespace podnet::nn {

float sigmoid_scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

Tensor Swish::forward(const Tensor& x, bool training) {
  Tensor y = Tensor::uninitialized(x.shape());
  Tensor sig = Tensor::uninitialized(x.shape());
  tensor::parallel_swish(x.span(), sig.span(), y.span());
  if (training) {
    x_ = x;
    sig_ = std::move(sig);
  }
  return y;
}

Tensor Swish::backward(const Tensor& grad_out) {
  // d/dx [x*s(x)] = s(x) * (1 + x * (1 - s(x)))
  Tensor gx = Tensor::uninitialized(grad_out.shape());
  tensor::parallel_swish_backward(grad_out.span(), x_.span(), sig_.span(),
                                  gx.span());
  return gx;
}

Tensor Sigmoid::forward(const Tensor& x, bool training) {
  Tensor y(x.shape());
  tensor::sigmoid(x.span(), y.span());
  if (training) y_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  Tensor gx(grad_out.shape());
  tensor::sigmoid_backward(grad_out.span(), y_.span(), gx.span());
  return gx;
}

Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor y(x.shape());
  tensor::relu(x.span(), y.span());
  if (training) x_ = x;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor gx(grad_out.shape());
  tensor::relu_backward(grad_out.span(), x_.span(), gx.span());
  return gx;
}

int Swish::lower(ir::Builder& b, int x) const { return b.swish(x); }
int Sigmoid::lower(ir::Builder& b, int x) const { return b.sigmoid(x); }
int ReLU::lower(ir::Builder& b, int x) const { return b.relu(x); }

}  // namespace podnet::nn
