// Elementwise and reduction primitives over raw float spans / Tensors.
//
// These are deliberately free functions over spans so the nn layers, the
// optimizers, and the collectives all share one small vocabulary of
// vectorizable loops. Each function dispatches once per call between a
// portable scalar loop and the AVX2 or AVX-512 kernel (see tensor/simd.h);
// the scalar loop is the reference the SIMD tiers are parity-tested
// against. The two SIMD tiers give bitwise equal results.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.h"

namespace podnet::tensor {

// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
// y = alpha * x + beta * y
void axpby(float alpha, std::span<const float> x, float beta,
           std::span<float> y);
// x *= alpha
void scale(float alpha, std::span<float> x);
// y = alpha * x (overwrites y; unlike axpby with beta=0 this never reads y)
void scale_copy(float alpha, std::span<const float> x, std::span<float> y);
// y += x (the all-reduce reduction loop)
void add_inplace(std::span<const float> x, std::span<float> y);
// elementwise y *= x
void mul_inplace(std::span<const float> x, std::span<float> y);
// y += a * b elementwise (depthwise-conv inner loop)
void fma_inplace(std::span<const float> a, std::span<const float> b,
                 std::span<float> y);
// sum of elements
double sum(std::span<const float> x);
// sum of squares
double sum_squares(std::span<const float> x);
// L2 norm
double l2_norm(std::span<const float> x);
// dot product
double dot(std::span<const float> x, std::span<const float> y);
// max element (returns -inf for empty)
float max_value(std::span<const float> x);
// true iff no element is NaN/Inf (an exponent-bits max, so it is branch-
// and FP-free; the IR range analysis scans every parameter through this)
bool all_finite(std::span<const float> x);

// Pointwise activation kernels shared by nn/activations and
// nn/squeeze_excite. The SIMD sigmoid uses a polynomial exp that agrees
// with std::exp to a few ulp; everything else is exact.
// y = 1 / (1 + exp(-x))
void sigmoid(std::span<const float> x, std::span<float> y);
// sig = sigmoid(x), y = x * sig (both outputs written in one pass)
void swish(std::span<const float> x, std::span<float> sig,
           std::span<float> y);
// out = g * sig * (1 + x * (1 - sig))
void swish_backward(std::span<const float> g, std::span<const float> x,
                    std::span<const float> sig, std::span<float> out);
// out = g * y * (1 - y), with y = sigmoid output
void sigmoid_backward(std::span<const float> g, std::span<const float> y,
                      std::span<float> out);
// y = x <= 0 ? 0 : x (NaN stays NaN, -0 becomes +0)
void relu(std::span<const float> x, std::span<float> y);
// out = x > 0 ? g : 0
void relu_backward(std::span<const float> g, std::span<const float> x,
                   std::span<float> out);

// Numerically-stable in-place softmax over each row of a [rows, cols]
// row-major matrix.
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols);

// argmax per row of a [rows, cols] matrix, written to out[rows].
void argmax_rows(const float* x, std::int64_t rows, std::int64_t cols,
                 std::int64_t* out);

// Returns true if |a-b| <= atol + rtol*|b| elementwise.
bool allclose(std::span<const float> a, std::span<const float> b,
              float rtol = 1e-5f, float atol = 1e-6f);

}  // namespace podnet::tensor
