// Per-channel NHWC kernels shared by the layer interpreter (nn::) and the
// compiled executor (ir::Executor): the squeeze-excite squeeze and excite,
// global average pooling, the BN inference affine, the bias + activation
// tail and the residual add. Both call these, so their parity holds by
// construction.
//
// Each call reads simd::active_level() once and runs that tier's
// instantiation of the shared loop bodies (channel_kernels.h). Once an op
// streams enough floats it splits over ThreadPool::global(); the split
// never changes a result:
//   * reductions split only over (image, 16-channel block) items, so every
//     channel is still summed over its rows in row order;
//   * elementwise work splits at whole rows or at multiples of 16 floats,
//     so each element takes the same vector-or-tail path as in one
//     unsplit call.
// Results therefore do not depend on the thread count.
#pragma once

#include <span>

#include "tensor/gemm.h"
#include "tensor/shape.h"

namespace podnet::tensor {

// out[b, j] = mean over p of x[b, p, j]; x is [n, hw, c], out is [n, c].
void channel_mean(const float* x, Index n, Index hw, Index c, float* out);

// y[b, p, j] = x[b, p, j] * scale[b, j]; x and y are [n, hw, c], scale is
// [n, c]. y may alias x.
void channel_scale(const float* x, const float* scale, Index n, Index hw,
                   Index c, float* y);

// BN inference affine per channel, in float exactly as
// nn::BatchNorm::forward and the conv+BN fold compute it:
// scale = gamma / sqrt(var + eps), shift = beta - mean * scale.
void bn_scale_shift(const float* gamma, const float* beta, const float* mean,
                    const float* var, float eps, Index c, float* scale,
                    float* shift);

// y[r, j] = x[r, j] * scale[j] + shift[j] over [rows, c]; y may alias x.
// FMA tiers may round the expression once instead of twice.
void channel_affine(const float* x, const float* scale, const float* shift,
                    Index rows, Index c, float* y);

// In place over y [rows, cols]: adds tail.bias (per column, when set), then
// applies tail.act. Bitwise equal to a row-wise add_inplace of the bias
// followed by one swish/relu call over the whole buffer. Swish also writes
// the sigmoid to sig (rows * cols floats); sig may be null otherwise.
void bias_act(const GemmEpilogue& tail, float* y, Index rows, Index cols,
              float* sig = nullptr);

// y = a + b elementwise; y may alias a or b.
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> y);

}  // namespace podnet::tensor
