// Per-channel NHWC kernels shared by the layer interpreter (nn::) and the
// compiled executor (ir::Executor). The inference half: the squeeze-excite
// squeeze and excite, global average pooling, the BN inference affine, the
// bias + activation tail and the residual add; nn:: and the executor both
// call these, so their parity holds by construction. The training half:
// the column sums under BN statistics, BN backward and the bias gradients,
// the BN normalize and dx passes, squeeze-excite and pooling backward, and
// swish split over the pool.
//
// Each call reads simd::active_level() once and runs that tier's
// instantiation of the shared loop bodies (vector_kernels.h). Once an op
// streams enough floats it splits over ThreadPool::global(); the thread
// count never changes a result:
//   * per-image reductions split over (image, 16-channel block) items, so
//     every channel is still summed over its rows in row order;
//   * whole-batch reductions (column_sums) cut the rows into chunks of a
//     fixed size, sum each (chunk, block) item in row order and add the
//     chunks' partials in chunk order, on one thread or many alike. An op
//     of one chunk sums in plain row order;
//   * elementwise work splits at whole rows or at multiples of 16 floats,
//     so each element takes the same vector-or-tail path as in one
//     unsplit call.
// No split runs inside another (see parallel_grains): bias_act applies its
// activation per row group on pool workers, so it calls the unsplit
// tensor::swish, never parallel_swish.
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

// ---- Training half ----
// A product that feeds a sum (x*x, dy*x, x*s + t, ...) rounds twice at the
// scalar tier, exactly as the nn:: loops these replace did, and once on
// the FMA tiers, as in channel_affine.

// Column sums over [rows, c] (BN statistics, BN backward, bias gradients):
// sum[j] += sum over r of a[r, j] and, when b is set, sum_ab[j] += sum over
// r of a[r, j] * b[r, j]; b may be a (the sum of squares). The first
// kSumChunkRows rows sum in row order onto sum and sum_ab; each later chunk
// of kSumChunkRows rows sums in row order from zero, and the chunks' sums
// are added on in chunk order.
//
// The chunk size is a constant, never derived from the thread count, so a
// result is the same on any pool. 256 rows keep every layer of pico at
// 16 px and batch 4 in one chunk, which sums exactly as one row-order loop.
inline constexpr Index kSumChunkRows = 256;

void column_sums(const float* a, const float* b, Index rows, Index c,
                 float* sum, float* sum_ab = nullptr);

// BN training forward over [rows, c] in one pass, per channel:
// xhat = (x - mean) * inv_std, y = gamma * xhat + beta.
void bn_normalize(const float* x, const float* mean, const float* inv_std,
                  const float* gamma, const float* beta, Index rows, Index c,
                  float* xhat, float* y);

// BN training backward over [rows, c]:
// dx = k * ((dy - a) - xhat * inv_m * b), with per channel
// k = gamma * inv_std, a = inv_m * sum(dy), b = sum(dy * xhat) over the
// normalization group, and inv_m = 1 / (group rows).
void bn_backward_dx(const float* dy, const float* xhat, const float* k,
                    const float* a, const float* b, float inv_m, Index rows,
                    Index c, float* dx);

// out[b, j] = sum over p of x[b, p, j] * y[b, p, j]; x and y are
// [n, hw, c], out is [n, c] (the squeeze-excite gate gradient).
void channel_dot(const float* x, const float* y, Index n, Index hw, Index c,
                 float* out);

// y[b, p, j] = x[b, p, j] * s[b, j] + t[b, j] over [n, hw, c] (squeeze-
// excite backward with the pooling backward folded into t). With x null,
// y[b, p, j] = t[b, j] (global average pooling backward); s is unused.
void channel_scale_shift(const float* x, const float* s, const float* t,
                         Index n, Index hw, Index c, float* y);

// tensor::swish and tensor::swish_backward (ops.h), split over the pool at
// multiples of 16 floats and bitwise equal to the unsplit calls.
void parallel_swish(std::span<const float> x, std::span<float> sig,
                    std::span<float> y);
void parallel_swish_backward(std::span<const float> g,
                             std::span<const float> x,
                             std::span<const float> sig,
                             std::span<float> out);

}  // namespace podnet::tensor
