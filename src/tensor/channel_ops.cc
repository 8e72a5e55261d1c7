// Dispatch and thread split for the per-channel kernel family
// (channel_ops.h). The loop bodies live in vector_kernels.h; this TU also
// instantiates them at the baseline ISA as the scalar tier.
#include "tensor/channel_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

#include "tensor/ops.h"
#include "tensor/thread_pool.h"
#include "tensor/vector_kernels.h"

namespace podnet::tensor {
namespace {

using kernels::kBlock;
using kernels::on_level;

// An op forks onto the kernel pool once it streams this many floats. One
// parallel_for costs about 20 us of fork/join on a 4-vCPU AVX-512 host. On
// that host one thread streams 2^16 floats from outside L2 in 30 us
// (channel_mean) to 90 us (bias + swish), so from this size on the split
// saves more than the fork costs; at 2^15 the cheapest kernel is done in
// 15 us. A fixed cutoff derived from that measurement, like GEMM's 2^22
// flops; not a knob.
constexpr Index kParallelFloats = Index{1} << 16;

// bias_act runs the bias add and the activation over groups of about this
// many floats (16 KiB), so the activation re-reads what the add just wrote
// from L1.
constexpr Index kTailFloats = 4096;

// Runs fn(u0, u1) over [0, units): on the calling thread for small ops, or
// in claimed grains over ThreadPool::global().
template <typename Fn>
void split(Index units, Index floats, const Fn& fn) {
  if (floats < kParallelFloats) {
    if (units > 0) fn(0, units);
    return;
  }
  parallel_grains(ThreadPool::global(), units, fn);
}

// Runs fn(i0, len) over [0, n) floats through split(), in pieces that start
// at multiples of kBlock floats, so every element takes the vector-or-tail
// path it takes in one call over the whole span.
template <typename Fn>
void split_blocks(Index n, const Fn& fn) {
  split((n + kBlock - 1) / kBlock, n, [&](Index u0, Index u1) {
    const Index i0 = u0 * kBlock;
    fn(static_cast<std::size_t>(i0),
       static_cast<std::size_t>(std::min(n, u1 * kBlock) - i0));
  });
}

}  // namespace

void channel_mean(const float* x, Index n, Index hw, Index c, float* out) {
  const Index blocks = (c + kBlock - 1) / kBlock;
  on_level([&](auto lvl) {
    split(n * blocks, n * hw * c, [&](Index i0, Index i1) {
      kernels::channel_mean<decltype(lvl)::value>(x, hw, c, i0, i1, out);
    });
  });
}

void channel_scale(const float* x, const float* scale, Index n, Index hw,
                   Index c, float* y) {
  on_level([&](auto lvl) {
    split(n * hw, n * hw * c, [&](Index r0, Index r1) {
      kernels::channel_scale<decltype(lvl)::value>(x, scale, hw, c, r0, r1,
                                                   y);
    });
  });
}

void bn_scale_shift(const float* gamma, const float* beta, const float* mean,
                    const float* var, float eps, Index c, float* scale,
                    float* shift) {
  for (Index j = 0; j < c; ++j) {
    const float istd = 1.0f / std::sqrt(var[j] + eps);
    scale[j] = gamma[j] * istd;
    shift[j] = beta[j] - mean[j] * scale[j];
  }
}

void channel_affine(const float* x, const float* scale, const float* shift,
                    Index rows, Index c, float* y) {
  on_level([&](auto lvl) {
    split(rows, rows * c, [&](Index r0, Index r1) {
      kernels::channel_affine<decltype(lvl)::value>(x, scale, shift, c, r0,
                                                    r1, y);
    });
  });
}

void bias_act(const GemmEpilogue& tail, float* y, Index rows, Index cols,
              float* sig) {
  assert(tail.act != GemmEpilogue::Act::kSwish || sig != nullptr);
  if (rows <= 0 || cols <= 0) return;
  // Groups of whole rows that start at multiples of kBlock floats: the
  // activation call on a group then splits vector body from scalar tail
  // exactly where one call over the whole buffer would.
  const Index align = kBlock / std::gcd(cols, kBlock);
  const Index group = align * std::max<Index>(1, kTailFloats / (align * cols));
  on_level([&](auto lvl) {
    split((rows + group - 1) / group, rows * cols, [&](Index g0, Index g1) {
      for (Index r0 = g0 * group; r0 < std::min(rows, g1 * group);
           r0 += group) {
        const Index r1 = std::min(rows, r0 + group);
        if (tail.bias != nullptr) {
          kernels::bias<decltype(lvl)::value>(tail.bias, cols, r0, r1, y);
        }
        const std::size_t n = static_cast<std::size_t>((r1 - r0) * cols);
        float* yg = y + r0 * cols;
        if (tail.act == GemmEpilogue::Act::kSwish) {
          swish({yg, n}, {sig + r0 * cols, n}, {yg, n});
        } else if (tail.act == GemmEpilogue::Act::kRelu) {
          relu({yg, n}, {yg, n});
        }
      }
    });
  });
}

void add(std::span<const float> a, std::span<const float> b,
         std::span<float> y) {
  assert(a.size() == y.size() && b.size() == y.size());
  const Index n = static_cast<Index>(y.size());
  on_level([&](auto lvl) {
    split((n + kBlock - 1) / kBlock, n, [&](Index u0, Index u1) {
      kernels::add<decltype(lvl)::value>(a.data(), b.data(), u0 * kBlock,
                                         std::min(n, u1 * kBlock), y.data());
    });
  });
}

void column_sums(const float* a, const float* b, Index rows, Index c,
                 float* sum, float* sum_ab) {
  assert((b == nullptr) == (sum_ab == nullptr));
  if (rows <= 0 || c <= 0) return;
  const Index blocks = (c + kBlock - 1) / kBlock;
  const Index chunks = (rows + kSumChunkRows - 1) / kSumChunkRows;
  // Chunk 0 sums straight into sum and sum_ab, every later chunk into its
  // own zeroed partial ([sum | sum_ab] parts); the partials are added in
  // chunk order below.
  const Index width = b == nullptr ? c : 2 * c;
  std::vector<float> partials(static_cast<std::size_t>((chunks - 1) * width));
  on_level([&](auto lvl) {
    split(chunks * blocks, rows * c, [&](Index i0, Index i1) {
      for (Index i = i0; i < i1; ++i) {
        const Index k = i / blocks;
        const Index j0 = (i % blocks) * kBlock;
        float* s = k == 0 ? sum : partials.data() + (k - 1) * width;
        float* sab = b == nullptr ? nullptr : (k == 0 ? sum_ab : s + c) + j0;
        const Index r0 = k * kSumChunkRows;
        kernels::column_sums<decltype(lvl)::value>(
            a, b, c, r0, std::min(rows, r0 + kSumChunkRows), j0, s + j0, sab);
      }
    });
  });
  for (Index k = 1; k < chunks; ++k) {
    const float* p = partials.data() + (k - 1) * width;
    const std::size_t n = static_cast<std::size_t>(c);
    add_inplace({p, n}, {sum, n});
    if (b != nullptr) add_inplace({p + c, n}, {sum_ab, n});
  }
}

void bn_normalize(const float* x, const float* mean, const float* inv_std,
                  const float* gamma, const float* beta, Index rows, Index c,
                  float* xhat, float* y) {
  on_level([&](auto lvl) {
    split(rows, rows * c, [&](Index r0, Index r1) {
      kernels::bn_normalize<decltype(lvl)::value>(x, mean, inv_std, gamma,
                                                  beta, c, r0, r1, xhat, y);
    });
  });
}

void bn_backward_dx(const float* dy, const float* xhat, const float* k,
                    const float* a, const float* b, float inv_m, Index rows,
                    Index c, float* dx) {
  on_level([&](auto lvl) {
    split(rows, rows * c, [&](Index r0, Index r1) {
      kernels::bn_backward_dx<decltype(lvl)::value>(dy, xhat, k, a, b, inv_m,
                                                    c, r0, r1, dx);
    });
  });
}

void channel_dot(const float* x, const float* y, Index n, Index hw, Index c,
                 float* out) {
  const Index blocks = (c + kBlock - 1) / kBlock;
  on_level([&](auto lvl) {
    split(n * blocks, n * hw * c, [&](Index i0, Index i1) {
      kernels::channel_dot<decltype(lvl)::value>(x, y, hw, c, i0, i1, out);
    });
  });
}

void channel_scale_shift(const float* x, const float* s, const float* t,
                         Index n, Index hw, Index c, float* y) {
  on_level([&](auto lvl) {
    split(n * hw, n * hw * c, [&](Index r0, Index r1) {
      kernels::channel_scale_shift<decltype(lvl)::value>(x, s, t, hw, c, r0,
                                                         r1, y);
    });
  });
}

void parallel_swish(std::span<const float> x, std::span<float> sig,
                    std::span<float> y) {
  assert(x.size() == y.size() && sig.size() == y.size());
  split_blocks(std::ssize(y), [&](std::size_t i0, std::size_t len) {
    swish(x.subspan(i0, len), sig.subspan(i0, len), y.subspan(i0, len));
  });
}

void parallel_swish_backward(std::span<const float> g,
                             std::span<const float> x,
                             std::span<const float> sig,
                             std::span<float> out) {
  assert(g.size() == out.size() && x.size() == out.size() &&
         sig.size() == out.size());
  split_blocks(std::ssize(out), [&](std::size_t i0, std::size_t len) {
    swish_backward(g.subspan(i0, len), x.subspan(i0, len),
                   sig.subspan(i0, len), out.subspan(i0, len));
  });
}

}  // namespace podnet::tensor

PODNET_CHANNEL_KERNELS(template, ::podnet::tensor::simd::Level::kScalar)
