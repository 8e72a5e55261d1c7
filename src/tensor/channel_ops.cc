// Dispatch and thread split for the per-channel kernel family
// (channel_ops.h). The loop bodies live in vector_kernels.h; this TU also
// instantiates them at the baseline ISA as the scalar tier.
#include "tensor/channel_ops.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <numeric>

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

// A split op hands out its units in grains of about 1/kGrainsPerThread of
// one thread's share; every participating thread claims grains until none
// are left. A thread the OS runs late (another process on its vCPU) then
// delays one grain instead of a fixed quarter of the op.
constexpr Index kGrainsPerThread = 4;

// Runs fn(u0, u1) over [0, units): on the calling thread for small ops, or
// in claimed grains over ThreadPool::global().
template <typename Fn>
void split(Index units, Index floats, const Fn& fn) {
  if (units <= 0) return;
  ThreadPool& pool = ThreadPool::global();
  const Index threads = pool.worker_count() + 1;
  if (units == 1 || floats < kParallelFloats || threads == 1) {
    fn(0, units);
    return;
  }
  const Index grain = std::max<Index>(1, units / (kGrainsPerThread * threads));
  std::atomic<Index> next{0};
  pool.parallel_for(threads, [&](Index, Index) {
    for (Index u0 = next.fetch_add(grain, std::memory_order_relaxed);
         u0 < units; u0 = next.fetch_add(grain, std::memory_order_relaxed)) {
      fn(u0, std::min(units, u0 + grain));
    }
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

}  // namespace podnet::tensor

PODNET_CHANNEL_KERNELS(template, ::podnet::tensor::simd::Level::kScalar)
