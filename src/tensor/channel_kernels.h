// Loop bodies of the per-channel kernel family in channel_ops.h, written
// once as plain loops over fixed kBlock-float blocks.
//
// Each dispatch tier's translation unit includes this header, compiles the
// bodies with its own flags and instantiates them for its simd::Level:
// channel_ops.cc at the baseline ISA, simd_avx2.cc with -mavx2 -mfma,
// simd_avx512.cc with -mavx512*. The compiler turns one 16-float block
// into four XMM, two YMM or one ZMM operation. The Level parameter only
// keeps the three instantiations apart; no body branches on it.
//
// An output may be an input at the same index (in-place use) but never
// overlaps one at another index. The fixed-length block loops assert that
// with `#pragma GCC ivdep`, so they vectorize at -O2 without a runtime
// alias check. Bodies call no inline helper that two tiers would share
// (blocked<F> is instantiated with closure types local to each tier's
// bodies): such a helper would be emitted once per tier and the linker
// could keep the copy built with the widest flags. The entry points are
// noinline for the same reason: channel_ops.cc sees every body, and must
// call the tier's instantiation rather than inline it at baseline flags.
//
// Private to the tensor library (the dispatching wrappers are the API).
#pragma once

#include <cstdint>

#include "tensor/simd.h"

namespace podnet::tensor::channel {

inline constexpr std::int64_t kBlock = 16;

// y[j] = f(j) for j in [0, n), one kBlock block at a time.
template <typename F>
inline void blocked(std::int64_t n, float* y, const F& f) {
  std::int64_t j = 0;
  for (; j + kBlock <= n; j += kBlock) {
#pragma GCC ivdep
    for (std::int64_t l = 0; l < kBlock; ++l) y[j + l] = f(j + l);
  }
  for (; j < n; ++j) y[j] = f(j);
}

// Channel mean of x [n, hw, c] for the (image, channel-block) items
// [i0, i1), item = image * blocks + block. Each channel sums its hw rows in
// row order into a zero-initialized float, then scales by 1/hw.
template <simd::Level L>
[[gnu::noinline]] void mean(const float* x, std::int64_t hw, std::int64_t c,
                            std::int64_t i0, std::int64_t i1, float* out) {
  const std::int64_t blocks = (c + kBlock - 1) / kBlock;
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::int64_t j0 = (i % blocks) * kBlock;
    const float* xb = x + (i / blocks) * hw * c + j0;
    float* ob = out + (i / blocks) * c + j0;
    float acc[kBlock] = {};
    if (c - j0 >= kBlock) {
      for (std::int64_t p = 0; p < hw; ++p) {
        for (std::int64_t l = 0; l < kBlock; ++l) acc[l] += xb[p * c + l];
      }
      for (std::int64_t l = 0; l < kBlock; ++l) ob[l] = acc[l] * inv;
    } else {
      const std::int64_t w = c - j0;
      for (std::int64_t p = 0; p < hw; ++p) {
        for (std::int64_t l = 0; l < w; ++l) acc[l] += xb[p * c + l];
      }
      for (std::int64_t l = 0; l < w; ++l) ob[l] = acc[l] * inv;
    }
  }
}

// y[r, j] = x[r, j] * s[r / hw, j] for pixel rows [r0, r1) of [n*hw, c].
template <simd::Level L>
[[gnu::noinline]] void scale(const float* x, const float* s, std::int64_t hw,
                             std::int64_t c, std::int64_t r0, std::int64_t r1,
                             float* y) {
  for (std::int64_t r = r0; r < r1;) {
    const std::int64_t image = r / hw;
    const std::int64_t end = (image + 1) * hw < r1 ? (image + 1) * hw : r1;
    const float* si = s + image * c;
    for (; r < end; ++r) {
      const float* xr = x + r * c;
      blocked(c, y + r * c, [&](std::int64_t j) { return xr[j] * si[j]; });
    }
  }
}

// y[r, j] = x[r, j] * s[j] + t[j] for rows [r0, r1). FMA tiers may contract
// the expression (one rounding instead of two).
template <simd::Level L>
[[gnu::noinline]] void affine(const float* x, const float* s, const float* t,
                              std::int64_t c, std::int64_t r0, std::int64_t r1,
                              float* y) {
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* xr = x + r * c;
    blocked(c, y + r * c,
            [&](std::int64_t j) { return xr[j] * s[j] + t[j]; });
  }
}

// y[r, j] += b[j] for rows [r0, r1).
template <simd::Level L>
[[gnu::noinline]] void bias(const float* b, std::int64_t c, std::int64_t r0,
                            std::int64_t r1, float* y) {
  for (std::int64_t r = r0; r < r1; ++r) {
    float* yr = y + r * c;
    blocked(c, yr, [&](std::int64_t j) { return yr[j] + b[j]; });
  }
}

// y[i] = a[i] + b[i] for i in [i0, i1).
template <simd::Level L>
[[gnu::noinline]] void add(const float* a, const float* b, std::int64_t i0,
                           std::int64_t i1, float* y) {
  blocked(i1 - i0, y + i0,
          [&](std::int64_t j) { return a[i0 + j] + b[i0 + j]; });
}

}  // namespace podnet::tensor::channel

// Explicit instantiation of every body for one level. A tier's TU states
// `PODNET_CHANNEL_KERNELS(template, <level>)` once; the extern form below
// keeps the other TUs from instantiating a tier with the wrong flags.
#define PODNET_CHANNEL_KERNELS(kw, L)                                         \
  namespace podnet::tensor::channel {                                         \
  kw void mean<L>(const float*, std::int64_t, std::int64_t, std::int64_t,    \
                  std::int64_t, float*);                                      \
  kw void scale<L>(const float*, const float*, std::int64_t, std::int64_t,   \
                   std::int64_t, std::int64_t, float*);                       \
  kw void affine<L>(const float*, const float*, const float*, std::int64_t,  \
                    std::int64_t, std::int64_t, float*);                      \
  kw void bias<L>(const float*, std::int64_t, std::int64_t, std::int64_t,    \
                  float*);                                                    \
  kw void add<L>(const float*, const float*, std::int64_t, std::int64_t,     \
                 float*);                                                     \
  }

PODNET_CHANNEL_KERNELS(extern template, ::podnet::tensor::simd::Level::kScalar)
#if defined(PODNET_HAVE_AVX2)
PODNET_CHANNEL_KERNELS(extern template, ::podnet::tensor::simd::Level::kAvx2)
#endif
#if defined(PODNET_HAVE_AVX512)
PODNET_CHANNEL_KERNELS(extern template, ::podnet::tensor::simd::Level::kAvx512)
#endif
