// Loop bodies of the vector kernels, written once as plain loops over fixed
// kBlock-float blocks: the elementwise, reduction and activation kernels of
// ops.h, the bf16 round of bf16.h, and the per-channel family of
// channel_ops.h.
//
// Each SIMD tier's translation unit includes this header, compiles the
// bodies with its own flags and instantiates them for its simd::Level:
// simd_avx2.cc with -mavx2 -mfma, simd_avx512.cc with -mavx512*. The
// compiler turns one 16-float block into two YMM or one ZMM operation.
// channel_ops.cc instantiates the per-channel family at the baseline ISA
// (four XMM operations per block) as its scalar tier; the scalar tier of
// the other kernels is the sequential reference loops in ops.cc and bf16.cc.
// The Level parameter only keeps the instantiations apart; no body branches
// on it.
//
// An output may be an input at the same index (in-place use) but never
// overlaps one at another index. The fixed-length block loops assert that
// with `#pragma GCC ivdep`, so they vectorize at -O2 without a runtime
// alias check. Bodies call no inline helper that two tiers would share
// (blocked<F> and reduce<F> are instantiated with closure types local to
// each tier's bodies): such a helper would be emitted once per tier and the
// linker could keep the copy built with the widest flags. The entry points
// are noinline for the same reason: the dispatching TUs see every body, and
// must call the tier's instantiation rather than inline it at baseline
// flags.
//
// The source, not the vector width, fixes every rounding, so the AVX2 and
// AVX-512 instantiations give bitwise equal results:
// - a fused multiply-add is written as std::fma, and no other product feeds
//   a sum (except in channel_affine and the per-channel training half,
//   documented there);
// - a reduction accumulates element j into lane j % kBlock, then folds the
//   lanes pairwise, 16 -> 8 -> 4 -> 2 -> 1 (the tree _mm512_reduce_add_pd
//   uses).
//
// Private to the tensor library (the dispatching wrappers are the API).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "tensor/simd.h"

namespace podnet::tensor::kernels {

inline constexpr std::int64_t kBlock = 16;

template <simd::Level L>
using LevelTag = std::integral_constant<simd::Level, L>;

// Calls fn(LevelTag<L>{}) for the active dispatch level, read once per op
// so every chunk of a split op runs the same tier.
template <typename Fn>
decltype(auto) on_level(const Fn& fn) {
  const simd::Level level = simd::active_level();
  (void)level;
#if defined(PODNET_HAVE_AVX512)
  if (level == simd::Level::kAvx512) {
    return fn(LevelTag<simd::Level::kAvx512>{});
  }
#endif
#if defined(PODNET_HAVE_AVX2)
  if (level >= simd::Level::kAvx2) return fn(LevelTag<simd::Level::kAvx2>{});
#endif
  return fn(LevelTag<simd::Level::kScalar>{});
}

// As on_level(vec), but runs the sequential reference ref() at the scalar
// tier.
template <typename Vec, typename Ref>
decltype(auto) on_level(const Vec& vec, const Ref& ref) {
  return on_level([&](auto lvl) {
    if constexpr (lvl() == simd::Level::kScalar) {
      return ref();
    } else {
      return vec(lvl);
    }
  });
}

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

// Folds acc = step(acc, in[i]...) over i in [0, n) into kBlock accumulators
// that start at init, element i into lane i % kBlock, then combines the
// lanes pairwise with fold(hi, lo): 16 -> 8 -> 4 -> 2 -> 1.
template <typename T, typename Step, typename Fold, typename... In>
inline T reduce(std::int64_t n, T init, const Step& step, const Fold& fold,
                const In*... in) {
  T acc[kBlock];
  for (T& a : acc) a = init;
  std::int64_t j = 0;
  for (; j + kBlock <= n; j += kBlock) {
    // Fully unrolled, so the accumulators stay in registers: without the
    // pragma GCC 12 at -O2 keeps the array on the stack at AVX2, and the
    // loop runs at about half speed. The block's own base pointer (not
    // in[j + l]) lets it vectorize the whole block at once.
#pragma GCC unroll 16
    for (std::int64_t l = 0; l < kBlock; ++l) {
      acc[l] = step(acc[l], (in + j)[l]...);
    }
  }
  for (std::int64_t l = 0; j + l < n; ++l) acc[l] = step(acc[l], in[j + l]...);
  for (std::int64_t w = kBlock / 2; w > 0; w /= 2) {
    for (std::int64_t l = 0; l < w; ++l) acc[l] = fold(acc[l + w], acc[l]);
  }
  return acc[0];
}

// ---- elementwise (see ops.h) ----

template <simd::Level L>
[[gnu::noinline]] void axpy(float alpha, const float* x, float* y,
                            std::int64_t n) {
  blocked(n, y, [&](std::int64_t i) { return std::fma(alpha, x[i], y[i]); });
}

template <simd::Level L>
[[gnu::noinline]] void axpby(float alpha, const float* x, float beta,
                             float* y, std::int64_t n) {
  blocked(n, y, [&](std::int64_t i) {
    return std::fma(alpha, x[i], beta * y[i]);
  });
}

template <simd::Level L>
[[gnu::noinline]] void scale(float alpha, float* x, std::int64_t n) {
  blocked(n, x, [&](std::int64_t i) { return alpha * x[i]; });
}

template <simd::Level L>
[[gnu::noinline]] void scale_copy(float alpha, const float* x, float* y,
                                  std::int64_t n) {
  blocked(n, y, [&](std::int64_t i) { return alpha * x[i]; });
}

template <simd::Level L>
[[gnu::noinline]] void add_inplace(const float* x, float* y, std::int64_t n) {
  blocked(n, y, [&](std::int64_t i) { return y[i] + x[i]; });
}

template <simd::Level L>
[[gnu::noinline]] void mul_inplace(const float* x, float* y, std::int64_t n) {
  blocked(n, y, [&](std::int64_t i) { return y[i] * x[i]; });
}

template <simd::Level L>
[[gnu::noinline]] void fma_inplace(const float* a, const float* b, float* y,
                                   std::int64_t n) {
  blocked(n, y, [&](std::int64_t i) { return std::fma(a[i], b[i], y[i]); });
}

// ---- reductions (see ops.h) ----

template <simd::Level L>
[[gnu::noinline]] double sum(const float* x, std::int64_t n) {
  return reduce(
      n, 0.0, [](double acc, float v) { return acc + static_cast<double>(v); },
      [](double hi, double lo) { return hi + lo; }, x);
}

template <simd::Level L>
[[gnu::noinline]] double sum_squares(const float* x, std::int64_t n) {
  return reduce(
      n, 0.0,
      [](double acc, float v) {
        const double d = v;
        return std::fma(d, d, acc);
      },
      [](double hi, double lo) { return hi + lo; }, x);
}

template <simd::Level L>
[[gnu::noinline]] double dot(const float* x, const float* y, std::int64_t n) {
  return reduce(
      n, 0.0,
      [](double acc, float a, float b) {
        return std::fma(static_cast<double>(a), static_cast<double>(b), acc);
      },
      [](double hi, double lo) { return hi + lo; }, x, y);
}

// The same lanes and fold as reduce(), written out: GCC 12 vectorizes this
// select as a loop (one ZMM or two YMM maxes per block, kept in registers),
// but not once the block is unrolled.
template <simd::Level L>
[[gnu::noinline]] float max_value(const float* x, std::int64_t n) {
  float acc[kBlock];
  for (float& a : acc) a = -std::numeric_limits<float>::infinity();
  std::int64_t j = 0;
  for (; j + kBlock <= n; j += kBlock) {
    for (std::int64_t l = 0; l < kBlock; ++l) {
      acc[l] = acc[l] > x[j + l] ? acc[l] : x[j + l];
    }
  }
  for (std::int64_t l = 0; j + l < n; ++l) {
    acc[l] = acc[l] > x[j + l] ? acc[l] : x[j + l];
  }
  for (std::int64_t w = kBlock / 2; w > 0; w /= 2) {
    for (std::int64_t l = 0; l < w; ++l) {
      acc[l] = acc[l + w] > acc[l] ? acc[l + w] : acc[l];
    }
  }
  return acc[0];
}

// A float is non-finite iff its exponent field is all-ones: an unsigned max
// over the masked bits decides without FP compares (NaN never poisons it).
template <simd::Level L>
[[gnu::noinline]] bool all_finite(const float* x, std::int64_t n) {
  constexpr std::uint32_t kExp = 0x7f800000u;
  const auto max = [](std::uint32_t a, std::uint32_t b) {
    return a > b ? a : b;
  };
  const auto step = [&](std::uint32_t acc, float v) {
    return max(acc, std::bit_cast<std::uint32_t>(v) & kExp);
  };
  return reduce(n, std::uint32_t{0}, step, max, x) != kExp;
}

// ---- activations (see ops.h) ----

// x <= 0 is false for NaN, which passes through, and true for -0, which
// becomes +0.
template <simd::Level L>
[[gnu::noinline]] void relu(const float* x, float* y, std::int64_t n) {
  blocked(n, y, [&](std::int64_t i) { return x[i] <= 0.f ? 0.f : x[i]; });
}

template <simd::Level L>
[[gnu::noinline]] void relu_backward(const float* g, const float* x,
                                     float* out, std::int64_t n) {
  blocked(n, out, [&](std::int64_t i) { return x[i] > 0.f ? g[i] : 0.f; });
}

template <simd::Level L>
[[gnu::noinline]] void swish_backward(const float* g, const float* x,
                                      const float* sig, float* out,
                                      std::int64_t n) {
  blocked(n, out, [&](std::int64_t i) {
    const float s = sig[i];
    return g[i] * (s * std::fma(x[i], 1.f - s, 1.f));
  });
}

template <simd::Level L>
[[gnu::noinline]] void sigmoid_backward(const float* g, const float* y,
                                        float* out, std::int64_t n) {
  blocked(n, out,
          [&](std::int64_t i) { return g[i] * (y[i] * (1.f - y[i])); });
}

// ---- bf16 (see bf16.h) ----

// Round-to-nearest-even through bf16 and back, bit-exact vs
// bf16::round_bits: add 0x7fff plus the lsb of the kept half, truncate. A
// NaN is truncated and keeps a mantissa bit so it stays NaN.
template <simd::Level L>
[[gnu::noinline]] void bf16_round(float* x, std::int64_t n) {
  blocked(n, x, [&](std::int64_t i) {
    const std::uint32_t u = std::bit_cast<std::uint32_t>(x[i]);
    const std::uint32_t rounded =
        (u + 0x7fffu + ((u >> 16) & 1u)) & 0xffff0000u;
    const std::uint32_t nan = (u & 0xffff0000u) | 0x00400000u;
    // |u| fits in an int32, so the NaN test can be a signed compare.
    const bool is_nan =
        static_cast<std::int32_t>(u & 0x7fffffffu) > 0x7f800000;
    return std::bit_cast<float>(is_nan ? nan : rounded);
  });
}

// ---- per-channel family (see channel_ops.h) ----

// Channel mean of x [n, hw, c] for the (image, channel-block) items
// [i0, i1), item = image * blocks + block. Each channel sums its hw rows in
// row order into a zero-initialized float, then scales by 1/hw.
template <simd::Level L>
[[gnu::noinline]] void channel_mean(const float* x, std::int64_t hw,
                                    std::int64_t c, std::int64_t i0,
                                    std::int64_t i1, float* out) {
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
[[gnu::noinline]] void channel_scale(const float* x, const float* s,
                                     std::int64_t hw, std::int64_t c,
                                     std::int64_t r0, std::int64_t r1,
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
[[gnu::noinline]] void channel_affine(const float* x, const float* s,
                                      const float* t, std::int64_t c,
                                      std::int64_t r0, std::int64_t r1,
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

// ---- per-channel family, training half (see channel_ops.h) ----
//
// A product that feeds a sum here (x*x, dy*x, x*s + t, ...) is written as
// one, as channel_affine's is: the baseline tier rounds it twice, exactly
// as the nn:: loops these bodies replace did, and the FMA tiers contract it
// into one rounding. Both FMA tiers compile the same source to the same
// contractions, so AVX2 and AVX-512 stay bitwise equal (SimdCrossTierTest).

// Column sums of rows [r0, r1) of [rows, c] for the channel block at j0:
// s[l] += sum_r a[r, j0 + l] and, when b is set, sab[l] += sum_r
// a[r, j0 + l] * b[r, j0 + l] (b may be a). s and sab point at the block;
// each channel sums its rows in row order, starting from s and sab.
template <simd::Level L>
[[gnu::noinline]] void column_sums(const float* a, const float* b,
                                   std::int64_t c, std::int64_t r0,
                                   std::int64_t r1, std::int64_t j0, float* s,
                                   float* sab) {
  const std::int64_t w = c - j0 < kBlock ? c - j0 : kBlock;
  const float* ab = a + j0;
  // out[l] = step(out[l], r * c + l) over the rows, in row order. The two
  // sums run as two passes with one accumulator array each: GCC 12 keeps
  // one array in registers but spills a pair of them to the stack at AVX2.
  // The second pass re-reads the block's rows from L1.
  const auto pass = [&](float* out, const auto& step) {
    float acc[kBlock] = {};
    for (std::int64_t l = 0; l < w; ++l) acc[l] = out[l];
    if (w == kBlock) {
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t l = 0; l < kBlock; ++l) {
          acc[l] = step(acc[l], r * c + l);
        }
      }
    } else {
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t l = 0; l < w; ++l) acc[l] = step(acc[l], r * c + l);
      }
    }
    for (std::int64_t l = 0; l < w; ++l) out[l] = acc[l];
  };
  pass(s, [&](float acc, std::int64_t i) { return acc + ab[i]; });
  if (b != nullptr) {
    const float* bb = b + j0;
    pass(sab, [&](float acc, std::int64_t i) { return acc + ab[i] * bb[i]; });
  }
}

// BN training normalize + affine for rows [r0, r1): xhat = (x - mean) *
// istd, y = gamma * xhat + beta, per channel.
template <simd::Level L>
[[gnu::noinline]] void bn_normalize(const float* x, const float* mean,
                                    const float* istd, const float* gamma,
                                    const float* beta, std::int64_t c,
                                    std::int64_t r0, std::int64_t r1,
                                    float* xhat, float* y) {
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* xr = x + r * c;
    float* hr = xhat + r * c;
    blocked(c, hr,
            [&](std::int64_t j) { return (xr[j] - mean[j]) * istd[j]; });
    blocked(c, y + r * c,
            [&](std::int64_t j) { return gamma[j] * hr[j] + beta[j]; });
  }
}

// BN training backward for rows [r0, r1): dx = k * ((dy - a) - xhat *
// inv_m * b) with per-channel k, a, b (see channel_ops.h).
template <simd::Level L>
[[gnu::noinline]] void bn_backward_dx(const float* dy, const float* xhat,
                                      const float* k, const float* a,
                                      const float* b, float inv_m,
                                      std::int64_t c, std::int64_t r0,
                                      std::int64_t r1, float* dx) {
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* gr = dy + r * c;
    const float* hr = xhat + r * c;
    blocked(c, dx + r * c, [&](std::int64_t j) {
      return k[j] * ((gr[j] - a[j]) - hr[j] * inv_m * b[j]);
    });
  }
}

// out[image, j] = sum over p of x[image, p, j] * y[image, p, j] for the
// (image, channel-block) items [i0, i1), as channel_mean walks them: each
// channel sums its hw rows in row order into a zero-initialized float.
template <simd::Level L>
[[gnu::noinline]] void channel_dot(const float* x, const float* y,
                                   std::int64_t hw, std::int64_t c,
                                   std::int64_t i0, std::int64_t i1,
                                   float* out) {
  const std::int64_t blocks = (c + kBlock - 1) / kBlock;
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::int64_t j0 = (i % blocks) * kBlock;
    const std::int64_t off = (i / blocks) * hw * c + j0;
    const float* xb = x + off;
    const float* yb = y + off;
    float* ob = out + (i / blocks) * c + j0;
    float acc[kBlock] = {};
    if (c - j0 >= kBlock) {
      for (std::int64_t p = 0; p < hw; ++p) {
        for (std::int64_t l = 0; l < kBlock; ++l) {
          acc[l] += xb[p * c + l] * yb[p * c + l];
        }
      }
      for (std::int64_t l = 0; l < kBlock; ++l) ob[l] = acc[l];
    } else {
      const std::int64_t w = c - j0;
      for (std::int64_t p = 0; p < hw; ++p) {
        for (std::int64_t l = 0; l < w; ++l) {
          acc[l] += xb[p * c + l] * yb[p * c + l];
        }
      }
      for (std::int64_t l = 0; l < w; ++l) ob[l] = acc[l];
    }
  }
}

// y[r, j] = x[r, j] * s[r / hw, j] + t[r / hw, j] for pixel rows [r0, r1)
// of [n*hw, c]; with x null, y[r, j] = t[r / hw, j].
template <simd::Level L>
[[gnu::noinline]] void channel_scale_shift(const float* x, const float* s,
                                           const float* t, std::int64_t hw,
                                           std::int64_t c, std::int64_t r0,
                                           std::int64_t r1, float* y) {
  for (std::int64_t r = r0; r < r1;) {
    const std::int64_t image = r / hw;
    const std::int64_t end = (image + 1) * hw < r1 ? (image + 1) * hw : r1;
    const float* ti = t + image * c;
    if (x == nullptr) {
      for (; r < end; ++r) {
        blocked(c, y + r * c, [&](std::int64_t j) { return ti[j]; });
      }
    } else {
      const float* si = s + image * c;
      for (; r < end; ++r) {
        const float* xr = x + r * c;
        blocked(c, y + r * c,
                [&](std::int64_t j) { return xr[j] * si[j] + ti[j]; });
      }
    }
  }
}

}  // namespace podnet::tensor::kernels

// Explicit instantiation of the bodies for one level. A SIMD tier's TU
// states `PODNET_VECTOR_KERNELS(template, <level>)` once, and channel_ops.cc
// states PODNET_CHANNEL_KERNELS, the per-channel family alone, for the
// scalar tier; the extern forms below keep the other TUs from instantiating
// a tier with the wrong flags.
#define PODNET_CHANNEL_KERNELS(kw, L)                                         \
  namespace podnet::tensor::kernels {                                         \
  kw void channel_mean<L>(const float*, std::int64_t, std::int64_t,          \
                          std::int64_t, std::int64_t, float*);                \
  kw void channel_scale<L>(const float*, const float*, std::int64_t,         \
                           std::int64_t, std::int64_t, std::int64_t, float*); \
  kw void channel_affine<L>(const float*, const float*, const float*,        \
                            std::int64_t, std::int64_t, std::int64_t,         \
                            float*);                                          \
  kw void bias<L>(const float*, std::int64_t, std::int64_t, std::int64_t,    \
                  float*);                                                    \
  kw void add<L>(const float*, const float*, std::int64_t, std::int64_t,     \
                 float*);                                                     \
  kw void column_sums<L>(const float*, const float*, std::int64_t,           \
                         std::int64_t, std::int64_t, std::int64_t, float*,    \
                         float*);                                             \
  kw void bn_normalize<L>(const float*, const float*, const float*,          \
                          const float*, const float*, std::int64_t,           \
                          std::int64_t, std::int64_t, float*, float*);        \
  kw void bn_backward_dx<L>(const float*, const float*, const float*,        \
                            const float*, const float*, float, std::int64_t,  \
                            std::int64_t, std::int64_t, float*);              \
  kw void channel_dot<L>(const float*, const float*, std::int64_t,           \
                         std::int64_t, std::int64_t, std::int64_t, float*);   \
  kw void channel_scale_shift<L>(const float*, const float*, const float*,   \
                                 std::int64_t, std::int64_t, std::int64_t,    \
                                 std::int64_t, float*);                       \
  }

#define PODNET_VECTOR_KERNELS(kw, L)                                          \
  PODNET_CHANNEL_KERNELS(kw, L)                                               \
  namespace podnet::tensor::kernels {                                         \
  kw void axpy<L>(float, const float*, float*, std::int64_t);                 \
  kw void axpby<L>(float, const float*, float, float*, std::int64_t);         \
  kw void scale<L>(float, float*, std::int64_t);                              \
  kw void scale_copy<L>(float, const float*, float*, std::int64_t);           \
  kw void add_inplace<L>(const float*, float*, std::int64_t);                 \
  kw void mul_inplace<L>(const float*, float*, std::int64_t);                 \
  kw void fma_inplace<L>(const float*, const float*, float*, std::int64_t);   \
  kw double sum<L>(const float*, std::int64_t);                               \
  kw double sum_squares<L>(const float*, std::int64_t);                       \
  kw double dot<L>(const float*, const float*, std::int64_t);                 \
  kw float max_value<L>(const float*, std::int64_t);                          \
  kw bool all_finite<L>(const float*, std::int64_t);                          \
  kw void relu<L>(const float*, float*, std::int64_t);                        \
  kw void relu_backward<L>(const float*, const float*, float*, std::int64_t); \
  kw void swish_backward<L>(const float*, const float*, const float*, float*, \
                            std::int64_t);                                    \
  kw void sigmoid_backward<L>(const float*, const float*, float*,            \
                              std::int64_t);                                  \
  kw void bf16_round<L>(float*, std::int64_t);                                \
  }

PODNET_CHANNEL_KERNELS(extern template, ::podnet::tensor::simd::Level::kScalar)
#if defined(PODNET_HAVE_AVX2)
PODNET_VECTOR_KERNELS(extern template, ::podnet::tensor::simd::Level::kAvx2)
#endif
#if defined(PODNET_HAVE_AVX512)
PODNET_VECTOR_KERNELS(extern template, ::podnet::tensor::simd::Level::kAvx512)
#endif
