// AVX2/FMA tier: the shared vector kernels of vector_kernels.h
// instantiated with this TU's flags, plus the hand-written kernels declared
// in simd.h and conv_direct.h.
//
// This translation unit is compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt); nothing here may be called unless
// simd::active_level() == Level::kAvx2, which implies the cpuid/xgetbv
// check in simd.cc passed. Everything else in the tensor library is built
// with the project's baseline flags, so a PODNET_NATIVE=OFF binary still
// runs on CPUs without AVX2 — it simply never jumps in here.
#include "tensor/simd.h"

#if defined(PODNET_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <vector>

#include "tensor/conv_direct.h"
#include "tensor/vector_kernels.h"

namespace podnet::tensor::simd {
namespace avx2 {

// ---------------------------------------------------------------------------
// expf — Cephes-style polynomial, the standard AVX port. Max error vs
// std::expf is ~1-2 ulp over the clamped range; inputs outside
// [-88.38, 88.38] saturate to the boundary value (finite). A NaN stays
// NaN: min/max return their second operand when either is NaN, so x goes
// last in both. The conv::avx2 kernels below share it for the fused swish
// epilogue.
// ---------------------------------------------------------------------------

__m256 exp256_ps(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_max_ps(lo, _mm256_min_ps(hi, x));

  // n = round(x / ln2); x -= n * ln2 (split constant for accuracy).
  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = p0;
  y = _mm256_fmadd_ps(y, x, p1);
  y = _mm256_fmadd_ps(y, x, p2);
  y = _mm256_fmadd_ps(y, x, p3);
  y = _mm256_fmadd_ps(y, x, p4);
  y = _mm256_fmadd_ps(y, x, p5);
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  // y * 2^n via exponent-field construction.
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

float exp_scalar_tail(float x) {
  // Tail elements use the same clamped polynomial path via a 1-lane
  // vector so vector and tail lanes agree bit-for-bit.
  const __m256 v = exp256_ps(_mm256_set1_ps(x));
  return _mm_cvtss_f32(_mm256_castps256_ps128(v));
}

}  // namespace avx2

// ---------------------------------------------------------------------------
// Activations on the polynomial exp
// ---------------------------------------------------------------------------

template <>
void sigmoid<Level::kAvx2>(const float* x, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = avx2::exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), v));
    _mm256_storeu_ps(y + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  }
  // 0 - x, as the vector lanes compute it: -x would flip a NaN's sign.
  for (; i < n; ++i) {
    y[i] = 1.0f / (1.0f + avx2::exp_scalar_tail(0.0f - x[i]));
  }
}

template <>
void swish<Level::kAvx2>(const float* x, float* sig, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = avx2::exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), v));
    const __m256 s = _mm256_div_ps(one, _mm256_add_ps(one, e));
    _mm256_storeu_ps(sig + i, s);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(v, s));
  }
  for (; i < n; ++i) {
    sig[i] = 1.0f / (1.0f + avx2::exp_scalar_tail(0.0f - x[i]));
    y[i] = x[i] * sig[i];
  }
}

template <>
void exp_sub<Level::kAvx2>(float* row, std::size_t n, float m) {
  const __m256 vm = _mm256_set1_ps(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i, avx2::exp256_ps(_mm256_sub_ps(
                                  _mm256_loadu_ps(row + i), vm)));
  }
  for (; i < n; ++i) row[i] = avx2::exp_scalar_tail(row[i] - m);
}

namespace avx2 {

// ---------------------------------------------------------------------------
// GEMM: register-blocked 6x16 FMA microkernel over packed panels.
//
//   B is packed into kNr(=16)-column panels spanning all of K, zero-padded
//   in the last panel; A is packed per (MC x KC) block into kMr(=6)-row
//   panels, zero-padded in the last panel. The microkernel keeps a 6x16
//   accumulator tile in 12 ymm registers and streams both panels.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kKc = 256;  // K block: B panel slice stays in L1/L2
constexpr std::int64_t kMc = 120;  // M block: A pack (kMc x kKc) fits in L2

// C[6,16] tile: c_tile += alpha * sum_p A[p,0..5] * B[p,0..15].
// rows/cols give the valid extent (tails); full tiles store with vector
// FMA, tails spill through a stack buffer.
void micro_6x16(std::int64_t kc, const float* ap, const float* bp, float alpha,
                float* c, std::int64_t ldc, std::int64_t rows,
                std::int64_t cols) {
  __m256 acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNr + 8);
    const float* a = ap + p * kMr;
    for (int r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_set1_ps(a[r]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  const __m256 va = _mm256_set1_ps(alpha);
  if (cols == kNr) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc;
      _mm256_storeu_ps(crow,
                       _mm256_fmadd_ps(va, acc[r][0], _mm256_loadu_ps(crow)));
      _mm256_storeu_ps(
          crow + 8, _mm256_fmadd_ps(va, acc[r][1], _mm256_loadu_ps(crow + 8)));
    }
  } else {
    alignas(32) float spill[kNr];
    for (std::int64_t r = 0; r < rows; ++r) {
      _mm256_store_ps(spill, acc[r][0]);
      _mm256_store_ps(spill + 8, acc[r][1]);
      float* crow = c + r * ldc;
      for (std::int64_t j = 0; j < cols; ++j) {
        crow[j] = std::fma(alpha, spill[j], crow[j]);
      }
    }
  }
}

// Packs rows [i0, i0+mc) x K-slice [kb, kb+kc) of op(A) into kMr-row
// panels: dst[panel][p*kMr + r], padded rows zeroed.
void pack_a_block(bool trans_a, std::int64_t i0, std::int64_t mc,
                  std::int64_t kb, std::int64_t kc, const float* a,
                  std::int64_t lda, float* dst) {
  const std::int64_t panels = (mc + kMr - 1) / kMr;
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    const std::int64_t rows = std::min<std::int64_t>(kMr, mc - ip * kMr);
    float* base = dst + ip * kMr * kc;
    if (!trans_a) {
      for (std::int64_t p = 0; p < kc; ++p) {
        float* d = base + p * kMr;
        for (std::int64_t r = 0; r < rows; ++r) {
          d[r] = a[(i0 + ip * kMr + r) * lda + kb + p];
        }
        for (std::int64_t r = rows; r < kMr; ++r) d[r] = 0.f;
      }
    } else {
      // A stored k x m: row p of the slice is contiguous in memory.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* s = a + (kb + p) * lda + i0 + ip * kMr;
        float* d = base + p * kMr;
        for (std::int64_t r = 0; r < rows; ++r) d[r] = s[r];
        for (std::int64_t r = rows; r < kMr; ++r) d[r] = 0.f;
      }
    }
  }
}

}  // namespace

std::size_t packed_b_size(std::int64_t k, std::int64_t n) {
  const std::int64_t n_panels = (n + kNr - 1) / kNr;
  return static_cast<std::size_t>(n_panels * kNr * k);
}

void pack_b(bool trans_b, std::int64_t k, std::int64_t n, const float* b,
            std::int64_t ldb, bool to_bf16, float* dst) {
  const std::int64_t n_panels = (n + kNr - 1) / kNr;
  for (std::int64_t jp = 0; jp < n_panels; ++jp) {
    const std::int64_t cols = std::min<std::int64_t>(kNr, n - jp * kNr);
    float* base = dst + jp * kNr * k;
    if (!trans_b) {
      for (std::int64_t p = 0; p < k; ++p) {
        const float* s = b + p * ldb + jp * kNr;
        float* d = base + p * kNr;
        for (std::int64_t j = 0; j < cols; ++j) d[j] = s[j];
        for (std::int64_t j = cols; j < kNr; ++j) d[j] = 0.f;
      }
    } else {
      // B stored n x k: column j of op(B) is row j of storage.
      for (std::int64_t p = 0; p < k; ++p) {
        float* d = base + p * kNr;
        for (std::int64_t j = 0; j < cols; ++j) {
          d[j] = b[(jp * kNr + j) * ldb + p];
        }
        for (std::int64_t j = cols; j < kNr; ++j) d[j] = 0.f;
      }
    }
  }
  if (to_bf16) kernels::bf16_round<Level::kAvx2>(dst, n_panels * kNr * k);
}

// One tile of the 2D (rows x panels) grid the scheduler in gemm.cc carves
// the product into: rows [m0, m1) x B panels [jp0, jp1). The beta pre-pass
// has already happened there. A is packed per (MC x KC) block into a
// thread_local buffer, so concurrent tiles never share pack state, and the
// per-element accumulation order (kb ascending, kc in-register) does not
// depend on the tile boundaries — the result is grid- and
// thread-count-independent.
void gemm_tile(bool trans_a, std::int64_t m0, std::int64_t m1,
               std::int64_t jp0, std::int64_t jp1, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* packed_b, float* c, std::int64_t ldc,
               bool to_bf16) {
  thread_local std::vector<float> a_panels;
  for (std::int64_t kb = 0; kb < k; kb += kKc) {
    const std::int64_t kc = std::min(kKc, k - kb);
    for (std::int64_t ic = m0; ic < m1; ic += kMc) {
      const std::int64_t mc = std::min(kMc, m1 - ic);
      const std::int64_t m_panels = (mc + kMr - 1) / kMr;
      a_panels.resize(static_cast<std::size_t>(m_panels * kMr * kc));
      pack_a_block(trans_a, ic, mc, kb, kc, a, lda, a_panels.data());
      if (to_bf16) {
        kernels::bf16_round<Level::kAvx2>(a_panels.data(),
                                          std::ssize(a_panels));
      }
      for (std::int64_t ip = 0; ip < m_panels; ++ip) {
        const std::int64_t rows = std::min<std::int64_t>(kMr, mc - ip * kMr);
        const float* ap = a_panels.data() + ip * kMr * kc;
        for (std::int64_t jp = jp0; jp < jp1; ++jp) {
          const std::int64_t cols = std::min<std::int64_t>(kNr, n - jp * kNr);
          const float* bp = packed_b + jp * kNr * k + kb * kNr;
          micro_6x16(kc, ap, bp, alpha, c + (ic + ip * kMr) * ldc + jp * kNr,
                     ldc, rows, cols);
        }
      }
    }
  }
}

}  // namespace avx2
}  // namespace podnet::tensor::simd

// ---------------------------------------------------------------------------
// Direct convolution kernels (see conv_direct.h). Same TU so they share the
// exp256_ps polynomial with the activation kernels above.
// ---------------------------------------------------------------------------

namespace podnet::tensor::conv::avx2 {
namespace {

namespace sa = podnet::tensor::simd::avx2;

// Lane mask for an n-float tail (n in [0, 8)): lane j active iff j < n.
__m256i tail_mask(std::int64_t n) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), idx);
}

}  // namespace

void depthwise_forward_rows(const ConvGeometry& g, const float* x,
                            const float* w, float* y, std::int64_t row0,
                            std::int64_t row1) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t n = row / g.out_h;
    const std::int64_t oh = row % g.out_h;
    const std::int64_t ih0 = oh * g.stride - g.pad_top;
    const std::int64_t kh_lo = ih0 < 0 ? -ih0 : 0;
    const std::int64_t kh_hi = std::min<std::int64_t>(K, g.in_h - ih0);
    float* out_row = y + row * g.out_w * C;

    // General single-pixel path: handles every stride/kernel/boundary
    // combination; also finishes the boundary columns of the fast path.
    auto pixel = [&](std::int64_t ow) {
      const std::int64_t iw0 = ow * g.stride - g.pad_left;
      const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
      float* out = out_row + ow * C;
      // The accumulator block lives in registers across all taps: one
      // store per 16 channels instead of a load+store per tap.
      std::int64_t c = 0;
      for (; c + 16 <= C; c += 16) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C + c;
          const float* w_base = w + kh * K * C + c;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(in_base + kw * C),
                                   _mm256_loadu_ps(w_base + kw * C), acc0);
            acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(in_base + kw * C + 8),
                                   _mm256_loadu_ps(w_base + kw * C + 8), acc1);
          }
        }
        _mm256_storeu_ps(out + c, acc0);
        _mm256_storeu_ps(out + c + 8, acc1);
      }
      for (; c + 8 <= C; c += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C + c;
          const float* w_base = w + kh * K * C + c;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(in_base + kw * C),
                                  _mm256_loadu_ps(w_base + kw * C), acc);
          }
        }
        _mm256_storeu_ps(out + c, acc);
      }
      for (; c < C; ++c) {
        float acc = 0.f;
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C;
          const float* w_base = w + kh * K * C;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc = std::fma(in_base[kw * C + c], w_base[kw * C + c], acc);
          }
        }
        out[c] = acc;
      }
    };

    // Stride-1 3x3 interior fast path: all nine weight vectors of an
    // 8-channel block stay in registers across the whole output row,
    // halving the load traffic of the general path (which re-reads a
    // weight vector per tap per pixel — the bottleneck, since two loads
    // feed every FMA). Tap order (kh, kw ascending, single accumulator
    // per lane) matches the general path, so results are bit-identical.
    const std::int64_t ow_lo = std::min<std::int64_t>(g.pad_left, g.out_w);
    const std::int64_t ow_hi =
        std::min<std::int64_t>(g.in_w + g.pad_left - (K - 1), g.out_w);
    if (g.stride == 1 && K == 3 && kh_lo == 0 && kh_hi == K &&
        ow_hi - ow_lo >= 8) {
      for (std::int64_t ow = 0; ow < ow_lo; ++ow) pixel(ow);
      for (std::int64_t ow = std::max<std::int64_t>(ow_hi, ow_lo);
           ow < g.out_w; ++ow) {
        pixel(ow);
      }
      const float* r0 = x + ((n * g.in_h + ih0) * g.in_w) * C;
      const float* r1 = r0 + g.in_w * C;
      const float* r2 = r1 + g.in_w * C;
      std::int64_t c = 0;
      for (; c + 8 <= C; c += 8) {
        __m256 wv[9];
        for (int t = 0; t < 9; ++t) wv[t] = _mm256_loadu_ps(w + t * C + c);
        for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
          const std::int64_t i0 = (ow - g.pad_left) * C + c;
          __m256 acc = _mm256_setzero_ps();
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i0), wv[0], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i0 + C), wv[1], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i0 + 2 * C), wv[2], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i0), wv[3], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i0 + C), wv[4], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i0 + 2 * C), wv[5], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i0), wv[6], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i0 + C), wv[7], acc);
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i0 + 2 * C), wv[8], acc);
          _mm256_storeu_ps(out_row + ow * C + c, acc);
        }
      }
      for (; c < C; ++c) {
        for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
          const std::int64_t i0 = (ow - g.pad_left) * C + c;
          float acc = 0.f;
          acc = std::fma(r0[i0], w[0 * C + c], acc);
          acc = std::fma(r0[i0 + C], w[1 * C + c], acc);
          acc = std::fma(r0[i0 + 2 * C], w[2 * C + c], acc);
          acc = std::fma(r1[i0], w[3 * C + c], acc);
          acc = std::fma(r1[i0 + C], w[4 * C + c], acc);
          acc = std::fma(r1[i0 + 2 * C], w[5 * C + c], acc);
          acc = std::fma(r2[i0], w[6 * C + c], acc);
          acc = std::fma(r2[i0 + C], w[7 * C + c], acc);
          acc = std::fma(r2[i0 + 2 * C], w[8 * C + c], acc);
          out_row[ow * C + c] = acc;
        }
      }
      continue;
    }
    for (std::int64_t ow = 0; ow < g.out_w; ++ow) pixel(ow);
  }
}

void depthwise_backward(const ConvGeometry& g, const float* x, const float* w,
                        const float* grad_out, float* dx, float* dw) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  assert(K <= 7);
  // Channel-block x kernel-row outer loops: a full row of dW accumulators
  // (up to 7 vectors) plus the matching weight row stay in registers
  // across the whole image, so dW touches memory once per tap per block.
  std::int64_t c = 0;
  for (; c + 8 <= C; c += 8) {
    for (std::int64_t kh = 0; kh < K; ++kh) {
      __m256 dwacc[7];
      __m256 wv[7];
      for (std::int64_t kw = 0; kw < K; ++kw) {
        dwacc[kw] = _mm256_setzero_ps();
        wv[kw] = _mm256_loadu_ps(w + (kh * K + kw) * C + c);
      }
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
          const std::int64_t ih = oh * g.stride - g.pad_top + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          const float* g_row = grad_out + (n * g.out_h + oh) * g.out_w * C;
          const float* x_row = x + (n * g.in_h + ih) * g.in_w * C;
          float* dx_row = dx + (n * g.in_h + ih) * g.in_w * C;
          for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
            const __m256 gv = _mm256_loadu_ps(g_row + ow * C + c);
            const std::int64_t iw0 = ow * g.stride - g.pad_left;
            const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
            const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
            for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
              const std::int64_t off = (iw0 + kw) * C + c;
              dwacc[kw] =
                  _mm256_fmadd_ps(_mm256_loadu_ps(x_row + off), gv, dwacc[kw]);
              _mm256_storeu_ps(
                  dx_row + off,
                  _mm256_fmadd_ps(wv[kw], gv, _mm256_loadu_ps(dx_row + off)));
            }
          }
        }
      }
      for (std::int64_t kw = 0; kw < K; ++kw) {
        float* d = dw + (kh * K + kw) * C + c;
        _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), dwacc[kw]));
      }
    }
  }
  // Channel tail: scalar, same loop structure.
  for (; c < C; ++c) {
    for (std::int64_t kh = 0; kh < K; ++kh) {
      float dwacc[7] = {};
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
          const std::int64_t ih = oh * g.stride - g.pad_top + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          const float* g_row = grad_out + (n * g.out_h + oh) * g.out_w * C;
          const float* x_row = x + (n * g.in_h + ih) * g.in_w * C;
          float* dx_row = dx + (n * g.in_h + ih) * g.in_w * C;
          for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
            const float gv = g_row[ow * C + c];
            const std::int64_t iw0 = ow * g.stride - g.pad_left;
            const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
            const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
            for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
              const std::int64_t off = (iw0 + kw) * C + c;
              dwacc[kw] = std::fma(x_row[off], gv, dwacc[kw]);
              dx_row[off] = std::fma(w[(kh * K + kw) * C + c], gv, dx_row[off]);
            }
          }
        }
      }
      for (std::int64_t kw = 0; kw < K; ++kw) {
        dw[(kh * K + kw) * C + c] += dwacc[kw];
      }
    }
  }
}

void conv2d_direct_rows(const ConvGeometry& g, std::int64_t out_c,
                        const float* x, const float* w, const float* bias,
                        Epilogue epilogue, float* y, std::int64_t row0,
                        std::int64_t row1) {
  const std::int64_t C = g.in_c;
  const std::int64_t K = g.kernel_h;
  const __m256 one = _mm256_set1_ps(1.0f);
  for (std::int64_t row = row0; row < row1; ++row) {
    const std::int64_t n = row / g.out_h;
    const std::int64_t oh = row % g.out_h;
    const std::int64_t ih0 = oh * g.stride - g.pad_top;
    const std::int64_t kh_lo = ih0 < 0 ? -ih0 : 0;
    const std::int64_t kh_hi = std::min<std::int64_t>(K, g.in_h - ih0);
    float* out_row = y + row * g.out_w * out_c;
    for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
      const std::int64_t iw0 = ow * g.stride - g.pad_left;
      const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
      float* out = out_row + ow * out_c;
      // Up to 64 output channels (8 ymm accumulators) per pixel stay in
      // registers while the Kh x Kw x in_c taps stream by; HWIO weights
      // make the out_c axis a contiguous vector load and x a broadcast.
      for (std::int64_t co0 = 0; co0 < out_c; co0 += 64) {
        const std::int64_t oc = std::min<std::int64_t>(64, out_c - co0);
        const std::int64_t full = oc / 8;
        const std::int64_t rem = oc % 8;
        const __m256i mask = tail_mask(rem);
        __m256 acc[8];
        const std::int64_t nvec = full + (rem ? 1 : 0);
        for (std::int64_t j = 0; j < nvec; ++j) acc[j] = _mm256_setzero_ps();
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_row =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            const float* in = in_row + kw * C;
            const float* wk = w + (kh * K + kw) * C * out_c + co0;
            for (std::int64_t ci = 0; ci < C; ++ci) {
              const __m256 xv = _mm256_set1_ps(in[ci]);
              const float* wr = wk + ci * out_c;
              for (std::int64_t j = 0; j < full; ++j) {
                acc[j] = _mm256_fmadd_ps(xv, _mm256_loadu_ps(wr + j * 8),
                                         acc[j]);
              }
              if (rem) {
                acc[full] = _mm256_fmadd_ps(
                    xv, _mm256_maskload_ps(wr + full * 8, mask), acc[full]);
              }
            }
          }
        }
        if (epilogue != Epilogue::kNone && bias != nullptr) {
          const float* b = bias + co0;
          for (std::int64_t j = 0; j < full; ++j) {
            acc[j] = _mm256_add_ps(acc[j], _mm256_loadu_ps(b + j * 8));
          }
          if (rem) {
            acc[full] = _mm256_add_ps(acc[full],
                                      _mm256_maskload_ps(b + full * 8, mask));
          }
        }
        if (epilogue == Epilogue::kBiasSwish) {
          for (std::int64_t j = 0; j < nvec; ++j) {
            const __m256 e =
                sa::exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), acc[j]));
            acc[j] = _mm256_mul_ps(acc[j],
                                   _mm256_div_ps(one, _mm256_add_ps(one, e)));
          }
        } else if (epilogue == Epilogue::kBiasRelu) {
          // acc <= 0 ? 0 : acc, as kernels::relu: NaN stays, -0 -> +0.
          for (std::int64_t j = 0; j < nvec; ++j) {
            acc[j] = _mm256_andnot_ps(
                _mm256_cmp_ps(acc[j], _mm256_setzero_ps(), _CMP_LE_OQ),
                acc[j]);
          }
        }
        for (std::int64_t j = 0; j < full; ++j) {
          _mm256_storeu_ps(out + co0 + j * 8, acc[j]);
        }
        if (rem) {
          _mm256_maskstore_ps(out + co0 + full * 8, mask, acc[full]);
        }
      }
    }
  }
}

}  // namespace podnet::tensor::conv::avx2

// The shared vector kernels (vector_kernels.h), built with this TU's flags.
PODNET_VECTOR_KERNELS(template, ::podnet::tensor::simd::Level::kAvx2)

#endif  // PODNET_HAVE_AVX2
