// AVX2/FMA implementations of the hot kernels declared in simd.h.
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
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/channel_kernels.h"
#include "tensor/conv_direct.h"

namespace podnet::tensor::simd::avx2 {
namespace {

// ---------------------------------------------------------------------------
// Horizontal reductions
// ---------------------------------------------------------------------------

double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s2 = _mm_add_pd(lo, hi);
  const __m128d s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
  return _mm_cvtsd_f64(s1);
}

float hmax(__m256 v) {
  const __m128 lo = _mm_max_ps(_mm256_castps256_ps128(v),
                               _mm256_extractf128_ps(v, 1));
  const __m128 m2 = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  const __m128 m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1));
  return _mm_cvtss_f32(m1);
}

// Widens the 8 floats of v into two 4-wide double accumulators.
void accumulate_pd(__m256 v, __m256d& acc0, __m256d& acc1) {
  acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
  acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
}

}  // namespace

// ---------------------------------------------------------------------------
// expf — Cephes-style polynomial, the standard AVX port. Max error vs
// std::expf is ~1-2 ulp over the clamped range; inputs outside
// [-88.38, 88.38] saturate to the boundary value (finite). Named (not in
// the anonymous namespace) so the conv::avx2 kernels below can share it
// for the fused swish epilogue.
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

  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);

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

// ---------------------------------------------------------------------------
// Elementwise / reduction primitives
// ---------------------------------------------------------------------------

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void axpby(float alpha, const float* x, float beta, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 by = _mm256_mul_ps(vb, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), by));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], beta * y[i]);
}

void scale(float alpha, float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void scale_copy(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = alpha * x[i];
}

void add_inplace(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void mul_inplace(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void fma_inplace(const float* a, const float* b, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                                     _mm256_loadu_ps(b + i), vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a[i], b[i], y[i]);
}

double sum(const float* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    accumulate_pd(_mm256_loadu_ps(x + i), acc0, acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

double sum_squares(const float* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d d0 = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d d1 = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
  return s;
}

double dot(const float* x, const float* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(vx)),
                           _mm256_cvtps_pd(_mm256_castps256_ps128(vy)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(vx, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(vy, 1)),
                           acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += static_cast<double>(x[i]) * y[i];
  return s;
}

float max_value(const float* x, std::size_t n) {
  float m = -std::numeric_limits<float>::infinity();
  std::size_t i = 0;
  if (n >= 8) {
    __m256 vm = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + i));
    }
    m = hmax(vm);
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

bool all_finite(const float* x, std::size_t n) {
  // A float is non-finite iff its exponent field is all-ones: an unsigned
  // max over the masked bits decides without any FP comparisons (NaN
  // never poisons an integer max).
  const __m256i exp_mask = _mm256_set1_epi32(0x7f800000);
  __m256i worst = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    worst = _mm256_max_epu32(worst, _mm256_and_si256(bits, exp_mask));
  }
  const __m256i bad = _mm256_cmpeq_epi32(_mm256_and_si256(worst, exp_mask),
                                         exp_mask);
  if (_mm256_movemask_epi8(bad) != 0) return false;
  for (; i < n; ++i) {
    std::uint32_t b;
    std::memcpy(&b, x + i, sizeof(b));
    if ((b & 0x7f800000u) == 0x7f800000u) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

void sigmoid(const float* x, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), v));
    _mm256_storeu_ps(y + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  }
  for (; i < n; ++i) y[i] = 1.0f / (1.0f + exp_scalar_tail(-x[i]));
}

void swish(const float* x, float* sig, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), v));
    const __m256 s = _mm256_div_ps(one, _mm256_add_ps(one, e));
    _mm256_storeu_ps(sig + i, s);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(v, s));
  }
  for (; i < n; ++i) {
    sig[i] = 1.0f / (1.0f + exp_scalar_tail(-x[i]));
    y[i] = x[i] * sig[i];
  }
}

void swish_backward(const float* g, const float* x, const float* sig,
                    float* out, std::size_t n) {
  // d/dx [x*s(x)] = s * (1 + x * (1 - s))
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s = _mm256_loadu_ps(sig + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 t =
        _mm256_fmadd_ps(vx, _mm256_sub_ps(one, s), one);  // 1 + x*(1-s)
    const __m256 d = _mm256_mul_ps(s, t);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  for (; i < n; ++i) {
    out[i] = g[i] * sig[i] * std::fma(x[i], 1.0f - sig[i], 1.0f);
  }
}

void sigmoid_backward(const float* g, const float* y, float* out,
                      std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 d = _mm256_mul_ps(vy, _mm256_sub_ps(one, vy));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), d));
  }
  for (; i < n; ++i) out[i] = g[i] * y[i] * (1.0f - y[i]);
}

void relu(const float* x, float* y, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(zero, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.f ? x[i] : 0.f;
}

void relu_backward(const float* g, const float* x, float* out, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(mask, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.f ? g[i] : 0.f;
}

double exp_sub_sum(float* row, std::size_t n, float m) {
  const __m256 vm = _mm256_set1_ps(m);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vm));
    _mm256_storeu_ps(row + i, e);
    accumulate_pd(e, acc0, acc1);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    row[i] = exp_scalar_tail(row[i] - m);
    s += row[i];
  }
  return s;
}

// ---------------------------------------------------------------------------
// bf16 round-to-nearest-even roundtrip, bit-exact vs bf16::round_bits.
// ---------------------------------------------------------------------------

void bf16_round_inplace(float* x, std::size_t n) {
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i inf_bits = _mm256_set1_epi32(0x7f800000);
  const __m256i bias = _mm256_set1_epi32(0x7fff);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i hi_mask = _mm256_set1_epi32(
      static_cast<std::int32_t>(0xffff0000u));
  const __m256i nan_bit = _mm256_set1_epi32(0x00400000);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    // Round-to-nearest-even on the upper 16 bits: add 0x7fff plus the
    // round bit's lsb, then truncate. Matches bf16::round_bits exactly.
    const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(v, 16), one);
    const __m256i rounded = _mm256_and_si256(
        _mm256_add_epi32(v, _mm256_add_epi32(bias, lsb)), hi_mask);
    // NaN: truncate and force a mantissa bit. abs(v) <= INT32_MAX after
    // masking, so the signed compare is safe.
    const __m256i is_nan =
        _mm256_cmpgt_epi32(_mm256_and_si256(v, abs_mask), inf_bits);
    const __m256i nan_val =
        _mm256_or_si256(_mm256_and_si256(v, hi_mask), nan_bit);
    const __m256i out = _mm256_blendv_epi8(rounded, nan_val, is_nan);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + i), out);
  }
  for (; i < n; ++i) {
    const std::uint32_t u = std::bit_cast<std::uint32_t>(x[i]);
    std::uint32_t out;
    if ((u & 0x7fffffffu) > 0x7f800000u) {
      out = (u & 0xffff0000u) | 0x00400000u;
    } else {
      const std::uint32_t lsb = (u >> 16) & 1u;
      out = (u + 0x7fffu + lsb) & 0xffff0000u;
    }
    x[i] = std::bit_cast<float>(out);
  }
}

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
  if (to_bf16) {
    bf16_round_inplace(dst, static_cast<std::size_t>(n_panels * kNr * k));
  }
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
      if (to_bf16) bf16_round_inplace(a_panels.data(), a_panels.size());
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

}  // namespace podnet::tensor::simd::avx2

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
          for (std::int64_t j = 0; j < nvec; ++j) {
            acc[j] = _mm256_max_ps(acc[j], _mm256_setzero_ps());
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

// Per-channel kernels (channel_ops.h): the shared bodies, built with this
// TU's flags.
PODNET_CHANNEL_KERNELS(template, ::podnet::tensor::simd::Level::kAvx2)

#endif  // PODNET_HAVE_AVX2
