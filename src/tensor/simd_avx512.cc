// AVX-512 implementations of the hot kernels declared in simd.h and
// conv_direct.h.
//
// This translation unit is compiled with -mavx512f -mavx512bw -mavx512dq
// -mavx512vl (see src/tensor/CMakeLists.txt); nothing here may be called
// unless simd::active_level() == Level::kAvx512 (or, for GEMM tiles, the
// PackedB records the 32-wide panel layout), which implies the
// cpuid/xgetbv check in simd.cc passed. Tails use opmask registers instead
// of scalar loops — every lane of every loop runs the same instruction
// sequence, so there is no vector-vs-tail seam to test separately.
//
// bf16 rounding deliberately has no AVX-512 variant: simd_avx2.cc's kernel
// is the single vector implementation all levels share, keeping the round
// bit-exact everywhere.
#include "tensor/channel_kernels.h"
#include "tensor/conv_direct.h"
#include "tensor/simd.h"

#if defined(PODNET_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace podnet::tensor::simd::avx512 {
namespace {

// Lane mask for the first n lanes (n in [0, 16]).
__mmask16 head_mask(std::size_t n) {
  return n >= 16 ? static_cast<__mmask16>(0xffff)
                 : static_cast<__mmask16>((1u << n) - 1u);
}

// Widens the 16 floats of v into two 8-wide double accumulators.
void accumulate_pd(__m512 v, __m512d& acc0, __m512d& acc1) {
  acc0 = _mm512_add_pd(acc0, _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
  acc1 = _mm512_add_pd(acc1, _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1)));
}

}  // namespace

// ---------------------------------------------------------------------------
// expf — the same Cephes-style polynomial as exp256_ps in simd_avx2.cc,
// widened to 512 bits. Same clamp range, same coefficients; agrees with the
// AVX2 version lane-for-lane.
// ---------------------------------------------------------------------------

__m512 exp512_ps(__m512 x) {
  const __m512 hi = _mm512_set1_ps(88.3762626647950f);
  const __m512 lo = _mm512_set1_ps(-88.3762626647949f);
  const __m512 log2e = _mm512_set1_ps(1.44269504088896341f);
  const __m512 c1 = _mm512_set1_ps(0.693359375f);
  const __m512 c2 = _mm512_set1_ps(-2.12194440e-4f);
  const __m512 p0 = _mm512_set1_ps(1.9875691500e-4f);
  const __m512 p1 = _mm512_set1_ps(1.3981999507e-3f);
  const __m512 p2 = _mm512_set1_ps(8.3334519073e-3f);
  const __m512 p3 = _mm512_set1_ps(4.1665795894e-2f);
  const __m512 p4 = _mm512_set1_ps(1.6666665459e-1f);
  const __m512 p5 = _mm512_set1_ps(5.0000001201e-1f);
  const __m512 one = _mm512_set1_ps(1.0f);

  x = _mm512_max_ps(_mm512_min_ps(x, hi), lo);

  // n = round(x / ln2); x -= n * ln2 (split constant for accuracy).
  __m512 fx = _mm512_fmadd_ps(x, log2e, _mm512_set1_ps(0.5f));
  fx = _mm512_roundscale_ps(fx, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(fx, c1, x);
  x = _mm512_fnmadd_ps(fx, c2, x);

  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = p0;
  y = _mm512_fmadd_ps(y, x, p1);
  y = _mm512_fmadd_ps(y, x, p2);
  y = _mm512_fmadd_ps(y, x, p3);
  y = _mm512_fmadd_ps(y, x, p4);
  y = _mm512_fmadd_ps(y, x, p5);
  y = _mm512_fmadd_ps(y, z, x);
  y = _mm512_add_ps(y, one);

  // y * 2^n via exponent-field construction.
  __m512i n = _mm512_cvttps_epi32(fx);
  n = _mm512_add_epi32(n, _mm512_set1_epi32(0x7f));
  n = _mm512_slli_epi32(n, 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(n));
}

// ---------------------------------------------------------------------------
// Elementwise / reduction primitives
// ---------------------------------------------------------------------------

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), vy));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    const __m512 vy = _mm512_maskz_loadu_ps(m, y + i);
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, x + i), vy));
  }
}

void axpby(float alpha, const float* x, float beta, float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  const __m512 vb = _mm512_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 by = _mm512_mul_ps(vb, _mm512_loadu_ps(y + i));
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), by));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    const __m512 by = _mm512_mul_ps(vb, _mm512_maskz_loadu_ps(m, y + i));
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, x + i), by));
  }
}

void scale(float alpha, float* x, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(va, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(
        x + i, m, _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m, x + i)));
  }
}

void scale_copy(float alpha, const float* x, float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_mul_ps(va, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m, x + i)));
  }
}

void add_inplace(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(y + i, m,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                                        _mm512_maskz_loadu_ps(m, x + i)));
  }
}

void mul_inplace(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(y + i, m,
                          _mm512_mul_ps(_mm512_maskz_loadu_ps(m, y + i),
                                        _mm512_maskz_loadu_ps(m, x + i)));
  }
}

void fma_inplace(const float* a, const float* b, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i,
                     _mm512_fmadd_ps(_mm512_loadu_ps(a + i),
                                     _mm512_loadu_ps(b + i), vy));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    const __m512 vy = _mm512_maskz_loadu_ps(m, y + i);
    _mm512_mask_storeu_ps(y + i, m,
                          _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i),
                                          _mm512_maskz_loadu_ps(m, b + i),
                                          vy));
  }
}

double sum(const float* x, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    accumulate_pd(_mm512_loadu_ps(x + i), acc0, acc1);
  }
  if (i < n) {
    // Masked-off lanes are zero: exact for a sum.
    accumulate_pd(_mm512_maskz_loadu_ps(head_mask(n - i), x + i), acc0, acc1);
  }
  return _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
}

double sum_squares(const float* x, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  auto step = [&](__m512 v) {
    const __m512d d0 = _mm512_cvtps_pd(_mm512_castps512_ps256(v));
    const __m512d d1 = _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  };
  for (; i + 16 <= n; i += 16) step(_mm512_loadu_ps(x + i));
  if (i < n) step(_mm512_maskz_loadu_ps(head_mask(n - i), x + i));
  return _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
}

double dot(const float* x, const float* y, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  auto step = [&](__m512 vx, __m512 vy) {
    acc0 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm512_castps512_ps256(vx)),
                           _mm512_cvtps_pd(_mm512_castps512_ps256(vy)), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_cvtps_pd(_mm512_extractf32x8_ps(vx, 1)),
                           _mm512_cvtps_pd(_mm512_extractf32x8_ps(vy, 1)),
                           acc1);
  };
  for (; i + 16 <= n; i += 16) {
    step(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    step(_mm512_maskz_loadu_ps(m, x + i), _mm512_maskz_loadu_ps(m, y + i));
  }
  return _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
}

float max_value(const float* x, std::size_t n) {
  const __m512 vninf = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  __m512 vm = vninf;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_loadu_ps(x + i));
  }
  if (i < n) {
    // Masked-off lanes read as -inf so they never win the max.
    vm = _mm512_max_ps(
        vm, _mm512_mask_loadu_ps(vninf, head_mask(n - i), x + i));
  }
  return _mm512_reduce_max_ps(vm);
}

bool all_finite(const float* x, std::size_t n) {
  // Non-finite iff the exponent field is all-ones; integer max over the
  // masked bits, with masked-off tail lanes reading as zero (always
  // finite-looking, so they never flip the verdict).
  const __m512i exp_mask = _mm512_set1_epi32(0x7f800000);
  __m512i worst = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits = _mm512_loadu_si512(x + i);
    worst = _mm512_max_epu32(worst, _mm512_and_si512(bits, exp_mask));
  }
  if (i < n) {
    const __m512i bits = _mm512_maskz_loadu_epi32(head_mask(n - i), x + i);
    worst = _mm512_max_epu32(worst, _mm512_and_si512(bits, exp_mask));
  }
  return _mm512_cmpeq_epi32_mask(worst, exp_mask) == 0;
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

void sigmoid(const float* x, float* y, std::size_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  std::size_t i = 0;
  auto body = [&](__m512 v) {
    const __m512 e = exp512_ps(_mm512_sub_ps(_mm512_setzero_ps(), v));
    return _mm512_div_ps(one, _mm512_add_ps(one, e));
  };
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, body(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(y + i, m, body(_mm512_maskz_loadu_ps(m, x + i)));
  }
}

void swish(const float* x, float* sig, float* y, std::size_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  std::size_t i = 0;
  auto body = [&](__m512 v, __m512& s) {
    const __m512 e = exp512_ps(_mm512_sub_ps(_mm512_setzero_ps(), v));
    s = _mm512_div_ps(one, _mm512_add_ps(one, e));
    return _mm512_mul_ps(v, s);
  };
  for (; i + 16 <= n; i += 16) {
    __m512 s;
    const __m512 out = body(_mm512_loadu_ps(x + i), s);
    _mm512_storeu_ps(sig + i, s);
    _mm512_storeu_ps(y + i, out);
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    __m512 s;
    const __m512 out = body(_mm512_maskz_loadu_ps(m, x + i), s);
    _mm512_mask_storeu_ps(sig + i, m, s);
    _mm512_mask_storeu_ps(y + i, m, out);
  }
}

void swish_backward(const float* g, const float* x, const float* sig,
                    float* out, std::size_t n) {
  // d/dx [x*s(x)] = s * (1 + x * (1 - s))
  const __m512 one = _mm512_set1_ps(1.0f);
  std::size_t i = 0;
  auto body = [&](__m512 vg, __m512 vx, __m512 s) {
    const __m512 t = _mm512_fmadd_ps(vx, _mm512_sub_ps(one, s), one);
    return _mm512_mul_ps(vg, _mm512_mul_ps(s, t));
  };
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i,
                     body(_mm512_loadu_ps(g + i), _mm512_loadu_ps(x + i),
                          _mm512_loadu_ps(sig + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(out + i, m,
                          body(_mm512_maskz_loadu_ps(m, g + i),
                               _mm512_maskz_loadu_ps(m, x + i),
                               _mm512_maskz_loadu_ps(m, sig + i)));
  }
}

void sigmoid_backward(const float* g, const float* y, float* out,
                      std::size_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  std::size_t i = 0;
  auto body = [&](__m512 vg, __m512 vy) {
    return _mm512_mul_ps(vg, _mm512_mul_ps(vy, _mm512_sub_ps(one, vy)));
  };
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i,
                     body(_mm512_loadu_ps(g + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(out + i, m,
                          body(_mm512_maskz_loadu_ps(m, g + i),
                               _mm512_maskz_loadu_ps(m, y + i)));
  }
}

void relu(const float* x, float* y, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_max_ps(zero, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_max_ps(zero, _mm512_maskz_loadu_ps(m, x + i)));
  }
}

void relu_backward(const float* g, const float* x, float* out, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 pos =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(x + i), zero, _CMP_GT_OQ);
    _mm512_storeu_ps(out + i,
                     _mm512_maskz_mov_ps(pos, _mm512_loadu_ps(g + i)));
  }
  if (i < n) {
    const __mmask16 m = head_mask(n - i);
    const __mmask16 pos =
        _mm512_cmp_ps_mask(_mm512_maskz_loadu_ps(m, x + i), zero, _CMP_GT_OQ);
    _mm512_mask_storeu_ps(
        out + i, m,
        _mm512_maskz_mov_ps(pos, _mm512_maskz_loadu_ps(m, g + i)));
  }
}

double exp_sub_sum(float* row, std::size_t n, float m) {
  const __m512 vm = _mm512_set1_ps(m);
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 e = exp512_ps(_mm512_sub_ps(_mm512_loadu_ps(row + i), vm));
    _mm512_storeu_ps(row + i, e);
    accumulate_pd(e, acc0, acc1);
  }
  if (i < n) {
    const __mmask16 k = head_mask(n - i);
    const __m512 e =
        exp512_ps(_mm512_sub_ps(_mm512_maskz_loadu_ps(k, row + i), vm));
    _mm512_mask_storeu_ps(row + i, k, e);
    // Zero the dead lanes before accumulating (exp of a dead lane is not 0).
    accumulate_pd(_mm512_maskz_mov_ps(k, e), acc0, acc1);
  }
  return _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
}

// ---------------------------------------------------------------------------
// GEMM: register-blocked 8x32 FMA microkernel over packed panels.
//
//   B is packed into kNr(=32)-column panels spanning all of K, zero-padded
//   in the last panel; A is packed per (MC x KC) block into kMr(=8)-row
//   panels. The microkernel keeps an 8x32 accumulator tile in 16 zmm
//   registers (half the AVX-512 register file) and streams both panels.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kKc = 256;  // K block: B panel slice stays in L1/L2
constexpr std::int64_t kMc = 64;   // M block: A pack (kMc x kKc) fits in L2

// C[8,32] tile: c_tile += alpha * sum_p A[p,0..7] * B[p,0..31]. rows/cols
// give the valid extent; column tails store through opmasks.
void micro_8x32(std::int64_t kc, const float* ap, const float* bp, float alpha,
                float* c, std::int64_t ldc, std::int64_t rows,
                std::int64_t cols) {
  __m512 acc[kMr][2];
  for (int r = 0; r < kMr; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * kNr);
    const __m512 b1 = _mm512_loadu_ps(bp + p * kNr + 16);
    const float* a = ap + p * kMr;
    for (int r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(a[r]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  const __m512 va = _mm512_set1_ps(alpha);
  if (cols == kNr) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc;
      _mm512_storeu_ps(crow,
                       _mm512_fmadd_ps(va, acc[r][0], _mm512_loadu_ps(crow)));
      _mm512_storeu_ps(
          crow + 16,
          _mm512_fmadd_ps(va, acc[r][1], _mm512_loadu_ps(crow + 16)));
    }
  } else {
    const __mmask16 m0 = head_mask(static_cast<std::size_t>(cols));
    const __mmask16 m1 =
        cols > 16 ? head_mask(static_cast<std::size_t>(cols - 16))
                  : static_cast<__mmask16>(0);
    for (std::int64_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc;
      _mm512_mask_storeu_ps(
          crow, m0,
          _mm512_fmadd_ps(va, acc[r][0], _mm512_maskz_loadu_ps(m0, crow)));
      if (m1) {
        _mm512_mask_storeu_ps(
            crow + 16, m1,
            _mm512_fmadd_ps(va, acc[r][1],
                            _mm512_maskz_loadu_ps(m1, crow + 16)));
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
    // Shared bit-exact rounding kernel (see simd_avx2.cc).
    avx2::bf16_round_inplace(dst,
                             static_cast<std::size_t>(n_panels * kNr * k));
  }
}

// Same tile contract as avx2::gemm_tile (2D scheduler in gemm.cc): rows
// [m0, m1) x B panels [jp0, jp1), beta pre-pass already applied, result
// independent of the tile grid.
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
      if (to_bf16) avx2::bf16_round_inplace(a_panels.data(), a_panels.size());
      for (std::int64_t ip = 0; ip < m_panels; ++ip) {
        const std::int64_t rows = std::min<std::int64_t>(kMr, mc - ip * kMr);
        const float* ap = a_panels.data() + ip * kMr * kc;
        for (std::int64_t jp = jp0; jp < jp1; ++jp) {
          const std::int64_t cols = std::min<std::int64_t>(kNr, n - jp * kNr);
          const float* bp = packed_b + jp * kNr * k + kb * kNr;
          micro_8x32(kc, ap, bp, alpha, c + (ic + ip * kMr) * ldc + jp * kNr,
                     ldc, rows, cols);
        }
      }
    }
  }
}

}  // namespace podnet::tensor::simd::avx512

// ---------------------------------------------------------------------------
// Direct convolution kernels (see conv_direct.h). Same loop structure and
// per-element tap order as the scalar reference and the AVX2 kernels;
// channel tails run through opmasks.
// ---------------------------------------------------------------------------

namespace podnet::tensor::conv::avx512 {
namespace {

namespace sa = podnet::tensor::simd::avx512;

__mmask16 head_mask16(std::int64_t n) {
  return n >= 16 ? static_cast<__mmask16>(0xffff)
                 : static_cast<__mmask16>((1u << n) - 1u);
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

    // General single-pixel path; also finishes the boundary columns of
    // the stride-1 3x3 fast path below.
    auto pixel = [&](std::int64_t ow) {
      const std::int64_t iw0 = ow * g.stride - g.pad_left;
      const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
      float* out = out_row + ow * C;
      std::int64_t c = 0;
      for (; c + 32 <= C; c += 32) {
        __m512 acc0 = _mm512_setzero_ps();
        __m512 acc1 = _mm512_setzero_ps();
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C + c;
          const float* w_base = w + kh * K * C + c;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(in_base + kw * C),
                                   _mm512_loadu_ps(w_base + kw * C), acc0);
            acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(in_base + kw * C + 16),
                                   _mm512_loadu_ps(w_base + kw * C + 16),
                                   acc1);
          }
        }
        _mm512_storeu_ps(out + c, acc0);
        _mm512_storeu_ps(out + c + 16, acc1);
      }
      for (; c < C; c += 16) {
        const __mmask16 m = head_mask16(C - c);
        __m512 acc = _mm512_setzero_ps();
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_base =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C + c;
          const float* w_base = w + kh * K * C + c;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, in_base + kw * C),
                                  _mm512_maskz_loadu_ps(m, w_base + kw * C),
                                  acc);
          }
        }
        _mm512_mask_storeu_ps(out + c, m, acc);
      }
    };

    // Stride-1 3x3 interior fast path (see the AVX2 kernel for the
    // rationale): the nine weight vectors of a 16-channel block stay in
    // zmm registers across the whole output row. Tap order matches the
    // general path, so results are bit-identical per lane.
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
      for (std::int64_t c = 0; c < C; c += 16) {
        const __mmask16 m = head_mask16(C - c);
        __m512 wv[9];
        for (int t = 0; t < 9; ++t) {
          wv[t] = _mm512_maskz_loadu_ps(m, w + t * C + c);
        }
        for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
          const std::int64_t i0 = (ow - g.pad_left) * C + c;
          __m512 acc = _mm512_setzero_ps();
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r0 + i0), wv[0], acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r0 + i0 + C), wv[1],
                                acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r0 + i0 + 2 * C),
                                wv[2], acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r1 + i0), wv[3], acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r1 + i0 + C), wv[4],
                                acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r1 + i0 + 2 * C),
                                wv[5], acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r2 + i0), wv[6], acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r2 + i0 + C), wv[7],
                                acc);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, r2 + i0 + 2 * C),
                                wv[8], acc);
          _mm512_mask_storeu_ps(out_row + ow * C + c, m, acc);
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
  // Channel-block x kernel-row outer loops, as in the AVX2 kernel; the
  // last (partial) channel block runs the same code under an opmask.
  for (std::int64_t c = 0; c < C; c += 16) {
    const __mmask16 m = head_mask16(C - c);
    for (std::int64_t kh = 0; kh < K; ++kh) {
      __m512 dwacc[7];
      __m512 wv[7];
      for (std::int64_t kw = 0; kw < K; ++kw) {
        dwacc[kw] = _mm512_setzero_ps();
        wv[kw] = _mm512_maskz_loadu_ps(m, w + (kh * K + kw) * C + c);
      }
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
          const std::int64_t ih = oh * g.stride - g.pad_top + kh;
          if (ih < 0 || ih >= g.in_h) continue;
          const float* g_row = grad_out + (n * g.out_h + oh) * g.out_w * C;
          const float* x_row = x + (n * g.in_h + ih) * g.in_w * C;
          float* dx_row = dx + (n * g.in_h + ih) * g.in_w * C;
          for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
            const __m512 gv = _mm512_maskz_loadu_ps(m, g_row + ow * C + c);
            const std::int64_t iw0 = ow * g.stride - g.pad_left;
            const std::int64_t kw_lo = iw0 < 0 ? -iw0 : 0;
            const std::int64_t kw_hi = std::min<std::int64_t>(K, g.in_w - iw0);
            for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
              const std::int64_t off = (iw0 + kw) * C + c;
              dwacc[kw] = _mm512_fmadd_ps(
                  _mm512_maskz_loadu_ps(m, x_row + off), gv, dwacc[kw]);
              _mm512_mask_storeu_ps(
                  dx_row + off, m,
                  _mm512_fmadd_ps(wv[kw], gv,
                                  _mm512_maskz_loadu_ps(m, dx_row + off)));
            }
          }
        }
      }
      for (std::int64_t kw = 0; kw < K; ++kw) {
        float* d = dw + (kh * K + kw) * C + c;
        _mm512_mask_storeu_ps(
            d, m, _mm512_add_ps(_mm512_maskz_loadu_ps(m, d), dwacc[kw]));
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
  const __m512 one = _mm512_set1_ps(1.0f);
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
      // Up to 64 output channels (4 zmm accumulators) per pixel stay in
      // registers across all taps.
      for (std::int64_t co0 = 0; co0 < out_c; co0 += 64) {
        const std::int64_t oc = std::min<std::int64_t>(64, out_c - co0);
        const std::int64_t nvec = (oc + 15) / 16;
        __mmask16 masks[4];
        __m512 acc[4];
        for (std::int64_t j = 0; j < nvec; ++j) {
          masks[j] = head_mask16(oc - j * 16);
          acc[j] = _mm512_setzero_ps();
        }
        for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          const float* in_row =
              x + ((n * g.in_h + ih0 + kh) * g.in_w + iw0) * C;
          for (std::int64_t kw = kw_lo; kw < kw_hi; ++kw) {
            const float* in = in_row + kw * C;
            const float* wk = w + (kh * K + kw) * C * out_c + co0;
            for (std::int64_t ci = 0; ci < C; ++ci) {
              const __m512 xv = _mm512_set1_ps(in[ci]);
              const float* wr = wk + ci * out_c;
              for (std::int64_t j = 0; j < nvec; ++j) {
                acc[j] = _mm512_fmadd_ps(
                    xv, _mm512_maskz_loadu_ps(masks[j], wr + j * 16), acc[j]);
              }
            }
          }
        }
        if (epilogue != Epilogue::kNone && bias != nullptr) {
          const float* b = bias + co0;
          for (std::int64_t j = 0; j < nvec; ++j) {
            acc[j] = _mm512_add_ps(
                acc[j], _mm512_maskz_loadu_ps(masks[j], b + j * 16));
          }
        }
        if (epilogue == Epilogue::kBiasSwish) {
          for (std::int64_t j = 0; j < nvec; ++j) {
            const __m512 e =
                sa::exp512_ps(_mm512_sub_ps(_mm512_setzero_ps(), acc[j]));
            acc[j] = _mm512_mul_ps(
                acc[j], _mm512_div_ps(one, _mm512_add_ps(one, e)));
          }
        } else if (epilogue == Epilogue::kBiasRelu) {
          for (std::int64_t j = 0; j < nvec; ++j) {
            acc[j] = _mm512_max_ps(acc[j], _mm512_setzero_ps());
          }
        }
        for (std::int64_t j = 0; j < nvec; ++j) {
          _mm512_mask_storeu_ps(out + co0 + j * 16, masks[j], acc[j]);
        }
      }
    }
  }
}

}  // namespace podnet::tensor::conv::avx512

// Per-channel kernels (channel_ops.h): the shared bodies, built with this
// TU's flags.
PODNET_CHANNEL_KERNELS(template, ::podnet::tensor::simd::Level::kAvx512)

#endif  // PODNET_HAVE_AVX512
