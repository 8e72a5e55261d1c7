// Parity tests for the SIMD kernel path against the scalar reference.
//
// Every test that compares levels runs both paths through the public
// dispatching entry points under simd::ScopedLevel, so the code exercised
// is exactly what production dispatch would run. On hosts without AVX2 the
// comparisons degenerate to scalar-vs-scalar and pass trivially.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "nn/depthwise_conv.h"
#include "nn/grad_check.h"
#include "tensor/bf16.h"
#include "tensor/channel_ops.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace podnet::tensor {
namespace {

// SIMD levels the tests request; a request above what the host supports
// clamps down (that fallback is itself under test below), so the effective
// level is min(request, detected).
const simd::Level kSimdLevels[] = {simd::Level::kAvx2, simd::Level::kAvx512};

// Inputs a vector kernel can handle differently per tier or buffer
// position.
const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                          0.0f,
                          -0.0f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min()};

simd::Level effective(simd::Level request) {
  return std::min(request, simd::detected_level());
}

// Per-element error bound for C = alpha*op(A)*op(B) + beta*C when the two
// implementations differ only by the order of fp32 additions: a few ulp of
// the sum of absolute products (computed in double, so the bound itself has
// no cancellation), scaled by a small constant covering the log2(k) depth
// difference between a linear and a blocked/vectorized summation.
double gemm_tolerance(double abs_acc, double beta_c) {
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  return 16.0 * kEps * (abs_acc + std::abs(beta_c)) + 1e-30;
}

struct SimdGemmCase {
  std::int64_t m, n, k;
  bool ta, tb;
  MatmulPrecision prec;
};

class SimdGemmParityTest : public ::testing::TestWithParam<SimdGemmCase> {};

TEST_P(SimdGemmParityTest, SimdLevelsMatchScalarWithinUlps) {
  const SimdGemmCase& tc = GetParam();
  Rng rng(tc.m * 7919 + tc.n * 104729 + tc.k * 13 + (tc.ta ? 1 : 0) +
          (tc.tb ? 2 : 0));
  std::vector<float> a(static_cast<std::size_t>(tc.m * tc.k));
  std::vector<float> b(static_cast<std::size_t>(tc.k * tc.n));
  std::vector<float> c0(static_cast<std::size_t>(tc.m * tc.n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : c0) v = rng.normal();
  const float alpha = 1.25f, beta = 0.5f;

  std::vector<float> c_scalar = c0;
  {
    simd::ScopedLevel lvl(simd::Level::kScalar);
    gemm_contiguous(tc.ta, tc.tb, tc.m, tc.n, tc.k, alpha, a.data(), b.data(),
                    beta, c_scalar.data(), tc.prec);
  }

  // The bound uses the multiplicands the kernels actually multiply: for
  // bf16 precision all paths round them identically (bit-exact round).
  std::vector<float> ar = a, br = b;
  if (tc.prec == MatmulPrecision::kBf16) {
    bf16_round_inplace({ar.data(), ar.size()});
    bf16_round_inplace({br.data(), br.size()});
  }
  for (const simd::Level request : kSimdLevels) {
    std::vector<float> c_simd = c0;
    {
      simd::ScopedLevel lvl(request);
      gemm_contiguous(tc.ta, tc.tb, tc.m, tc.n, tc.k, alpha, a.data(),
                      b.data(), beta, c_simd.data(), tc.prec);
    }
    if (effective(request) == simd::Level::kScalar) {
      // The request clamped all the way down: results must be identical.
      EXPECT_EQ(0, std::memcmp(c_scalar.data(), c_simd.data(),
                               c_scalar.size() * sizeof(float)));
      continue;
    }
    for (std::int64_t i = 0; i < tc.m; ++i) {
      for (std::int64_t j = 0; j < tc.n; ++j) {
        double abs_acc = 0;
        for (std::int64_t p = 0; p < tc.k; ++p) {
          const float av = tc.ta ? ar[static_cast<std::size_t>(p * tc.m + i)]
                                 : ar[static_cast<std::size_t>(i * tc.k + p)];
          const float bv = tc.tb ? br[static_cast<std::size_t>(j * tc.k + p)]
                                 : br[static_cast<std::size_t>(p * tc.n + j)];
          abs_acc += std::abs(static_cast<double>(alpha) * av * bv);
        }
        const std::size_t idx = static_cast<std::size_t>(i * tc.n + j);
        const double tol =
            gemm_tolerance(abs_acc, static_cast<double>(beta) * c0[idx]);
        EXPECT_NEAR(c_scalar[idx], c_simd[idx], tol)
            << "level " << simd::level_name(request) << " at (" << i << ","
            << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdGemmParityTest,
    ::testing::Values(
        // K=1 (degenerate accumulation), tails in both M and N, tiles that
        // divide evenly, and every transposition flag combination.
        SimdGemmCase{1, 1, 1, false, false, MatmulPrecision::kFp32},
        SimdGemmCase{5, 7, 1, false, false, MatmulPrecision::kFp32},
        SimdGemmCase{6, 16, 32, false, false, MatmulPrecision::kFp32},
        SimdGemmCase{12, 32, 24, false, false, MatmulPrecision::kFp32},
        SimdGemmCase{7, 17, 13, false, false, MatmulPrecision::kFp32},
        SimdGemmCase{13, 19, 31, true, false, MatmulPrecision::kFp32},
        SimdGemmCase{11, 23, 29, false, true, MatmulPrecision::kFp32},
        SimdGemmCase{9, 15, 21, true, true, MatmulPrecision::kFp32},
        SimdGemmCase{64, 48, 300, false, false, MatmulPrecision::kFp32},
        SimdGemmCase{130, 33, 260, false, false, MatmulPrecision::kFp32},
        SimdGemmCase{7, 17, 13, false, false, MatmulPrecision::kBf16},
        SimdGemmCase{31, 47, 65, true, true, MatmulPrecision::kBf16},
        SimdGemmCase{64, 48, 300, false, false, MatmulPrecision::kBf16}));

TEST(SimdGemmParityTest, RandomizedShapes) {
  Rng shape_rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(shape_rng.uniform(0.f, 1.f) * 40);
    const std::int64_t n = 1 + static_cast<std::int64_t>(shape_rng.uniform(0.f, 1.f) * 40);
    const std::int64_t k = 1 + static_cast<std::int64_t>(shape_rng.uniform(0.f, 1.f) * 60);
    const bool ta = shape_rng.uniform(0.f, 1.f) < 0.5;
    const bool tb = shape_rng.uniform(0.f, 1.f) < 0.5;
    Rng rng(1000 + iter);
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    std::vector<float> c0(static_cast<std::size_t>(m * n));
    for (auto& v : a) v = rng.normal();
    for (auto& v : b) v = rng.normal();
    for (auto& v : c0) v = rng.normal();

    std::vector<float> c_scalar = c0;
    {
      simd::ScopedLevel lvl(simd::Level::kScalar);
      gemm_contiguous(ta, tb, m, n, k, 1.f, a.data(), b.data(), 0.f,
                      c_scalar.data());
    }
    for (const simd::Level request : kSimdLevels) {
      std::vector<float> c_simd = c0;
      {
        simd::ScopedLevel lvl(request);
        gemm_contiguous(ta, tb, m, n, k, 1.f, a.data(), b.data(), 0.f,
                        c_simd.data());
      }
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          double abs_acc = 0;
          for (std::int64_t p = 0; p < k; ++p) {
            const float av = ta ? a[static_cast<std::size_t>(p * m + i)]
                                : a[static_cast<std::size_t>(i * k + p)];
            const float bv = tb ? b[static_cast<std::size_t>(j * k + p)]
                                : b[static_cast<std::size_t>(p * n + j)];
            abs_acc += std::abs(static_cast<double>(av) * bv);
          }
          const std::size_t idx = static_cast<std::size_t>(i * n + j);
          ASSERT_NEAR(c_scalar[idx], c_simd[idx], gemm_tolerance(abs_acc, 0))
              << "level " << simd::level_name(request) << " iter " << iter
              << " m=" << m << " n=" << n << " k=" << k << " ta=" << ta
              << " tb=" << tb << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(PackedBTest, PrepackedMatchesGemmAndSurvivesLevelFlip) {
  const std::int64_t m = 23, n = 37, k = 41;
  Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.f);
  std::vector<float> c_pre(static_cast<std::size_t>(m * n), 0.f);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();

  for (MatmulPrecision prec :
       {MatmulPrecision::kFp32, MatmulPrecision::kBf16}) {
    gemm_contiguous(false, false, m, n, k, 1.f, a.data(), b.data(), 0.f,
                    c_ref.data(), prec);
    const PackedB bp = pack_b(false, k, n, b.data(), n, prec);
    EXPECT_TRUE(bp.valid());
    EXPECT_EQ(bp.k(), k);
    EXPECT_EQ(bp.n(), n);
    gemm_prepacked(false, m, n, k, 1.f, a.data(), k, bp, 0.f, c_pre.data(),
                   n, prec);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_NEAR(c_ref[i], c_pre[i], 1e-4)
          << "precision " << static_cast<int>(prec) << " at " << i;
    }
    // The packed layout is recorded at pack time; flipping the dispatch
    // level afterwards must not change how the panels are interpreted.
    {
      simd::ScopedLevel lvl(simd::Level::kScalar);
      std::vector<float> c_flip(static_cast<std::size_t>(m * n), 0.f);
      gemm_prepacked(false, m, n, k, 1.f, a.data(), k, bp, 0.f,
                     c_flip.data(), n, prec);
      EXPECT_EQ(0, std::memcmp(c_pre.data(), c_flip.data(),
                               c_pre.size() * sizeof(float)));
    }
  }
}

TEST(PackedBTest, TransposedBAndStridedLeadingDim) {
  const std::int64_t m = 9, n = 21, k = 17;
  Rng rng(11);
  // B stored as n x k (so op(B) with trans_b=true is k x n).
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (auto& v : bt) v = rng.normal();
  for (auto& v : a) v = rng.normal();

  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.f);
  gemm_contiguous(false, true, m, n, k, 1.f, a.data(), bt.data(), 0.f,
                  c_ref.data());
  const PackedB bp = pack_b(true, k, n, bt.data(), k);
  std::vector<float> c_pre(static_cast<std::size_t>(m * n), 0.f);
  gemm_prepacked(false, m, n, k, 1.f, a.data(), k, bp, 0.f, c_pre.data(), n);
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    ASSERT_NEAR(c_ref[i], c_pre[i], 1e-4) << "at " << i;
  }
}

TEST(SimdBf16Test, RoundIsBitExactAcrossLevels) {
  // Adversarial float patterns: NaN payloads, infinities, denormals,
  // negative zero, exact ties (round-to-nearest-even both directions),
  // and the largest finite values.
  std::vector<float> special = {
      0.0f, -0.0f, 1.0f, -1.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::signaling_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      1.0039062f,  // mantissa ...1_1000... : tie, rounds to even (up)
      1.0117187f,  // tie in the other parity direction
      3.1415927f, -2.7182818f, 65504.f, 1e-20f, -1e20f};
  Rng rng(3);
  for (int i = 0; i < 997; ++i) special.push_back(rng.normal() * 1e3f);

  std::vector<float> scalar_out = special;
  {
    simd::ScopedLevel lvl(simd::Level::kScalar);
    bf16_round_inplace({scalar_out.data(), scalar_out.size()});
  }
  for (const simd::Level request : kSimdLevels) {
    std::vector<float> simd_out = special;
    {
      simd::ScopedLevel lvl(request);
      bf16_round_inplace({simd_out.data(), simd_out.size()});
    }
    // memcmp, not ==: NaNs must match bit patterns too.
    EXPECT_EQ(0, std::memcmp(scalar_out.data(), simd_out.data(),
                             scalar_out.size() * sizeof(float)))
        << "level " << simd::level_name(request);
  }
}

class SimdOpsParityTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1037;  // odd: exercises the vector tail
  void SetUp() override {
    Rng rng(17);
    x.resize(kN);
    y.resize(kN);
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
  }
  std::vector<float> x, y;
};

TEST_F(SimdOpsParityTest, ExactKernels) {
  // add/mul/scale/scale_copy/relu do the same per-element arithmetic in
  // both paths — results must be bit-identical (the all-reduce bit-equality
  // contract depends on add_inplace being exact).
  auto run = [&](simd::Level lvl, std::vector<float>& out) {
    simd::ScopedLevel s(lvl);
    std::vector<float> t = y;
    add_inplace({x.data(), kN}, {t.data(), kN});
    mul_inplace({x.data(), kN}, {t.data(), kN});
    scale(1.7f, {t.data(), kN});
    std::vector<float> sc(kN);
    scale_copy(-0.3f, {t.data(), kN}, {sc.data(), kN});
    relu({sc.data(), kN}, {t.data(), kN});
    std::vector<float> rb(kN);
    relu_backward({x.data(), kN}, {sc.data(), kN}, {rb.data(), kN});
    t.insert(t.end(), rb.begin(), rb.end());
    out = std::move(t);
  };
  std::vector<float> a, b;
  run(simd::Level::kScalar, a);
  for (const simd::Level request : kSimdLevels) {
    run(request, b);
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << "level " << simd::level_name(request);
  }
}

TEST_F(SimdOpsParityTest, FusedKernelsWithinUlps) {
  // axpy/axpby/fma_inplace use FMA on the SIMD path (one rounding instead
  // of two) — elementwise difference is bounded by an ulp of the product.
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  auto check = [&](auto&& fn) {
    std::vector<float> a = y;
    {
      simd::ScopedLevel s(simd::Level::kScalar);
      fn(a);
    }
    for (const simd::Level request : kSimdLevels) {
      std::vector<float> b = y;
      {
        simd::ScopedLevel s(request);
        fn(b);
      }
      for (std::size_t i = 0; i < kN; ++i) {
        const double tol =
            4.0 * kEps * (std::abs(static_cast<double>(x[i])) * 2.0 +
                          std::abs(static_cast<double>(y[i]))) + 1e-30;
        ASSERT_NEAR(a[i], b[i], tol)
            << "level " << simd::level_name(request) << " at " << i;
      }
    }
  };
  check([&](std::vector<float>& t) {
    axpy(1.9f, {x.data(), kN}, {t.data(), kN});
  });
  check([&](std::vector<float>& t) {
    axpby(0.7f, {x.data(), kN}, -1.3f, {t.data(), kN});
  });
  check([&](std::vector<float>& t) {
    fma_inplace({x.data(), kN}, {y.data(), kN}, {t.data(), kN});
  });
}

TEST_F(SimdOpsParityTest, Reductions) {
  // Reassociated sums: tolerance scales with the absolute mass reduced.
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  double abs_mass = 0, sq_mass = 0, dot_mass = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    abs_mass += std::abs(static_cast<double>(x[i]));
    sq_mass += static_cast<double>(x[i]) * x[i];
    dot_mass += std::abs(static_cast<double>(x[i]) * y[i]);
  }
  double s0, q0, d0;
  float m0;
  {
    simd::ScopedLevel s(simd::Level::kScalar);
    s0 = sum({x.data(), kN});
    q0 = sum_squares({x.data(), kN});
    d0 = dot({x.data(), kN}, {y.data(), kN});
    m0 = max_value({x.data(), kN});
  }
  for (const simd::Level request : kSimdLevels) {
    simd::ScopedLevel s(request);
    EXPECT_NEAR(s0, sum({x.data(), kN}), 8 * kEps * abs_mass + 1e-30);
    EXPECT_NEAR(q0, sum_squares({x.data(), kN}), 8 * kEps * sq_mass + 1e-30);
    EXPECT_NEAR(d0, dot({x.data(), kN}, {y.data(), kN}),
                8 * kEps * dot_mass + 1e-30);
    EXPECT_EQ(m0, max_value({x.data(), kN}));  // max is exact in any order
  }
}

TEST_F(SimdOpsParityTest, AllFiniteAgreesAtEveryLevelAndTailPosition) {
  // all_finite is an exact predicate (an exponent-bits max), so every
  // level must return identical verdicts — including when the only bad
  // element sits in the vector tail, which the masked/scalar remainder
  // paths handle differently per level.
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{16}, std::size_t{33}, kN}) {
    std::vector<float> clean(x.begin(), x.begin() + n);
    if (!clean.empty()) {
      clean.front() = std::numeric_limits<float>::max();    // finite extremes
      clean.back() = std::numeric_limits<float>::denorm_min();
    }
    {
      simd::ScopedLevel s(simd::Level::kScalar);
      EXPECT_TRUE(all_finite({clean.data(), n})) << "scalar n=" << n;
    }
    for (const simd::Level request : kSimdLevels) {
      simd::ScopedLevel s(request);
      EXPECT_TRUE(all_finite({clean.data(), n}))
          << "level " << simd::level_name(request) << " n=" << n;
    }
    for (const float bad : kBad) {
      for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        if (n == 0 || at >= n) continue;
        std::vector<float> poisoned = clean;
        poisoned[at] = bad;
        {
          simd::ScopedLevel s(simd::Level::kScalar);
          EXPECT_FALSE(all_finite({poisoned.data(), n}))
              << "scalar n=" << n << " at=" << at;
        }
        for (const simd::Level request : kSimdLevels) {
          simd::ScopedLevel s(request);
          EXPECT_FALSE(all_finite({poisoned.data(), n}))
              << "level " << simd::level_name(request) << " n=" << n
              << " at=" << at;
        }
      }
    }
  }
}

TEST_F(SimdOpsParityTest, ActivationsAndSoftmax) {
  // The SIMD sigmoid/softmax use a polynomial exp that tracks std::exp to
  // a few ulp; outputs live in [0,1] so an absolute tolerance is right.
  std::vector<float> sig0(kN), y0(kN);
  {
    simd::ScopedLevel s(simd::Level::kScalar);
    swish({x.data(), kN}, {sig0.data(), kN}, {y0.data(), kN});
  }
  const std::int64_t rows = 13, cols = 67;
  std::vector<float> logits(static_cast<std::size_t>(rows * cols));
  Rng rng(23);
  for (auto& v : logits) v = rng.normal() * 4.f;
  std::vector<float> sm0 = logits;
  {
    simd::ScopedLevel s(simd::Level::kScalar);
    softmax_rows(sm0.data(), rows, cols);
  }

  for (const simd::Level request : kSimdLevels) {
    std::vector<float> sig1(kN), y1(kN);
    std::vector<float> sm1 = logits;
    {
      simd::ScopedLevel s(request);
      swish({x.data(), kN}, {sig1.data(), kN}, {y1.data(), kN});
      softmax_rows(sm1.data(), rows, cols);
    }
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_NEAR(sig0[i], sig1[i], 2e-6)
          << "level " << simd::level_name(request) << " sig at " << i;
      ASSERT_NEAR(y0[i], y1[i], 2e-6 * (1.0 + std::abs(x[i])))
          << "level " << simd::level_name(request) << " y at " << i;
    }
    for (std::size_t i = 0; i < sm0.size(); ++i) {
      ASSERT_NEAR(sm0[i], sm1[i], 5e-6)
          << "level " << simd::level_name(request) << " softmax at " << i;
    }
  }
}

TEST_F(SimdOpsParityTest, ReluSpecialValuesBitExactAtEveryLevel) {
  // relu(x) = x <= 0 ? 0 : x at every level and buffer position: NaN
  // passes through (NaN-poisoned scratch must reach the finite checks) and
  // -0 becomes +0. kN = 64 * 16 + 13, so index 3 + 16k is a vector lane at
  // every width and the last indices are the vector tail.
  constexpr std::size_t kCount = std::size(kSpecial);
  std::vector<float> in = x;
  for (std::size_t k = 0; k < kCount; ++k) {
    in[3 + 16 * k] = kSpecial[k];
    in[kN - 1 - k] = kSpecial[k];
  }
  auto run = [&](simd::Level lvl) {
    simd::ScopedLevel s(lvl);
    std::vector<float> out(2 * kN);
    relu({in.data(), kN}, {out.data(), kN});
    relu_backward({y.data(), kN}, {in.data(), kN}, {out.data() + kN, kN});
    return out;
  };
  const std::vector<float> ref = run(simd::Level::kScalar);
  for (std::size_t k = 0; k < kCount; ++k) {
    for (const std::size_t at : {3 + 16 * k, kN - 1 - k}) {
      const float v = ref[at];
      if (std::isnan(kSpecial[k])) {
        EXPECT_TRUE(std::isnan(v)) << "at " << at;
      } else if (kSpecial[k] <= 0.f) {
        EXPECT_EQ(0.f, v) << "at " << at;
        EXPECT_FALSE(std::signbit(v)) << "at " << at;
      } else {
        EXPECT_EQ(kSpecial[k], v) << "at " << at;
      }
    }
  }
  for (const simd::Level request : kSimdLevels) {
    const std::vector<float> got = run(request);
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             ref.size() * sizeof(float)))
        << "level " << simd::level_name(request);
  }
}

TEST_F(SimdOpsParityTest, SigmoidAndActivationBackwardsWithinUlps) {
  // sigmoid tracks std::exp through the polynomial exp (as swish does).
  // swish_backward computes g * (s * fma(x, 1 - s, 1)) and sigmoid_backward
  // g * (y * (1 - y)): a few roundings of the terms away from the scalar
  // loops' grouping.
  constexpr double kEps = std::numeric_limits<float>::epsilon();
  std::vector<float> s(kN);  // sigmoid outputs lie in (0, 1)
  Rng rng(29);
  for (auto& v : s) v = rng.uniform(0.f, 1.f);
  auto run = [&](simd::Level lvl) {
    simd::ScopedLevel scoped(lvl);
    std::vector<float> out(3 * kN);
    sigmoid({x.data(), kN}, {out.data(), kN});
    swish_backward({y.data(), kN}, {x.data(), kN}, {s.data(), kN},
                   {out.data() + kN, kN});
    sigmoid_backward({y.data(), kN}, {s.data(), kN},
                     {out.data() + 2 * kN, kN});
    return out;
  };
  const std::vector<float> ref = run(simd::Level::kScalar);
  for (const simd::Level request : kSimdLevels) {
    const std::vector<float> got = run(request);
    for (std::size_t i = 0; i < kN; ++i) {
      const double g = std::abs(static_cast<double>(y[i]));
      const double si = s[i];
      ASSERT_NEAR(ref[i], got[i], 2e-6)
          << "level " << simd::level_name(request) << " sigmoid at " << i;
      const double swish_tol =
          4.0 * kEps * g * si * (1.0 + std::abs(x[i] * (1.0 - si))) + 1e-30;
      ASSERT_NEAR(ref[kN + i], got[kN + i], swish_tol)
          << "level " << simd::level_name(request) << " swish_backward at "
          << i;
      const double sigmoid_tol = 4.0 * kEps * g * si * (1.0 - si) + 1e-30;
      ASSERT_NEAR(ref[2 * kN + i], got[2 * kN + i], sigmoid_tol)
          << "level " << simd::level_name(request) << " sigmoid_backward at "
          << i;
    }
  }
}

TEST_F(SimdOpsParityTest, PolynomialExpLetsNaNThrough) {
  // sigmoid, swish and softmax_rows run the SIMD tiers' polynomial exp.
  // A NaN input must come out NaN at every level, in a vector lane (index
  // 3) and in the vector tail (index 33 of 35), as it does through
  // std::exp at the scalar tier, so a diverged step reaches the finite
  // checks. softmax_rows turns a row holding a NaN into all NaN.
  constexpr std::size_t kLen = 35;
  std::vector<float> in(x.begin(), x.begin() + kLen);
  in[3] = std::numeric_limits<float>::quiet_NaN();
  in[33] = std::numeric_limits<float>::quiet_NaN();
  for (const simd::Level lvl :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    simd::ScopedLevel scoped(lvl);
    std::vector<float> sig(kLen), sw(kLen), swsig(kLen);
    sigmoid(in, sig);
    swish(in, swsig, sw);
    std::vector<float> sm = in;
    softmax_rows(sm.data(), 1, static_cast<std::int64_t>(kLen));
    for (std::size_t i = 0; i < kLen; ++i) {
      const bool nan_in = std::isnan(in[i]);
      EXPECT_EQ(nan_in, std::isnan(sig[i]))
          << simd::level_name(lvl) << " sigmoid at " << i;
      EXPECT_EQ(nan_in, std::isnan(swsig[i]))
          << simd::level_name(lvl) << " swish sig at " << i;
      EXPECT_EQ(nan_in, std::isnan(sw[i]))
          << simd::level_name(lvl) << " swish y at " << i;
      EXPECT_TRUE(std::isnan(sm[i]))
          << simd::level_name(lvl) << " softmax at " << i;
    }
  }
}

TEST(SimdCrossTierTest, Avx2AndAvx512AreBitwiseEqual) {
  // The vector kernels' source fixes every rounding (FMA placement, 16
  // reduction lanes and their fold), not the vector width, so every ops.h
  // kernel and the bf16 round give the same bits at both tiers, on clean
  // inputs and on inputs laced with NaN, +-0, +-inf and denormals.
  if (simd::detected_level() < simd::Level::kAvx512) {
    GTEST_SKIP() << "needs an AVX-512 host to compare against AVX2";
  }
  auto outputs = [&](simd::Level lvl, std::size_t n, bool laced) {
    simd::ScopedLevel scoped(lvl);
    Rng rng(100 + n);
    std::vector<float> a(n), b(n), c(n), s(n);
    for (auto& v : a) v = rng.normal() * 3.f;
    for (auto& v : b) v = rng.normal();
    for (auto& v : c) v = rng.normal() * 0.01f;
    for (auto& v : s) v = rng.uniform(0.f, 1.f);
    if (laced) {
      for (std::size_t i = 0; i < n; i += 5) {
        a[i] = kSpecial[(i / 5) % std::size(kSpecial)];
      }
    }
    std::vector<unsigned char> bytes;
    auto emit = [&](const void* p, std::size_t size) {
      const auto* q = static_cast<const unsigned char*>(p);
      bytes.insert(bytes.end(), q, q + size);
    };
    auto emit_vec = [&](const std::vector<float>& v) {
      emit(v.data(), v.size() * sizeof(float));
    };
    auto emit_val = [&](auto v) { emit(&v, sizeof(v)); };
    std::vector<float> t = b;
    axpy(1.7f, a, t);
    emit_vec(t);
    t = b;
    axpby(0.7f, a, -1.3f, t);
    emit_vec(t);
    t = a;
    scale(0.37f, t);
    emit_vec(t);
    scale_copy(-0.3f, a, t);
    emit_vec(t);
    t = b;
    add_inplace(a, t);
    emit_vec(t);
    t = b;
    mul_inplace(a, t);
    emit_vec(t);
    t = c;
    fma_inplace(a, b, t);
    emit_vec(t);
    emit_val(sum(a));
    emit_val(sum_squares(a));
    emit_val(l2_norm(a));
    emit_val(dot(a, b));
    emit_val(max_value(a));
    emit_val(all_finite(a));
    emit_val(allclose(a, b));
    sigmoid(a, t);
    emit_vec(t);
    std::vector<float> sig(n);
    swish(a, sig, t);
    emit_vec(sig);
    emit_vec(t);
    swish_backward(b, a, s, t);
    emit_vec(t);
    sigmoid_backward(b, s, t);
    emit_vec(t);
    relu(a, t);
    emit_vec(t);
    relu_backward(b, a, t);
    emit_vec(t);
    const std::int64_t rows = 3, cols = static_cast<std::int64_t>(n);
    std::vector<float> m(3 * n);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m[i] = a[i % n] + 0.5f * static_cast<float>(i / n);
    }
    softmax_rows(m.data(), rows, cols);
    emit_vec(m);
    std::vector<std::int64_t> arg(rows);
    argmax_rows(m.data(), rows, cols, arg.data());
    emit(arg.data(), arg.size() * sizeof(std::int64_t));
    t = a;
    bf16_round_inplace({t.data(), n});
    emit_vec(t);
    return bytes;
  };
  for (const bool laced : {false, true}) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
          std::size_t{17}, std::size_t{33}, std::size_t{1037}}) {
      EXPECT_EQ(outputs(simd::Level::kAvx2, n, laced),
                outputs(simd::Level::kAvx512, n, laced))
          << "n=" << n << (laced ? " laced" : " clean");
    }
  }
}

TEST(SimdCrossTierTest, ChannelTrainingKernelsAreBitwiseEqual) {
  // The training half of channel_ops.h: both FMA tiers compile the same
  // products-feeding-sums, so they round alike, in one chunk and across
  // several, split over the pool or not, on clean and laced inputs. Every
  // NaN compares as one value: where a column sum meets two NaNs (a laced
  // one and inf + -inf), which one an add returns depends on its operand
  // order, which the source does not fix.
  if (simd::detected_level() < simd::Level::kAvx512) {
    GTEST_SKIP() << "needs an AVX-512 host to compare against AVX2";
  }
  auto outputs = [&](simd::Level lvl, Index rows, Index c, bool laced) {
    simd::ScopedLevel scoped(lvl);
    const std::size_t n = static_cast<std::size_t>(rows * c);
    const std::size_t nc = static_cast<std::size_t>(c);
    Rng rng(static_cast<std::uint64_t>(200 + rows + c));
    std::vector<float> a(n), b(n), pc(4 * nc);
    for (auto& v : a) v = rng.normal() * 3.f;
    for (auto& v : b) v = rng.normal();
    for (auto& v : pc) v = rng.normal();
    if (laced) {
      for (std::size_t i = 0; i < n; i += 7) {
        a[i] = kSpecial[(i / 7) % std::size(kSpecial)];
      }
    }
    std::vector<float> out;
    auto append = [&](const std::vector<float>& v) {
      out.insert(out.end(), v.begin(), v.end());
    };
    std::vector<float> sums(3 * nc, 0.f);
    column_sums(a.data(), nullptr, rows, c, sums.data());
    column_sums(a.data(), a.data(), rows, c, sums.data() + c,
                sums.data() + 2 * c);
    append(sums);
    std::fill(sums.begin(), sums.end(), 0.f);
    column_sums(a.data(), b.data(), rows, c, sums.data(), sums.data() + c);
    append(sums);
    std::vector<float> t1(n), t2(n);
    const float* p = pc.data();
    bn_normalize(a.data(), p, p + c, p + 2 * c, p + 3 * c, rows, c,
                 t1.data(), t2.data());
    append(t1);
    append(t2);
    bn_backward_dx(b.data(), a.data(), p, p + c, p + 2 * c, 0.01f, rows, c,
                   t1.data());
    append(t1);
    // [rows / 2 images of 2 pixels] for the per-image kernels.
    const Index images = rows / 2;
    std::vector<float> dot(static_cast<std::size_t>(images * c));
    channel_dot(a.data(), b.data(), images, 2, c, dot.data());
    append(dot);
    std::vector<float> s(dot.size()), sh(dot.size());
    for (auto& v : s) v = rng.normal();
    for (auto& v : sh) v = rng.normal();
    channel_scale_shift(a.data(), s.data(), sh.data(), images, 2, c,
                        t1.data());
    append(t1);
    std::vector<float> sig(n);
    parallel_swish(a, sig, t1);
    append(sig);
    append(t1);
    parallel_swish_backward(b, a, sig, t2);
    append(t2);
    return out;
  };
  auto bits = [](const std::vector<float>& v) {
    std::vector<std::uint32_t> u(v.size());
    std::memcpy(u.data(), v.data(), v.size() * sizeof(float));
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (std::isnan(v[i])) u[i] = 0x7fc00000u;
    }
    return u;
  };
  for (const bool laced : {false, true}) {
    for (const Index c : {1, 8, 15, 16, 17, 24, 128}) {
      for (const Index rows :
           {Index{2}, Index{256}, Index{258}, (Index{1} << 17) / c + 6}) {
        EXPECT_EQ(bits(outputs(simd::Level::kAvx2, rows, c, laced)),
                  bits(outputs(simd::Level::kAvx512, rows, c, laced)))
            << "c=" << c << " rows=" << rows << (laced ? " laced" : " clean");
      }
    }
  }
}

TEST(SimdDepthwiseTest, GradCheckUnderSimd) {
  // The vectorized depthwise conv must still pass the finite-difference
  // backstop with the SIMD kernels live, at every dispatch level.
  for (const simd::Level request : kSimdLevels) {
    simd::ScopedLevel lvl(request);
    nn::Rng init(31);
    nn::DepthwiseConv2D dw(/*channels=*/6, /*kernel=*/3, /*stride=*/2, init,
                           MatmulPrecision::kFp32, "dw_simd");
    nn::Tensor x(nn::Shape{2, 7, 7, 6});
    nn::Rng data(33);
    for (auto& v : x.span()) v = data.normal();
    nn::Rng probe(35);
    const auto res = nn::grad_check(dw, x, probe);
    EXPECT_TRUE(res.ok(5e-2)) << "level " << simd::level_name(request)
                              << " worst " << res.worst << " rel "
                              << res.max_rel_err;
  }
}

TEST(SimdDispatchTest, LevelOverrideRoundTrips) {
  const simd::Level detected = simd::detected_level();
  const simd::Level before = simd::active_level();
  {
    simd::ScopedLevel lvl(simd::Level::kScalar);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
    // Requesting AVX2 never exceeds what the host supports.
    simd::ScopedLevel lvl2(simd::Level::kAvx2);
    EXPECT_LE(static_cast<int>(simd::active_level()),
              static_cast<int>(detected));
  }
  EXPECT_EQ(simd::active_level(), before);
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
}

TEST(SimdDispatchTest, Avx512RequestFallsBackGracefully) {
  // On a host without AVX-512 a kAvx512 request must land on the best
  // supported level (detected), not scalar — and on an AVX-512 host it must
  // actually engage the top tier. Either way the request clamps to exactly
  // min(request, detected).
  const simd::Level detected = simd::detected_level();
  {
    simd::ScopedLevel lvl(simd::Level::kAvx512);
    EXPECT_EQ(simd::active_level(), std::min(simd::Level::kAvx512, detected));
  }
  // The clamped level must produce the same numbers as requesting the
  // detected level directly: fallback changes the label, never the math.
  Rng rng(41);
  std::vector<float> x(513);
  for (auto& v : x) v = rng.normal();
  std::vector<float> a = x, b = x;
  {
    simd::ScopedLevel lvl(simd::Level::kAvx512);
    scale(1.0f / 3.0f, {a.data(), a.size()});
  }
  {
    simd::ScopedLevel lvl(detected);
    scale(1.0f / 3.0f, {b.data(), b.size()});
  }
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

}  // namespace
}  // namespace podnet::tensor
