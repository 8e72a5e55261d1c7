// Parity tests for the per-channel kernel family (tensor/channel_ops.h).
//
// Every kernel runs at each dispatch level under simd::ScopedLevel, on
// channel counts around the 16-float block (and B0's widest SE, 1152) and
// on sizes below and above the size at which a kernel splits over the
// thread pool. The references are the plain loops the nn:: layers and
// ir::Executor ran before they shared these kernels; the kernels must match
// them bit for bit, except where a product feeds a sum (the BN affine and
// the training half), which an FMA tier may round once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/channel_ops.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace podnet::tensor {
namespace {

const simd::Level kLevels[] = {simd::Level::kScalar, simd::Level::kAvx2,
                               simd::Level::kAvx512};
const Index kChannels[] = {1, 8, 15, 16, 17, 24, 1152};

// Row counts for a small op (one thread) and a large one (split).
constexpr Index kSmallRows = 3;
Index large_rows(Index c) { return (Index{1} << 17) / c + 5; }

std::vector<float> randn(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.normal();
  return v;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want, simd::Level lvl, Index c,
                    Index rows) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(float)))
      << simd::level_name(lvl) << " c=" << c << " rows=" << rows;
}

// The loop GlobalAvgPool and the executor's squeeze ran.
std::vector<float> ref_mean(const std::vector<float>& x, Index n, Index hw,
                            Index c) {
  std::vector<float> out(static_cast<std::size_t>(n * c), 0.f);
  const float inv = 1.0f / static_cast<float>(hw);
  for (Index b = 0; b < n; ++b) {
    float* row = out.data() + b * c;
    for (Index p = 0; p < hw; ++p) {
      const float* px = x.data() + (b * hw + p) * c;
      for (Index j = 0; j < c; ++j) row[j] += px[j];
    }
    for (Index j = 0; j < c; ++j) row[j] *= inv;
  }
  return out;
}

TEST(ChannelOpsTest, MeanMatchesRowOrderLoop) {
  for (const Index c : kChannels) {
    for (const Index hw : {kSmallRows, large_rows(c)}) {
      const Index n = 3;
      const auto x = randn(static_cast<std::size_t>(n * hw * c), 1);
      const auto want = ref_mean(x, n, hw, c);
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> got(want.size(), -1.f);
        channel_mean(x.data(), n, hw, c, got.data());
        expect_bitwise(got, want, lvl, c, n * hw);
      }
    }
  }
}

TEST(ChannelOpsTest, ScaleMatchesGateLoop) {
  for (const Index c : kChannels) {
    for (const Index hw : {kSmallRows, large_rows(c)}) {
      const Index n = 3;
      const auto x = randn(static_cast<std::size_t>(n * hw * c), 2);
      const auto gate = randn(static_cast<std::size_t>(n * c), 3);
      std::vector<float> want(x.size());
      for (Index b = 0; b < n; ++b) {
        for (Index p = 0; p < hw; ++p) {
          const Index off = (b * hw + p) * c;
          for (Index j = 0; j < c; ++j) {
            want[off + j] = x[off + j] * gate[b * c + j];
          }
        }
      }
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> got(x.size());
        channel_scale(x.data(), gate.data(), n, hw, c, got.data());
        expect_bitwise(got, want, lvl, c, n * hw);
        got = x;
        channel_scale(got.data(), gate.data(), n, hw, c, got.data());
        expect_bitwise(got, want, lvl, c, n * hw);
      }
    }
  }
}

TEST(ChannelOpsTest, AffineRoundsOnceOrTwice) {
  for (const Index c : kChannels) {
    for (const Index rows : {kSmallRows, large_rows(c)}) {
      const auto x = randn(static_cast<std::size_t>(rows * c), 4);
      const auto gamma = randn(static_cast<std::size_t>(c), 5);
      const auto beta = randn(static_cast<std::size_t>(c), 6);
      const auto mean = randn(static_cast<std::size_t>(c), 7);
      std::vector<float> var = randn(static_cast<std::size_t>(c), 8);
      for (float& v : var) v = v * v + 0.1f;
      std::vector<float> scale(static_cast<std::size_t>(c));
      std::vector<float> shift(scale.size());
      bn_scale_shift(gamma.data(), beta.data(), mean.data(), var.data(),
                     1e-3f, c, scale.data(), shift.data());
      for (Index j = 0; j < c; ++j) {
        const float istd = 1.0f / std::sqrt(var[j] + 1e-3f);
        ASSERT_EQ(scale[j], gamma[j] * istd);
        ASSERT_EQ(shift[j], beta[j] - mean[j] * scale[j]);
      }
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> got(x.size());
        channel_affine(x.data(), scale.data(), shift.data(), rows, c,
                       got.data());
        for (Index r = 0; r < rows; ++r) {
          for (Index j = 0; j < c; ++j) {
            const std::size_t i = static_cast<std::size_t>(r * c + j);
            const float twice = x[i] * scale[j] + shift[j];
            const float once = std::fma(x[i], scale[j], shift[j]);
            // The baseline tier keeps the two roundings of the old loop.
            ASSERT_TRUE(got[i] == twice ||
                        (lvl != simd::Level::kScalar && got[i] == once))
                << simd::level_name(lvl) << " c=" << c << " at " << i;
          }
        }
      }
    }
  }
}

TEST(ChannelOpsTest, BiasMatchesRowLoop) {
  for (const Index c : kChannels) {
    for (const Index rows : {kSmallRows, large_rows(c)}) {
      const auto y0 = randn(static_cast<std::size_t>(rows * c), 9);
      const auto bias = randn(static_cast<std::size_t>(c), 10);
      std::vector<float> want = y0;
      for (Index r = 0; r < rows; ++r) {
        for (Index j = 0; j < c; ++j) want[r * c + j] += bias[j];
      }
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> got = y0;
        bias_act({.bias = bias.data()}, got.data(), rows, c);
        expect_bitwise(got, want, lvl, c, rows);
      }
    }
  }
}

TEST(ChannelOpsTest, BiasActivationMatchesOneUnsplitCall) {
  using Act = GemmEpilogue::Act;
  for (const Index c : kChannels) {
    for (const Index rows : {kSmallRows, large_rows(c)}) {
      const std::size_t n = static_cast<std::size_t>(rows * c);
      const auto y0 = randn(n, 11);
      const auto bias = randn(static_cast<std::size_t>(c), 12);
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        for (const Act act : {Act::kSwish, Act::kRelu}) {
          for (const bool with_bias : {true, false}) {
            std::vector<float> want = y0, want_sig(n);
            if (with_bias) {
              for (Index r = 0; r < rows; ++r) {
                add_inplace(bias, {want.data() + r * c,
                                   static_cast<std::size_t>(c)});
              }
            }
            if (act == Act::kSwish) {
              swish(want, want_sig, want);
            } else {
              relu(want, want);
            }
            std::vector<float> got = y0, got_sig(n);
            bias_act({act, with_bias ? bias.data() : nullptr}, got.data(),
                     rows, c, got_sig.data());
            expect_bitwise(got, want, lvl, c, rows);
            if (act == Act::kSwish) {
              expect_bitwise(got_sig, want_sig, lvl, c, rows);
            }
          }
        }
      }
    }
  }
}

TEST(ChannelOpsTest, AddMatchesElementLoop) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{15}, std::size_t{17}, std::size_t{1000},
        (std::size_t{1} << 17) + 7}) {
    const auto a = randn(n, 13);
    const auto b = randn(n, 14);
    std::vector<float> want = a;
    for (std::size_t i = 0; i < n; ++i) want[i] += b[i];
    for (const simd::Level lvl : kLevels) {
      simd::ScopedLevel scoped(lvl);
      std::vector<float> got(n);
      add(a, b, got);
      expect_bitwise(got, want, lvl, 1, static_cast<Index>(n));
      got = a;
      add(got, b, got);  // the residual join runs in place
      expect_bitwise(got, want, lvl, 1, static_cast<Index>(n));
    }
  }
}

// ---- Training half ----

// Channel counts around the 16-float block and nano's widest layer.
const Index kTrainChannels[] = {1, 8, 15, 16, 17, 24, 128};

// A product feeding a sum: the baseline tier rounds it twice (as the nn::
// loops did); an FMA tier may contract it.
float mul_add(float x, float y, float acc, bool fused) {
  return fused ? std::fma(x, y, acc) : acc + x * y;
}

// The loops nn::BatchNorm (statistics, backward sums) and the Conv2D/Dense
// bias gradients ran, over rows [r0, r1) onto s and sab.
void ref_column_sums(const std::vector<float>& a, const float* b, Index r0,
                     Index r1, Index c, bool fused, float* s, float* sab) {
  for (Index r = r0; r < r1; ++r) {
    for (Index j = 0; j < c; ++j) {
      const float v = a[r * c + j];
      s[j] += v;
      if (b != nullptr) sab[j] = mul_add(v, b[r * c + j], sab[j], fused);
    }
  }
}

// ref_column_sums over the kSumChunkRows chunks: the first onto s and sab,
// each later one from zero, added on in chunk order.
void ref_chunked_sums(const std::vector<float>& a, const float* b, Index rows,
                      Index c, bool fused, float* s, float* sab) {
  for (Index r0 = 0; r0 < rows; r0 += kSumChunkRows) {
    const Index r1 = std::min(rows, r0 + kSumChunkRows);
    if (r0 == 0) {
      ref_column_sums(a, b, r0, r1, c, fused, s, sab);
      continue;
    }
    std::vector<float> ps(static_cast<std::size_t>(c), 0.f), pab(ps);
    ref_column_sums(a, b, r0, r1, c, fused, ps.data(), pab.data());
    for (Index j = 0; j < c; ++j) {
      s[j] += ps[j];
      if (b != nullptr) sab[j] += pab[j];
    }
  }
}

TEST(ChannelOpsTest, ColumnSumsMatchRowOrderLoopPerChunk) {
  for (const Index c : kTrainChannels) {
    for (const Index rows :
         {kSmallRows, kSumChunkRows, kSumChunkRows + 1, large_rows(c)}) {
      const std::size_t n = static_cast<std::size_t>(rows * c);
      const auto a = randn(n, 20);
      const auto b = randn(n, 21);
      const auto init = randn(static_cast<std::size_t>(2 * c), 22);
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        // Bias gradient: a column sum onto the accumulated gradient. No
        // product, so bitwise equal at every tier.
        std::vector<float> want(init.begin(), init.begin() + c);
        ref_chunked_sums(a, nullptr, rows, c, false, want.data(), nullptr);
        std::vector<float> got(init.begin(), init.begin() + c);
        column_sums(a.data(), nullptr, rows, c, got.data());
        expect_bitwise(got, want, lvl, c, rows);
        // BN statistics (b = a) and backward sums (b = xhat), from zero.
        for (const float* bp : {a.data(), b.data()}) {
          std::vector<float> got2(static_cast<std::size_t>(2 * c), 0.f);
          column_sums(a.data(), bp, rows, c, got2.data(), got2.data() + c);
          bool matched = false;
          for (const bool fused : {false, true}) {
            if (fused && lvl == simd::Level::kScalar) continue;
            std::vector<float> want2(got2.size(), 0.f);
            ref_chunked_sums(a, bp, rows, c, fused, want2.data(),
                             want2.data() + c);
            matched = matched || want2 == got2;
          }
          EXPECT_TRUE(matched) << simd::level_name(lvl) << " c=" << c
                               << " rows=" << rows
                               << (bp == a.data() ? " sum of squares"
                                                  : " sum of products");
        }
      }
    }
  }
}

TEST(ChannelOpsTest, BnNormalizeMatchesLoop) {
  for (const Index c : kTrainChannels) {
    for (const Index rows : {kSmallRows, large_rows(c)}) {
      const std::size_t n = static_cast<std::size_t>(rows * c);
      const auto x = randn(n, 23);
      const auto mean = randn(static_cast<std::size_t>(c), 24);
      auto istd = randn(static_cast<std::size_t>(c), 25);
      for (float& v : istd) v = std::abs(v) + 0.5f;
      const auto gamma = randn(static_cast<std::size_t>(c), 26);
      const auto beta = randn(static_cast<std::size_t>(c), 27);
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> xhat(n), y(n);
        bn_normalize(x.data(), mean.data(), istd.data(), gamma.data(),
                     beta.data(), rows, c, xhat.data(), y.data());
        for (Index r = 0; r < rows; ++r) {
          for (Index j = 0; j < c; ++j) {
            const std::size_t i = static_cast<std::size_t>(r * c + j);
            const float h = (x[i] - mean[j]) * istd[j];
            ASSERT_EQ(xhat[i], h) << simd::level_name(lvl) << " c=" << c;
            ASSERT_TRUE(y[i] == gamma[j] * h + beta[j] ||
                        (lvl != simd::Level::kScalar &&
                         y[i] == std::fma(gamma[j], h, beta[j])))
                << simd::level_name(lvl) << " c=" << c << " at " << i;
          }
        }
      }
    }
  }
}

TEST(ChannelOpsTest, BnBackwardDxMatchesLoop) {
  for (const Index c : kTrainChannels) {
    for (const Index rows : {kSmallRows, large_rows(c)}) {
      const std::size_t n = static_cast<std::size_t>(rows * c);
      const auto dy = randn(n, 28);
      const auto xhat = randn(n, 29);
      const auto k = randn(static_cast<std::size_t>(c), 30);
      const auto a = randn(static_cast<std::size_t>(c), 31);
      const auto b = randn(static_cast<std::size_t>(c), 32);
      const float inv_m = 1.0f / static_cast<float>(rows);
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> dx(n);
        bn_backward_dx(dy.data(), xhat.data(), k.data(), a.data(), b.data(),
                       inv_m, rows, c, dx.data());
        for (Index r = 0; r < rows; ++r) {
          for (Index j = 0; j < c; ++j) {
            const std::size_t i = static_cast<std::size_t>(r * c + j);
            // The expression nn::BatchNorm::backward evaluated per element.
            const float twice =
                k[j] * ((dy[i] - a[j]) - xhat[i] * inv_m * b[j]);
            const float once =
                k[j] * std::fma(-(xhat[i] * inv_m), b[j], dy[i] - a[j]);
            ASSERT_TRUE(dx[i] == twice ||
                        (lvl != simd::Level::kScalar && dx[i] == once))
                << simd::level_name(lvl) << " c=" << c << " at " << i;
          }
        }
      }
    }
  }
}

TEST(ChannelOpsTest, ChannelDotMatchesRowOrderLoop) {
  for (const Index c : kTrainChannels) {
    for (const Index hw : {kSmallRows, large_rows(c)}) {
      const Index n = 3;
      const std::size_t size = static_cast<std::size_t>(n * hw * c);
      const auto x = randn(size, 33);
      const auto y = randn(size, 34);
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> got(static_cast<std::size_t>(n * c), -1.f);
        channel_dot(x.data(), y.data(), n, hw, c, got.data());
        bool matched = false;
        for (const bool fused : {false, true}) {
          if (fused && lvl == simd::Level::kScalar) continue;
          // The gate-gradient loop of nn::SqueezeExcite::backward.
          std::vector<float> want(got.size(), 0.f);
          for (Index b = 0; b < n; ++b) {
            for (Index p = 0; p < hw; ++p) {
              for (Index j = 0; j < c; ++j) {
                const std::size_t i =
                    static_cast<std::size_t>((b * hw + p) * c + j);
                float& w = want[static_cast<std::size_t>(b * c + j)];
                w = mul_add(x[i], y[i], w, fused);
              }
            }
          }
          matched = matched || want == got;
        }
        EXPECT_TRUE(matched) << simd::level_name(lvl) << " c=" << c
                             << " hw=" << hw;
      }
    }
  }
}

TEST(ChannelOpsTest, ScaleShiftMatchesLoopAndBroadcasts) {
  for (const Index c : kTrainChannels) {
    for (const Index hw : {kSmallRows, large_rows(c)}) {
      const Index n = 3;
      const std::size_t size = static_cast<std::size_t>(n * hw * c);
      const auto x = randn(size, 35);
      const auto s = randn(static_cast<std::size_t>(n * c), 36);
      const auto t = randn(static_cast<std::size_t>(n * c), 37);
      for (const simd::Level lvl : kLevels) {
        simd::ScopedLevel scoped(lvl);
        std::vector<float> y(size), bcast(size);
        channel_scale_shift(x.data(), s.data(), t.data(), n, hw, c, y.data());
        channel_scale_shift(nullptr, nullptr, t.data(), n, hw, c,
                            bcast.data());
        for (Index b = 0; b < n; ++b) {
          for (Index p = 0; p < hw; ++p) {
            for (Index j = 0; j < c; ++j) {
              const std::size_t i =
                  static_cast<std::size_t>((b * hw + p) * c + j);
              const std::size_t bj = static_cast<std::size_t>(b * c + j);
              ASSERT_EQ(bcast[i], t[bj]) << simd::level_name(lvl);
              // nn::SqueezeExcite::backward's dY * gate, plus the pooling
              // backward's share added on.
              ASSERT_TRUE(y[i] == x[i] * s[bj] + t[bj] ||
                          (lvl != simd::Level::kScalar &&
                           y[i] == std::fma(x[i], s[bj], t[bj])))
                  << simd::level_name(lvl) << " c=" << c << " at " << i;
            }
          }
        }
      }
    }
  }
}

TEST(ChannelOpsTest, ParallelSwishMatchesOneUnsplitCall) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{15}, std::size_t{17}, std::size_t{1000},
        (std::size_t{1} << 17) + 7}) {
    auto x = randn(n, 38);
    x[0] = std::numeric_limits<float>::quiet_NaN();
    const auto g = randn(n, 39);
    for (const simd::Level lvl : kLevels) {
      simd::ScopedLevel scoped(lvl);
      std::vector<float> want_sig(n), want(n), got_sig(n), got(n);
      swish(x, want_sig, want);
      parallel_swish(x, got_sig, got);
      expect_bitwise(got, want, lvl, 1, static_cast<Index>(n));
      expect_bitwise(got_sig, want_sig, lvl, 1, static_cast<Index>(n));
      swish_backward(g, x, want_sig, want);
      parallel_swish_backward(g, x, got_sig, got);
      expect_bitwise(got, want, lvl, 1, static_cast<Index>(n));
    }
  }
}

}  // namespace
}  // namespace podnet::tensor
