// Parity tests for the per-channel kernel family (tensor/channel_ops.h).
//
// Every kernel runs at each dispatch level under simd::ScopedLevel, on
// channel counts around the 16-float block (and B0's widest SE, 1152) and
// on sizes below and above the size at which a kernel splits over the
// thread pool. The references are the plain loops the nn:: layers and
// ir::Executor ran before they shared these kernels; the kernels must match
// them bit for bit, except the BN affine, which an FMA tier may round once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
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

}  // namespace
}  // namespace podnet::tensor
