#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/simd.h"
#include "tensor/vector_kernels.h"

// Each function reads the active dispatch level once (kernels::on_level).
// At AVX2 and AVX-512 it runs that tier's instantiation of the shared body
// in vector_kernels.h, or the tier's hand-written exp kernel (simd.h); at
// the scalar tier it runs the sequential loop below, the reference the
// vector tiers are tested against.
namespace podnet::tensor {

using kernels::on_level;

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  on_level(
      [&](auto lvl) {
        kernels::axpy<lvl()>(alpha, x.data(), y.data(), std::ssize(y));
      },
      [&] {
        for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
      });
}

void axpby(float alpha, std::span<const float> x, float beta,
           std::span<float> y) {
  assert(x.size() == y.size());
  on_level(
      [&](auto lvl) {
        kernels::axpby<lvl()>(alpha, x.data(), beta, y.data(), std::ssize(y));
      },
      [&] {
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = alpha * x[i] + beta * y[i];
        }
      });
}

void scale(float alpha, std::span<float> x) {
  on_level(
      [&](auto lvl) { kernels::scale<lvl()>(alpha, x.data(), std::ssize(x)); },
      [&] { for (float& v : x) v *= alpha; });
}

void scale_copy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  on_level(
      [&](auto lvl) {
        kernels::scale_copy<lvl()>(alpha, x.data(), y.data(), std::ssize(y));
      },
      [&] {
        for (std::size_t i = 0; i < x.size(); ++i) y[i] = alpha * x[i];
      });
}

void add_inplace(std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  on_level(
      [&](auto lvl) {
        kernels::add_inplace<lvl()>(x.data(), y.data(), std::ssize(y));
      },
      [&] { for (std::size_t i = 0; i < x.size(); ++i) y[i] += x[i]; });
}

void mul_inplace(std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  on_level(
      [&](auto lvl) {
        kernels::mul_inplace<lvl()>(x.data(), y.data(), std::ssize(y));
      },
      [&] { for (std::size_t i = 0; i < x.size(); ++i) y[i] *= x[i]; });
}

void fma_inplace(std::span<const float> a, std::span<const float> b,
                 std::span<float> y) {
  assert(a.size() == y.size() && b.size() == y.size());
  on_level(
      [&](auto lvl) {
        kernels::fma_inplace<lvl()>(a.data(), b.data(), y.data(),
                                    std::ssize(y));
      },
      [&] {
        for (std::size_t i = 0; i < y.size(); ++i) y[i] += a[i] * b[i];
      });
}

double sum(std::span<const float> x) {
  return on_level(
      [&](auto lvl) { return kernels::sum<lvl()>(x.data(), std::ssize(x)); },
      [&] {
        double s = 0.0;
        for (float v : x) s += v;
        return s;
      });
}

double sum_squares(std::span<const float> x) {
  return on_level(
      [&](auto lvl) {
        return kernels::sum_squares<lvl()>(x.data(), std::ssize(x));
      },
      [&] {
        double s = 0.0;
        for (float v : x) s += static_cast<double>(v) * v;
        return s;
      });
}

double l2_norm(std::span<const float> x) { return std::sqrt(sum_squares(x)); }

double dot(std::span<const float> x, std::span<const float> y) {
  assert(x.size() == y.size());
  return on_level(
      [&](auto lvl) {
        return kernels::dot<lvl()>(x.data(), y.data(), std::ssize(x));
      },
      [&] {
        double s = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          s += static_cast<double>(x[i]) * y[i];
        }
        return s;
      });
}

float max_value(std::span<const float> x) {
  return on_level(
      [&](auto lvl) {
        return kernels::max_value<lvl()>(x.data(), std::ssize(x));
      },
      [&] {
        float m = -std::numeric_limits<float>::infinity();
        for (float v : x) m = std::max(m, v);
        return m;
      });
}

bool all_finite(std::span<const float> x) {
  return on_level(
      [&](auto lvl) {
        return kernels::all_finite<lvl()>(x.data(), std::ssize(x));
      },
      [&] {
        // A float is non-finite iff its exponent field is all-ones, so the
        // max of the masked bits decides for the whole span.
        std::uint32_t worst = 0;
        for (const float v : x) {
          std::uint32_t bits;
          std::memcpy(&bits, &v, sizeof(bits));
          worst = std::max(worst, bits & 0x7f800000u);
        }
        return worst != 0x7f800000u;
      });
}

void sigmoid(std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  on_level(
      [&](auto lvl) { simd::sigmoid<lvl()>(x.data(), y.data(), x.size()); },
      [&] {
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = 1.0f / (1.0f + std::exp(-x[i]));
        }
      });
}

void swish(std::span<const float> x, std::span<float> sig,
           std::span<float> y) {
  assert(x.size() == sig.size() && x.size() == y.size());
  on_level(
      [&](auto lvl) {
        simd::swish<lvl()>(x.data(), sig.data(), y.data(), x.size());
      },
      [&] {
        for (std::size_t i = 0; i < x.size(); ++i) {
          sig[i] = 1.0f / (1.0f + std::exp(-x[i]));
          y[i] = x[i] * sig[i];
        }
      });
}

void swish_backward(std::span<const float> g, std::span<const float> x,
                    std::span<const float> sig, std::span<float> out) {
  assert(g.size() == out.size() && x.size() == out.size() &&
         sig.size() == out.size());
  on_level(
      [&](auto lvl) {
        kernels::swish_backward<lvl()>(g.data(), x.data(), sig.data(),
                                       out.data(), std::ssize(out));
      },
      [&] {
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = g[i] * sig[i] * (1.0f + x[i] * (1.0f - sig[i]));
        }
      });
}

void sigmoid_backward(std::span<const float> g, std::span<const float> y,
                      std::span<float> out) {
  assert(g.size() == out.size() && y.size() == out.size());
  on_level(
      [&](auto lvl) {
        kernels::sigmoid_backward<lvl()>(g.data(), y.data(), out.data(),
                                         std::ssize(out));
      },
      [&] {
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = g[i] * y[i] * (1.0f - y[i]);
        }
      });
}

void relu(std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  on_level(
      [&](auto lvl) {
        kernels::relu<lvl()>(x.data(), y.data(), std::ssize(y));
      },
      [&] {
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = x[i] <= 0.f ? 0.f : x[i];
        }
      });
}

void relu_backward(std::span<const float> g, std::span<const float> x,
                   std::span<float> out) {
  assert(g.size() == out.size() && x.size() == out.size());
  on_level(
      [&](auto lvl) {
        kernels::relu_backward<lvl()>(g.data(), x.data(), out.data(),
                                      std::ssize(out));
      },
      [&] {
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = x[i] > 0.f ? g[i] : 0.f;
        }
      });
}

void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  on_level(
      [&](auto lvl) {
        for (std::int64_t r = 0; r < rows; ++r) {
          float* row = x + r * cols;
          const float m = kernels::max_value<lvl()>(row, cols);
          simd::exp_sub<lvl()>(row, static_cast<std::size_t>(cols), m);
          const double denom = kernels::sum<lvl()>(row, cols);
          kernels::scale<lvl()>(static_cast<float>(1.0 / denom), row, cols);
        }
      },
      [&] {
        for (std::int64_t r = 0; r < rows; ++r) {
          float* row = x + r * cols;
          float m = -std::numeric_limits<float>::infinity();
          for (std::int64_t c = 0; c < cols; ++c) m = std::max(m, row[c]);
          double denom = 0.0;
          for (std::int64_t c = 0; c < cols; ++c) {
            row[c] = std::exp(row[c] - m);
            denom += row[c];
          }
          const float inv = static_cast<float>(1.0 / denom);
          for (std::int64_t c = 0; c < cols; ++c) row[c] *= inv;
        }
      });
}

void argmax_rows(const float* x, std::int64_t rows, std::int64_t cols,
                 std::int64_t* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = best;
  }
}

bool allclose(std::span<const float> a, std::span<const float> b, float rtol,
              float atol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > atol + rtol * std::abs(b[i])) return false;
  }
  return true;
}

}  // namespace podnet::tensor
