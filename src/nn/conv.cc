#include "nn/conv.h"

#include <cassert>

#include "check/tensor_guard.h"
#include "ir/builder.h"
#include "nn/init.h"
#include "obs/profile.h"
#include "tensor/channel_ops.h"
#include "tensor/conv_direct.h"

namespace podnet::nn {

Conv2D::Conv2D(Index in_c, Index out_c, Index kernel, Index stride,
               Rng& init_rng, bool use_bias,
               tensor::MatmulPrecision precision, std::string name)
    : name_(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      use_bias_(use_bias),
      precision_(precision),
      weight_(name_ + "/kernel",
              conv_init(Shape{kernel, kernel, in_c, out_c}, init_rng)) {
  if (use_bias_) {
    bias_ = std::make_unique<Param>(name_ + "/bias", Tensor(Shape{out_c}),
                                    /*decay=*/false, /*adapt=*/false);
  }
}

void Conv2D::add_bias(Tensor& y) const {
  if (!use_bias_) return;
  tensor::bias_act({.bias = bias_->value.data()}, y.data(),
                   y.numel() / out_c_, out_c_);
}

Tensor Conv2D::forward(const Tensor& x, bool training) {
  PODNET_PROFILE_SPAN("conv2d.forward");
  assert(x.shape().rank() == 4 && x.shape()[3] == in_c_);
  geom_ = tensor::ConvGeometry::same(x.shape()[0], x.shape()[1], x.shape()[2],
                                     in_c_, kernel_, stride_);
  const Index m = geom_.col_rows();
  const Index k = geom_.col_cols();
  const Index m_img = geom_.out_h * geom_.out_w;

  // Fully overwritten below (beta=0 GEMMs / direct kernel cover every
  // element), so the buffer can skip zero-fill; PODNET_CHECK builds
  // NaN-poison it instead.
  Tensor y = Tensor::uninitialized(
      Shape{geom_.batch, geom_.out_h, geom_.out_w, out_c_});

  if (kernel_ == 1 && stride_ == 1) {
    // 1x1 stride-1 convolution: the im2col expansion is the input itself,
    // so the layer is one GEMM over all N*H*W pixel rows — no lowering, no
    // scratch, and backward reuses the cached input as the col matrix.
    const tensor::PackedB wpack = tensor::pack_b(
        false, k, out_c_, weight_.value.data(), out_c_, precision_);
    tensor::gemm_prepacked(false, m, out_c_, k, 1.f, x.data(), k, wpack, 0.f,
                           y.data(), out_c_, precision_);
    if (training) col_ = x;
    add_bias(y);
    return y;
  }

  // The direct kernel skips im2col entirely for register-friendly shapes
  // (stem-like small-in_c stages). Inference-only: backward needs the col
  // expansion. Fp32-only: the direct kernels carry no bf16 rounding.
  const tensor::conv::Mode mode = tensor::conv::active_mode();
  const bool want_direct =
      mode == tensor::conv::Mode::kDirect ||
      (mode == tensor::conv::Mode::kAuto &&
       tensor::conv::prefer_direct(geom_, out_c_));
  if (!training && want_direct &&
      precision_ == tensor::MatmulPrecision::kFp32) {
    // Bias is fused into the kernel's register-resident epilogue.
    tensor::conv::conv2d_direct(geom_, out_c_, x.data(), weight_.value.data(),
                                use_bias_ ? bias_->value.data() : nullptr,
                                use_bias_ ? tensor::conv::Epilogue::kBias
                                          : tensor::conv::Epilogue::kNone,
                                y.data());
    return y;
  }

  // The weight matrix is packed once per forward and reused by every
  // per-image GEMM of the batch loop below (read-only, so also safe for
  // the GEMM's internal worker threads).
  const tensor::PackedB wpack = tensor::pack_b(
      false, k, out_c_, weight_.value.data(), out_c_, precision_);

  if (training) {
    // Backward needs the whole col expansion, so lower the full batch and
    // run the GEMMs over per-image row slices of it.
    Tensor col = Tensor::uninitialized(Shape{m, k});  // im2col fills all of it
    tensor::im2col(geom_, x.data(), col.data());
    for (Index n = 0; n < geom_.batch; ++n) {
      tensor::gemm_prepacked(false, m_img, out_c_, k, 1.f,
                             col.data() + n * m_img * k, k, wpack, 0.f,
                             y.data() + n * m_img * out_c_, out_c_,
                             precision_);
    }
    col_ = std::move(col);
  } else {
    // Inference lowers one image at a time through a scratch buffer that
    // persists across forwards (grown to the worst-case geometry seen, so
    // steady-state inference allocates nothing here).
    tensor::ConvGeometry g1 = geom_;
    g1.batch = 1;
    const Index in_img = geom_.in_h * geom_.in_w * in_c_;
    const std::size_t need = static_cast<std::size_t>(m_img * k);
    if (col_scratch_.size() < need) {
      col_scratch_.resize(need);
    } else {
      // Reused buffer: NaN-poison the active region (PODNET_CHECK builds
      // only) so a geometry bug that reads cells im2col did not rewrite
      // propagates into the finiteness checks instead of reusing stale
      // values from the previous forward.
      check::poison(col_scratch_.data(), need);
    }
    for (Index n = 0; n < geom_.batch; ++n) {
      tensor::im2col(g1, x.data() + n * in_img, col_scratch_.data());
      tensor::gemm_prepacked(false, m_img, out_c_, k, 1.f, col_scratch_.data(),
                             k, wpack, 0.f, y.data() + n * m_img * out_c_,
                             out_c_, precision_);
    }
  }
  add_bias(y);
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  PODNET_PROFILE_SPAN("conv2d.backward");
  const Index m = geom_.col_rows();
  const Index k = geom_.col_cols();
  assert(grad_out.numel() == m * out_c_);

  // dW[k, out_c] += col^T[k, m] * dY[m, out_c]. For the 1x1 stride-1 path
  // col_ is the cached forward input itself (k == in_c there).
  tensor::gemm_contiguous(true, false, k, out_c_, m, 1.f, col_.data(),
                          grad_out.data(), 1.f, weight_.grad.data(),
                          precision_);
  if (use_bias_) {
    float* db = bias_->grad.data();
    const float* g = grad_out.data();
    for (Index r = 0; r < m; ++r) {
      for (Index c = 0; c < out_c_; ++c) db[c] += g[r * out_c_ + c];
    }
  }

  if (kernel_ == 1 && stride_ == 1) {
    // col2im is the identity here: dX = dY * W^T lands directly in dx.
    Tensor dx = Tensor::uninitialized(
        Shape{geom_.batch, geom_.in_h, geom_.in_w, in_c_});
    tensor::gemm_contiguous(false, true, m, k, out_c_, 1.f, grad_out.data(),
                            weight_.value.data(), 0.f, dx.data(), precision_);
    col_ = Tensor();
    return dx;
  }

  // dCol[m, k] = dY[m, out_c] * W^T[out_c, k]; beta=0 writes every element.
  Tensor dcol = Tensor::uninitialized(Shape{m, k});
  tensor::gemm_contiguous(false, true, m, k, out_c_, 1.f, grad_out.data(),
                          weight_.value.data(), 0.f, dcol.data(), precision_);

  Tensor dx(Shape{geom_.batch, geom_.in_h, geom_.in_w, in_c_});
  tensor::col2im(geom_, dcol.data(), dx.data());
  col_ = Tensor();  // release the cached expansion
  return dx;
}

void Conv2D::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(bias_.get());
}

bool Conv2D::lowerable() const {
  return precision_ == tensor::MatmulPrecision::kFp32;
}

int Conv2D::lower(ir::Builder& b, int x) const {
  return b.conv2d(x, in_c_, out_c_, kernel_, stride_, &weight_.value,
                  use_bias_ ? &bias_->value : nullptr, name_, use_bias_);
}

std::int64_t Conv2D::scratch_bytes() const {
  return static_cast<std::int64_t>(col_scratch_.capacity() * sizeof(float));
}

void Conv2D::release_scratch() {
  // The IR executor's planned arena replaces this buffer; drop both the
  // size and the capacity so the memory actually returns to the allocator.
  col_scratch_.clear();
  col_scratch_.shrink_to_fit();
}

}  // namespace podnet::nn
