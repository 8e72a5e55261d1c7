#include "ir/executor.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "check/check.h"
#include "check/tensor_guard.h"
#include "ir/analysis.h"
#include "ir/verify.h"
#include "tensor/channel_ops.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

namespace podnet::ir {
namespace {

using tensor::ConvGeometry;

[[noreturn]] void missing_tensor(const Op& op, const char* what) {
  throw std::invalid_argument(std::string("ir: Executor requires a weighted "
                                          "program; op '") +
                              op_kind_name(op.kind) + "' (" + op.name +
                              ") has no " + what);
}

// Register-epilogue selection for the direct conv kernel. kBias* variants
// accept a null bias pointer, so a fused activation without a bias still
// maps onto them.
tensor::conv::Epilogue direct_epilogue(const Op& op) {
  switch (op.act) {
    case Act::kSwish:
      return tensor::conv::Epilogue::kBiasSwish;
    case Act::kRelu:
      return tensor::conv::Epilogue::kBiasRelu;
    case Act::kNone:
      break;
  }
  return op.has_bias ? tensor::conv::Epilogue::kBias
                     : tensor::conv::Epilogue::kNone;
}

tensor::GemmEpilogue gemm_epilogue(const Op& op) {
  tensor::GemmEpilogue e;
  e.bias = (op.has_bias && op.bias != nullptr) ? op.bias->data() : nullptr;
  switch (op.act) {
    case Act::kSwish:
      e.act = tensor::GemmEpilogue::Act::kSwish;
      break;
    case Act::kRelu:
      e.act = tensor::GemmEpilogue::Act::kRelu;
      break;
    case Act::kNone:
      e.act = tensor::GemmEpilogue::Act::kNone;
      break;
  }
  return e;
}

bool wants_gemm_epilogue(const Op& op) {
  return op.act != Act::kNone || (op.has_bias && op.bias != nullptr);
}

}  // namespace

Executor::Executor(const Program& p) : prog_(&p) {
  PODNET_IR_VERIFY(p);
  const auto& ops = p.ops();
  packed_.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case OpKind::kConv2D: {
        if (op.weight == nullptr) missing_tensor(op, "weight");
        // Pack once; the recorded panel layout stays valid across
        // simd-level flips, and every bind/run reuses it.
        const Index k = op.kernel * op.kernel * op.in_c;
        packed_[i] = tensor::pack_b(false, k, op.out_c, op.weight->data(),
                                    op.out_c);
        break;
      }
      case OpKind::kDepthwiseConv2D:
      case OpKind::kGemm:
      case OpKind::kDense:
        if (op.weight == nullptr) missing_tensor(op, "weight");
        break;
      case OpKind::kBatchNorm:
        if (op.var == nullptr) missing_tensor(op, "running statistics");
        break;
      case OpKind::kSqueezeExcite:
        if (op.se_w1 == nullptr) missing_tensor(op, "squeeze-excite weights");
        break;
      case OpKind::kSwish:
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kAdd:
      case OpKind::kGlobalAvgPool:
      case OpKind::kSoftmax:
        break;
    }
    if (op.has_bias && op.bias == nullptr &&
        (op.kind == OpKind::kConv2D || op.kind == OpKind::kDense)) {
      missing_tensor(op, "bias");
    }
  }

  // Static range/finiteness gate: a program whose parameters already
  // carry NaN/Inf, or whose BN folds to a NaN affine, is rejected here —
  // before the first run — with the analysis's own diagnostic. The same
  // report decides where run() places its finite checks under
  // PODNET_CHECK.
  const RangeReport ranges = analyze_ranges(p);
  for (const RangeFinding& f : ranges.findings) {
    if (f.fatal) throw std::invalid_argument(f.message);
  }
  finite_check_ = finite_check_points(p, ranges);
}

bool Executor::conv_goes_direct(const Op& op, const ConvGeometry& g) const {
  // Mirrors nn::Conv2D::forward's inference path selection exactly (the
  // executor is fp32-only, so the precision gate is always passed).
  const tensor::conv::Mode mode = bound_mode_;
  return mode == tensor::conv::Mode::kDirect ||
         (mode == tensor::conv::Mode::kAuto &&
          tensor::conv::prefer_direct(g, op.out_c));
}

void Executor::bind(const Shape& input) {
  bound_input_ = input;
  bound_mode_ = tensor::conv::active_mode();
  shapes_ = infer_shapes(*prog_, input);

  // Per-op scratch needs come from the shared analysis table, driven by
  // the same direct-conv decision run() will make at this binding.
  scratch_ = op_scratch_floats(
      *prog_, shapes_, [this](const Op& op, const ConvGeometry& g) {
        return conv_goes_direct(op, g);
      });

  plan_ = plan_memory(*prog_, shapes_, scratch_);
  // Independent audit of the plan just produced: certify_plan re-derives
  // every lifetime from the op list and throws ("ir plan:") if the
  // first-fit placer ever overlapped two live blocks or broke alignment.
  certify_plan(*prog_, shapes_, scratch_, plan_);
  arena_.resize(static_cast<std::size_t>(plan_.arena_floats));
  stats_.arena_bytes =
      plan_.arena_floats * static_cast<std::int64_t>(sizeof(float));
  stats_.no_reuse_bytes =
      plan_.total_floats * static_cast<std::int64_t>(sizeof(float));
}

Tensor Executor::run(const Tensor& input) {
  if (shapes_.empty() || input.shape() != bound_input_ ||
      tensor::conv::active_mode() != bound_mode_) {
    bind(input.shape());
  }
  // Every live arena cell is written before it is read (beta=0 GEMMs,
  // full-overwrite kernels); poisoning makes a planner liveness bug surface
  // as NaNs under PODNET_CHECK instead of silently reusing a stale block.
  check::poison(arena_.data(), arena_.size());

  const auto& ops = prog_->ops();
  const auto value_ptr = [&](int v) -> float* {
    return arena_.data() + plan_.value_offset[static_cast<std::size_t>(v)];
  };
  const auto arg_ptr = [&](int v) -> const float* {
    if (v == Program::kInputValue) return input.data();
    return value_ptr(v);
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const Shape& in = shapes_[static_cast<std::size_t>(op.args[0])];
    const Shape& out = shapes_[static_cast<std::size_t>(op.out)];
    const float* x = arg_ptr(op.args[0]);
    float* y = value_ptr(op.out);
    float* scr = plan_.scratch_offset[i] >= 0
                     ? arena_.data() + plan_.scratch_offset[i]
                     : nullptr;

    switch (op.kind) {
      case OpKind::kConv2D: {
        const ConvGeometry g = conv_geometry(op, in);
        const Index k = g.col_cols();
        const Index m_img = g.out_h * g.out_w;
        if (op.kernel == 1 && op.stride == 1) {
          // One GEMM over all N*H*W pixel rows, as in nn::Conv2D.
          if (wants_gemm_epilogue(op)) {
            tensor::gemm_prepacked(false, g.col_rows(), op.out_c, k, 1.f, x,
                                   k, packed_[i], 0.f, y, op.out_c,
                                   gemm_epilogue(op));
          } else {
            tensor::gemm_prepacked(false, g.col_rows(), op.out_c, k, 1.f, x,
                                   k, packed_[i], 0.f, y, op.out_c);
          }
        } else if (conv_goes_direct(op, g)) {
          tensor::conv::conv2d_direct(
              g, op.out_c, x, op.weight->data(),
              op.bias != nullptr ? op.bias->data() : nullptr,
              direct_epilogue(op), y);
        } else {
          ConvGeometry g1 = g;
          g1.batch = 1;
          const Index in_img = g.in_h * g.in_w * g.in_c;
          for (Index n = 0; n < g.batch; ++n) {
            tensor::im2col(g1, x + n * in_img, scr);
            if (wants_gemm_epilogue(op)) {
              tensor::gemm_prepacked(false, m_img, op.out_c, k, 1.f, scr, k,
                                     packed_[i], 0.f, y + n * m_img * op.out_c,
                                     op.out_c, gemm_epilogue(op));
            } else {
              tensor::gemm_prepacked(false, m_img, op.out_c, k, 1.f, scr, k,
                                     packed_[i], 0.f, y + n * m_img * op.out_c,
                                     op.out_c);
            }
          }
        }
        break;
      }

      case OpKind::kDepthwiseConv2D: {
        const ConvGeometry g = conv_geometry(op, in);
        tensor::conv::depthwise_forward(g, x, op.weight->data(), y);
        tensor::bias_act(gemm_epilogue(op), y, g.col_rows(), op.in_c, scr);
        break;
      }

      case OpKind::kBatchNorm: {
        const Index c = op.in_c;
        tensor::bn_scale_shift(op.gamma->data(), op.beta->data(),
                               op.mean->data(), op.var->data(), op.eps, c,
                               scr, scr + c);
        tensor::channel_affine(x, scr, scr + c, in.numel() / c, c, y);
        break;
      }

      case OpKind::kSwish: {
        const std::size_t n = static_cast<std::size_t>(in.numel());
        tensor::swish({x, n}, {scr, n}, {y, n});
        break;
      }

      case OpKind::kRelu: {
        const std::size_t n = static_cast<std::size_t>(in.numel());
        tensor::relu({x, n}, {y, n});
        break;
      }

      case OpKind::kSigmoid: {
        const std::size_t n = static_cast<std::size_t>(in.numel());
        tensor::sigmoid({x, n}, {y, n});
        break;
      }

      case OpKind::kSqueezeExcite: {
        // Mirrors nn::SqueezeExcite::forward's kernel sequence: gap ->
        // dense+bias -> swish -> dense+bias -> sigmoid -> channel gate.
        const Index n = in[0];
        const Index hw = in[1] * in[2];
        const Index c = op.in_c;
        const Index sc = op.se_c;
        float* squeezed = scr;               // [N, C]
        float* gate = scr + n * c;           // [N, C]
        float* reduced = gate + n * c;       // [N, se_c]
        float* sig = reduced + n * sc;       // [N, se_c]
        tensor::channel_mean(x, n, hw, c, squeezed);
        tensor::gemm_contiguous(false, false, n, sc, c, 1.f, squeezed,
                                op.se_w1->data(), 0.f, reduced);
        tensor::bias_act({tensor::GemmEpilogue::Act::kSwish, op.se_b1->data()},
                         reduced, n, sc, sig);
        tensor::gemm_contiguous(false, false, n, c, sc, 1.f, reduced,
                                op.se_w2->data(), 0.f, gate);
        tensor::bias_act({.bias = op.se_b2->data()}, gate, n, c);
        const std::size_t ng = static_cast<std::size_t>(n * c);
        tensor::sigmoid({gate, ng}, {gate, ng});
        tensor::channel_scale(x, gate, n, hw, c, y);
        break;
      }

      case OpKind::kAdd: {
        const std::size_t n = static_cast<std::size_t>(out.numel());
        tensor::add({x, n}, {arg_ptr(op.args[1]), n}, {y, n});
        break;
      }

      case OpKind::kGlobalAvgPool:
        tensor::channel_mean(x, in[0], in[1] * in[2], in[3], y);
        break;

      case OpKind::kDense:
      case OpKind::kGemm: {
        // nn::Dense uses the contiguous (pack-per-call) gemm; matching it
        // keeps the no-pass path bitwise identical.
        const Index rows = in[0];
        tensor::gemm_contiguous(false, false, rows, op.out_c, op.in_c, 1.f, x,
                                op.weight->data(), 0.f, y);
        tensor::bias_act(gemm_epilogue(op), y, rows, op.out_c, scr);
        break;
      }

      case OpKind::kSoftmax: {
        const std::size_t n = static_cast<std::size_t>(in.numel());
        std::memcpy(y, x, n * sizeof(float));
        tensor::softmax_rows(y, in[0], in[1]);
        break;
      }
    }

    // Range analysis marked this op as an overflow/NaN risk (exp-family
    // activation over a value it could not bound, or the unbounded
    // program output): check the freshly written value under CHECK.
    if constexpr (check::kEnabled) {
      if (finite_check_[i]) {
        const std::string label = std::string("ir op ") +
                                  op_kind_name(op.kind) + " '" + op.name +
                                  "' (v" + std::to_string(op.out) + ")";
        check::assert_finite({y, static_cast<std::size_t>(out.numel())},
                             label);
      }
    }
  }

  const Shape& out_shape = shapes_[static_cast<std::size_t>(prog_->output())];
  Tensor out = Tensor::uninitialized(out_shape);
  std::memcpy(out.data(), value_ptr(prog_->output()),
              static_cast<std::size_t>(out_shape.numel()) * sizeof(float));
  return out;
}

}  // namespace podnet::ir
