// Conv+BN folding for inference.
//
// A batch_norm directly consuming a conv (or depthwise conv) output that
// has no other reader collapses into the conv itself: the per-channel
// affine y = x*scale + shift distributes over the convolution's linear
// output channels, so scale bakes into the packed weights and shift into
// a (possibly new) bias. scale and shift come from the same
// tensor::bn_scale_shift nn::BatchNorm::forward uses at inference — scale =
// gamma * (1/sqrt(var + eps)) computed in float — so the only numeric
// difference versus the interpreter is the reassociated weight product,
// bounded by the parity tests' ULP tolerance.
#include <vector>

#include "ir/analysis.h"
#include "ir/passes.h"
#include "ir/verify.h"
#include "tensor/channel_ops.h"

namespace podnet::ir {
namespace {

// scale/shift exactly as BatchNorm::forward computes them at inference.
void bn_affine(const Op& bn, std::vector<float>& scale,
               std::vector<float>& shift) {
  scale.resize(static_cast<std::size_t>(bn.in_c));
  shift.resize(static_cast<std::size_t>(bn.in_c));
  tensor::bn_scale_shift(bn.gamma->data(), bn.beta->data(), bn.mean->data(),
                         bn.var->data(), bn.eps, bn.in_c, scale.data(),
                         shift.data());
}

}  // namespace

int fold_batch_norm(Program& p) {
  auto& ops = p.ops();

  // Def-use chains over the pre-pass program; can_replace_consumer is the
  // slot-replacement legality gate (producer defined by a real op, read
  // only by the BN — the program output counts as a reader, so a conv
  // that is also the result survives un-folded).
  const DefUse du(p);

  int folded = 0;
  std::vector<float> scale, shift;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& bn = ops[i];
    if (bn.kind != OpKind::kBatchNorm || bn.var == nullptr) continue;
    if (!du.can_replace_consumer(bn.args[0], bn.out)) continue;
    const Op& conv = ops[static_cast<std::size_t>(du.def_index(bn.args[0]))];
    if (conv.kind != OpKind::kConv2D &&
        conv.kind != OpKind::kDepthwiseConv2D) {
      continue;
    }
    if (conv.weight == nullptr) continue;    // weightless shape program
    if (conv.act != Act::kNone) continue;    // activation runs before the BN

    bn_affine(bn, scale, shift);
    const Index co = conv.out_c;  // == channels for depthwise

    // w'[..., c] = w[..., c] * scale[c]; the output channel is the last,
    // contiguous axis in both the HWIO and the depthwise [k,k,C] layouts.
    Tensor w = *conv.weight;
    float* wd = w.data();
    const Index rows = w.numel() / co;
    for (Index r = 0; r < rows; ++r) {
      for (Index c = 0; c < co; ++c) wd[r * co + c] *= scale[c];
    }
    // b' = old_bias * scale + shift (shift alone when the conv had none).
    Tensor b(Shape{co});
    for (Index c = 0; c < co; ++c) {
      b.at(c) = conv.bias != nullptr ? conv.bias->at(c) * scale[c] + shift[c]
                                     : shift[c];
    }

    // Replace the BN slot with the folded conv (same out id); the original
    // conv op goes dead and DCE sweeps it.
    Op replacement = conv;
    replacement.out = bn.out;
    replacement.weight = p.bake(std::move(w));
    replacement.bias = p.bake(std::move(b));
    replacement.has_bias = true;
    ops[i] = std::move(replacement);
    ++folded;
  }
  PODNET_IR_VERIFY(p);
  return folded;
}

}  // namespace podnet::ir
