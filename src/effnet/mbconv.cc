#include "effnet/mbconv.h"

#include <algorithm>
#include <cassert>

#include "ir/builder.h"
#include "tensor/channel_ops.h"

namespace podnet::effnet {

using nn::Tensor;

MBConvBlock::MBConvBlock(const BlockArgs& args, nn::Rng& init_rng,
                         nn::Rng droppath_rng,
                         tensor::MatmulPrecision precision, std::string name)
    : name_(std::move(name)),
      args_(args),
      dwconv_(args.input_filters * args.expand_ratio, args.kernel, args.stride,
              init_rng, precision, name_ + "/dw"),
      bn1_(args.input_filters * args.expand_ratio, args.bn_momentum, args.bn_eps,
           name_ + "/bn1"),
      project_conv_(args.input_filters * args.expand_ratio,
                    args.output_filters, 1, 1, init_rng, /*use_bias=*/false,
                    precision, name_ + "/project"),
      bn2_(args.output_filters, args.bn_momentum, args.bn_eps, name_ + "/bn2"),
      drop_path_(args.survival_prob, droppath_rng, name_ + "/drop_path") {
  const Index expanded = args.input_filters * args.expand_ratio;
  if (args.expand_ratio != 1) {
    expand_conv_ = std::make_unique<nn::Conv2D>(
        args.input_filters, expanded, 1, 1, init_rng, /*use_bias=*/false,
        precision, name_ + "/expand");
    bn0_ = std::make_unique<nn::BatchNorm>(expanded, args.bn_momentum, args.bn_eps,
                                           name_ + "/bn0");
    swish0_ = std::make_unique<nn::Swish>();
  }
  if (args.se_ratio > 0.f) {
    const Index se_ch = std::max<Index>(
        1, static_cast<Index>(static_cast<float>(args.input_filters) *
                              args.se_ratio));
    se_ = std::make_unique<nn::SqueezeExcite>(expanded, se_ch, init_rng,
                                              name_ + "/se");
  }
  has_residual_ =
      args.stride == 1 && args.input_filters == args.output_filters;
}

Tensor MBConvBlock::forward(const Tensor& x, bool training) {
  Tensor h = x;
  if (expand_conv_) {
    h = swish0_->forward(bn0_->forward(expand_conv_->forward(h, training),
                                       training),
                         training);
  }
  h = swish1_.forward(bn1_.forward(dwconv_.forward(h, training), training),
                      training);
  if (se_) h = se_->forward(h, training);
  h = bn2_.forward(project_conv_.forward(h, training), training);
  if (has_residual_) {
    h = drop_path_.forward(h, training);
    assert(h.shape() == x.shape());
    tensor::add(h.span(), x.span(), h.span());
  }
  return h;
}

Tensor MBConvBlock::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  if (has_residual_) g = drop_path_.backward(g);
  g = project_conv_.backward(bn2_.backward(g));
  if (se_) g = se_->backward(g);
  g = dwconv_.backward(bn1_.backward(swish1_.backward(g)));
  if (expand_conv_) {
    g = expand_conv_->backward(bn0_->backward(swish0_->backward(g)));
  }
  if (has_residual_) tensor::add(g.span(), grad_out.span(), g.span());
  return g;
}

void MBConvBlock::collect_params(std::vector<nn::Param*>& out) {
  if (expand_conv_) {
    expand_conv_->collect_params(out);
    bn0_->collect_params(out);
  }
  dwconv_.collect_params(out);
  bn1_.collect_params(out);
  if (se_) se_->collect_params(out);
  project_conv_.collect_params(out);
  bn2_.collect_params(out);
}

void MBConvBlock::collect_state(std::vector<nn::Tensor*>& out) {
  if (bn0_) bn0_->collect_state(out);
  bn1_.collect_state(out);
  bn2_.collect_state(out);
}

void MBConvBlock::collect_rngs(std::vector<nn::Rng*>& out) {
  drop_path_.collect_rngs(out);
}

bool MBConvBlock::lowerable() const {
  return dwconv_.lowerable() && project_conv_.lowerable() &&
         (!expand_conv_ || expand_conv_->lowerable());
}

int MBConvBlock::lower(ir::Builder& b, int x) const {
  // Mirrors forward(training=false); drop_path is the identity there.
  int h = x;
  if (expand_conv_) {
    h = swish0_->lower(b, bn0_->lower(b, expand_conv_->lower(b, h)));
  }
  h = swish1_.lower(b, bn1_.lower(b, dwconv_.lower(b, h)));
  if (se_) h = se_->lower(b, h);
  h = bn2_.lower(b, project_conv_.lower(b, h));
  if (has_residual_) h = b.add(h, x);
  return h;
}

std::int64_t MBConvBlock::scratch_bytes() const {
  std::int64_t total =
      dwconv_.scratch_bytes() + project_conv_.scratch_bytes();
  if (expand_conv_) total += expand_conv_->scratch_bytes();
  return total;
}

void MBConvBlock::release_scratch() {
  if (expand_conv_) expand_conv_->release_scratch();
  dwconv_.release_scratch();
  project_conv_.release_scratch();
}

void MBConvBlock::collect_batchnorms(std::vector<nn::BatchNorm*>& out) {
  if (bn0_) out.push_back(bn0_.get());
  out.push_back(&bn1_);
  out.push_back(&bn2_);
}

}  // namespace podnet::effnet
