#include "resnet/resnet.h"

#include <cassert>

#include "ir/builder.h"
#include "tensor/channel_ops.h"

namespace podnet::resnet {

using nn::Tensor;

ResNetSpec resnet_tiny() {
  ResNetSpec spec;
  spec.name = "resnet-tiny";
  spec.stem_filters = 8;
  spec.stages = {{8, 1, 1}, {16, 1, 2}, {24, 1, 2}};
  return spec;
}

ResNetSpec cifar_resnet(int n) {
  assert(n >= 1);
  ResNetSpec spec;
  spec.name = "resnet-" + std::to_string(6 * n + 2);
  spec.stem_filters = 16;
  spec.stages = {{16, n, 1}, {32, n, 2}, {64, n, 2}};
  return spec;
}

BasicBlock::BasicBlock(Index in_filters, Index out_filters, Index stride,
                       nn::Rng& init_rng, const ResNetSpec& spec,
                       tensor::MatmulPrecision precision, std::string name)
    : name_(std::move(name)),
      conv1_(in_filters, out_filters, 3, stride, init_rng, /*use_bias=*/false,
             precision, name_ + "/conv1"),
      bn1_(out_filters, spec.bn_momentum, spec.bn_eps, name_ + "/bn1"),
      conv2_(out_filters, out_filters, 3, 1, init_rng, /*use_bias=*/false,
             precision, name_ + "/conv2"),
      bn2_(out_filters, spec.bn_momentum, spec.bn_eps, name_ + "/bn2") {
  if (stride != 1 || in_filters != out_filters) {
    proj_conv_ = std::make_unique<nn::Conv2D>(
        in_filters, out_filters, 1, stride, init_rng, /*use_bias=*/false,
        precision, name_ + "/proj");
    proj_bn_ = std::make_unique<nn::BatchNorm>(
        out_filters, spec.bn_momentum, spec.bn_eps, name_ + "/proj_bn");
  }
}

Tensor BasicBlock::forward(const Tensor& x, bool training) {
  Tensor main = bn2_.forward(
      conv2_.forward(
          relu1_.forward(bn1_.forward(conv1_.forward(x, training), training),
                         training),
          training),
      training);
  Tensor skip =
      proj_conv_ ? proj_bn_->forward(proj_conv_->forward(x, training),
                                     training)
                 : x;
  assert(main.shape() == skip.shape());
  tensor::add(main.span(), skip.span(), main.span());
  return relu_out_.forward(main, training);
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  Tensor g = relu_out_.backward(grad_out);
  Tensor gx = conv1_.backward(
      bn1_.backward(relu1_.backward(conv2_.backward(bn2_.backward(g)))));
  if (proj_conv_) {
    Tensor gskip = proj_conv_->backward(proj_bn_->backward(g));
    const float* s = gskip.data();
    float* d = gx.data();
    for (Index i = 0; i < gx.numel(); ++i) d[i] += s[i];
  } else {
    const float* s = g.data();
    float* d = gx.data();
    for (Index i = 0; i < gx.numel(); ++i) d[i] += s[i];
  }
  return gx;
}

void BasicBlock::collect_params(std::vector<nn::Param*>& out) {
  conv1_.collect_params(out);
  bn1_.collect_params(out);
  conv2_.collect_params(out);
  bn2_.collect_params(out);
  if (proj_conv_) {
    proj_conv_->collect_params(out);
    proj_bn_->collect_params(out);
  }
}

void BasicBlock::collect_state(std::vector<nn::Tensor*>& out) {
  bn1_.collect_state(out);
  bn2_.collect_state(out);
  if (proj_bn_) proj_bn_->collect_state(out);
}

void BasicBlock::collect_batchnorms(std::vector<nn::BatchNorm*>& out) {
  out.push_back(&bn1_);
  out.push_back(&bn2_);
  if (proj_bn_) out.push_back(proj_bn_.get());
}

bool BasicBlock::lowerable() const {
  return conv1_.lowerable() && conv2_.lowerable() &&
         (!proj_conv_ || proj_conv_->lowerable());
}

int BasicBlock::lower(ir::Builder& b, int x) const {
  const int main = bn2_.lower(
      b, conv2_.lower(b, relu1_.lower(b, bn1_.lower(b, conv1_.lower(b, x)))));
  const int skip =
      proj_conv_ ? proj_bn_->lower(b, proj_conv_->lower(b, x)) : x;
  return relu_out_.lower(b, b.add(main, skip));
}

std::int64_t BasicBlock::scratch_bytes() const {
  std::int64_t total = conv1_.scratch_bytes() + conv2_.scratch_bytes();
  if (proj_conv_) total += proj_conv_->scratch_bytes();
  return total;
}

void BasicBlock::release_scratch() {
  conv1_.release_scratch();
  conv2_.release_scratch();
  if (proj_conv_) proj_conv_->release_scratch();
}

ResNet::ResNet(const ResNetSpec& spec, const Options& options)
    : spec_(spec),
      options_(options),
      init_rng_(options.init_seed),
      stem_conv_(3, spec.stem_filters, 3, 1, init_rng_, /*use_bias=*/false,
                 options.precision, "stem/conv"),
      stem_bn_(spec.stem_filters, spec.bn_momentum, spec.bn_eps, "stem/bn") {
  Index in_f = spec_.stem_filters;
  int idx = 0;
  for (const StageSpec& stage : spec_.stages) {
    for (Index b = 0; b < stage.blocks; ++b) {
      const Index stride = b == 0 ? stage.stride : 1;
      blocks_.push_back(std::make_unique<BasicBlock>(
          in_f, stage.filters, stride, init_rng_, spec_, options_.precision,
          "blocks/" + std::to_string(idx++)));
      in_f = stage.filters;
    }
  }
  classifier_ = std::make_unique<nn::Dense>(in_f, options_.num_classes,
                                            init_rng_, /*use_bias=*/true,
                                            "head/classifier");
  bns_.push_back(&stem_bn_);
  for (auto& blk : blocks_) blk->collect_batchnorms(bns_);
}

Tensor ResNet::forward(const Tensor& x, bool training) {
  Tensor h = stem_relu_.forward(
      stem_bn_.forward(stem_conv_.forward(x, training), training), training);
  for (auto& blk : blocks_) h = blk->forward(h, training);
  h = pool_.forward(h, training);
  return classifier_->forward(h, training);
}

Tensor ResNet::backward(const Tensor& grad_out) {
  // Stage-completion notifications for the bucketed gradient sync; the
  // order is architecture-determined, identical across SPMD replicas.
  Tensor g = pool_.backward(classifier_->backward(grad_out));
  if (grad_sink_ != nullptr) {
    std::vector<nn::Param*> ready;
    classifier_->collect_params(ready);
    notify_grads_ready(ready);
  }
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
    if (grad_sink_ != nullptr) {
      std::vector<nn::Param*> ready;
      (*it)->collect_params(ready);
      notify_grads_ready(ready);
    }
  }
  g = stem_conv_.backward(stem_bn_.backward(stem_relu_.backward(g)));
  if (grad_sink_ != nullptr) {
    std::vector<nn::Param*> ready;
    stem_conv_.collect_params(ready);
    stem_bn_.collect_params(ready);
    notify_grads_ready(ready);
  }
  return g;
}

void ResNet::collect_params(std::vector<nn::Param*>& out) {
  stem_conv_.collect_params(out);
  stem_bn_.collect_params(out);
  for (auto& blk : blocks_) blk->collect_params(out);
  classifier_->collect_params(out);
}

void ResNet::collect_state(std::vector<nn::Tensor*>& out) {
  stem_bn_.collect_state(out);
  for (auto& blk : blocks_) blk->collect_state(out);
}

void ResNet::set_bn_sync(nn::BnStatSync* sync) {
  for (nn::BatchNorm* bn : bns_) bn->set_stat_sync(sync);
}

bool ResNet::lowerable() const {
  return options_.precision == tensor::MatmulPrecision::kFp32;
}

int ResNet::lower(ir::Builder& b, int x) const {
  int h = stem_relu_.lower(b, stem_bn_.lower(b, stem_conv_.lower(b, x)));
  for (const auto& blk : blocks_) h = blk->lower(b, h);
  h = pool_.lower(b, h);
  return classifier_->lower(b, h);
}

std::int64_t ResNet::scratch_bytes() const {
  std::int64_t total = stem_conv_.scratch_bytes();
  for (const auto& blk : blocks_) total += blk->scratch_bytes();
  return total;
}

void ResNet::release_scratch() {
  stem_conv_.release_scratch();
  for (const auto& blk : blocks_) blk->release_scratch();
}

}  // namespace podnet::resnet
