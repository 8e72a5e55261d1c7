#include "data/loader.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "tensor/thread_pool.h"

namespace podnet::data {

using tensor::Shape;
using tensor::Tensor;

TrainLoader::TrainLoader(const SyntheticImageNet* dataset, int replica,
                         int num_replicas, Index per_replica_batch)
    : dataset_(dataset),
      replica_(replica),
      num_replicas_(num_replicas),
      per_replica_batch_(per_replica_batch) {
  assert(per_replica_batch_ >= 1);
  assert(global_batch() <= dataset_->size(Split::kTrain) &&
         "global batch exceeds the train split");
}

const std::vector<Index>& TrainLoader::permutation(Index epoch) {
  if (cached_epoch_ != epoch) {
    const Index n = dataset_->size(Split::kTrain);
    perm_.resize(static_cast<std::size_t>(n));
    std::iota(perm_.begin(), perm_.end(), Index{0});
    // Same seed on every replica -> identical global order (the shuffle is
    // "host-side"); Fisher-Yates with the dataset rng keeps it portable.
    tensor::Rng rng(dataset_->config().seed ^
                    (0x9e37ULL * static_cast<std::uint64_t>(epoch + 1)));
    for (Index i = n - 1; i > 0; --i) {
      const Index j = static_cast<Index>(
          rng.next_below(static_cast<std::uint64_t>(i + 1)));
      std::swap(perm_[static_cast<std::size_t>(i)],
                perm_[static_cast<std::size_t>(j)]);
    }
    cached_epoch_ = epoch;
  }
  return perm_;
}

Batch TrainLoader::batch(Index epoch, Index step) {
  const auto& perm = permutation(epoch);
  const Index res = dataset_->config().resolution;
  const Index ch = dataset_->config().channels;
  const Index b = per_replica_batch_;
  const Index base = step * global_batch() + replica_ * b;
  assert(base + b <= dataset_->size(Split::kTrain));

  Batch out;
  out.images = Tensor::uninitialized(Shape{b, res, res, ch});
  out.labels.resize(static_cast<std::size_t>(b));
  const Index elems = dataset_->sample_elems();
  tensor::parallel_grains(
      tensor::ThreadPool::global(), b, [&](Index i0, Index i1) {
        for (Index i = i0; i < i1; ++i) {
          const Index idx = perm[static_cast<std::size_t>(base + i)];
          dataset_->render(Split::kTrain, idx,
                           static_cast<std::uint64_t>(epoch),
                           {out.images.data() + i * elems,
                            static_cast<std::size_t>(elems)});
          out.labels[static_cast<std::size_t>(i)] =
              dataset_->label_of(Split::kTrain, idx);
        }
      });
  return out;
}

EvalLoader::EvalLoader(const SyntheticImageNet* dataset, int replica,
                       int num_replicas, Index per_replica_batch)
    : dataset_(dataset), per_replica_batch_(per_replica_batch) {
  const Index n = dataset_->size(Split::kEval);
  for (Index i = replica; i < n; i += num_replicas) shard_.push_back(i);
}

Index EvalLoader::num_batches() const {
  return (static_cast<Index>(shard_.size()) + per_replica_batch_ - 1) /
         per_replica_batch_;
}

Batch EvalLoader::batch(Index i) const {
  const Index res = dataset_->config().resolution;
  const Index ch = dataset_->config().channels;
  const Index begin = i * per_replica_batch_;
  const Index end = std::min<Index>(static_cast<Index>(shard_.size()),
                                    begin + per_replica_batch_);
  Batch out;
  if (begin >= end) return out;
  const Index b = end - begin;
  out.images = Tensor::uninitialized(Shape{b, res, res, ch});
  out.labels.resize(static_cast<std::size_t>(b));
  const Index elems = dataset_->sample_elems();
  tensor::parallel_grains(
      tensor::ThreadPool::global(), b, [&](Index k0, Index k1) {
        for (Index k = k0; k < k1; ++k) {
          const Index idx = shard_[static_cast<std::size_t>(begin + k)];
          dataset_->render(Split::kEval, idx, 0,
                           {out.images.data() + k * elems,
                            static_cast<std::size_t>(elems)});
          out.labels[static_cast<std::size_t>(k)] =
              dataset_->label_of(Split::kEval, idx);
        }
      });
  return out;
}

}  // namespace podnet::data
