// Sharded batch loading for SPMD replicas.
//
// Training: every replica derives the same per-epoch permutation of the
// train split (seeded by epoch), then takes its own contiguous slice of
// each global batch — replica r of R with per-core batch b covers
// [step*R*b + r*b, step*R*b + (r+1)*b). Mirrors TPU host-side sharding.
//
// Evaluation: the eval split is sharded round-robin across replicas, which
// *is* the paper's distributed evaluation (Sec 3.3) — no dedicated
// evaluator; every core scores a slice and metrics are all-reduced.
//
// A batch's images render in parallel over the kernel pool. Each image
// draws from its own RNG stream and writes its own slice, so a batch is
// bitwise the same at any thread count.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "tensor/tensor.h"

namespace podnet::data {

struct Batch {
  tensor::Tensor images;             // [b, res, res, ch]
  std::vector<std::int64_t> labels;  // b
  Index count() const { return images.empty() ? 0 : images.shape()[0]; }
};

class TrainLoader {
 public:
  // `per_replica_batch` examples per step for this replica.
  TrainLoader(const SyntheticImageNet* dataset, int replica, int num_replicas,
              Index per_replica_batch);

  Index global_batch() const {
    return per_replica_batch_ * num_replicas_;
  }
  // Number of whole global batches per epoch (remainder dropped, as the
  // TPU input pipeline does).
  Index steps_per_epoch() const {
    return dataset_->size(Split::kTrain) / global_batch();
  }

  // Materializes this replica's shard of global step `step` in `epoch`.
  Batch batch(Index epoch, Index step);

 private:
  const std::vector<Index>& permutation(Index epoch);

  const SyntheticImageNet* dataset_;
  int replica_, num_replicas_;
  Index per_replica_batch_;
  Index cached_epoch_ = -1;
  std::vector<Index> perm_;
};

class EvalLoader {
 public:
  EvalLoader(const SyntheticImageNet* dataset, int replica, int num_replicas,
             Index per_replica_batch);

  // Batches this replica must score to cover its shard; the last batch may
  // be smaller. Returns an empty batch when the shard is exhausted.
  Index num_batches() const;
  Batch batch(Index i) const;
  // This replica's shard size.
  Index shard_size() const { return shard_.size(); }

 private:
  const SyntheticImageNet* dataset_;
  Index per_replica_batch_;
  std::vector<Index> shard_;
};

}  // namespace podnet::data
