// BucketReducer: one rank's dedicated gradient-communication thread.
//
// The overlapped training step (Akiba et al.'s bucketed all-reduce, ROADMAP
// item 4) hides gradient communication behind backward: as each layer
// bucket's gradients are packed, the main thread *submits* the bucket here
// and keeps computing; this thread drains the FIFO queue, running each
// bucket's all-reduce on the Communicator's dedicated bucket channel. The
// trainer joins at wait_all() before unpacking — the point where every
// gradient must be globally reduced.
//
// Ordering and determinism: submission order is driven by the model's
// backward stage order, which is identical on every rank (SPMD), so a FIFO
// queue keeps all ranks' bucket channels in lockstep; PODNET_CHECK builds
// additionally stamp the bucket id into the collective fingerprint, so a
// divergence is diagnosed by id. Arithmetic per bucket is exactly
// Communicator::allreduce_sum over the same span — the overlapped result is
// bitwise identical to reducing the buckets serially in submission order.
//
// Fault handling: any exception thrown by a bucket collective (CommAborted,
// WorldResizeRequired, CollectiveMismatch, non-finite guards) is captured
// and rethrown from the next wait_all() on the main thread, which is the
// same unwind point the serial all-reduce would have thrown from. If the
// reducer is destroyed with work still outstanding (the main thread is
// unwinding some other failure), the destructor aborts the communicator so
// this thread cannot stay blocked at a bucket rendezvous whose peers are
// gone, then joins.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <span>
#include <thread>

#include "check/mutex.h"
#include "dist/communicator.h"
#include "dist/deadline.h"

namespace podnet::dist {

// What one drain cycle (wait_all) observed: the wall time this rank's
// communication thread spent inside bucket collectives and how many
// buckets it reduced. `comm_seconds` leaves out queueing and the hand-off
// to this thread, so it is not the step's all-reduce phase: the trainer
// bills obs::Phase::kAllReduce as the main-thread window from the first
// submit until wait_all() returns, and the wait itself as the exposed
// part.
struct DrainStats {
  double comm_seconds = 0.0;
  std::uint64_t buckets = 0;
};

class BucketReducer {
 public:
  // `comm` must outlive the reducer. One reducer per rank; every rank must
  // construct one for the bucket channel to rendezvous (all ranks submit
  // the same buckets in the same order).
  BucketReducer(Communicator* comm, int rank, AllReduceAlgorithm alg);
  ~BucketReducer();

  BucketReducer(const BucketReducer&) = delete;
  BucketReducer& operator=(const BucketReducer&) = delete;

  // Enqueues one bucket's packed gradients for reduction. The span must
  // stay valid (and untouched) until the next wait_all() returns.
  void submit(std::int64_t bucket, std::span<float> data);

  // Blocks until every submitted bucket is reduced, then returns the drain
  // cycle's stats (and resets them for the next step). Rethrows any
  // exception the communication thread hit; the reducer is then spent —
  // destroy it (the trainer's unwind path does).
  DrainStats wait_all();

 private:
  struct Work {
    std::int64_t bucket = 0;
    float* data = nullptr;
    std::size_t size = 0;
  };

  void thread_main();

  Communicator* comm_;
  int rank_;
  AllReduceAlgorithm alg_;
  // Disabled policy: waits are still sliced (deadline_wait's contract), so
  // stop/abort flags are always observed without a raw unbounded wait.
  DeadlinePolicy policy_;

  check::Mutex mu_{PODNET_LOCK_NAME("comm_thread.queue")};
  check::ConditionVariable cv_;
  std::deque<Work> queue_;
  bool inflight_ = false;
  bool stop_ = false;
  double comm_seconds_ = 0.0;
  std::uint64_t buckets_done_ = 0;
  std::exception_ptr error_;

  std::thread thread_;
};

}  // namespace podnet::dist
