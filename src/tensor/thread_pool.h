// A small persistent thread pool with a parallel_for primitive.
//
// PodNet uses two distinct kinds of threads:
//  * replica threads (src/dist) — one per simulated TPU core, long-lived,
//    created by the Communicator;
//  * kernel worker threads (this file) — used to split a single kernel
//    (GEMM, im2col) across cores *within* one replica.
// parallel_for is safe to call concurrently from several replica threads:
// completion tracking is per-call, not pool-global. On the single-core CI
// machine the pool degenerates to inline execution.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "check/mutex.h"

namespace podnet::tensor {

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency - 1 workers (callers run the
  // first chunk themselves), i.e. inline execution on a single-core host;
  // threads < 0 forces zero workers (pure inline execution).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Splits [0, n) into contiguous chunks and runs fn(begin, end) on the
  // workers plus the calling thread. Blocks until every chunk finished.
  // fn must not touch overlapping mutable state across chunks (CP.2).
  //
  // Exceptions: a chunk functor may throw. The first exception captured
  // for this call (any chunk, worker or caller) is rethrown here on the
  // calling thread after every chunk has retired — never from a worker
  // thread, and never leaving the call's completion count short. Other
  // chunks still run to completion; the pool stays usable afterwards.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  // Process-wide pool for kernels; sized from hardware_concurrency unless
  // PODNET_THREADS overrides the total participating thread count.
  static ThreadPool& global();

 private:
  // Per-parallel_for completion state; lives on the caller's stack for the
  // duration of the call.
  struct CallState {
    const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
    check::Mutex mu{PODNET_LOCK_NAME("thread_pool.call")};
    check::ConditionVariable cv;
    int remaining = 0;
    // First exception thrown by any chunk of this call; rethrown by
    // parallel_for on the calling thread once remaining hits zero.
    std::exception_ptr error;
  };

  struct Task {
    CallState* state = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  check::Mutex mu_{PODNET_LOCK_NAME("thread_pool.queue")};
  check::ConditionVariable work_cv_;
  std::deque<Task> queue_;
  bool shutdown_ = false;
};

// Runs fn(u0, u1) over [0, units) on the calling thread and pool's
// workers. Each claims grains of about 1/kGrainsPerThread of one thread's
// share until none are left, so a thread the OS runs late (another process
// on its vCPU) delays one grain instead of a fixed share of the work. Runs
// inline for one unit or a pool without workers. Which thread runs a grain
// varies from call to call; fn must give the same result either way.
//
// Never call it from inside a parallel_for chunk (a pool worker): the
// nested fork can wait on workers that are all waiting themselves.
inline constexpr std::int64_t kGrainsPerThread = 4;

template <typename Fn>
void parallel_grains(ThreadPool& pool, std::int64_t units, const Fn& fn) {
  if (units <= 0) return;
  const std::int64_t threads = pool.worker_count() + 1;
  if (units == 1 || threads == 1) {
    fn(0, units);
    return;
  }
  const std::int64_t grain =
      std::max<std::int64_t>(1, units / (kGrainsPerThread * threads));
  std::atomic<std::int64_t> next{0};
  pool.parallel_for(threads, [&](std::int64_t, std::int64_t) {
    for (std::int64_t u0 = next.fetch_add(grain, std::memory_order_relaxed);
         u0 < units; u0 = next.fetch_add(grain, std::memory_order_relaxed)) {
      fn(u0, std::min(units, u0 + grain));
    }
  });
}

}  // namespace podnet::tensor
