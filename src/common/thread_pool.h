// A small fixed-worker thread pool with a grain-controlled parallel-for:
// the parallel substrate of the analytics engine (the CsrSnapshot builder
// and the frontier/vertex-parallel kernels).
// Deliberately work-stealing-free: ParallelFor hands out contiguous index
// chunks from one shared atomic cursor, so lanes never touch each other's
// queues and the scheduling cost per chunk is one fetch_add.
//
// Concurrency contract:
//  - Submit/ParallelFor may be called from any thread, including from
//    inside a running task (ParallelFor from a task uses only the calling
//    lane — it never blocks waiting for pool capacity, so nesting cannot
//    deadlock).
//  - ParallelFor is a barrier: it returns only after every index of
//    [begin, end) has been processed exactly once, and rethrows the first
//    exception a chunk body threw (remaining chunks are abandoned, running
//    ones finish first).
//  - The destructor runs every task still queued, then joins the workers;
//    nothing submitted before destruction is dropped.
//
// The process-wide Shared() pool exists so repeated kernel calls reuse
// warm threads instead of paying thread spawn per call (src/analytics/
// routes through it via BudgetedParallelFor); it grows its worker set on
// demand and never shrinks.
#ifndef CUCKOOGRAPH_COMMON_THREAD_POOL_H_
#define CUCKOOGRAPH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cuckoograph {

class ThreadPool {
 public:
  // Spawns `num_workers` workers (0 is valid: every ParallelFor then runs
  // inline on the caller, the degenerate single-threaded pool).
  explicit ThreadPool(size_t num_workers);

  // Runs every still-queued task, then joins. No task submitted before
  // destruction began is dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const;

  // Grows the worker set to at least `n` workers (never shrinks). Safe to
  // call concurrently with running work.
  void EnsureWorkers(size_t n);

  // Enqueues a fire-and-forget task. Use ParallelFor when completion or
  // exceptions matter; Submit is the low-level primitive underneath it.
  void Submit(std::function<void()> task);

  // Splits [begin, end) into contiguous chunks of at least `grain`
  // indices and runs `body(chunk_begin, chunk_end)` over them on up to
  // `parallelism` lanes (the calling thread is one lane; at most
  // parallelism - 1 workers join it). Blocks until every index was
  // processed exactly once; rethrows the first exception thrown by a
  // chunk body after all lanes have stopped. parallelism <= 1, an empty
  // range, or a range no larger than `grain` runs inline on the caller —
  // byte-for-byte the sequential loop.
  template <typename Fn>
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   size_t parallelism, Fn&& body) {
    if (end <= begin) return;
    if (grain == 0) grain = 1;
    if (parallelism <= 1 || end - begin <= grain) {
      body(begin, end);
      return;
    }
    DoParallelFor(begin, end, grain, parallelism,
                  std::function<void(size_t, size_t)>(
                      std::forward<Fn>(body)));
  }

  // The process-wide pool the analytics kernels share: created on first
  // use, grown (via EnsureWorkers) to the largest parallelism ever
  // requested, destroyed at process exit. Intentionally oversubscribable —
  // on a box with fewer cores than requested lanes the chunks interleave,
  // which is exactly what the TSan differential suites want.
  static ThreadPool& Shared();

 private:
  void SpawnWorkersLocked(size_t n);
  void WorkerLoop();
  void DoParallelFor(size_t begin, size_t end, size_t grain,
                     size_t parallelism,
                     const std::function<void(size_t, size_t)>& body);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;       // wakes idle workers
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

// ParallelFor over [begin, end) on the Shared() pool with a budget of
// `num_threads` lanes (0 counts as 1), first growing the pool so the
// budget can be met. A budget of 1 is one inline call. The one budgeted
// entry point the analytics snapshot builder and kernels share.
template <typename Fn>
void BudgetedParallelFor(size_t num_threads, size_t grain, size_t begin,
                         size_t end, Fn&& body) {
  if (num_threads > 1) ThreadPool::Shared().EnsureWorkers(num_threads - 1);
  ThreadPool::Shared().ParallelFor(begin, end, grain, num_threads,
                                   std::forward<Fn>(body));
}

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_COMMON_THREAD_POOL_H_
