// Fixed-size thread pool for parallel release work.
//
// Deliberately work-stealing-free: a single mutex-guarded FIFO feeds N
// worker threads.  The release workload is a handful of coarse per-level
// tasks plus fixed-size noise chunks, where a lock-free deque would buy
// nothing and cost auditability — determinism reviews only have to reason
// about "chunks run exactly once, in some order", which this structure makes
// obvious.
//
// Determinism contract: the pool never owns randomness.  Callers that need
// reproducible output fork one RNG stream per work unit BEFORE submission
// (see GroupDpEngine::Release), so
// scheduling order cannot leak into results.
//
// CALLER PARTICIPATION: ParallelForChunked never parks the calling thread
// while work remains.  The caller claims chunks from the same shared counter
// the workers do, so (a) a nested call from inside a worker cannot
// self-deadlock — the worker simply runs the inner chunks itself when no
// sibling is free — and (b) a Submit failure mid-dispatch cannot strand the
// waiter: chunks are claimed at execution time, not pinned to tasks at
// submission time, so the caller drains whatever the queue never received.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gdp::common {

// The most OS threads one ThreadPool or net::JobQueue may be asked for.
// Thread counts come from flags and specs (--threads, --workers,
// ExecSpec::num_threads); each entry point refuses a count above this
// before any thread starts.
inline constexpr int kMaxThreadCount = 256;

class ThreadPool {
 public:
  // num_threads <= 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  // Enqueue a task; returns immediately.  Raw tasks must not themselves
  // block on this pool (ParallelForChunked is safe to nest — it never
  // blocks while work remains — but a bare Submit-and-wait from a worker
  // can still deadlock).
  void Submit(std::function<void()> task);

  // Run fn(chunk, begin, end) for each of ceil(n / grain) fixed-size chunks
  // ([begin, end) ⊂ [0, n), chunk = begin / grain) and block until all
  // complete.  Chunk boundaries depend only on (n, grain) — never on the
  // thread count — so callers can fork one RNG substream per chunk before
  // dispatch and get bit-identical output for any pool size.  The calling
  // thread participates in the work, so this is safe to call from inside a
  // pool worker (nested parallelism degrades to inline execution instead of
  // deadlocking).  The first exception thrown by any chunk is rethrown here
  // (remaining chunks still run to completion).  Requires grain > 0.
  void ParallelForChunked(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t chunk, std::size_t begin,
                               std::size_t end)>& fn);

  // Test-only fault injection: after `successes` more successful Submit
  // calls, the next Submit throws std::runtime_error (simulating a queue
  // failure mid-dispatch), then injection disarms.  Pass a negative value to
  // disarm immediately.
  void FailSubmitAfterForTest(int successes) noexcept {
    submit_fault_after_.store(successes, std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_{false};
  std::atomic<int> submit_fault_after_{-1};
};

// The one way src/ runs a chunked loop, with or without a pool: calls
// fn(chunk, begin, end) for the chunks ParallelForChunked cuts from [0, n)
// (chunk c = [c·grain, min(n, (c+1)·grain))).  Without a pool the chunks run
// in order on the calling thread and fn is called directly — no
// std::function, no dispatch — so a pool-optional loop costs what the plain
// loop costs.  With a pool they run through pool->ParallelForChunked, except
// that a lone chunk (n <= grain) still runs inline: there is nothing to
// overlap.  Boundaries depend only on (n, grain), so a loop whose chunks are
// independent (or draw from substreams forked before the call) yields the
// same result either way.  Requires grain > 0, with or without a pool.
template <typename Fn>
void ForEachChunk(ThreadPool* pool, std::size_t n, std::size_t grain, Fn&& fn) {
  if (grain == 0) {
    throw std::invalid_argument("ForEachChunk: grain == 0");
  }
  if (pool != nullptr && n > grain) {
    pool->ParallelForChunked(n, grain, fn);
    return;
  }
  std::size_t chunk = 0;
  for (std::size_t begin = 0; begin < n; ++chunk) {
    const std::size_t end = begin + std::min(grain, n - begin);
    fn(chunk, begin, end);
    begin = end;
  }
}

}  // namespace gdp::common
