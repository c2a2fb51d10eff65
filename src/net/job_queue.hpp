// Bounded job queue + worker pool for the network serving front end.
//
// The shape follows rippled's JobQueue (ROADMAP's "millions of users" item):
// readers decode typed requests and TrySubmit small closures; a fixed worker
// pool drains them.  The queue is BOUNDED and submission NEVER blocks —
// when the queue is full, TrySubmit returns false and the caller sheds the
// request with a typed Overloaded response instead of stalling the reader
// thread (backpressure must surface to the client as data, not as an
// unresponsive socket).
//
// Shutdown DRAINS: every job accepted before Shutdown() runs to completion
// before the workers exit.  That is the WAL-consistency half of the serving
// contract — an accepted request either completes (response written, charge
// durably appended) or was never admitted; shutdown never abandons work in
// between.
//
// Pause()/Resume() stop the workers from popping without affecting
// submission.  Tests use this to fill the queue deterministically and prove
// the overload path sheds exactly the excess (tests/net_server_test.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/sharded_counter.hpp"

namespace gdp::net {

class JobQueue {
 public:
  struct Stats {
    std::size_t depth{0};           // jobs currently queued (not running)
    std::size_t capacity{0};
    std::uint64_t submitted{0};     // accepted by TrySubmit
    std::uint64_t rejected{0};      // TrySubmit returned false
    std::uint64_t executed{0};      // jobs run to completion
    std::size_t high_watermark{0};  // max depth ever observed
    std::size_t workers{0};
  };

  // Spawns `num_workers` threads, in [1, common::kMaxThreadCount], draining
  // a queue of at most `capacity` (>= 1) pending jobs.  Both are checked
  // before any thread starts.
  JobQueue(std::size_t num_workers, std::size_t capacity);
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  // Enqueue without blocking.  False when the queue is at capacity or
  // shutting down — the caller owns the shed path.
  [[nodiscard]] bool TrySubmit(std::function<void()> job);

  // Stop accepting, run every already-accepted job, join the workers.
  // Idempotent.  A paused queue is resumed first (drain must finish).
  void Shutdown();

  // Keep accepting submissions but stop popping until Resume().
  void Pause();
  void Resume();

  [[nodiscard]] Stats GetStats() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  std::size_t capacity_;
  bool stopping_{false};
  bool paused_{false};
  std::uint64_t submitted_{0};
  std::uint64_t rejected_{0};
  // Incremented by every worker after every job — sharded so the per-request
  // accounting does not retake mu_ (or bounce one line) on the hot path.
  gdp::common::ShardedCounter executed_;
  std::size_t high_watermark_{0};
  std::vector<std::thread> workers_;
};

}  // namespace gdp::net
