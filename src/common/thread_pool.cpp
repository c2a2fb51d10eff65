#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

namespace gdp::common {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) {
      num_threads = 1;
    }
  }
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (!task) {
    throw std::invalid_argument("ThreadPool::Submit: empty task");
  }
  {
    int expected = submit_fault_after_.load(std::memory_order_relaxed);
    while (expected >= 0 &&
           !submit_fault_after_.compare_exchange_weak(
               expected, expected - 1, std::memory_order_relaxed)) {
    }
    if (expected == 0) {
      throw std::runtime_error("ThreadPool::Submit: injected test fault");
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::Submit: pool is shutting down");
    }
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void ThreadPool::ParallelForChunked(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t chunk, std::size_t begin,
                             std::size_t end)>& fn) {
  if (grain == 0) {
    throw std::invalid_argument("ThreadPool::ParallelForChunked: grain == 0");
  }
  if (n == 0) {
    return;
  }
  const std::size_t num_chunks = (n + grain - 1) / grain;

  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t num_chunks{0};
    std::size_t n{0};
    std::size_t grain{0};
    const std::function<void(std::size_t, std::size_t, std::size_t)>* fn{
        nullptr};
    std::mutex m;
    std::condition_variable completed;
    std::exception_ptr first_error;
  };
  // Shared-ptr so a straggling worker that claims past the end after the
  // waiter has already returned still touches valid memory.
  auto state = std::make_shared<State>();
  state->num_chunks = num_chunks;
  state->n = n;
  state->grain = grain;
  state->fn = &fn;

  const auto run_chunks = [state] {
    for (;;) {
      const std::size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= state->num_chunks) {
        return;
      }
      try {
        const std::size_t begin = c * state->grain;
        const std::size_t end = std::min(state->n, begin + state->grain);
        (*state->fn)(c, begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state->m);
        if (!state->first_error) {
          state->first_error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->num_chunks) {
        // Take the lock before notifying so the waiter cannot slip between
        // its predicate check and its sleep.
        const std::lock_guard<std::mutex> lock(state->m);
        state->completed.notify_all();
      }
    }
  };

  // The caller takes one share of the work, so at most num_chunks - 1
  // helpers are useful.  Chunks are claimed at run time, not bound to tasks:
  // if Submit throws mid-dispatch (shutdown, injected fault), the chunks the
  // queue never received are simply drained by the caller below — the waiter
  // can only ever block on chunks a live thread is actually executing.
  const std::size_t helpers =
      std::min<std::size_t>(workers_.size(), num_chunks - 1);
  try {
    for (std::size_t i = 0; i < helpers; ++i) {
      Submit(run_chunks);
    }
  } catch (...) {
    // Fall through to inline execution of everything not yet claimed.
  }

  run_chunks();

  std::unique_lock<std::mutex> lock(state->m);
  state->completed.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->num_chunks;
  });
  if (state->first_error) {
    std::rethrow_exception(state->first_error);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace gdp::common
