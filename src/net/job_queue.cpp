#include "net/job_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"

namespace gdp::net {

JobQueue::JobQueue(std::size_t num_workers, std::size_t capacity)
    : capacity_(capacity) {
  if (num_workers == 0 ||
      num_workers > static_cast<std::size_t>(gdp::common::kMaxThreadCount)) {
    throw std::invalid_argument(
        "JobQueue: num_workers must be in [1, " +
        std::to_string(gdp::common::kMaxThreadCount) + "], got " +
        std::to_string(num_workers));
  }
  if (capacity == 0) {
    throw std::invalid_argument("JobQueue: capacity must be >= 1");
  }
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobQueue::~JobQueue() { Shutdown(); }

bool JobQueue::TrySubmit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || jobs_.size() >= capacity_) {
      ++rejected_;
      return false;
    }
    jobs_.push_back(std::move(job));
    ++submitted_;
    high_watermark_ = std::max(high_watermark_, jobs_.size());
  }
  cv_.notify_one();
  return true;
}

void JobQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) {
      return;
    }
    stopping_ = true;
    paused_ = false;  // a paused queue must still drain
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  workers_.clear();
}

void JobQueue::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void JobQueue::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

JobQueue::Stats JobQueue::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.depth = jobs_.size();
  s.capacity = capacity_;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.executed = executed_.Total();
  s.high_watermark = high_watermark_;
  s.workers = workers_.size();
  return s;
}

void JobQueue::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return (!paused_ && !jobs_.empty()) || (stopping_ && jobs_.empty());
      });
      if (jobs_.empty()) {
        return;  // stopping_ and drained
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
    executed_.Add();
  }
}

}  // namespace gdp::net
