#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gdp::common {
namespace {

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPoolTest, ExplicitSizeHonoured) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::promise<int> done;
  pool.Submit([&] { done.set_value(42); });
  EXPECT_EQ(done.get_future().get(), 42);
}

TEST(ThreadPoolTest, SubmitRejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.Submit({}), std::invalid_argument);
}

// Grain-1 chunking: one chunk per index, the shape of a per-item loop.
TEST(ThreadPoolTest, ChunkedGrainOneCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelForChunked(kN, 1, [&](std::size_t i, std::size_t, std::size_t) {
    ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunkedZeroItemsReturnsImmediately) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelForChunked(0, 1, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ChunkedGrainOnePropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForChunked(8, 1,
                                       [](std::size_t i, std::size_t,
                                          std::size_t) {
                                         if (i == 3) {
                                           throw std::runtime_error("boom");
                                         }
                                       }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionDoesNotPoisonThePool) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelForChunked(
                   4, 1,
                   [](std::size_t, std::size_t, std::size_t) {
                     throw std::runtime_error("x");
                   }),
               std::runtime_error);
  // Pool must still be fully usable afterwards.
  std::atomic<int> sum{0};
  pool.ParallelForChunked(10, 1, [&](std::size_t i, std::size_t, std::size_t) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelForChunked(50, 1,
                            [&](std::size_t i, std::size_t, std::size_t) {
                              total += static_cast<long>(i);
                            });
  }
  EXPECT_EQ(total.load(), 20L * (49L * 50L / 2L));
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(64, 0);
  pool.ParallelForChunked(out.size(), 1,
                          [&](std::size_t i, std::size_t, std::size_t) {
                            out[i] = static_cast<int>(i) * 2;
                          });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 2);
  }
}

// Regression: a parallel-for from inside a worker used to deadlock (the
// worker blocked waiting on tasks no free sibling could run).  Caller
// participation means the nested call degrades to inline execution instead.
TEST(ThreadPoolTest, NestedChunkedFromWorkerCompletes) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 8;
  std::atomic<int> hits{0};
  pool.ParallelForChunked(kOuter, 1, [&](std::size_t, std::size_t,
                                         std::size_t) {
    pool.ParallelForChunked(kInner, 1,
                            [&](std::size_t, std::size_t, std::size_t) {
                              ++hits;
                            });
  });
  EXPECT_EQ(hits.load(), static_cast<int>(kOuter * kInner));
}

TEST(ThreadPoolTest, NestedExceptionPropagatesToOuterCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelForChunked(
          4, 1,
          [&](std::size_t, std::size_t, std::size_t) {
            pool.ParallelForChunked(4, 1,
                                    [](std::size_t j, std::size_t,
                                       std::size_t) {
                                      if (j == 2) {
                                        throw std::runtime_error("inner");
                                      }
                                    });
          }),
      std::runtime_error);
}

// Regression: if Submit threw mid-dispatch, the already-submitted tasks
// decremented the barrier but the never-submitted ones could not, so the
// waiter blocked forever.  Chunks are now claimed at run time and the caller
// drains whatever the queue never received.
TEST(ThreadPoolTest, SubmitFailureMidDispatchStillCompletesEveryIndex) {
  ThreadPool pool(4);
  pool.FailSubmitAfterForTest(1);  // second helper Submit throws
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelForChunked(hits.size(), 1,
                          [&](std::size_t i, std::size_t, std::size_t) {
                            ++hits[i];
                          });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Injection disarmed after firing: the pool is fully usable again.
  std::atomic<int> sum{0};
  pool.ParallelForChunked(10, 1, [&](std::size_t i, std::size_t, std::size_t) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, EverySubmitFailingFallsBackToInlineExecution) {
  ThreadPool pool(4);
  pool.FailSubmitAfterForTest(0);  // very first Submit throws
  std::atomic<int> sum{0};
  pool.ParallelForChunked(32, 1, [&](std::size_t i, std::size_t, std::size_t) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 31 * 32 / 2);
  pool.FailSubmitAfterForTest(-1);
}

TEST(ThreadPoolTest, ChunkedCoversRangeWithExactChunkGeometry) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 103;
  constexpr std::size_t kGrain = 10;
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::atomic<int>> chunk_of(kN);
  pool.ParallelForChunked(kN, kGrain,
                          [&](std::size_t chunk, std::size_t begin,
                              std::size_t end) {
                            EXPECT_EQ(begin, chunk * kGrain);
                            EXPECT_EQ(end, std::min(kN, begin + kGrain));
                            for (std::size_t i = begin; i < end; ++i) {
                              ++hits[i];
                              chunk_of[i] = static_cast<int>(chunk);
                            }
                          });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(chunk_of[i].load(), static_cast<int>(i / kGrain));
  }
}

TEST(ThreadPoolTest, ChunkedRejectsZeroGrain) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.ParallelForChunked(4, 0, [](std::size_t, std::size_t, std::size_t) {}),
      std::invalid_argument);
}

TEST(ThreadPoolTest, ChunkedPropagatesFirstExceptionAndRunsRest) {
  ThreadPool pool(2);
  std::atomic<int> chunks_run{0};
  EXPECT_THROW(pool.ParallelForChunked(40, 4,
                                       [&](std::size_t chunk, std::size_t,
                                           std::size_t) {
                                         ++chunks_run;
                                         if (chunk == 1) {
                                           throw std::runtime_error("boom");
                                         }
                                       }),
               std::runtime_error);
  EXPECT_EQ(chunks_run.load(), 10);  // remaining chunks still ran
}

// ForEachChunk is the pool-optional loop every compile and release stage
// runs: without a pool the chunks run in order on the calling thread, with
// the exact boundaries the pool would give them.
TEST(ThreadPoolTest, ForEachChunkWithoutPoolRunsPoolChunksInOrderInline) {
  constexpr std::size_t kN = 103;
  constexpr std::size_t kGrain = 10;
  using Chunk = std::array<std::size_t, 3>;  // {chunk, begin, end}
  std::vector<Chunk> inline_chunks;
  const std::thread::id caller = std::this_thread::get_id();
  ForEachChunk(nullptr, kN, kGrain,
               [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                 EXPECT_EQ(std::this_thread::get_id(), caller);
                 inline_chunks.push_back({chunk, begin, end});
               });
  ASSERT_EQ(inline_chunks.size(), (kN + kGrain - 1) / kGrain);
  for (std::size_t c = 0; c < inline_chunks.size(); ++c) {
    EXPECT_EQ(inline_chunks[c][0], c) << "chunks must run in order";
  }

  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<Chunk> pooled_chunks;
  ForEachChunk(&pool, kN, kGrain,
               [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                 const std::lock_guard<std::mutex> lock(mutex);
                 pooled_chunks.push_back({chunk, begin, end});
               });
  std::sort(pooled_chunks.begin(), pooled_chunks.end());
  EXPECT_EQ(inline_chunks, pooled_chunks);

  const auto noop = [](std::size_t, std::size_t, std::size_t) {};
  EXPECT_THROW(ForEachChunk(nullptr, 4, 0, noop), std::invalid_argument);
  EXPECT_THROW(ForEachChunk(&pool, 4, 0, noop), std::invalid_argument);
  bool called = false;
  ForEachChunk(nullptr, 0, 1,
               [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace gdp::common
