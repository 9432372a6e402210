#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace mvs::util {
namespace {

/// Parks every worker of `pool`: an extra caller thread runs one
/// parallel_for_each with an index per worker plus its own, each spinning on
/// a gate, so every worker is stuck inside a tile until release().
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool& pool)
      : caller_([this, &pool] {
          pool.parallel_for_each(pool.thread_count() + 1, [this](std::size_t) {
            parked_.fetch_add(1, std::memory_order_acq_rel);
            while (!gate_.load(std::memory_order_acquire))
              std::this_thread::yield();
          });
        }) {
    while (parked_.load(std::memory_order_acquire) <
           static_cast<int>(pool.thread_count()) + 1)
      std::this_thread::yield();
  }
  ~ParkedWorkers() { release(); }

  void release() {
    gate_.store(true, std::memory_order_release);
    if (caller_.joinable()) caller_.join();
  }

 private:
  std::atomic<int> parked_{0};
  std::atomic<bool> gate_{false};
  std::thread caller_;
};

TEST(ThreadPool, ParallelForEachCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(64, 0);
  pool.parallel_for_each(hits.size(),
                         [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PartitionedStateIsRaceFree) {
  // Each index owns its slot; sums must be exact (no lost updates).
  ThreadPool pool;
  std::vector<long> slots(200, 0);
  for (int round = 0; round < 10; ++round)
    pool.parallel_for_each(slots.size(), [&](std::size_t i) {
      for (int k = 0; k < 1000; ++k) slots[i] += 1;
    });
  const long total = std::accumulate(slots.begin(), slots.end(), 0L);
  EXPECT_EQ(total, 200L * 10L * 1000L);
}

TEST(ThreadPool, ParallelForEachWithNoIndices) {
  ThreadPool pool(2);
  pool.parallel_for_each(0, [](std::size_t) { FAIL(); });  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for_each(10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for_each(20, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPool, ZeroChoosesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DestructionWithLateHelpersQueuedCompletes) {
  // With every worker parked, each call runs all its indices on the caller
  // and leaves its helpers queued, each holding the call's tile group. The
  // destructor must drain those late helpers (which claim nothing) and
  // join without hanging or touching a recycled group.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    ParkedWorkers parked(pool);
    for (int i = 0; i < 50; ++i)
      pool.parallel_for_each(4, [&](std::size_t) { ++counter; });
    parked.release();
  }  // destructor drains the queued helpers and joins
  EXPECT_EQ(counter.load(), 50 * 4);
}

TEST(ThreadPool, ExceptionPropagatesFromParallelForEach) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_each(16,
                                      [&](std::size_t i) {
                                        ++ran;
                                        if (i == 5)
                                          throw std::runtime_error("task 5");
                                      }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // remaining tasks still ran
  // The pool stays usable and the error does not resurface.
  std::atomic<int> counter{0};
  pool.parallel_for_each(8, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, NestedInsideWorkersDoesNotDeadlock) {
  // Outer per-camera fan-out with inner per-row tiling: every worker may be
  // busy with an outer task, so inner progress must come from the callers.
  ThreadPool pool(4);
  std::vector<std::vector<int>> hits(6, std::vector<int>(32, 0));
  pool.parallel_for_each(hits.size(), [&](std::size_t outer) {
    pool.parallel_for_each(hits[outer].size(), [&, outer](std::size_t inner) {
      hits[outer][inner] += 1;
    });
  });
  for (const auto& row : hits)
    for (int h : row) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedWithSingleWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for_each(3, [&](std::size_t) {
    pool.parallel_for_each(16, [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 3 * 16);
}

TEST(ThreadPool, SharedAcrossConcurrentSessions) {
  // The fleet runtime drives many sessions over ONE pool: each session
  // issues its own parallel_for_each calls concurrently. Every call must
  // cover exactly its own indices with no lost updates.
  ThreadPool pool(4);
  constexpr int kSessions = 6;
  constexpr int kRounds = 25;
  constexpr std::size_t kIndices = 64;
  std::vector<std::vector<long>> slots(
      kSessions, std::vector<long>(kIndices, 0));
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&pool, &slots, s] {
      for (int round = 0; round < kRounds; ++round)
        pool.parallel_for_each(kIndices, [&slots, s](std::size_t i) {
          slots[static_cast<std::size_t>(s)][i] += 1;
        });
    });
  }
  for (std::thread& t : sessions) t.join();
  for (const auto& session : slots)
    for (long v : session) EXPECT_EQ(v, kRounds);
}

TEST(ThreadPool, ConcurrentCallersDoNotObserveEachOthersExceptions) {
  // Per-call completion groups: a throwing session must not leak its error
  // into an innocent session's parallel_for_each, nor hang either of them.
  ThreadPool pool(3);
  std::atomic<int> clean_runs{0};
  std::atomic<int> faulty_throws{0};
  std::thread faulty([&] {
    for (int round = 0; round < 50; ++round) {
      try {
        pool.parallel_for_each(16, [](std::size_t i) {
          if (i == 3) throw std::runtime_error("faulty session");
        });
      } catch (const std::runtime_error&) {
        ++faulty_throws;
      }
    }
  });
  std::thread clean([&] {
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for_each(16, [&](std::size_t) { ++clean_runs; });
    }
  });
  faulty.join();
  clean.join();
  EXPECT_EQ(faulty_throws.load(), 50);
  EXPECT_EQ(clean_runs.load(), 50 * 16);
}

TEST(ThreadPool, RunsInlineWhenEveryTileGroupIsHeld) {
  // The only worker is parked, so every call's queued helper keeps its tile
  // group. Once all parked groups are held (256), later calls run their
  // tiles inline on the caller: every tile still runs exactly once and a
  // throwing tile still surfaces after its siblings ran.
  ThreadPool pool(1);
  ParkedWorkers parked(pool);

  std::vector<int> hits(4, 0);
  for (int k = 0; k < 300; ++k)
    pool.parallel_for_each(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  int ran = 0;
  EXPECT_THROW(pool.parallel_for_each(3,
                              [&ran](std::size_t i) {
                                ++ran;
                                if (i == 1) throw std::runtime_error("tile 1");
                              }),
               std::runtime_error);
  EXPECT_EQ(ran, 3);

  parked.release();
  for (int h : hits) EXPECT_EQ(h, 300);
}

// ------------------------------------------------- contention stress tests --
// These hammer the pool from more callers than workers, with nesting and
// throwing indices, so the helper ring, the tile-group recycling and the
// eventcount park all run under contention. They are part of the regular
// suite and also the payload of the tsan_spotcheck target (see
// tests/CMakeLists.txt).

TEST(ThreadPoolStress, MoreCallersThanWorkersLoseNoIndices) {
  ThreadPool pool(2);  // 2 workers
  constexpr int kCallers = 8;
  constexpr int kCalls = 2000;
  std::atomic<long> counter{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i)
        pool.parallel_for_each(3, [&counter](std::size_t) {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(counter.load(), long{kCallers} * kCalls * 3);
}

TEST(ThreadPoolStress, NestedCallsFromEveryWorkerUnderSaturation) {
  // Outer index count is a multiple of the worker count, so every worker
  // (and the caller) is simultaneously inside parallel_for_each issuing a
  // nested call — the deadlock-prone shape for completion-group schemes.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  pool.parallel_for_each(kOuter, [&](std::size_t outer) {
    pool.parallel_for_each(
        kInner, [&hits, outer](std::size_t i) { hits[outer][i] += 1; });
  });
  for (const auto& row : hits)
    for (int h : row) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolStress, ThrowDuringSaturationKeepsPoolUsable) {
  // An exception in the middle of a saturated burst of concurrent callers
  // must not lose sibling indices, corrupt ring state, reach any other
  // caller, or poison later calls.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kIndices = 750;
  std::atomic<long> ran{0};
  std::atomic<int> throws{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      try {
        pool.parallel_for_each(kIndices, [&, c](std::size_t i) {
          ran.fetch_add(1, std::memory_order_relaxed);
          if (c == 0 && i == kIndices / 2)
            throw std::runtime_error("mid-burst");
        });
      } catch (const std::runtime_error&) {
        throws.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(ran.load(), long{kCallers} * static_cast<long>(kIndices));
  EXPECT_EQ(throws.load(), 1);

  // Pool remains fully functional after the rethrow.
  std::atomic<long> after{0};
  pool.parallel_for_each(256, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 256);
}

}  // namespace
}  // namespace mvs::util
