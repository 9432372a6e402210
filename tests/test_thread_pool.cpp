#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace mvs::util {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

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

TEST(ThreadPool, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
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

TEST(ThreadPool, DestructionWithPendingWorkCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++counter; });
    pool.wait_idle();
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
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

TEST(ThreadPool, ExceptionPropagatesFromSubmitViaWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  pool.wait_idle();  // cleared after the first rethrow
}

TEST(ThreadPool, RunTilesCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(97, 0);
  pool.run_tiles(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunTilesNestedInsideWorkersDoesNotDeadlock) {
  // Outer per-camera fan-out with inner per-row tiling: every worker may be
  // busy with an outer task, so inner progress must come from the callers.
  ThreadPool pool(4);
  std::vector<std::vector<int>> hits(6, std::vector<int>(32, 0));
  pool.parallel_for_each(hits.size(), [&](std::size_t outer) {
    pool.run_tiles(hits[outer].size(),
                   [&, outer](std::size_t inner) { hits[outer][inner] += 1; });
  });
  for (const auto& row : hits)
    for (int h : row) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RunTilesNestedWithSingleWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for_each(3, [&](std::size_t) {
    pool.run_tiles(16, [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 3 * 16);
}

TEST(ThreadPool, SharedAcrossConcurrentSessions) {
  // The fleet runtime drives many sessions over ONE pool: each session
  // issues its own parallel_for_each / run_tiles calls concurrently. Every
  // call must cover exactly its own indices with no lost updates.
  ThreadPool pool(4);
  constexpr int kSessions = 6;
  constexpr int kRounds = 25;
  constexpr std::size_t kIndices = 64;
  std::vector<std::vector<long>> slots(
      kSessions, std::vector<long>(kIndices, 0));
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&pool, &slots, s] {
      for (int round = 0; round < kRounds; ++round) {
        if (s % 2 == 0) {
          pool.parallel_for_each(kIndices, [&slots, s](std::size_t i) {
            slots[static_cast<std::size_t>(s)][i] += 1;
          });
        } else {
          pool.run_tiles(kIndices, [&slots, s](std::size_t i) {
            slots[static_cast<std::size_t>(s)][i] += 1;
          });
        }
      }
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

TEST(ThreadPool, ParallelForEachNestedInsidePoolTasks) {
  // Sessions themselves run as pool tasks in the fleet; their inner
  // per-camera parallel_for_each must make progress even when every worker
  // is occupied by an outer session task (caller participation).
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.run_tiles(4, [&](std::size_t) {
    pool.parallel_for_each(8, [&](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPool, RunTilesPropagatesException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run_tiles(24,
                              [&](std::size_t i) {
                                ++ran;
                                if (i == 7) throw std::runtime_error("tile 7");
                              }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 24);  // all tiles were still claimed and ran
  pool.wait_idle();           // tile errors never leak into the pool state
}

TEST(ThreadPool, RunTilesRunsInlineWhenEveryTileGroupIsHeld) {
  // The only worker is parked, so every call's queued helper keeps its tile
  // group. Once all parked groups are held (256), later calls run their
  // tiles inline on the caller: every tile still runs exactly once and a
  // throwing tile still surfaces after its siblings ran.
  ThreadPool pool(1);
  std::atomic<bool> started{false}, gate{false};
  pool.submit([&] {
    started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<int> hits(4, 0);
  for (int k = 0; k < 300; ++k)
    pool.run_tiles(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  int ran = 0;
  EXPECT_THROW(pool.run_tiles(3,
                              [&ran](std::size_t i) {
                                ++ran;
                                if (i == 1) throw std::runtime_error("tile 1");
                              }),
               std::runtime_error);
  EXPECT_EQ(ran, 3);

  gate.store(true, std::memory_order_release);
  pool.wait_idle();
  for (int h : hits) EXPECT_EQ(h, 300);
}

// ------------------------------------------------- contention stress tests --
// These hammer the bounded MPMC ring well past its capacity (1024 slots)
// from more producers than consumers, so the full-queue backpressure path
// (spin + eventcount park) and the CAS retry loops all execute. They are
// part of the regular suite and also the payload of the tsan_spotcheck
// target (see tests/CMakeLists.txt).

TEST(ThreadPoolStress, MoreProducersThanConsumersLoseNoTasks) {
  ThreadPool pool(2);  // 2 consumers
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;  // 40k tasks >> 1024-slot ring
  std::atomic<long> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
    });
  for (std::thread& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), long{kProducers} * kPerProducer);
}

TEST(ThreadPoolStress, QueueFullBackpressureBlocksWithoutDropping) {
  // One worker, parked on a gate, while a producer pushes 4x the ring
  // capacity: submit() must apply backpressure (block, not drop or throw)
  // until the gate opens and the worker drains the ring.
  ThreadPool pool(1);
  std::atomic<bool> gate{false};
  std::atomic<long> counter{0};
  pool.submit([&gate] {
    while (!gate.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  std::thread producer([&] {
    for (int i = 0; i < 4096; ++i)
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
  });
  // Give the producer time to wedge against the full ring, then open up.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.store(true, std::memory_order_release);
  producer.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 4096);
}

TEST(ThreadPoolStress, NestedRunTilesFromEveryWorkerUnderSaturation) {
  // Outer tile count is a multiple of the worker count, so every worker
  // (and the caller) is simultaneously inside run_tiles issuing a nested
  // run_tiles — the deadlock-prone shape for completion-group schemes.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  pool.run_tiles(kOuter, [&](std::size_t outer) {
    pool.run_tiles(kInner,
                   [&hits, outer](std::size_t i) { hits[outer][i] += 1; });
  });
  for (const auto& row : hits)
    for (int h : row) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolStress, TaskThrowsDuringSaturationKeepsPoolUsable) {
  // An exception in the middle of a saturated burst must not lose sibling
  // tasks, corrupt ring state, or poison later batches.
  ThreadPool pool(4);
  std::atomic<long> ran{0};
  for (int i = 0; i < 3000; ++i) {
    const bool thrower = (i == 1500);
    pool.submit([&ran, thrower] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (thrower) throw std::runtime_error("mid-burst");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 3000);

  // Pool remains fully functional after the rethrow.
  std::atomic<long> after{0};
  pool.run_tiles(256, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 256);
}

}  // namespace
}  // namespace mvs::util
