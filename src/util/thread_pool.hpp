#pragma once
// Fixed-size worker pool used to run per-camera pipeline work concurrently.
// Cameras are independent (own tracker, RNG, frame buffers), so parallel
// execution is deterministic as long as each camera's work stays on its own
// state — which parallel_for_each guarantees by partitioning indices.
//
// parallel_for_each() is the pool's one entry: a fork-join call in which the
// calling thread (which may itself be a pool worker) claims indices from a
// shared counter alongside idle workers, so a worker can fan out sub-tasks
// without ever blocking on a queue it is needed to drain (no deadlock even
// with a single worker, and nested calls are safe).
//
// SHAREABILITY: one pool may serve many independent clients concurrently
// (the fleet runtime runs every session over a single pool). Every call
// operates on its own completion group: concurrent calls from different
// threads — or nested calls from inside pool tasks — never wait on each
// other's work and never observe each other's exceptions.
//
// HOT-PATH DESIGN (DESIGN.md §11): the task queue is a bounded lock-free
// MPMC ring (util::MpmcQueue) of POD {fn, arg} slots; sleep/wake is an
// eventcount (sleeper counter + wake epoch + C++20 atomic wait as the futex
// slow path), so dispatching work never takes a mutex. parallel_for_each()
// is a template over the callable — no std::function temporaries — and its
// per-call completion groups are parked in a util::Pool at construction and
// recycled under a reference count, so dispatch performs zero heap
// allocations. The only mutex left is the cold per-group exception capture.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mpmc_queue.hpp"
#include "util/pool.hpp"

namespace mvs::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Run fn(i) for i in [0, n) and wait for completion, with the CALLING
  /// thread participating: indices are claimed from a shared counter by the
  /// caller and by any idle workers. Safe to call concurrently from many
  /// threads and from inside a pool task (nested parallelism) — the caller
  /// makes progress on its own indices even when every worker is busy.
  /// fn must only touch state owned by index i (or be otherwise
  /// synchronized). Rethrows the first exception any invocation threw,
  /// after every claimed index finished. The callable is borrowed by
  /// address for the duration of the call, never copied or boxed.
  template <typename Fn>
  void parallel_for_each(std::size_t n, Fn&& fn) {
    using D = std::remove_reference_t<Fn>;
    run_erased(n, &invoke_tile<D>,
               const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

 private:
  /// POD task slot carried by the MPMC ring — no type erasure allocation.
  struct Task {
    void (*fn)(void*) = nullptr;
    void* arg = nullptr;
  };
  struct TileGroup;

  template <typename D>
  static void invoke_tile(void* fn, std::size_t i) {
    (*static_cast<D*>(fn))(i);
  }

  void run_erased(std::size_t n, void (*invoke)(void*, std::size_t),
                  void* fn);
  static void run_helper(void* arg);  ///< tile-group helper task body

  bool pop_task(Task& out);  ///< spins, then eventcount sleep
  void wake_one();
  void wake_all();
  void release_group(TileGroup* group);
  void worker_loop();

  /// Tile groups parked at construction; a dispatch that finds none free
  /// runs its tiles inline instead of allocating.
  static constexpr std::size_t kTileGroups = 256;

  std::vector<std::thread> workers_;
  MpmcQueue<Task> queue_{1024};
  Pool<TileGroup> tile_groups_{kTileGroups};

  // ---- eventcount (sleep/wake slow path; see DESIGN.md §11) ----
  // Workers announce themselves in sleepers_ before re-polling the ring;
  // producers fence-then-check sleepers_ after pushing. The seq_cst
  // fence/RMW pair guarantees at least one side sees the other (Dekker),
  // so a push can never be missed by a worker committing to sleep.
  alignas(kCacheLineSize) std::atomic<std::uint32_t> sleepers_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> wake_epoch_{0};
  /// Helpers queued or running; the destructor's drain waits for zero so
  /// no queued helper (and the tile group it holds) is abandoned.
  alignas(kCacheLineSize) std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace mvs::util
