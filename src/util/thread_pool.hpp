#pragma once
// Fixed-size worker pool used to run per-camera pipeline work concurrently.
// Cameras are independent (own tracker, RNG, frame buffers), so parallel
// execution is deterministic as long as each camera's work stays on its own
// state — which parallel_for_each guarantees by partitioning indices.
//
// run_tiles() adds a second, nested-safe level of parallelism: the calling
// thread (which may itself be a pool worker) claims tiles from a shared
// counter alongside idle workers, so a worker can fan out sub-tasks without
// ever blocking on a queue it is needed to drain (no deadlock even with a
// single worker).
//
// SHAREABILITY: one pool may serve many independent clients concurrently
// (the fleet runtime runs every session over a single pool). Both
// parallel_for_each() and run_tiles() operate on a per-call completion
// group: concurrent calls from different threads — or nested calls from
// inside pool tasks — never wait on each other's work and never observe
// each other's exceptions. Only the low-level submit()/wait_idle() pair has
// pool-global semantics (wait_idle waits for ALL submitted tasks and may
// rethrow any submitted task's exception); clients sharing a pool should
// use the group-based calls.
//
// HOT-PATH DESIGN (DESIGN.md §11): the task queue is a bounded lock-free
// MPMC ring (util::MpmcQueue) of POD {fn, arg} slots; sleep/wake is an
// eventcount (sleeper counter + wake epoch + C++20 atomic wait as the futex
// slow path), so dispatching work never takes a mutex. run_tiles() and
// parallel_for_each() are templates over the callable — no std::function
// temporaries — and their per-call completion groups are parked in a
// util::Pool at construction and recycled under a reference count, so
// dispatch performs zero heap allocations. The only mutexes left are cold
// paths: exception capture, and the heap-boxed std::function behind
// submit().

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
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

  /// Enqueue a task; tasks may run in any order on any worker. Not a
  /// hot-path call: the callable is boxed on the heap (use run_tiles /
  /// parallel_for_each on allocation-free paths). Applies backpressure by
  /// spinning/yielding when the ring is full.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. If any task threw, the
  /// first captured exception is rethrown here (subsequent tasks still ran).
  void wait_idle();

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// fn must only touch state owned by index i (or be otherwise synchronized).
  /// Rethrows the first exception any invocation threw. Per-call completion
  /// group: safe to call concurrently from many threads and from inside pool
  /// tasks (the caller participates, so nesting never deadlocks).
  template <typename Fn>
  void parallel_for_each(std::size_t n, Fn&& fn) {
    // Delegates to the per-call tile group: the caller participates (nested
    // calls from pool tasks make progress even when every worker is busy)
    // and completion/exception state is private to this call, so concurrent
    // sessions sharing the pool never cross-talk through wait_idle().
    run_tiles(n, std::forward<Fn>(fn));
  }

  /// Run fn(i) for i in [0, n) with the CALLING thread participating: tiles
  /// are claimed from a shared counter by the caller and by any idle
  /// workers. Safe to call from inside a pool task (nested parallelism) —
  /// the caller makes progress on its own tiles even when every worker is
  /// busy. fn must only touch state owned by index i. Rethrows the first
  /// exception any invocation threw, after all claimed tiles finished.
  /// The callable is borrowed by address for the duration of the call (the
  /// caller outlives every helper's use of it), never copied or boxed.
  template <typename Fn>
  void run_tiles(std::size_t n, Fn&& fn) {
    using D = std::remove_reference_t<Fn>;
    run_tiles_erased(
        n, &invoke_tile<D>,
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

  void run_tiles_erased(std::size_t n, void (*invoke)(void*, std::size_t),
                        void* fn);
  static void run_helper(void* arg);     ///< tile-group helper task body
  static void run_submitted(void* arg);  ///< submit() task body

  void push_task(const Task& task);  ///< blocking (backpressure) + wake
  bool pop_task(Task& out);          ///< spins, then eventcount sleep
  void wake_one();
  void wake_all();
  void finish_task();  ///< in_flight_ decrement + wait_idle wakeup
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
  alignas(kCacheLineSize) std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> stopping_{false};

  std::mutex error_mu_;              ///< cold: taken only when a task throws
  std::exception_ptr first_error_;   ///< guarded by error_mu_
};

}  // namespace mvs::util
