#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <utility>

namespace mvs::util {

/// Shared state of one parallel_for_each() call. Recycled through
/// tile_groups_; a reference count (caller + every successfully enqueued
/// helper) keeps the group out of the free list until the last late-dequeued
/// helper — which then finds no tiles left and exits without touching `fn` —
/// has let go.
struct ThreadPool::TileGroup {
  std::atomic<std::size_t> next{0};       ///< tile claim ticket
  std::atomic<std::size_t> completed{0};  ///< tiles fully finished
  std::atomic<std::uint32_t> done{0};     ///< caller's atomic-wait target
  std::atomic<std::uint32_t> refs{0};     ///< recycle gate
  std::size_t n = 0;
  void (*invoke)(void*, std::size_t) = nullptr;
  void* fn = nullptr;
  ThreadPool* pool = nullptr;

  std::mutex error_mu;        ///< cold: taken only when a tile throws
  std::exception_ptr error;   ///< guarded by error_mu

  void work() noexcept {
    for (;;) {
      // Relaxed: the ticket only partitions indices; fn(i) touches state
      // owned by i, and completion ordering goes through `completed`.
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        invoke(fn, i);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!error) error = std::current_exception();
      }
      // Acq_rel: release publishes fn(i)'s writes to whichever thread
      // observes this tile as completed; acquire makes the final increment
      // see every earlier tile's writes before flipping `done`.
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Release pairs with the caller's acquire load/wait on `done`.
        done.store(1, std::memory_order_release);
        done.notify_all();
      }
    }
  }
};

// Defined after TileGroup so Pool<TileGroup>'s `new`/`delete` see a
// complete type.
ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max(1u, std::thread::hardware_concurrency());
  // Every tile group this pool will ever use, parked before the first
  // dispatch: parallel_for_each() only recycles them, so warm dispatch never
  // allocates however late the helpers of earlier calls run.
  tile_groups_.prefill(kTileGroups);
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  // Release: pairs with the workers' acquire loads of stopping_; everything
  // pushed before this point is drained before any worker exits.
  stopping_.store(true, std::memory_order_release);
  wake_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::release_group(TileGroup* group) {
  // Acq_rel: the final decrement must observe every other participant's use
  // of the group before the slot is handed back for reuse.
  if (group->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
    tile_groups_.release(group);
}

void ThreadPool::run_helper(void* arg) {
  auto* group = static_cast<TileGroup*>(arg);
  group->work();  // late arrival past the group's end: claims nothing, returns
  group->pool->release_group(group);
}

void ThreadPool::run_erased(std::size_t n, void (*invoke)(void*, std::size_t),
                            void* fn) {
  if (n == 0) return;
  TileGroup* group = tile_groups_.try_acquire();
  if (group == nullptr) {
    // Late helpers of earlier calls still hold every parked group, so the
    // workers are that far behind: run the tiles inline. This sheds
    // parallelism, never work, and keeps dispatch allocation-free.
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        invoke(fn, i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  // Relaxed init: the ring push below release-publishes the whole group to
  // helpers (their pop acquire-loads the cell), and the caller reads its own
  // writes; no other thread can hold this group (refs reached 0).
  group->next.store(0, std::memory_order_relaxed);
  group->completed.store(0, std::memory_order_relaxed);
  group->done.store(0, std::memory_order_relaxed);
  group->n = n;
  group->invoke = invoke;
  group->fn = fn;
  group->pool = this;
  group->error = nullptr;
  group->refs.store(1, std::memory_order_relaxed);  // caller's reference

  // One helper per worker (bounded by the tile count the caller won't take
  // alone anyway); helpers that arrive late exit immediately. On a full
  // ring the helper is simply skipped — the caller and the already-enqueued
  // helpers cover every tile, so this only sheds parallelism, not work.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    group->refs.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    if (!queue_.try_push(Task{&run_helper, group})) {
      group->refs.fetch_sub(1, std::memory_order_relaxed);
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
    wake_one();
  }

  group->work();
  // The caller ran out of tiles, but helpers may still be finishing theirs.
  for (;;) {
    // Acquire pairs with the finisher's release store of done.
    if (group->done.load(std::memory_order_acquire) != 0) break;
    group->done.wait(0, std::memory_order_acquire);
  }
  std::exception_ptr error;
  {
    std::lock_guard lock(group->error_mu);
    error = std::exchange(group->error, nullptr);
  }
  release_group(group);  // after this the group may be recycled — no access
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::pop_task(Task& out) {
  for (;;) {
    // Fast path: spin briefly before committing to sleep.
    for (int spin = 0; spin < 64; ++spin) {
      if (queue_.try_pop(out)) return true;
      cpu_relax();
    }
    // Acquire: pairs with the destructor's release store.
    if (stopping_.load(std::memory_order_acquire)) {
      if (queue_.try_pop(out)) return true;  // drain before exiting
      // Acquire: pairs with worker_loop's release decrement. in_flight_ > 0
      // means a helper is mid-push or mid-run; keep draining so no queued
      // helper (nor the tile group it holds) is abandoned.
      if (in_flight_.load(std::memory_order_acquire) == 0) return false;
      std::this_thread::yield();
      continue;
    }
    // ---- eventcount sleep (see header + DESIGN.md §11) ----
    // Snapshot the epoch BEFORE announcing sleep: any wake issued after the
    // announcement bumps the epoch and the wait below returns immediately.
    const std::uint32_t epoch = wake_epoch_.load(std::memory_order_acquire);
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    // Seq_cst fence: Dekker pairing with the producer's fence in wake_one().
    // Either our re-poll below sees the producer's push, or the producer's
    // sleeper check sees our announcement — never neither.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (queue_.try_pop(out)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      continue;  // re-enter the drain path above
    }
    // Futex slow path: returns when wake_epoch_ != epoch (or spuriously;
    // the outer loop re-polls either way).
    wake_epoch_.wait(epoch, std::memory_order_acquire);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::wake_one() {
  // Seq_cst fence: Dekker pairing with the sleeper's fence in pop_task()
  // (see there). The push that preceded this call is already published by
  // the ring's release store; this fence orders it against the sleeper read.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) != 0) {
    // Release: the woken worker's acquire epoch load orders its re-poll
    // after the push.
    wake_epoch_.fetch_add(1, std::memory_order_release);
    wake_epoch_.notify_one();
  }
}

void ThreadPool::wake_all() {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_epoch_.fetch_add(1, std::memory_order_release);
  wake_epoch_.notify_all();
}

void ThreadPool::worker_loop() {
  Task task;
  while (pop_task(task)) {
    task.fn(task.arg);  // run_helper: tile errors are captured per group
    // Release: publishes the helper's release of its group before the
    // destructor's drain can observe zero in flight.
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace mvs::util
