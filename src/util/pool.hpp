#pragma once
/// \file pool.hpp
/// Lock-free object pool: recycles heap objects so steady-state hot paths
/// perform zero allocations after warm-up.
///
/// Ownership rules (DESIGN.md §11):
///   * `acquire()` hands out a pointer the caller owns until `release()`.
///   * Recycled objects come back **in their last-released state** — the
///     pool deliberately does not reset them, because the whole point is to
///     keep expensive internal buffers (vector capacity, pyramid planes)
///     alive across uses.  Callers reset the cheap logical fields.
///   * `release()` never blocks: if the free list is full the object is
///     deleted (cold path, only under pathological churn).
///   * The pool must outlive every object it handed out.  Destroying the
///     pool deletes whatever is parked on the free list; objects still
///     checked out are the caller's leak to fix.
///
/// Thread safety: acquire/release are lock-free (backed by MpmcQueue) and
/// may be called from any thread.

#include <atomic>
#include <cstddef>
#include <utility>

#include "util/mpmc_queue.hpp"

namespace mvs::util {

template <typename T>
class Pool {
 public:
  explicit Pool(std::size_t max_parked = 256) : free_(max_parked) {}

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    T* obj = nullptr;
    while (free_.try_pop(obj)) delete obj;
  }

  /// Pop a recycled object, or heap-allocate a fresh one (warm-up only).
  template <typename... Args>
  T* acquire(Args&&... args) {
    T* obj = nullptr;
    if (free_.try_pop(obj)) return obj;  // recycled: state as last released
    total_allocated_.fetch_add(1, std::memory_order_relaxed);
    return new T(std::forward<Args>(args)...);
  }

  /// Pop a recycled object, or nullptr when none is parked (never allocates).
  T* try_acquire() noexcept {
    T* obj = nullptr;
    return free_.try_pop(obj) ? obj : nullptr;
  }

  /// Allocate and park `count` objects up front (construction time), so a
  /// hot path that uses try_acquire() never reaches `new` at all.
  void prefill(std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      total_allocated_.fetch_add(1, std::memory_order_relaxed);
      release(new T());
    }
  }

  /// Park an object for reuse; deletes it if the free list is full.
  void release(T* obj) noexcept {
    if (obj == nullptr) return;
    if (!free_.try_push(obj)) delete obj;
  }

  /// Number of `new T` calls ever made — a warmed-up pool's count stops
  /// moving; the allocation guard test watches exactly that.
  std::size_t total_allocated() const noexcept {
    return total_allocated_.load(std::memory_order_relaxed);
  }

 private:
  MpmcQueue<T*> free_;
  std::atomic<std::size_t> total_allocated_{0};
};

}  // namespace mvs::util
