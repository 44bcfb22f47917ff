// The worker parking spot of the runtime's targeted-wakeup protocol. The
// scheduler queues themselves live in runtime/scheduler.cpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>

namespace peppher {

/// One worker thread's parking spot, the building block of the runtime's
/// targeted-wakeup protocol (one ParkSlot per worker instead of one global
/// condition variable that every event broadcasts to).
///
/// Worker side (single consumer):
///
///   task = queue.pop();
///   if (!task) {
///     slot.announce();          // publish intent-to-park...
///     task = queue.pop();       // ...then re-check the queue (Dekker)
///     if (!task && !slot.park(stop_pred)) return;  // stopped
///   }
///
/// Producer side (any thread): after making work visible (queue insert under
/// the queue's own lock), call unpark(). The announce/re-check pair makes
/// the protocol lossless: if the producer reads the parked flag as false,
/// the mutex chain through the queue guarantees the worker's re-check pop
/// observes the inserted item; if it reads true, a wake token is delivered
/// under the slot mutex, where the worker consumes it before sleeping.
/// Tokens are sticky — an unpark() that races with the worker between
/// announce() and park() is consumed by park() without blocking.
class ParkSlot {
 public:
  /// Publishes that the owning worker is about to park. Must be followed by
  /// a re-check of the work source and then park() or cancel().
  void announce() noexcept { parked_.store(true, std::memory_order_seq_cst); }

  /// Withdraws an announce() after the re-check found work.
  void cancel() noexcept { parked_.store(false, std::memory_order_relaxed); }

  /// Blocks until a wake token arrives or `stopped()` turns true. Returns
  /// true if a token was consumed (re-check for work), false if the slot
  /// was stopped without a token (the worker should exit).
  template <typename StopPred>
  bool park(StopPred stopped) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return token_ || stopped(); });
    const bool woken = token_;
    token_ = false;
    lock.unlock();
    parked_.store(false, std::memory_order_relaxed);
    return woken;
  }

  /// Delivers a wake token if the owner is parked (or about to park).
  /// Returns true if a token was delivered, false if the owner was not
  /// parked — in that case the owner is mid-loop and will re-check its work
  /// source before parking, so no wake is needed.
  bool unpark() {
    if (!parked_.load(std::memory_order_seq_cst)) return false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      token_ = true;
    }
    cv_.notify_one();
    return true;
  }

  /// Wakes the owner so it re-evaluates its stop predicate (no token). The
  /// caller must have made the predicate's state visible beforehand.
  void poke() {
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool token_ = false;              ///< guarded by mutex_
  std::atomic<bool> parked_{false};
};

}  // namespace peppher
