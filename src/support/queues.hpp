// The parking spot of the runtime's targeted-wakeup protocol: each engine
// thread sleeps on its own slot, never on a condition variable that every
// event broadcasts to.
#pragma once

#include <condition_variable>
#include <mutex>

namespace peppher {

/// One thread's parking spot: park() sleeps until unpark() delivers a wake
/// token. Tokens are sticky — an unpark() that arrives before park() is
/// consumed by it without blocking — so a waker that picked this thread
/// under its own lock may deliver the token after releasing that lock.
///
/// The runtime's protocol around it (Engine::executor_main): a thread
/// announces that it parks by joining the engine's idle list, re-checking
/// every worker queue under the list's lock; a thread that queues work it
/// leaves behind takes the same lock, pops an idle thread and unparks it.
class ParkSlot {
 public:
  /// Blocks until a wake token arrives, then consumes it.
  void park() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return token_; });
    token_ = false;
  }

  /// Delivers a wake token.
  void unpark() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      token_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool token_ = false;  ///< guarded by mutex_
};

}  // namespace peppher
