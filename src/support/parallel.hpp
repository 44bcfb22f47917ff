// Fork-join team behind the "OpenMP" implementation variants of the
// evaluation kernels. The paper's OpenMP variants are multi-core CPU codes;
// this reproduction runs them on a team of persistent std::threads so no
// OpenMP runtime dependency is needed (see DESIGN.md §6). Each simulated
// node's combined-CPU worker owns one team, forked by whichever thread runs
// the worker; its helpers start on the first fork and park between forks,
// so a fork creates no thread and makes no heap allocation (docs/runtime.md
// "Concurrency architecture & overhead").
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace peppher {

/// Non-owning reference to a `void(std::size_t, std::size_t)` callable: a
/// fork hands its body to the team without copying or allocating. The
/// callable must outlive the call the reference is passed to.
class ChunkFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ChunkFn> &&
             std::is_invocable_v<F&, std::size_t, std::size_t>)
  ChunkFn(F&& fn) noexcept
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, std::size_t begin, std::size_t end) {
          (*static_cast<std::remove_reference_t<F>*>(object))(begin, end);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const {
    call_(object_, begin, end);
  }

 private:
  void* object_;
  void (*call_)(void*, std::size_t, std::size_t);
};

/// Half-open offsets [begin, end) of one chunk.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// How many chunks a team `threads` wide splits `count` items into.
constexpr std::size_t chunk_count(int threads, std::size_t count) noexcept {
  return std::min(static_cast<std::size_t>(std::max(threads, 1)), count);
}

/// The team's split: chunk `index` of `count` items cut into `chunks`
/// contiguous chunks whose sizes differ by at most one, larger chunks
/// first. Offsets are relative to the start of the range.
constexpr ChunkRange chunk_range(std::size_t count, std::size_t chunks,
                                 std::size_t index) noexcept {
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  const std::size_t begin = index * base + std::min(index, extra);
  return {begin, begin + base + (index < extra ? 1 : 0)};
}

/// A fork-join team `threads` wide: the forking thread plus `threads - 1`
/// parked helper threads. One fork at a time: any thread may fork, as long
/// as each fork happens-before the next one (the runtime orders them by the
/// combined worker's claim).
///
/// A fork publishes its job and wakes one parked helper. The forking thread
/// and every helper that is awake claim chunks from one atomic counter; a
/// helper that claims a chunk while more remain wakes the next helper, and
/// a helper that finds every chunk claimed parks again without touching
/// the job. The forking thread runs chunks too and then waits only for the
/// chunks a helper claimed. An exception thrown by a chunk is recorded (the
/// first one wins) and rethrown on the forking thread once every claimed
/// chunk finished.
class ForkJoinTeam {
 public:
  /// No thread starts here: the helpers start on the first fork that
  /// splits its range.
  explicit ForkJoinTeam(int threads) : threads_(std::max(threads, 1)) {}
  /// Stops and joins the helpers; no thread may be forking.
  ~ForkJoinTeam();

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;

  int threads() const noexcept { return threads_; }

  /// Runs `body(chunk_begin, chunk_end)` over [begin, end) split into
  /// chunk_count(threads(), end - begin) chunks by chunk_range. With one
  /// chunk the body runs inline. `body` must be safe to run concurrently
  /// on disjoint chunks.
  void parallel_for(std::size_t begin, std::size_t end, ChunkFn body);

 private:
  void start();
  void helper_main(std::uint32_t seen_epoch);
  /// Claims and runs chunks of the current job until none is unclaimed.
  /// A helper (`wake_next`) wakes another helper when it leaves chunks
  /// unclaimed behind its own claim.
  void run_chunks(bool wake_next);

  const int threads_;

  // The current job: written by the forking thread before it publishes
  // claim_, read by a claimer only after a successful claim.
  const ChunkFn* body_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t count_ = 0;
  std::exception_ptr error_;  ///< first exception, written by its thrower

  /// Chunk count in the high 32 bits, next unclaimed chunk in the low 32.
  std::atomic<std::uint64_t> claim_{0};
  /// Chunks of the current job that finished (returned or threw).
  std::atomic<std::uint32_t> finished_{0};
  /// Bumped by every fork and by the destructor; parked helpers wait on it.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> failed_{false};  ///< error_ holds this job's exception
  std::atomic<bool> stopping_{false};

  std::vector<std::thread> helpers_;  ///< started by the first split fork
};

}  // namespace peppher
