#include "support/parallel.hpp"

#include <utility>

namespace peppher {

ForkJoinTeam::~ForkJoinTeam() {
  stopping_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& helper : helpers_) helper.join();
}

void ForkJoinTeam::parallel_for(std::size_t begin, std::size_t end,
                                ChunkFn body) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  const auto chunks = static_cast<std::uint32_t>(chunk_count(threads_, count));
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  if (helpers_.empty()) start();

  body_ = &body;
  begin_ = begin;
  count_ = count;
  finished_.store(0, std::memory_order_relaxed);
  claim_.store(std::uint64_t{chunks} << 32, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_one();

  run_chunks(/*wake_next=*/false);
  for (std::uint32_t done;
       (done = finished_.load(std::memory_order_acquire)) != chunks;) {
    finished_.wait(done, std::memory_order_acquire);
  }
  if (failed_.load(std::memory_order_relaxed)) {
    failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

void ForkJoinTeam::start() {
  // Helpers wait for the epoch to move past the one seen here, so the fork
  // that starts them is the first job they can join.
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  helpers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    helpers_.emplace_back([this, epoch] { helper_main(epoch); });
  }
}

void ForkJoinTeam::helper_main(std::uint32_t seen_epoch) {
  for (;;) {
    epoch_.wait(seen_epoch, std::memory_order_acquire);
    seen_epoch = epoch_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_relaxed)) return;
    run_chunks(/*wake_next=*/true);
  }
}

void ForkJoinTeam::run_chunks(bool wake_next) {
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  for (;;) {
    const auto chunks = static_cast<std::uint32_t>(word >> 32);
    const auto index = static_cast<std::uint32_t>(word);
    if (index >= chunks) return;
    // A successful claim of an unclaimed chunk keeps the job alive until
    // that chunk finishes, so the job fields are read only after it.
    if (!claim_.compare_exchange_weak(word, word + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      continue;
    }
    if (wake_next && index + 1 < chunks) epoch_.notify_one();
    const ChunkRange range = chunk_range(count_, chunks, index);
    try {
      (*body_)(begin_ + range.begin, begin_ + range.end);
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
    }
    if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks &&
        wake_next) {
      finished_.notify_one();
    }
    word = claim_.load(std::memory_order_acquire);
  }
}

}  // namespace peppher
