// Tasks: one component invocation translated by a generated entry-wrapper
// into a unit of work for the runtime. Tasks are stateless (the paper §II);
// the data they operate on is carried by DataHandles.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/codelet.hpp"
#include "runtime/memory.hpp"
#include "runtime/types.hpp"

namespace peppher::rt {

/// One data operand of a task.
struct TaskOperand {
  DataHandlePtr handle;
  AccessMode mode = AccessMode::kRead;
};

enum class TaskState : std::uint8_t {
  kBlocked,  ///< waiting on data dependencies
  kReady,    ///< committed, dependencies met: in its worker's queue
  kRunning,
  kDone,     ///< finished (successfully, or failed — see Task::error)
};

/// What a caller fills in to submit a task; everything else is derived.
struct TaskSpec {
  const Codelet* codelet = nullptr;
  std::vector<TaskOperand> operands;

  /// Type-erased argument blob passed to the implementation; the shared_ptr
  /// keeps it alive until the task finishes.
  std::shared_ptr<const void> arg;

  int priority = 0;
  std::string name;  ///< label for logs; defaults to the codelet name

  /// User-guided static composition: restrict execution to one architecture
  /// (the entry-wrapper sets this when the descriptor pins a platform).
  std::optional<Arch> forced_arch;
  /// Pin to one specific worker (used by the "direct" baselines).
  std::optional<WorkerId> forced_worker;

  /// Synchronous submission: submit() blocks until the task completes.
  bool synchronous = false;

  /// Per-task override of EngineConfig::max_retries (-1 = engine default,
  /// 0 = fail fast on the first failed attempt).
  int max_retries = -1;

  /// Program point of the main module's declared call sequence this task
  /// corresponds to (-1 = untagged). Only consumed by the verify_shadow
  /// observation log, which uses it to match concrete coherence states
  /// against the static verifier's abstract state for the same point.
  int verify_point = -1;

  /// Invoked once after the task completes (successfully or failed), from
  /// the thread that completed it, outside engine locks. Must not block on
  /// other tasks of the same engine.
  std::function<void(const Task&)> on_complete;
};

/// A submitted task. Owned via shared_ptr by the engine, scheduler queues,
/// and dependency edges.
class Task {
 public:
  explicit Task(TaskSpec spec, std::uint64_t sequence)
      : spec(std::move(spec)), sequence(sequence) {}

  TaskSpec spec;
  const std::uint64_t sequence;  ///< submission order, for determinism

  // -- hot-path caches (computed once in Engine::submit, immutable after) ---
  //
  // Operand sizes, their footprint hash and the per-architecture variant
  // resolution are consulted by every scheduling estimate for every
  // candidate worker; caching them here keeps the (task, worker) inner loop
  // allocation-free. The implementation cache snapshots the codelet's
  // enabled variants and evaluates selectability predicates against the
  // operand sizes at submission time — toggling a variant while the task is
  // in flight no longer affects it (it never affected a queued decision
  // deterministically before either).
  std::vector<std::size_t> operand_bytes;
  std::uint64_t footprint = 0;     ///< footprint_of(operand_bytes)
  std::size_t total_bytes = 0;     ///< sum of operand_bytes
  std::array<const Implementation*, kArchCount> impl_for_arch{};

  /// Static-composition replay: probe keys into the dispatch table, from
  /// most to least specific — (codelet, footprint, point), (codelet,
  /// footprint, any), (codelet, any, point), (codelet, any, any). Computed
  /// once at submit when a replay table is loaded, so the scheduler's
  /// hot-path lookup does no hashing. Empty (has_dispatch_keys = false)
  /// when replay is off.
  std::array<std::uint64_t, 4> dispatch_keys{};
  bool has_dispatch_keys = false;

  /// The table's answer for the most specific matching key, resolved once
  /// at submit (the replay table is immutable after load). -1 when no key
  /// matches. The scheduler's replay fast path reads this instead of
  /// probing the table; the key chain above remains the slow-path fallback
  /// when the resolved architecture has no eligible worker (blacklist).
  int replay_arch = -1;

  // -- dependency bookkeeping (all guarded by the Engine's graph mutex) -----
  int unmet_dependencies = 0;
  std::vector<std::shared_ptr<Task>> successors;
  VirtualTime max_pred_end = 0.0;  ///< latest committed end of a predecessor
  /// Committed on the timeline (false while a lookahead window stages it).
  /// A committed task with no unmet dependency runs as its worker.
  bool committed = false;

  /// Sequence number of the successor task currently being linked against
  /// this one — O(1) duplicate-edge detection during submission without a
  /// per-submit hash set (sequence numbers are never reused, unlike task
  /// addresses).
  std::uint64_t linking_successor = ~std::uint64_t{0};

  // -- retry bookkeeping ----------------------------------------------------
  //
  // Written at each commit (under the graph lock), and after a real failure
  // by the thread executing the task (which owns it until it commits the
  // retry or completes it); the graph lock, the worker-queue locks and the
  // kDone publication order those writes for every later reader.

  /// Retries still allowed after a failed attempt (initialised from the
  /// spec/engine policy at submission).
  int retries_left = 0;
  /// Failed execution attempts so far (a successful task that needed one
  /// retry finishes with attempts == 1).
  int attempts = 0;
  /// Architectures whose variant already failed this task; never retried.
  ArchMask excluded_archs = 0;
  /// Architecture of the first failed attempt (fallback accounting).
  std::optional<Arch> first_failed_arch;

  // -- execution results ----------------------------------------------------

  /// Lifecycle state. Atomic because waiters poll it outside the engine's
  /// graph lock; the kDone store (made after all result fields are written)
  /// is what publishes the results below to waiters.
  std::atomic<TaskState> state{TaskState::kBlocked};

  /// Set if the task's last attempt failed (at its commit or, for a real
  /// exception, when it ran) or a predecessor failed; rethrown by
  /// Engine::wait(). Failed tasks complete (waiters wake) but their
  /// successors are failed transitively without running.
  std::exception_ptr error;

  bool failed() const noexcept { return error != nullptr; }

  /// The latest committed attempt: set at its commit, before the task runs.
  WorkerId executed_on = -1;
  Arch executed_arch = Arch::kCpu;
  std::string executed_impl;
  VirtualTime vstart = 0.0;
  VirtualTime vend = 0.0;
  double exec_seconds = 0.0;  ///< virtual execution time (excl. transfers)
};

using TaskPtr = std::shared_ptr<Task>;

}  // namespace peppher::rt
