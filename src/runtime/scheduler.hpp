// Pluggable task schedulers. The default is "dmda" (deque model data aware),
// the StarPU policy family the paper's tool-generated performance-aware code
// (TGPA) relies on: it places each task on the worker with the earliest
// predicted completion,
//   max(worker clock, predecessors' end) + fetch + exec,
// priced by rt::Plan (runtime/placement.hpp) with expected execution time
// coming from the history-based performance models, and falls back to
// forced exploration while a variant is uncalibrated. A worker's clock is
// this runtime's own book: the end of the last task the policy placed
// there (or on a worker sharing its cores), never the engine's execution
// progress, so a push sees the same clocks however far the workers have
// run. StarPU's dmda keeps a similar per-worker expected end but raises
// its start to the current time on each push and before each execution,
// so there it follows execution progress. "lookahead" plans a window of
// ready tasks jointly on a copy of the same clocks.
//
// Concurrency contract: schedulers are internally synchronized with
// per-worker queue locks — push/pop/drain may be called from any
// thread with NO engine lock held. This keeps the task hot path off the
// engine's dependency-graph lock: workers pop from their own queue under
// that queue's lock only. The model-based policies also serialise their
// decisions on one lock of their own. The SchedEnv callbacks the policies
// consult (eligibility, placement estimates, sample counts) are therefore
// required to be thread-safe as well; the Engine implements them over
// atomics, memoized per-task caches and the reader-writer performance
// registry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/placement.hpp"
#include "runtime/task.hpp"
#include "runtime/trace.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"

namespace peppher::rt {

class DispatchTable;

/// Services the Engine provides to scheduler policies.
struct SchedEnv {
  const std::vector<WorkerDesc>* workers = nullptr;

  /// True if the worker has an enabled implementation for the task
  /// (respecting forced_arch / forced_worker).
  std::function<bool(const Task&, WorkerId)> eligible;

  /// Expected execution seconds of the task on the worker (history models,
  /// cost hint or the neutral guess); +inf when the worker is ineligible.
  std::function<double(const Task&, WorkerId)> exec;

  /// History sample count for (task footprint, worker's variant); used for
  /// the calibration/exploration phase. Returns UINT64_MAX if ineligible or
  /// if exploration is unnecessary (history models disabled).
  std::function<std::uint64_t(const Task&, WorkerId)> sample_count;

  int calibration_min = 2;  ///< samples needed before a variant is trusted

  /// What the model-based policies' plans minimise.
  Objective objective = Objective::kTime;

  /// The memory hierarchy plans price fetches over (nullptr = plans price
  /// no transfers).
  const Interconnect* interconnect = nullptr;

  // --- lookahead-policy services (unset for the other policies) ---

  /// Window-commit notification for every planned task except the one
  /// whose push/pop triggered the planning: the engine traces the
  /// decision, enqueues prefetches toward the chosen worker and wakes it.
  std::function<void(const TaskPtr&, WorkerId, const DecisionRecord&)> commit;

  /// Window-planning trace hook (unset = no window tracing).
  std::function<void(const WindowRecord&)> record_window;

  /// Ready-task batch size of the "lookahead" policy (>= 1; a window of
  /// one is one Plan::place, which is dmda's placement).
  int window_size = 8;

  /// Static-composition replay table (finalized); nullptr = no replay.
  const DispatchTable* dispatch = nullptr;
};

/// Returned by Scheduler::push when the task went to a central queue any
/// eligible worker may pop from (rather than one worker's own queue).
inline constexpr WorkerId kNoWorkerHint = -1;

/// Scheduler interface (internally synchronized; see file comment).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Accepts a task that has become ready (dependencies satisfied).
  /// Returns the worker whose queue received it — the engine's wakeup
  /// target — or kNoWorkerHint for centrally queued policies. A concrete
  /// worker id is also the engine's prefetch commit signal: the task's
  /// read operands are warmed on that worker's memory node while the task
  /// waits in the queue (see EngineConfig::enable_prefetch). When
  /// `decision` is non-null (tracing enabled), the policy reports how the
  /// placement was made: whether it explored, and model-based policies
  /// their candidate completion estimates, so the trace can hold
  /// predicted against actual (PF005). The caller fills in the task and
  /// the chosen worker.
  virtual WorkerId push(const TaskPtr& task,
                        DecisionRecord* decision = nullptr) = 0;

  /// Next task for `worker`, or nullptr if none available to it.
  virtual TaskPtr pop(WorkerId worker) = 0;

  /// Removes and returns the tasks stranded by the death of `dead_worker`:
  /// everything queued on that worker plus (for centrally queued policies)
  /// tasks with no eligible worker left. The engine re-pushes the ones that
  /// are still runnable elsewhere and terminally fails the rest.
  virtual std::vector<TaskPtr> drain(WorkerId dead_worker) = 0;

  /// Zeroes the policy's own worker clocks (Engine::reset_virtual_time,
  /// with nothing queued); a no-op for the policies that keep none.
  virtual void reset_virtual_time() {}
};

/// Creates a scheduler by policy name, one of scheduler_names(): "eager"
/// (one central queue, the blind baseline), "dmda" or "lookahead"
/// (windowed joint placement + static-composition replay). Throws
/// Error(kInvalidArgument) listing the valid policies on unknown names.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name, SchedEnv env);

/// Names accepted by make_scheduler: the one list that help texts, the
/// descriptor parser, option checks and parameterised tests read.
std::vector<std::string> scheduler_names();

}  // namespace peppher::rt
