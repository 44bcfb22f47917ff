// Pluggable task schedulers. The default is "dmda" (deque model data aware),
// the StarPU policy family the paper's tool-generated performance-aware code
// (TGPA) relies on: it places each task on the worker with the earliest
// predicted completion,
//   max(worker clock, predecessors' end) + fetch + exec,
// priced by rt::Plan (runtime/placement.hpp) with expected execution time
// coming from the history-based performance models, and falls back to
// forced exploration while a variant is uncalibrated. "lookahead" plans a
// window of ready tasks jointly on a copy of the plan.
//
// The plan is the engine's one virtual timeline: every policy commits each
// attempt on it when it places it (dmda and lookahead at push, eager at
// pop), and the host events commit there too (Plan::commit). A worker's
// clock is the end of the last attempt committed there (or on a worker
// sharing its cores), never the engine's execution progress, so a push
// sees the same clocks however far the workers have run. StarPU's dmda
// raises its expected start to the current time instead.
//
// Concurrency contract: push/pop/drain and the timeline calls may be made
// from any thread with NO engine lock held; workers of the model-based
// policies pop from their own queue under that queue's lock only. The
// timeline (and eager's queue) sit behind one lock of the scheduler's own,
// so every placement sees every earlier commit. The SchedEnv callbacks are
// therefore required to be thread-safe as well; the Engine implements them
// over atomics, memoized per-task caches and the reader-writer performance
// registry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
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

  /// Seconds an attempt is committed for (finite); unset = exec.
  std::function<double(const Task&, WorkerId)> cost;

  /// History sample count for (task footprint, worker's variant); used for
  /// the calibration/exploration phase. Returns UINT64_MAX if ineligible or
  /// if exploration is unnecessary (history models disabled).
  std::function<std::uint64_t(const Task&, WorkerId)> sample_count;

  int calibration_min = 2;  ///< samples needed before a variant is trusted

  /// What the model-based policies' plans minimise.
  Objective objective = Objective::kTime;

  /// The memory hierarchy plans price fetches over and reserve lanes on
  /// (nullptr = plans move no data).
  const Interconnect* interconnect = nullptr;

  /// Counts and traces every committed hop (nullptr = no books).
  Tracer* recorder = nullptr;

  // --- lookahead-policy services (unset for the other policies) ---

  /// Window-commit notification for every planned task except the one
  /// whose push/pop triggered the planning: the engine traces the
  /// decision, warms the bytes on the chosen worker's node and wakes it.
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
  /// Returns the worker whose queue received it — committed there, the
  /// engine's wakeup and prefetch target — or kNoWorkerHint for centrally
  /// queued policies. When
  /// `decision` is non-null (tracing enabled), the policy reports how the
  /// placement was made: whether it explored, and model-based policies
  /// their candidate completion estimates, so the trace can hold
  /// predicted against actual (PF005). The caller fills in the task and
  /// the chosen worker.
  virtual WorkerId push(const TaskPtr& task,
                        DecisionRecord* decision = nullptr) = 0;

  /// Next task for `worker`, committed there, or nullptr if none is
  /// available to it.
  virtual TaskPtr pop(WorkerId worker) = 0;

  /// Removes and returns the tasks stranded by the death of `dead_worker`:
  /// everything queued on that worker plus (for centrally queued policies)
  /// tasks with no eligible worker left. The engine re-pushes the ones that
  /// are still runnable elsewhere and terminally fails the rest.
  virtual std::vector<TaskPtr> drain(WorkerId dead_worker) = 0;

  // -- the timeline -----------------------------------------------------------

  /// Latest committed worker clock: the virtual makespan.
  VirtualTime makespan() const;

  /// Zeroes the plan's clocks and lanes (Engine::reset_virtual_time, with
  /// nothing queued or staged).
  void reset_virtual_time();

  /// Commits a host-side access of `handle` on `node` (prefetch,
  /// acquire_host, unregister, unpartition): its fetch on the lanes, a
  /// write's ownership, a read's count.
  void commit_access(DataHandle& handle, MemoryNodeId node, AccessMode mode);

 protected:
  explicit Scheduler(SchedEnv env);

  /// Handles on the plan since its data were cleared, by data id.
  using Seen = std::vector<DataHandle*>;

  /// `task`'s predecessors' end and operands over `plan`'s data, into
  /// `out`: one datum per distinct handle, seeded from its plan view
  /// (`seen` maps the handles already added), a read's reuse its reads.
  void plan_operands(const Task& task, Plan& plan, Seen& seen,
                     Plan::Task& out) const;

  /// Commits `task` on `worker` at SchedEnv::cost, its operands added to
  /// the data of seen_: sets its vstart, vend and exec_seconds, and
  /// settles. mutex_ must be held.
  void commit_locked(Task& task, WorkerId worker);

  SchedEnv env_;
  /// Guards the timeline and the scratch below (and eager's queue).
  mutable std::mutex mutex_;
  Plan plan_;  ///< the timeline, and the current decision's data
  Seen seen_;
  Plan::Task task_;

 private:
  /// Stores every datum of seen_ back into its handle's plan view and
  /// counts and traces hops_.
  void settle_locked();

  Plan::Hops hops_;
  std::vector<std::uint64_t> lane_hops_;  ///< per lane, hops traced so far
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
