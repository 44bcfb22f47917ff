// Pluggable task schedulers. The default is "dmda" (deque model data aware),
// the StarPU policy family the paper's tool-generated performance-aware code
// (TGPA) relies on: it places each task on the worker with the earliest
// predicted completion,
//   max(worker clock, predecessors' end) + fetch + exec,
// priced by rt::Plan (runtime/placement.hpp) with expected execution time
// coming from the history-based performance models, and falls back to
// forced exploration while a variant is uncalibrated. "lookahead" plans a
// window of submissions jointly on a copy of the plan; "eager" takes the
// eligible worker with the earliest committed start and no model.
//
// The plan is the engine's one virtual timeline, and every decision is
// made where the program is sequential: at submit, in submission order.
// A task is committed on the plan before submit returns (under lookahead,
// at the flush that commits its window), every predecessor committed
// first, so a decision sees every earlier commit and nothing of thread
// timing. A commit settles each attempt — its fault draws, the deaths it
// causes, its history sample — and a failed attempt's retries commit back
// to back. A worker's clock is the end of the last attempt committed there
// (or on a worker sharing its cores), never the engine's execution
// progress. StarPU's dmda raises its expected start to the current time
// instead.
//
// Concurrency contract: the engine commits under its graph lock, in
// submission order; the timeline sits behind one lock of the scheduler's
// own (taken after the graph lock, before any handle mutex), so the
// SchedEnv callbacks run under it and must not take the engine's locks.
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

  /// Counts and traces every committed hop, and traces each placement and
  /// window (nullptr = no books).
  Tracer* recorder = nullptr;

  /// Draws whether one committed hop fails (unset = none fails).
  Plan::HopFault hop_fails;

  /// Settles one committed attempt of a task (its executed_on, vstart,
  /// vend and exec_seconds set; `hop_failed` when a hop of its fetch
  /// failed): draws its kernel fault and the deaths it causes, records a
  /// failed attempt and a successful one's history sample. Returns true
  /// when the attempt failed and the task retries (unset = every attempt
  /// succeeds).
  std::function<bool(const TaskPtr&, bool hop_failed)> settle;

  // --- lookahead-policy services (unset for the other policies) ---

  /// Submissions the "lookahead" policy plans jointly (>= 1; a window of
  /// one is one Plan::place, which is dmda's placement).
  int window_size = 8;

  /// Static-composition replay table (finalized); nullptr = no replay.
  const DispatchTable* dispatch = nullptr;
};

/// Scheduler interface (internally synchronized; see file comment).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Commits `task` — placed by the policy, a failed attempt's retries back
  /// to back — or, under lookahead, stages it in the current window, and
  /// appends every task this call committed to `committed`, in submission
  /// order. A task no worker may run any more is committed nowhere and
  /// fails. Called in submission order, after every predecessor of `task`
  /// was committed (flush).
  virtual void submit(const TaskPtr& task, std::vector<TaskPtr>& committed);

  /// Commits every staged task (lookahead's window) into `committed`;
  /// nothing is staged under the other policies.
  virtual void flush(std::vector<TaskPtr>& committed);

  /// True when submit can stage tasks, so waits and host events must
  /// flush first.
  virtual bool windowed() const { return false; }

  /// Commits a retry of `task` after a real failure of its committed
  /// attempt, placed now: the one decision made in execution order.
  void retry(const TaskPtr& task);

  // -- the timeline -----------------------------------------------------------

  /// Latest committed worker clock: the virtual makespan.
  VirtualTime makespan() const;

  /// Zeroes the plan's clocks and lanes (Engine::reset_virtual_time, with
  /// nothing staged).
  void reset_virtual_time();

  /// Commits a host-side access of `handle` on `node` (prefetch,
  /// acquire_host, unregister, unpartition): its fetch on the lanes, a
  /// write's ownership, a read's count.
  void commit_access(DataHandle& handle, MemoryNodeId node, AccessMode mode);

 protected:
  explicit Scheduler(SchedEnv env);

  /// Handles on the plan since its data were cleared, by data id.
  using Seen = std::vector<DataHandle*>;

  /// The policy's worker for one attempt of `task`, on plan_ with its data
  /// cleared, or -1 when no worker is eligible. `decision` (tracing only)
  /// reports how it was made. mutex_ must be held.
  virtual WorkerId decide_locked(const Task& task,
                                 DecisionRecord* decision) = 0;

  /// decide_locked, then commit_attempts_locked. mutex_ must be held.
  void commit_task_locked(const TaskPtr& task);

  /// Commits `task`'s attempts from one on `worker`, each settled; a
  /// failed attempt that retries is placed again by decide_locked and
  /// committed right after it. `decision` is traced with each attempt.
  /// mutex_ must be held.
  void commit_attempts_locked(const TaskPtr& task, WorkerId worker,
                              DecisionRecord* decision);

  /// A fresh decision record when tracing, else nullptr.
  DecisionRecord* traced(DecisionRecord& record) const;

  /// `task`'s predecessors' end and operands over `plan`'s data, into
  /// `out`: one datum per distinct handle, seeded from its plan view
  /// (`seen` maps the handles already added), a read's reuse its reads.
  void plan_operands(const Task& task, Plan& plan, Seen& seen,
                     Plan::Task& out) const;

  SchedEnv env_;
  /// Guards the timeline and the scratch below (and lookahead's staging).
  mutable std::mutex mutex_;
  Plan plan_;  ///< the timeline, and the current decision's data
  Seen seen_;
  Plan::Task task_;

 private:
  /// Commits one attempt of `task` on `worker` at SchedEnv::cost, its
  /// operands added to the data of seen_ (each hop drawing
  /// SchedEnv::hop_fails): sets its executed_on, vstart, vend and
  /// exec_seconds, and settles the plan's data. Returns whether a hop
  /// failed.
  bool commit_locked(Task& task, WorkerId worker);

  /// Stores every datum of seen_ back into its handle's plan view and
  /// counts and traces hops_.
  void settle_locked();

  Plan::Hops hops_;
  std::vector<std::uint64_t> lane_hops_;  ///< per lane, hops traced so far
};

/// Creates a scheduler by policy name, one of scheduler_names(): "eager"
/// (earliest committed start, the blind baseline), "dmda" or "lookahead"
/// (windowed joint placement + static-composition replay). Throws
/// Error(kInvalidArgument) listing the valid policies on unknown names.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name, SchedEnv env);

/// Names accepted by make_scheduler: the one list that help texts, the
/// descriptor parser, option checks and parameterised tests read.
std::vector<std::string> scheduler_names();

}  // namespace peppher::rt
