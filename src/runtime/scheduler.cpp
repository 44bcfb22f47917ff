#include "runtime/scheduler.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "runtime/memory.hpp"
#include "runtime/perfmodel.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::rt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// ---------------------------------------------------------------------------
// The timeline every policy commits on.
// ---------------------------------------------------------------------------

Scheduler::Scheduler(SchedEnv env)
    : env_(std::move(env)),
      plan_(*env_.workers, env_.interconnect, env_.objective) {
  if (!env_.cost) env_.cost = env_.exec;
}

VirtualTime Scheduler::makespan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_.makespan();
}

void Scheduler::reset_virtual_time() {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_.reset(*env_.workers, env_.interconnect, env_.objective);
}

void Scheduler::commit_access(DataHandle& handle, MemoryNodeId node,
                              AccessMode mode) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_.clear_data();
  seen_.assign(1, &handle);
  plan_.access(plan_.add_data(handle), node, mode, handle.bytes(), &hops_);
  if (mode == AccessMode::kRead) handle.note_read();
  settle_locked();
}

void Scheduler::submit(const TaskPtr& task, std::vector<TaskPtr>& committed) {
  std::lock_guard<std::mutex> lock(mutex_);
  commit_task_locked(task);
  committed.push_back(task);
}

void Scheduler::flush(std::vector<TaskPtr>&) {}

void Scheduler::retry(const TaskPtr& task) {
  std::lock_guard<std::mutex> lock(mutex_);
  commit_task_locked(task);
}

DecisionRecord* Scheduler::traced(DecisionRecord& record) const {
  if (env_.recorder == nullptr || !env_.recorder->tracing()) return nullptr;
  record = DecisionRecord{};
  record.arch_estimate.fill(kInf);
  return &record;
}

void Scheduler::commit_task_locked(const TaskPtr& task) {
  DecisionRecord record;
  DecisionRecord* decision = traced(record);
  plan_.clear_data();
  seen_.clear();
  commit_attempts_locked(task, decide_locked(*task, decision), decision);
}

void Scheduler::commit_attempts_locked(const TaskPtr& task, WorkerId worker,
                                       DecisionRecord* decision) {
  while (worker >= 0) {
    if (decision != nullptr) {
      env_.recorder->record_decision(task->sequence, worker, *decision);
    }
    const bool hop_failed = commit_locked(*task, worker);
    if (!env_.settle || !env_.settle(task, hop_failed)) return;
    if (decision != nullptr) traced(*decision);  // the retry's own record
    plan_.clear_data();
    seen_.clear();
    worker = decide_locked(*task, decision);
  }
  if (task->error == nullptr) {
    task->error = std::make_exception_ptr(
        Error(ErrorCode::kUnsupported, "task '" + task->spec.name +
                                           "' has no eligible worker left "
                                           "(device died)"));
  }
}

void Scheduler::plan_operands(const Task& task, Plan& plan, Seen& seen,
                              Plan::Task& out) const {
  out.deps = task.max_pred_end;
  out.operands.clear();
  for (std::size_t i = 0; i < task.spec.operands.size(); ++i) {
    const TaskOperand& op = task.spec.operands[i];
    DataHandle* handle = op.handle.get();
    auto found = std::find(seen.begin(), seen.end(), handle);
    if (found == seen.end()) {
      plan.add_data(*handle);
      found = seen.insert(seen.end(), handle);
    }
    out.operands.push_back(
        {static_cast<int>(found - seen.begin()), op.mode,
         task.operand_bytes[i],
         op.mode == AccessMode::kRead ? static_cast<double>(handle->reads())
                                      : 1.0});
  }
}

bool Scheduler::commit_locked(Task& task, WorkerId worker) {
  plan_operands(task, plan_, seen_, task_);
  const double exec = env_.cost(task, worker);
  const Plan::Commit done = plan_.commit(
      task_, worker, exec, &hops_, env_.hop_fails ? &env_.hop_fails : nullptr);
  task.executed_on = worker;
  task.vstart = done.start;
  task.vend = done.end;
  task.exec_seconds = exec;
  for (const TaskOperand& op : task.spec.operands) {
    if (op.mode == AccessMode::kRead) op.handle->note_read();
  }
  settle_locked();
  return done.failed;
}

void Scheduler::settle_locked() {
  for (std::size_t data = 0; data < seen_.size(); ++data) {
    plan_.store_data(static_cast<int>(data), *seen_[data]);
  }
  if (env_.recorder != nullptr) {
    for (const Plan::Hop& hop : hops_) {
      if (hop.lane >= lane_hops_.size()) lane_hops_.resize(hop.lane + 1);
      env_.recorder->record_transfer(
          static_cast<int>(hop.lane), lane_hops_[hop.lane]++, hop.from,
          hop.to, hop.bytes, hop.start, hop.end,
          seen_[static_cast<std::size_t>(hop.data)]->id());
    }
  }
  hops_.clear();
}

namespace {

/// The eligible worker among `candidates` with the earliest committed
/// start, max(clock, predecessors' end); ties go to the lowest id. -1 when
/// none is eligible.
WorkerId earliest_start(const Plan& plan, const SchedEnv& env, const Task& task,
                        const std::vector<WorkerId>& candidates) {
  WorkerId best = -1;
  double best_start = kInf;
  for (const WorkerId id : candidates) {
    if (!env.eligible(task, id)) continue;
    const double start = std::max(plan.clock(id), task.max_pred_end);
    if (start < best_start) {
      best = id;
      best_start = start;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Eager: the blind baseline. Each task goes to the eligible worker that
// could start it first on the timeline; no model, no fetch price.
// ---------------------------------------------------------------------------
class EagerScheduler final : public Scheduler {
 public:
  explicit EagerScheduler(SchedEnv env) : Scheduler(std::move(env)) {
    for (const WorkerDesc& w : *env_.workers) ids_.push_back(w.id);
  }

 protected:
  WorkerId decide_locked(const Task& task, DecisionRecord*) override {
    return earliest_start(plan_, env_, task, ids_);
  }

 private:
  std::vector<WorkerId> ids_;  ///< every worker, in id order
};

// ---------------------------------------------------------------------------
// Dmda: performance-aware, data-aware list scheduling (the TGPA policy),
// with the calibration/exploration rule. Dmda places one task on the plan
// (Plan::place); lookahead places a window (Plan::place_window) on a copy.
// ---------------------------------------------------------------------------
class DmdaScheduler : public Scheduler {
 public:
  explicit DmdaScheduler(SchedEnv env) : Scheduler(std::move(env)) {}

 protected:
  /// `task` as `plan` prices it, into `out`: plan_operands plus the
  /// per-worker execution estimates.
  void plan_task(const Task& task, Plan& plan, Seen& seen,
                 Plan::Task& out) const {
    plan_operands(task, plan, seen, out);
    out.exec.clear();
    for (const WorkerDesc& w : *env_.workers) {
      out.exec.push_back(env_.exec(task, w.id));
    }
  }

  /// Calibration rule: the eligible variant with the fewest recorded
  /// samples below calibration_min, or -1 when every variant is calibrated
  /// (StarPU forces uncalibrated variants to run so the models learn).
  WorkerId exploration_target(const Task& task) const {
    WorkerId explore = -1;
    std::uint64_t explore_count = std::numeric_limits<std::uint64_t>::max();
    for (const auto& w : *env_.workers) {
      const std::uint64_t count = env_.sample_count(task, w.id);
      if (count < static_cast<std::uint64_t>(env_.calibration_min) &&
          count < explore_count) {
        explore = w.id;
        explore_count = count;
      }
    }
    return explore;
  }

  /// The dmda placement: an exploration_target forces the task onto an
  /// uncalibrated variant so the history model learns about it; otherwise
  /// the task goes to the plan's best placement.
  WorkerId decide_locked(const Task& task, DecisionRecord* decision) override {
    plan_task(task, plan_, seen_, task_);
    const WorkerId explore = exploration_target(task);
    Plan::Choice choice;
    if (explore >= 0) choice = plan_.price(task_, explore);
    if (choice.eligible()) {
      if (decision != nullptr) decision->explored = true;
      return choice.worker;
    }
    choice = plan_.place(task_);
    if (decision != nullptr && choice.eligible()) {
      for (const WorkerDesc& w : *env_.workers) {
        double& slot =
            decision->arch_estimate[static_cast<std::size_t>(w.archs.front())];
        slot = std::min(slot, plan_.price(task_, w.id).score);
      }
      decision->chosen_estimate = choice.score;
    }
    return choice.worker;
  }
};

// ---------------------------------------------------------------------------
// Lookahead: windowed joint placement + static-composition replay (Kessler
// & Dastgeer's optimized composition over windows of the call sequence).
//
// Submissions are staged until window_size of them accumulate, then placed
// *jointly* by Plan::place_window: a greedy start, then a bounded
// branch-and-bound search over the per-task worker assignments that
// minimises the window's makespan where greedy earliest-finish order is
// wrong. The window is flushed early before a submission that depends on a
// staged task, before one that does not join a window (an exploring or a
// replayed task), and at every host event and wait (the engine's flush).
//
// With a dispatch table loaded (EngineConfig::dispatch_table), placement is
// replayed per program point: the table's architecture, on its worker with
// the earliest committed start — no pricing, no staging, no search.
// ---------------------------------------------------------------------------
class LookaheadScheduler final : public DmdaScheduler {
 public:
  explicit LookaheadScheduler(SchedEnv env) : DmdaScheduler(std::move(env)) {
    // Workers grouped by architecture, so a table hit scans only the few
    // candidates that could serve it.
    for (const auto& w : *env_.workers) {
      for (const Arch arch : w.archs) {
        arch_workers_[static_cast<std::size_t>(arch)].push_back(w.id);
      }
    }
  }

  void submit(const TaskPtr& task, std::vector<TaskPtr>& committed) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (replay_target(*task) >= 0 || exploration_target(*task) >= 0) {
      // Calibration placements are per-variant by construction and table
      // placements are given: neither joins a window.
      flush_locked(committed);
      commit_task_locked(task);
      committed.push_back(task);
      return;
    }
    staging_.push_back(task);
    if (static_cast<int>(staging_.size()) >= std::max(1, env_.window_size)) {
      flush_locked(committed);
    }
  }

  void flush(std::vector<TaskPtr>& committed) override {
    std::lock_guard<std::mutex> lock(mutex_);
    flush_locked(committed);
  }

  bool windowed() const override { return true; }

 protected:
  WorkerId decide_locked(const Task& task, DecisionRecord* decision) override {
    if (const WorkerId worker = replay_target(task); worker >= 0) {
      return worker;
    }
    return DmdaScheduler::decide_locked(task, decision);
  }

 private:
  /// Search-node budget of one window's branch-and-bound (beyond it the
  /// incumbent — at worst the greedy plan — stands).
  static constexpr std::uint64_t kSearchBudget = 20000;

  /// Replay placement: the table's architecture resolved at submit
  /// (Task::replay_arch), else — when it has no eligible worker any more —
  /// the key chain re-probed, most to least specific, for an entry naming
  /// a living architecture. -1 when the table cannot be honoured (the task
  /// is then planned dynamically).
  WorkerId replay_target(const Task& task) const {
    if (env_.dispatch == nullptr || !task.has_dispatch_keys ||
        task.replay_arch < 0) {
      return -1;
    }
    const Arch resolved = static_cast<Arch>(task.replay_arch);
    if (const WorkerId worker = on_arch(task, resolved); worker >= 0) {
      return worker;
    }
    std::uint64_t previous_key = ~std::uint64_t{0};
    for (const std::uint64_t key : task.dispatch_keys) {
      // Untagged tasks repeat probe keys (point -1 equals its wildcard).
      if (key == previous_key) continue;
      previous_key = key;
      const std::optional<Arch> arch = env_.dispatch->lookup(key);
      if (!arch || *arch == resolved) continue;
      if (const WorkerId worker = on_arch(task, *arch); worker >= 0) {
        return worker;
      }
    }
    return -1;
  }

  /// The eligible worker of `arch` with the earliest committed start.
  WorkerId on_arch(const Task& task, Arch arch) const {
    return earliest_start(plan_, env_, task,
                          arch_workers_[static_cast<std::size_t>(arch)]);
  }

  /// Plans the staged window on a copy of the timeline and commits it
  /// there in submission order, each task as dmda commits its decision (so
  /// a window of one is dmda); mutex_ must be held.
  void flush_locked(std::vector<TaskPtr>& committed) {
    if (staging_.empty()) return;
    Plan plan = plan_;
    plan.clear_data();
    Seen seen;
    std::vector<TaskPtr> window;
    std::vector<Plan::Task> planned;
    for (TaskPtr& task : staging_) {
      Plan::Task pt;
      plan_task(*task, plan, seen, pt);
      if (!plan.place(pt).eligible()) {
        // A device died since it was staged and nothing else may run it.
        commit_task_locked(task);
        committed.push_back(std::move(task));
        continue;
      }
      window.push_back(std::move(task));
      planned.push_back(std::move(pt));
    }
    staging_.clear();
    if (window.empty()) return;

    const Plan::Window result = plan.place_window(planned, kSearchBudget);
    for (std::size_t i = 0; i < window.size(); ++i) {
      DecisionRecord record;
      DecisionRecord* decision = traced(record);
      WorkerId worker = result.workers[i];
      plan_.clear_data();
      seen_.clear();
      if (!env_.eligible(*window[i], worker)) {
        // Its worker died at a commit earlier in this window.
        worker = decide_locked(*window[i], decision);
      } else if (decision != nullptr) {
        decision->chosen_estimate = result.commits[i].end;
        decision->arch_estimate[static_cast<std::size_t>(
            (*env_.workers)[static_cast<std::size_t>(worker)].archs.front())] =
            result.commits[i].end;
      }
      commit_attempts_locked(window[i], worker, decision);
      committed.push_back(window[i]);
    }

    if (env_.recorder != nullptr && env_.recorder->tracing()) {
      WindowRecord record;
      record.id = window_counter_++;
      record.size = static_cast<int>(window.size());
      record.estimate = result.makespan;
      record.improved = result.improved;
      record.explored = result.explored;
      record.tasks.reserve(window.size());
      for (const TaskPtr& task : window) record.tasks.push_back(task->sequence);
      env_.recorder->record_window(record);
    }
  }

  std::vector<TaskPtr> staging_;  ///< guarded by mutex_, submission order
  std::uint64_t window_counter_ = 0;  ///< guarded by mutex_
  /// Worker ids per architecture (immutable after construction).
  std::array<std::vector<WorkerId>, kArchCount> arch_workers_{};
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& name, SchedEnv env) {
  check(env.workers != nullptr && !env.workers->empty(),
        "scheduler needs a worker table");
  if (name == "eager") return std::make_unique<EagerScheduler>(std::move(env));
  if (name == "dmda") return std::make_unique<DmdaScheduler>(std::move(env));
  if (name == "lookahead") {
    return std::make_unique<LookaheadScheduler>(std::move(env));
  }
  throw Error(ErrorCode::kInvalidArgument,
              "unknown scheduler '" + name + "' (valid policies: " +
                  strings::join(scheduler_names(), ", ") + ")");
}

std::vector<std::string> scheduler_names() {
  return {"eager", "dmda", "lookahead"};
}

}  // namespace peppher::rt
