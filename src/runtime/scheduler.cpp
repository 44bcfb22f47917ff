#include "runtime/scheduler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
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

/// One worker's ready queue: its own lock plus an approximate size counter
/// readable without the lock (lookahead's replay reads it to pick the
/// least-loaded worker).
struct LockedDeque {
  std::mutex mutex;
  std::deque<TaskPtr> items;
  std::atomic<std::size_t> approx_size{0};
};

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

void Scheduler::commit_locked(Task& task, WorkerId worker) {
  plan_operands(task, plan_, seen_, task_);
  const double exec = env_.cost(task, worker);
  const Plan::Commit done = plan_.commit(task_, worker, exec, &hops_);
  task.vstart = done.start;
  task.vend = done.end;
  task.exec_seconds = exec;
  for (const TaskOperand& op : task.spec.operands) {
    if (op.mode == AccessMode::kRead) op.handle->note_read();
  }
  settle_locked();
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

// ---------------------------------------------------------------------------
// Eager: one central FIFO; each worker takes the first task it can run and
// commits it on the timeline. Highest priority wins, submission order
// breaks ties.
// ---------------------------------------------------------------------------
class EagerScheduler final : public Scheduler {
 public:
  explicit EagerScheduler(SchedEnv env) : Scheduler(std::move(env)) {}

  WorkerId push(const TaskPtr& task, DecisionRecord*) override {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(task);
    return kNoWorkerHint;
  }

  TaskPtr pop(WorkerId worker) override {
    std::lock_guard<std::mutex> lock(mutex_);
    auto best = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!env_.eligible(**it, worker)) continue;
      if (best == queue_.end() ||
          (*it)->spec.priority > (*best)->spec.priority) {
        best = it;
      }
    }
    if (best == queue_.end()) return nullptr;
    TaskPtr task = *best;
    queue_.erase(best);
    plan_.clear_data();
    seen_.clear();
    commit_locked(*task, worker);
    return task;
  }

  std::vector<TaskPtr> drain(WorkerId) override {
    // Central queue: nothing is bound to the dead worker, but tasks that
    // just lost their only capable worker would otherwise sit forever.
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TaskPtr> out;
    for (auto it = queue_.begin(); it != queue_.end();) {
      bool runnable = false;
      for (const auto& w : *env_.workers) {
        if (env_.eligible(**it, w.id)) {
          runnable = true;
          break;
        }
      }
      if (runnable) {
        ++it;
      } else {
        out.push_back(*it);
        it = queue_.erase(it);
      }
    }
    return out;
  }

 private:
  std::deque<TaskPtr> queue_;  ///< guarded by mutex_
};

// ---------------------------------------------------------------------------
// Shared core of the model-based policies (dmda and lookahead): per-worker
// priority queues and the calibration/exploration rule. Every placement —
// a decision, or a replayed table entry — commits its task on the
// timeline, and nothing else moves it — not a pop, not the engine's
// execution — so a placement depends on the placements and host events
// before it, not on thread timing. Dmda places one task on the plan
// (Plan::place); lookahead places a window (Plan::place_window) on a copy.
// ---------------------------------------------------------------------------
class ModelSchedulerBase : public Scheduler {
 public:
  TaskPtr pop(WorkerId worker) override {
    auto& q = queues_[static_cast<std::size_t>(worker)];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.items.empty()) return nullptr;
    TaskPtr task = std::move(q.items.front());
    q.items.pop_front();
    q.approx_size.store(q.items.size(), std::memory_order_relaxed);
    return task;
  }

  /// Empties the dead worker's queue.
  std::vector<TaskPtr> drain(WorkerId dead_worker) override {
    auto& q = queues_[static_cast<std::size_t>(dead_worker)];
    std::lock_guard<std::mutex> lock(q.mutex);
    std::vector<TaskPtr> out(q.items.begin(), q.items.end());
    q.items.clear();
    q.approx_size.store(0, std::memory_order_relaxed);
    return out;
  }

 protected:
  explicit ModelSchedulerBase(SchedEnv env)
      : Scheduler(std::move(env)), queues_(env_.workers->size()) {}

  /// Inserts behind every queued task of at least its priority (FIFO among
  /// equal priorities).
  void enqueue_by_priority(WorkerId worker, const TaskPtr& task) {
    auto& q = queues_[static_cast<std::size_t>(worker)];
    std::lock_guard<std::mutex> lock(q.mutex);
    auto it = q.items.end();
    while (it != q.items.begin() &&
           (*std::prev(it))->spec.priority < task->spec.priority) {
      --it;
    }
    q.items.insert(it, task);
    q.approx_size.store(q.items.size(), std::memory_order_relaxed);
  }

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

  /// The dmda placement; mutex_ must be held. `explore` (an
  /// exploration_target) forces the task onto an uncalibrated variant so
  /// the history model learns about it; otherwise the task goes to the
  /// plan's best placement. Either way the task is committed there and
  /// queued.
  WorkerId decide_locked(const TaskPtr& task, WorkerId explore,
                         DecisionRecord* decision) {
    plan_.clear_data();
    seen_.clear();
    plan_task(*task, plan_, seen_, task_);
    Plan::Choice choice;
    if (explore >= 0) choice = plan_.price(task_, explore);
    if (choice.eligible()) {
      if (decision != nullptr) decision->explored = true;
    } else {
      choice = plan_.place(task_);
      check(choice.eligible(), "task has no eligible worker");
      if (decision != nullptr) {
        decision->arch_estimate.fill(kInf);
        for (const WorkerDesc& w : *env_.workers) {
          double& slot = decision->arch_estimate[static_cast<std::size_t>(
              w.archs.front())];
          slot = std::min(slot, plan_.price(task_, w.id).score);
        }
        decision->chosen_estimate = choice.score;
      }
    }
    commit_locked(*task, choice.worker);
    enqueue_by_priority(choice.worker, task);
    return choice.worker;
  }

  std::vector<LockedDeque> queues_;  ///< one per worker
};

// ---------------------------------------------------------------------------
// Dmda: performance-aware, data-aware list scheduling (the TGPA policy).
// ---------------------------------------------------------------------------
class DmdaScheduler final : public ModelSchedulerBase {
 public:
  explicit DmdaScheduler(SchedEnv env) : ModelSchedulerBase(std::move(env)) {}

  WorkerId push(const TaskPtr& task, DecisionRecord* decision) override {
    const WorkerId explore = exploration_target(*task);
    std::lock_guard<std::mutex> lock(mutex_);
    return decide_locked(task, explore, decision);
  }
};

// ---------------------------------------------------------------------------
// Lookahead: windowed joint placement + static-composition replay (Kessler
// & Dastgeer's optimized composition over task-DAG windows).
//
// Ready tasks are staged until window_size of them accumulate (or a worker
// runs dry), then placed *jointly* by Plan::place_window: a greedy start,
// then a bounded branch-and-bound search over the per-task worker
// assignments that minimises the window's makespan where greedy
// earliest-finish order is wrong. The calibration phase skips the window.
//
// With a dispatch table loaded (EngineConfig::dispatch_table), placement is
// replayed per program point with one precomputed-key hash probe: no
// pricing, no staging, no search on the hot path, only the commit.
// ---------------------------------------------------------------------------
class LookaheadScheduler final : public ModelSchedulerBase {
 public:
  explicit LookaheadScheduler(SchedEnv env)
      : ModelSchedulerBase(std::move(env)) {
    // Replay-path acceleration: workers grouped by architecture, so a
    // table hit scans only the few candidates that could serve it.
    for (const auto& w : *env_.workers) {
      for (const Arch arch : w.archs) {
        arch_workers_[static_cast<std::size_t>(arch)].push_back(w.id);
      }
    }
  }

  WorkerId push(const TaskPtr& task, DecisionRecord* decision) override {
    // Static-composition replay: table placements bypass the planning and
    // commit like any other, so tasks planned dynamically beside them see
    // the work.
    if (env_.dispatch != nullptr && task->has_dispatch_keys) {
      if (const WorkerId worker = replay_target(*task); worker >= 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        plan_.clear_data();
        seen_.clear();
        commit_locked(*task, worker);
        enqueue_by_priority(worker, task);
        return worker;
      }
    }
    // Calibration placements are per-variant by construction — batching
    // them would only delay model convergence, so they skip the window.
    const WorkerId explore = exploration_target(*task);
    std::lock_guard<std::mutex> lock(mutex_);
    if (explore >= 0) return decide_locked(task, explore, decision);
    staging_.push_back(task);
    if (static_cast<int>(staging_.size()) <
        std::max(1, env_.window_size)) {
      return kNoWorkerHint;
    }
    WorkerId trigger_worker = kNoWorkerHint;
    plan_window_locked(task, decision, &trigger_worker);
    return trigger_worker;
  }

  TaskPtr pop(WorkerId worker) override {
    // A worker running dry closes the current (partial) window rather than
    // idling until it fills: batching only forms while tasks queue up, so an
    // idle system degenerates toward dmda-like immediacy by design.
    while (true) {
      if (TaskPtr task = ModelSchedulerBase::pop(worker)) return task;
      std::lock_guard<std::mutex> lock(mutex_);
      if (staging_.empty()) return nullptr;
      if (plan_window_locked(nullptr, nullptr, nullptr) == 0) return nullptr;
      // Planned tasks may have landed on other workers; retry our queue
      // until it yields or the staging buffer is exhausted.
    }
  }

  std::vector<TaskPtr> drain(WorkerId dead_worker) override {
    // A dead device invalidates the plan assumptions for everything still
    // staged: hand the whole staging buffer back along with the dead
    // worker's queue. The engine re-pushes the survivors, which re-stages
    // and re-plans them against the updated worker set.
    std::vector<TaskPtr> out = ModelSchedulerBase::drain(dead_worker);
    std::lock_guard<std::mutex> lock(mutex_);
    out.insert(out.end(), staging_.begin(), staging_.end());
    staging_.clear();
    return out;
  }

 private:
  /// Search-node budget of one window's branch-and-bound (beyond it the
  /// incumbent — at worst the greedy plan — stands).
  static constexpr std::uint64_t kSearchBudget = 20000;

  /// Is `worker` allowed to run `task`? A bit-test against the engine's
  /// pre-push eligibility snapshot when present; the SchedEnv callback
  /// otherwise (direct unit-test pushes, workers beyond bit 63).
  bool worker_allowed(const Task& task, WorkerId worker) const {
    if (task.ready_eligible_mask != 0 && worker >= 0 && worker < 64) {
      return (task.ready_eligible_mask >> static_cast<unsigned>(worker)) & 1;
    }
    return env_.eligible(task, worker);
  }

  /// Least-loaded eligible worker of one architecture, by the lock-free
  /// queue-length approximations; -1 when the architecture has no eligible
  /// worker.
  WorkerId least_loaded(const Task& task, Arch arch) const {
    WorkerId best = -1;
    std::size_t best_len = 0;
    for (const WorkerId id : arch_workers_[static_cast<std::size_t>(arch)]) {
      if (!worker_allowed(task, id)) continue;
      const std::size_t len =
          queues_[static_cast<std::size_t>(id)].approx_size.load(
              std::memory_order_relaxed);
      if (best < 0 || len < best_len) {
        best = id;
        best_len = len;
      }
    }
    return best;
  }

  /// Replay placement. Fast path: the submit thread already resolved the
  /// table's architecture (Task::replay_arch), so the hot path only maps
  /// arch -> least-loaded worker — no hashing, no table probe. Slow path
  /// (resolved arch has no eligible worker, e.g. its device died): re-probe
  /// the full key chain, most to least specific, in case a less specific
  /// entry names a still-living architecture. Returns -1 when nothing in
  /// the table can be honoured (caller falls back to dynamic planning).
  WorkerId replay_target(const Task& task) const {
    if (task.replay_arch < 0) return -1;
    const Arch resolved = static_cast<Arch>(task.replay_arch);
    if (const WorkerId worker = least_loaded(task, resolved); worker >= 0) {
      return worker;
    }
    std::uint64_t previous_key = ~std::uint64_t{0};
    for (const std::uint64_t key : task.dispatch_keys) {
      // Untagged tasks repeat probe keys (point -1 equals its wildcard).
      if (key == previous_key) continue;
      previous_key = key;
      const std::optional<Arch> arch = env_.dispatch->lookup(key);
      if (!arch || *arch == resolved) continue;
      if (const WorkerId worker = least_loaded(task, *arch); worker >= 0) {
        return worker;
      }
    }
    return -1;
  }

  /// Plans (at most) one window out of the staging buffer on a copy of the
  /// timeline and commits it there; mutex_ must be held. Returns the number
  /// of tasks planned and committed. `trigger`/`decision`/`trigger_worker`
  /// report
  /// the placement of the pushing task so push() can return a normal worker
  /// hint for it; every other planned task is announced through env_.commit.
  std::size_t plan_window_locked(const TaskPtr& trigger,
                                 DecisionRecord* decision,
                                 WorkerId* trigger_worker) {
    // Snapshot up to window_size plannable tasks, FIFO. Tasks with no
    // eligible worker right now (mid-blacklist race) stay staged; the
    // engine's drain pass will collect them.
    Plan plan = plan_;
    plan.clear_data();
    Seen seen;
    std::vector<TaskPtr> window;
    std::vector<Plan::Task> planned;
    std::deque<TaskPtr> unplannable;
    while (!staging_.empty() &&
           window.size() < static_cast<std::size_t>(
                               std::max(1, env_.window_size))) {
      TaskPtr task = std::move(staging_.front());
      staging_.pop_front();
      Plan::Task pt;
      plan_task(*task, plan, seen, pt);
      if (!plan.place(pt).eligible()) {
        unplannable.push_back(std::move(task));
        continue;
      }
      window.push_back(std::move(task));
      planned.push_back(std::move(pt));
    }
    for (auto& task : unplannable) staging_.push_back(std::move(task));
    if (window.empty()) return 0;

    const Plan::Window result = plan.place_window(planned, kSearchBudget);

    // Commit the plan in window order, each task as dmda commits its
    // decision (so a window of one is dmda), then real queue insertions and
    // engine notifications.
    plan_.clear_data();
    seen_.clear();
    for (std::size_t i = 0; i < window.size(); ++i) {
      const WorkerId worker = result.workers[i];
      const Plan::Commit& committed = result.commits[i];
      DecisionRecord record;
      record.chosen_estimate = committed.end;
      record.arch_estimate.fill(kInf);
      record.arch_estimate[static_cast<std::size_t>(
          (*env_.workers)[static_cast<std::size_t>(worker)].archs.front())] =
          committed.end;
      commit_locked(*window[i], worker);
      enqueue_by_priority(worker, window[i]);
      if (trigger != nullptr && window[i] == trigger) {
        if (decision != nullptr) *decision = record;
        if (trigger_worker != nullptr) *trigger_worker = worker;
      } else if (env_.commit) {
        env_.commit(window[i], worker, record);
      }
    }

    if (env_.record_window) {
      WindowRecord record;
      record.id = window_counter_++;
      record.size = static_cast<int>(window.size());
      record.estimate = result.makespan;
      record.improved = result.improved;
      record.explored = result.explored;
      record.tasks.reserve(window.size());
      for (const TaskPtr& task : window) record.tasks.push_back(task->sequence);
      env_.record_window(record);
    }
    return window.size();
  }

  std::deque<TaskPtr> staging_;  ///< guarded by mutex_
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
