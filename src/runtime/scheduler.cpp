#include "runtime/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "runtime/memory.hpp"
#include "runtime/perfmodel.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Lock-free accumulate for std::atomic<double> (fetch_add on floating
/// atomics is C++20 but not universally lowered well; the CAS loop is
/// portable and these counters are uncontended in practice).
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Subtract with a floor of zero (pending-work accounting must not go
/// negative from estimate asymmetries).
void atomic_sub_clamped(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, std::max(0.0, cur - delta),
                                       std::memory_order_relaxed)) {
  }
}

/// One worker's ready queue: its own lock plus an approximate size counter
/// readable without the lock (queue-length scans during push decisions).
struct LockedDeque {
  mutable std::mutex mutex;
  std::deque<TaskPtr> items;
  std::atomic<std::size_t> approx_size{0};
};

/// Base with the common per-worker-queue plumbing.
class PerWorkerQueues {
 protected:
  explicit PerWorkerQueues(std::size_t worker_count) : queues_(worker_count) {}

  std::vector<LockedDeque> queues_;

  std::size_t total_queued() const {
    std::size_t n = 0;
    for (const auto& q : queues_) {
      n += q.approx_size.load(std::memory_order_relaxed);
    }
    return n;
  }

  void enqueue_back(WorkerId worker, const TaskPtr& task) {
    auto& q = queues_[static_cast<std::size_t>(worker)];
    std::lock_guard<std::mutex> lock(q.mutex);
    q.items.push_back(task);
    q.approx_size.store(q.items.size(), std::memory_order_relaxed);
  }

  std::optional<TaskPtr> take_back(WorkerId worker) {
    auto& q = queues_[static_cast<std::size_t>(worker)];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.items.empty()) return std::nullopt;
    TaskPtr task = std::move(q.items.back());
    q.items.pop_back();
    q.approx_size.store(q.items.size(), std::memory_order_relaxed);
    return task;
  }

  std::optional<TaskPtr> take_front(WorkerId worker) {
    auto& q = queues_[static_cast<std::size_t>(worker)];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.items.empty()) return std::nullopt;
    TaskPtr task = std::move(q.items.front());
    q.items.pop_front();
    q.approx_size.store(q.items.size(), std::memory_order_relaxed);
    return task;
  }

  /// Empties one worker's queue (drain() of the per-worker-queue policies).
  std::vector<TaskPtr> take_queue(WorkerId worker) {
    auto& q = queues_[static_cast<std::size_t>(worker)];
    std::lock_guard<std::mutex> lock(q.mutex);
    std::vector<TaskPtr> out(q.items.begin(), q.items.end());
    q.items.clear();
    q.approx_size.store(0, std::memory_order_relaxed);
    return out;
  }
};

// ---------------------------------------------------------------------------
// Eager: one central FIFO; each worker takes the first task it can run.
// Highest priority wins, submission order breaks ties.
// ---------------------------------------------------------------------------
class EagerScheduler final : public Scheduler {
 public:
  explicit EagerScheduler(SchedEnv env) : env_(std::move(env)) {}

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

  std::size_t queued() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }
  const std::string& name() const override { return name_; }

 private:
  SchedEnv env_;
  mutable std::mutex mutex_;
  std::deque<TaskPtr> queue_;
  std::string name_ = "eager";
};

// ---------------------------------------------------------------------------
// Random: push-time assignment to an eligible worker chosen with probability
// proportional to its peak GFLOP/s (StarPU's weighted-random policy).
// ---------------------------------------------------------------------------
class RandomScheduler final : public Scheduler,
                              private PerWorkerQueues {
 public:
  explicit RandomScheduler(SchedEnv env)
      : PerWorkerQueues(env.workers->size()), env_(std::move(env)) {}

  WorkerId push(const TaskPtr& task, DecisionRecord*) override {
    double total_weight = 0.0;
    for (const auto& w : *env_.workers) {
      if (env_.eligible(*task, w.id)) total_weight += w.profile.peak_gflops;
    }
    check(total_weight > 0.0, "task has no eligible worker");
    double pick;
    {
      std::lock_guard<std::mutex> lock(rng_mutex_);
      pick = env_.rng->uniform(0.0, total_weight);
    }
    for (const auto& w : *env_.workers) {
      if (!env_.eligible(*task, w.id)) continue;
      pick -= w.profile.peak_gflops;
      if (pick <= 0.0) {
        enqueue_back(w.id, task);
        return w.id;
      }
    }
    // Floating-point tail: put it on the last eligible worker.
    for (auto it = env_.workers->rbegin(); it != env_.workers->rend(); ++it) {
      if (env_.eligible(*task, it->id)) {
        enqueue_back(it->id, task);
        return it->id;
      }
    }
    return kNoWorkerHint;  // unreachable: total_weight > 0 above
  }

  TaskPtr pop(WorkerId worker) override {
    return take_front(worker).value_or(nullptr);
  }

  std::vector<TaskPtr> drain(WorkerId dead_worker) override {
    return take_queue(dead_worker);
  }

  std::size_t queued() const override { return total_queued(); }
  const std::string& name() const override { return name_; }

 private:
  SchedEnv env_;
  std::mutex rng_mutex_;  ///< the Rng is stateful; draws must serialize
  std::string name_ = "random";
};

// ---------------------------------------------------------------------------
// Work stealing: push to the shortest eligible queue; workers pop their own
// back (LIFO) and steal the front of the longest victim queue.
// ---------------------------------------------------------------------------
class WorkStealingScheduler final : public Scheduler,
                                    private PerWorkerQueues {
 public:
  explicit WorkStealingScheduler(SchedEnv env)
      : PerWorkerQueues(env.workers->size()), env_(std::move(env)) {}

  WorkerId push(const TaskPtr& task, DecisionRecord*) override {
    WorkerId target = -1;
    std::size_t best_len = 0;
    for (const auto& w : *env_.workers) {
      if (!env_.eligible(*task, w.id)) continue;
      const std::size_t len = queues_[static_cast<std::size_t>(w.id)]
                                  .approx_size.load(std::memory_order_relaxed);
      if (target < 0 || len < best_len) {
        target = w.id;
        best_len = len;
      }
    }
    check(target >= 0, "task has no eligible worker");
    enqueue_back(target, task);
    return target;
  }

  TaskPtr pop(WorkerId worker) override {
    if (auto own = take_back(worker)) return *own;
    // Steal: scan victims from the longest queue down, taking the oldest
    // task the thief can actually execute. Each size is read once: sizes
    // re-read inside the comparator change under concurrent pushes and
    // pops, which breaks std::sort's ordering contract (out-of-range reads).
    std::vector<std::pair<std::size_t, std::size_t>> victims;  // (size, queue)
    for (std::size_t v = 0; v < queues_.size(); ++v) {
      const std::size_t size =
          queues_[v].approx_size.load(std::memory_order_relaxed);
      if (static_cast<WorkerId>(v) != worker && size > 0) {
        victims.emplace_back(size, v);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [size, v] : victims) {
      auto& q = queues_[v];
      std::lock_guard<std::mutex> lock(q.mutex);
      for (auto it = q.items.begin(); it != q.items.end(); ++it) {
        if (env_.eligible(**it, worker)) {
          TaskPtr task = *it;
          q.items.erase(it);
          q.approx_size.store(q.items.size(), std::memory_order_relaxed);
          return task;
        }
      }
    }
    return nullptr;
  }

  bool work_stealing() const override { return true; }

  std::vector<TaskPtr> drain(WorkerId dead_worker) override {
    return take_queue(dead_worker);
  }

  std::size_t queued() const override { return total_queued(); }
  const std::string& name() const override { return name_; }

 private:
  SchedEnv env_;
  std::string name_ = "ws";
};

// ---------------------------------------------------------------------------
// Shared core of the model-based policies (dmda and lookahead): per-worker
// priority queues with pending-work accounting, the calibration/exploration
// rule, and the plan both policies place on — seeded from the live engine,
// each worker's clock its ready time plus its queued work. Dmda places one
// task on it (Plan::place); lookahead places a window (Plan::place_window),
// whose window of one is the same Plan::place.
// ---------------------------------------------------------------------------
class ModelSchedulerBase : public Scheduler {
 public:
  TaskPtr pop(WorkerId worker) override { return pop_entry(worker); }

  std::vector<TaskPtr> drain(WorkerId dead_worker) override {
    return drain_queue(dead_worker);
  }

  std::size_t queued() const override {
    std::size_t n = 0;
    for (const auto& q : queues_) {
      n += q.approx_size.load(std::memory_order_relaxed);
    }
    return n;
  }

 protected:
  explicit ModelSchedulerBase(SchedEnv env)
      : env_(std::move(env)),
        queues_(env_.workers->size()),
        pending_work_(env_.workers->size()) {}

  struct Entry {
    TaskPtr task;
    double work = 0.0;
  };

  struct EntryQueue {
    mutable std::mutex mutex;
    std::deque<Entry> items;
    std::atomic<std::size_t> approx_size{0};
  };

  using Seen = std::vector<std::pair<const DataHandle*, int>>;

  /// One placement's working set. dmda reuses one per thread, so a
  /// steady-state placement allocates nothing (a fresh one per push cost
  /// perfbench ode_chain 6 % of its solve time on a 4-vCPU Xeon).
  struct Scratch {
    Plan plan;
    Plan::Task task;
    Seen seen;
  };

  /// Seeds `plan` from the live engine: each worker free at its ready time
  /// plus its queued (uncommitted) work. Seeding couples nothing.
  void seed(Plan& plan) const {
    plan.reset(*env_.workers, env_.interconnect, env_.objective);
    for (const WorkerDesc& w : *env_.workers) {
      plan.seed(w.id, env_.worker_ready_at(w.id),
                pending_work_[static_cast<std::size_t>(w.id)].load(
                    std::memory_order_relaxed));
    }
  }

  /// `task` as `plan` prices it, into `out`: per-worker execution
  /// estimates, its predecessors' end, and its operands over the plan's
  /// data — one datum per distinct handle, seeded from the handle's live
  /// state (`seen` maps the handles already added). A read operand's reuse
  /// is the reads its handle has seen.
  void plan_task(const Task& task, Plan& plan, Seen& seen,
                 Plan::Task& out) const {
    out.deps = task.max_pred_end;
    out.exec.clear();
    out.operands.clear();
    for (const WorkerDesc& w : *env_.workers) {
      out.exec.push_back(env_.exec(task, w.id));
    }
    for (std::size_t i = 0; i < task.spec.operands.size(); ++i) {
      const TaskOperand& op = task.spec.operands[i];
      const DataHandle* handle = op.handle.get();
      auto found = std::find_if(seen.begin(), seen.end(), [&](const auto& s) {
        return s.first == handle;
      });
      if (found == seen.end()) {
        seen.emplace_back(handle, plan.add_data(*handle));
        found = std::prev(seen.end());
      }
      out.operands.push_back(
          {found->second, op.mode, task.operand_bytes[i],
           op.mode == AccessMode::kRead ? static_cast<double>(handle->reads())
                                        : 1.0});
    }
  }

  /// This thread's scratch, holding `task` on a freshly seeded plan.
  Scratch& placement(const Task& task) const {
    thread_local Scratch scratch;
    seed(scratch.plan);
    scratch.seen.clear();
    plan_task(task, scratch.plan, scratch.seen, scratch.task);
    return scratch;
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

  /// Calibration phase: while any eligible variant has fewer than
  /// calibration_min recorded samples for this footprint, force it to run
  /// so the history model learns about it (StarPU does the same). Returns
  /// the worker, or -1 when every variant is calibrated.
  WorkerId explore(const TaskPtr& task, DecisionRecord* decision) {
    const WorkerId target = exploration_target(*task);
    if (target < 0) return -1;
    if (decision != nullptr) decision->explored = true;
    const Scratch& scratch = placement(*task);
    enqueue_with_work(target, task,
                      scratch.plan.price(scratch.task, target).work);
    return target;
  }

  /// The dmda placement: calibration exploration first, then the plan's
  /// best placement. Two concurrent pushes may both pick the same best
  /// worker — a benign near-tie; the pending-work term self-corrects. The
  /// estimate charges this task's own fetch in full: the engine marks the
  /// operands as prefetch-in-flight only after this push returns, so the
  /// discount applies to *later* tasks reusing the same operands.
  WorkerId dmda_push(const TaskPtr& task, DecisionRecord* decision) {
    if (const WorkerId target = explore(task, decision); target >= 0) {
      return target;
    }
    const Scratch& scratch = placement(*task);
    const Plan::Choice best = scratch.plan.place(scratch.task);
    check(best.eligible(), "task has no eligible worker");
    if (decision != nullptr) {
      decision->arch_estimate.fill(kInf);
      for (const WorkerDesc& w : *env_.workers) {
        double& slot =
            decision->arch_estimate[static_cast<std::size_t>(w.archs.front())];
        slot = std::min(slot, scratch.plan.price(scratch.task, w.id).score);
      }
      decision->chosen_estimate = best.score;
    }
    enqueue_with_work(best.worker, task, best.work);
    return best.worker;
  }

  /// Priority-ordered insert with an explicit pending-work charge (dmda
  /// charges its choice's work, a window each commit's work; replay
  /// charges zero — no model evaluation on that path).
  void enqueue_with_work(WorkerId worker, const TaskPtr& task, double work) {
    if (!std::isfinite(work)) work = 0.0;
    auto& q = queues_[static_cast<std::size_t>(worker)];
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      // Priority-ordered insertion (stable: FIFO among equal priorities).
      auto it = q.items.end();
      while (it != q.items.begin() &&
             std::prev(it)->task->spec.priority < task->spec.priority) {
        --it;
      }
      q.items.insert(it, Entry{task, work});
      q.approx_size.store(q.items.size(), std::memory_order_relaxed);
    }
    // Replay charges zero work: skip the CAS loop on that hot path.
    if (work != 0.0) {
      atomic_add(pending_work_[static_cast<std::size_t>(worker)], work);
    }
  }

  TaskPtr pop_entry(WorkerId worker) {
    auto& q = queues_[static_cast<std::size_t>(worker)];
    Entry entry;
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      if (q.items.empty()) return nullptr;
      entry = std::move(q.items.front());
      q.items.pop_front();
      q.approx_size.store(q.items.size(), std::memory_order_relaxed);
    }
    if (entry.work != 0.0) {
      atomic_sub_clamped(pending_work_[static_cast<std::size_t>(worker)],
                         entry.work);
    }
    return entry.task;
  }

  std::vector<TaskPtr> drain_queue(WorkerId dead_worker) {
    auto& q = queues_[static_cast<std::size_t>(dead_worker)];
    std::vector<TaskPtr> out;
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      out.reserve(q.items.size());
      for (auto& entry : q.items) out.push_back(std::move(entry.task));
      q.items.clear();
      q.approx_size.store(0, std::memory_order_relaxed);
    }
    pending_work_[static_cast<std::size_t>(dead_worker)].store(
        0.0, std::memory_order_relaxed);
    return out;
  }

  SchedEnv env_;
  std::vector<EntryQueue> queues_;
  std::vector<std::atomic<double>> pending_work_;
};

// ---------------------------------------------------------------------------
// Dmda: performance-aware, data-aware list scheduling (the TGPA policy).
// ---------------------------------------------------------------------------
class DmdaScheduler final : public ModelSchedulerBase {
 public:
  explicit DmdaScheduler(SchedEnv env) : ModelSchedulerBase(std::move(env)) {}

  WorkerId push(const TaskPtr& task, DecisionRecord* decision) override {
    return dmda_push(task, decision);
  }

  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "dmda";
};

// ---------------------------------------------------------------------------
// Lookahead: windowed joint placement + static-composition replay (Kessler
// & Dastgeer's optimized composition over task-DAG windows).
//
// Ready tasks are staged until window_size of them accumulate (or a worker
// runs dry), then placed *jointly* by Plan::place_window: a greedy start,
// then a branch-and-bound search over the per-task worker assignments that
// minimises the window's makespan, pricing data transfers against the
// replica states the plan itself evolves — so a window of tasks reading the
// same operand pays for one fetch, where dmda's per-task estimate charges
// every task and flees the accelerator. The search is bounded, falling back
// to the greedy plan when the budget runs out. The calibration phase skips
// the window.
//
// With a dispatch table loaded (EngineConfig::dispatch_table), placement is
// replayed per program point with one precomputed-key hash probe: no model
// evaluation, no staging, no search on the hot path.
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
    // Static-composition replay: table placements bypass models entirely.
    if (env_.dispatch != nullptr && task->has_dispatch_keys) {
      if (const WorkerId worker = replay_target(*task); worker >= 0) {
        enqueue_with_work(worker, task, 0.0);
        return worker;
      }
    }
    // Calibration placements are per-variant by construction — batching
    // them would only delay model convergence, so they skip the window.
    if (const WorkerId target = explore(task, decision); target >= 0) {
      return target;
    }
    std::lock_guard<std::mutex> lock(stage_mutex_);
    staging_.push_back(task);
    stage_size_.store(staging_.size(), std::memory_order_relaxed);
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
    // idling until it fills: batching only forms under backlog, so an idle
    // system degenerates toward dmda-like immediacy by design.
    while (true) {
      if (TaskPtr task = pop_entry(worker)) return task;
      std::lock_guard<std::mutex> lock(stage_mutex_);
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
    std::vector<TaskPtr> out = drain_queue(dead_worker);
    std::lock_guard<std::mutex> lock(stage_mutex_);
    out.insert(out.end(), staging_.begin(), staging_.end());
    staging_.clear();
    stage_size_.store(0, std::memory_order_relaxed);
    return out;
  }

  std::size_t queued() const override {
    return ModelSchedulerBase::queued() +
           stage_size_.load(std::memory_order_relaxed);
  }

  const std::string& name() const override { return name_; }

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

  /// Plans (at most) one window out of the staging buffer; stage_mutex_
  /// must be held. Returns the number of tasks planned and committed.
  /// `trigger`/`decision`/`trigger_worker` report the placement of the
  /// pushing task so push() can return a normal worker hint for it; every
  /// other planned task is announced through env_.commit.
  std::size_t plan_window_locked(const TaskPtr& trigger,
                                 DecisionRecord* decision,
                                 WorkerId* trigger_worker) {
    // Snapshot up to window_size plannable tasks, FIFO. Tasks with no
    // eligible worker right now (mid-blacklist race) stay staged; the
    // engine's drain pass will collect them.
    Plan plan;
    seed(plan);
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
    stage_size_.store(staging_.size(), std::memory_order_relaxed);
    if (window.empty()) return 0;

    const Plan::Window result = plan.place_window(planned, kSearchBudget);

    // Commit the plan: real queue insertions + engine notifications. The
    // pending-work charge is the task's committed work, dmda's charge at
    // window 1, so the next plan sees the committed load.
    for (std::size_t i = 0; i < window.size(); ++i) {
      const WorkerId worker = result.workers[i];
      const Plan::Commit& committed = result.commits[i];
      DecisionRecord record;
      record.chosen_estimate = committed.end;
      record.arch_estimate.fill(kInf);
      record.arch_estimate[static_cast<std::size_t>(
          (*env_.workers)[static_cast<std::size_t>(worker)].archs.front())] =
          committed.end;
      enqueue_with_work(worker, window[i], committed.work);
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

  mutable std::mutex stage_mutex_;
  std::deque<TaskPtr> staging_;
  std::atomic<std::size_t> stage_size_{0};
  std::uint64_t window_counter_ = 0;  ///< guarded by stage_mutex_
  /// Worker ids per architecture (immutable after construction).
  std::array<std::vector<WorkerId>, kArchCount> arch_workers_{};
  std::string name_ = "lookahead";
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& name, SchedEnv env) {
  check(env.workers != nullptr && !env.workers->empty(),
        "scheduler needs a worker table");
  if (name == "eager") return std::make_unique<EagerScheduler>(std::move(env));
  if (name == "random") return std::make_unique<RandomScheduler>(std::move(env));
  if (name == "ws") return std::make_unique<WorkStealingScheduler>(std::move(env));
  if (name == "dmda") return std::make_unique<DmdaScheduler>(std::move(env));
  if (name == "lookahead") {
    return std::make_unique<LookaheadScheduler>(std::move(env));
  }
  throw Error(ErrorCode::kInvalidArgument,
              "unknown scheduler '" + name +
                  "' (valid policies: eager, random, ws, dmda, lookahead)");
}

std::vector<std::string> scheduler_names() {
  return {"eager", "random", "ws", "dmda", "lookahead"};
}

}  // namespace peppher::rt
