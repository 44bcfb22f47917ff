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

  WorkerId push(const TaskPtr& task, SchedDecision*) override {
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

  WorkerId push(const TaskPtr& task, SchedDecision*) override {
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

  WorkerId push(const TaskPtr& task, SchedDecision*) override {
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
    // task the thief can actually execute.
    std::vector<std::size_t> victims;
    for (std::size_t v = 0; v < queues_.size(); ++v) {
      if (static_cast<WorkerId>(v) != worker &&
          queues_[v].approx_size.load(std::memory_order_relaxed) > 0) {
        victims.push_back(v);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [this](std::size_t a, std::size_t b) {
                return queues_[a].approx_size.load(std::memory_order_relaxed) >
                       queues_[b].approx_size.load(std::memory_order_relaxed);
              });
    for (std::size_t v : victims) {
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
// rule and the dmda completion-time choice. Lookahead's window-size-1 path
// goes through the exact same dmda_push, which is what the differential
// test asserts.
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

  /// The full dmda placement: calibration exploration first, then minimum
  /// predicted completion time including per-worker pending work.
  WorkerId dmda_push(const TaskPtr& task, SchedDecision* decision) {
    // Calibration phase: while any eligible variant has fewer than
    // calibration_min recorded samples for this footprint, force it to run
    // so the history model learns about it (StarPU does the same).
    const WorkerId explore = exploration_target(*task);
    if (explore >= 0) {
      if (decision != nullptr) decision->explored = true;
      enqueue_with_work(explore, task, env_.estimate(*task, explore).work());
      return explore;
    }

    // Steady state: minimise predicted completion time, counting both the
    // worker's virtual-clock readiness and the expected duration of tasks
    // already queued on it but not yet started (StarPU dmda's expected-end
    // accounting). Two concurrent pushes may both pick the same best
    // worker — a benign near-tie; the pending-work term self-corrects.
    // The completion estimate here still charges this task's own fetch in
    // full: the engine only marks the operands as prefetch-in-flight after
    // this push returns, so the discount applies to *later* tasks reusing
    // the same operands, never to the task that pays for the transfer.
    WorkerId best = -1;
    double best_completion = kInf;
    double best_work = 0.0;
    if (decision != nullptr) decision->arch_estimate.fill(kInf);
    for (const auto& w : *env_.workers) {
      const Placement placement = env_.estimate(*task, w.id);
      const double completion =
          placement.score() + pending_work_[static_cast<std::size_t>(w.id)]
                                  .load(std::memory_order_relaxed);
      if (decision != nullptr && !w.archs.empty()) {
        double& slot =
            decision->arch_estimate[static_cast<std::size_t>(w.archs.front())];
        slot = std::min(slot, completion);
      }
      if (completion < best_completion) {
        best = w.id;
        best_completion = completion;
        best_work = placement.work();
      }
    }
    check(best >= 0, "task has no eligible worker");
    if (decision != nullptr) decision->chosen_estimate = best_completion;
    enqueue_with_work(best, task, best_work);
    return best;
  }

  /// Priority-ordered insert with an explicit pending-work charge (dmda
  /// charges Placement::work() of the evaluation it placed by; window
  /// commits reuse their already-computed plan cost; replay charges zero —
  /// no model evaluation on that path).
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

  WorkerId push(const TaskPtr& task, SchedDecision* decision) override {
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
// runs dry), then placed *jointly*: a branch-and-bound search over the
// per-task worker assignments minimises the estimated window makespan,
// pricing data transfers against the replica states the plan itself
// evolves — so a window of tasks reading the same operand pays for one
// fetch, where dmda's per-task estimate charges every task and flees the
// accelerator. A greedy pass seeds the incumbent; the search is bounded,
// falling back to the greedy plan when the budget runs out. Window size 1
// (and the calibration phase) short-circuits to the exact dmda placement.
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

  WorkerId push(const TaskPtr& task, SchedDecision* decision) override {
    // Static-composition replay: table placements bypass models entirely.
    if (env_.dispatch != nullptr && task->has_dispatch_keys) {
      if (const WorkerId worker = replay_target(*task); worker >= 0) {
        enqueue_with_work(worker, task, 0.0);
        return worker;
      }
    }
    if (env_.window_size <= 1) return dmda_push(task, decision);
    // Calibration placements are per-variant by construction — batching
    // them would only delay model convergence, so they skip the window.
    if (const WorkerId explore = exploration_target(*task); explore >= 0) {
      if (decision != nullptr) decision->explored = true;
      enqueue_with_work(explore, task, env_.estimate(*task, explore).work());
      return explore;
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

  /// Least-loaded eligible worker of one architecture, by the lock-free
  /// queue-length approximations: the shortest queue is confirmed eligible
  /// once (eligibility checks are the expensive part of this scan); only
  /// when that worker is out (blacklist, excluded arch) is the eligible
  /// rest scanned. Returns -1 when the architecture has no eligible worker.
  /// Is `worker` allowed to run `task`? A bit-test against the engine's
  /// pre-push eligibility snapshot when present; the SchedEnv callback
  /// otherwise (direct unit-test pushes, workers beyond bit 63).
  bool worker_allowed(const Task& task, WorkerId worker) const {
    if (task.ready_eligible_mask != 0 && worker >= 0 && worker < 64) {
      return (task.ready_eligible_mask >> static_cast<unsigned>(worker)) & 1;
    }
    return env_.eligible(task, worker);
  }

  WorkerId least_loaded(const Task& task, Arch arch) const {
    const auto& candidates = arch_workers_[static_cast<std::size_t>(arch)];
    WorkerId best = -1;
    std::size_t best_len = 0;
    for (const WorkerId id : candidates) {
      const std::size_t len =
          queues_[static_cast<std::size_t>(id)].approx_size.load(
              std::memory_order_relaxed);
      if (best < 0 || len < best_len) {
        best = id;
        best_len = len;
      }
    }
    if (best >= 0 && worker_allowed(task, best)) return best;
    WorkerId fallback = -1;
    std::size_t fallback_len = 0;
    for (const WorkerId id : candidates) {
      if (id == best || !worker_allowed(task, id)) continue;
      const std::size_t len =
          queues_[static_cast<std::size_t>(id)].approx_size.load(
              std::memory_order_relaxed);
      if (fallback < 0 || len < fallback_len) {
        fallback = id;
        fallback_len = len;
      }
    }
    return fallback;
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

  /// Everything the planner precomputes per staged task.
  struct PlannedTask {
    TaskPtr task;
    std::vector<double> exec;        ///< per worker, kInf = ineligible
    std::vector<int> operand_index;  ///< into the plan's masks, per operand
  };

  /// Transfer seconds task `t` pays on worker `w` given the plan's current
  /// replica masks: each read operand without a planned replica at the
  /// worker's node is priced along the shared route from its nearest
  /// planned replica (Interconnect::fetch_seconds). The window tracks its
  /// own replicas, so a fetch is charged once in full (no reuse divisor).
  double fetch_seconds(const PlannedTask& t, std::size_t w,
                       const std::vector<std::uint64_t>& masks) const {
    if (env_.interconnect == nullptr) return 0.0;
    const MemoryNodeId node = (*env_.workers)[w].node;
    double seconds = 0.0;
    const Task& task = *t.task;
    for (std::size_t i = 0; i < task.spec.operands.size(); ++i) {
      if (task.spec.operands[i].mode == AccessMode::kWrite) continue;
      const std::uint64_t mask =
          masks[static_cast<std::size_t>(t.operand_index[i])];
      if (planned_valid(mask, node)) continue;
      const MemoryNodeId source = env_.interconnect->topo.nearest_valid(
          node, [mask](MemoryNodeId n) { return planned_valid(mask, n); });
      seconds += env_.interconnect->fetch_seconds(source, node,
                                                  task.operand_bytes[i], 1.0);
    }
    return seconds;
  }

  static bool planned_valid(std::uint64_t mask, MemoryNodeId node) {
    return node < 64 && ((mask >> static_cast<unsigned>(node)) & 1) != 0;
  }

  /// End time of task `t` on worker `w` in the current plan state: the
  /// placement cost's time score over the plan's clocks and masks.
  double end_at(const PlannedTask& t, std::size_t w,
                const std::vector<double>& clocks,
                const std::vector<std::uint64_t>& masks) const {
    return end_time(clocks[w], t.task->max_pred_end,
                    fetch_seconds(t, w, masks), t.exec[w]);
  }

  /// Applies one assignment ending at `end` to the plan state. `undo`
  /// collects the mask values to restore on backtrack.
  void apply(const PlannedTask& t, WorkerId w, double end,
             std::vector<double>& clocks, std::vector<std::uint64_t>& masks,
             std::vector<std::pair<int, std::uint64_t>>* undo) const {
    const std::size_t wi = static_cast<std::size_t>(w);
    const MemoryNodeId node = (*env_.workers)[wi].node;
    const std::uint64_t dest_bit =
        node < 64 ? std::uint64_t{1} << static_cast<unsigned>(node) : 0;
    clocks[wi] = end;
    const Task& task = *t.task;
    for (std::size_t i = 0; i < task.spec.operands.size(); ++i) {
      const int hi = t.operand_index[i];
      std::uint64_t& mask = masks[static_cast<std::size_t>(hi)];
      if (undo != nullptr) undo->emplace_back(hi, mask);
      if (task.spec.operands[i].mode == AccessMode::kRead) {
        mask |= dest_bit;  // fetch left a shared replica
      } else {
        mask = dest_bit;  // write invalidates every other replica
      }
    }
  }

  /// Plans (at most) one window out of the staging buffer; stage_mutex_
  /// must be held. Returns the number of tasks planned and committed.
  /// `trigger`/`decision`/`trigger_worker` report the placement of the
  /// pushing task so push() can return a normal worker hint for it; every
  /// other planned task is announced through env_.commit.
  std::size_t plan_window_locked(const TaskPtr& trigger,
                                 SchedDecision* decision,
                                 WorkerId* trigger_worker) {
    const auto& workers = *env_.workers;
    const std::size_t worker_count = workers.size();

    // Snapshot up to window_size plannable tasks, FIFO. Tasks with no
    // eligible worker right now (mid-blacklist race) stay staged; the
    // engine's drain pass will collect them.
    std::vector<PlannedTask> window;
    std::deque<TaskPtr> unplannable;
    while (!staging_.empty() &&
           window.size() < static_cast<std::size_t>(
                               std::max(1, env_.window_size))) {
      TaskPtr task = std::move(staging_.front());
      staging_.pop_front();
      PlannedTask pt;
      pt.exec.resize(worker_count, kInf);
      bool any = false;
      for (const auto& w : workers) {
        const Placement placement = env_.estimate(*task, w.id);
        if (!placement.eligible()) continue;
        pt.exec[static_cast<std::size_t>(w.id)] =
            std::isfinite(placement.exec) && placement.exec >= 0.0
                ? placement.exec
                : 0.0;
        any = true;
      }
      if (!any) {
        unplannable.push_back(std::move(task));
        continue;
      }
      pt.task = std::move(task);
      window.push_back(std::move(pt));
    }
    for (auto& task : unplannable) staging_.push_back(std::move(task));
    stage_size_.store(staging_.size(), std::memory_order_relaxed);
    if (window.empty()) return 0;

    // Distinct operand handles and their plan-tracked replica masks (bit n:
    // memory node n holds a valid replica), seeded from the live coherence
    // state and evolved as the plan assigns readers and writers.
    std::vector<const DataHandle*> handles;
    std::vector<std::uint64_t> base_masks;
    const int nodes = env_.interconnect != nullptr
                          ? std::min(env_.interconnect->topo.node_count(), 64)
                          : 0;
    for (PlannedTask& pt : window) {
      for (const TaskOperand& operand : pt.task->spec.operands) {
        const DataHandle* handle = operand.handle.get();
        const auto found = std::find(handles.begin(), handles.end(), handle);
        pt.operand_index.push_back(static_cast<int>(found - handles.begin()));
        if (found != handles.end()) continue;
        handles.push_back(handle);
        std::uint64_t mask = 0;
        for (MemoryNodeId n = 0; n < nodes; ++n) {
          if (handle->replica_state(n) != ReplicaState::kInvalid) {
            mask |= std::uint64_t{1} << static_cast<unsigned>(n);
          }
        }
        base_masks.push_back(mask);
      }
    }

    // Base clocks: worker readiness plus already-queued (uncommitted) work.
    std::vector<double> base_clocks(worker_count, 0.0);
    for (std::size_t w = 0; w < worker_count; ++w) {
      base_clocks[w] = env_.worker_ready_at(static_cast<WorkerId>(w)) +
                       pending_work_[w].load(std::memory_order_relaxed);
    }

    // Greedy incumbent: each task to its cheapest end time in plan order.
    const std::size_t count = window.size();
    std::vector<WorkerId> best_assign(count, -1);
    std::vector<double> best_ends(count, 0.0);
    double best_makespan;
    {
      std::vector<double> clocks = base_clocks;
      std::vector<std::uint64_t> masks = base_masks;
      double makespan = 0.0;
      for (std::size_t i = 0; i < count; ++i) {
        WorkerId best = -1;
        double best_end = kInf;
        for (std::size_t w = 0; w < worker_count; ++w) {
          if (!std::isfinite(window[i].exec[w])) continue;
          const double end = end_at(window[i], w, clocks, masks);
          if (end < best_end) {
            best_end = end;
            best = static_cast<WorkerId>(w);
          }
        }
        best_assign[i] = best;
        best_ends[i] = best_end;
        apply(window[i], best, best_end, clocks, masks, nullptr);
        makespan = std::max(makespan, best_end);
      }
      best_makespan = makespan;
    }

    // Branch and bound over assignments in plan order: a partial plan whose
    // makespan already reaches the incumbent cannot improve (end times only
    // grow), so it is cut. Candidate workers are tried cheapest-end first.
    std::uint64_t explored = 0;
    bool improved = false;
    if (count > 1) {
      std::vector<double> clocks = base_clocks;
      std::vector<std::uint64_t> masks = base_masks;
      std::vector<WorkerId> assign(count, -1);
      std::vector<double> ends(count, 0.0);
      search(window, 0, 0.0, clocks, masks, assign, ends, best_assign,
             best_ends, best_makespan, improved, explored);
    }

    // Commit the plan: real queue insertions + engine notifications.
    for (std::size_t i = 0; i < count; ++i) {
      const PlannedTask& pt = window[i];
      const WorkerId worker = best_assign[i];
      SchedDecision planned;
      planned.chosen_estimate = best_ends[i];
      planned.arch_estimate.fill(kInf);
      const auto& archs = workers[static_cast<std::size_t>(worker)].archs;
      if (!archs.empty()) {
        planned.arch_estimate[static_cast<std::size_t>(archs.front())] =
            best_ends[i];
      }
      // Pending-work charge = this task's contribution to the plan, so the
      // next window (and dmda-style fallbacks) see the committed load.
      const double work =
          std::max(0.0, best_ends[i] -
                            std::max(base_clocks[static_cast<std::size_t>(
                                         worker)],
                                     pt.task->max_pred_end));
      enqueue_with_work(worker, pt.task, work);
      if (trigger != nullptr && pt.task == trigger) {
        if (decision != nullptr) *decision = planned;
        if (trigger_worker != nullptr) *trigger_worker = worker;
      } else if (env_.commit) {
        env_.commit(pt.task, worker, planned);
      }
    }

    if (env_.record_window) {
      WindowRecord record;
      record.id = window_counter_++;
      record.size = static_cast<int>(count);
      record.estimate = best_makespan;
      record.improved = improved;
      record.explored = explored;
      record.tasks.reserve(count);
      for (const PlannedTask& pt : window) {
        record.tasks.push_back(pt.task->sequence);
      }
      env_.record_window(record);
    }
    return count;
  }

  /// Depth-first branch and bound (see plan_window_locked).
  void search(const std::vector<PlannedTask>& window, std::size_t depth,
              double makespan, std::vector<double>& clocks,
              std::vector<std::uint64_t>& masks,
              std::vector<WorkerId>& assign, std::vector<double>& ends,
              std::vector<WorkerId>& best_assign,
              std::vector<double>& best_ends, double& best_makespan,
              bool& improved, std::uint64_t& explored) const {
    if (depth == window.size()) {
      if (makespan < best_makespan) {
        best_makespan = makespan;
        best_assign = assign;
        best_ends = ends;
        improved = true;
      }
      return;
    }
    if (explored >= kSearchBudget) return;
    const PlannedTask& pt = window[depth];
    const std::size_t worker_count = clocks.size();
    // Candidates cheapest-end-first so the first descent is near-greedy and
    // tightens the bound early.
    std::vector<std::pair<double, WorkerId>> candidates;
    candidates.reserve(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w) {
      if (!std::isfinite(pt.exec[w])) continue;
      candidates.emplace_back(end_at(pt, w, clocks, masks),
                              static_cast<WorkerId>(w));
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [end, worker] : candidates) {
      if (end >= best_makespan) break;  // sorted: the rest are no better
      ++explored;
      if (explored > kSearchBudget) return;
      const std::size_t wi = static_cast<std::size_t>(worker);
      const double saved_clock = clocks[wi];
      std::vector<std::pair<int, std::uint64_t>> undo;
      apply(pt, worker, end, clocks, masks, &undo);
      assign[depth] = worker;
      ends[depth] = end;
      search(window, depth + 1, std::max(makespan, end), clocks, masks,
             assign, ends, best_assign, best_ends, best_makespan, improved,
             explored);
      clocks[wi] = saved_clock;
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        masks[static_cast<std::size_t>(it->first)] = it->second;
      }
      assign[depth] = -1;
    }
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
