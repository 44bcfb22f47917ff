#include "runtime/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace peppher::rt {
namespace {

/// Base seed of the fault injectors' streams, salted per device, per node
/// and for the inter-node link: every run of a fault plan draws the same
/// faults.
constexpr std::uint64_t kFaultSeed = 42;

/// `message` as a stored task error.
std::exception_ptr failure(ErrorCode code, const std::string& message) {
  return std::make_exception_ptr(Error(code, message));
}

/// The cluster the engine actually runs: the configured one, or a
/// synthesized one-node cluster wrapping the configured machine.
sim::ClusterConfig resolve_cluster(const EngineConfig& config) {
  if (!config.cluster.empty()) return config.cluster;
  return sim::ClusterConfig::single(config.machine);
}

int total_cpu_cores(const sim::ClusterConfig& cluster) {
  int total = 0;
  for (const sim::NodeConfig& node : cluster.nodes) {
    check(node.machine.cpu_cores >= 0, "negative CPU core count");
    total += node.machine.cpu_cores;
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// construction / teardown
// ---------------------------------------------------------------------------

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      cluster_(resolve_cluster(config_)),
      cpu_count_(total_cpu_cores(cluster_)),
      data_(MemTopology::of_cluster(cluster_),
            cluster_.nodes.front().machine.link, cluster_.internode) {
  const MemTopology& topo = data_.topo();
  machine_name_ = topo.multi_node() ? cluster_.name
                                    : cluster_.nodes.front().machine.name;
  check(cpu_count_ > 0 || topo.device_count() > 0,
        "machine has no execution units");

  data_.set_engine(this);

  // The cluster's worker table (rt::worker_table, which peppher-predict
  // plans over too), plus per device its memory capacity from its profile
  // (§IV-D eviction) and its fault injector (accelerator_faults is aligned
  // with the global device ordinals).
  descs_ = worker_table(cluster_);
  injectors_.resize(static_cast<std::size_t>(topo.device_count()));
  bool any_faults = false;
  for (const WorkerDesc& desc : descs_) {
    if (topo.is_host(desc.node)) continue;
    data_.set_node_capacity(
        desc.node,
        static_cast<std::size_t>(desc.profile.memory_mb * 1024.0 * 1024.0));
    const auto ordinal = static_cast<std::size_t>(topo.device_ordinal(desc.node));
    if (ordinal < config_.accelerator_faults.size() &&
        config_.accelerator_faults[ordinal].any()) {
      injectors_[ordinal] = std::make_unique<sim::FaultInjector>(
          config_.accelerator_faults[ordinal],
          kFaultSeed ^ (0x9E3779B97F4A7C15ULL * (ordinal + 1)));
      any_faults = true;
    }
  }

  blacklisted_ = std::make_unique<std::atomic<bool>[]>(descs_.size());

  // The recorder: one counter shard per worker. It hooks into the data
  // manager (evictions, overcommits) and the scheduler (committed hops)
  // before any worker exists.
  std::vector<double> worker_watts;
  for (const WorkerDesc& desc : descs_) {
    worker_watts.push_back(desc.profile.busy_watts);
  }
  tracer_.configure(topo, std::move(worker_watts), config_.enable_trace);
  data_.set_recorder(&tracer_);
  interval_start_ = transfers_start_ = tracer_.books();

  // Whole-node death plans and the inter-node link plan.
  node_injectors_.resize(cluster_.nodes.size());
  for (std::size_t k = 0; k < cluster_.nodes.size(); ++k) {
    if (k < config_.node_faults.size() && config_.node_faults[k].any()) {
      node_injectors_[k] = std::make_unique<sim::FaultInjector>(
          config_.node_faults[k],
          kFaultSeed ^ (0xD1B54A32D192ED03ULL * (k + 1)));
      any_faults = true;
    }
  }
  if (config_.internode_fault.any()) {
    internode_injector_ = std::make_unique<sim::FaultInjector>(
        config_.internode_fault, kFaultSeed ^ 0x94D049BB133111EBULL);
    any_faults = true;
  }

  SchedEnv env;
  env.workers = &descs_;
  env.eligible = [this](const Task& t, WorkerId id) { return worker_eligible(t, id); };
  env.exec = [this](const Task& t, WorkerId id) { return exec_estimate(t, id); };
  env.cost = [this](const Task& t, WorkerId id) { return exec_cost(t, id); };
  env.sample_count = [this](const Task& t, WorkerId id) {
    return exploration_sample_count(t, id);
  };
  env.calibration_min = config_.calibration_samples;
  env.objective = config_.objective;
  // Energy is additive, not overlappable: a window has no makespan to plan
  // jointly, so under the energy objective lookahead places like dmda.
  env.window_size = config_.objective == Objective::kEnergy
                        ? 1
                        : std::max(1, config_.window_size);
  env.interconnect = &data_.interconnect();
  env.recorder = &tracer_;
  if (any_faults) {
    env.hop_fails = [this](MemoryNodeId from, MemoryNodeId to, std::size_t) {
      return transfer_fails(from, to);
    };
  }
  env.settle = [this](const TaskPtr& t, bool hop_failed) {
    return settle_attempt(t, hop_failed);
  };
  if (!config_.dispatch_table.empty()) {
    if (config_.scheduler != "lookahead") {
      throw Error(ErrorCode::kInvalidArgument,
                  "dispatch_table needs scheduler 'lookahead': only the "
                  "lookahead scheduler replays a dispatch table, and "
                  "scheduler '" + config_.scheduler + "' would ignore it");
    }
    dispatch_replay_.load(config_.dispatch_table);  // loads + finalizes
    dispatch_replay_active_ = true;
    env.dispatch = &dispatch_replay_;
  }
  scheduler_ = make_scheduler(config_.scheduler, std::move(env));

  if (!config_.sampling_dir.empty()) perf_.load(config_.sampling_dir);

  workers_.reserve(descs_.size());
  for (const auto& desc : descs_) {
    auto worker = std::make_unique<Worker>();
    worker->desc = desc;
    if (desc.is_combined_cpu) {
      worker->team = std::make_unique<ForkJoinTeam>(
          cluster_.nodes[static_cast<std::size_t>(desc.sim_node)]
              .machine.cpu_cores);
    }
    workers_.push_back(std::move(worker));
    executors_.push_back(std::make_unique<Executor>());
  }
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    executors_[i]->thread = std::thread([this, i] { executor_main(i); });
  }

  // Automatic prefetch rides a dedicated background transfer thread. On a
  // cluster the thread also warms remote-host replicas (halo slices travel
  // the inter-node lanes while interior tasks run), so it exists whenever
  // there is any non-primary memory node to warm.
  prefetch_enabled_ = config_.enable_prefetch &&
                      (topo.device_count() > 0 || topo.multi_node());
  if (prefetch_enabled_) {
    prefetch_thread_ = std::thread([this] { prefetch_main(); });
  }
  log::debug("runtime", "engine started: {} workers on '{}', scheduler '{}'",
             descs_.size(), machine_name_, config_.scheduler);
}

Engine::~Engine() {
  try {
    wait_for_all();
  } catch (...) {
    // Destructor must not throw; drain what we can.
  }
  // Stop the prefetch thread before the workers: after wait_for_all no task
  // dispatch can enqueue new requests, and the thread drains its queue on
  // the way out.
  stop_prefetch_thread();
  {
    // A thread not on idle_ sees stopping_ at its next re-check.
    std::lock_guard<std::mutex> lock(idle_mutex_);
    stopping_ = true;
    for (Executor* idle : idle_) idle->slot.unpark();
    idle_.clear();
  }
  for (auto& executor : executors_) executor->thread.join();
  // Containers may outlive the engine: hand their data back to its host
  // memory and cut every handle loose (later use throws, unregistering is
  // a no-op).
  data_.detach_all();
  if (!config_.sampling_dir.empty()) {
    try {
      perf_.save(config_.sampling_dir);
    } catch (const Error& e) {
      log::warn("runtime", "could not persist performance models: {}", e.what());
    }
  }
  if (!config_.dispatch_out.empty()) {
    try {
      dispatch_train_.set_machine(machine_name_);
      dispatch_train_.save(config_.dispatch_out);
    } catch (const Error& e) {
      log::warn("runtime", "could not persist dispatch table: {}", e.what());
    }
  }
}

// ---------------------------------------------------------------------------
// data interface
// ---------------------------------------------------------------------------

DataHandlePtr Engine::register_buffer(void* host_ptr, std::size_t bytes,
                                      std::size_t element_size) {
  return data_.register_buffer(host_ptr, bytes, element_size);
}

void Engine::acquire_host(const DataHandlePtr& handle, AccessMode mode) {
  check(handle != nullptr, "acquire_host: null handle");
  flush();
  std::vector<TaskPtr> pending;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (handle->last_writer != nullptr &&
        handle->last_writer->state != TaskState::kDone) {
      pending.push_back(handle->last_writer);
    }
    if (mode != AccessMode::kRead) {
      for (const auto& reader : handle->readers_since_last_write) {
        if (reader->state != TaskState::kDone) pending.push_back(reader);
      }
    }
  }
  for (const auto& task : pending) wait(task);

  // A write-mode caller will mutate the host memory raw once this returns;
  // a straggling background prefetch still copying from the host replica
  // would race it. Quiesce the prefetch path first (reads are fine: a
  // concurrent prefetch only makes an extra coherent copy).
  if (mode != AccessMode::kRead) drain_prefetches();

  handle->acquire(kHostNode, mode);
  scheduler_->commit_access(*handle, kHostNode, mode);
  if (mode != AccessMode::kRead) {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    handle->last_writer.reset();
    handle->readers_since_last_write.clear();
  }
}

void Engine::unregister(const DataHandlePtr& handle) {
  check(handle != nullptr, "unregister: null handle");
  if (handle->engine() == nullptr) return;  // detached at a shutdown
  // The caller's memory may be freed once this returns, even if the sync
  // below throws (a failed last writer): shutdown must not write it.
  handle->keep_home_at_shutdown(false);
  acquire_host(handle, AccessMode::kReadWrite);
}

bool Engine::prefetch(const DataHandlePtr& handle, MemoryNodeId node) {
  check(handle != nullptr, "prefetch: null handle");
  flush();
  const PrefetchSkipReason skipped = handle->prefetch(node);
  if (skipped == PrefetchSkipReason::kPartitioned ||
      skipped == PrefetchSkipReason::kDetached) {
    return false;
  }
  scheduler_->commit_access(*handle, node, AccessMode::kRead);
  return skipped == PrefetchSkipReason::kNone;
}

void Engine::unpartition(const DataHandlePtr& handle) {
  check(handle != nullptr, "unpartition: null handle");
  flush();
  // Each child flushes home as a readwrite host access would.
  for (const DataHandlePtr& child : handle->unpartition()) {
    scheduler_->commit_access(*child, kHostNode, AccessMode::kReadWrite);
  }
}

// ---------------------------------------------------------------------------
// automatic (scheduler-driven) prefetch
// ---------------------------------------------------------------------------

void Engine::enqueue_prefetches(const Task& task, MemoryNodeId node) {
  if (node == kHostNode) return;  // host replicas are valid by construction
  std::size_t queued = 0;
  {
    std::lock_guard<std::mutex> lock(prefetch_mutex_);
    if (prefetch_stop_.load(std::memory_order_relaxed)) return;
    for (const TaskOperand& op : task.spec.operands) {
      if (op.mode != AccessMode::kRead) continue;
      if (op.handle->replica_state(node) != ReplicaState::kInvalid) continue;
      prefetch_queue_.push_back(PrefetchRequest{op.handle, node, task.sequence});
      tracer_.record_prefetch(PrefetchEvent::kEnqueued,
                              PrefetchSkipReason::kNone, task.sequence,
                              *op.handle, node);
      ++queued;
    }
  }
  if (queued > 0) prefetch_cv_.notify_one();
}

void Engine::prefetch_main() {
  std::unique_lock<std::mutex> lock(prefetch_mutex_);
  while (true) {
    prefetch_cv_.wait(lock, [&] {
      return prefetch_stop_.load(std::memory_order_relaxed) ||
             !prefetch_queue_.empty();
    });
    if (prefetch_queue_.empty()) return;  // stopping, nothing left to clear
    PrefetchRequest request = std::move(prefetch_queue_.front());
    prefetch_queue_.pop_front();
    ++prefetch_busy_;
    lock.unlock();

    // On shutdown the remaining requests are only drained. A writer
    // submitted since the enqueue skips the copy: its own invalidation
    // must not be resurrected by a stale copy.
    const PrefetchSkipReason outcome =
        prefetch_stop_.load(std::memory_order_relaxed)
            ? PrefetchSkipReason::kShutdown
            : request.handle->prefetch(request.node);
    tracer_.record_prefetch(outcome == PrefetchSkipReason::kNone
                                ? PrefetchEvent::kCompleted
                                : PrefetchEvent::kSkipped,
                            outcome, request.task_sequence, *request.handle,
                            request.node);

    lock.lock();
    --prefetch_busy_;
    if (prefetch_queue_.empty() && prefetch_busy_ == 0) {
      prefetch_idle_cv_.notify_all();
    }
  }
}

void Engine::drain_prefetches() {
  if (!prefetch_thread_.joinable()) return;
  std::unique_lock<std::mutex> lock(prefetch_mutex_);
  prefetch_idle_cv_.wait(lock, [&] {
    return prefetch_queue_.empty() && prefetch_busy_ == 0;
  });
}

void Engine::stop_prefetch_thread() {
  if (!prefetch_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(prefetch_mutex_);
    prefetch_stop_.store(true, std::memory_order_relaxed);
  }
  prefetch_cv_.notify_all();
  prefetch_thread_.join();
}

// ---------------------------------------------------------------------------
// submission & dependency inference
// ---------------------------------------------------------------------------

TaskPtr Engine::submit(TaskSpec spec) {
  check(spec.codelet != nullptr, "submit: null codelet");
  if (!spec.codelet->has_enabled_impl()) {
    throw Error(ErrorCode::kInvalidState,
                "codelet '" + spec.codelet->name() +
                    "' has no enabled implementation variant");
  }
  for (const auto& op : spec.operands) {
    check(op.handle != nullptr, "submit: null operand handle");
    if (op.handle->is_partitioned()) {
      throw Error(ErrorCode::kInvalidState,
                  "operand handle is partitioned; use the sub-handles");
    }
    if (op.handle->detached()) {
      throw Error(ErrorCode::kInvalidState, "operand sub-handle was unpartitioned");
    }
  }
  if (config_.hazard_checks) {
    for (std::size_t i = 0; i < spec.operands.size(); ++i) {
      for (std::size_t j = i + 1; j < spec.operands.size(); ++j) {
        const auto& a = spec.operands[i];
        const auto& b = spec.operands[j];
        if (a.handle == b.handle &&
            (a.mode != AccessMode::kRead || b.mode != AccessMode::kRead)) {
          throw Error(ErrorCode::kInvalidState,
                      "hazard check [PL030]: task '" + spec.codelet->name() +
                          "' binds the same data handle to operands " +
                          std::to_string(i) + " and " + std::to_string(j) +
                          " with a write access mode; aliased operands of "
                          "one task are executed without mutual ordering");
        }
      }
    }
  }
  if (spec.name.empty()) spec.name = spec.codelet->name();
  const bool synchronous = spec.synchronous;

  // Hot-path caches: operand sizes, footprint, and the per-architecture
  // variant resolution (first enabled + selectable implementation per
  // arch). Computed once here so every scheduling estimate afterwards is
  // allocation-free and never re-evaluates selectability predicates.
  std::vector<std::size_t> operand_bytes;
  operand_bytes.reserve(spec.operands.size());
  std::size_t total_bytes = 0;
  for (const auto& op : spec.operands) {
    operand_bytes.push_back(op.handle->bytes());
    total_bytes += op.handle->bytes();
  }
  std::array<const Implementation*, kArchCount> impls{};
  for (const Implementation& impl : spec.codelet->impls()) {
    if (!impl.enabled) continue;
    const Implementation*& slot = impls[static_cast<std::size_t>(impl.arch)];
    if (slot != nullptr) continue;
    if (impl.selectable && !impl.selectable(operand_bytes, spec.arg.get())) {
      continue;  // call-context selectability (§II): parameter ranges
    }
    slot = &impl;
  }

  // Someone must be able to run it — checked before the sequence number is
  // allocated so a rejected submission does not consume one.
  bool runnable = false;
  for (const auto& desc : descs_) {
    if (blacklisted_[static_cast<std::size_t>(desc.id)].load(
            std::memory_order_acquire)) {
      continue;
    }
    if (spec.forced_worker.has_value() && *spec.forced_worker != desc.id) {
      continue;
    }
    for (Arch arch : desc.archs) {
      if (spec.forced_arch.has_value() && *spec.forced_arch != arch) continue;
      if (impls[static_cast<std::size_t>(arch)] != nullptr) {
        runnable = true;
        break;
      }
    }
    if (runnable) break;
  }
  if (!runnable) {
    throw Error(ErrorCode::kUnsupported,
                "no worker on machine '" + machine_name_ +
                    "' can execute codelet '" + spec.codelet->name() + "'");
  }

  TaskPtr task = std::make_shared<Task>(
      std::move(spec), next_sequence_.fetch_add(1, std::memory_order_relaxed));
  task->retries_left = task->spec.max_retries >= 0 ? task->spec.max_retries
                                                   : config_.max_retries;
  task->operand_bytes = std::move(operand_bytes);
  task->footprint = footprint_of(task->operand_bytes);
  task->total_bytes = total_bytes;
  task->impl_for_arch = impls;
  if (dispatch_replay_active_) {
    // Precompute the replay probe keys (most to least specific) here, off
    // the scheduler's hot path; the lookup itself then does no hashing.
    const std::uint64_t prefix =
        DispatchTable::key_prefix(task->spec.codelet->name());
    const int point = task->spec.verify_point;
    task->dispatch_keys = {
        DispatchTable::key_from_prefix(prefix, task->footprint, point),
        DispatchTable::key_from_prefix(prefix, task->footprint, -1),
        DispatchTable::key_from_prefix(prefix, 0, point),
        DispatchTable::key_from_prefix(prefix, 0, -1)};
    task->has_dispatch_keys = true;
    // Resolve the placement here too: the submitting thread pays for the
    // table probes, the worker-side push only maps arch -> worker.
    for (const std::uint64_t key : task->dispatch_keys) {
      if (const auto arch = dispatch_replay_.lookup(key)) {
        task->replay_arch = static_cast<int>(*arch);
        break;
      }
    }
  }

  std::vector<TaskPtr> completed;
  std::vector<TaskPtr> ready;
  inflight_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);

    // A predecessor staged in a lookahead window commits first: the task's
    // start needs its end.
    const auto staged = [](const TaskPtr& t) {
      return t != nullptr && !t->committed;
    };
    bool staged_predecessor = false;
    for (const auto& op : task->spec.operands) {
      staged_predecessor |= staged(op.handle->last_writer);
      if (op.mode == AccessMode::kRead) continue;
      for (const auto& reader : op.handle->readers_since_last_write) {
        staged_predecessor |= staged(reader);
      }
    }
    std::vector<TaskPtr> committed;
    if (staged_predecessor) {
      scheduler_->flush(committed);
      note_committed_locked(committed, completed, ready);
    }

    // Implicit dependencies: sequential consistency per handle. Duplicate
    // edges (the same predecessor through several operands) are detected
    // via the predecessor's linking_successor marker — no per-submit set.
    auto add_dependency = [&](const TaskPtr& pred) {
      if (pred == nullptr || pred.get() == task.get()) return;
      if (pred->linking_successor == task->sequence) return;
      pred->linking_successor = task->sequence;
      task->max_pred_end = std::max(task->max_pred_end, pred->vend);
      if (pred->state == TaskState::kDone) {
        if (pred->failed() && !task->failed()) {
          // Depending on data whose producer already failed cancels this
          // task too (same rule as live failure propagation).
          task->error = failure(ErrorCode::kInvalidState,
                                "predecessor task '" + pred->spec.name +
                                    "' failed");
        }
      } else {
        pred->successors.push_back(task);
        ++task->unmet_dependencies;
      }
    };
    for (const auto& op : task->spec.operands) {
      if (op.mode == AccessMode::kRead) {
        add_dependency(op.handle->last_writer);
        op.handle->readers_since_last_write.push_back(task);
      } else {
        add_dependency(op.handle->last_writer);
        for (const auto& reader : op.handle->readers_since_last_write) {
          add_dependency(reader);
        }
        op.handle->readers_since_last_write.clear();
        op.handle->last_writer = task;
        op.handle->note_writer_submitted();  // until complete_locked
      }
    }

    // A cancelled task keeps its commit too: the timeline never depends on
    // when a failure was observed. A synchronous task commits now: its
    // wait would flush the window first anyway.
    scheduler_->submit(task, committed);
    if (synchronous) scheduler_->flush(committed);
    note_committed_locked(committed, completed, ready);
  }

  // A synchronous task whose dependencies are met runs here when its
  // worker is idle: no task running, none queued.
  const auto here = synchronous ? std::find(ready.begin(), ready.end(), task)
                                : ready.end();
  const bool ready_here = here != ready.end();
  if (ready_here) ready.erase(here);
  hand_off(ready, nullptr, /*take_next=*/false);
  finish_completed(completed);
  if (ready_here) {
    Worker& worker = *workers_[static_cast<std::size_t>(task->executed_on)];
    bool idle = false;
    {
      std::lock_guard<std::mutex> lock(worker.queue_mutex);
      idle = !worker.running && worker.queue.empty();
      if (idle) worker.running = true;
    }
    if (idle) {
      if (prefetch_enabled_) enqueue_prefetches(*task, worker.desc.node);
      Scratch scratch;
      run(task, scratch, /*take_next=*/false);
    } else {
      ready.assign(1, task);
      hand_off(ready, nullptr, /*take_next=*/false);
    }
  }

  if (synchronous) wait(task);
  return task;
}

void Engine::note_committed_locked(std::vector<TaskPtr>& committed,
                                   std::vector<TaskPtr>& completed,
                                   std::vector<TaskPtr>& ready) {
  for (const TaskPtr& task : committed) {
    task->committed = true;
    if (task->unmet_dependencies == 0) release_locked(task, completed, ready);
  }
  committed.clear();
}

void Engine::flush() {
  if (!scheduler_->windowed()) return;
  std::vector<TaskPtr> committed;
  std::vector<TaskPtr> completed;
  std::vector<TaskPtr> ready;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    scheduler_->flush(committed);
    note_committed_locked(committed, completed, ready);
  }
  hand_off(ready, nullptr, /*take_next=*/false);
  finish_completed(completed);
}

void Engine::release_locked(const TaskPtr& task,
                            std::vector<TaskPtr>& completed,
                            std::vector<TaskPtr>& ready) {
  if (task->failed()) {
    complete_locked(task, completed, ready);
  } else {
    ready.push_back(task);
  }
}

// ---------------------------------------------------------------------------
// waiting
//
// Waiters never touch graph_mutex_: they register in waiters_ (seq_cst),
// then sleep on done_cv_ re-checking an atomic predicate (task state /
// inflight count). Completers store the predicate's state (seq_cst), then
// read waiters_; the seq_cst total order guarantees either the completer
// sees the registration (and notifies under done_mutex_, which cannot race
// past a waiter that is between predicate check and sleep) or the waiter's
// predicate load sees the store and never blocks.
// ---------------------------------------------------------------------------

void Engine::wait(const TaskPtr& task) {
  check(task != nullptr, "wait: null task");
  if (task->state.load(std::memory_order_seq_cst) != TaskState::kDone) {
    flush();
    task_waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      done_cv_.wait(lock, [&] {
        return task->state.load(std::memory_order_seq_cst) == TaskState::kDone;
      });
    }
    task_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (task->error != nullptr) {
    std::rethrow_exception(task->error);
  }
}

void Engine::wait_for_all() {
  if (inflight_.load(std::memory_order_seq_cst) == 0) return;
  flush();
  all_waiters_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [&] {
      return inflight_.load(std::memory_order_seq_cst) == 0;
    });
  }
  all_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

void Engine::notify_task_done() {
  if (task_waiters_.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard<std::mutex> lock(done_mutex_); }
  done_cv_.notify_all();
}

void Engine::notify_idle() {
  // Only the completer whose decrement took inflight_ to zero notifies; any
  // earlier completer that observes inflight_ > 0 here knows a later one
  // exists, and seq_cst ordering guarantees that later completer sees every
  // all_waiters_ registration this one might have missed.
  if (all_waiters_.load(std::memory_order_seq_cst) == 0) return;
  if (inflight_.load(std::memory_order_seq_cst) != 0) return;
  { std::lock_guard<std::mutex> lock(done_mutex_); }
  done_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// executor threads & execution
//
// A worker is a queue and a claim, not a thread: any thread runs a worker's
// task once it claims the worker (under its queue lock), so each worker
// runs one task at a time, and a thread runs as one worker at a time.
// ---------------------------------------------------------------------------

namespace {

/// Pops the worker's next task; its queue lock is held and the queue is not
/// empty.
template <typename Worker>
TaskPtr pop_locked(Worker& worker) {
  TaskPtr task = std::move(worker.queue.front());
  worker.queue.pop_front();
  return task;
}

}  // namespace

void Engine::executor_main(std::size_t index) {
  tracer_.bind_shard(index);
  Executor& self = *executors_[index];
  Worker* kept = nullptr;  // still claimed, its queue empty when last seen
  while (true) {
    TaskPtr task;
    {
      // Re-check, announce, park: the scan and the announce (joining idle_)
      // share idle_mutex_, which a thread leaving work behind takes after
      // queueing it — so either this scan sees the work or that thread sees
      // this one on idle_ and wakes it (a token unpark() leaves before
      // park() is kept). The kept worker is released only here, so work
      // queued on it since needed no wake.
      std::lock_guard<std::mutex> lock(idle_mutex_);
      if (kept != nullptr) {
        std::lock_guard<std::mutex> queue_lock(kept->queue_mutex);
        if (kept->queue.empty()) {
          kept->running = false;
        } else {
          task = pop_locked(*kept);
        }
      }
      if (task == nullptr) task = claim_any();
      if (task == nullptr) {
        if (stopping_) return;
        idle_.push_back(&self);
      }
    }
    if (task == nullptr) {
      self.slot.park();
      // The waker claimed a worker with a queued task for this thread
      // (none when the engine stops).
      kept = std::exchange(self.handed, nullptr);
      if (kept == nullptr) continue;
      std::lock_guard<std::mutex> queue_lock(kept->queue_mutex);
      task = pop_locked(*kept);
    }
    while (task != nullptr) {
      kept = workers_[static_cast<std::size_t>(task->executed_on)].get();
      task = run(task, self.scratch, /*take_next=*/true);
    }
  }
}

TaskPtr Engine::claim_any() {
  for (const std::unique_ptr<Worker>& entry : workers_) {
    Worker& worker = *entry;
    std::lock_guard<std::mutex> lock(worker.queue_mutex);
    if (worker.running || worker.queue.empty()) continue;
    worker.running = true;
    return pop_locked(worker);
  }
  return nullptr;
}

TaskPtr Engine::hand_off(std::vector<TaskPtr>& ready, Worker* own,
                         bool take_next) {
  TaskPtr next;
  for (const TaskPtr& task : ready) {
    Worker& worker = *workers_[static_cast<std::size_t>(task->executed_on)];
    task->state.store(TaskState::kReady, std::memory_order_relaxed);
    // Warm the read operands' bytes on the worker's node while the task
    // waits in its queue; once queued, the task may run and change at once.
    if (prefetch_enabled_) enqueue_prefetches(*task, worker.desc.node);
    bool left_behind = false;
    {
      std::lock_guard<std::mutex> lock(worker.queue_mutex);
      // Behind every queued task of at least its priority (FIFO among
      // equal priorities).
      auto it = worker.queue.end();
      while (it != worker.queue.begin() &&
             (*std::prev(it))->spec.priority < task->spec.priority) {
        --it;
      }
      worker.queue.insert(it, task);
      if (!worker.running && take_next && next == nullptr) {
        worker.running = true;
        next = pop_locked(worker);
      } else {
        // A running worker's thread (maybe the caller) goes on to it.
        left_behind = !worker.running;
      }
    }
    if (left_behind) wake(worker);
  }
  if (own != nullptr) {
    bool left_behind = false;
    {
      std::lock_guard<std::mutex> lock(own->queue_mutex);
      if (take_next && next == nullptr) {
        // The claim carries over, to own's next task or, with none queued,
        // to the caller's re-check (executor_main).
        if (!own->queue.empty()) next = pop_locked(*own);
      } else {
        own->running = false;
        left_behind = !own->queue.empty();
      }
    }
    if (left_behind) wake(*own);
  }
  return next;
}

void Engine::wake(Worker& worker) {
  Executor* idle = nullptr;
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    if (idle_.empty()) return;  // every thread is awake and re-checks
    std::lock_guard<std::mutex> queue_lock(worker.queue_mutex);
    if (worker.running || worker.queue.empty()) return;  // claimed meanwhile
    worker.running = true;
    idle = idle_.back();
    idle_.pop_back();
    idle->handed = &worker;
  }
  idle->slot.unpark();
}

void Engine::finish_completed(std::vector<TaskPtr>& completed) {
  notify_task_done();  // wake wait(task) callers promptly, before callbacks
  for (const TaskPtr& done : completed) {
    if (done->spec.on_complete) done->spec.on_complete(*done);
  }
  if (!completed.empty()) {
    // inflight_ is decremented only after the completion callbacks ran, so
    // wait_for_all() implies all callbacks finished.
    inflight_.fetch_sub(completed.size(), std::memory_order_seq_cst);
    notify_idle();
  }
}

TaskPtr Engine::run(const TaskPtr& task, Scratch& scratch, bool take_next) {
  Worker& worker = *workers_[static_cast<std::size_t>(task->executed_on)];
  task->state.store(TaskState::kRunning, std::memory_order_relaxed);
  const Implementation* impl = select_impl(*task, worker.desc);
  check(impl != nullptr, "scheduler routed a task to an incapable worker");

  // Make every operand coherent on this worker's memory node. A failed
  // acquire fails the attempt, not the thread; only the operands actually
  // acquired are released afterwards. The buffer tables are the thread's
  // scratch, reused across executions.
  const std::size_t n_ops = task->spec.operands.size();

  // Shadow checker: record each operand's concrete coherence state on this
  // node before the task's own acquire mutates it. The lock ordering is
  // safe: shadow_mutex_ is a leaf, taken under no other engine lock.
  if (config_.verify_shadow && n_ops > 0) {
    std::lock_guard<std::mutex> lock(shadow_mutex_);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const TaskOperand& op = task->spec.operands[i];
      ShadowRecord record;
      record.sequence = task->sequence;
      record.task_name = task->spec.name;
      record.verify_point = task->spec.verify_point;
      record.handle = op.handle.get();
      record.operand = i;
      record.node = worker.desc.node;
      record.sim_node = data_.topo().sim_node(worker.desc.node);
      record.mode = op.mode;
      record.state = op.handle->replica_state(worker.desc.node);
      shadow_log_.push_back(std::move(record));
    }
  }

  std::vector<void*>& buffers = scratch.buffers;
  std::vector<std::size_t>& buffer_bytes = scratch.buffer_bytes;
  std::vector<std::size_t>& element_sizes = scratch.element_sizes;
  buffers.assign(n_ops, nullptr);
  buffer_bytes.assign(n_ops, 0);
  element_sizes.assign(n_ops, 0);
  std::size_t acquired = 0;
  try {
    for (std::size_t i = 0; i < n_ops; ++i) {
      const TaskOperand& op = task->spec.operands[i];
      buffers[i] = op.handle->acquire(worker.desc.node, op.mode);
      ++acquired;
      buffer_bytes[i] = op.handle->bytes();
      element_sizes[i] = op.handle->element_size();
    }
  } catch (...) {
    task->error = std::current_exception();
  }

  // Snapshot read-write pre-images while a retry is still possible: the
  // write-mode acquire above invalidated every other replica, so a failed
  // kernel would leave the only "valid" copy holding garbage. (kWrite
  // operands are fully overwritten, kRead ones unmodified — no snapshot.)
  // The snapshot buffers are pooled per thread.
  scratch.preimage_ops.clear();
  std::size_t preimage_count = 0;
  if (!task->failed() && task->retries_left > 0) {
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (task->spec.operands[i].mode != AccessMode::kReadWrite) continue;
      if (preimage_count == scratch.preimage_data.size()) {
        scratch.preimage_data.emplace_back();
      }
      const auto* p = static_cast<const std::byte*>(buffers[i]);
      scratch.preimage_data[preimage_count].assign(p, p + buffer_bytes[i]);
      scratch.preimage_ops.push_back(i);
      ++preimage_count;
    }
  }

  // Really run the kernel (numerics); its virtual time is the commit's.
  if (!task->failed()) {
    ExecContext ctx(impl->arch, worker.desc.id, worker.team.get(), buffers,
                    buffer_bytes, element_sizes, task->spec.arg.get());
    try {
      impl->fn(ctx);
    } catch (...) {
      // A failing variant must not take the thread down: the task
      // completes as failed (or is retried), waiters observe the outcome.
      task->error = std::current_exception();
    }
  }

  // -- completion ------------------------------------------------------------
  //
  // The task is owned by this thread until it commits a retry or its kDone
  // state is published, so its fields are written plainly. Its vstart,
  // vend and exec_seconds are the attempt's commit; the counters sit in
  // the recorder; only the commit of a retry and the dependency-graph
  // release take graph_mutex_.
  const int attempt_index = task->attempts;

  // A real exception: exclude the failing architecture, then retry if an
  // eligible variant remains and the retry budget allows.
  bool retrying = false;
  if (task->failed()) {
    if (!task->first_failed_arch) task->first_failed_arch = impl->arch;
    task->excluded_archs |= arch_bit(impl->arch);
    ++task->attempts;
    if (task->retries_left > 0 && has_eligible_worker(*task)) {
      --task->retries_left;
      retrying = true;
    }
  }
  tracer_.record_task(task, impl, attempt_index, task->failed(),
                      /*injected_fault=*/false, retrying);

  // Restore read-write pre-images before unpinning so the retry attempt
  // reads the data the failed attempt saw.
  if (retrying) {
    for (std::size_t s = 0; s < preimage_count; ++s) {
      const std::vector<std::byte>& snap = scratch.preimage_data[s];
      std::memcpy(buffers[scratch.preimage_ops[s]], snap.data(), snap.size());
    }
  }

  // Unpin: the replicas stay resident (§IV-H) but become evictable.
  for (std::size_t i = 0; i < acquired; ++i) {
    task->spec.operands[i].handle->release(worker.desc.node);
  }

  if (!task->failed() && !config_.dispatch_out.empty()) {
    // Static-composition training: the placement that actually ran is the
    // per-program-point winner this run votes for (majority on finalize).
    dispatch_train_.train(task->spec.codelet->name(), task->footprint,
                          task->spec.verify_point, impl->arch);
  }

  std::vector<TaskPtr>& completed = scratch.completed;
  std::vector<TaskPtr>& ready = scratch.ready;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (retrying) {
      // The one decision made in execution order: the retry of a real
      // failure is placed and committed now.
      task->error = nullptr;
      scheduler_->retry(task);
      release_locked(task, completed, ready);
    } else {
      complete_locked(task, completed, ready);
    }
  }
  TaskPtr next = hand_off(ready, &worker, take_next);
  finish_completed(completed);
  completed.clear();
  ready.clear();
  return next;
}

void Engine::complete_locked(const TaskPtr& task,
                             std::vector<TaskPtr>& completed,
                             std::vector<TaskPtr>& ready) {
  // Caller holds graph_mutex_. The kDone store (seq_cst) publishes the
  // task's result fields to lock-free waiters; completion callbacks of
  // everything appended to `completed` and the dispatch of everything in
  // `ready` are the caller's job (outside the lock).
  // Scratch for the transitive-cancellation walk; complete_locked never
  // nests (it runs under graph_mutex_), so one slot per thread suffices.
  thread_local std::vector<TaskPtr> finishing;
  finishing.clear();
  finishing.push_back(task);
  while (!finishing.empty()) {
    TaskPtr current = std::move(finishing.back());
    finishing.pop_back();
    current->state.store(TaskState::kDone, std::memory_order_seq_cst);
    completed.push_back(current);
    for (const TaskOperand& op : current->spec.operands) {
      if (op.mode != AccessMode::kRead) op.handle->note_writer_completed();
    }
    if (current->failed()) {
      tracer_.count(Counted::kTaskFailed);
    } else if (current->attempts > 0 && current->first_failed_arch &&
               current->executed_arch != *current->first_failed_arch) {
      tracer_.count(Counted::kFallback);
    }
    for (const auto& successor : current->successors) {
      if (current->failed() && !successor->failed()) {
        successor->error = failure(
            ErrorCode::kInvalidState,
            "predecessor task '" + current->spec.name + "' failed");
      }
      if (--successor->unmet_dependencies == 0 && successor->committed) {
        if (successor->failed()) {
          finishing.push_back(successor);  // cancel: complete without running
        } else {
          ready.push_back(successor);
        }
      }
    }
    current->successors.clear();
  }
}

// ---------------------------------------------------------------------------
// scheduling services
// ---------------------------------------------------------------------------

const Implementation* Engine::select_impl(const Task& task,
                                          const WorkerDesc& worker) const {
  for (Arch arch : worker.archs) {
    if (task.spec.forced_arch.has_value() && *task.spec.forced_arch != arch) {
      continue;
    }
    // Architectures whose variant already failed this task are never
    // retried (the retry policy walks down the remaining variants).
    if (task.excluded_archs & arch_bit(arch)) continue;
    if (const Implementation* impl =
            task.impl_for_arch[static_cast<std::size_t>(arch)]) {
      return impl;
    }
  }
  return nullptr;
}

bool Engine::worker_eligible(const Task& task, WorkerId id) const {
  if (blacklisted_[static_cast<std::size_t>(id)].load(
          std::memory_order_acquire)) {
    return false;
  }
  if (task.spec.forced_worker.has_value() && *task.spec.forced_worker != id) {
    return false;
  }
  return select_impl(task, descs_[static_cast<std::size_t>(id)]) != nullptr;
}

bool Engine::has_eligible_worker(const Task& task) const {
  for (const auto& desc : descs_) {
    if (worker_eligible(task, desc.id)) return true;
  }
  return false;
}

sim::FaultInjector* Engine::injector_for_node(MemoryNodeId node) const {
  if (node <= kHostNode || data_.topo().is_host(node)) return nullptr;
  const auto idx =
      static_cast<std::size_t>(data_.topo().device_ordinal(node));
  return idx < injectors_.size() ? injectors_[idx].get() : nullptr;
}

bool Engine::transfer_fails(MemoryNodeId from, MemoryNodeId to) {
  bool fails = internode_injector_ != nullptr &&
               data_.topo().sim_node(from) != data_.topo().sim_node(to) &&
               internode_injector_->next_transfer_fails();
  for (MemoryNodeId node : {from, to}) {
    if (fails) break;
    sim::FaultInjector* injector = injector_for_node(node);
    fails = injector != nullptr && injector->next_transfer_fails();
  }
  if (fails) tracer_.count(Counted::kInjectedTransferFault);
  return fails;
}

bool Engine::settle_attempt(const TaskPtr& task, bool hop_failed) {
  const WorkerDesc& worker = descs_[static_cast<std::size_t>(task->executed_on)];
  const Implementation* impl = select_impl(*task, worker);
  task->executed_arch = impl->arch;
  task->executed_impl = impl->name;

  // The attempt's fate, drawn in commit order: a fetch hop failed, an
  // injected kernel fault, or a device scheduled to die at virtual time T
  // killing the attempt that crosses T (its result would never have made
  // it back).
  sim::FaultInjector* injector = injector_for_node(worker.node);
  std::string failed;
  bool kernel_fault = false;
  if (hop_failed) {
    failed = "injected transfer fault fetching the operands of '" +
             task->spec.name + "' to '" + worker.profile.name + "'";
  } else if (injector != nullptr && injector->next_kernel_fails()) {
    kernel_fault = true;
    failed = "injected transient kernel fault on '" + worker.profile.name + "'";
  } else if (injector != nullptr && injector->plan().die_at_vtime > 0.0 &&
             task->vend >= injector->plan().die_at_vtime) {
    failed = "device '" + worker.profile.name + "' died at virtual time " +
             std::to_string(injector->plan().die_at_vtime);
  }

  // Device and node life cycles: successful attempts feed die_after_tasks;
  // a dead worker receives no further commits.
  if (injector != nullptr) {
    if (failed.empty()) injector->record_kernel_success();
    if (injector->death_due(task->vend)) blacklist(worker.id);
  }
  if (sim::FaultInjector* node_injector =
          node_injectors_[static_cast<std::size_t>(worker.sim_node)].get();
      node_injector != nullptr) {
    if (failed.empty()) node_injector->record_kernel_success();
    if (node_injector->death_due(task->vend)) {
      for (const WorkerDesc& w : descs_) {
        if (w.sim_node == worker.sim_node) blacklist(w.id);
      }
    }
  }

  if (failed.empty()) {
    if (config_.use_history_models || !config_.sampling_dir.empty()) {
      // Nothing reads the history when neither history scheduling nor
      // sample persistence is on — skip the registry write.
      perf_.record(task->spec.codelet->name(), impl->arch, task->footprint,
                   task->total_bytes, task->exec_seconds);
    }
    return false;
  }
  if (!task->first_failed_arch) task->first_failed_arch = impl->arch;
  task->excluded_archs |= arch_bit(impl->arch);
  const int attempt = task->attempts++;
  const bool retrying = task->retries_left > 0 && has_eligible_worker(*task);
  if (retrying) {
    --task->retries_left;
  } else if (task->error == nullptr) {
    task->error = failure(ErrorCode::kIoError, failed);
  }
  tracer_.record_task(task, impl, attempt, /*failed=*/true, kernel_fault,
                      retrying);
  return retrying;
}

void Engine::blacklist(WorkerId id) {
  if (blacklisted_[static_cast<std::size_t>(id)].exchange(
          true, std::memory_order_seq_cst)) {
    return;
  }
  tracer_.count(Counted::kWorkerBlacklisted);
  log::warn("runtime", "worker {} ('{}') died; blacklisting it", id,
            descs_[static_cast<std::size_t>(id)].profile.name);
}

double Engine::exec_estimate(const Task& task, WorkerId id) const {
  if (!worker_eligible(task, id)) {
    return std::numeric_limits<double>::infinity();
  }
  if (config_.use_history_models) {
    const Implementation* impl =
        select_impl(task, descs_[static_cast<std::size_t>(id)]);
    if (const std::optional<double> exec = perf_.estimate_exec(
            task.spec.codelet->name(), impl->arch, task.footprint,
            task.total_bytes,
            static_cast<std::uint64_t>(config_.calibration_samples))) {
      return *exec;
    }
  }
  return exec_cost(task, id);
}

double Engine::exec_cost(const Task& task, WorkerId id) const {
  const WorkerDesc& worker = descs_[static_cast<std::size_t>(id)];
  const Implementation* impl = select_impl(task, worker);
  if (impl == nullptr || !impl->cost) return kNeutralExecSeconds;
  return sim::execution_seconds(
      worker.profile, impl->cost(task.operand_bytes, task.spec.arg.get()));
}

std::uint64_t Engine::exploration_sample_count(const Task& task, WorkerId id) const {
  constexpr std::uint64_t kNoExploration = std::numeric_limits<std::uint64_t>::max();
  if (!config_.use_history_models) return kNoExploration;
  if (!worker_eligible(task, id)) return kNoExploration;
  const WorkerDesc& worker = descs_[static_cast<std::size_t>(id)];
  const Implementation* impl = select_impl(task, worker);
  const std::string& codelet = task.spec.codelet->name();
  // A variant with a usable regression fit does not need per-size
  // recalibration.
  if (perf_.regression_estimate(codelet, impl->arch, task.total_bytes)) {
    const std::uint64_t exact =
        perf_.sample_count(codelet, impl->arch, task.footprint);
    if (exact == 0) return kNoExploration;
  }
  return perf_.sample_count(codelet, impl->arch, task.footprint);
}

// ---------------------------------------------------------------------------
// introspection & time control
// ---------------------------------------------------------------------------

VirtualTime Engine::virtual_makespan() const {
  // Clocks never move back between resets, so the latest clock is the
  // latest committed completion.
  return scheduler_->makespan();
}

void Engine::reset_virtual_time() {
  // Quiesce first: resetting clocks under running tasks would corrupt the
  // timeline. (Completion bookkeeping may lag wait() by a callback, so
  // draining here instead of throwing keeps the API race-free.)
  wait_for_all();
  std::lock_guard<std::mutex> lock(graph_mutex_);
  scheduler_->reset_virtual_time();
  std::lock_guard<std::mutex> baseline_lock(baseline_mutex_);
  interval_start_ = tracer_.books();
  interval_first_task_ = next_sequence_.load(std::memory_order_relaxed);
}

TransferStats Engine::transfer_stats() const {
  std::lock_guard<std::mutex> lock(baseline_mutex_);
  return tracer_.books().since(transfers_start_).transfers();
}

void Engine::reset_transfer_stats() {
  std::lock_guard<std::mutex> lock(baseline_mutex_);
  transfers_start_ = tracer_.books();
}

bool Engine::worker_blacklisted(WorkerId id) const {
  check(id >= 0 && id < static_cast<WorkerId>(workers_.size()),
        "worker_blacklisted: bad worker id");
  return blacklisted_[static_cast<std::size_t>(id)].load(
      std::memory_order_acquire);
}

std::vector<ShadowRecord> Engine::shadow_log() const {
  std::lock_guard<std::mutex> lock(shadow_mutex_);
  return shadow_log_;
}

std::string Engine::summary() const {
  // Every figure below is a view of one snapshot of the interval since the
  // last reset_virtual_time().
  Books books;
  std::uint64_t first_task = 0;
  {
    std::lock_guard<std::mutex> lock(baseline_mutex_);
    books = tracer_.books().since(interval_start_);
    first_task = interval_first_task_;
  }
  std::ostringstream out;
  out.precision(6);
  const VirtualTime makespan = virtual_makespan();
  out << "machine '" << machine_name_ << "', scheduler '"
      << config_.scheduler << "', " << tasks_submitted() - first_task
      << " tasks, makespan " << makespan << " s virtual\n";
  for (const auto& worker : workers_) {
    const WorkerStats stats = books.worker(worker->desc.id);
    const double utilisation =
        makespan > 0.0 ? 100.0 * stats.busy_vtime / makespan : 0.0;
    out << "  worker " << worker->desc.id << " (" << worker->desc.profile.name
        << (worker->desc.is_combined_cpu ? ", combined" : "")
        << (worker_blacklisted(worker->desc.id) ? ", dead" : "")
        << "): " << stats.tasks_executed << " tasks, " << stats.busy_vtime
        << " s busy (" << static_cast<int>(utilisation) << "%)";
    if (stats.failed_attempts > 0) {
      out << ", " << stats.failed_attempts << " failed attempts";
    }
    out << "\n";
  }
  out << "  tasks by architecture:";
  const auto counts = books.arch_tasks();
  for (int a = 0; a < kArchCount; ++a) {
    out << " " << to_string(static_cast<Arch>(a)) << "="
        << counts[static_cast<std::size_t>(a)];
  }
  const TransferStats transfers = books.transfers();
  out << "\n  PCIe: " << transfers.host_to_device_count << " h2d ("
      << transfers.host_to_device_bytes << " B), "
      << transfers.device_to_host_count << " d2h ("
      << transfers.device_to_host_bytes << " B)";
  if (data_.topo().multi_node()) {
    out << "\n  inter-node: " << transfers.internode_count << " hops ("
        << transfers.internode_bytes << " B)";
  }
  const PrefetchStats prefetches = books.prefetches();
  out << "\n  prefetch: " << prefetches.enqueued << " enqueued, "
      << prefetches.completed << " completed, " << prefetches.skipped
      << " skipped";
  const FaultStats faults = books.faults();
  out << "\n  faults: " << faults.injected_kernel_faults
      << " injected kernel, " << faults.injected_transfer_faults
      << " injected transfer; " << faults.failed_attempts
      << " failed attempts, " << faults.retries << " retries, "
      << faults.fallbacks << " fallbacks, " << faults.tasks_failed
      << " tasks failed, " << faults.workers_blacklisted
      << " workers blacklisted";
  out << "\n  energy: " << books.energy_joules() << " J (virtual)\n";
  return std::move(out).str();
}

// ---------------------------------------------------------------------------
// machine-readable trace export (the peppher-perf schema, docs/perf.md)
// ---------------------------------------------------------------------------

void Engine::trace_phase(std::string label) {
  tracer_.record_phase(std::move(label), virtual_makespan());
}

namespace {

/// Minimal JSON string sanitiser, matching the Chrome exporter's idiom:
/// names here are identifiers; quotes become apostrophes rather than
/// escapes so both exporters agree.
std::string json_name(const std::string& text) {
  std::string out = strings::replace_all(text, "\\", "/");
  return strings::replace_all(out, "\"", "'");
}

}  // namespace

std::string Engine::trace_json() const {
  // Stable order (sequence / lane order / recording order) so equal runs
  // render byte-identical documents.
  std::vector<TaskRecord> tasks = tracer_.records();
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const TaskRecord& a, const TaskRecord& b) {
                     if (a.sequence != b.sequence) return a.sequence < b.sequence;
                     return a.attempt < b.attempt;
                   });
  std::vector<TransferRecord> moves = tracer_.transfers();
  std::stable_sort(moves.begin(), moves.end(),
                   [](const TransferRecord& a, const TransferRecord& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     return a.lane_sequence < b.lane_sequence;
                   });

  std::ostringstream out;
  out.precision(17);  // round-trippable doubles
  out << "{\n"
      << "  \"schema\": \"peppher-trace\",\n"
      << "  \"version\": 1,\n"
      << "  \"machine\": \"" << json_name(machine_name_) << "\",\n"
      << "  \"scheduler\": \"" << json_name(config_.scheduler) << "\",\n"
      << "  \"makespan\": " << virtual_makespan() << ",\n";

  out << "  \"workers\": [";
  for (std::size_t i = 0; i < descs_.size(); ++i) {
    const WorkerDesc& desc = descs_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << desc.id
        << ", \"name\": \"" << json_name(desc.profile.name) << "\", \"arch\": \""
        << to_string(desc.archs.empty() ? Arch::kCpu : desc.archs.front())
        << "\", \"node\": " << desc.node << ", \"sim_node\": "
        << desc.sim_node << ", \"combined\": "
        << (desc.is_combined_cpu ? "true" : "false") << "}";
  }
  out << "\n  ],\n";

  out << "  \"tasks\": [";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskRecord& r = tasks[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"sequence\": " << r.sequence
        << ", \"name\": \"" << json_name(r.name) << "\", \"impl\": \""
        << json_name(r.impl) << "\", \"arch\": \"" << to_string(r.arch)
        << "\", \"worker\": " << r.worker << ", \"vstart\": " << r.vstart
        << ", \"vend\": " << r.vend << ", \"exec\": " << r.exec_seconds
        << ", \"attempt\": " << r.attempt << ", \"failed\": "
        << (r.failed ? "true" : "false") << ", \"point\": " << r.verify_point
        << ", \"data\": [";
    for (std::size_t d = 0; d < r.data.size(); ++d) {
      out << (d == 0 ? "" : ", ") << r.data[d];
    }
    out << "]}";
  }
  out << "\n  ],\n";

  out << "  \"transfers\": [";
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const TransferRecord& t = moves[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"lane\": " << t.lane
        << ", \"order\": " << t.lane_sequence << ", \"from\": " << t.from
        << ", \"to\": " << t.to << ", \"from_node\": " << t.from_node
        << ", \"to_node\": " << t.to_node << ", \"bytes\": " << t.bytes
        << ", \"vstart\": " << t.vstart << ", \"vend\": " << t.vend
        << ", \"data\": " << t.data << "}";
  }
  out << "\n  ],\n";

  const std::vector<PrefetchRecord> prefetches = tracer_.prefetches();
  out << "  \"prefetches\": [";
  for (std::size_t i = 0; i < prefetches.size(); ++i) {
    const PrefetchRecord& p = prefetches[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"event\": \"" << to_string(p.event)
        << "\", \"reason\": \"" << to_string(p.reason) << "\", \"task\": "
        << p.task_sequence << ", \"node\": " << p.node << ", \"sim_node\": "
        << p.sim_node << ", \"data\": " << p.data << ", \"bytes\": " << p.bytes
        << "}";
  }
  out << "\n  ],\n";

  const std::vector<DecisionRecord> decisions = tracer_.decisions();
  out << "  \"decisions\": [";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const DecisionRecord& d = decisions[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"task\": " << d.task_sequence
        << ", \"worker\": " << d.chosen << ", \"explored\": "
        << (d.explored ? "true" : "false") << ", \"estimate\": "
        << d.chosen_estimate << ", \"arch_estimate\": {";
    bool first_arch = true;
    for (int a = 0; a < kArchCount; ++a) {
      const double estimate = d.arch_estimate[static_cast<std::size_t>(a)];
      if (!std::isfinite(estimate)) continue;  // infinity is not JSON
      out << (first_arch ? "" : ", ") << "\""
          << to_string(static_cast<Arch>(a)) << "\": " << estimate;
      first_arch = false;
    }
    out << "}}";
  }
  out << "\n  ],\n";

  const std::vector<WindowRecord> windows = tracer_.windows();
  out << "  \"windows\": [";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const WindowRecord& w = windows[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << w.id
        << ", \"size\": " << w.size << ", \"estimate\": " << w.estimate
        << ", \"improved\": " << (w.improved ? "true" : "false")
        << ", \"explored\": " << w.explored << ", \"tasks\": [";
    for (std::size_t t = 0; t < w.tasks.size(); ++t) {
      out << (t == 0 ? "" : ", ") << w.tasks[t];
    }
    out << "]}";
  }
  out << "\n  ],\n";

  const std::vector<PhaseRecord> phases = tracer_.phases();
  out << "  \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    {\"label\": \""
        << json_name(phases[i].label) << "\", \"vtime\": " << phases[i].vtime
        << "}";
  }
  out << "\n  ]\n}\n";
  return std::move(out).str();
}

}  // namespace peppher::rt
