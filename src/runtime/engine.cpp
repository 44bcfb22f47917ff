#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace peppher::rt {
namespace {

/// CAS-max for the atomic virtual clocks (fetch_max exists only for
/// integral atomics).
void atomic_max(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Id of the worker this thread runs, -1 on application threads — lets the
/// dispatch path skip the wakeup when the dispatching worker itself will
/// pick the task up (see Engine::wake_workers).
thread_local WorkerId t_worker_id = -1;

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
            cluster_.nodes.front().machine.link, cluster_.internode),
      rng_(config_.seed) {
  const MemTopology& topo = data_.topo();
  machine_name_ = topo.multi_node() ? cluster_.name
                                    : cluster_.nodes.front().machine.name;
  check(cpu_count_ > 0 || topo.device_count() > 0,
        "machine has no execution units");

  // Shadow coherence checking must be armed before any handle registration.
  if (config_.verify_shadow) data_.enable_shadow_checking();
  data_.set_engine(this);

  // The cluster's worker table (rt::worker_table, which peppher-predict
  // plans over too), plus per worker its runtime state: the node's
  // combined-CPU index, each device's memory capacity from its profile
  // (§IV-D eviction) and its fault injector (accelerator_faults is aligned
  // with the global device ordinals).
  descs_ = worker_table(cluster_);
  for (std::size_t k = 0; k < cluster_.nodes.size(); ++k) {
    node_rt_.push_back(std::make_unique<NodeRuntime>());
  }
  injectors_.resize(static_cast<std::size_t>(topo.device_count()));
  bool any_faults = false;
  for (const WorkerDesc& desc : descs_) {
    if (desc.is_combined_cpu) {
      node_rt_[static_cast<std::size_t>(desc.sim_node)]->combined_index =
          desc.id;
    }
    if (topo.is_host(desc.node)) continue;
    data_.set_node_capacity(
        desc.node,
        static_cast<std::size_t>(desc.profile.memory_mb * 1024.0 * 1024.0));
    const auto ordinal = static_cast<std::size_t>(topo.device_ordinal(desc.node));
    if (ordinal < config_.accelerator_faults.size() &&
        config_.accelerator_faults[ordinal].any()) {
      injectors_[ordinal] = std::make_unique<sim::FaultInjector>(
          config_.accelerator_faults[ordinal],
          config_.seed ^ (0x9E3779B97F4A7C15ULL * (ordinal + 1)));
      any_faults = true;
    }
  }

  blacklisted_ = std::make_unique<std::atomic<bool>[]>(descs_.size());

  // The recorder: one counter shard per worker. It hooks into the data
  // manager before any worker (or transfer) exists.
  std::vector<double> worker_watts;
  for (const WorkerDesc& desc : descs_) {
    worker_watts.push_back(desc.profile.busy_watts);
  }
  tracer_.configure(topo, std::move(worker_watts), config_.enable_trace);
  data_.set_recorder(&tracer_);
  interval_start_ = transfers_start_ = tracer_.books();

  // Whole-node death plans and the inter-node link plan. The transfer hook
  // must be in place before worker threads exist.
  node_injectors_.resize(cluster_.nodes.size());
  for (std::size_t k = 0; k < cluster_.nodes.size(); ++k) {
    if (k < config_.node_faults.size() && config_.node_faults[k].any()) {
      node_injectors_[k] = std::make_unique<sim::FaultInjector>(
          config_.node_faults[k],
          config_.seed ^ (0xD1B54A32D192ED03ULL * (k + 1)));
      any_faults = true;
    }
  }
  if (config_.internode_fault.any()) {
    internode_injector_ = std::make_unique<sim::FaultInjector>(
        config_.internode_fault, config_.seed ^ 0x94D049BB133111EBULL);
    any_faults = true;
  }
  if (any_faults) {
    if (config_.verify_shadow) {
      throw Error(ErrorCode::kUnsupported,
                  "verify_shadow cannot be combined with fault injection: a "
                  "transfer failing mid-route leaves a half-updated "
                  "coherence state the shadow model does not track");
    }
    data_.set_transfer_fault_hook(
        [this](MemoryNodeId from, MemoryNodeId to, std::size_t bytes) {
          on_transfer_attempt(from, to, bytes);
        });
  }

  SchedEnv env;
  env.workers = &descs_;
  env.worker_ready_at = [this](WorkerId id) { return worker_ready_at(id); };
  env.eligible = [this](const Task& t, WorkerId id) { return worker_eligible(t, id); };
  env.exec = [this](const Task& t, WorkerId id) { return exec_estimate(t, id); };
  env.sample_count = [this](const Task& t, WorkerId id) {
    return exploration_sample_count(t, id);
  };
  env.calibration_min = config_.calibration_samples;
  env.rng = &rng_;
  env.objective = config_.objective;
  // Energy is additive, not overlappable: a window has no makespan to plan
  // jointly, so under the energy objective lookahead places like dmda.
  env.window_size = config_.objective == Objective::kEnergy
                        ? 1
                        : std::max(1, config_.window_size);
  env.interconnect = &data_.interconnect();
  env.commit = [this](const TaskPtr& t, WorkerId id,
                      const DecisionRecord& decision) {
    commit_window_task(t, id, decision);
  };
  // Window plans have no counters: without a trace the planner builds none.
  if (tracer_.tracing()) {
    env.record_window = [this](const WindowRecord& record) {
      tracer_.record_window(record);
    };
  }
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
  }
  for (auto& worker : workers_) {
    const WorkerId id = worker->desc.id;
    worker->thread = std::thread([this, id] { worker_main(id); });
  }

  // Automatic prefetch rides a dedicated background transfer thread. Fault
  // plans disable it: a background path would consume the per-device
  // transfer-fault draws in a nondeterministic order, breaking replayable
  // chaos runs. On a cluster the thread also warms remote-host replicas
  // (halo slices travel the inter-node lanes while interior tasks run), so
  // it exists whenever there is any non-primary memory node to warm.
  prefetch_enabled_ = config_.enable_prefetch && !any_faults &&
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
  // dispatch can enqueue new requests, and the thread drains its queue
  // (clearing the pending flags) on the way out.
  stop_prefetch_thread();
  stopping_.store(true, std::memory_order_seq_cst);
  for (auto& worker : workers_) worker->slot.poke();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
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

  VirtualTime ready = 0.0;
  handle->acquire(kHostNode, mode, &ready);
  if (mode != AccessMode::kRead) {
    handle->mark_written(kHostNode, ready);
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
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (handle->last_writer != nullptr &&
        handle->last_writer->state != TaskState::kDone) {
      return false;  // data still being produced; fetching now would race
    }
  }
  if (handle->is_partitioned() || handle->detached()) return false;
  handle->acquire(node, AccessMode::kRead, nullptr);
  handle->release(node);  // a prefetch warms the replica but does not pin it
  return true;
}

// ---------------------------------------------------------------------------
// automatic (scheduler-driven) prefetch
// ---------------------------------------------------------------------------

void Engine::enqueue_prefetches(const Task& task, WorkerId hint) {
  if (hint < 0) return;  // central queue: no committed destination yet
  const MemoryNodeId node = descs_[static_cast<std::size_t>(hint)].node;
  if (node == kHostNode) return;  // host replicas are valid by construction
  std::size_t queued = 0;
  {
    std::lock_guard<std::mutex> lock(prefetch_mutex_);
    if (prefetch_stop_.load(std::memory_order_relaxed)) return;
    for (const TaskOperand& op : task.spec.operands) {
      if (op.mode != AccessMode::kRead) continue;
      if (op.handle->replica_state(node) != ReplicaState::kInvalid) continue;
      // Flag first, then queue: every scheduling estimate issued after this
      // point sees the transfer as already in flight. The push that chose
      // `hint` has already run, so its own estimate charged the fetch.
      op.handle->note_prefetch_queued(node);
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

    // On shutdown the remaining requests are only drained for their flags.
    const PrefetchSkipReason outcome =
        prefetch_stop_.load(std::memory_order_relaxed)
            ? PrefetchSkipReason::kShutdown
            : service_prefetch(request);
    request.handle->note_prefetch_done(request.node);
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

PrefetchSkipReason Engine::service_prefetch(const PrefetchRequest& request) {
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    if (request.handle->last_writer != nullptr &&
        request.handle->last_writer->state != TaskState::kDone) {
      // Raced by a later-submitted writer: the data this prefetch wanted is
      // being (or about to be) overwritten. Leave the replica invalid — the
      // writer's own invalidation must not be resurrected by a stale copy.
      return PrefetchSkipReason::kWriterRace;
    }
  }
  if (request.handle->is_partitioned()) return PrefetchSkipReason::kPartitioned;
  if (request.handle->detached()) return PrefetchSkipReason::kDetached;
  try {
    request.handle->acquire(request.node, AccessMode::kRead, nullptr);
    request.handle->release(request.node);  // warm but unpinned: evictable
  } catch (...) {
    // A failed prefetch is a lost hint, never an error.
    return PrefetchSkipReason::kTransferFailed;
  }
  return PrefetchSkipReason::kNone;
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

  bool dispatch = false;
  std::vector<TaskPtr> cancelled_at_submit;
  std::vector<TaskPtr> ready_at_submit;
  inflight_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);

    // Implicit dependencies: sequential consistency per handle. Duplicate
    // edges (the same predecessor through several operands) are detected
    // via the predecessor's linking_successor marker — no per-submit set.
    auto add_dependency = [&](const TaskPtr& pred) {
      if (pred == nullptr || pred.get() == task.get()) return;
      if (pred->linking_successor == task->sequence) return;
      pred->linking_successor = task->sequence;
      if (pred->state == TaskState::kDone) {
        task->max_pred_end = std::max(task->max_pred_end, pred->vend);
        if (pred->failed() && !task->failed()) {
          // Depending on data whose producer already failed cancels this
          // task too (same rule as live failure propagation).
          try {
            throw Error(ErrorCode::kInvalidState, "predecessor task '" +
                                                      pred->spec.name +
                                                      "' failed");
          } catch (...) {
            task->error = std::current_exception();
          }
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
      }
    }

    if (task->unmet_dependencies == 0) {
      if (task->failed()) {
        complete_locked(task, cancelled_at_submit, ready_at_submit);
      } else {
        dispatch = true;
      }
    }
  }
  if (dispatch) dispatch_ready(task);
  for (const TaskPtr& ready : ready_at_submit) dispatch_ready(ready);
  if (!cancelled_at_submit.empty()) {
    notify_task_done();
    for (const TaskPtr& done : cancelled_at_submit) {
      if (done->spec.on_complete) done->spec.on_complete(*done);
    }
    inflight_.fetch_sub(cancelled_at_submit.size(), std::memory_order_seq_cst);
    notify_idle();
  }

  if (synchronous) wait(task);
  return task;
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
// worker loop & execution
// ---------------------------------------------------------------------------

void Engine::worker_main(WorkerId id) {
  t_worker_id = id;
  tracer_.bind_worker(id);
  Worker& worker = *workers_[static_cast<std::size_t>(id)];
  while (true) {
    TaskPtr task = scheduler_->pop(id);
    if (task == nullptr) {
      // Announce intent to park, then re-check the queues: a producer that
      // pushed before reading the parked flag is seen by this second pop; a
      // producer that pushed after delivers a wake token (see ParkSlot).
      worker.slot.announce();
      task = scheduler_->pop(id);
      if (task == nullptr) {
        if (!worker.slot.park([this] {
              return stopping_.load(std::memory_order_seq_cst);
            })) {
          return;  // stopped without a token
        }
        continue;  // token consumed — re-check the queues
      }
      worker.slot.cancel();
    }
    if (blacklisted_[static_cast<std::size_t>(id)].load(
            std::memory_order_acquire)) {
      // Pushed after the submitter's eligibility check but before this
      // worker died and drained its queue: hand it to the survivors.
      reroute_from_dead_worker(task);
      continue;
    }
    task->state.store(TaskState::kRunning, std::memory_order_relaxed);
    execute(task, worker);
  }
}

void Engine::reroute_from_dead_worker(const TaskPtr& task) {
  if (has_eligible_worker(*task)) {
    dispatch_ready(task);
    return;
  }
  std::vector<TaskPtr> completed;
  std::vector<TaskPtr> ready;
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    try {
      throw Error(ErrorCode::kUnsupported,
                  "task '" + task->spec.name +
                      "' lost its last eligible worker (device died)");
    } catch (...) {
      task->error = std::current_exception();
    }
    complete_locked(task, completed, ready);
  }
  finish_completed(completed, ready, nullptr);
}

void Engine::finish_completed(std::vector<TaskPtr>& completed,
                              std::vector<TaskPtr>& ready, bool* self_claim) {
  for (const TaskPtr& next : ready) dispatch_ready(next, self_claim);
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

void Engine::dispatch_ready(const TaskPtr& task, bool* self_claim) {
  // Snapshot the eligible-worker set BEFORE pushing: once queued, the task
  // may be popped, executed and mutated (excluded_archs) by another worker,
  // so the wake scan must not touch it.
  std::uint64_t eligible_mask = 0;
  const std::size_t n = std::min<std::size_t>(workers_.size(), 64);
  for (std::size_t w = 0; w < n; ++w) {
    if (worker_eligible(*task, static_cast<WorkerId>(w))) {
      eligible_mask |= std::uint64_t{1} << w;
    }
  }
  task->state.store(TaskState::kReady, std::memory_order_relaxed);
  task->ready_eligible_mask = eligible_mask;
  DecisionRecord decision;
  const WorkerId hint =
      scheduler_->push(task, tracer_.tracing() ? &decision : nullptr);
  // Central queues (eager) place nothing at push time: no decision event.
  if (hint != kNoWorkerHint) {
    tracer_.record_decision(task->sequence, hint, decision);
  }
  // The scheduler has committed the task to a worker: warm its read
  // operands on that worker's node while the task waits in the queue.
  if (prefetch_enabled_) enqueue_prefetches(*task, hint);
  wake_workers(eligible_mask, hint, self_claim);
}

void Engine::wake_workers(std::uint64_t eligible_mask, WorkerId hint,
                          bool* self_claim) {
  if (self_claim != nullptr && !*self_claim) {
    // The dispatching worker re-checks the queues before it parks, so if it
    // can run this task itself — it sits where this worker pops from and the
    // worker is eligible — skip the wakeup entirely. One claim per
    // execution: a second dispatched task could otherwise wait behind the
    // first instead of running in parallel.
    const WorkerId self = t_worker_id;
    if (self >= 0 && self < 64 &&
        ((eligible_mask >> static_cast<unsigned>(self)) & 1) &&
        (hint == self || hint == kNoWorkerHint || scheduler_->work_stealing())) {
      *self_claim = true;
      return;
    }
  }
  if (hint >= 0) {
    // The task sits in one worker's own queue: wake that worker. If it is
    // busy, only a stealing policy lets someone else take the task — then
    // wake one idle eligible thief; otherwise the owner picks it up when
    // its current task finishes.
    if (workers_[static_cast<std::size_t>(hint)]->slot.unpark()) return;
    if (!scheduler_->work_stealing()) return;
  }
  const std::size_t n = workers_.size();
  const std::size_t start = wake_rr_.fetch_add(1, std::memory_order_relaxed) % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t w = (start + k) % n;
    if (static_cast<WorkerId>(w) == hint) continue;
    if (w < 64 && !(eligible_mask & (std::uint64_t{1} << w))) continue;
    // The mask predates the push: a worker that died since would take the
    // wakeup and leave the task to nobody.
    if (blacklisted_[w].load(std::memory_order_acquire)) continue;
    if (workers_[w]->slot.unpark()) return;  // woke one parked worker
  }
  // Nobody parked: every eligible worker is mid-loop and re-checks the
  // queues before parking, so the task cannot be stranded.
}

void Engine::execute(const TaskPtr& task, Worker& worker) {
  const Implementation* impl = select_impl(*task, worker.desc);
  check(impl != nullptr, "scheduler routed a task to an incapable worker");
  sim::FaultInjector* injector = injector_for_node(worker.desc.node);
  NodeRuntime& node_rt =
      *node_rt_[static_cast<std::size_t>(worker.desc.sim_node)];

  // The combined-CPU worker needs all of its node's cores; the node's
  // per-core workers share them. Held through completion so combined vs
  // per-core virtual-clock updates stay mutually ordered.
  std::unique_lock<std::shared_mutex> exclusive_cores;
  std::shared_lock<std::shared_mutex> shared_cores;
  if (worker.desc.is_combined_cpu) {
    exclusive_cores =
        std::unique_lock<std::shared_mutex>(node_rt.cpu_group_mutex);
  } else if (data_.topo().is_host(worker.desc.node)) {
    shared_cores = std::shared_lock<std::shared_mutex>(node_rt.cpu_group_mutex);
  }

  // Make every operand coherent on this worker's memory node. A transfer
  // fault (injected or real) fails the attempt, not the worker thread; only
  // the operands actually acquired are released afterwards. The buffer
  // tables are per-worker scratch, reused across executions.
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

  std::vector<void*>& buffers = worker.buffers;
  std::vector<std::size_t>& buffer_bytes = worker.buffer_bytes;
  std::vector<std::size_t>& element_sizes = worker.element_sizes;
  buffers.assign(n_ops, nullptr);
  buffer_bytes.assign(n_ops, 0);
  element_sizes.assign(n_ops, 0);
  VirtualTime data_ready = 0.0;
  std::size_t acquired = 0;
  try {
    for (std::size_t i = 0; i < n_ops; ++i) {
      const TaskOperand& op = task->spec.operands[i];
      VirtualTime ready = 0.0;
      buffers[i] = op.handle->acquire(worker.desc.node, op.mode, &ready);
      ++acquired;
      data_ready = std::max(data_ready, ready);
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
  // The snapshot buffers are pooled per worker.
  worker.preimage_ops.clear();
  std::size_t preimage_count = 0;
  if (!task->failed() && task->retries_left > 0) {
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (task->spec.operands[i].mode != AccessMode::kReadWrite) continue;
      if (preimage_count == worker.preimage_data.size()) {
        worker.preimage_data.emplace_back();
      }
      const auto* p = static_cast<const std::byte*>(buffers[i]);
      worker.preimage_data[preimage_count].assign(p, p + buffer_bytes[i]);
      worker.preimage_ops.push_back(i);
      ++preimage_count;
    }
  }

  // Really run the kernel (numerics), measuring wall time as the fallback
  // virtual cost when no cost hint exists.
  bool injected_kernel_fault = false;
  double wall_seconds = 0.0;
  if (!task->failed()) {
    ExecContext ctx(impl->arch, worker.desc.id, worker.team.get(), buffers,
                    buffer_bytes, element_sizes, task->spec.arg.get());
    const auto wall_start = std::chrono::steady_clock::now();
    try {
      if (injector != nullptr && injector->next_kernel_fails()) {
        injected_kernel_fault = true;
        throw Error(ErrorCode::kIoError,
                    "injected transient kernel fault on '" +
                        worker.desc.profile.name + "'");
      }
      impl->fn(ctx);
    } catch (...) {
      // A failing variant must not take the worker down: the task completes
      // as failed (or is retried), waiters observe the final outcome.
      task->error = std::current_exception();
    }
    const auto wall_end = std::chrono::steady_clock::now();
    wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  }

  double exec_seconds = wall_seconds;
  // An injected transient fault still charges the cost model: the device
  // spent the kernel's time before the failure was noticed.
  if (impl->cost && (!task->failed() || injected_kernel_fault)) {
    exec_seconds =
        sim::execution_seconds(worker.desc.profile, impl->cost(buffer_bytes,
                                                               task->spec.arg.get()));
  }

  // -- completion (lock-free accounting) ------------------------------------
  //
  // The task is owned by this worker until it is re-pushed (retry) or its
  // kDone state is published, so its fields are written plainly. Clocks are
  // atomics and the counters sit in this worker's own recorder shard; only
  // the dependency-graph release at the end takes graph_mutex_.
  const int attempt_index = task->attempts;
  const VirtualTime worker_free = worker_ready_at(worker.desc.id);
  task->vstart = std::max({worker_free, task->max_pred_end, data_ready});
  task->vend = task->vstart + exec_seconds;

  // A device scheduled to die at virtual time T kills the attempt that
  // crosses T (its result would never have made it back).
  if (injector != nullptr && !task->failed() &&
      injector->plan().die_at_vtime > 0.0 &&
      task->vend >= injector->plan().die_at_vtime) {
    try {
      throw Error(ErrorCode::kIoError,
                  "device '" + worker.desc.profile.name +
                      "' died at virtual time " +
                      std::to_string(injector->plan().die_at_vtime));
    } catch (...) {
      task->error = std::current_exception();
    }
  }

  task->exec_seconds = exec_seconds;
  task->executed_on = worker.desc.id;
  task->executed_arch = impl->arch;
  task->executed_impl = impl->name;

  worker.vtime.store(task->vend, std::memory_order_relaxed);
  if (data_.topo().is_host(worker.desc.node)) {
    atomic_max(node_rt.host_group_max, task->vend);
  }

  std::vector<TaskPtr>& completed_now = worker.completed_scratch;
  std::vector<TaskPtr>& ready_now = worker.ready_scratch;
  completed_now.clear();
  ready_now.clear();

  // Device life cycle: successful kernels feed die_after_tasks; a dead
  // device is blacklisted once (under the graph lock — it re-routes queued
  // tasks) and its queued tasks drain back. Only this worker observes its
  // own injector's death, so the double check is belt and braces.
  if (injector != nullptr) {
    if (!task->failed()) injector->record_kernel_success();
    if (!blacklisted_[static_cast<std::size_t>(worker.desc.id)].load(
            std::memory_order_acquire) &&
        injector->death_due(worker.vtime.load(std::memory_order_relaxed))) {
      std::lock_guard<std::mutex> lock(graph_mutex_);
      if (!blacklisted_[static_cast<std::size_t>(worker.desc.id)].load(
              std::memory_order_relaxed)) {
        blacklist_worker_locked(worker, completed_now, ready_now);
      }
    }
  }

  // Whole-node life cycle (EngineConfig::node_faults): kernel successes on
  // any of the node's workers feed the node's death condition; when it
  // fires, every worker of the node is blacklisted at once and their queues
  // drain to survivors.
  if (sim::FaultInjector* node_injector =
          node_injectors_[static_cast<std::size_t>(worker.desc.sim_node)]
              .get();
      node_injector != nullptr) {
    if (!task->failed()) node_injector->record_kernel_success();
    if (!node_rt.dead.load(std::memory_order_acquire) &&
        node_injector->death_due(
            worker.vtime.load(std::memory_order_relaxed))) {
      std::lock_guard<std::mutex> lock(graph_mutex_);
      if (!node_rt.dead.load(std::memory_order_relaxed)) {
        node_rt.dead.store(true, std::memory_order_release);
        log::warn("runtime", "simulated node {} died; blacklisting {} workers",
                  worker.desc.sim_node,
                  std::count_if(workers_.begin(), workers_.end(),
                                [&](const std::unique_ptr<Worker>& w) {
                                  return w->desc.sim_node ==
                                         worker.desc.sim_node;
                                }));
        for (auto& w : workers_) {
          if (w->desc.sim_node != worker.desc.sim_node) continue;
          if (blacklisted_[static_cast<std::size_t>(w->desc.id)].load(
                  std::memory_order_relaxed)) {
            continue;
          }
          blacklist_worker_locked(*w, completed_now, ready_now);
        }
      }
    }
  }

  // Retry decision: exclude the failing architecture, then re-push if an
  // eligible variant remains and the retry budget allows. Lock-free — the
  // task is still owned by this worker and eligibility reads atomics.
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
  tracer_.record_task(task, impl, attempt_index, injected_kernel_fault,
                      retrying);

  // Restore read-write pre-images before unpinning so the retry attempt
  // reads the data the failed attempt saw.
  if (retrying) {
    for (std::size_t s = 0; s < preimage_count; ++s) {
      const std::vector<std::byte>& snap = worker.preimage_data[s];
      std::memcpy(buffers[worker.preimage_ops[s]], snap.data(), snap.size());
    }
  }

  for (std::size_t i = 0; i < acquired; ++i) {
    const TaskOperand& op = task->spec.operands[i];
    if (op.mode != AccessMode::kRead) {
      // For terminally failed tasks the written data is undefined, but
      // the replica bookkeeping must stay consistent.
      op.handle->mark_written(worker.desc.node, task->vend);
    }
    // Unpin: the replica stays resident (§IV-H) but becomes evictable.
    op.handle->release(worker.desc.node);
  }

  if (!task->failed() &&
      (config_.use_history_models || !config_.sampling_dir.empty())) {
    // Nothing reads the history when neither history scheduling nor sample
    // persistence is on — skip the registry write on the hot path.
    perf_.record(task->spec.codelet->name(), impl->arch, task->footprint,
                 task->total_bytes, exec_seconds);
  }

  if (!task->failed() && !config_.dispatch_out.empty()) {
    // Static-composition training: the placement that actually ran is the
    // per-program-point winner this run votes for (majority on finalize).
    dispatch_train_.train(task->spec.codelet->name(), task->footprint,
                          task->spec.verify_point, impl->arch);
  }

  bool self_claim = false;
  if (retrying) {
    task->error = nullptr;
    dispatch_ready(task, &self_claim);
  } else {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    complete_locked(task, completed_now, ready_now);
  }
  finish_completed(completed_now, ready_now, &self_claim);
  completed_now.clear();
  ready_now.clear();
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
    if (current->failed()) {
      tracer_.count(Counted::kTaskFailed);
    } else if (current->attempts > 0 && current->first_failed_arch &&
               current->executed_arch != *current->first_failed_arch) {
      tracer_.count(Counted::kFallback);
    }
    for (const auto& successor : current->successors) {
      successor->max_pred_end =
          std::max(successor->max_pred_end, current->vend);
      if (current->failed() && !successor->failed()) {
        try {
          throw Error(ErrorCode::kInvalidState,
                      "predecessor task '" + current->spec.name + "' failed");
        } catch (...) {
          successor->error = std::current_exception();
        }
      }
      if (--successor->unmet_dependencies == 0 &&
          successor->state.load(std::memory_order_relaxed) ==
              TaskState::kBlocked) {
        if (successor->failed()) {
          finishing.push_back(successor);  // cancel: complete without running
        } else if (!has_eligible_worker(*successor)) {
          // A device death since submission can strand a ready successor
          // (e.g. forced to the dead worker); fail it instead of pushing a
          // task no one may pop.
          try {
            throw Error(ErrorCode::kUnsupported,
                        "task '" + successor->spec.name +
                            "' has no eligible worker left (device died)");
          } catch (...) {
            successor->error = std::current_exception();
          }
          finishing.push_back(successor);
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

void Engine::on_transfer_attempt(MemoryNodeId from, MemoryNodeId to,
                                 std::size_t bytes) {
  // Called under the handle's mutex, outside every engine lock.
  if (internode_injector_ != nullptr &&
      data_.topo().sim_node(from) != data_.topo().sim_node(to) &&
      internode_injector_->next_transfer_fails()) {
    tracer_.count(Counted::kInjectedTransferFault);
    throw Error(ErrorCode::kIoError,
                "injected inter-node link fault on hop " +
                    std::to_string(from) + "->" + std::to_string(to) + " (" +
                    std::to_string(bytes) + " B)");
  }
  for (MemoryNodeId node : {from, to}) {
    sim::FaultInjector* injector = injector_for_node(node);
    if (injector != nullptr && injector->next_transfer_fails()) {
      tracer_.count(Counted::kInjectedTransferFault);
      throw Error(ErrorCode::kIoError,
                  "injected transfer fault on hop " + std::to_string(from) +
                      "->" + std::to_string(to) + " (" +
                      std::to_string(bytes) + " B)");
    }
  }
}

void Engine::blacklist_worker_locked(Worker& worker,
                                     std::vector<TaskPtr>& completed,
                                     std::vector<TaskPtr>& ready) {
  blacklisted_[static_cast<std::size_t>(worker.desc.id)].store(
      true, std::memory_order_seq_cst);
  tracer_.count(Counted::kWorkerBlacklisted);
  log::warn("runtime", "worker {} ('{}') died; blacklisting and draining",
            worker.desc.id, worker.desc.profile.name);
  for (const TaskPtr& orphan : scheduler_->drain(worker.desc.id)) {
    if (has_eligible_worker(*orphan)) {
      ready.push_back(orphan);  // caller re-dispatches outside the lock
    } else {
      try {
        throw Error(ErrorCode::kUnsupported,
                    "task '" + orphan->spec.name +
                        "' lost its last eligible worker (device '" +
                        worker.desc.profile.name + "' died)");
      } catch (...) {
        orphan->error = std::current_exception();
      }
      complete_locked(orphan, completed, ready);
    }
  }
}

VirtualTime Engine::worker_ready_at(WorkerId id) const {
  const Worker& worker = *workers_[static_cast<std::size_t>(id)];
  VirtualTime ready = worker.vtime.load(std::memory_order_relaxed);
  const NodeRuntime& node_rt =
      *node_rt_[static_cast<std::size_t>(worker.desc.sim_node)];
  if (worker.desc.is_combined_cpu) {
    // The combined worker also waits for every per-core CPU worker of its
    // own node — the maintained host-group clock replaces the former
    // per-query scan.
    ready = std::max(ready,
                     node_rt.host_group_max.load(std::memory_order_relaxed));
  } else if (data_.topo().is_host(worker.desc.node) &&
             node_rt.combined_index >= 0) {
    // Per-core workers wait for any combined-CPU execution on their node.
    ready = std::max(
        ready, workers_[static_cast<std::size_t>(node_rt.combined_index)]
                   ->vtime.load(std::memory_order_relaxed));
  }
  return ready;
}

double Engine::exec_estimate(const Task& task, WorkerId id) const {
  if (!worker_eligible(task, id)) {
    return std::numeric_limits<double>::infinity();
  }
  const WorkerDesc& worker = descs_[static_cast<std::size_t>(id)];
  const Implementation* impl = select_impl(task, worker);
  check(impl != nullptr, "eligible worker without implementation");
  std::optional<double> exec;
  if (config_.use_history_models) {
    exec = perf_.estimate_exec(
        task.spec.codelet->name(), impl->arch, task.footprint,
        task.total_bytes,
        static_cast<std::uint64_t>(config_.calibration_samples));
  }
  if (!exec && impl->cost) {
    exec = sim::execution_seconds(
        worker.profile, impl->cost(task.operand_bytes, task.spec.arg.get()));
  }
  return exec.value_or(kNeutralExecSeconds);
}

void Engine::commit_window_task(const TaskPtr& task, WorkerId worker,
                                const DecisionRecord& decision) {
  tracer_.record_decision(task->sequence, worker, decision);
  if (prefetch_enabled_) enqueue_prefetches(*task, worker);
  // The planning thread may be the very worker the task landed on (a pop
  // that closed a partial window); it re-checks its queue before parking,
  // so waking it would be a wasted syscall.
  if (worker != t_worker_id) {
    workers_[static_cast<std::size_t>(worker)]->slot.unpark();
  }
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
  // A worker's clock is the end of its latest attempt and never moves back
  // between resets, so the latest clock is the latest completion.
  VirtualTime makespan = 0.0;
  for (const auto& worker : workers_) {
    makespan = std::max(makespan, worker->vtime.load(std::memory_order_relaxed));
  }
  return makespan;
}

void Engine::reset_virtual_time() {
  // Quiesce first: resetting clocks under running tasks would corrupt the
  // timeline. (Completion bookkeeping may lag wait() by a callback, so
  // draining here instead of throwing keeps the API race-free.) In-flight
  // prefetches must also finish — a straggler would charge a lane after
  // the reset.
  wait_for_all();
  drain_prefetches();
  std::lock_guard<std::mutex> lock(graph_mutex_);
  for (auto& worker : workers_) {
    worker->vtime.store(0.0, std::memory_order_relaxed);
  }
  for (auto& node_rt : node_rt_) {
    node_rt->host_group_max.store(0.0, std::memory_order_relaxed);
  }
  data_.reset_virtual_time();
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
      << transfers.device_to_host_bytes << " B), "
      << transfers.coalesced_transfers << " coalesced";
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
        << ", \"coalesced\": " << (t.coalesced ? "true" : "false")
        << ", \"burst\": " << t.burst << ", \"data\": " << t.data << "}";
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
