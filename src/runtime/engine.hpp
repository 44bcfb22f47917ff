// The PEPPHER runtime engine — this reproduction's stand-in for StarPU.
//
// One Engine owns: worker threads (one per CPU core, one combined
// all-CPU-cores worker with its fork-join team for OpenMP-style parallel
// variants, one per simulated accelerator), the data manager (coherent handles over host + device memory
// nodes), the scheduler, and the performance-model registry.
//
// Component invocations become Tasks. Dependencies between tasks are
// inferred implicitly from the access modes of shared data handles, giving
// sequential consistency in submission order per handle (reads may run
// concurrently; writes order against everything), exactly the mechanism the
// paper's §IV-E inter-component-parallelism discussion relies on.
//
// Time model: tasks really execute on worker threads (numerics are real);
// the engine additionally advances *virtual* clocks using the sim cost
// models, and all performance accounting (history models, scheduling
// estimates, makespan) is in virtual time. See DESIGN.md §5.
//
// Concurrency architecture (see docs/runtime.md "Concurrency architecture &
// overhead"): the task hot path — pop, execute, account, release successors
// — runs without the engine-wide lock. graph_mutex_ guards only the
// dependency graph (Task::successors/unmet_dependencies/max_pred_end and
// DataHandle::last_writer/readers_since_last_write) and is taken at submit
// and completion. Scheduler queues carry their own per-worker locks; each
// worker sleeps on its own ParkSlot and is woken individually. Clocks are
// atomics; every counter lives in the recorder (runtime/trace.hpp), in a
// shard only its worker writes. Lock hierarchy (outer to inner):
// graph_mutex_ → scheduler queue locks → ParkSlot/done_mutex_ → handle
// mutexes are taken on their own, never under graph_mutex_.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/codelet.hpp"
#include "runtime/memory.hpp"
#include "runtime/perfmodel.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "runtime/trace.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"
#include "support/queues.hpp"
#include "support/rng.hpp"

namespace peppher::rt {

/// Engine construction parameters.
struct EngineConfig {
  /// Machine to run on (CPU cores + simulated accelerators). Ignored when
  /// `cluster` is non-empty.
  sim::MachineConfig machine = sim::MachineConfig::platform_c2050();

  /// Simulated cluster to run on instead of `machine`: the engine spans
  /// every node's CPU cores and accelerators, gives each node its own host
  /// memory, and prices host(i) <-> host(j) traffic on duplex inter-node
  /// link lanes (sim::ClusterConfig::internode). A one-node cluster is
  /// bitwise-identical to running on its machine alone — the differential
  /// tests pin stats and per-worker clocks against the single-host engine.
  sim::ClusterConfig cluster;

  /// Whole-node fault plans, index-aligned with cluster.nodes (missing or
  /// all-zero entries mean that node never fails). When a node's death
  /// condition fires (die_after_tasks successful kernels on the node, or
  /// die_at_vtime), every worker on it is blacklisted at once and its
  /// queued tasks drain to survivors (CPU last resort on a live node).
  std::vector<sim::FaultPlan> node_faults;

  /// Fault plan of the inter-node link itself: transfer_failure_rate draws
  /// one decision per host(i) -> host(j) hop (other fields are ignored).
  sim::FaultPlan internode_fault;

  /// Scheduling policy: "eager", "random", "ws", "dmda" (default; the
  /// performance-aware policy the paper's TGPA code uses) or "lookahead"
  /// (windowed joint placement + static-composition replay).
  std::string scheduler = "dmda";

  /// The paper's useHistoryModels flag: when true the dmda scheduler uses
  /// recorded execution history (with forced exploration while
  /// uncalibrated); when false it consults the variants' cost hints
  /// directly.
  bool use_history_models = true;

  /// Samples per (variant, footprint) before history is trusted.
  int calibration_samples = 2;

  /// Directory for persisted performance models (StarPU's sampling dir);
  /// empty disables persistence.
  std::filesystem::path sampling_dir;

  /// Seed for the randomized scheduler.
  std::uint64_t seed = 42;

  /// Append every recorded event to the trace (see runtime/trace.hpp);
  /// exportable as chrome://tracing JSON or a text Gantt chart via
  /// Engine::trace(). The counters behind the stats accessors are kept
  /// either way.
  bool enable_trace = false;

  /// The scheduler's optimization goal (the main descriptor's <goal>).
  Objective objective = Objective::kTime;

  /// Fault-injection plans, index-aligned with machine.accelerators (missing
  /// or all-zero entries mean that device never fails). See sim::FaultPlan.
  std::vector<sim::FaultPlan> accelerator_faults;

  /// How many times a task may be retried on an alternative variant after a
  /// failed execution attempt (injected or real). Each failed attempt
  /// excludes the failing architecture, so retries walk down the eligible
  /// variants with the CPU serial variant as the last resort; a task only
  /// fails terminally (cancelling its successors) when no eligible variant
  /// remains. 0 disables retries: the first failure is terminal, which is
  /// the pre-fault-tolerance behavior.
  int max_retries = 2;

  /// Scheduler-driven automatic prefetch (StarPU's prefetch-on-commit,
  /// §IV-H): when the scheduler commits a queued task to a device worker,
  /// the engine enqueues asynchronous prefetches of the task's read
  /// operands to that worker's memory node on a background transfer
  /// thread, so the replica is typically resident by the time the task
  /// pops. Automatically disabled when any fault plan is active — a
  /// background transfer path would consume per-device fault draws
  /// nondeterministically — and on machines without accelerators.
  bool enable_prefetch = true;

  /// Debug counterpart of the static lint check PL030: submit() rejects a
  /// task that binds the same data handle through several operands when any
  /// of those bindings writes — the runtime orders tasks per handle, not
  /// operands within one task, so such aliasing is a data race. Off by
  /// default (matches StarPU, which leaves intra-task aliasing undefined).
  bool hazard_checks = false;

  /// Debug shadow checker of the MSI coherence protocol (the dynamic half
  /// of peppher-verify, see docs/verify.md): every data handle keeps an
  /// independent shadow state vector advanced through the pure transition
  /// rules of runtime/msi.hpp and cross-checked against the actual replica
  /// states after each coherence event; the engine additionally records the
  /// concrete replica state of every operand at task start (shadow_log())
  /// so tests can cross-validate runs against the static verifier's
  /// abstract per-program-point states. A divergence throws
  /// Error(kInternal) from the offending event. Incompatible with fault
  /// injection (a transfer that fails mid-route leaves a half-updated
  /// state the model does not track); the constructor rejects the combo.
  bool verify_shadow = false;

  /// Ready-task batch size of the "lookahead" scheduler: how many ready
  /// tasks it stages before planning their placements jointly. 1 makes
  /// lookahead behave exactly like dmda, and so does Objective::kEnergy
  /// (energy is additive: there is no window makespan to plan); other
  /// policies ignore it.
  int window_size = 8;

  /// Static-composition replay: path to a ".dispatch" table recorded by a
  /// training run (see dispatch_out). Loaded at construction (malformed
  /// files throw located ParseErrors); the lookahead scheduler then serves
  /// placements from the table with one precomputed-key hash probe — no
  /// model evaluation on the hot path. Requires scheduler "lookahead" (the
  /// constructor rejects any other policy). Empty disables replay.
  std::filesystem::path dispatch_table;

  /// Static-composition training: when non-empty, every successful task
  /// execution records its (codelet, footprint, program point) ->
  /// architecture outcome, and the table is persisted to this ".dispatch"
  /// file at engine shutdown.
  std::filesystem::path dispatch_out;
};

/// One observation of the shadow checker (EngineConfig::verify_shadow): the
/// concrete coherence state of one task operand at task start, *before* the
/// task's own acquire ran. TaskSpec::verify_point links the observation back
/// to a program point of the main module's declared call sequence, which is
/// what lets tests check the observation against the static verifier's
/// abstract state for the same point.
struct ShadowRecord {
  std::uint64_t sequence = 0;  ///< task submission sequence
  std::string task_name;
  int verify_point = -1;  ///< TaskSpec::verify_point (-1 = untagged)
  const DataHandle* handle = nullptr;
  std::size_t operand = 0;  ///< operand index within the task
  MemoryNodeId node = kHostNode;  ///< executing worker's memory node
  int sim_node = 0;  ///< simulated cluster node owning that memory node
  AccessMode mode = AccessMode::kRead;
  ReplicaState state = ReplicaState::kInvalid;  ///< state before the acquire
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // -- data registration (used by the smart containers) ---------------------

  /// Registers `bytes` of application memory with element granularity
  /// `element_size`. The data becomes managed: tasks may create replicas on
  /// any memory node; use acquire_host() before touching it from the
  /// application.
  DataHandlePtr register_buffer(void* host_ptr, std::size_t bytes,
                                std::size_t element_size);

  /// Application-side access to registered data: blocks until conflicting
  /// in-flight tasks complete, then makes the host replica valid (fetching
  /// from a device if needed). Write modes invalidate device copies.
  void acquire_host(const DataHandlePtr& handle, AccessMode mode);

  /// Synchronises the handle to the host and forgets its dependency state;
  /// the memory is the application's again (StarPU's data unregister). A
  /// no-op on a handle an engine shutdown already detached.
  void unregister(const DataHandlePtr& handle);

  // -- task submission -------------------------------------------------------

  /// Submits a task. Asynchronous unless spec.synchronous; returns the task
  /// for wait()/inspection. Throws if the codelet has no enabled variant
  /// runnable on this machine. Thread-safe: tasks may be submitted
  /// concurrently from several threads (each submitter's per-handle
  /// dependency order follows the graph-lock acquisition order).
  TaskPtr submit(TaskSpec spec);

  /// Blocks until `task` completes. If the task's implementation threw (or
  /// a predecessor failed, cancelling it), the stored exception is rethrown
  /// here — a failing variant never takes a worker thread down.
  void wait(const TaskPtr& task);

  /// Blocks until every submitted task has completed.
  void wait_for_all();

  // -- performance interface -------------------------------------------------

  PerfRegistry& perf() noexcept { return perf_; }

  /// Latest task-completion virtual time observed (the virtual makespan).
  VirtualTime virtual_makespan() const;

  /// Total energy spent executing tasks so far (joules, virtual), summed
  /// over all workers.
  double energy_joules() const { return tracer_.books().energy_joules(); }

  /// Resets all virtual clocks and the makespan, draining any in-flight
  /// tasks first, and starts a new summary() interval. Freshly registered
  /// handles start at virtual time zero, so benchmarks should re-register
  /// data after the reset. Must not be called from a task body or
  /// completion callback, nor concurrently with submissions.
  void reset_virtual_time();

  /// Data traffic since the last reset_transfer_stats() (or engine start).
  TransferStats transfer_stats() const;
  void reset_transfer_stats();

  /// The recorder: the execution trace (empty unless config.enable_trace)
  /// and the counters behind every stats accessor.
  Tracer& trace() noexcept { return tracer_; }

  /// Records a named engine phase marker at the current virtual makespan
  /// (no-op unless config.enable_trace). Phases group the trace into
  /// application stages for the peppher-perf per-phase analyses.
  void trace_phase(std::string label);

  /// Renders the whole trace in the versioned machine-readable schema the
  /// peppher-perf analyzer ingests (see docs/perf.md): machine, scheduler,
  /// worker table, task / transfer / prefetch / decision / phase events.
  std::string trace_json() const;

  /// Hint: make `handle` valid on `node` ahead of time so a task scheduled
  /// there finds its data resident (StarPU's data prefetch). Skipped
  /// silently if the handle still has in-flight writers. Returns true if a
  /// replica is valid on the node afterwards.
  bool prefetch(const DataHandlePtr& handle, MemoryNodeId node);

  /// Counters of the automatic (scheduler-driven) prefetch path.
  using PrefetchStats = rt::PrefetchStats;
  PrefetchStats prefetch_stats() const { return tracer_.books().prefetches(); }

  /// Blocks until the automatic-prefetch queue is empty and idle. Useful
  /// for deterministic transfer-stat assertions in tests and benchmarks.
  void drain_prefetches();

  /// Overrides a device node's memory capacity (testing hook; capacities
  /// normally come from the device profiles).
  void set_node_capacity(MemoryNodeId node, std::size_t bytes) {
    data_.set_node_capacity(node, bytes);
  }

  // -- introspection ----------------------------------------------------------

  const EngineConfig& config() const noexcept { return config_; }
  const std::vector<WorkerDesc>& workers() const noexcept { return descs_; }
  int cpu_worker_count() const noexcept { return cpu_count_; }
  int accelerator_count() const noexcept { return data_.topo().device_count(); }

  /// The resolved cluster (a synthesized one-node cluster when the engine
  /// was configured with a plain machine).
  const sim::ClusterConfig& cluster() const noexcept { return cluster_; }
  /// Memory-hierarchy map: hosts, devices, sim-node ownership, routes.
  const MemTopology& topo() const noexcept { return data_.topo(); }
  WorkerStats worker_stats(WorkerId id) const {
    return tracer_.books().worker(id);
  }
  std::array<std::uint64_t, kArchCount> arch_task_counts() const {
    return tracer_.books().arch_tasks();
  }
  std::uint64_t tasks_submitted() const {
    return next_sequence_.load(std::memory_order_relaxed);
  }

  /// Fault-injection / retry / blacklist counters.
  FaultStats fault_stats() const { return tracer_.books().faults(); }

  /// True once `id` was blacklisted after its simulated device died.
  bool worker_blacklisted(WorkerId id) const;

  /// Shadow-checker observations in task execution order (empty unless
  /// config.verify_shadow). Take after wait_for_all() for a stable view.
  std::vector<ShadowRecord> shadow_log() const;

  /// Coherence events cross-checked against the shadow model so far.
  std::uint64_t shadow_checks() const {
    return tracer_.books().shadow_checks();
  }

  /// Human-readable execution summary of the interval since the last
  /// reset_virtual_time() (or engine start): tasks submitted, per-worker
  /// task counts and busy virtual time (utilisation against the makespan),
  /// per-architecture task counts, transfers, prefetches, faults, energy.
  std::string summary() const;

 private:
  struct Worker {
    WorkerDesc desc;
    std::thread thread;

    /// Targeted-wakeup parking spot (replaces the old engine-wide
    /// condition variable broadcast on every submit/complete).
    ParkSlot slot;

    /// Virtual clock: the end of the worker's latest attempt. An atomic so
    /// schedulers and introspection read it without any engine lock;
    /// written only by the owning worker thread (and reset_virtual_time,
    /// which quiesces first).
    std::atomic<VirtualTime> vtime{0.0};

    // Per-worker scratch reused across executions so the task hot path is
    // allocation-free in steady state. Touched only by the owning thread.
    std::vector<void*> buffers;
    std::vector<std::size_t> buffer_bytes;
    std::vector<std::size_t> element_sizes;
    std::vector<std::size_t> preimage_ops;              ///< operand indices
    std::vector<std::vector<std::byte>> preimage_data;  ///< pooled snapshots
    std::vector<TaskPtr> completed_scratch;
    std::vector<TaskPtr> ready_scratch;

    /// The combined-CPU worker's fork-join team, as wide as its node's
    /// cores (nullptr on every other worker). Its helpers start on the
    /// worker's first fork and are joined when the engine is destroyed.
    std::unique_ptr<ForkJoinTeam> team;
  };

  void worker_main(WorkerId id);
  void execute(const TaskPtr& task, Worker& worker);

  /// A task popped by a blacklisted worker: re-dispatched to a survivor,
  /// or failed when none is eligible any more.
  void reroute_from_dead_worker(const TaskPtr& task);

  /// The tail of every completion, outside graph_mutex_: dispatches
  /// `ready`, wakes waiters, runs the callbacks of `completed` and then
  /// retires them from inflight_.
  void finish_completed(std::vector<TaskPtr>& completed,
                        std::vector<TaskPtr>& ready, bool* self_claim);

  /// One queued automatic prefetch: warm `handle` on `node`.
  struct PrefetchRequest {
    DataHandlePtr handle;
    MemoryNodeId node = kHostNode;
    std::uint64_t task_sequence = 0;  ///< committing task (trace records)
  };

  /// Queues background prefetches of `task`'s read operands to the node of
  /// the worker the scheduler committed it to (`hint`); no-op for central
  /// queues (hint < 0) and host workers. Called from dispatch_ready after
  /// the scheduler's push so the committing push's own estimate still saw
  /// the full fetch cost, while every later push sees it in flight.
  void enqueue_prefetches(const Task& task, WorkerId hint);

  /// Background-prefetch thread body: pops requests and warms replicas.
  void prefetch_main();

  /// Services one request outside the queue lock. Returns kNone when the
  /// prefetch warmed a replica, else why it was skipped (in-flight writer,
  /// partitioned handle, transfer failure) — a prefetch is only a hint,
  /// never an error.
  PrefetchSkipReason service_prefetch(const PrefetchRequest& request);

  void stop_prefetch_thread();

  /// Marks a dependency-free task ready, hands it to the scheduler and
  /// wakes a worker that can run it. Caller must own the task (it must not
  /// be visible to any queue yet). When called from a worker thread,
  /// `self_claim` (false on entry) lets that worker claim ONE dispatched
  /// task for itself instead of waking anyone: it re-checks the queues
  /// before parking, so a chained successor runs without a condition-
  /// variable round-trip.
  void dispatch_ready(const TaskPtr& task, bool* self_claim = nullptr);

  /// Wakes one parked worker out of `eligible_mask` (bit per WorkerId,
  /// computed before the task was pushed), preferring `hint` — the queue
  /// the scheduler chose. No-op when every candidate is already awake:
  /// an awake worker re-checks its work sources before parking.
  void wake_workers(std::uint64_t eligible_mask, WorkerId hint,
                    bool* self_claim);

  /// Wakes threads blocked in wait(task) if any are registered (Dekker
  /// handshake on task_waiters_; see wait()).
  void notify_task_done();
  /// Wakes threads blocked in wait_for_all() — only when inflight_ has
  /// actually reached zero, so a draining pipeline doesn't wake the waiter
  /// once per completed task.
  void notify_idle();

  /// Finalizes a finished (or failed) task and releases its successors;
  /// successors of a failed task fail transitively without running.
  /// Caller holds graph_mutex_. Completed tasks are appended to
  /// `completed` (their callbacks run outside the lock), tasks that became
  /// ready to `ready` (dispatched outside the lock).
  void complete_locked(const TaskPtr& task, std::vector<TaskPtr>& completed,
                       std::vector<TaskPtr>& ready);

  /// Injector of the accelerator backing `node`, or nullptr (host node,
  /// no fault plan).
  sim::FaultInjector* injector_for_node(MemoryNodeId node) const;

  /// DataManager transfer hook: draws transfer-fault decisions for the
  /// device endpoint(s) of a copy; throws Error(kIoError) on a fault.
  /// Runs under the handle's mutex — must not take graph_mutex_.
  void on_transfer_attempt(MemoryNodeId from, MemoryNodeId to,
                           std::size_t bytes);

  bool has_eligible_worker(const Task& task) const;

  /// Marks `worker` dead, drains its scheduler queue and collects what can
  /// still run elsewhere into `ready`; tasks with no eligible worker left
  /// complete as failed (appended to `completed`). Caller holds
  /// graph_mutex_.
  void blacklist_worker_locked(Worker& worker, std::vector<TaskPtr>& completed,
                               std::vector<TaskPtr>& ready);

  /// Enabled implementation the worker would run for this task (respecting
  /// forced_arch and the task's excluded architectures); nullptr if none.
  /// Constant time: variants were resolved into Task::impl_for_arch at
  /// submission.
  const Implementation* select_impl(const Task& task,
                                    const WorkerDesc& worker) const;

  bool worker_eligible(const Task& task, WorkerId id) const;

  /// Virtual time at which the worker becomes free. Lock-free: own clock
  /// for accelerators; host workers additionally observe the combined-CPU
  /// clock (per-core) or the host-group maximum (combined worker).
  VirtualTime worker_ready_at(WorkerId id) const;

  /// SchedEnv::exec — expected execution seconds of `task` on worker `id`
  /// (history models, cost hint, neutral guess); +inf when ineligible.
  double exec_estimate(const Task& task, WorkerId id) const;

  /// SchedEnv::commit — the lookahead scheduler announces each planned
  /// task it placed on a worker other than the push/pop trigger: record the
  /// decision, warm the operands on the worker's node, wake the worker.
  void commit_window_task(const TaskPtr& task, WorkerId worker,
                          const DecisionRecord& decision);

  std::uint64_t exploration_sample_count(const Task& task, WorkerId id) const;

  EngineConfig config_;
  /// Resolved cluster: config_.cluster, or a synthesized one-node cluster
  /// wrapping config_.machine. Everything downstream (memory topology,
  /// workers, capacities) derives from this, never from config_.machine.
  sim::ClusterConfig cluster_;
  /// Display name for errors / summaries: the machine name on one node,
  /// the cluster name otherwise.
  std::string machine_name_;
  int cpu_count_;  ///< per-core CPU workers, summed over all nodes
  DataManager data_;
  PerfRegistry perf_;
  DispatchTable dispatch_replay_;  ///< finalized at construction, then const
  DispatchTable dispatch_train_;   ///< filled by execute(), saved at shutdown
  bool dispatch_replay_active_ = false;
  Rng rng_;
  Tracer tracer_;

  std::vector<WorkerDesc> descs_;  ///< immutable after construction
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Per-simulated-node shared state: the per-node CPU-group lock (the
  /// combined worker of node k only contends with node k's cores), the
  /// node's host-group clock, and the node's combined-CPU worker index.
  /// On one node this is exactly the former engine-wide singleton state.
  struct NodeRuntime {
    /// Serialises real execution of the node's combined-CPU worker against
    /// its per-core CPU workers (they share the same physical cores).
    std::shared_mutex cpu_group_mutex;
    /// Maintained host-group clock: max vtime over the node's host workers
    /// (CAS-max on completion).
    std::atomic<VirtualTime> host_group_max{0.0};
    int combined_index = -1;  ///< node's combined-CPU worker, -1 if none
    std::atomic<bool> dead{false};  ///< whole-node death already handled
  };
  std::vector<std::unique_ptr<NodeRuntime>> node_rt_;  ///< per sim node

  /// One fault injector per accelerator, index-aligned with the global
  /// device ordinals (nullptr = fault-free device). Immutable after
  /// construction; the injectors themselves are thread safe.
  std::vector<std::unique_ptr<sim::FaultInjector>> injectors_;

  /// Whole-node fault injectors (EngineConfig::node_faults), per sim node;
  /// fed by kernel successes on any of the node's workers.
  std::vector<std::unique_ptr<sim::FaultInjector>> node_injectors_;

  /// Inter-node link fault injector (EngineConfig::internode_fault), drawn
  /// once per host(i) -> host(j) hop; nullptr when the plan is empty.
  std::unique_ptr<sim::FaultInjector> internode_injector_;

  /// Protects ONLY the dependency graph: Task::successors /
  /// unmet_dependencies / max_pred_end, DataHandle::last_writer /
  /// readers_since_last_write, and the blacklist transition. Taken at
  /// submit and completion — never while popping or executing.
  mutable std::mutex graph_mutex_;

  std::unique_ptr<Scheduler> scheduler_;
  std::atomic<bool> stopping_{false};

  /// Automatic-prefetch state. The thread exists only when prefetch is
  /// effectively enabled (config flag, no fault plans, has accelerators).
  bool prefetch_enabled_ = false;
  std::thread prefetch_thread_;
  std::mutex prefetch_mutex_;
  std::condition_variable prefetch_cv_;       ///< work available / stopping
  std::condition_variable prefetch_idle_cv_;  ///< queue drained
  std::deque<PrefetchRequest> prefetch_queue_;  ///< guarded by prefetch_mutex_
  int prefetch_busy_ = 0;                       ///< guarded by prefetch_mutex_
  std::atomic<bool> prefetch_stop_{false};

  std::atomic<std::uint64_t> next_sequence_{0};
  std::atomic<std::uint64_t> inflight_{0};

  std::unique_ptr<std::atomic<bool>[]> blacklisted_;  ///< per worker
  std::atomic<std::size_t> wake_rr_{0};  ///< round-robin wake start point

  /// The baselines the resets record instead of zeroing counters: the
  /// summary() interval starts at the last reset_virtual_time(), the
  /// transfer_stats() interval at the last reset_transfer_stats().
  mutable std::mutex baseline_mutex_;  ///< leaf lock
  Books interval_start_;
  std::uint64_t interval_first_task_ = 0;  ///< next_sequence_ at that reset
  Books transfers_start_;

  // Waiter protocol for wait()/wait_for_all(): waiters register in the
  // matching counter before sleeping on done_cv_; completers skip the cv
  // entirely when nobody is registered. The counters are split so that a
  // wait_for_all() caller is only woken when inflight_ actually reaches
  // zero — with one shared counter, every completion of a long task drain
  // would futex-wake the waiter just for it to re-check and sleep again
  // (two context switches per task). See notify_task_done()/notify_idle().
  /// Shadow-checker observation log (config_.verify_shadow only); appended
  /// by workers at task start, outside every other engine lock.
  mutable std::mutex shadow_mutex_;
  std::vector<ShadowRecord> shadow_log_;

  mutable std::mutex done_mutex_;
  mutable std::condition_variable done_cv_;
  mutable std::atomic<std::uint64_t> task_waiters_{0};  ///< wait(task)
  mutable std::atomic<std::uint64_t> all_waiters_{0};   ///< wait_for_all()
};

}  // namespace peppher::rt
