// The PEPPHER runtime engine — this reproduction's stand-in for StarPU.
//
// One Engine owns: the simulated workers (one per CPU core, one combined
// all-CPU-cores worker with its fork-join team for OpenMP-style parallel
// variants, one per simulated accelerator), a pool of interchangeable
// threads that runs their tasks, the data manager (coherent handles over
// host + device memory nodes), the scheduler, and the performance-model
// registry.
//
// Component invocations become Tasks. Dependencies between tasks are
// inferred implicitly from the access modes of shared data handles, giving
// sequential consistency in submission order per handle (reads may run
// concurrently; writes order against everything), exactly the mechanism the
// paper's §IV-E inter-component-parallelism discussion relies on.
//
// Time model: every task is decided and committed on the scheduler's
// rt::Plan, the engine's one virtual timeline, by the submitting thread in
// submission order — before submit returns, or under lookahead at the flush
// that commits its window — with its fault draws, the device deaths they
// cause and its history sample (the host events commit there too). Tasks
// then really execute (numerics are real), each as its committed worker
// and against its commit, once its predecessors completed. All performance
// accounting is in that virtual time, by the rules dmda, the lookahead
// window and peppher-predict place by; a real kernel exception is the one
// thing decided in execution order (its retry commits when it is thrown).
// See DESIGN.md §5 and docs/runtime.md.
//
// Concurrency architecture (see docs/runtime.md "Concurrency architecture &
// overhead"): graph_mutex_ guards the dependency graph
// (Task::successors/unmet_dependencies/max_pred_end/committed and
// DataHandle::last_writer/readers_since_last_write) and is taken at submit
// — where the commit happens under it — and at completion. Threads do not
// belong to workers: a thread claims a worker that has a ready task and is
// not running one, under that worker's queue lock, and runs the task as
// that worker (its memory node, its variant, its team), so a worker runs
// one task at a time. The thread that completes a task continues with a
// successor it released onto an idle worker, else with its own worker's
// next task, and wakes a parked thread only for work it leaves behind; idle
// threads park on their own ParkSlot. The timeline sits behind the
// scheduler's own lock; every counter lives in the recorder
// (runtime/trace.hpp). Lock hierarchy (outer to inner): graph_mutex_ → the
// scheduler's lock → handle mutexes, and idle_mutex_ → worker queue locks;
// ParkSlot and done_mutex_ are taken on their own. A handle mutex is never
// held while taking an engine or scheduler lock.
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
#include <string>
#include <thread>
#include <vector>

#include "runtime/codelet.hpp"
#include "runtime/memory.hpp"
#include "runtime/perfmodel.hpp"
#include "runtime/placement.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "runtime/trace.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"
#include "support/queues.hpp"

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
  /// condition fires at a commit (die_after_tasks successful attempts on
  /// the node, or die_at_vtime), every worker on it is blacklisted at once
  /// and receives no further commits.
  std::vector<sim::FaultPlan> node_faults;

  /// Fault plan of the inter-node link itself: transfer_failure_rate draws
  /// one decision per host(i) -> host(j) hop (other fields are ignored).
  sim::FaultPlan internode_fault;

  /// Scheduling policy, one of rt::scheduler_names(): "dmda" (default; the
  /// performance-aware policy the paper's TGPA code uses), "lookahead"
  /// (windowed joint placement + static-composition replay) or "eager"
  /// (earliest committed start, ignoring the models: the blind baseline).
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

  /// Append every recorded event to the trace (see runtime/trace.hpp);
  /// exportable as chrome://tracing JSON or a text Gantt chart via
  /// Engine::trace(). The counters behind the stats accessors are kept
  /// either way.
  bool enable_trace = false;

  /// The scheduler's optimization goal (the main descriptor's <goal>).
  Objective objective = Objective::kTime;

  /// Fault-injection plans, index-aligned with machine.accelerators (missing
  /// or all-zero entries mean that device never fails). See sim::FaultPlan.
  /// Every draw is made at a commit, in submission order.
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
  /// §IV-H): when a task committed to a device worker becomes ready, a
  /// background thread copies its read operands to that worker's memory
  /// node, so the bytes are typically resident by the time the task runs.
  /// Real bytes only: the commit already timed the fetch, and real copies
  /// draw no faults. Disabled on machines with no memory node besides the
  /// primary host.
  bool enable_prefetch = true;

  /// Debug counterpart of the static lint check PL030: submit() rejects a
  /// task that binds the same data handle through several operands when any
  /// of those bindings writes — the runtime orders tasks per handle, not
  /// operands within one task, so such aliasing is a data race. Off by
  /// default (matches StarPU, which leaves intra-task aliasing undefined).
  bool hazard_checks = false;

  /// The dynamic half of peppher-verify (docs/verify.md): the engine
  /// records the concrete replica state of every operand at task start
  /// (shadow_log()), so tests can cross-validate a run against the static
  /// verifier's abstract per-program-point states. Data handles move their
  /// replicas through the same runtime/msi.hpp rules the verifier runs, so
  /// there is nothing else to cross-check. Works with fault injection.
  bool verify_shadow = false;

  /// Window size of the "lookahead" scheduler: how many submissions it
  /// stages before planning their placements jointly. 1 makes lookahead
  /// behave exactly like dmda, and so does Objective::kEnergy (energy is
  /// additive: there is no window makespan to plan); other policies ignore
  /// it.
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

  /// Application-side access to registered data: flushes the lookahead
  /// window, blocks until conflicting in-flight tasks complete, then makes
  /// the host replica valid (fetching from a device if needed). Write modes
  /// invalidate device copies.
  void acquire_host(const DataHandlePtr& handle, AccessMode mode);

  /// Synchronises the handle to the host and forgets its dependency state;
  /// the memory is the application's again (StarPU's data unregister). A
  /// no-op on a handle an engine shutdown already detached.
  void unregister(const DataHandlePtr& handle);

  /// DataHandle::unpartition, committed on the timeline (each child flushes
  /// home on the lanes); partition after acquire_host(handle, kReadWrite).
  void unpartition(const DataHandlePtr& handle);

  // -- task submission -------------------------------------------------------

  /// Submits a task: links its dependencies and commits it on the
  /// timeline (under lookahead: stages it, committing the window when it
  /// fills or the task depends on a staged one). Asynchronous unless
  /// spec.synchronous: a synchronous task commits at once (its window
  /// flushed) and, when its dependencies are met and its worker is idle,
  /// runs on the calling thread. Returns the task for wait()/inspection.
  /// Throws if the codelet has no enabled variant runnable on this machine.
  /// Thread-safe: tasks may be submitted concurrently from several threads
  /// (submission order, per handle and on the timeline, is the graph-lock
  /// acquisition order).
  TaskPtr submit(TaskSpec spec);

  /// Blocks until `task` completes, flushing the lookahead window first. If
  /// the task failed (or a predecessor failed, cancelling it), the stored
  /// exception is rethrown here — a failing variant never takes a thread
  /// down.
  void wait(const TaskPtr& task);

  /// Flushes the lookahead window and blocks until every submitted task
  /// has completed.
  void wait_for_all();

  // -- performance interface -------------------------------------------------

  PerfRegistry& perf() noexcept { return perf_; }

  /// Latest task-completion virtual time observed (the virtual makespan).
  VirtualTime virtual_makespan() const;

  /// Total energy spent executing tasks so far (joules, virtual), summed
  /// over all workers.
  double energy_joules() const { return tracer_.books().energy_joules(); }

  /// Resets all virtual clocks (the scheduler's own included) and the
  /// makespan, draining any in-flight tasks first, and starts a new
  /// summary() interval. Freshly registered
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
  /// there finds its data resident (StarPU's data prefetch). A host event:
  /// it flushes the lookahead window and commits its fetch on the timeline,
  /// where it starts as soon as its lane and its source allow. The real
  /// copy is skipped while a writer task submitted on the handle has not
  /// completed (DataHandle::prefetch); a partitioned or unpartitioned
  /// handle is skipped altogether. Returns true if the real copy ran.
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

  /// True once `id` was blacklisted after its simulated device died (at
  /// the commit that killed it).
  bool worker_blacklisted(WorkerId id) const;

  /// Shadow-checker observations in task execution order (empty unless
  /// config.verify_shadow). Take after wait_for_all() for a stable view.
  std::vector<ShadowRecord> shadow_log() const;

  /// Human-readable execution summary of the interval since the last
  /// reset_virtual_time() (or engine start): tasks submitted, per-worker
  /// task counts and busy virtual time (utilisation against the makespan),
  /// per-architecture task counts, transfers, prefetches, faults, energy.
  std::string summary() const;

 private:
  /// A simulated worker: its queue of committed, ready tasks and whether a
  /// thread is running one of them. Any thread may run its tasks, one at a
  /// time.
  struct Worker {
    WorkerDesc desc;

    /// Guards `queue` and `running`; the claim it orders also orders the
    /// forks on `team`.
    std::mutex queue_mutex;
    /// Its committed tasks whose dependencies are met, highest priority
    /// first (FIFO among equal priorities).
    std::deque<TaskPtr> queue;
    /// A thread claimed the worker and runs (or is about to run) a task as
    /// it.
    bool running = false;

    /// The combined-CPU worker's fork-join team, as wide as its node's
    /// cores (nullptr on every other worker), forked by whichever thread
    /// runs the worker. Its helpers start on the first fork and are joined
    /// when the engine is destroyed.
    std::unique_ptr<ForkJoinTeam> team;
  };

  /// What a thread reuses across the tasks it runs, so the task hot path
  /// is allocation-free in steady state.
  struct Scratch {
    std::vector<void*> buffers;
    std::vector<std::size_t> buffer_bytes;
    std::vector<std::size_t> element_sizes;
    std::vector<std::size_t> preimage_ops;              ///< operand indices
    std::vector<std::vector<std::byte>> preimage_data;  ///< pooled snapshots
    std::vector<TaskPtr> completed;
    std::vector<TaskPtr> ready;
  };

  /// One of the engine's threads: not tied to any worker.
  struct Executor {
    std::thread thread;
    ParkSlot slot;  ///< where it sleeps while on idle_
    /// The worker its waker claimed for it, with a queued task; written
    /// under idle_mutex_ before the unpark, read after the park.
    Worker* handed = nullptr;
    Scratch scratch;
  };

  /// Body of executor thread `index`: claims workers with ready tasks and
  /// runs them, parking while there are none.
  void executor_main(std::size_t index);

  /// Claims the first worker that has a ready task and is not running one,
  /// and pops its next task; nullptr when none. Called under idle_mutex_.
  TaskPtr claim_any();

  /// Runs `task` on the calling thread as its committed worker, which the
  /// caller claimed, then completes it and hands off what it released.
  /// Returns hand_off's continuation (nullptr unless `take_next`).
  TaskPtr run(const TaskPtr& task, Scratch& scratch, bool take_next);

  /// Queues each task of `ready` on its committed worker. `own` (or
  /// nullptr) is the worker the caller just ran a task as: it is released
  /// here unless the caller keeps it. With `take_next` the caller continues
  /// as the first of those tasks' workers that is idle (claiming it and
  /// taking its next task), else with `own`'s next queued task, and gets
  /// that task back; with none, it keeps `own` claimed. Wakes a parked
  /// thread for each worker it leaves with queued tasks and no claim.
  TaskPtr hand_off(std::vector<TaskPtr>& ready, Worker* own, bool take_next);

  /// Hands `worker`, left with queued tasks and no claim, to a parked
  /// thread: claims it for that thread and wakes it. Does nothing when
  /// another thread claimed it meanwhile, or when no thread is parked (an
  /// awake thread re-checks every queue before it parks).
  void wake(Worker& worker);

  /// The tail of every completion and commit, outside graph_mutex_: wakes
  /// waiters, runs the callbacks of `completed` and then retires them from
  /// inflight_.
  void finish_completed(std::vector<TaskPtr>& completed);

  /// One queued automatic prefetch: warm `handle` on `node`.
  struct PrefetchRequest {
    DataHandlePtr handle;
    MemoryNodeId node = kHostNode;
    std::uint64_t task_sequence = 0;  ///< committing task (trace records)
  };

  /// Queues background copies of `task`'s read operands to `node`, the
  /// memory node of its committed worker; no-op for host nodes. Real bytes
  /// only: the commit already put the fetches on the timeline.
  void enqueue_prefetches(const Task& task, MemoryNodeId node);

  /// Background-prefetch thread body: pops requests and warms replicas.
  void prefetch_main();

  void stop_prefetch_thread();

  /// Wakes threads blocked in wait(task) if any are registered (Dekker
  /// handshake on task_waiters_; see wait()).
  void notify_task_done();
  /// Wakes threads blocked in wait_for_all() — only when inflight_ has
  /// actually reached zero, so a draining pipeline doesn't wake the waiter
  /// once per completed task.
  void notify_idle();

  /// Marks the tasks the scheduler just committed and releases each whose
  /// dependencies are met. Caller holds graph_mutex_.
  void note_committed_locked(std::vector<TaskPtr>& committed,
                             std::vector<TaskPtr>& completed,
                             std::vector<TaskPtr>& ready);

  /// Commits the lookahead window (nothing under the other policies):
  /// every wait and host event calls this first.
  void flush();

  /// A committed task whose dependencies are met: completes it as failed
  /// when it already failed (at its commit, or cancelled by a failed
  /// predecessor), else appends it to `ready`. Caller holds graph_mutex_.
  void release_locked(const TaskPtr& task, std::vector<TaskPtr>& completed,
                      std::vector<TaskPtr>& ready);

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

  /// SchedEnv::hop_fails: draws the transfer-fault decisions of one
  /// committed hop (the inter-node link's, then each device endpoint's)
  /// and counts a fault.
  bool transfer_fails(MemoryNodeId from, MemoryNodeId to);

  /// SchedEnv::settle: the fault draws, deaths, history sample and
  /// failed-attempt record of one committed attempt; true when it failed
  /// and the task retries.
  bool settle_attempt(const TaskPtr& task, bool hop_failed);

  bool has_eligible_worker(const Task& task) const;

  /// Marks worker `id` dead: it receives no further commits.
  void blacklist(WorkerId id);

  /// Enabled implementation the worker would run for this task (respecting
  /// forced_arch and the task's excluded architectures); nullptr if none.
  /// Constant time: variants were resolved into Task::impl_for_arch at
  /// submission.
  const Implementation* select_impl(const Task& task,
                                    const WorkerDesc& worker) const;

  bool worker_eligible(const Task& task, WorkerId id) const;

  /// SchedEnv::exec — expected execution seconds of `task` on worker `id`
  /// (history models, cost hint, neutral guess); +inf when ineligible.
  double exec_estimate(const Task& task, WorkerId id) const;

  /// SchedEnv::cost — the seconds an attempt on worker `id` is committed
  /// for: the cost model's, else kNeutralExecSeconds.
  double exec_cost(const Task& task, WorkerId id) const;

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
  DispatchTable dispatch_train_;   ///< filled by run(), saved at shutdown
  bool dispatch_replay_active_ = false;
  Tracer tracer_;

  std::vector<WorkerDesc> descs_;  ///< immutable after construction
  std::vector<std::unique_ptr<Worker>> workers_;  ///< index = WorkerId
  /// As many threads as workers; thread i writes the recorder's shard i.
  std::vector<std::unique_ptr<Executor>> executors_;

  /// Guards idle_ and stopping_. A thread announces that it parks by
  /// joining idle_ after re-checking every queue under this lock; a thread
  /// that leaves work behind takes it after queueing the work, and pops
  /// the thread it wakes, so each wake reaches a distinct thread.
  std::mutex idle_mutex_;
  std::vector<Executor*> idle_;
  bool stopping_ = false;

  /// One fault injector per accelerator, index-aligned with the global
  /// device ordinals (nullptr = fault-free device). Immutable after
  /// construction; the injectors themselves are thread safe.
  std::vector<std::unique_ptr<sim::FaultInjector>> injectors_;

  /// Whole-node fault injectors (EngineConfig::node_faults), per sim node;
  /// fed by successful attempts committed on any of the node's workers.
  std::vector<std::unique_ptr<sim::FaultInjector>> node_injectors_;

  /// Inter-node link fault injector (EngineConfig::internode_fault), drawn
  /// once per host(i) -> host(j) hop; nullptr when the plan is empty.
  std::unique_ptr<sim::FaultInjector> internode_injector_;

  /// Protects the dependency graph (Task::successors / unmet_dependencies /
  /// max_pred_end / committed, DataHandle::last_writer /
  /// readers_since_last_write) and orders the commits: taken at submit, at
  /// flushes and host events, at completion and at a retry's commit —
  /// never while claiming or executing.
  mutable std::mutex graph_mutex_;

  std::unique_ptr<Scheduler> scheduler_;

  /// Automatic-prefetch state. The thread exists only when prefetch is
  /// effectively enabled (config flag, more than one memory node).
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

  /// Per worker; set at the commit that killed it, under the graph lock.
  std::unique_ptr<std::atomic<bool>[]> blacklisted_;

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
  /// at task start, outside every other engine lock. Only attempts that
  /// run are observed: one that failed at its commit never runs.
  mutable std::mutex shadow_mutex_;
  std::vector<ShadowRecord> shadow_log_;

  mutable std::mutex done_mutex_;
  mutable std::condition_variable done_cv_;
  mutable std::atomic<std::uint64_t> task_waiters_{0};  ///< wait(task)
  mutable std::atomic<std::uint64_t> all_waiters_{0};   ///< wait_for_all()
};

}  // namespace peppher::rt
