// The engine's one recorder. Every runtime event site — a task attempt, a
// fault, a transfer hop, an eviction or overcommit, a prefetch event, a
// scheduler decision, a lookahead window, a phase marker —
// makes exactly one Tracer call. The call bumps monotonic counters and, when
// EngineConfig::enable_trace is set, appends the event to the trace. Every
// stats accessor of the Engine and Engine::summary() is a view of one
// Books snapshot of those counters, so the counters and the trace cannot
// keep different books: tests/test_perf.cpp re-derives the counters from
// the records and expects exact equality.
//
// The trace exports as a chrome://tracing JSON file, a text Gantt chart, or
// the versioned machine-readable schema Engine::trace_json renders for the
// peppher-perf analyzer (see docs/perf.md); perf::parse_trace reads that
// schema back into these same record types. StarPU ships the equivalent
// FxT/Vite tracing.
//
// Concurrency: counters live in one shard per worker plus one shared shard.
// Engine thread i is the single writer of shard i's event counters (a
// relaxed load and store, no read-modify-write); every other thread
// (submitters, the prefetch thread, the application) bumps the shared one
// with fetch_add. A task attempt is recorded on the shard of the worker it
// was committed to, under that shard's lock: by the committing thread when
// the attempt failed at its commit, by the thread that ran it otherwise.
// So a worker's task counts and busy time are the same whichever thread
// ran its tasks. A snapshot merges the shards.
// Events go to chunked append-only logs: a writer claims a slot with one
// atomic fetch_add, fills it, and publishes it with a release store.
// Chunks are recycled by clear(), so the steady state of the task hot path
// stays allocation-free (record_task keeps the name inline or the TaskPtr
// and Implementation pointer instead of copying strings; names are
// materialised only when a snapshot is taken).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/types.hpp"

namespace peppher::rt {

class DataHandle;
class MemTopology;
class Task;
struct Implementation;

/// Per-worker execution counters (Engine::worker_stats).
struct WorkerStats {
  std::uint64_t tasks_executed = 0;   ///< successful executions
  std::uint64_t failed_attempts = 0;  ///< executions that ended in an error
  double busy_vtime = 0.0;      ///< virtual seconds spent executing
  double energy_joules = 0.0;   ///< busy time x the device's power draw
};

/// Engine-wide fault-tolerance counters (see docs/runtime.md).
struct FaultStats {
  std::uint64_t injected_kernel_faults = 0;    ///< transient kernel faults injected
  std::uint64_t injected_transfer_faults = 0;  ///< transfer faults injected
  std::uint64_t failed_attempts = 0;  ///< execution attempts that failed (any cause)
  std::uint64_t retries = 0;          ///< failed attempts re-pushed to the scheduler
  std::uint64_t fallbacks = 0;  ///< tasks that completed on another arch after a failure
  std::uint64_t tasks_failed = 0;  ///< tasks completed with an error (incl. cancelled)
  std::uint64_t workers_blacklisted = 0;  ///< workers removed after device death
};

/// Counters for the data-traffic measurements of Figure 5 and the smart
/// container ablation (2-copies-vs-7 example of Figure 3).
struct TransferStats {
  std::uint64_t host_to_device_count = 0;
  std::uint64_t device_to_host_count = 0;
  std::uint64_t host_to_device_bytes = 0;
  std::uint64_t device_to_host_bytes = 0;
  std::uint64_t evictions = 0;    ///< device replicas dropped under pressure
  std::uint64_t overcommits = 0;  ///< allocations exceeding device capacity
  /// Always 0: every hop pays its full link price. perfbench reads it for
  /// memory.coalesced_ratio; it goes with that metric (ROADMAP item 1).
  std::uint64_t coalesced_transfers = 0;
  std::uint64_t internode_count = 0;  ///< host(i) -> host(j) hops (clusters)
  std::uint64_t internode_bytes = 0;

  std::uint64_t total_count() const noexcept {
    return host_to_device_count + device_to_host_count;
  }
  std::uint64_t total_bytes() const noexcept {
    return host_to_device_bytes + device_to_host_bytes;
  }
};

/// Counters of the automatic (scheduler-driven) prefetch path.
struct PrefetchStats {
  std::uint64_t enqueued = 0;   ///< operands queued at dispatch time
  std::uint64_t completed = 0;  ///< prefetches that warmed a replica
  std::uint64_t skipped = 0;    ///< raced by a write / stale / failed
};

/// One task execution attempt. A task retried after a failed attempt emits
/// several records: one per failed attempt (failed = true) plus the final
/// one (its `attempt` index counts the preceding failures).
struct TaskRecord {
  std::uint64_t sequence = 0;   ///< submission order
  std::string name;             ///< task/component name
  std::string impl;             ///< chosen variant
  Arch arch = Arch::kCpu;
  WorkerId worker = -1;
  VirtualTime vstart = 0.0;
  VirtualTime vend = 0.0;
  int attempt = 0;              ///< 0 = first attempt, n = n-th retry
  bool failed = false;          ///< this attempt ended in an error
  double exec_seconds = 0.0;    ///< virtual execution time (excl. transfers)
  int verify_point = -1;        ///< program point (TaskSpec::verify_point)
  std::vector<std::uint64_t> data;  ///< operand data-handle ids

  bool operator==(const TaskRecord&) const = default;
};

/// One link-lane occupancy interval a commit on the scheduler's plan
/// reserved: exactly one record per committed hop (device<->device via host
/// counts as two hops, and so do the transfer counters).
struct TransferRecord {
  int lane = 0;                      ///< Interconnect::lane (docs/perf.md)
  std::uint64_t lane_sequence = 0;   ///< commit order, monotonic per lane
  MemoryNodeId from = kHostNode;
  MemoryNodeId to = kHostNode;
  std::uint64_t bytes = 0;
  VirtualTime vstart = 0.0;
  VirtualTime vend = 0.0;
  std::uint64_t data = 0;  ///< data-handle id
  int from_node = 0;       ///< simulated cluster node of `from`
  int to_node = 0;         ///< simulated cluster node of `to`

  bool operator==(const TransferRecord&) const = default;
};

enum class PrefetchEvent : std::uint8_t { kEnqueued, kCompleted, kSkipped };

/// Why a prefetch request was skipped instead of fetched.
enum class PrefetchSkipReason : std::uint8_t {
  kNone,            ///< not skipped (enqueued / completed events)
  kWriterRace,      ///< a writer claimed the data before the fetch ran
  kPartitioned,     ///< the handle was partitioned in the meantime
  kDetached,        ///< the handle was unregistered in the meantime
  kTransferFailed,  ///< the fetch threw (read from older traces only)
  kShutdown,        ///< engine drain stopped the prefetch thread
};

const char* to_string(PrefetchEvent event);
const char* to_string(PrefetchSkipReason reason);

/// One prefetch lifecycle event (enqueued, then completed or skipped).
struct PrefetchRecord {
  PrefetchEvent event = PrefetchEvent::kEnqueued;
  PrefetchSkipReason reason = PrefetchSkipReason::kNone;
  std::uint64_t task_sequence = 0;  ///< task whose placement committed it
  MemoryNodeId node = kHostNode;    ///< destination memory node
  int sim_node = 0;                 ///< simulated cluster node of `node`
  std::uint64_t data = 0;           ///< data-handle id
  std::uint64_t bytes = 0;

  bool operator==(const PrefetchRecord&) const = default;
};

/// One scheduler placement decision (policies that choose a concrete
/// worker; centrally queued policies emit none). Model-based policies also
/// report their candidate completion estimates so the analyzer can compare
/// prediction against the traced outcome (PF005).
struct DecisionRecord {
  std::uint64_t task_sequence = 0;
  WorkerId chosen = -1;
  bool explored = false;          ///< calibration placement, not model-based
  double chosen_estimate = -1.0;  ///< predicted completion vtime (<0 = none)
  /// Best predicted completion vtime per architecture; +infinity where no
  /// eligible worker of that architecture exists.
  std::array<double, kArchCount> arch_estimate{};

  bool operator==(const DecisionRecord&) const = default;
};

/// A named engine phase marker (Engine::trace_phase) at a virtual time.
struct PhaseRecord {
  std::string label;
  VirtualTime vtime = 0.0;

  bool operator==(const PhaseRecord&) const = default;
};

/// One lookahead window-planning decision: which submissions were batched
/// and what the joint plan predicted for them, so peppher-perf can
/// diagnose mispredicted windows the same way PF005 checks per-task
/// estimates. Other policies emit none.
struct WindowRecord {
  std::uint64_t id = 0;            ///< monotonic window index
  int size = 0;                    ///< tasks planned in this window
  double estimate = 0.0;           ///< predicted window makespan (vtime)
  bool improved = false;           ///< branch-and-bound beat the greedy plan
  std::uint64_t explored = 0;      ///< search nodes expanded
  std::vector<std::uint64_t> tasks;  ///< task sequences, plan order

  bool operator==(const WindowRecord&) const = default;
};

/// Engine events the recorder counts but keeps no trace record of.
enum class Counted : std::uint8_t {
  kEviction,               ///< a device replica dropped under pressure
  kOvercommit,             ///< an allocation beyond device capacity
  kInjectedTransferFault,  ///< an injected transfer fault
  kTaskFailed,             ///< a task completed with an error
  kFallback,               ///< a task completed on another arch after a failure
  kWorkerBlacklisted,      ///< a worker removed after its device died
};

/// A copy of the recorder's monotonic counters at one moment, one tally per
/// worker shard plus the shared one. The engine's stats accessors are views
/// of one snapshot; the books of an interval are `later.since(earlier)`.
class Books {
 public:
  /// The counts of the interval since `earlier` (a snapshot of the same
  /// recorder, taken before this one).
  Books since(const Books& earlier) const;

  WorkerStats worker(WorkerId id) const;
  std::array<std::uint64_t, kArchCount> arch_tasks() const;
  FaultStats faults() const;
  TransferStats transfers() const;
  PrefetchStats prefetches() const;
  /// Energy of every worker, summed in worker order.
  double energy_joules() const;

 private:
  friend class Tracer;

  /// Counter slots. The Counted events come first, in enum order, and the
  /// prefetch events follow PrefetchEvent's order.
  enum Slot : std::size_t {
    kEvictions,
    kOvercommits,
    kInjectedTransferFaults,
    kTasksFailed,
    kFallbacks,
    kWorkersBlacklisted,
    kPrefetchEnqueued,
    kPrefetchCompleted,
    kPrefetchSkipped,
    kTasks,
    kFailedAttempts,
    kInjectedKernelFaults,
    kRetries,
    kH2dCount,
    kH2dBytes,
    kD2hCount,
    kD2hBytes,
    kInternodeCount,
    kInternodeBytes,
    kArchTasks,  ///< kArchCount slots: successful attempts per Arch
    kSlots = kArchTasks + kArchCount,
  };

  struct Tally {
    std::array<std::uint64_t, kSlots> n{};
    double busy = 0.0;    ///< virtual seconds executing
    double energy = 0.0;  ///< joules
  };

  /// Sum of every shard.
  Tally total() const;

  std::vector<Tally> workers_;
  Tally shared_;
};

/// The engine's recorder (see the file comment).
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Lays out the books: one shard per entry of `worker_watts` (the
  /// worker's busy power draw, for energy), the memory topology that
  /// classifies hops and maps memory nodes to simulated nodes, and whether
  /// events are appended to the trace (EngineConfig::enable_trace). Called
  /// once, before any thread records.
  void configure(const MemTopology& topo, std::vector<double> worker_watts,
                 bool trace_events);

  /// Makes the calling thread the single writer of shard `index`'s event
  /// counters (one shard per worker); events recorded on other threads go
  /// to the shared shard.
  void bind_shard(std::size_t index);

  /// True when events are appended to the trace.
  bool tracing() const noexcept { return trace_events_; }

  /// One attempt of `task` on the worker it was committed to
  /// (Task::executed_on), after the attempt's timing fields were set.
  /// Counts a success per architecture or a failed attempt
  /// (`injected_fault`: an injected kernel fault; `retried`: a retry is
  /// committed next), adds the busy time and energy, and traces a
  /// TaskRecord.
  void record_task(const std::shared_ptr<Task>& task,
                   const Implementation* impl, int attempt, bool failed,
                   bool injected_fault, bool retried);

  /// One hop committed on link lane `lane` (Scheduler's timeline).
  void record_transfer(int lane, std::uint64_t lane_sequence,
                       MemoryNodeId from, MemoryNodeId to, std::uint64_t bytes,
                       VirtualTime vstart, VirtualTime vend, std::uint64_t data);

  /// One prefetch lifecycle event of `handle` toward `node`.
  void record_prefetch(PrefetchEvent event, PrefetchSkipReason reason,
                       std::uint64_t task_sequence, const DataHandle& handle,
                       MemoryNodeId node);

  /// Traced only: a scheduler placement (`decision` as Scheduler::push
  /// reported it), the lookahead window plans, and the engine phase
  /// markers have no counters.
  void record_decision(std::uint64_t task_sequence, WorkerId chosen,
                       const DecisionRecord& decision);
  void record_window(const WindowRecord& record);
  void record_phase(std::string label, VirtualTime vtime);

  /// Counted only (see Counted).
  void count(Counted event);

  /// Appends a fully materialised task record and counts nothing: for
  /// tests and tools that build a trace by hand.
  void record(TaskRecord record);

  /// Snapshot of every counter; safe at any moment, concurrently with
  /// recording (each counter is read once, not all at one instant).
  Books books() const;

  /// Snapshot of all task records so far, in recording order: an attempt
  /// that failed at its commit when it was committed, any other when it
  /// ran.
  std::vector<TaskRecord> records() const;

  /// Snapshots of the other event streams, in recording order.
  std::vector<TransferRecord> transfers() const;
  std::vector<PrefetchRecord> prefetches() const;
  std::vector<DecisionRecord> decisions() const;
  std::vector<WindowRecord> windows() const;
  std::vector<PhaseRecord> phases() const;

  /// Drops every event (benchmark repetition); the counters keep counting.
  /// Quiescent use only: no concurrent recording may be in flight.
  void clear();

  /// Number of task records (the other streams have their own snapshots).
  std::size_t size() const;

  /// chrome://tracing ("Trace Event Format") JSON: one complete event per
  /// task attempt (pid 1, one row per worker) and one per transfer hop
  /// (pid 2, one row per link lane); durations in microseconds of virtual
  /// time. Rows are sorted by (sequence, attempt) / (lane, lane order), so
  /// equal inputs render byte-identical files.
  std::string to_chrome_json() const;

  /// Quick text Gantt chart: one line per worker, `columns` characters wide
  /// over [0, makespan]. Each task paints its span with the first letter of
  /// its name; idle time is '.'.
  std::string to_text_gantt(int columns = 80) const;

 private:
  /// Append-only event log: slots are claimed with one atomic fetch_add and
  /// published with a release store; chunks are allocated on first touch and
  /// recycled across clear() so steady-state appends never allocate.
  template <typename T>
  class ChunkedLog {
   public:
    static constexpr std::size_t kChunkShift = 10;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kMaxChunks = 4096;  ///< 4M events

    ChunkedLog() = default;
    ChunkedLog(const ChunkedLog&) = delete;
    ChunkedLog& operator=(const ChunkedLog&) = delete;
    ~ChunkedLog() {
      for (auto& entry : chunks_) delete entry.load(std::memory_order_acquire);
    }

    /// Claims a slot and lets `fill` write the value in place — no temporary
    /// T is constructed or moved. The slot is default-valued (fresh chunk or
    /// reset by clear()); `fill` only needs to set the fields it cares about.
    template <typename Fill>
    void emplace_with(Fill&& fill) {
      const std::size_t index = count_.fetch_add(1, std::memory_order_relaxed);
      if (index >= kChunkSize * kMaxChunks) return;  // full: drop (4M events)
      Slot& slot = slot_at(index);
      fill(slot.value);
      slot.committed.store(true, std::memory_order_release);
    }

    std::size_t size() const {
      return std::min(count_.load(std::memory_order_acquire),
                      kChunkSize * kMaxChunks);
    }

    /// Copies out every committed slot. Claimed-but-unpublished slots are
    /// awaited briefly (the writer is between fetch_add and its release
    /// store, a handful of instructions).
    std::vector<T> snapshot() const {
      const std::size_t n = size();
      std::vector<T> out;
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t chunk_index = i >> kChunkShift;
        const Chunk* chunk = nullptr;
        while ((chunk = chunks_[chunk_index].load(
                    std::memory_order_acquire)) == nullptr) {
          std::this_thread::yield();
        }
        const Slot& slot = (*chunk)[i & (kChunkSize - 1)];
        while (!slot.committed.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        out.push_back(slot.value);
      }
      return out;
    }

    /// Quiescent-only reset: keeps the chunks for reuse.
    void clear() {
      const std::size_t n = size();
      for (std::size_t i = 0; i < n; ++i) {
        Chunk* chunk = chunks_[i >> kChunkShift].load(std::memory_order_acquire);
        if (chunk == nullptr) break;
        Slot& slot = (*chunk)[i & (kChunkSize - 1)];
        slot.value = T{};
        slot.committed.store(false, std::memory_order_relaxed);
      }
      count_.store(0, std::memory_order_release);
    }

   private:
    struct Slot {
      T value{};
      std::atomic<bool> committed{false};
    };
    using Chunk = std::array<Slot, kChunkSize>;

    Slot& slot_at(std::size_t index) {
      const std::size_t chunk_index = index >> kChunkShift;
      Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
      if (chunk == nullptr) {
        std::lock_guard<std::mutex> lock(grow_mutex_);
        chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
        if (chunk == nullptr) {
          chunk = new Chunk();
          chunks_[chunk_index].store(chunk, std::memory_order_release);
        }
      }
      return (*chunk)[index & (kChunkSize - 1)];
    }

    std::atomic<std::size_t> count_{0};
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
    std::mutex grow_mutex_;  ///< chunk allocation only
  };

  /// Operand ids captured inline by the slim hot path (more spill to the
  /// keep-the-task-alive fallback, as do names too long for the string's
  /// in-situ buffer).
  static constexpr std::size_t kInlineOperands = 4;
  /// Names at most this long are assumed to fit std::string's small-string
  /// buffer (15 on libstdc++; merely a perf assumption, never a correctness
  /// one).
  static constexpr std::size_t kInlineName = 15;

  /// One task event: a fully materialised record (record()), a slim
  /// hot-path capture (name + operand ids stored inline, nothing kept
  /// alive), or a fallback that keeps the TaskPtr and resolves the strings
  /// and ids when a snapshot is taken.
  struct TaskEventSlot {
    TaskRecord record;
    std::shared_ptr<Task> task;
    const Implementation* impl = nullptr;
    std::array<std::uint64_t, kInlineOperands> inline_data{};
    std::uint8_t inline_count = 0;
    bool slim = false;
  };

  static TaskRecord materialize(const TaskEventSlot& slot);

  /// One worker's (or the shared) counters. Cache-line aligned so
  /// neighbouring workers never share a line.
  struct alignas(64) Shard {
    std::mutex task_mutex;  ///< serialises record_task: sums follow records
    std::array<std::atomic<std::uint64_t>, Books::kSlots> n{};
    std::atomic<double> busy{0.0};
    std::atomic<double> energy{0.0};
    double watts = 0.0;  ///< worker shards: busy power draw
  };

  /// The calling thread's shard writer: single-writer stores on its bound
  /// shard, fetch_add on the shared one.
  void add(std::size_t slot, std::uint64_t amount = 1);

  const MemTopology* topo_ = nullptr;
  bool trace_events_ = false;
  std::vector<std::unique_ptr<Shard>> workers_;
  Shard shared_;

  ChunkedLog<TaskEventSlot> tasks_;
  ChunkedLog<TransferRecord> transfers_;
  ChunkedLog<PrefetchRecord> prefetches_;
  ChunkedLog<DecisionRecord> decisions_;
  ChunkedLog<WindowRecord> windows_;
  ChunkedLog<PhaseRecord> phases_;
};

}  // namespace peppher::rt
