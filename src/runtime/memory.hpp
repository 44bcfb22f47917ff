// Data management of the PEPPHER runtime: registered data handles with
// MSI-style coherence over multiple memory nodes (host RAM + one node per
// simulated accelerator), lazy transfers over a contended PCIe link, and
// StarPU-style partitioning into sub-handles for hybrid execution.
//
// This is the machinery behind the paper's "smart containers" discussion
// (§IV-D/E/H and Figure 3): multiple copies of the same data may exist on
// different memory units; transfers are delayed until actually necessary;
// copies are invalidated, not discarded, on writes elsewhere.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "runtime/trace.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"

namespace peppher::rt {

class Task;
class DataManager;
class Engine;

/// Coherence state of one replica of a handle's data on one memory node.
enum class ReplicaState : std::uint8_t {
  kInvalid,  ///< no valid copy on this node
  kShared,   ///< valid copy, other valid copies may exist
  kOwned,    ///< the only valid copy (was modified here)
};

std::string to_string(ReplicaState state);

/// A registered piece of application data. Created through
/// DataManager::register_buffer (never directly); always lives in a
/// shared_ptr because tasks keep operands alive.
class DataHandle : public std::enable_shared_from_this<DataHandle> {
 public:
  ~DataHandle();

  DataHandle(const DataHandle&) = delete;
  DataHandle& operator=(const DataHandle&) = delete;

  std::size_t bytes() const noexcept { return bytes_; }
  std::size_t element_size() const noexcept { return element_size_; }
  std::size_t elements() const noexcept { return bytes_ / element_size_; }

  /// Stable per-manager id (children get their own); keys trace events.
  std::uint64_t id() const noexcept { return id_; }

  /// True for a sub-handle created by partition().
  bool is_child() const noexcept { return parent_ != nullptr; }
  /// True while this handle has live children (it must not be accessed).
  bool is_partitioned() const noexcept;

  /// True for a sub-handle whose parent was unpartitioned (permanently
  /// unusable).
  bool detached() const noexcept;

  /// The engine the handle is registered with, or nullptr once that engine
  /// shut down (see detach()) or when the manager has no engine.
  Engine* engine() const noexcept;

  /// Marks the host memory as outliving the engine (a smart container owns
  /// it): engine shutdown then syncs the data home before it detaches the
  /// handle. Engine::unregister clears the mark — the memory may be gone.
  void keep_home_at_shutdown(bool keep);

  /// Engine shutdown: makes the primary host replica valid if the handle is
  /// marked keep_home_at_shutdown (a plain copy: no link time, no transfer
  /// fault), frees every other replica and cuts the handle loose from its
  /// manager. The host memory is then plain application memory; any later
  /// acquire, release, write mark or partitioning throws
  /// Error(kInvalidState). Idempotent.
  void detach();

  /// Ensures a valid replica on `node` for the given access and returns its
  /// pointer. Performs any needed allocation and (real) copy, moves the MSI
  /// states through msi::apply_acquire, charges each hop to its link lane
  /// in virtual time, and returns via `data_ready` the virtual time at
  /// which the data is valid on `node`. Device replicas are *pinned* until
  /// release(node) — pinned replicas are never evicted under memory
  /// pressure. Thread safe per handle.
  void* acquire(MemoryNodeId node, AccessMode mode, VirtualTime* data_ready);

  /// Warms an unpinned read replica on `node` (Engine::prefetch and the
  /// background prefetch thread). Skipped while a writer task submitted on
  /// the handle has not completed (its data is still being produced), and
  /// on a partitioned or unpartitioned-child handle; a failed transfer
  /// throws. The check and the copy run under the handle's mutex, so a
  /// writer submitted after the check acquires only once the copy landed.
  PrefetchSkipReason prefetch(MemoryNodeId node);

  /// Counts writer tasks submitted on this handle and not yet completed:
  /// Engine::submit and Engine::complete_locked call these once per
  /// write-mode operand, under the engine's graph lock — so the count is an
  /// atomic, not guarded by the handle's mutex.
  void note_writer_submitted() noexcept { ++writers_in_flight_; }
  void note_writer_completed() noexcept { --writers_in_flight_; }

  /// Unpins the replica on `node` (one release per acquire). The data stays
  /// resident (§IV-H) but becomes evictable if the device runs short of
  /// memory (§IV-D).
  void release(MemoryNodeId node);

  /// Tries to drop this handle's replica on `node` to free device memory:
  /// fails if the replica is pinned, invalid, host-side, or this handle is
  /// busy. An Owned replica is flushed to the host first. Called by the
  /// DataManager under memory pressure.
  bool try_evict(MemoryNodeId node);

  /// Records that a task finished writing this handle on `node` at virtual
  /// time `vend` (refreshes the replica's validity timestamp).
  void mark_written(MemoryNodeId node, VirtualTime vend);

  /// Zeroes every replica's validity timestamp. Called by the manager's
  /// reset_virtual_time(): `valid_at` is a virtual time, so pre-staged data
  /// must not appear to arrive *after* the reset epoch.
  void reset_virtual_time();

  /// Appends the handle's coherence state as a plan seeds it
  /// (runtime/placement.hpp) to `out`: one state per memory node, where a
  /// replica with a queued background prefetch counts as valid — the lane
  /// already pays for that transfer, so no placement may charge it again.
  void plan_states(std::vector<ReplicaState>& out) const;

  /// Read-mode acquires so far: the reuse a plan amortises this handle's
  /// read fetches over. A handle read by many tasks is expected to be read
  /// by many more, which is what lets dmda move a heavily reused operand
  /// (the ODE solver's Jacobian, §IV-H) to the device where its consumers
  /// run fastest.
  std::uint64_t reads() const;

  ReplicaState replica_state(MemoryNodeId node) const;

  // -- prefetch accounting (scheduler-driven prefetch, §IV-H) ---------------

  /// Marks a background prefetch of this handle to `node` as queued. Until
  /// the matching note_prefetch_done(), plan_states() reports the replica
  /// valid — the transfer is already paid for by the prefetch path, so dmda
  /// must not double-charge it.
  void note_prefetch_queued(MemoryNodeId node);
  void note_prefetch_done(MemoryNodeId node);

  // -- partitioning (hybrid execution, §IV-F) -------------------------------

  /// Splits the handle into `parts` contiguous element-aligned children that
  /// alias the same host memory. The parent is unusable until
  /// unpartition(). Children must not outlive the parent.
  std::vector<std::shared_ptr<DataHandle>> partition(std::size_t parts);

  /// Gathers children back: flushes each child to host and revalidates the
  /// parent. All child handles become permanently invalid.
  void unpartition();

  // -- dependency metadata (used by the Engine under its submission lock) ---

  std::shared_ptr<Task> last_writer;
  std::vector<std::shared_ptr<Task>> readers_since_last_write;

 private:
  friend class DataManager;
  DataHandle(DataManager* manager, void* host_ptr, std::size_t bytes,
             std::size_t element_size);

  struct Replica {
    std::unique_ptr<std::byte[]> storage;  ///< device nodes only
    void* ptr = nullptr;
    VirtualTime valid_at = 0.0;
    int pins = 0;  ///< active acquires; pinned replicas are not evictable
    int prefetch_pending = 0;  ///< queued background prefetches targeting here
  };

  /// The one fetch routine: moves the states through msi::apply_acquire,
  /// copying each hop of its route and charging the hop on its lane before
  /// the hop is recorded (a failing hop throws with the earlier hops
  /// recorded). Allocates `node` for a write. Caller holds mutex_. Returns
  /// the vtime at which the data is valid on `node` (0 for a write).
  VirtualTime fetch_locked(MemoryNodeId node, AccessMode mode);

  void ensure_allocated(MemoryNodeId node);

  /// Throws Error(kInvalidState) naming `what` once detach() ran. Caller
  /// holds mutex_.
  void check_attached_locked(const char* what) const;

  /// True while a child of partition() is alive. Caller holds mutex_.
  bool partitioned_locked() const noexcept;

  DataManager* manager_;  ///< nullptr once detached (guarded by mutex_)
  void* host_ptr_;
  std::size_t bytes_;
  std::size_t element_size_;
  std::uint64_t id_ = 0;

  mutable std::mutex mutex_;
  std::vector<Replica> replicas_;  ///< indexed by MemoryNodeId
  /// Coherence state per memory node; changed only through rt::msi.
  std::vector<ReplicaState> states_;

  std::uint64_t read_uses_ = 0;  ///< guarded by mutex_
  std::atomic<int> writers_in_flight_{0};

  DataHandle* parent_ = nullptr;
  std::size_t parent_offset_bytes_ = 0;
  std::vector<std::weak_ptr<DataHandle>> children_;
  bool detached_ = false;  ///< set on children after unpartition()
  bool keep_home_ = false;  ///< guarded by mutex_
};

using DataHandlePtr = std::shared_ptr<DataHandle>;

/// Owns the memory-node table and the PCIe link lanes; reports every hop,
/// eviction and overcommit to the attached recorder. One per Engine.
///
/// Link contention model: unless LinkProfile::shared_bus is set, every
/// device node gets two independent *lanes* — host-to-device and
/// device-to-host — each with its own mutex and virtual clock, so
/// concurrent transfers to different devices (or in opposite directions)
/// never contend, in code or in virtual time. shared_bus collapses all
/// traffic onto one lane: the legacy half-duplex model.
class DataManager {
 public:
  /// Single-host manager: @param node_count host + one per accelerator.
  DataManager(int node_count, sim::LinkProfile link);

  /// Cluster manager: `topo` lays out the memory nodes (hosts + devices of
  /// every simulated node), `link` prices intra-node (PCIe) hops and
  /// `internode` prices host(i) <-> host(j) hops. Each direction of each
  /// node pair gets its own inter-node lane clock (duplex, like PCIe). A
  /// single-node topology is identical to the single-host constructor.
  DataManager(MemTopology topo, sim::LinkProfile link,
              sim::LinkProfile internode);

  /// Registers application memory of `bytes` bytes (element granularity
  /// `element_size`, used by partitioning). The host replica starts Owned:
  /// freshly registered data is valid on the host, nowhere else.
  DataHandlePtr register_buffer(void* host_ptr, std::size_t bytes,
                                std::size_t element_size);

  int node_count() const noexcept { return node_count_; }

  /// The engine that owns this manager (DataHandle::engine()); set once by
  /// the Engine before any registration.
  void set_engine(Engine* engine) noexcept { engine_ = engine; }
  Engine* engine() const noexcept { return engine_; }

  /// Engine shutdown, after the workers stopped: drops every live handle's
  /// dependency links (tasks and handles keep each other alive through
  /// them) and detaches every handle, parents and partition children.
  void detach_all();

  /// Sets a device node's memory capacity in bytes (0 = unlimited, the
  /// default). Allocations beyond the capacity trigger eviction of
  /// unpinned replicas of other handles; if nothing is evictable the
  /// allocation overcommits (Counted::kOvercommit).
  void set_node_capacity(MemoryNodeId node, std::size_t bytes);

  std::size_t node_allocated(MemoryNodeId node) const;

  /// Allocation accounting + eviction, called by handles when they allocate
  /// or free a device replica of `bytes` bytes.
  void on_allocate(MemoryNodeId node, std::size_t bytes,
                   const std::shared_ptr<DataHandle>& owner);
  void on_free(MemoryNodeId node, std::size_t bytes);

  /// Next DataHandle::id (monotonic per manager, starts at 1).
  std::uint64_t allocate_data_id() noexcept {
    return next_data_id_.fetch_add(1, std::memory_order_relaxed);
  }

  const sim::LinkProfile& link() const noexcept { return net_.pcie; }

  /// The memory-hierarchy map (hosts, devices, routes).
  const MemTopology& topo() const noexcept { return net_.topo; }

  /// Topology plus the links its hops are priced over.
  const Interconnect& interconnect() const noexcept { return net_; }

  /// Advances the `from`→`to` lane clock by a transfer of `bytes` starting
  /// no earlier than `ready`, priced by sim::transfer_seconds on the lane's
  /// link, and records the hop; returns completion vtime. `data_id`
  /// identifies the transferred handle in trace records (0 = untracked).
  VirtualTime charge_link(MemoryNodeId from, MemoryNodeId to,
                          std::size_t bytes, VirtualTime ready,
                          std::uint64_t data_id = 0);

  /// Fault-injection hook, invoked once per single-hop replica copy before
  /// any state changes; may throw to simulate a failed transfer. Called
  /// under the handle's mutex, so the hook must not take engine locks. Set
  /// once by the Engine before worker threads start.
  using TransferHook =
      std::function<void(MemoryNodeId from, MemoryNodeId to, std::size_t bytes)>;
  void set_transfer_fault_hook(TransferHook hook) {
    transfer_hook_ = std::move(hook);
  }
  void notify_transfer_attempt(MemoryNodeId from, MemoryNodeId to,
                               std::size_t bytes) const {
    if (transfer_hook_) transfer_hook_(from, to, bytes);
  }

  /// Resets the link lane clocks and every live handle's replica validity
  /// timestamps (benchmark repetition: measured sweeps start at vtime 0
  /// even when their inputs were pre-staged before the reset). Lane
  /// sequence counters stay monotonic across resets.
  void reset_virtual_time();

  /// Tracks a live handle for whole-manager sweeps such as
  /// reset_virtual_time(). Called on registration and for partition
  /// children; entries are weak and compacted amortised.
  void note_handle(const DataHandlePtr& handle);

  /// Attaches the recorder that counts (and traces) every hop, eviction and
  /// overcommit; without one the manager keeps no books.
  /// Set once before any transfer, like the fault hook.
  void set_recorder(Tracer* recorder) noexcept { recorder_ = recorder; }

  /// Reports a counted event to the recorder, if one is attached.
  void count(Counted event) const {
    if (recorder_ != nullptr) recorder_->count(event);
  }

  /// Lane-table index for a `from`→`to` transfer (the `lane` field of
  /// TransferRecord and the per-lane rows of the Chrome export).
  std::size_t lane_index(MemoryNodeId from, MemoryNodeId to) const;

 private:
  /// One directed transfer lane and its own clock.
  struct Lane {
    std::mutex mutex;
    VirtualTime free_at = 0.0;
    std::uint64_t next_seq = 0;  ///< per-lane hop order
  };

  Lane& lane_for(MemoryNodeId from, MemoryNodeId to);

  /// Link profile of a lane-table entry: intra lanes price PCIe, appended
  /// inter-node lanes price the cluster link.
  const sim::LinkProfile& lane_profile(std::size_t lane) const noexcept {
    return lane < intra_lane_count_ ? net_.pcie : net_.internode;
  }

  Interconnect net_;
  int node_count_;
  Engine* engine_ = nullptr;  ///< immutable once handles exist
  std::size_t intra_lane_count_ = 1;
  TransferHook transfer_hook_;  ///< immutable once workers run
  Tracer* recorder_ = nullptr;    ///< immutable once workers run
  std::atomic<std::uint64_t> next_data_id_{1};  ///< DataHandle::id allocator

  /// Lane table, fixed at construction: index 0 in shared-bus mode, else
  /// 2*ordinal for H2D and 2*ordinal+1 for D2H of the device with that
  /// global ordinal (= node-1 on a single host). Clusters append two
  /// directed inter-node lanes per node pair after the intra lanes.
  /// unique_ptr because a mutex is immovable.
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Amortised compaction of resident_handles_: compact when the list
  /// reaches this size, then re-arm at 2x the surviving entries.
  std::size_t compact_at_ = 16;  ///< guarded by mutex_
  void compact_residents_locked();

  mutable std::mutex mutex_;
  std::vector<std::size_t> capacities_;  ///< per node; 0 = unlimited
  std::vector<std::size_t> allocated_;   ///< per node
  /// Handles with live device allocations, in rough allocation order (the
  /// eviction scan order — oldest allocations are tried first). Weak: a
  /// dying handle frees its allocations itself.
  std::vector<std::weak_ptr<DataHandle>> resident_handles_;
  /// Every live handle (parents and partition children), for whole-manager
  /// sweeps. Weak, compacted amortised like resident_handles_.
  std::vector<std::weak_ptr<DataHandle>> all_handles_;
  std::size_t handles_compact_at_ = 16;  ///< guarded by mutex_
};

}  // namespace peppher::rt
