// Data management of the PEPPHER runtime: registered data handles with
// MSI-style coherence over multiple memory nodes (host RAM + one node per
// simulated accelerator), lazy copies, and StarPU-style partitioning into
// sub-handles for hybrid execution.
//
// This is the machinery behind the paper's "smart containers" discussion
// (§IV-D/E/H and Figure 3): multiple copies of the same data may exist on
// different memory units; transfers are delayed until actually necessary;
// copies are invalidated, not discarded, on writes elsewhere.
//
// A handle keeps two views of its replicas: its real states, which its
// acquires move as tasks run, and the plan view of the scheduler's
// rt::Plan (runtime/placement.hpp) — a state and a valid-at time per
// memory node, and the reads committed so far — which only commits and
// the host events sequenced there change.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
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
  /// pointer: allocates and copies as needed and moves the real MSI states
  /// through msi::apply_acquire. Device replicas are *pinned* until
  /// release(node) — pinned replicas are never evicted under memory
  /// pressure. Thread safe per handle.
  void* acquire(MemoryNodeId node, AccessMode mode);

  /// Copies an unpinned read replica to `node` (Engine::prefetch and the
  /// background prefetch thread). Skipped on a partitioned or
  /// unpartitioned-child handle, and while a writer task submitted on the
  /// handle has not completed (its data is still being produced). The
  /// check and the copy run under the handle's mutex, so a writer submitted
  /// after the check acquires only once the copy landed.
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

  /// Counts one committed read-mode access.
  void note_read();

  /// Read-mode accesses committed so far: the reuse a plan amortises this
  /// handle's read fetches over. A handle read by many tasks is expected to
  /// be read by many more, which is what lets dmda move a heavily reused
  /// operand (the ODE solver's Jacobian, §IV-H) to the device where its
  /// consumers run fastest.
  std::uint64_t reads() const;

  ReplicaState replica_state(MemoryNodeId node) const;  ///< the real one

  // -- partitioning (hybrid execution, §IV-F) -------------------------------

  /// Splits the handle into `parts` contiguous element-aligned children that
  /// alias the same host memory. The parent is unusable until
  /// unpartition(). Children must not outlive the parent.
  std::vector<std::shared_ptr<DataHandle>> partition(std::size_t parts);

  /// Gathers children back: flushes each child to host and revalidates the
  /// parent. All child handles become permanently invalid; returns the ones
  /// still alive.
  std::vector<std::shared_ptr<DataHandle>> unpartition();

  // -- dependency metadata (used by the Engine under its submission lock) ---

  std::shared_ptr<Task> last_writer;
  std::vector<std::shared_ptr<Task>> readers_since_last_write;

 private:
  friend class DataManager;
  friend class Plan;  ///< seeds its data from the plan view and stores them
  DataHandle(DataManager* manager, void* host_ptr, std::size_t bytes,
             std::size_t element_size);

  struct Replica {
    std::unique_ptr<std::byte[]> storage;  ///< device nodes only
    void* ptr = nullptr;
    int pins = 0;  ///< active acquires; pinned replicas are not evictable
  };

  /// The one fetch routine: moves the real states through
  /// msi::apply_acquire, copying each hop of its route before the hop is
  /// recorded. Allocates `node` for a write. Caller holds mutex_.
  void fetch_locked(MemoryNodeId node, AccessMode mode);

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

  // The plan view, guarded by mutex_ (see the file comment): per memory
  // node the replica's state and when it became valid, in the virtual
  // time of the plan reset that stored them (Plan::add_data).
  std::vector<ReplicaState> plan_states_;
  std::vector<double> plan_valid_at_;
  std::uint64_t plan_epoch_ = 0;
  std::uint64_t plan_reads_ = 0;

  std::atomic<int> writers_in_flight_{0};

  DataHandle* parent_ = nullptr;
  std::size_t parent_offset_bytes_ = 0;
  std::vector<std::weak_ptr<DataHandle>> children_;
  bool detached_ = false;  ///< set on children after unpartition()
  bool keep_home_ = false;  ///< guarded by mutex_
};

using DataHandlePtr = std::shared_ptr<DataHandle>;

/// Owns the memory-node table and the links between the nodes (the
/// Interconnect the plan prices and reserves lanes on); reports every
/// eviction and overcommit to the attached recorder. One per Engine.
class DataManager {
 public:
  /// Single-host manager: @param node_count host + one per accelerator.
  DataManager(int node_count, sim::LinkProfile link);

  /// Cluster manager: `topo` lays out the memory nodes (hosts + devices of
  /// every simulated node), `link` prices intra-node (PCIe) hops and
  /// `internode` prices host(i) <-> host(j) hops. A single-node topology
  /// is identical to the single-host constructor.
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

  /// The memory-hierarchy map (hosts, devices, routes).
  const MemTopology& topo() const noexcept { return net_.topo; }

  /// Topology plus the links its hops are priced over.
  const Interconnect& interconnect() const noexcept { return net_; }

  /// Tracks a live handle for detach_all(). Called on registration and for
  /// partition children; entries are weak and compacted amortised.
  void note_handle(const DataHandlePtr& handle);

  /// Attaches the recorder that counts every eviction and overcommit;
  /// without one the manager keeps no books. Set once before any
  /// transfer.
  void set_recorder(Tracer* recorder) noexcept { recorder_ = recorder; }

  /// Reports a counted event to the recorder, if one is attached.
  void count(Counted event) const {
    if (recorder_ != nullptr) recorder_->count(event);
  }

 private:
  Interconnect net_;
  int node_count_;
  Engine* engine_ = nullptr;  ///< immutable once handles exist
  Tracer* recorder_ = nullptr;    ///< immutable once workers run
  std::atomic<std::uint64_t> next_data_id_{1};  ///< DataHandle::id allocator

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
