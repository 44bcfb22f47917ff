#include "runtime/memory.hpp"

#include <algorithm>
#include <cstring>

#include "runtime/msi.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace peppher::rt {

std::string to_string(ReplicaState state) {
  switch (state) {
    case ReplicaState::kInvalid: return "invalid";
    case ReplicaState::kShared: return "shared";
    case ReplicaState::kOwned: return "owned";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// DataHandle
// ---------------------------------------------------------------------------

DataHandle::DataHandle(DataManager* manager, void* host_ptr, std::size_t bytes,
                       std::size_t element_size)
    : manager_(manager),
      host_ptr_(host_ptr),
      bytes_(bytes),
      element_size_(element_size),
      id_(manager->allocate_data_id()),
      replicas_(static_cast<std::size_t>(manager->node_count())),
      states_(replicas_.size(), ReplicaState::kInvalid) {
  check(bytes > 0, "cannot register an empty buffer");
  check(element_size > 0 && bytes % element_size == 0,
        "buffer size must be a multiple of the element size");
  replicas_[kHostNode].ptr = host_ptr_;
  msi::apply_host_reclaim(states_);  // valid on the host, nowhere else
}

DataHandle::~DataHandle() {
  // Return any live device allocations to the manager's accounting (a
  // detached handle already did).
  if (manager_ == nullptr) return;
  for (std::size_t n = 1; n < replicas_.size(); ++n) {
    if (replicas_[n].storage != nullptr) {
      manager_->on_free(static_cast<MemoryNodeId>(n), bytes_);
    }
  }
}

bool DataHandle::is_partitioned() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return partitioned_locked();
}

bool DataHandle::partitioned_locked() const noexcept {
  return std::any_of(children_.begin(), children_.end(),
                     [](const std::weak_ptr<DataHandle>& c) { return !c.expired(); });
}

bool DataHandle::detached() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return detached_;
}

Engine* DataHandle::engine() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return manager_ != nullptr ? manager_->engine() : nullptr;
}

void DataHandle::check_attached_locked(const char* what) const {
  if (manager_ != nullptr) return;
  throw Error(ErrorCode::kInvalidState,
              std::string(what) + " of data handle " + std::to_string(id_) +
                  " after its engine shut down");
}

void DataHandle::keep_home_at_shutdown(bool keep) {
  std::lock_guard<std::mutex> lock(mutex_);
  keep_home_ = keep;
}

void DataHandle::detach() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (manager_ == nullptr) return;
  // A plain copy, not a simulated transfer: no link is charged and no
  // transfer fault can fire, so the engine's destructor cannot throw here.
  if (keep_home_) {
    const MemoryNodeId source = msi::fetch_source(
        states_, kHostNode, AccessMode::kRead, manager_->topo());
    if (source >= 0) {
      std::memcpy(replicas_[kHostNode].ptr,
                  replicas_[static_cast<std::size_t>(source)].ptr, bytes_);
    }
  }
  for (std::size_t n = 1; n < replicas_.size(); ++n) {
    Replica& replica = replicas_[n];
    if (replica.storage != nullptr) {
      manager_->on_free(static_cast<MemoryNodeId>(n), bytes_);
    }
    replica = Replica{};
  }
  msi::apply_host_reclaim(states_);
  manager_ = nullptr;
}

void DataHandle::ensure_allocated(MemoryNodeId node) {
  Replica& replica = replicas_[static_cast<std::size_t>(node)];
  if (replica.ptr != nullptr) return;
  check(node != kHostNode, "host replica must always have a pointer");
  // Account the allocation first: under memory pressure the manager evicts
  // other handles' unpinned replicas from this node to make room.
  manager_->on_allocate(node, bytes_, shared_from_this());
  replica.storage = std::make_unique<std::byte[]>(bytes_);
  replica.ptr = replica.storage.get();
}

VirtualTime DataHandle::fetch_locked(MemoryNodeId node, AccessMode mode) {
  const MemTopology& topo = manager_->topo();
  if (mode == AccessMode::kWrite) ensure_allocated(node);
  msi::apply_acquire(states_, node, mode, topo,
                     [&](MemoryNodeId from, MemoryNodeId to) {
    // Fault injection: a failing hop throws before its copy, and rt::msi
    // then records only the hops that already landed.
    manager_->notify_transfer_attempt(from, to, bytes_);
    ensure_allocated(to);
    const Replica& src = replicas_[static_cast<std::size_t>(from)];
    Replica& dst = replicas_[static_cast<std::size_t>(to)];
    std::memcpy(dst.ptr, src.ptr, bytes_);
    dst.valid_at = manager_->charge_link(from, to, bytes_, src.valid_at, id_);
  });
  return mode == AccessMode::kWrite
             ? 0.0
             : replicas_[static_cast<std::size_t>(node)].valid_at;
}

void* DataHandle::acquire(MemoryNodeId node, AccessMode mode,
                          VirtualTime* data_ready) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_attached_locked("acquire");
  if (detached_) {
    throw Error(ErrorCode::kInvalidState,
                "access to a sub-handle after unpartition()");
  }
  if (partitioned_locked()) {
    throw Error(ErrorCode::kInvalidState,
                "access to a partitioned handle before unpartition()");
  }
  check(node >= 0 && node < static_cast<int>(replicas_.size()),
        "acquire: bad memory node");
  const VirtualTime ready = fetch_locked(node, mode);
  if (mode == AccessMode::kRead) ++read_uses_;
  Replica& replica = replicas_[static_cast<std::size_t>(node)];
  if (node != kHostNode) ++replica.pins;  // released by release(node)
  if (data_ready != nullptr) *data_ready = ready;
  return replica.ptr;
}

PrefetchSkipReason DataHandle::prefetch(MemoryNodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A writer's count rises at submit, before its acquire can take this
  // mutex, and falls only after its kernel and write mark: a zero here
  // means every writer either finished or acquires after this copy.
  if (writers_in_flight_ > 0) return PrefetchSkipReason::kWriterRace;
  if (partitioned_locked()) return PrefetchSkipReason::kPartitioned;
  if (detached_) return PrefetchSkipReason::kDetached;
  check_attached_locked("prefetch");
  check(node >= 0 && node < static_cast<int>(replicas_.size()),
        "prefetch: bad memory node");
  fetch_locked(node, AccessMode::kRead);
  ++read_uses_;  // a read like any other: it feeds the plan's reuse
  return PrefetchSkipReason::kNone;
}

void DataHandle::release(MemoryNodeId node) {
  if (node == kHostNode) return;  // host replicas are never evicted
  std::lock_guard<std::mutex> lock(mutex_);
  check_attached_locked("release");
  Replica& replica = replicas_[static_cast<std::size_t>(node)];
  check(replica.pins > 0, "release without matching acquire");
  --replica.pins;
}

bool DataHandle::try_evict(MemoryNodeId node) {
  const MemTopology& topo = manager_->topo();
  if (topo.is_host(node)) return false;  // hosts are never evicted
  // try_lock breaks the symmetric-eviction deadlock: two handles allocating
  // concurrently can never wait on each other.
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  Replica& replica = replicas_[static_cast<std::size_t>(node)];
  if (replica.storage == nullptr || replica.pins > 0) return false;
  if (partitioned_locked()) return false;  // parent blocked by partition
  if (states_[static_cast<std::size_t>(node)] == ReplicaState::kOwned) {
    // Sole valid copy: flush it to its own node's host before dropping it
    // (§IV-D: future use "would require re-allocation" — and a fresh
    // transfer).
    fetch_locked(topo.home_host(node), AccessMode::kReadWrite);
  }
  msi::apply_evict(states_, node, topo);
  replica.storage.reset();
  replica.ptr = nullptr;
  manager_->on_free(node, bytes_);
  manager_->count(Counted::kEviction);
  return true;
}

void DataHandle::mark_written(MemoryNodeId node, VirtualTime vend) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_attached_locked("mark_written");
  check(states_[static_cast<std::size_t>(node)] == ReplicaState::kOwned,
        "mark_written on a non-owned replica");
  replicas_[static_cast<std::size_t>(node)].valid_at = vend;
}

void DataHandle::reset_virtual_time() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Replica& replica : replicas_) replica.valid_at = 0.0;
}

void DataHandle::plan_states(std::vector<ReplicaState>& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t n = 0; n < replicas_.size(); ++n) {
    out.push_back(replicas_[n].prefetch_pending > 0 &&
                          states_[n] == ReplicaState::kInvalid
                      ? ReplicaState::kShared
                      : states_[n]);
  }
}

std::uint64_t DataHandle::reads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return read_uses_;
}

ReplicaState DataHandle::replica_state(MemoryNodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return states_[static_cast<std::size_t>(node)];
}

void DataHandle::note_prefetch_queued(MemoryNodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++replicas_[static_cast<std::size_t>(node)].prefetch_pending;
}

void DataHandle::note_prefetch_done(MemoryNodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  Replica& replica = replicas_[static_cast<std::size_t>(node)];
  check(replica.prefetch_pending > 0,
        "note_prefetch_done without matching note_prefetch_queued");
  --replica.prefetch_pending;
}

std::vector<DataHandlePtr> DataHandle::partition(std::size_t parts) {
  check(parts > 0, "partition: parts must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  check_attached_locked("partition");
  if (parent_ != nullptr) {
    throw Error(ErrorCode::kUnsupported, "nested partitioning is not supported");
  }
  if (partitioned_locked()) {
    throw Error(ErrorCode::kInvalidState, "handle is already partitioned");
  }
  const std::size_t element_count = elements();
  if (parts > element_count) {
    throw Error(ErrorCode::kInvalidArgument,
                "cannot partition " + std::to_string(element_count) +
                    " elements into " + std::to_string(parts) + " parts");
  }

  // Make the host copy authoritative, then drop device replicas: children
  // alias host memory, so stale device copies of the parent must not linger.
  fetch_locked(kHostNode, AccessMode::kRead);
  msi::apply_host_reclaim(states_);

  std::vector<DataHandlePtr> out;
  children_.clear();
  const std::size_t base = element_count / parts;
  const std::size_t extra = element_count % parts;
  std::size_t offset_elems = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    const std::size_t count = base + (i < extra ? 1 : 0);
    const std::size_t offset_bytes = offset_elems * element_size_;
    auto child = DataHandlePtr(new DataHandle(
        manager_, static_cast<std::byte*>(host_ptr_) + offset_bytes,
        count * element_size_, element_size_));
    child->parent_ = this;
    child->parent_offset_bytes_ = offset_bytes;
    children_.push_back(child);
    manager_->note_handle(child);
    out.push_back(std::move(child));
    offset_elems += count;
  }
  return out;
}

void DataHandle::unpartition() {
  std::lock_guard<std::mutex> lock(mutex_);
  check_attached_locked("unpartition");
  // Flush each child home into the parent's memory; the child's host copy
  // is then the only one, so no stale replica of it can be written back.
  for (auto& weak_child : children_) {
    DataHandlePtr child = weak_child.lock();
    if (child == nullptr) continue;
    std::lock_guard<std::mutex> child_lock(child->mutex_);
    child->fetch_locked(kHostNode, AccessMode::kRead);
    msi::apply_host_reclaim(child->states_);
    child->detached_ = true;
  }
  children_.clear();
  msi::apply_host_reclaim(states_);
}

// ---------------------------------------------------------------------------
// DataManager
// ---------------------------------------------------------------------------

DataManager::DataManager(int node_count, sim::LinkProfile link)
    : DataManager(MemTopology::single_host(node_count), link, link) {}

DataManager::DataManager(MemTopology topo, sim::LinkProfile link,
                         sim::LinkProfile internode)
    : net_{std::move(topo), link, internode},
      node_count_(net_.topo.node_count()),
      capacities_(static_cast<std::size_t>(node_count_), 0),
      allocated_(static_cast<std::size_t>(node_count_), 0) {
  check(node_count_ >= 1, "need at least the host memory node");
  intra_lane_count_ =
      (net_.pcie.shared_bus || net_.topo.device_count() == 0)
          ? 1
          : 2 * static_cast<std::size_t>(net_.topo.device_count());
  // Two directed inter-node lanes per unordered pair of simulated nodes
  // (duplex, like the per-device PCIe lanes), appended after the intra
  // lanes.
  const std::size_t sims = static_cast<std::size_t>(net_.topo.sim_node_count());
  const std::size_t lane_count = intra_lane_count_ + sims * (sims - 1);
  lanes_.reserve(lane_count);
  for (std::size_t i = 0; i < lane_count; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

std::size_t DataManager::lane_index(MemoryNodeId from, MemoryNodeId to) const {
  const int from_sim = net_.topo.sim_node(from);
  const int to_sim = net_.topo.sim_node(to);
  if (from_sim == to_sim) {
    if (intra_lane_count_ == 1) return 0;  // shared bus (or no devices)
    const MemoryNodeId device = net_.topo.is_host(from) ? to : from;
    const int ordinal = net_.topo.device_ordinal(device);
    check(ordinal >= 0, "charge_link: bad device node");
    return 2 * static_cast<std::size_t>(ordinal) +
           (net_.topo.is_host(to) ? 1 : 0);
  }
  // Inter-node hops are host-to-host only (route_via splits everything
  // else). Unordered pair (i, j), i < j, in lexicographic order; the i->j
  // direction gets the even lane of the pair.
  check(net_.topo.is_host(from) && net_.topo.is_host(to),
        "charge_link: inter-node hop must be host to host");
  const std::size_t i = static_cast<std::size_t>(std::min(from_sim, to_sim));
  const std::size_t j = static_cast<std::size_t>(std::max(from_sim, to_sim));
  const std::size_t sims = static_cast<std::size_t>(net_.topo.sim_node_count());
  const std::size_t pair = i * (2 * sims - i - 1) / 2 + (j - i - 1);
  return intra_lane_count_ + 2 * pair + (from_sim < to_sim ? 0 : 1);
}

DataManager::Lane& DataManager::lane_for(MemoryNodeId from, MemoryNodeId to) {
  return *lanes_[lane_index(from, to)];
}

void DataManager::set_node_capacity(MemoryNodeId node, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  check(node > 0 && node < node_count_, "set_node_capacity: bad device node");
  capacities_[static_cast<std::size_t>(node)] = bytes;
}

std::size_t DataManager::node_allocated(MemoryNodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocated_[static_cast<std::size_t>(node)];
}

void DataManager::on_allocate(MemoryNodeId node, std::size_t bytes,
                              const std::shared_ptr<DataHandle>& owner) {
  std::vector<std::shared_ptr<DataHandle>> candidates;
  std::size_t capacity = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto n = static_cast<std::size_t>(node);
    allocated_[n] += bytes;
    compact_residents_locked();
    resident_handles_.push_back(owner);
    capacity = capacities_[n];
    if (capacity == 0 || allocated_[n] <= capacity) return;
    for (const auto& weak : resident_handles_) {
      std::shared_ptr<DataHandle> handle = weak.lock();
      if (handle != nullptr && handle != owner) {
        candidates.push_back(std::move(handle));
      }
    }
  }
  // Evict (outside the manager lock: eviction flushes may charge the link)
  // oldest-resident first until the node fits again.
  for (const auto& candidate : candidates) {
    if (node_allocated(node) <= capacity) return;
    candidate->try_evict(node);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (allocated_[static_cast<std::size_t>(node)] > capacity) {
    count(Counted::kOvercommit);
    log::warn("runtime",
              "device node {} overcommitted: {} bytes allocated, capacity {}",
              node, allocated_[static_cast<std::size_t>(node)], capacity);
  }
}

void DataManager::on_free(MemoryNodeId node, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& allocated = allocated_[static_cast<std::size_t>(node)];
  check(allocated >= bytes, "device allocation accounting underflow");
  allocated -= bytes;
  compact_residents_locked();
}

void DataManager::compact_residents_locked() {
  // Amortised: scan only when the list has doubled since the last compaction,
  // so free-heavy and allocate-heavy workloads both pay O(1) per event while
  // the dead-entry tail stays bounded by the live-entry count.
  if (resident_handles_.size() < compact_at_) return;
  std::erase_if(resident_handles_,
                [](const std::weak_ptr<DataHandle>& w) { return w.expired(); });
  compact_at_ = std::max<std::size_t>(16, resident_handles_.size() * 2);
}

DataHandlePtr DataManager::register_buffer(void* host_ptr, std::size_t bytes,
                                           std::size_t element_size) {
  check(host_ptr != nullptr, "register_buffer: null pointer");
  DataHandlePtr handle(new DataHandle(this, host_ptr, bytes, element_size));
  note_handle(handle);
  return handle;
}

void DataManager::detach_all() {
  // Collect under the manager lock, detach outside it: handle mutexes are
  // taken before the manager's (see reset_virtual_time).
  std::vector<DataHandlePtr> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& weak : all_handles_) {
      if (DataHandlePtr handle = weak.lock()) live.push_back(std::move(handle));
    }
  }
  for (const DataHandlePtr& handle : live) {
    handle->last_writer.reset();
    handle->readers_since_last_write.clear();
    handle->detach();
  }
}

void DataManager::note_handle(const DataHandlePtr& handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (all_handles_.size() >= handles_compact_at_) {
    std::erase_if(all_handles_, [](const std::weak_ptr<DataHandle>& w) {
      return w.expired();
    });
    handles_compact_at_ = std::max<std::size_t>(16, all_handles_.size() * 2);
  }
  all_handles_.push_back(handle);
}

VirtualTime DataManager::charge_link(MemoryNodeId from, MemoryNodeId to,
                                     std::size_t bytes, VirtualTime ready,
                                     std::uint64_t data_id) {
  const std::size_t lane_idx = lane_index(from, to);
  Lane& lane = *lanes_[lane_idx];
  std::lock_guard<std::mutex> lock(lane.mutex);
  const VirtualTime start = std::max(lane.free_at, ready);
  lane.free_at = start + sim::transfer_seconds(lane_profile(lane_idx), bytes);
  if (recorder_ != nullptr) {
    // Still under the lane mutex: lane order is the recording order.
    recorder_->record_transfer(static_cast<int>(lane_idx), lane.next_seq++,
                               from, to, bytes, start, lane.free_at, data_id);
  }
  return lane.free_at;
}

void DataManager::reset_virtual_time() {
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mutex);
    lane->free_at = 0.0;
  }
  // Replica validity timestamps are virtual times too: a replica staged
  // before the reset would otherwise appear to arrive at its stale (now
  // future) vtime and stall its first post-reset consumer. Collect the
  // live handles under the manager lock, then sweep them outside it —
  // handle mutexes are taken before the manager's on the allocation path,
  // never the other way around.
  std::vector<DataHandlePtr> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& weak : all_handles_) {
      if (DataHandlePtr handle = weak.lock()) live.push_back(std::move(handle));
    }
  }
  for (const DataHandlePtr& handle : live) handle->reset_virtual_time();
}

}  // namespace peppher::rt
