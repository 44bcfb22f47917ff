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
      states_(replicas_.size(), ReplicaState::kInvalid),
      plan_valid_at_(replicas_.size(), 0.0) {
  check(bytes > 0, "cannot register an empty buffer");
  check(element_size > 0 && bytes % element_size == 0,
        "buffer size must be a multiple of the element size");
  replicas_[kHostNode].ptr = host_ptr_;
  msi::apply_host_reclaim(states_);  // valid on the host, nowhere else
  plan_states_ = states_;
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

void DataHandle::fetch_locked(MemoryNodeId node, AccessMode mode) {
  const MemTopology& topo = manager_->topo();
  if (mode == AccessMode::kWrite) ensure_allocated(node);
  msi::apply_acquire(states_, node, mode, topo,
                     [&](MemoryNodeId from, MemoryNodeId to) {
    ensure_allocated(to);
    std::memcpy(replicas_[static_cast<std::size_t>(to)].ptr,
                replicas_[static_cast<std::size_t>(from)].ptr, bytes_);
  });
}

void* DataHandle::acquire(MemoryNodeId node, AccessMode mode) {
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
  fetch_locked(node, mode);
  Replica& replica = replicas_[static_cast<std::size_t>(node)];
  if (node != kHostNode) ++replica.pins;  // released by release(node)
  return replica.ptr;
}

PrefetchSkipReason DataHandle::prefetch(MemoryNodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (partitioned_locked()) return PrefetchSkipReason::kPartitioned;
  if (detached_) return PrefetchSkipReason::kDetached;
  // A writer's count rises at submit, before its acquire can take this
  // mutex, and falls only after its kernel and write mark: a zero here
  // means every writer either finished or acquires after this copy.
  if (writers_in_flight_ > 0) return PrefetchSkipReason::kWriterRace;
  check_attached_locked("prefetch");
  check(node >= 0 && node < static_cast<int>(replicas_.size()),
        "prefetch: bad memory node");
  fetch_locked(node, AccessMode::kRead);
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

void DataHandle::note_read() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++plan_reads_;
}

std::uint64_t DataHandle::reads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_reads_;
}

ReplicaState DataHandle::replica_state(MemoryNodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return states_[static_cast<std::size_t>(node)];
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

std::vector<DataHandlePtr> DataHandle::unpartition() {
  std::lock_guard<std::mutex> lock(mutex_);
  check_attached_locked("unpartition");
  // Flush each child home into the parent's memory; the child's host copy
  // is then the only one, so no stale replica of it can be written back.
  std::vector<DataHandlePtr> gathered;
  for (auto& weak_child : children_) {
    DataHandlePtr child = weak_child.lock();
    if (child == nullptr) continue;
    std::lock_guard<std::mutex> child_lock(child->mutex_);
    child->fetch_locked(kHostNode, AccessMode::kRead);
    msi::apply_host_reclaim(child->states_);
    child->detached_ = true;
    gathered.push_back(std::move(child));
  }
  children_.clear();
  msi::apply_host_reclaim(states_);
  return gathered;
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
  // Evict (outside the manager lock: an eviction flush takes the evicted
  // handle's mutex) oldest-resident first until the node fits again.
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
  // taken before the manager's on the allocation path, never after.
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

}  // namespace peppher::rt
