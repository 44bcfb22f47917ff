// Data-management tests: MSI coherence across memory nodes, transfer
// accounting, partitioning, and the paper's Figure 3 scenario (2 copy
// operations instead of 7 thanks to lazy smart-container coherence).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>

#include "runtime/engine.hpp"
#include "runtime/memory.hpp"
#include "runtime/msi.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

/// The books of a bare data manager: its recorder counts evictions and
/// overcommits as an Engine's would, and `acquire` counts the copies a
/// handle's acquire makes — the hops rt::msi walks over its real states,
/// which DataHandle::acquire copies one by one (an Engine counts hops where
/// the scheduler commits them); `transfers()` reads the traffic since
/// `reset()`.
class RecordedTraffic {
 public:
  explicit RecordedTraffic(DataManager& manager) : topo_(&manager.topo()) {
    recorder_.configure(manager.topo(), {}, false);
    manager.set_recorder(&recorder_);
  }
  /// DataHandle::acquire, counting its copies.
  void* acquire(const DataHandlePtr& handle, MemoryNodeId node,
                AccessMode mode) {
    count_fetch(*handle, node, mode);
    return handle->acquire(node, mode);
  }
  /// DataHandle::unpartition, counting each child's flush home.
  void unpartition(const DataHandlePtr& parent,
                   const std::vector<DataHandlePtr>& children) {
    for (const DataHandlePtr& child : children) {
      count_fetch(*child, kHostNode, AccessMode::kRead);
    }
    parent->unpartition();
  }
  TransferStats transfers() const {
    TransferStats stats = recorder_.books().since(baseline_).transfers();
    stats.host_to_device_count = copies_.host_to_device_count;
    stats.host_to_device_bytes = copies_.host_to_device_bytes;
    stats.device_to_host_count = copies_.device_to_host_count;
    stats.device_to_host_bytes = copies_.device_to_host_bytes;
    return stats;
  }
  void reset() {
    baseline_ = recorder_.books();
    copies_ = {};
  }

 private:
  void count_fetch(const DataHandle& handle, MemoryNodeId node,
                   AccessMode mode) {
    std::vector<ReplicaState> states;
    for (MemoryNodeId n = 0; n < topo_->node_count(); ++n) {
      states.push_back(handle.replica_state(n));
    }
    msi::apply_acquire(states, node, mode, *topo_,
                       [&](MemoryNodeId from, MemoryNodeId to) {
      if (topo_->is_host(from) && !topo_->is_host(to)) {
        ++copies_.host_to_device_count;
        copies_.host_to_device_bytes += handle.bytes();
      } else if (!topo_->is_host(from) && topo_->is_host(to)) {
        ++copies_.device_to_host_count;
        copies_.device_to_host_bytes += handle.bytes();
      }
    });
  }

  const MemTopology* topo_;
  Tracer recorder_;
  Books baseline_;
  TransferStats copies_;
};

/// Seconds a placement decision on memory node `node` charges for `mode`
/// access to `handle`: rt::Plan's fetch rule on the handle's plan view, a
/// read amortised over the handle's committed reads, as dmda prices it.
double decision_fetch(const DataManager& manager, const DataHandle& handle,
                      MemoryNodeId node, AccessMode mode) {
  std::vector<WorkerDesc> workers(1);
  workers[0].id = 0;
  workers[0].node = node;
  Plan plan(workers, &manager.interconnect());
  Plan::Task task;
  task.exec = {0.0};
  task.operands = {{plan.add_data(handle), mode, handle.bytes(),
                    mode == AccessMode::kRead
                        ? static_cast<double>(handle.reads())
                        : 1.0}};
  return plan.price(task, 0).fetch;
}

class MemoryTest : public ::testing::Test {
 protected:
  MemoryTest() : manager_(3, sim::LinkProfile::pcie2_x16()) {}  // host + 2 GPUs

  TransferStats stats() const { return traffic_.transfers(); }
  void* acquire(const DataHandlePtr& handle, MemoryNodeId node,
                AccessMode mode) {
    return traffic_.acquire(handle, node, mode);
  }

  DataManager manager_;
  RecordedTraffic traffic_{manager_};
};

TEST_F(MemoryTest, FreshHandleIsOwnedOnHost) {
  std::vector<float> data(16, 1.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  EXPECT_EQ(h->replica_state(kHostNode), ReplicaState::kOwned);
  EXPECT_EQ(h->replica_state(1), ReplicaState::kInvalid);
  EXPECT_EQ(h->bytes(), 64u);
  EXPECT_EQ(h->elements(), 16u);
}

TEST_F(MemoryTest, ReadAcquireCopiesAndShares) {
  std::vector<float> data(16);
  std::iota(data.begin(), data.end(), 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto* device_ptr = static_cast<float*>(acquire(h, 1, AccessMode::kRead));
  EXPECT_EQ(h->replica_state(kHostNode), ReplicaState::kShared);
  EXPECT_EQ(h->replica_state(1), ReplicaState::kShared);
  for (int i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(device_ptr[i], data[i]);
  EXPECT_EQ(stats().host_to_device_count, 1u);
}

TEST_F(MemoryTest, SecondReadAcquireIsFree) {
  std::vector<float> data(16, 2.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  acquire(h, 1, AccessMode::kRead);
  const auto before = stats().total_count();
  acquire(h, 1, AccessMode::kRead);
  EXPECT_EQ(stats().total_count(), before);
}

TEST_F(MemoryTest, WriteAcquireInvalidatesOthersWithoutTransfer) {
  std::vector<float> data(16, 3.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  acquire(h, 1, AccessMode::kWrite);
  EXPECT_EQ(stats().total_count(), 0u);  // W needs no fetch
  EXPECT_EQ(h->replica_state(1), ReplicaState::kOwned);
  EXPECT_EQ(h->replica_state(kHostNode), ReplicaState::kInvalid);
}

TEST_F(MemoryTest, ReadWriteFetchesThenOwns) {
  std::vector<float> data(16, 4.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto* ptr = static_cast<float*>(acquire(h, 1, AccessMode::kReadWrite));
  EXPECT_FLOAT_EQ(ptr[0], 4.0f);
  EXPECT_EQ(h->replica_state(1), ReplicaState::kOwned);
  EXPECT_EQ(h->replica_state(kHostNode), ReplicaState::kInvalid);
  EXPECT_EQ(stats().host_to_device_count, 1u);
}

TEST_F(MemoryTest, ModifiedDeviceDataFlowsBackToHost) {
  std::vector<float> data(8, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto* device = static_cast<float*>(acquire(h, 1, AccessMode::kWrite));
  for (int i = 0; i < 8; ++i) device[i] = 9.0f;
  acquire(h, kHostNode, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 9.0f);
  EXPECT_EQ(stats().device_to_host_count, 1u);
}

TEST_F(MemoryTest, DeviceToDeviceGoesThroughHost) {
  std::vector<float> data(8, 1.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto* d1 = static_cast<float*>(acquire(h, 1, AccessMode::kReadWrite));
  d1[0] = 42.0f;
  auto* d2 = static_cast<float*>(acquire(h, 2, AccessMode::kRead));
  EXPECT_FLOAT_EQ(d2[0], 42.0f);
  // One d2h (to host) + one h2d (to device 2).
  EXPECT_EQ(stats().device_to_host_count, 1u);
  EXPECT_EQ(stats().host_to_device_count, 2u);  // incl. first RW fetch
}

// A committed device-to-device fetch whose second hop fails keeps the first
// hop: the host copy that landed is Shared, the source is demoted — a
// consistent state the retry fetches from in one hop.
TEST_F(MemoryTest, FailedSecondHopKeepsTheHopThatLanded) {
  std::vector<WorkerDesc> workers(1);
  workers[0].id = 0;
  workers[0].node = 2;
  Plan plan(workers, &manager_.interconnect());
  const std::vector<ReplicaState> owned_on_1 = {
      ReplicaState::kInvalid, ReplicaState::kOwned, ReplicaState::kInvalid};
  Plan::Task task;
  task.exec = {1.0};
  task.operands = {{plan.add_data(owned_on_1), AccessMode::kRead, 64, 1.0}};
  bool fail_upload_to_2 = true;
  const Plan::HopFault fails = [&](MemoryNodeId from, MemoryNodeId to,
                                   std::size_t) {
    return fail_upload_to_2 && from == kHostNode && to == 2;
  };
  Plan::Hops hops;
  const Plan::Commit failed = plan.commit(task, 0, 1.0, &hops, &fails);
  EXPECT_TRUE(failed.failed);
  EXPECT_EQ(plan.states(0)[1], ReplicaState::kShared);
  EXPECT_EQ(plan.states(0)[kHostNode], ReplicaState::kShared);
  EXPECT_EQ(plan.states(0)[2], ReplicaState::kInvalid);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].from, 1);
  EXPECT_EQ(hops[0].to, kHostNode);
  // The attempt still held its worker for its time, from its start on.
  EXPECT_EQ(failed.start, 0.0);
  EXPECT_EQ(failed.end, 1.0);

  fail_upload_to_2 = false;
  hops.clear();
  EXPECT_FALSE(plan.commit(task, 0, 1.0, &hops, &fails).failed);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].from, kHostNode);
  EXPECT_EQ(hops[0].to, 2);
  EXPECT_EQ(plan.states(0)[2], ReplicaState::kShared);
}

// The Figure 3 walk-through: 4 component calls on the GPU + 2 application
// accesses => exactly 2 copy operations (not 7).
TEST_F(MemoryTest, Figure3ScenarioNeedsOnlyTwoCopies) {
  std::vector<float> v0(1024, 0.0f);
  auto h = manager_.register_buffer(v0.data(), v0.size() * sizeof(float),
                                    sizeof(float));
  traffic_.reset();

  // line 4: comp1(v0, write) on GPU — allocation only, no copy.
  auto* d = static_cast<float*>(acquire(h, 1, AccessMode::kWrite));
  for (int i = 0; i < 1024; ++i) d[i] = 1.0f;

  // line 6: application reads an element — first copy (device -> host).
  acquire(h, kHostNode, AccessMode::kRead);
  EXPECT_FLOAT_EQ(v0[7], 1.0f);

  // line 8: comp2(v0, readwrite) on GPU — device copy still valid, no copy.
  d = static_cast<float*>(acquire(h, 1, AccessMode::kReadWrite));
  for (int i = 0; i < 1024; ++i) d[i] += 1.0f;

  // lines 10, 12: comp3/comp4 read on GPU — no copies.
  acquire(h, 1, AccessMode::kRead);
  acquire(h, 1, AccessMode::kRead);

  // line 14: application writes — second copy (device -> host), then the
  // device replica is outdated.
  acquire(h, kHostNode, AccessMode::kReadWrite);
  EXPECT_FLOAT_EQ(v0[7], 2.0f);
  v0[7] = 5.0f;

  EXPECT_EQ(stats().total_count(), 2u);
  EXPECT_EQ(stats().device_to_host_count, 2u);
  EXPECT_EQ(h->replica_state(1), ReplicaState::kInvalid);
}

// -- estimates -----------------------------------------------------------------

TEST_F(MemoryTest, FetchEstimateMatchesLinkModel) {
  std::vector<float> data(1 << 20, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  const double est = decision_fetch(manager_, *h, 1, AccessMode::kRead);
  EXPECT_NEAR(est,
              sim::transfer_seconds(manager_.interconnect().pcie, h->bytes()),
              1e-12);
  EXPECT_DOUBLE_EQ(decision_fetch(manager_, *h, 1, AccessMode::kWrite), 0.0);
  EXPECT_DOUBLE_EQ(decision_fetch(manager_, *h, kHostNode, AccessMode::kRead),
                   0.0);
}

/// Lanes of `manager`'s interconnect, as the scheduler's plan reserves
/// them: `copy(from, to)` fetches 8 MiB valid only on `from` to `to` and
/// returns when they arrive.
class Lanes {
 public:
  explicit Lanes(const DataManager& manager)
      : workers_(1), plan_(workers_, &manager.interconnect()),
        nodes_(static_cast<std::size_t>(manager.node_count())) {
    workers_[0].id = 0;
  }
  VirtualTime copy(MemoryNodeId from, MemoryNodeId to) {
    std::vector<ReplicaState> states(nodes_, ReplicaState::kInvalid);
    states[static_cast<std::size_t>(from)] = ReplicaState::kOwned;
    return plan_.access(plan_.add_data(states), to, AccessMode::kRead,
                        8 << 20);
  }

 private:
  std::vector<WorkerDesc> workers_;
  Plan plan_;
  std::size_t nodes_;
};

TEST_F(MemoryTest, LinkContentionSerialisesTransfers) {
  // Same direction, same device: the two transfers queue on one lane.
  Lanes lanes(manager_);
  const VirtualTime end1 = lanes.copy(kHostNode, 1);
  const VirtualTime end2 = lanes.copy(kHostNode, 1);
  EXPECT_GT(end2, end1);
  EXPECT_NEAR(end2, 2.0 * end1, end1 * 0.01 + 2e-5);
}

TEST_F(MemoryTest, DuplexLanesDoNotContend) {
  // Different devices and different directions each get their own lane, so
  // the four transfers all start at vtime 0 and finish together.
  Lanes lanes(manager_);
  const VirtualTime up1 = lanes.copy(kHostNode, 1);
  const VirtualTime up2 = lanes.copy(kHostNode, 2);
  const VirtualTime down1 = lanes.copy(1, kHostNode);
  const VirtualTime down2 = lanes.copy(2, kHostNode);
  EXPECT_DOUBLE_EQ(up1, up2);
  EXPECT_DOUBLE_EQ(up1, down1);
  EXPECT_DOUBLE_EQ(up1, down2);
  EXPECT_NEAR(up1,
              sim::transfer_seconds(manager_.interconnect().pcie, 8 << 20),
              1e-12);
}

TEST_F(MemoryTest, SharedBusModeKeepsOneClockForEverything) {
  DataManager shared(3, sim::LinkProfile::pcie2_x16_shared());
  Lanes lanes(shared);
  const VirtualTime end1 = lanes.copy(kHostNode, 1);
  const VirtualTime end2 = lanes.copy(2, kHostNode);
  EXPECT_GT(end2, end1);  // opposite direction, other device: still queued
  EXPECT_NEAR(end2, 2.0 * end1, end1 * 0.01 + 2e-5);
}

// -- partitioning ---------------------------------------------------------------

TEST_F(MemoryTest, PartitionSplitsElementsContiguously) {
  std::vector<float> data(10);
  std::iota(data.begin(), data.end(), 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(3);
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0]->elements(), 4u);  // 10 = 4 + 3 + 3
  EXPECT_EQ(children[1]->elements(), 3u);
  EXPECT_EQ(children[2]->elements(), 3u);
  EXPECT_TRUE(h->is_partitioned());

  auto* c1 = static_cast<float*>(children[1]->acquire(kHostNode,
                                                      AccessMode::kRead));
  EXPECT_FLOAT_EQ(c1[0], 4.0f);  // second block starts at element 4
}

TEST_F(MemoryTest, ParentUnusableWhilePartitioned) {
  std::vector<float> data(8, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(2);
  EXPECT_THROW(h->acquire(kHostNode, AccessMode::kRead), Error);
  EXPECT_THROW(h->partition(2), Error);
}

TEST_F(MemoryTest, UnpartitionGathersChildDeviceData) {
  std::vector<float> data(8, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(2);
  // Child 0 modified on device 1; child 1 modified on device 2.
  for (std::size_t c = 0; c < 2; ++c) {
    auto* p = static_cast<float*>(
        children[c]->acquire(static_cast<MemoryNodeId>(c + 1),
                             AccessMode::kWrite));
    for (std::size_t i = 0; i < children[c]->elements(); ++i) {
      p[i] = static_cast<float>(c + 1);
    }
  }
  h->unpartition();
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(data[i], 1.0f);
  for (int i = 4; i < 8; ++i) EXPECT_FLOAT_EQ(data[i], 2.0f);
  // Children are dead now.
  EXPECT_THROW(children[0]->acquire(kHostNode, AccessMode::kRead), Error);
  // Parent works again.
  EXPECT_NO_THROW(h->acquire(kHostNode, AccessMode::kRead));
}

TEST_F(MemoryTest, PartitionMoreThanElementsThrows) {
  std::vector<float> data(2, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  EXPECT_THROW(h->partition(5), Error);
  EXPECT_THROW(h->partition(0), Error);
}

TEST_F(MemoryTest, NestedPartitionUnsupported) {
  std::vector<float> data(8, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(2);
  EXPECT_THROW(children[0]->partition(2), Error);
}

TEST_F(MemoryTest, RegisterRejectsBadArguments) {
  std::vector<float> data(4, 0.0f);
  EXPECT_THROW(manager_.register_buffer(nullptr, 16, 4), Error);
  EXPECT_THROW(manager_.register_buffer(data.data(), 0, 4), Error);
  EXPECT_THROW(manager_.register_buffer(data.data(), 15, 4), Error);  // not multiple
}

// -- device memory capacity & eviction (§IV-D) ---------------------------------

class EvictionTest : public ::testing::Test {
 protected:
  EvictionTest() : manager_(2, sim::LinkProfile::pcie2_x16()) {
    manager_.set_node_capacity(1, 1024);  // tiny device: 1 KiB
  }

  DataHandlePtr make_handle(std::vector<float>& storage, std::size_t floats) {
    storage.assign(floats, 1.0f);
    return manager_.register_buffer(storage.data(), floats * sizeof(float),
                                    sizeof(float));
  }

  TransferStats stats() const { return traffic_.transfers(); }
  void* acquire(const DataHandlePtr& handle, MemoryNodeId node,
                AccessMode mode) {
    return traffic_.acquire(handle, node, mode);
  }

  DataManager manager_;
  RecordedTraffic traffic_{manager_};
};

TEST_F(EvictionTest, UnpinnedReplicaIsEvictedUnderPressure) {
  std::vector<float> a_data, b_data;
  auto a = make_handle(a_data, 128);  // 512 B
  auto b = make_handle(b_data, 128);  // 512 B

  a->acquire(1, AccessMode::kRead);
  a->release(1);
  EXPECT_EQ(manager_.node_allocated(1), 512u);

  b->acquire(1, AccessMode::kRead);
  b->release(1);
  EXPECT_EQ(manager_.node_allocated(1), 1024u);  // exactly at capacity

  // A third 512 B allocation must evict the oldest resident (a).
  std::vector<float> c_data;
  auto c = make_handle(c_data, 128);
  c->acquire(1, AccessMode::kRead);
  c->release(1);
  EXPECT_EQ(manager_.node_allocated(1), 1024u);
  EXPECT_EQ(a->replica_state(1), ReplicaState::kInvalid);
  EXPECT_EQ(b->replica_state(1), ReplicaState::kShared);
  EXPECT_EQ(stats().evictions, 1u);
  EXPECT_EQ(stats().overcommits, 0u);
}

TEST_F(EvictionTest, PinnedReplicasAreNeverEvicted) {
  std::vector<float> a_data, b_data;
  auto a = make_handle(a_data, 192);  // 768 B, stays pinned
  auto b = make_handle(b_data, 128);  // 512 B -> exceeds capacity
  a->acquire(1, AccessMode::kRead);  // no release: pinned
  b->acquire(1, AccessMode::kRead);
  EXPECT_EQ(a->replica_state(1), ReplicaState::kShared);  // survived
  EXPECT_EQ(stats().evictions, 0u);
  EXPECT_EQ(stats().overcommits, 1u);  // nothing evictable
  EXPECT_GT(manager_.node_allocated(1), 1024u);
  a->release(1);
  b->release(1);
}

TEST_F(EvictionTest, OwnedReplicaIsFlushedHomeBeforeEviction) {
  std::vector<float> a_data, b_data;
  auto a = make_handle(a_data, 192);
  auto* device = static_cast<float*>(a->acquire(1, AccessMode::kWrite));
  for (int i = 0; i < 192; ++i) device[i] = 7.0f;
  a->release(1);

  // Pressure from a second handle evicts a's Owned replica: the data must
  // land back on the host, not be lost.
  auto b = make_handle(b_data, 128);
  b->acquire(1, AccessMode::kRead);
  b->release(1);
  EXPECT_EQ(a->replica_state(1), ReplicaState::kInvalid);
  EXPECT_EQ(a->replica_state(kHostNode), ReplicaState::kOwned);
  for (float v : a_data) ASSERT_FLOAT_EQ(v, 7.0f);
  EXPECT_EQ(stats().evictions, 1u);
}

TEST_F(EvictionTest, EvictedDataIsRefetchedOnNextUse) {
  std::vector<float> a_data, b_data;
  auto a = make_handle(a_data, 192);
  acquire(a, 1, AccessMode::kRead);
  a->release(1);
  auto b = make_handle(b_data, 192);
  acquire(b, 1, AccessMode::kRead);
  b->release(1);
  ASSERT_EQ(a->replica_state(1), ReplicaState::kInvalid);  // evicted
  // Re-acquiring re-allocates and re-transfers (the §IV-D caveat).
  const auto before = stats().host_to_device_count;
  auto* ptr = static_cast<float*>(acquire(a, 1, AccessMode::kRead));
  EXPECT_FLOAT_EQ(ptr[0], 1.0f);
  EXPECT_EQ(stats().host_to_device_count, before + 1);
  a->release(1);
}

TEST_F(EvictionTest, DyingHandleReturnsItsAllocation) {
  std::vector<float> a_data;
  {
    auto a = make_handle(a_data, 128);
    a->acquire(1, AccessMode::kRead);
    a->release(1);
    EXPECT_EQ(manager_.node_allocated(1), 512u);
  }
  EXPECT_EQ(manager_.node_allocated(1), 0u);
}

TEST_F(MemoryTest, StatsTrackBytes) {
  std::vector<float> data(256, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  acquire(h, 1, AccessMode::kRead);
  EXPECT_EQ(stats().host_to_device_bytes, 1024u);
  traffic_.reset();
  EXPECT_EQ(stats().total_count(), 0u);
}

// -- partition/unpartition transfer accounting (hybrid SpMV chunk pattern) ----

// The hybrid SpMV upload: contiguous sibling chunks stream to one device.
// Exact counts — every chunk is one transfer.
TEST_F(MemoryTest, PartitionedChunkUploadsCountExactly) {
  std::vector<float> data(4096, 1.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(4);
  for (auto& child : children) {
    acquire(child, 1, AccessMode::kRead);
    child->release(1);
  }
  EXPECT_EQ(stats().host_to_device_count, 4u);
  EXPECT_EQ(stats().device_to_host_count, 0u);
  // Read-shared children leave the host copy valid: gathering needs no
  // transfers at all.
  traffic_.unpartition(h, children);
  EXPECT_EQ(stats().device_to_host_count, 0u);
}

// Same pattern on the legacy shared bus: one transfer per chunk on the
// single half-duplex clock.
TEST(SharedBusAccounting, ChunkUploadsNeverCoalesce) {
  DataManager manager(2, sim::LinkProfile::pcie2_x16_shared());
  RecordedTraffic traffic(manager);
  std::vector<float> data(4096, 1.0f);
  auto h = manager.register_buffer(data.data(), data.size() * sizeof(float),
                                   sizeof(float));
  auto children = h->partition(4);
  for (auto& child : children) {
    traffic.acquire(child, 1, AccessMode::kRead);
    child->release(1);
  }
  EXPECT_EQ(traffic.transfers().host_to_device_count, 4u);
}

// Device-written chunks gathered by unpartition(): one download per chunk.
TEST_F(MemoryTest, UnpartitionWritebackCountsExactly) {
  std::vector<float> data(1024, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(4);
  for (std::size_t c = 0; c < children.size(); ++c) {
    auto* p = static_cast<float*>(
        acquire(children[c], 1, AccessMode::kWrite));
    for (std::size_t i = 0; i < children[c]->elements(); ++i) {
      p[i] = static_cast<float>(c);
    }
    children[c]->release(1);
  }
  EXPECT_EQ(stats().host_to_device_count, 0u);  // kWrite fetches nothing
  traffic_.unpartition(h, children);
  EXPECT_EQ(stats().device_to_host_count, 4u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_FLOAT_EQ(data[i], static_cast<float>(i / 256));
  }
}

// -- prefetch semantics (engine-level) ----------------------------------------

EngineConfig prefetch_engine_config() {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  return config;
}

// A prefetch warms a replica but must not pin it: warmed data is the first
// thing to go under memory pressure.
TEST(PrefetchSemantics, PrefetchedReplicaIsEvictableNotPinned) {
  Engine engine(prefetch_engine_config());
  engine.set_node_capacity(1, 1024);
  std::vector<float> a_data(128, 1.0f), b_data(128, 2.0f), c_data(128, 3.0f);
  auto a = engine.register_buffer(a_data.data(), 512, sizeof(float));
  auto b = engine.register_buffer(b_data.data(), 512, sizeof(float));
  auto c = engine.register_buffer(c_data.data(), 512, sizeof(float));
  EXPECT_TRUE(engine.prefetch(a, 1));
  EXPECT_TRUE(engine.prefetch(b, 1));  // device now exactly full
  // The third prefetch must evict the oldest warmed replica (a), not
  // overcommit as it would for pinned operands.
  EXPECT_TRUE(engine.prefetch(c, 1));
  EXPECT_EQ(a->replica_state(1), ReplicaState::kInvalid);
  EXPECT_EQ(b->replica_state(1), ReplicaState::kShared);
  EXPECT_EQ(c->replica_state(1), ReplicaState::kShared);
  EXPECT_EQ(engine.transfer_stats().evictions, 1u);
  EXPECT_EQ(engine.transfer_stats().overcommits, 0u);
}

// A prefetch racing an in-flight writer is dropped, and the write leaves the
// device replica invalid — never resurrected with stale bits.
TEST(PrefetchSemantics, PrefetchRacedByWriterIsSkippedNotResurrected) {
  Engine engine(prefetch_engine_config());
  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));

  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  Codelet codelet("gated_double");
  Implementation impl;
  impl.arch = Arch::kCpu;
  impl.name = "gated_double_cpu";
  impl.fn = [&](ExecContext& ctx) {
    started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    auto* d = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) d[i] *= 2.0f;
  };
  impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{static_cast<double>(bytes[0]),
                           static_cast<double>(bytes[0]), 1.0};
  };
  codelet.add_impl(std::move(impl));

  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  engine.submit(std::move(spec));
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  EXPECT_FALSE(engine.prefetch(handle, 1));  // writer in flight: dropped
  EXPECT_EQ(handle->replica_state(1), ReplicaState::kInvalid);
  gate.store(true, std::memory_order_release);
  engine.wait_for_all();
  // The dropped prefetch stays dropped: no stale device replica appears.
  EXPECT_EQ(handle->replica_state(1), ReplicaState::kInvalid);
  // A fresh prefetch now sees the written data.
  EXPECT_TRUE(engine.prefetch(handle, 1));
  EXPECT_EQ(handle->replica_state(1), ReplicaState::kShared);
}

// A writer that is submitted but has not even started — it waits in its
// worker's queue behind a gated task — already blocks the real copy of a
// prefetch of its handle: nothing is copied, and the write later finds no
// stale replica. The prefetch still commits its fetch on the timeline,
// after the writer's commit, which is when the written data can move.
TEST(PrefetchSemantics, PrefetchSkipsWriterStillQueued) {
  Engine engine(prefetch_engine_config());
  WorkerId cpu = -1;
  for (const WorkerDesc& desc : engine.workers()) {
    if (desc.node == kHostNode && !desc.is_combined_cpu) {
      cpu = desc.id;
      break;
    }
  }
  ASSERT_GE(cpu, 0);
  std::vector<float> gate_data(16, 1.0f);
  std::vector<float> data(64, 1.0f);
  auto gated = engine.register_buffer(gate_data.data(),
                                      gate_data.size() * sizeof(float),
                                      sizeof(float));
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));

  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  std::atomic<bool> writer_ran{false};
  Codelet hold("hold");
  hold.add_impl({Arch::kCpu, "hold_cpu",
                 [&](ExecContext&) {
                   started.store(true, std::memory_order_release);
                   while (!gate.load(std::memory_order_acquire)) {
                     std::this_thread::yield();
                   }
                 },
                 nullptr});
  Codelet twice("twice");
  twice.add_impl({Arch::kCpu, "twice_cpu",
                  [&](ExecContext& ctx) {
                    writer_ran.store(true, std::memory_order_release);
                    auto* d = ctx.buffer_as<float>(0);
                    for (std::size_t i = 0; i < ctx.elements(0); ++i) {
                      d[i] *= 2.0f;
                    }
                  },
                  nullptr});
  TaskSpec hold_spec;
  hold_spec.codelet = &hold;
  hold_spec.operands = {{gated, AccessMode::kReadWrite}};
  hold_spec.forced_worker = cpu;
  engine.submit(std::move(hold_spec));
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  TaskSpec write_spec;
  write_spec.codelet = &twice;
  write_spec.operands = {{handle, AccessMode::kReadWrite}};
  write_spec.forced_worker = cpu;  // queued behind the gated task
  engine.submit(std::move(write_spec));

  engine.reset_transfer_stats();
  EXPECT_FALSE(engine.prefetch(handle, 1));
  EXPECT_FALSE(writer_ran.load(std::memory_order_acquire));
  EXPECT_EQ(handle->replica_state(1), ReplicaState::kInvalid);
  EXPECT_EQ(engine.transfer_stats().host_to_device_count, 1u);

  gate.store(true, std::memory_order_release);
  engine.wait_for_all();
  EXPECT_EQ(handle->replica_state(1), ReplicaState::kInvalid);
  EXPECT_TRUE(engine.prefetch(handle, 1));
  engine.acquire_host(handle, AccessMode::kRead);
  for (const float v : data) ASSERT_FLOAT_EQ(v, 2.0f);
}

// Prefetch under capacity pressure must overcommit rather than evict the
// pinned operand of a task that is executing right now.
TEST(PrefetchSemantics, PrefetchPressureNeverEvictsPinnedOperandOfRunningTask) {
  Engine engine(prefetch_engine_config());
  engine.set_node_capacity(1, 1024);
  std::vector<float> a_data(192, 1.0f);  // 768 B: pinned while the task runs
  std::vector<float> b_data(128, 2.0f);  // 512 B: prefetch does not fit
  auto a = engine.register_buffer(a_data.data(), 768, sizeof(float));
  auto b = engine.register_buffer(b_data.data(), 512, sizeof(float));

  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  Codelet codelet("gated_double");
  Implementation impl;
  impl.arch = Arch::kCuda;
  impl.name = "gated_double_cuda";
  impl.fn = [&](ExecContext& ctx) {
    started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    auto* d = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) d[i] *= 2.0f;
  };
  impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{static_cast<double>(bytes[0]),
                           static_cast<double>(bytes[0]), 1.0};
  };
  codelet.add_impl(std::move(impl));

  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{a, AccessMode::kReadWrite}};
  spec.forced_arch = Arch::kCuda;
  engine.submit(std::move(spec));
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  // a is pinned on node 1 by the running task; warming b must not touch it.
  engine.prefetch(b, 1);
  EXPECT_NE(a->replica_state(1), ReplicaState::kInvalid);
  EXPECT_EQ(engine.transfer_stats().evictions, 0u);
  EXPECT_GE(engine.transfer_stats().overcommits, 1u);

  gate.store(true, std::memory_order_release);
  engine.wait_for_all();
  engine.acquire_host(a, AccessMode::kRead);
  for (const float v : a_data) ASSERT_FLOAT_EQ(v, 2.0f);
}

}  // namespace
}  // namespace peppher::rt
