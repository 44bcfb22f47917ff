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
#include "support/error.hpp"

namespace peppher::rt {
namespace {

/// A recorder attached to a bare data manager keeps the books an Engine
/// would keep; `transfers()` reads the traffic since `reset()`.
class RecordedTraffic {
 public:
  explicit RecordedTraffic(DataManager& manager) {
    recorder_.configure(manager.topo(), {}, false);
    manager.set_recorder(&recorder_);
  }
  TransferStats transfers() const {
    return recorder_.books().since(baseline_).transfers();
  }
  void reset() { baseline_ = recorder_.books(); }

 private:
  Tracer recorder_;
  Books baseline_;
};

/// Seconds a placement decision on memory node `node` charges for `mode`
/// access to `handle`: rt::Plan's fetch rule on the handle's live state, a
/// read amortised over the handle's reads, as dmda prices it.
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
  VirtualTime ready = -1.0;
  auto* device_ptr = static_cast<float*>(h->acquire(1, AccessMode::kRead, &ready));
  EXPECT_GT(ready, 0.0);  // a transfer happened
  EXPECT_EQ(h->replica_state(kHostNode), ReplicaState::kShared);
  EXPECT_EQ(h->replica_state(1), ReplicaState::kShared);
  for (int i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(device_ptr[i], data[i]);
  EXPECT_EQ(stats().host_to_device_count, 1u);
}

TEST_F(MemoryTest, SecondReadAcquireIsFree) {
  std::vector<float> data(16, 2.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  h->acquire(1, AccessMode::kRead, nullptr);
  const auto before = stats().total_count();
  VirtualTime ready = -1.0;
  h->acquire(1, AccessMode::kRead, &ready);
  EXPECT_EQ(stats().total_count(), before);
}

TEST_F(MemoryTest, WriteAcquireInvalidatesOthersWithoutTransfer) {
  std::vector<float> data(16, 3.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  h->acquire(1, AccessMode::kWrite, nullptr);
  EXPECT_EQ(stats().total_count(), 0u);  // W needs no fetch
  EXPECT_EQ(h->replica_state(1), ReplicaState::kOwned);
  EXPECT_EQ(h->replica_state(kHostNode), ReplicaState::kInvalid);
}

TEST_F(MemoryTest, ReadWriteFetchesThenOwns) {
  std::vector<float> data(16, 4.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto* ptr = static_cast<float*>(h->acquire(1, AccessMode::kReadWrite, nullptr));
  EXPECT_FLOAT_EQ(ptr[0], 4.0f);
  EXPECT_EQ(h->replica_state(1), ReplicaState::kOwned);
  EXPECT_EQ(h->replica_state(kHostNode), ReplicaState::kInvalid);
  EXPECT_EQ(stats().host_to_device_count, 1u);
}

TEST_F(MemoryTest, ModifiedDeviceDataFlowsBackToHost) {
  std::vector<float> data(8, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto* device = static_cast<float*>(h->acquire(1, AccessMode::kWrite, nullptr));
  for (int i = 0; i < 8; ++i) device[i] = 9.0f;
  h->mark_written(1, 1.0);
  h->acquire(kHostNode, AccessMode::kRead, nullptr);
  for (float v : data) EXPECT_FLOAT_EQ(v, 9.0f);
  EXPECT_EQ(stats().device_to_host_count, 1u);
}

TEST_F(MemoryTest, DeviceToDeviceGoesThroughHost) {
  std::vector<float> data(8, 1.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto* d1 = static_cast<float*>(h->acquire(1, AccessMode::kReadWrite, nullptr));
  d1[0] = 42.0f;
  h->mark_written(1, 1.0);
  auto* d2 = static_cast<float*>(h->acquire(2, AccessMode::kRead, nullptr));
  EXPECT_FLOAT_EQ(d2[0], 42.0f);
  // One d2h (to host) + one h2d (to device 2).
  EXPECT_EQ(stats().device_to_host_count, 1u);
  EXPECT_EQ(stats().host_to_device_count, 2u);  // incl. first RW fetch
}

// The Figure 3 walk-through: 4 component calls on the GPU + 2 application
// accesses => exactly 2 copy operations (not 7).
TEST_F(MemoryTest, Figure3ScenarioNeedsOnlyTwoCopies) {
  std::vector<float> v0(1024, 0.0f);
  auto h = manager_.register_buffer(v0.data(), v0.size() * sizeof(float),
                                    sizeof(float));
  traffic_.reset();

  // line 4: comp1(v0, write) on GPU — allocation only, no copy.
  auto* d = static_cast<float*>(h->acquire(1, AccessMode::kWrite, nullptr));
  for (int i = 0; i < 1024; ++i) d[i] = 1.0f;
  h->mark_written(1, 1.0);

  // line 6: application reads an element — first copy (device -> host).
  h->acquire(kHostNode, AccessMode::kRead, nullptr);
  EXPECT_FLOAT_EQ(v0[7], 1.0f);

  // line 8: comp2(v0, readwrite) on GPU — device copy still valid, no copy.
  d = static_cast<float*>(h->acquire(1, AccessMode::kReadWrite, nullptr));
  for (int i = 0; i < 1024; ++i) d[i] += 1.0f;
  h->mark_written(1, 2.0);

  // lines 10, 12: comp3/comp4 read on GPU — no copies.
  h->acquire(1, AccessMode::kRead, nullptr);
  h->acquire(1, AccessMode::kRead, nullptr);

  // line 14: application writes — second copy (device -> host), then the
  // device replica is outdated.
  h->acquire(kHostNode, AccessMode::kReadWrite, nullptr);
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
  EXPECT_NEAR(est, manager_.estimate_link_seconds(h->bytes()), 1e-12);
  EXPECT_DOUBLE_EQ(decision_fetch(manager_, *h, 1, AccessMode::kWrite), 0.0);
  EXPECT_DOUBLE_EQ(decision_fetch(manager_, *h, kHostNode, AccessMode::kRead),
                   0.0);
}

TEST_F(MemoryTest, LinkContentionSerialisesTransfers) {
  // Same direction, same device: the two transfers queue on one lane.
  const VirtualTime end1 = manager_.charge_link(kHostNode, 1, 8 << 20, 0.0);
  const VirtualTime end2 = manager_.charge_link(kHostNode, 1, 8 << 20, 0.0);
  EXPECT_GT(end2, end1);
  EXPECT_NEAR(end2, 2.0 * end1, end1 * 0.01 + 2e-5);
}

TEST_F(MemoryTest, DuplexLanesDoNotContend) {
  // Different devices and different directions each get their own lane, so
  // the four transfers all start at vtime 0 and finish together.
  const VirtualTime up1 = manager_.charge_link(kHostNode, 1, 8 << 20, 0.0);
  const VirtualTime up2 = manager_.charge_link(kHostNode, 2, 8 << 20, 0.0);
  const VirtualTime down1 = manager_.charge_link(1, kHostNode, 8 << 20, 0.0);
  const VirtualTime down2 = manager_.charge_link(2, kHostNode, 8 << 20, 0.0);
  EXPECT_DOUBLE_EQ(up1, up2);
  EXPECT_DOUBLE_EQ(up1, down1);
  EXPECT_DOUBLE_EQ(up1, down2);
  EXPECT_NEAR(up1, manager_.estimate_link_seconds(8 << 20), 1e-12);
}

TEST_F(MemoryTest, SharedBusModeKeepsOneClockForEverything) {
  DataManager shared(3, sim::LinkProfile::pcie2_x16_shared());
  const VirtualTime end1 = shared.charge_link(kHostNode, 1, 8 << 20, 0.0);
  const VirtualTime end2 = shared.charge_link(2, kHostNode, 8 << 20, 0.0);
  EXPECT_GT(end2, end1);  // opposite direction, other device: still queued
  EXPECT_NEAR(end2, 2.0 * end1, end1 * 0.01 + 2e-5);
}

TEST_F(MemoryTest, ContiguousChunksCoalesceIntoOneBurst) {
  // Two contiguous 1 MiB chunks of one host array moving to the same device:
  // the second charge continues the burst and pays no link latency.
  std::vector<float> data(1 << 19, 0.0f);  // 2 MiB
  const auto* base = reinterpret_cast<const std::byte*>(data.data());
  const std::size_t half = (1 << 20);
  const VirtualTime end1 = manager_.charge_link(kHostNode, 1, half, 0.0, base);
  const VirtualTime end2 =
      manager_.charge_link(kHostNode, 1, half, 0.0, base + half);
  const double latency = manager_.estimate_link_seconds(0);
  const double bandwidth_part = manager_.estimate_link_seconds(half) - latency;
  EXPECT_NEAR(end2 - end1, bandwidth_part, 1e-12);  // no second latency
  EXPECT_EQ(stats().coalesced_transfers, 1u);

  // A non-contiguous follow-up starts a fresh burst and pays latency again.
  const VirtualTime end3 = manager_.charge_link(kHostNode, 1, half, 0.0, base);
  EXPECT_NEAR(end3 - end2, latency + bandwidth_part, 1e-12);
  EXPECT_EQ(stats().coalesced_transfers, 1u);
}

TEST_F(MemoryTest, CoalescingRespectsTheIdleWindow) {
  std::vector<float> data(1 << 19, 0.0f);
  const auto* base = reinterpret_cast<const std::byte*>(data.data());
  const std::size_t half = (1 << 20);
  const VirtualTime end1 = manager_.charge_link(kHostNode, 1, half, 0.0, base);
  // Ready long after the burst went idle: the DMA engine has moved on.
  const double gap = manager_.link().coalesce_window_us * 1e-6 * 10.0;
  manager_.charge_link(kHostNode, 1, half, end1 + gap, base + half);
  EXPECT_EQ(stats().coalesced_transfers, 0u);
}

TEST_F(MemoryTest, PendingPrefetchZeroesTheFetchEstimate) {
  std::vector<float> data(1 << 20, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  const auto fetch = [&](MemoryNodeId node) {
    return decision_fetch(manager_, *h, node, AccessMode::kRead);
  };
  ASSERT_GT(fetch(1), 0.0);
  h->note_prefetch_queued(1);
  // In-flight prefetch: the transfer is already being paid for.
  EXPECT_DOUBLE_EQ(fetch(1), 0.0);
  // Other nodes still charge normally.
  EXPECT_GT(fetch(2), 0.0);
  h->note_prefetch_done(1);
  EXPECT_GT(fetch(1), 0.0);
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
                                                      AccessMode::kRead, nullptr));
  EXPECT_FLOAT_EQ(c1[0], 4.0f);  // second block starts at element 4
}

TEST_F(MemoryTest, ParentUnusableWhilePartitioned) {
  std::vector<float> data(8, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(2);
  EXPECT_THROW(h->acquire(kHostNode, AccessMode::kRead, nullptr), Error);
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
                             AccessMode::kWrite, nullptr));
    for (std::size_t i = 0; i < children[c]->elements(); ++i) {
      p[i] = static_cast<float>(c + 1);
    }
    children[c]->mark_written(static_cast<MemoryNodeId>(c + 1), 1.0);
  }
  h->unpartition();
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(data[i], 1.0f);
  for (int i = 4; i < 8; ++i) EXPECT_FLOAT_EQ(data[i], 2.0f);
  // Children are dead now.
  EXPECT_THROW(children[0]->acquire(kHostNode, AccessMode::kRead, nullptr), Error);
  // Parent works again.
  EXPECT_NO_THROW(h->acquire(kHostNode, AccessMode::kRead, nullptr));
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

  DataManager manager_;
  RecordedTraffic traffic_{manager_};
};

TEST_F(EvictionTest, UnpinnedReplicaIsEvictedUnderPressure) {
  std::vector<float> a_data, b_data;
  auto a = make_handle(a_data, 128);  // 512 B
  auto b = make_handle(b_data, 128);  // 512 B

  a->acquire(1, AccessMode::kRead, nullptr);
  a->release(1);
  EXPECT_EQ(manager_.node_allocated(1), 512u);

  b->acquire(1, AccessMode::kRead, nullptr);
  b->release(1);
  EXPECT_EQ(manager_.node_allocated(1), 1024u);  // exactly at capacity

  // A third 512 B allocation must evict the oldest resident (a).
  std::vector<float> c_data;
  auto c = make_handle(c_data, 128);
  c->acquire(1, AccessMode::kRead, nullptr);
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
  a->acquire(1, AccessMode::kRead, nullptr);  // no release: pinned
  b->acquire(1, AccessMode::kRead, nullptr);
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
  auto* device = static_cast<float*>(a->acquire(1, AccessMode::kWrite, nullptr));
  for (int i = 0; i < 192; ++i) device[i] = 7.0f;
  a->mark_written(1, 1.0);
  a->release(1);

  // Pressure from a second handle evicts a's Owned replica: the data must
  // land back on the host, not be lost.
  auto b = make_handle(b_data, 128);
  b->acquire(1, AccessMode::kRead, nullptr);
  b->release(1);
  EXPECT_EQ(a->replica_state(1), ReplicaState::kInvalid);
  EXPECT_EQ(a->replica_state(kHostNode), ReplicaState::kOwned);
  for (float v : a_data) ASSERT_FLOAT_EQ(v, 7.0f);
  EXPECT_EQ(stats().evictions, 1u);
}

TEST_F(EvictionTest, EvictedDataIsRefetchedOnNextUse) {
  std::vector<float> a_data, b_data;
  auto a = make_handle(a_data, 192);
  a->acquire(1, AccessMode::kRead, nullptr);
  a->release(1);
  auto b = make_handle(b_data, 192);
  b->acquire(1, AccessMode::kRead, nullptr);
  b->release(1);
  ASSERT_EQ(a->replica_state(1), ReplicaState::kInvalid);  // evicted
  // Re-acquiring re-allocates and re-transfers (the §IV-D caveat).
  const auto before = stats().host_to_device_count;
  auto* ptr = static_cast<float*>(a->acquire(1, AccessMode::kRead, nullptr));
  EXPECT_FLOAT_EQ(ptr[0], 1.0f);
  EXPECT_EQ(stats().host_to_device_count, before + 1);
  a->release(1);
}

TEST_F(EvictionTest, DyingHandleReturnsItsAllocation) {
  std::vector<float> a_data;
  {
    auto a = make_handle(a_data, 128);
    a->acquire(1, AccessMode::kRead, nullptr);
    a->release(1);
    EXPECT_EQ(manager_.node_allocated(1), 512u);
  }
  EXPECT_EQ(manager_.node_allocated(1), 0u);
}

TEST_F(MemoryTest, StatsTrackBytes) {
  std::vector<float> data(256, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  h->acquire(1, AccessMode::kRead, nullptr);
  EXPECT_EQ(stats().host_to_device_bytes, 1024u);
  traffic_.reset();
  EXPECT_EQ(stats().total_count(), 0u);
}

// -- partition/unpartition transfer accounting (hybrid SpMV chunk pattern) ----

// The hybrid SpMV upload: contiguous sibling chunks stream to one device.
// Exact counts — every chunk is still one transfer, but all but the first
// coalesce into the running burst (one link latency for the whole upload).
TEST_F(MemoryTest, PartitionedChunkUploadsCoalesceExactly) {
  std::vector<float> data(4096, 1.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(4);
  for (auto& child : children) {
    child->acquire(1, AccessMode::kRead, nullptr);
    child->release(1);
  }
  EXPECT_EQ(stats().host_to_device_count, 4u);
  EXPECT_EQ(stats().coalesced_transfers, 3u);
  EXPECT_EQ(stats().device_to_host_count, 0u);
  // Read-shared children leave the host copy valid: gathering needs no
  // transfers at all.
  h->unpartition();
  EXPECT_EQ(stats().device_to_host_count, 0u);
}

// Same pattern on the legacy shared bus: the single half-duplex clock still
// serialises everything and never merges bursts.
TEST(SharedBusAccounting, ChunkUploadsNeverCoalesce) {
  DataManager manager(2, sim::LinkProfile::pcie2_x16_shared());
  RecordedTraffic traffic(manager);
  std::vector<float> data(4096, 1.0f);
  auto h = manager.register_buffer(data.data(), data.size() * sizeof(float),
                                   sizeof(float));
  auto children = h->partition(4);
  for (auto& child : children) {
    child->acquire(1, AccessMode::kRead, nullptr);
    child->release(1);
  }
  EXPECT_EQ(traffic.transfers().host_to_device_count, 4u);
  EXPECT_EQ(traffic.transfers().coalesced_transfers, 0u);
}

// Device-written chunks gathered by unpartition(): one download per chunk,
// and the downloads land on contiguous host addresses so they coalesce on
// the D2H lane too.
TEST_F(MemoryTest, UnpartitionWritebackCountsExactly) {
  std::vector<float> data(1024, 0.0f);
  auto h = manager_.register_buffer(data.data(), data.size() * sizeof(float),
                                    sizeof(float));
  auto children = h->partition(4);
  for (std::size_t c = 0; c < children.size(); ++c) {
    auto* p = static_cast<float*>(
        children[c]->acquire(1, AccessMode::kWrite, nullptr));
    for (std::size_t i = 0; i < children[c]->elements(); ++i) {
      p[i] = static_cast<float>(c);
    }
    children[c]->mark_written(1, 1.0);
    children[c]->release(1);
  }
  EXPECT_EQ(stats().host_to_device_count, 0u);  // kWrite fetches nothing
  h->unpartition();
  EXPECT_EQ(stats().device_to_host_count, 4u);
  EXPECT_EQ(stats().coalesced_transfers, 3u);
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
