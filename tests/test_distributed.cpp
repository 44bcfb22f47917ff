// Distributed simulation tests: cluster topologies, the third coherence
// level (remote hosts), partitioned containers, the Jacobi / SpMV
// distributed workloads, and — most importantly — the differential guard:
// an Engine configured with a one-node cluster must be bitwise-equivalent
// to the same Engine configured with the plain machine, for every
// scheduling policy. The cluster support is a strict generalisation; the
// single-host fast path must not drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/distributed.hpp"
#include "containers/partitioned.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/topology.hpp"
#include "sim/topology.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

// ---------------------------------------------------------------------------
// Partitioning / PartitionedVector
// ---------------------------------------------------------------------------

TEST(Partitioning, BlockSplitsNearEqually) {
  const auto p = cont::Partitioning::block(10, 3);
  ASSERT_EQ(p.parts.size(), 3u);
  EXPECT_EQ(p.parts[0].owned, (cont::Slice{0, 4}));
  EXPECT_EQ(p.parts[1].owned, (cont::Slice{4, 7}));
  EXPECT_EQ(p.parts[2].owned, (cont::Slice{7, 10}));
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(p.parts[static_cast<std::size_t>(n)].node, n);
    ASSERT_EQ(p.parts[static_cast<std::size_t>(n)].slices.size(), 1u);
  }
  EXPECT_THROW(cont::Partitioning::block(2, 3), Error);
}

TEST(Partitioning, WithHaloAddsClampedGhostSlices) {
  const auto p = cont::Partitioning::block(12, 3).with_halo(2);
  EXPECT_EQ(p.halo, 2u);
  // First partition: no ghost above, 2 below.
  ASSERT_EQ(p.parts[0].slices.size(), 2u);
  EXPECT_EQ(p.parts[0].slices[1], (cont::Slice{4, 6}));
  // Middle partition: ghosts on both sides.
  ASSERT_EQ(p.parts[1].slices.size(), 3u);
  EXPECT_EQ(p.parts[1].slices[1], (cont::Slice{2, 4}));
  EXPECT_EQ(p.parts[1].slices[2], (cont::Slice{8, 10}));
  // Last partition: no ghost below.
  ASSERT_EQ(p.parts[2].slices.size(), 2u);
  EXPECT_EQ(p.parts[2].slices[1], (cont::Slice{6, 8}));
  // Owned ranges are untouched by the halo derivation.
  const auto base = cont::Partitioning::block(12, 3);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(p.parts[n].owned, base.parts[n].owned);
  }
  // A halo wider than the neighbour clamps at the container bounds.
  const auto wide = cont::Partitioning::block(6, 3).with_halo(5);
  EXPECT_EQ(wide.parts[0].slices[1], (cont::Slice{2, 6}));
  EXPECT_EQ(wide.parts[2].slices[1], (cont::Slice{0, 4}));
}

TEST(PartitionedVector, RepartitionKeepsDeviceReplicas) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  config.enable_prefetch = false;
  Engine engine(config);

  cont::PartitionedVector<float> vec(&engine,
                                     cont::Partitioning::block(64, 2), 1.0f);
  const auto handles = vec.partition_handles(1);
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_EQ(vec.registered_slices(), 1u);  // only partition 1 materialised

  // Warm partition 1's owned slice on its node's accelerator.
  const MemoryNodeId dev1 = engine.topo().device_node(1);
  ASSERT_TRUE(engine.prefetch(handles[0], dev1));
  const auto before = engine.transfer_stats();
  EXPECT_GE(before.host_to_device_count, 1u);

  // Repartitioning to the halo layout keeps every owned slice (same
  // bounds), so the device replica survives: re-prefetching is a no-op.
  vec.repartition(cont::Partitioning::block(64, 2).with_halo(4));
  const auto& kept = vec.partition_handles(1);
  EXPECT_EQ(kept[0].get(), handles[0].get());
  ASSERT_TRUE(engine.prefetch(handles[0], dev1));
  const auto after = engine.transfer_stats();
  EXPECT_EQ(after.host_to_device_count, before.host_to_device_count);
  EXPECT_EQ(after.device_to_host_count, before.device_to_host_count);

  // Repartitioning to an incompatible layout drops the old slices.
  vec.repartition(cont::Partitioning::block(64, 4));
  EXPECT_EQ(vec.registered_slices(), 0u);
}

TEST(PartitionedVector, UseAfterEngineShutdownThrows) {
  // The container reaches its engine only through a registered handle, so
  // once the engine is gone a new slice, a host access and a repartition
  // each throw a located error instead of calling into freed memory.
  std::optional<cont::PartitionedVector<float>> vec;
  {
    EngineConfig config;
    config.cluster = sim::ClusterConfig::uniform(
        2, sim::MachineConfig::platform_c2050());
    Engine engine(config);
    vec.emplace(&engine, cont::Partitioning::block(64, 2), 1.0f);
    (void)vec->partition_handles(0);
  }
  const auto expect_shutdown_error = [](const auto& use) {
    try {
      use();
      ADD_FAILURE() << "a use after shutdown must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidState);
      EXPECT_NE(std::string(e.what()).find(
                    "used after its runtime engine shut down"),
                std::string::npos)
          << e.what();
    }
  };
  expect_shutdown_error([&] { (void)vec->partition_handles(1); });
  expect_shutdown_error([&] { (void)vec->host_access(AccessMode::kRead); });
  expect_shutdown_error(
      [&] { vec->repartition(cont::Partitioning::block(64, 4)); });
  EXPECT_EQ(vec->registered_slices(), 1u);
  EXPECT_FLOAT_EQ(vec->data()[63], 1.0f);
}

TEST(PartitionedVector, HostAccessSeesTaskResults) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  Engine engine(config);
  cont::PartitionedVector<float> vec(&engine,
                                     cont::Partitioning::block(16, 2), 3.0f);
  auto view = vec.host_access(AccessMode::kRead);
  ASSERT_EQ(view.size(), 16u);
  for (const float v : view) EXPECT_EQ(v, 3.0f);
}

// ---------------------------------------------------------------------------
// Cluster topology: parser, memory layout, routing
// ---------------------------------------------------------------------------

TEST(ClusterTopology, ParserHappyPathAndRoundTrip) {
  const std::string text =
      "peppher-cluster v1\n"
      "internode latency_us 80 bandwidth_gbs 2.5\n"
      "node 0 machine c2050 cpu_cores 4\n"
      "node 1 machine cpu_only cpu_cores 8\n"
      "end\n";
  const sim::ClusterConfig cluster = sim::parse_cluster(text);
  ASSERT_EQ(cluster.nodes.size(), 2u);
  EXPECT_EQ(cluster.internode.latency_us, 80.0);
  EXPECT_EQ(cluster.internode.bandwidth_gbs, 2.5);
  EXPECT_EQ(cluster.nodes[0].machine.cpu_cores, 4);
  EXPECT_EQ(cluster.nodes[0].machine.accelerators.size(), 1u);
  EXPECT_EQ(cluster.nodes[1].machine.cpu_cores, 8);
  EXPECT_TRUE(cluster.nodes[1].machine.accelerators.empty());

  const sim::ClusterConfig again = sim::parse_cluster(sim::to_text(cluster));
  ASSERT_EQ(again.nodes.size(), cluster.nodes.size());
  EXPECT_EQ(again.internode.latency_us, cluster.internode.latency_us);
  EXPECT_EQ(again.internode.bandwidth_gbs, cluster.internode.bandwidth_gbs);
  EXPECT_EQ(again.nodes[1].machine.cpu_cores, 8);
}

TEST(ClusterTopology, MemoryLayoutHostsFirstPerNode) {
  const auto cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_dual_c2050());
  const MemTopology topo = MemTopology::of_cluster(cluster);
  // [host0, dev0, dev1, host1, dev2, dev3]
  EXPECT_EQ(topo.node_count(), 6);
  EXPECT_EQ(topo.sim_node_count(), 2);
  EXPECT_EQ(topo.device_count(), 4);
  EXPECT_TRUE(topo.multi_node());
  EXPECT_TRUE(topo.is_host(0));
  EXPECT_TRUE(topo.is_host(3));
  EXPECT_EQ(topo.host_of(0), 0);
  EXPECT_EQ(topo.host_of(1), 3);
  EXPECT_EQ(topo.sim_node(2), 0);
  EXPECT_EQ(topo.sim_node(4), 1);
  EXPECT_EQ(topo.device_node(2), 4);
  EXPECT_EQ(topo.home_host(5), 3);
}

TEST(ClusterTopology, RoutesChainThroughHosts) {
  const auto cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  const MemTopology topo = MemTopology::of_cluster(cluster);
  // [host0, dev0, host1, dev1]
  EXPECT_TRUE(topo.direct(0, 2));   // host <-> host: inter-node link
  EXPECT_TRUE(topo.direct(1, 0));   // device <-> own host: PCIe
  EXPECT_FALSE(topo.direct(1, 2));  // device to remote host
  EXPECT_FALSE(topo.direct(1, 3));  // device to remote device
  // dev0 -> dev1 drains to host0 first, then host0 -> dev1 goes via host1.
  EXPECT_EQ(topo.route_via(1, 3), 0);
  EXPECT_EQ(topo.route_via(0, 3), 2);
  EXPECT_EQ(topo.route_via(1, 0), -1);
  // The single-host layout is the degenerate case.
  const MemTopology single = MemTopology::single_host(2);
  EXPECT_FALSE(single.multi_node());
  EXPECT_EQ(single.route_via(1, 0), -1);
}

// ---------------------------------------------------------------------------
// Differential guard: one-node cluster == plain machine, bitwise
// ---------------------------------------------------------------------------

/// x <- 3*x + 1 elementwise; runnable on every worker kind.
Codelet make_affine_codelet() {
  Codelet codelet("dist_affine");
  auto body = [](ExecContext& ctx) {
    auto* data = ctx.buffer_as<std::uint64_t>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) {
      data[i] = 3 * data[i] + 1;
    }
  };
  auto cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{static_cast<double>(bytes[0]),
                           static_cast<double>(bytes[0]), 1.0};
  };
  for (const Arch arch :
       {Arch::kCpu, Arch::kCpuOmp, Arch::kCuda, Arch::kOpenCl}) {
    codelet.add_impl(Implementation(
        arch, "dist_affine_" + to_string(arch), body, cost));
  }
  return codelet;
}

struct Snapshot {
  std::vector<WorkerDesc> descs;
  std::vector<WorkerStats> stats;
  std::array<std::uint64_t, kArchCount> arch_counts{};
  TransferStats transfers;
  double makespan = 0.0;
  std::uint64_t submitted = 0;
  std::string summary;
};

/// Runs one forced-placement chain per worker (combined-CPU workers in a
/// separate phase, so their host-group clock coupling with the per-core
/// workers resolves at a quiesced, deterministic point) and snapshots
/// every counter the engine exposes.
Snapshot run_pinned_chains(EngineConfig config) {
  config.use_history_models = false;
  config.enable_prefetch = false;
  Engine engine(std::move(config));
  const Codelet codelet = make_affine_codelet();
  const auto& workers = engine.workers();

  std::vector<std::vector<std::uint64_t>> buffers(
      workers.size(), std::vector<std::uint64_t>(32, 1));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(std::uint64_t),
        sizeof(std::uint64_t)));
  }

  const auto submit_chain = [&](bool combined_phase) {
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].is_combined_cpu != combined_phase) continue;
      for (int step = 0; step < 5; ++step) {
        TaskSpec spec;
        spec.codelet = &codelet;
        spec.operands = {{handles[w], AccessMode::kReadWrite}};
        spec.forced_worker = workers[w].id;
        engine.submit(std::move(spec));
      }
    }
    engine.wait_for_all();
  };
  submit_chain(false);
  submit_chain(true);
  for (const auto& handle : handles) {
    engine.acquire_host(handle, AccessMode::kRead);
  }

  Snapshot snap;
  snap.descs = workers;
  for (const auto& desc : workers) snap.stats.push_back(engine.worker_stats(desc.id));
  snap.arch_counts = engine.arch_task_counts();
  snap.transfers = engine.transfer_stats();
  snap.makespan = engine.virtual_makespan();
  snap.submitted = engine.tasks_submitted();
  snap.summary = engine.summary();

  // The numerics themselves must be exact too.
  for (const auto& buffer : buffers) {
    for (const std::uint64_t v : buffer) EXPECT_EQ(v, 364u);  // 5x affine(1)
  }
  return snap;
}

void expect_bitwise_equal(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.descs.size(), b.descs.size());
  for (std::size_t w = 0; w < a.descs.size(); ++w) {
    EXPECT_EQ(a.descs[w].id, b.descs[w].id);
    EXPECT_EQ(a.descs[w].archs, b.descs[w].archs);
    EXPECT_EQ(a.descs[w].node, b.descs[w].node);
    EXPECT_EQ(a.descs[w].sim_node, b.descs[w].sim_node);
    EXPECT_EQ(a.descs[w].is_combined_cpu, b.descs[w].is_combined_cpu);
    EXPECT_EQ(a.stats[w].tasks_executed, b.stats[w].tasks_executed) << w;
    EXPECT_EQ(a.stats[w].failed_attempts, b.stats[w].failed_attempts) << w;
    // Bitwise, not approximate: the one-node cluster must take the exact
    // same arithmetic path through the cost model as the single host.
    EXPECT_EQ(a.stats[w].busy_vtime, b.stats[w].busy_vtime) << w;
    EXPECT_EQ(a.stats[w].energy_joules, b.stats[w].energy_joules) << w;
  }
  EXPECT_EQ(a.arch_counts, b.arch_counts);
  EXPECT_EQ(a.transfers.host_to_device_count, b.transfers.host_to_device_count);
  EXPECT_EQ(a.transfers.device_to_host_count, b.transfers.device_to_host_count);
  EXPECT_EQ(a.transfers.host_to_device_bytes, b.transfers.host_to_device_bytes);
  EXPECT_EQ(a.transfers.device_to_host_bytes, b.transfers.device_to_host_bytes);
  EXPECT_EQ(a.transfers.internode_count, b.transfers.internode_count);
  EXPECT_EQ(a.transfers.internode_bytes, b.transfers.internode_bytes);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.summary, b.summary);
}

class SingleNodeDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(SingleNodeDifferential, OneNodeClusterMatchesMachineBitwise) {
  sim::MachineConfig machine = sim::MachineConfig::platform_c2050();
  machine.cpu_cores = 2;

  EngineConfig host_config;
  host_config.machine = machine;
  host_config.scheduler = GetParam();

  EngineConfig cluster_config;
  cluster_config.cluster = sim::ClusterConfig::single(machine);
  cluster_config.scheduler = GetParam();

  const Snapshot host_snap = run_pinned_chains(host_config);
  const Snapshot cluster_snap = run_pinned_chains(cluster_config);
  expect_bitwise_equal(host_snap, cluster_snap);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SingleNodeDifferential,
                         ::testing::ValuesIn(scheduler_names()),
                         [](const auto& info) { return info.param; });

TEST(SingleNodeDifferential, DualDeviceMachineMatchesBitwise) {
  sim::MachineConfig machine = sim::MachineConfig::platform_dual_c2050();
  machine.cpu_cores = 2;
  EngineConfig host_config;
  host_config.machine = machine;
  EngineConfig cluster_config;
  cluster_config.cluster = sim::ClusterConfig::single(machine);
  expect_bitwise_equal(run_pinned_chains(host_config),
                       run_pinned_chains(cluster_config));
}

// ---------------------------------------------------------------------------
// Multi-node execution: routing, coherence, shadow checker
// ---------------------------------------------------------------------------

/// First accelerator worker on `sim_node`.
WorkerId accelerator_on(const Engine& engine, int sim_node) {
  for (const auto& desc : engine.workers()) {
    if (desc.sim_node != sim_node || desc.archs.empty()) continue;
    if (desc.archs.front() == Arch::kCuda ||
        desc.archs.front() == Arch::kOpenCl) {
      return desc.id;
    }
  }
  ADD_FAILURE() << "no accelerator on sim node " << sim_node;
  return -1;
}

TEST(MultiNode, RemoteDeviceTaskRoutesOverInternodeLink) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  config.enable_prefetch = false;
  Engine engine(config);
  const Codelet codelet = make_affine_codelet();

  std::vector<std::uint64_t> data(16, 1);
  auto handle = engine.register_buffer(
      data.data(), data.size() * sizeof(std::uint64_t), sizeof(std::uint64_t));

  // Force the task onto node 1's accelerator: the operand must travel
  // host0 -> host1 -> dev1, i.e. one inter-node hop plus one PCIe hop.
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.forced_worker = accelerator_on(engine, 1);
  engine.submit(std::move(spec));
  engine.wait_for_all();

  auto stats = engine.transfer_stats();
  EXPECT_EQ(stats.internode_count, 1u);
  EXPECT_EQ(stats.internode_bytes, data.size() * sizeof(std::uint64_t));
  EXPECT_GE(stats.host_to_device_count, 1u);

  // Pulling the result home crosses the link again: dev1 -> host1 -> host0.
  engine.acquire_host(handle, AccessMode::kRead);
  stats = engine.transfer_stats();
  EXPECT_EQ(stats.internode_count, 2u);
  for (const std::uint64_t v : data) EXPECT_EQ(v, 4u);

  // The inter-node link is meaningfully slower than PCIe: the cluster hop
  // must dominate the virtual cost of this tiny transfer.
  EXPECT_GT(engine.virtual_makespan(),
            engine.cluster().internode.latency_us * 1e-6);
}

TEST(MultiNode, ShadowCheckerCleanAcrossThreeLevels) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  config.verify_shadow = true;
  Engine engine(config);
  const Codelet codelet = make_affine_codelet();

  std::vector<std::uint64_t> data(8, 1);
  auto handle = engine.register_buffer(
      data.data(), data.size() * sizeof(std::uint64_t), sizeof(std::uint64_t));

  // Ping-pong the handle between the two nodes' accelerators: every
  // transition exercises host-local, device-local and remote replicas.
  for (int round = 0; round < 4; ++round) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    spec.forced_worker = accelerator_on(engine, round % 2);
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  engine.acquire_host(handle, AccessMode::kRead);

  // Every round finds its accelerator's replica invalidated by the last.
  const std::vector<ShadowRecord> log = engine.shadow_log();
  ASSERT_EQ(log.size(), 4u);
  for (const ShadowRecord& record : log) {
    EXPECT_EQ(record.state, ReplicaState::kInvalid);
  }
  for (const std::uint64_t v : data) {
    EXPECT_EQ(v, 121u);  // affine applied 4 times to 1
  }
}

// ---------------------------------------------------------------------------
// Distributed workloads
// ---------------------------------------------------------------------------

TEST(DistributedJacobi, MatchesReferenceBitwiseOnTwoNodes) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  Engine engine(config);

  apps::dist::JacobiConfig jacobi;
  jacobi.rows = 24;
  jacobi.cols = 12;
  jacobi.iterations = 5;
  const auto result = apps::dist::run_jacobi(engine, jacobi);
  const auto expected = apps::dist::jacobi_reference(jacobi);
  ASSERT_EQ(result.grid.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(result.grid[i], expected[i]) << "cell " << i;
  }
  EXPECT_GT(result.transfers.internode_count, 0u);
  EXPECT_GT(result.virtual_seconds, 0.0);
}

TEST(DistributedJacobi, MatchesReferenceOnSingleHostAndWideHalo) {
  EngineConfig config;  // plain single machine, no cluster
  Engine engine(config);
  apps::dist::JacobiConfig jacobi;
  jacobi.rows = 16;
  jacobi.cols = 8;
  jacobi.iterations = 3;
  jacobi.halo = 2;
  const auto result = apps::dist::run_jacobi(engine, jacobi);
  const auto expected = apps::dist::jacobi_reference(jacobi);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(result.grid[i], expected[i]) << "cell " << i;
  }
  EXPECT_EQ(result.transfers.internode_count, 0u);
}

TEST(DistributedJacobi, OverlappedExchangeBeatsBlocking) {
  const auto cluster = sim::ClusterConfig::uniform(
      4, sim::MachineConfig::platform_c2050());
  // Large enough that the interior band outlasts the ~80us ghost chain
  // (inter-node latency dominates small grids): only then can overlap hide
  // the exchange, and the comparison is robust to worker-thread timing.
  apps::dist::JacobiConfig jacobi;
  jacobi.rows = 2048;
  jacobi.cols = 2048;
  jacobi.iterations = 4;

  apps::dist::JacobiResult overlapped, blocking;
  {
    EngineConfig config;
    config.cluster = cluster;
    config.use_history_models = false;
    config.enable_prefetch = false;
    Engine engine(config);
    jacobi.overlap = true;
    overlapped = apps::dist::run_jacobi(engine, jacobi);
  }
  {
    EngineConfig config;
    config.cluster = cluster;
    config.use_history_models = false;
    config.enable_prefetch = false;
    Engine engine(config);
    jacobi.overlap = false;
    blocking = apps::dist::run_jacobi(engine, jacobi);
  }
  // Identical work and traffic; only the dependency shape differs.
  EXPECT_EQ(overlapped.transfers.internode_count,
            blocking.transfers.internode_count);
  const auto expected = apps::dist::jacobi_reference(jacobi);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(overlapped.grid[i], expected[i]);
    ASSERT_EQ(blocking.grid[i], expected[i]);
  }
  // Overlapping the exchange with interior compute must shorten the
  // critical path.
  EXPECT_LT(overlapped.virtual_seconds, blocking.virtual_seconds);
}

TEST(DistributedJacobi, ExchangeWorkerDistinctFromCompute) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  Engine engine(config);
  for (int node = 0; node < 2; ++node) {
    const WorkerId compute = apps::dist::compute_worker(engine, node);
    const WorkerId exchange = apps::dist::exchange_worker(engine, node);
    EXPECT_NE(compute, exchange);
    EXPECT_EQ(engine.workers()[static_cast<std::size_t>(compute)].sim_node,
              node);
    EXPECT_EQ(engine.workers()[static_cast<std::size_t>(exchange)].sim_node,
              node);
  }
}

TEST(DistributedSpmv, MatchesReferenceAcrossNodes) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  Engine engine(config);

  const auto problem = apps::spmv::make_problem(
      apps::sparse::MatrixClass::kHB, 0.05);
  const auto result = apps::dist::run_distributed_spmv(engine, problem);
  const auto expected = apps::spmv::reference(problem);
  ASSERT_EQ(result.y.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(result.y[i], expected[i]) << "row " << i;
  }
  // x fans out to the remote node over the link exactly once.
  EXPECT_GT(result.transfers.internode_count, 0u);
}

}  // namespace
}  // namespace peppher::rt
