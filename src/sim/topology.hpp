// Simulated cluster topology: several nodes, each a full MachineConfig
// (host memory + CPU cores + accelerators), connected by an inter-node
// link that is meaningfully slower than PCIe (10GbE-class latency and
// bandwidth, duplex per node-pair like the intra-node LinkProfile lanes).
//
// A ClusterConfig with one node is exactly the single-host machine the
// runtime has always simulated: Engine resolves an empty/one-node cluster
// to the same memory-node layout, lane table and estimates, which the
// differential tests in tests/test_distributed.cpp pin bitwise.
//
// Topologies can also be described in a small versioned text format
// (`peppher-cluster v1`, see docs/runtime.md "Distributed simulation");
// parse_cluster is strict and reports located ParseErrors for malformed
// input — negative bandwidth, duplicate node ids, truncation — the same
// contract the trace/model readers follow.
#pragma once

#include <string>
#include <vector>

#include "sim/device.hpp"

namespace peppher::sim {

/// One simulated cluster node: a machine (host memory, CPU cores,
/// accelerators) identified by a dense id 0..N-1.
struct NodeConfig {
  int id = 0;
  MachineConfig machine;
};

/// A whole simulated cluster. `internode` prices every host(i) <-> host(j)
/// hop; each direction of each node pair gets its own lane clock, so halo
/// exchange in both directions overlaps like the duplex PCIe lanes do.
struct ClusterConfig {
  std::string name = "cluster";
  std::vector<NodeConfig> nodes;
  LinkProfile internode = LinkProfile::cluster_10gbe();

  bool empty() const noexcept { return nodes.empty(); }

  /// The degenerate one-node cluster equivalent to `machine`.
  static ClusterConfig single(MachineConfig machine);

  /// `count` identical nodes built from `machine`.
  static ClusterConfig uniform(int count, MachineConfig machine,
                               LinkProfile internode =
                                   LinkProfile::cluster_10gbe());
};

/// Parses the `peppher-cluster v1` text format:
///
///   peppher-cluster v1
///   internode latency_us 50 bandwidth_gbs 1.25
///   node 0 machine c2050 cpu_cores 4
///   node 1 machine c2050 cpu_cores 4
///   end
///
/// Machine presets are sim::machine_preset's (kMachinePresets). The
/// `internode` line is optional (defaults to cluster_10gbe); `end` is
/// required so truncated documents are always detected. Malformed input
/// (bad header, unknown keyword/preset, non-positive latency or bandwidth,
/// duplicate or negative node ids, missing values, missing `end`) throws
/// ParseError carrying the 1-based line/column of the offending token.
ClusterConfig parse_cluster(const std::string& text);

/// Renders `cluster` back into the text format parse_cluster accepts.
std::string to_text(const ClusterConfig& cluster);

}  // namespace peppher::sim
