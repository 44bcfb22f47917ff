// Memory-hierarchy map of a (possibly multi-node) simulated cluster: which
// memory node is a host, which simulated node it belongs to, and how data
// routes between any two memory nodes.
//
// Memory nodes are laid out per simulated node, hosts first:
//
//   [host0, dev0.0, dev0.1, ..., host1, dev1.0, ..., hostK, ...]
//
// Node 0 is always the primary host (rt::kHostNode) whose replica aliases
// the application's registered buffer; remote hosts and devices hold
// runtime-allocated storage. A one-node cluster therefore produces exactly
// the historical [host, dev1..devN] layout, which the differential tests
// pin bitwise against the pre-cluster engine.
//
// Routing follows the hardware: a device only talks to its own host over
// PCIe, and hosts talk to each other over the inter-node link, so a
// dev(i) -> dev(j) copy is the three-hop chain
// dev(i) -> host(i) -> host(j) -> dev(j), generalizing the old
// device -> host -> device rule (MSI marks every intermediate host Shared).
#pragma once

#include <vector>

#include "runtime/types.hpp"
#include "sim/topology.hpp"
#include "support/error.hpp"

namespace peppher::rt {

class MemTopology {
 public:
  struct Node {
    int sim_node = 0;              ///< owning simulated cluster node
    MemoryNodeId home_host = kHostNode;  ///< host memory of that sim node
    int device_ordinal = -1;       ///< global accelerator index, -1 = host
    bool host = false;
  };

  /// The historical single-host layout: node 0 plus `node_count - 1`
  /// devices, all on sim node 0.
  static MemTopology single_host(int node_count) {
    check(node_count >= 1, "MemTopology: need at least the host node");
    MemTopology topo;
    topo.sim_node_count_ = 1;
    topo.host_of_ = {kHostNode};
    for (int n = 0; n < node_count; ++n) {
      Node node;
      node.sim_node = 0;
      node.home_host = kHostNode;
      node.host = (n == kHostNode);
      node.device_ordinal = node.host ? -1 : n - 1;
      if (!node.host) topo.device_node_.push_back(n);
      topo.nodes_.push_back(node);
    }
    return topo;
  }

  /// Memory layout of a whole cluster (hosts first per node, see above).
  static MemTopology of_cluster(const sim::ClusterConfig& cluster) {
    check(!cluster.nodes.empty(), "MemTopology: cluster has no nodes");
    MemTopology topo;
    topo.sim_node_count_ = static_cast<int>(cluster.nodes.size());
    for (int k = 0; k < topo.sim_node_count_; ++k) {
      const sim::NodeConfig& sim_node = cluster.nodes[k];
      const MemoryNodeId host = static_cast<MemoryNodeId>(topo.nodes_.size());
      topo.host_of_.push_back(host);
      Node host_node;
      host_node.sim_node = k;
      host_node.home_host = host;
      host_node.host = true;
      topo.nodes_.push_back(host_node);
      for (std::size_t a = 0; a < sim_node.machine.accelerators.size(); ++a) {
        Node dev;
        dev.sim_node = k;
        dev.home_host = host;
        dev.device_ordinal = static_cast<int>(topo.device_node_.size());
        topo.device_node_.push_back(
            static_cast<MemoryNodeId>(topo.nodes_.size()));
        topo.nodes_.push_back(dev);
      }
    }
    return topo;
  }

  int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
  int sim_node_count() const noexcept { return sim_node_count_; }
  int device_count() const noexcept {
    return static_cast<int>(device_node_.size());
  }
  bool multi_node() const noexcept { return sim_node_count_ > 1; }

  bool is_host(MemoryNodeId node) const { return at(node).host; }
  int sim_node(MemoryNodeId node) const { return at(node).sim_node; }
  MemoryNodeId home_host(MemoryNodeId node) const {
    return at(node).home_host;
  }
  /// Global accelerator index of a device memory node, -1 for hosts.
  int device_ordinal(MemoryNodeId node) const {
    return at(node).device_ordinal;
  }
  /// Host memory node of simulated node `sim_node`.
  MemoryNodeId host_of(int sim_node) const {
    check(sim_node >= 0 && sim_node < sim_node_count_,
          "MemTopology: bad sim node");
    return host_of_[static_cast<std::size_t>(sim_node)];
  }
  /// Memory node of the accelerator with global index `ordinal`.
  MemoryNodeId device_node(int ordinal) const {
    check(ordinal >= 0 && ordinal < device_count(),
          "MemTopology: bad device ordinal");
    return device_node_[static_cast<std::size_t>(ordinal)];
  }

  /// True when from -> to is one simulated hop: device <-> its own host
  /// (PCIe) or host <-> host (inter-node link).
  bool direct(MemoryNodeId from, MemoryNodeId to) const {
    if (is_host(from) && is_host(to)) return true;
    if (is_host(from)) return home_host(to) == from;
    if (is_host(to)) return home_host(from) == to;
    return false;
  }

  /// Next intermediate memory node on the canonical route from -> to, or
  /// -1 when the hop is direct. Device sources drain to their own host
  /// first; host sources reach a remote device via that device's host.
  MemoryNodeId route_via(MemoryNodeId from, MemoryNodeId to) const {
    if (direct(from, to)) return -1;
    if (!is_host(from)) return home_host(from);
    return home_host(to);
  }

  /// The node one hop from `from` on the canonical route to `to`.
  MemoryNodeId next_hop(MemoryNodeId from, MemoryNodeId to) const {
    const MemoryNodeId via = route_via(from, to);
    return via >= 0 ? via : to;
  }

  /// The source a fetch to `dest` copies from, among the nodes for which
  /// `valid(node)` holds, nearest first: dest's own host, then a node on
  /// the same simulated node, then any host, then anything — lowest memory
  /// node on ties; -1 when no other node is valid. On a single host this
  /// is host-first-else-first-valid.
  template <class Valid>
  MemoryNodeId nearest_valid(MemoryNodeId dest, Valid&& valid) const {
    const MemoryNodeId home = home_host(dest);
    if (home != dest && valid(home)) return home;
    const int count = node_count();
    for (MemoryNodeId n = 0; n < count; ++n) {
      if (n != dest && sim_node(n) == sim_node(dest) && valid(n)) return n;
    }
    for (MemoryNodeId n = 0; n < count; ++n) {
      if (n != dest && is_host(n) && valid(n)) return n;
    }
    for (MemoryNodeId n = 0; n < count; ++n) {
      if (n != dest && valid(n)) return n;
    }
    return -1;
  }

 private:
  const Node& at(MemoryNodeId node) const {
    check(node >= 0 && node < node_count(), "MemTopology: bad memory node");
    return nodes_[static_cast<std::size_t>(node)];
  }

  std::vector<Node> nodes_;
  std::vector<MemoryNodeId> host_of_;      ///< per sim node
  std::vector<MemoryNodeId> device_node_;  ///< per global device ordinal
  int sim_node_count_ = 1;
};

}  // namespace peppher::rt
