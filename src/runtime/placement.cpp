#include "runtime/placement.hpp"

namespace peppher::rt {

double reuse_divisor(double reads) noexcept {
  return reads > 1.0 ? std::min(reads, static_cast<double>(kReuseCap)) : 1.0;
}

double hop_seconds(const sim::LinkProfile& link, std::size_t bytes,
                   double reuse) noexcept {
  const double latency = sim::transfer_seconds(link, 0);
  return latency + (sim::transfer_seconds(link, bytes) - latency) / reuse;
}

double Interconnect::fetch_seconds(MemoryNodeId source, MemoryNodeId dest,
                                   std::size_t bytes, double reuse) const {
  double total = 0.0;
  for (MemoryNodeId cur = source >= 0 ? source : kHostNode; cur != dest;) {
    const MemoryNodeId next = topo.next_hop(cur, dest);
    const bool crosses_nodes = topo.sim_node(cur) != topo.sim_node(next);
    total += hop_seconds(crosses_nodes ? internode : pcie, bytes, reuse);
    cur = next;
  }
  return total;
}

}  // namespace peppher::rt
