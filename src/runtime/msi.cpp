#include "runtime/msi.hpp"

#include "runtime/memory.hpp"
#include "support/error.hpp"

namespace peppher::rt::msi {

int fetch_source(std::span<const ReplicaState> states, int node,
                 AccessMode mode, const MemTopology& topo) {
  check(static_cast<int>(states.size()) == topo.node_count() && node >= 0 &&
            node < topo.node_count(),
        "msi::apply_acquire: bad memory node");
  if (mode == AccessMode::kWrite ||
      states[static_cast<std::size_t>(node)] != ReplicaState::kInvalid) {
    return -1;
  }
  const int source = topo.nearest_valid(node, [&](MemoryNodeId n) {
    return states[static_cast<std::size_t>(n)] != ReplicaState::kInvalid;
  });
  check(source >= 0, "msi::apply_acquire: no valid replica anywhere");
  return source;
}

void apply_hop(std::span<ReplicaState> states, int from, int to) {
  auto& src = states[static_cast<std::size_t>(from)];
  if (src == ReplicaState::kOwned) src = ReplicaState::kShared;
  states[static_cast<std::size_t>(to)] = ReplicaState::kShared;
}

void apply_own(std::span<ReplicaState> states, int node) {
  for (std::size_t n = 0; n < states.size(); ++n) {
    states[n] = static_cast<int>(n) == node ? ReplicaState::kOwned
                                            : ReplicaState::kInvalid;
  }
}

void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode,
                   const MemTopology& topo) {
  apply_acquire(states, node, mode, topo, [](int, int) {});
}

void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode) {
  apply_acquire(states, node, mode,
                MemTopology::single_host(static_cast<int>(states.size())));
}

void apply_evict(std::span<ReplicaState> states, int node,
                 const MemTopology& topo) {
  check(node > 0 && node < static_cast<int>(states.size()) &&
            !topo.is_host(node),
        "msi::apply_evict: bad device node");
  if (states[static_cast<std::size_t>(node)] == ReplicaState::kOwned) {
    apply_acquire(states, topo.home_host(node), AccessMode::kReadWrite, topo);
  }
  states[static_cast<std::size_t>(node)] = ReplicaState::kInvalid;
}

void apply_host_reclaim(std::span<ReplicaState> states) {
  apply_own(states, kHostNode);
}

}  // namespace peppher::rt::msi
