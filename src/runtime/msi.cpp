#include "runtime/msi.hpp"

#include "runtime/memory.hpp"
#include "support/error.hpp"

namespace peppher::rt::msi {

void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode) {
  apply_acquire(states, node, mode,
                MemTopology::single_host(static_cast<int>(states.size())));
}

void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode,
                   const MemTopology& topo) {
  check(static_cast<int>(states.size()) == topo.node_count() && node >= 0 &&
            node < topo.node_count(),
        "msi::apply_acquire: bad memory node");
  auto& replica = states[static_cast<std::size_t>(node)];

  const bool needs_fetch = mode != AccessMode::kWrite;
  if (needs_fetch && replica == ReplicaState::kInvalid) {
    const int source = topo.nearest_valid(node, [&](MemoryNodeId n) {
      return states[static_cast<std::size_t>(n)] != ReplicaState::kInvalid;
    });
    check(source >= 0, "msi::apply_acquire: no valid replica anywhere");
    auto& src = states[static_cast<std::size_t>(source)];
    if (src == ReplicaState::kOwned) src = ReplicaState::kShared;
    // Walk the canonical route, leaving a Shared copy at every hop the
    // data crosses (intermediate hosts) and at the destination itself.
    for (int cur = source; cur != node;) {
      cur = topo.next_hop(cur, node);
      states[static_cast<std::size_t>(cur)] = ReplicaState::kShared;
    }
  }

  if (mode == AccessMode::kWrite || mode == AccessMode::kReadWrite) {
    for (std::size_t n = 0; n < states.size(); ++n) {
      if (static_cast<int>(n) != node) states[n] = ReplicaState::kInvalid;
    }
    replica = ReplicaState::kOwned;
  }
}

void apply_evict(std::span<ReplicaState> states, int node) {
  apply_evict(states, node,
              MemTopology::single_host(static_cast<int>(states.size())));
}

void apply_evict(std::span<ReplicaState> states, int node,
                 const MemTopology& topo) {
  check(node > 0 && node < static_cast<int>(states.size()) &&
            !topo.is_host(node),
        "msi::apply_evict: bad device node");
  auto& replica = states[static_cast<std::size_t>(node)];
  if (replica == ReplicaState::kOwned) {
    states[static_cast<std::size_t>(topo.home_host(node))] =
        ReplicaState::kOwned;
  }
  replica = ReplicaState::kInvalid;
}

void apply_host_reclaim(std::span<ReplicaState> states) {
  for (std::size_t n = 1; n < states.size(); ++n) {
    states[n] = ReplicaState::kInvalid;
  }
  states[kHostNode] = ReplicaState::kOwned;
}

}  // namespace peppher::rt::msi
