// The MSI coherence transition rules, as pure functions over a per-node
// ReplicaState vector. One implementation, four clients:
//
//   * DataHandle (memory.cpp) — the real coherence machinery. Its replica
//     states change only through these functions: an acquire copies each
//     hop of the fetch apply_acquire walks, and the state records the hops
//     that landed;
//   * rt::Plan (placement.cpp) — the one schedule simulator behind dmda and
//     the lookahead window, which moves its planned operands' states;
//   * peppher-predict (src/analyze/predict.cpp) — which walks a main
//     module's calls over the same states;
//   * the static verifier (src/analyze/verify.cpp, cfg.cpp) — which runs the
//     transitions over abstract host/device vectors inside a worklist
//     fixpoint over the main module's control-flow graph.
//
// Because the runtime and the models run the same code, a disagreement
// between a run's observed states (EngineConfig::verify_shadow's log) and
// the verifier's abstraction is a bug in the abstraction, never a drift
// between two copies of the rules.
#pragma once

#include <span>

#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace peppher::rt {

enum class ReplicaState : std::uint8_t;  // defined in runtime/memory.hpp

namespace msi {

/// The replica a `mode` acquire of `node` fetches from: the nearest valid
/// one (MemTopology::nearest_valid), or -1 when the acquire fetches nothing
/// (a write, or `node` is valid already). Throws when no replica is valid.
int fetch_source(std::span<const ReplicaState> states, int node,
                 AccessMode mode, const MemTopology& topo);

/// One landed hop of a fetch: `to` now holds a copy of the valid replica on
/// `from`. An Owned `from` is demoted to Shared; `to` becomes Shared.
void apply_hop(std::span<ReplicaState> states, int from, int to);

/// The write half of an acquire: every other replica is invalidated and
/// `node` owns the data.
void apply_own(std::span<ReplicaState> states, int node);

/// State transition of DataHandle::acquire(node, mode): a read or readwrite
/// of an invalid replica fetches it along the canonical route from the
/// nearest valid replica, one apply_hop per hop — on a single host a
/// device-to-device fetch leaves a Shared host copy behind, and on a
/// cluster a dev(i) -> dev(j) fetch marks host(i) and host(j) Shared; a
/// write or readwrite then owns `node`.
///
/// `land(from, to)` runs before each hop is recorded: DataHandle copies the
/// bytes and charges the link there. A hop whose `land` throws is not
/// recorded and the walk stops, so the states keep exactly the hops that
/// landed — a consistent state a retry fetches from.
template <class Land>
void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode,
                   const MemTopology& topo, Land&& land) {
  for (int from = fetch_source(states, node, mode, topo);
       from >= 0 && from != node;) {
    const int to = topo.next_hop(from, node);
    land(from, to);
    apply_hop(states, from, to);
    from = to;
  }
  if (mode != AccessMode::kRead) apply_own(states, node);
}

/// The same transition with no bytes to move (the models).
void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode,
                   const MemTopology& topo);

/// Two-node shorthand: host (node 0) plus devices on one host.
void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode);

/// State transition of a successful DataHandle::try_evict(node): an Owned
/// device replica is the only valid copy, so it is flushed to its own
/// node's host first — a readwrite acquire there, which owns the host copy
/// — and the node's replica is then dropped to Invalid.
void apply_evict(std::span<ReplicaState> states, int node,
                 const MemTopology& topo);

/// State transition of DataHandle::partition() / unpartition() / detach():
/// the host copy is made authoritative (Owned) and every other replica is
/// invalidated. It is also a new handle's state: valid on the host only.
void apply_host_reclaim(std::span<ReplicaState> states);

}  // namespace msi
}  // namespace peppher::rt
