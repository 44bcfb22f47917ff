// The MSI coherence transition rules of the data manager, factored out as
// pure functions over a per-node ReplicaState vector.
//
// Two independent clients apply the exact same rules:
//
//   * DataHandle (memory.cpp) — the real coherence machinery, which under
//     EngineConfig::verify_shadow additionally keeps a *shadow* state vector
//     updated through these functions and cross-checks it against the actual
//     replica states after every event;
//   * the static verifier (src/analyze/verify.cpp) — which runs the same
//     transitions over an abstract two-node (host/device) vector inside a
//     worklist fixpoint over the main module's control-flow graph.
//
// Keeping the rules here, next to the implementation they model, is what
// makes a shadow/verifier disagreement meaningful: it is a bug in either the
// runtime or the model, never a drift between two copies of the rules.
#pragma once

#include <span>

#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace peppher::rt {

enum class ReplicaState : std::uint8_t;  // defined in runtime/memory.hpp

namespace msi {

/// State transition of DataHandle::acquire(node, mode): a read or readwrite
/// of an invalid replica fetches (demoting an Owned source to Shared; a
/// device-to-device fetch routes through the host and leaves a Shared host
/// copy behind); a write or readwrite then invalidates every other replica
/// and owns `node`. No-op fetch when the replica is already valid.
void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode);

/// Topology-aware acquire: the fetch walks the canonical route from the
/// nearest valid replica (MemTopology::nearest_valid), leaving a Shared
/// copy on every intermediate host it crosses — on a cluster a
/// dev(i) -> dev(j) fetch marks host(i) and host(j) Shared, generalizing
/// the two-node rule.
void apply_acquire(std::span<ReplicaState> states, int node, AccessMode mode,
                   const MemTopology& topo);

/// State transition of a successful DataHandle::try_evict(node): an Owned
/// device replica is flushed home first (host becomes Owned), then the
/// node's replica is dropped to Invalid.
void apply_evict(std::span<ReplicaState> states, int node);

/// Topology-aware evict: an Owned device replica flushes to its *own*
/// node's host (not necessarily memory node 0).
void apply_evict(std::span<ReplicaState> states, int node,
                 const MemTopology& topo);

/// State transition of DataHandle::partition() / unpartition() on the
/// parent handle: the host copy is made authoritative (Owned) and every
/// device replica is invalidated.
void apply_host_reclaim(std::span<ReplicaState> states);

}  // namespace msi
}  // namespace peppher::rt
