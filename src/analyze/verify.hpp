// peppher-verify: fixpoint coherence verification of the composition graph
// (docs/verify.md).
//
// The main module's <calls> section — including the <loop>, <if>,
// <partition>, <unpartition> and <prefetch> statements — is lowered into a
// small control-flow graph, and a worklist fixpoint propagates an abstract
// MSI coherence state through it: per container, a *set of worlds*, each
// world one feasible (host replica, device replica) pair plus a few path
// facts (initialised, partitioned, unread pending write, last writer side,
// open read window). The transition rules are the runtime's own
// (runtime/msi.hpp) — the same functions every DataHandle moves its
// replicas through — so the verifier's abstract states and the states the
// verify_shadow log observes are comparable point for point.
//
// The same fixpoint is the one engine of the sequence hazards between
// calls. Each finding takes its code from what the fixpoint proves about
// it, never from control flow elsewhere in the file:
//
//   PL031  a hidden write races a true reader in one read window on every
//          path reaching the access that completes the race
//   PL032  two hidden writes share a read window, likewise on every path
//   PL065  such a race on only some of those paths
//   PL033  a write overwritten before any read by the same call on every path
//          (anchored at that call)
//   PL062  a write overwritten on every path before any read, by different
//          calls on different paths
//   PL052  cross-architecture write/read/write-back outside any <loop>
//          (once per container, anchored at the cross-side read)
//   PL064  the same ping-pong with the write-back inside a <loop>
//
// The other coherence checks (PL060..PL069, catalogued in docs/verify.md):
//
//   PL060  a read reached with the container initialised on only some paths
//   PL061  <prefetch> whose target already holds a valid replica on every path
//   PL063  <partition> with no <unpartition> on some path to program end
//   PL066  partition protocol violation (access while partitioned, double
//          partition, unpartition without partition, stray distributed form)
//   PL069  the fixpoint iteration budget was exhausted (internal)
//
// With a cluster profile (LintOptions::cluster, the peppher-lint --cluster
// switch) the abstract machine grows a node dimension — two slots per
// simulated node, built by the same rt::MemTopology the runtime uses — and
// the distributed checks over <partitioned>/<exchange>/<repartition>/
// <gather> arm as well:
//
//   PL080  declared halo narrower than a stencil's access radius
//   PL081  stencil read with no dominating halo exchange
//   PL082  loop-carried internode ping-pong over the cluster link
//   PL083  repartition forces device replicas off the accelerators
//   PL084  partitioned slice coverage gap or overlap
//   PL085  gather reachable while a halo exchange is in flight
//   PL086  node-divergent abstract worlds at a control-flow join
//   PL087  write races an in-flight halo exchange
//
// A one-node (or absent) profile keeps the historical two-slot machine,
// byte-identical output included — the differential tests pin that.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyze/lint.hpp"

namespace peppher::rt {
enum class ReplicaState : std::uint8_t;  // defined in runtime/memory.hpp
}

namespace peppher::analyze {

/// One feasible coherence state of a container at a program point: the
/// replica states of the abstract machine (node 0 = host, node 1 = the
/// accelerator side; under a cluster profile two slots per simulated node,
/// hosts on the even indices).
struct AbstractWorld {
  rt::ReplicaState host;
  rt::ReplicaState device;
  bool initialized = false;  ///< some program write reached this point
  bool partitioned = false;
  /// The full abstract state vector. Single-host runs publish the
  /// historical two entries, so `host`/`device` always alias
  /// nodes[0]/nodes[1].
  std::vector<rt::ReplicaState> nodes;
};

/// Outcome of one verification run.
struct VerifyResult {
  diag::DiagnosticBag bag;  ///< PL060..PL069 and PL080..PL087 findings, sorted
  /// PL031..PL033 and PL052 findings, sorted: the sequence hazards
  /// peppher-lint reports on every program (run_lint).
  diag::DiagnosticBag hazards;

  /// False when the iteration budget was exhausted (PL069 in the bag).
  bool fixpoint_reached = true;
  /// Worklist steps actually taken (all containers summed).
  int steps = 0;

  /// Converged abstract state *before* each component call: for the call at
  /// flattened index `i` of MainDescriptor::calls (== TaskSpec::verify_point
  /// of the task the generated wrapper submits for it), the feasible worlds
  /// of every container the call binds. This is what the verify_shadow
  /// observation log is cross-validated against.
  std::map<int, std::map<std::string, std::vector<AbstractWorld>>> states;

  /// True when the concrete replica state `observed` of container `data` on
  /// memory node `node` (an index into AbstractWorld::nodes when in range;
  /// otherwise the legacy mapping 0 = host, any other = the accelerator
  /// side), recorded at the start of the task for program point
  /// `verify_point`, is admitted
  /// by some abstract world at that point. The abstract states
  /// over-approximate every execution path, so a sound run admits every
  /// observation; a `false` means the runtime and the model disagree.
  bool admits(int verify_point, const std::string& data, int node,
              rt::ReplicaState observed) const;
};

/// Verifies the repository's main module. Returns an empty result (no
/// diagnostics, no states) when there is no main module or it declares no
/// calls. `options` supplies the same variant narrowing as the lint checks
/// (placement of a call follows its viable variants) plus the iteration
/// budget override.
VerifyResult verify_main(const desc::Repository& repo,
                         const LintOptions& options = {});

}  // namespace peppher::analyze
