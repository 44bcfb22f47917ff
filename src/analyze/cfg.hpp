// Shared control-flow and abstract-coherence machinery of the static
// analyses. peppher-verify (analyze/verify.cpp) lowers the <calls> tree to
// this CFG and runs its MSI fixpoint over it; that one fixpoint is also the
// engine of peppher-lint's sequence hazards (PL031..PL033, PL052).
// peppher-predict (analyze/predict.cpp) walks the call tree itself with a
// cost domain and shares only the World replica states, the access helpers
// and the runtime's msi transitions that drive them.
//
// The abstract machine is two-sided per cluster node: each simulated node
// contributes a host slot and one abstract accelerator slot. Without a
// cluster profile there is exactly one node and the machine is the
// historical [host, accelerator] pair (index 0 / index 1). The
// replica-state transitions are the runtime's own (runtime/msi.hpp drives
// them), so the static worlds evolve exactly like DataHandle replicas do
// online.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/lint.hpp"
#include "descriptor/descriptor.hpp"
#include "runtime/memory.hpp"
#include "runtime/topology.hpp"
#include "runtime/types.hpp"

namespace peppher::analyze {

inline constexpr int kHostSide = 0;
inline constexpr int kDeviceSide = 1;

/// True for kRead / kReadWrite.
bool mode_reads(rt::AccessMode mode);

/// True for kWrite / kReadWrite.
bool mode_writes(rt::AccessMode mode);

/// True when a replica in `state` can be read without a transfer.
bool replica_valid(rt::ReplicaState state);

/// "host" or "accelerator".
const char* side_name(int side);

/// One access of a call statement to the container under analysis (a call
/// may bind the same container to several parameters).
struct Access {
  rt::AccessMode mode = rt::AccessMode::kRead;
  bool hidden_write = false;  ///< declared read through a mutable type
  const desc::ParamDesc* param = nullptr;  ///< the bound parameter
};

/// The open read window of a container: its declared reads since the last
/// write, which the runtime runs concurrently (writes serialise per handle,
/// DESIGN.md §2). A hidden write in a window of two or more accesses races.
struct ReadWindow {
  int first_hidden = -1;   ///< stmt of the first hidden write, -1 if none
  int second_hidden = -1;  ///< stmt of the second hidden write, -1 if none
  int first_reader = -1;   ///< stmt of the first true read, -1 if none

  /// One access of statement `stmt_id`: a declared read joins the window,
  /// a write closes it.
  void join(int stmt_id, const Access& access);
};

/// One CFG node: a single statement (or a structural no-op for loop heads
/// and the entry/exit points). Successor edges only; the worklist pushes
/// forward.
struct Stmt {
  enum class Kind {
    kNop,
    kCall,
    kPartition,
    kUnpartition,
    kPrefetch,
    kPartitioned,  ///< distributed scatter (<partitioned>)
    kExchange,     ///< ghost-region refresh (<exchange>)
    kRepartition,  ///< distribution change (<repartition>)
    kGather,       ///< collect to the primary host (<gather>)
  };
  Kind kind = Kind::kNop;
  const desc::CallNode* node = nullptr;  ///< null for structural no-ops
  int call_index = -1;  ///< flattened index into MainDescriptor::calls
  int loop_depth = 0;   ///< nesting depth of enclosing <loop> statements
  CallPlacement placement = CallPlacement::kAny;
  std::vector<int> succs;
};

struct Cfg {
  std::vector<Stmt> stmts;
  int entry = -1;
  int exit = -1;
};

/// The main module's statement tree. Programmatic descriptors fill only the
/// flattened MainDescriptor::calls; for them this is the straight line of
/// those calls.
std::vector<desc::CallNode> statement_tree(const desc::MainDescriptor& main);

/// Lowers a <calls> statement tree to the statement CFG. Call statements
/// are numbered in document order, exactly like MainDescriptor::calls (the
/// flattened view). Loop bodies execute at least once (declared trip count
/// >= 1): entry flows into the head, the body's exit loops back unless the
/// count is exactly 1.
Cfg lower_call_tree(const desc::Repository& repo, const LintOptions& options,
                    const std::vector<desc::CallNode>& tree);

/// One feasible execution history of a single container, collapsed to the
/// facts the checks need. The replica states are the runtime's own
/// (runtime/msi.hpp drives the transitions), over the abstract machine:
/// two slots (host, accelerator) per simulated cluster node, index 0 always
/// the primary host. While the container is distributed (dist_stmt >= 0)
/// the vector is read per slice: node k's pair models node k's *owned
/// slice*, an independent two-level machine the other nodes never touch.
struct World {
  std::vector<rt::ReplicaState> state{rt::ReplicaState::kOwned,
                                      rt::ReplicaState::kInvalid};
  bool initialized = false;   ///< a program write reached this point
  int partition_stmt = -1;    ///< stmt of the open <partition>, -1 if none
  int pending_write = -1;     ///< stmt of the last write nothing read yet
  int last_writer = -1;       ///< mem node of the last pinned write, -1 unknown
  int writer_stmt = -1;       ///< stmt of that pinned write
  int cross_reader = -1;      ///< stmt of the first pinned same-node
                              ///< cross-side read since then, -1 if none
  ReadWindow window;

  // Distributed-partitioning facts (all defaults while the container is a
  // plain single-home allocation).
  int dist_stmt = -1;   ///< stmt of the open <partitioned>, -1 if none
  int dist_nodes = 0;   ///< declared owning node count of that partitioning
  int halo = 0;         ///< declared ghost width of that partitioning
  bool exchanged = false;      ///< ghosts refreshed since the last write
  bool exchange_open = false;  ///< an <exchange> is in flight (not quiesced)
  bool cross_node_read = false;  ///< a pinned remote-node read since the write

  bool partitioned() const { return partition_stmt >= 0; }
  bool distributed() const { return dist_stmt >= 0; }

  bool operator<(const World& other) const;
};

using Worlds = std::set<World>;

/// The call's accesses to the container under analysis, in binding order.
std::vector<Access> call_accesses(const desc::Repository& repo,
                                  const desc::CallDesc& call,
                                  const std::string& data);

/// What happened to pending writes (World::pending_write) across the
/// statements the dead-write analysis replays.
struct Liveness {
  std::set<int> read;  ///< pending writes some path reads
  /// Pending write -> the statements that overwrite it unread.
  std::map<int, std::set<int>> overwritten_by;
};

/// Applies one call's accesses to a world, pinned to memory node `node` of
/// the abstract topology `topo` (the verifier builds it: one host + one
/// accelerator slot per cluster node; single_host(2) without a profile).
/// Distributed worlds route the access through the pinned node's per-slice
/// sub-machine; plain worlds take the full topology-aware MSI transition.
/// `liveness`, when non-null, collects the dead-write facts — the transfer
/// itself is reporting-free.
void apply_call(World& w, int stmt_id, const Stmt& stmt,
                const std::vector<Access>& accesses, int node,
                const rt::MemTopology& topo, Liveness* liveness);

}  // namespace peppher::analyze
