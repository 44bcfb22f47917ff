#include "analyze/cfg.hpp"

#include <tuple>

#include "runtime/msi.hpp"

namespace peppher::analyze {

bool mode_reads(rt::AccessMode mode) {
  return mode == rt::AccessMode::kRead || mode == rt::AccessMode::kReadWrite;
}

bool mode_writes(rt::AccessMode mode) {
  return mode == rt::AccessMode::kWrite || mode == rt::AccessMode::kReadWrite;
}

bool replica_valid(rt::ReplicaState state) {
  return state != rt::ReplicaState::kInvalid;
}

const char* side_name(int side) {
  return side == kHostSide ? "host" : "accelerator";
}

// ---------------------------------------------------------------------------
// CFG lowering
// ---------------------------------------------------------------------------

namespace {

Stmt::Kind statement_kind(desc::CallNode::Kind kind) {
  switch (kind) {
    case desc::CallNode::Kind::kPartition:
      return Stmt::Kind::kPartition;
    case desc::CallNode::Kind::kUnpartition:
      return Stmt::Kind::kUnpartition;
    case desc::CallNode::Kind::kPrefetch:
      return Stmt::Kind::kPrefetch;
    case desc::CallNode::Kind::kPartitioned:
      return Stmt::Kind::kPartitioned;
    case desc::CallNode::Kind::kExchange:
      return Stmt::Kind::kExchange;
    case desc::CallNode::Kind::kRepartition:
      return Stmt::Kind::kRepartition;
    case desc::CallNode::Kind::kGather:
      return Stmt::Kind::kGather;
    default:
      return Stmt::Kind::kNop;  // kCall/kLoop/kIf lower elsewhere
  }
}

class Lowering {
 public:
  Lowering(const desc::Repository& repo, const LintOptions& options)
      : repo_(repo), options_(options) {}

  Cfg lower(const std::vector<desc::CallNode>& tree) {
    Cfg cfg;
    const int entry = add(Stmt{});
    std::vector<int> frontier = lower_block(tree, {entry}, 0);
    const int exit = add(Stmt{});
    wire(frontier, exit);
    cfg.stmts = std::move(stmts_);
    cfg.entry = entry;
    cfg.exit = exit;
    return cfg;
  }

 private:
  int add(Stmt stmt) {
    stmts_.push_back(std::move(stmt));
    return static_cast<int>(stmts_.size()) - 1;
  }

  void wire(const std::vector<int>& from, int to) {
    for (int s : from) stmts_[s].succs.push_back(to);
  }

  /// Lowers a statement list entered from `frontier`; returns the frontier
  /// leaving it. Visits kCall nodes in document order so `call_index_`
  /// counts exactly like MainDescriptor::calls (the flattened view).
  std::vector<int> lower_block(const std::vector<desc::CallNode>& block,
                               std::vector<int> frontier, int loop_depth) {
    for (const desc::CallNode& node : block) {
      switch (node.kind) {
        case desc::CallNode::Kind::kCall: {
          Stmt stmt;
          stmt.kind = Stmt::Kind::kCall;
          stmt.node = &node;
          stmt.call_index = call_index_++;
          stmt.loop_depth = loop_depth;
          stmt.placement = call_placement(repo_, options_, node.call);
          const int id = add(std::move(stmt));
          wire(frontier, id);
          frontier = {id};
          break;
        }
        case desc::CallNode::Kind::kPartition:
        case desc::CallNode::Kind::kUnpartition:
        case desc::CallNode::Kind::kPrefetch:
        case desc::CallNode::Kind::kPartitioned:
        case desc::CallNode::Kind::kExchange:
        case desc::CallNode::Kind::kRepartition:
        case desc::CallNode::Kind::kGather: {
          Stmt stmt;
          stmt.kind = statement_kind(node.kind);
          stmt.node = &node;
          stmt.loop_depth = loop_depth;
          const int id = add(std::move(stmt));
          wire(frontier, id);
          frontier = {id};
          break;
        }
        case desc::CallNode::Kind::kLoop: {
          // The declared trip count is >= 1, so the body executes at least
          // once: entry flows into the head, the body's exit both loops back
          // to the head (unless the count is exactly 1) and leaves the loop.
          Stmt head;
          head.loop_depth = loop_depth;
          const int head_id = add(std::move(head));
          wire(frontier, head_id);
          std::vector<int> body_exit =
              lower_block(node.body, {head_id}, loop_depth + 1);
          if (node.loop_count != 1) wire(body_exit, head_id);
          frontier = std::move(body_exit);
          break;
        }
        case desc::CallNode::Kind::kIf: {
          std::vector<int> then_exit =
              lower_block(node.body, frontier, loop_depth);
          std::vector<int> else_exit =
              node.else_body.empty()
                  ? frontier  // fall through around the branch
                  : lower_block(node.else_body, frontier, loop_depth);
          then_exit.insert(then_exit.end(), else_exit.begin(),
                           else_exit.end());
          frontier = std::move(then_exit);
          break;
        }
      }
    }
    return frontier;
  }

  const desc::Repository& repo_;
  const LintOptions& options_;
  std::vector<Stmt> stmts_;
  int call_index_ = 0;
};

}  // namespace

std::vector<desc::CallNode> statement_tree(const desc::MainDescriptor& main) {
  if (!main.call_tree.empty()) return main.call_tree;
  std::vector<desc::CallNode> tree;
  for (const desc::CallDesc& call : main.calls) {
    desc::CallNode node;
    node.kind = desc::CallNode::Kind::kCall;
    node.call = call;
    node.loc = call.loc;
    tree.push_back(std::move(node));
  }
  return tree;
}

Cfg lower_call_tree(const desc::Repository& repo, const LintOptions& options,
                    const std::vector<desc::CallNode>& tree) {
  Lowering lowering(repo, options);
  return lowering.lower(tree);
}

// ---------------------------------------------------------------------------
// Abstract domain: per container, a set of worlds
// ---------------------------------------------------------------------------

void ReadWindow::join(int stmt_id, const Access& access) {
  if (access.mode != rt::AccessMode::kRead) {
    *this = ReadWindow{};
  } else if (!access.hidden_write) {
    if (first_reader < 0) first_reader = stmt_id;
  } else if (first_hidden < 0) {
    first_hidden = stmt_id;
  } else if (second_hidden < 0) {
    second_hidden = stmt_id;
  }
}

bool World::operator<(const World& other) const {
  return std::tie(state, initialized, partition_stmt, pending_write,
                  last_writer, writer_stmt, cross_reader, window.first_hidden,
                  window.second_hidden, window.first_reader, dist_stmt,
                  dist_nodes, halo, exchanged, exchange_open,
                  cross_node_read) <
         std::tie(other.state, other.initialized, other.partition_stmt,
                  other.pending_write, other.last_writer, other.writer_stmt,
                  other.cross_reader, other.window.first_hidden,
                  other.window.second_hidden, other.window.first_reader,
                  other.dist_stmt, other.dist_nodes, other.halo,
                  other.exchanged, other.exchange_open, other.cross_node_read);
}

std::vector<Access> call_accesses(const desc::Repository& repo,
                                  const desc::CallDesc& call,
                                  const std::string& data) {
  std::vector<Access> out;
  const desc::InterfaceDescriptor* iface =
      repo.find_interface(call.interface_name);
  if (iface == nullptr) return out;  // PL034's problem, not ours
  for (const desc::CallArgDesc& arg : call.args) {
    if (arg.data != data) continue;
    for (const desc::ParamDesc& p : iface->params) {
      if (p.name != arg.param || !p.is_operand()) continue;
      Access access;
      access.mode = p.access;
      access.hidden_write = p.access == rt::AccessMode::kRead &&
                            p.type.find("const") == std::string::npos;
      access.param = &p;
      out.push_back(access);
    }
  }
  return out;
}

void apply_call(World& w, int stmt_id, const Stmt& stmt,
                const std::vector<Access>& accesses, int node,
                const rt::MemTopology& topo, Liveness* liveness) {
  const bool pinned = stmt.placement != CallPlacement::kAny;
  bool wrote = false;  ///< an earlier access of this call wrote
  for (const Access& access : accesses) {
    if (w.distributed()) {
      // Per-slice sub-machine: the partitioning scattered each slice to its
      // owning node's host, so the pinned node's [host, accelerator] pair is
      // an independent two-level machine; other nodes' slices are separate
      // data the access never touches.
      const int host = topo.host_of(topo.sim_node(node));
      const int dev = host + 1;
      std::vector<rt::ReplicaState> sub{w.state[static_cast<std::size_t>(host)],
                                        w.state[static_cast<std::size_t>(dev)]};
      if (!replica_valid(sub[0]) && !replica_valid(sub[1])) {
        // A pin outside the owning nodes (PL084 reports it): keep the
        // sub-machine total so the fixpoint still converges.
        sub[0] = rt::ReplicaState::kOwned;
      }
      rt::msi::apply_acquire(sub, node == host ? kHostSide : kDeviceSide,
                             access.mode);
      w.state[static_cast<std::size_t>(host)] = sub[0];
      w.state[static_cast<std::size_t>(dev)] = sub[1];
    } else {
      rt::msi::apply_acquire(w.state, node, access.mode, topo);
    }
    if (mode_reads(access.mode)) {
      if (w.pending_write >= 0 && liveness != nullptr) {
        liveness->read.insert(w.pending_write);
      }
      w.pending_write = -1;
      if (pinned && w.last_writer >= 0 && node != w.last_writer) {
        if (topo.sim_node(node) != topo.sim_node(w.last_writer)) {
          w.cross_node_read = true;
        } else if (w.cross_reader < 0) {
          w.cross_reader = stmt_id;
        }
      }
      // A dependent read forces the asynchronous ghost copies to complete.
      w.exchange_open = false;
    }
    w.window.join(stmt_id, access);
    if (mode_writes(access.mode)) {
      w.initialized = true;
      // Dead-write tracking is a whole-container analysis: while scattered,
      // per-node writes touch disjoint slices, so a later write on another
      // node never shadows this one. A call overwriting its own value
      // (aliased operands, PL030) does not overwrite an earlier write.
      if (!w.distributed()) {
        if (liveness != nullptr && w.pending_write >= 0 && !wrote) {
          liveness->overwritten_by[w.pending_write].insert(stmt_id);
        }
        w.pending_write = stmt_id;
      }
      wrote = true;
      w.last_writer = pinned ? node : -1;
      w.writer_stmt = pinned ? stmt_id : -1;
      w.cross_reader = -1;
      w.cross_node_read = false;
      if (w.distributed()) {
        w.exchanged = false;  // ghost copies are stale after any write
        w.exchange_open = false;
      }
    }
  }
}

}  // namespace peppher::analyze
