#include "analyze/verify.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "analyze/cfg.hpp"
#include "runtime/memory.hpp"
#include "runtime/msi.hpp"
#include "runtime/topology.hpp"

namespace peppher::analyze {

namespace {

using diag::DiagnosticBag;
using diag::Severity;
using diag::SourceLocation;

constexpr int kDefaultMaxSteps = 100000;  // per container; PL069 beyond

/// "%g"-style rendering for the cost-weighted messages (std::to_string
/// prints six fixed decimals, which reads badly for link parameters).
std::string format_g(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// The verifier's abstract machine for a cluster profile: exactly two slots
/// per simulated node (the host plus one abstract accelerator standing in
/// for all of that node's devices), hosts on the even indices. Without a
/// profile — or with a degenerate one-node profile — this is the historical
/// single_host(2) pair, so the output stays byte-identical to pre-cluster
/// runs.
rt::MemTopology abstract_topology(
    const std::optional<sim::ClusterConfig>& cluster) {
  if (!cluster.has_value() || cluster->nodes.size() <= 1) {
    return rt::MemTopology::single_host(2);
  }
  sim::ClusterConfig abstract = *cluster;
  for (sim::NodeConfig& node : abstract.nodes) {
    if (node.machine.accelerators.empty()) {
      node.machine.accelerators.push_back(sim::DeviceProfile::tesla_c2050());
    }
    node.machine.accelerators.resize(1);
  }
  return rt::MemTopology::of_cluster(abstract);
}

// ---------------------------------------------------------------------------
// The verifier
// ---------------------------------------------------------------------------

class Verifier {
 public:
  Verifier(const desc::Repository& repo, const LintOptions& options,
           const desc::MainDescriptor& main)
      : repo_(repo),
        options_(options),
        main_(main),
        max_steps_(options.verify_max_steps > 0 ? options.verify_max_steps
                                                : kDefaultMaxSteps),
        topo_(abstract_topology(options.cluster)),
        sim_nodes_(topo_.sim_node_count()),
        tree_(statement_tree(main)) {}

  VerifyResult run() {
    VerifyResult result;
    cfg_ = lower_call_tree(repo_, options_, tree_);

    // PL084, the pin half: a call pinned to a node the cluster profile
    // does not provide. Container-independent, so it reports here rather
    // than once per bound container.
    if (options_.cluster.has_value()) {
      for (std::size_t i = 0; i < cfg_.stmts.size(); ++i) {
        const Stmt& stmt = cfg_.stmts[i];
        if (stmt.kind != Stmt::Kind::kCall) continue;
        if (stmt.node->call.node < sim_nodes_) continue;
        result.bag.add("PL084", Severity::kError,
                       call_label(static_cast<int>(i)) + " is pinned to node " +
                           std::to_string(stmt.node->call.node) +
                           " but the cluster profile '" +
                           options_.cluster->name + "' provides only nodes "
                           "0.." +
                           std::to_string(sim_nodes_ - 1),
                       loc_of(static_cast<int>(i)));
      }
    }

    // Hazards merge per container in name order, so findings that share a
    // location list by container name.
    std::map<std::string, DiagnosticBag> hazards;
    for (const std::string& data : containers()) {
      analyze_container(data, result, hazards[data]);
      if (!result.fixpoint_reached) break;
    }
    for (const auto& [data, bag] : hazards) {
      result.hazards.merge(bag.diagnostics());
    }
    result.bag.sort();
    result.hazards.sort();
    return result;
  }

 private:
  /// Every container the statement tree touches, in first-appearance order.
  std::vector<std::string> containers() const {
    std::vector<std::string> out;
    std::set<std::string> seen;
    auto remember = [&](const std::string& data) {
      if (!data.empty() && seen.insert(data).second) out.push_back(data);
    };
    for (const Stmt& stmt : cfg_.stmts) {
      if (stmt.node == nullptr) continue;
      remember(stmt.node->data);
      if (stmt.kind == Stmt::Kind::kCall) {
        for (const desc::CallArgDesc& arg : stmt.node->call.args) {
          remember(arg.data);
        }
      }
    }
    return out;
  }

  SourceLocation loc_of(int stmt_id) const {
    const Stmt& stmt = cfg_.stmts[stmt_id];
    return stmt.node != nullptr ? stmt.node->loc : main_.loc;
  }

  /// "call #3 (axpy)": a call statement as the findings name it.
  std::string call_label(int stmt_id) const {
    const Stmt& stmt = cfg_.stmts[stmt_id];
    return "call #" + std::to_string(stmt.call_index + 1) + " (" +
           stmt.node->call.interface_name + ")";
  }

  /// The side of the PCIe link a pinned call statement runs on.
  int side_of(int stmt_id) const {
    return cfg_.stmts[stmt_id].placement == CallPlacement::kHost ? kHostSide
                                                                 : kDeviceSide;
  }

  /// Forward transfer of one statement over one world, for container
  /// `data`. Appends the (possibly forked) successor worlds to `out`.
  void transfer(int stmt_id, const std::string& data, const World& in,
                Worlds& out, Liveness* liveness) {
    const Stmt& stmt = cfg_.stmts[stmt_id];
    switch (stmt.kind) {
      case Stmt::Kind::kNop:
        out.insert(in);
        return;
      case Stmt::Kind::kPartition:
        if (stmt.node->data == data) {
          World w = in;
          w.partition_stmt = stmt_id;
          rt::msi::apply_host_reclaim(w.state);
          out.insert(std::move(w));
          return;
        }
        out.insert(in);
        return;
      case Stmt::Kind::kUnpartition:
        if (stmt.node->data == data) {
          World w = in;
          w.partition_stmt = -1;
          rt::msi::apply_host_reclaim(w.state);
          out.insert(std::move(w));
          return;
        }
        out.insert(in);
        return;
      case Stmt::Kind::kPrefetch:
        if (stmt.node->data == data) {
          World w = in;
          if (!w.distributed()) {  // a distributed container has no single home
            rt::msi::apply_acquire(
                w.state,
                stmt.node->prefetch_to_device ? kDeviceSide : kHostSide,
                rt::AccessMode::kRead, topo_);
          }
          out.insert(std::move(w));
          return;
        }
        out.insert(in);
        return;
      case Stmt::Kind::kPartitioned:
        if (stmt.node->data == data) {
          World w = in;
          open_distribution(w, stmt_id, stmt);
          out.insert(std::move(w));
          return;
        }
        out.insert(in);
        return;
      case Stmt::Kind::kExchange:
        if (stmt.node->data == data) {
          World w = in;
          if (w.distributed()) {
            // Ghost refresh: every owning host reads its neighbours' border
            // rows — per slice a host-side read acquire.
            const int owners = std::min(w.dist_nodes, sim_nodes_);
            for (int k = 0; k < owners; ++k) {
              const std::size_t host =
                  static_cast<std::size_t>(topo_.host_of(k));
              std::vector<rt::ReplicaState> sub{w.state[host],
                                                w.state[host + 1]};
              if (!replica_valid(sub[0]) && !replica_valid(sub[1])) {
                sub[0] = rt::ReplicaState::kOwned;  // untouched slice
              }
              rt::msi::apply_acquire(sub, kHostSide, rt::AccessMode::kRead);
              w.state[host] = sub[0];
              w.state[host + 1] = sub[1];
            }
            w.exchanged = true;
            w.exchange_open = true;
          }
          out.insert(std::move(w));
          return;
        }
        out.insert(in);
        return;
      case Stmt::Kind::kRepartition:
        if (stmt.node->data == data) {
          World w = in;
          if (!w.distributed() || stmt.node->nodes != w.dist_nodes) {
            open_distribution(w, stmt_id, stmt);  // re-scatter
          } else {
            w.dist_stmt = stmt_id;
            w.halo = stmt.node->halo;
            w.exchanged = false;
            w.exchange_open = false;
          }
          out.insert(std::move(w));
          return;
        }
        out.insert(in);
        return;
      case Stmt::Kind::kGather:
        if (stmt.node->data == data) {
          World w = in;
          if (w.distributed()) {
            w.dist_stmt = -1;
            w.dist_nodes = 0;
            w.halo = 0;
            w.exchanged = false;
            w.exchange_open = false;
            // The gather collects every slice back onto the primary host;
            // stale per-node writer tracking must not outlive the region.
            w.last_writer = -1;
            w.writer_stmt = -1;
            w.cross_reader = -1;
            w.cross_node_read = false;
            rt::msi::apply_host_reclaim(w.state);
          }
          out.insert(std::move(w));
          return;
        }
        out.insert(in);
        return;
      case Stmt::Kind::kCall: {
        const std::vector<Access> accesses =
            call_accesses(repo_, stmt.node->call, data);
        if (accesses.empty()) {
          out.insert(in);
          return;
        }
        // Node pins outside the profile are clamped here (PL084 reports
        // them); the placement fork stays within the pinned node.
        const int pin = std::clamp(stmt.node->call.node, 0, sim_nodes_ - 1);
        const int host = topo_.host_of(pin);
        if (stmt.placement == CallPlacement::kAny) {
          // Placement is the scheduler's choice: both sides are feasible.
          for (int mem : {host, host + 1}) {
            World w = in;
            apply_call(w, stmt_id, stmt, accesses, mem, topo_, liveness);
            out.insert(std::move(w));
          }
        } else {
          World w = in;
          apply_call(w, stmt_id, stmt, accesses,
                     stmt.placement == CallPlacement::kHost ? host : host + 1,
                     topo_, liveness);
          out.insert(std::move(w));
        }
        return;
      }
    }
  }

  /// Opens (or re-opens) a distributed partitioning over a world: records
  /// the declared shape and eagerly scatters — each owning node's host slot
  /// becomes Owned, everything else Invalid — matching the runtime, which
  /// registers one independent per-slice handle homed on its owner.
  void open_distribution(World& w, int stmt_id, const Stmt& stmt) {
    w.dist_stmt = stmt_id;
    w.dist_nodes = stmt.node->nodes;
    w.halo = stmt.node->halo;
    w.exchanged = false;
    w.exchange_open = false;
    // Scattering re-homes the container: whole-container writer/ping-pong
    // tracking restarts because each node now owns exactly its slice.
    w.last_writer = -1;
    w.writer_stmt = -1;
    w.cross_reader = -1;
    w.cross_node_read = false;
    std::fill(w.state.begin(), w.state.end(), rt::ReplicaState::kInvalid);
    const int owners = std::min(w.dist_nodes, sim_nodes_);
    for (int k = 0; k < owners; ++k) {
      w.state[static_cast<std::size_t>(topo_.host_of(k))] =
          rt::ReplicaState::kOwned;
    }
  }

  void analyze_container(const std::string& data, VerifyResult& result,
                         DiagnosticBag& hazards) {
    // Worklist fixpoint: IN[entry] = {fresh world} (the data manager
    // registers every container host-Owned), IN[s] accumulates the join
    // (set union) of predecessor OUT sets until nothing changes.
    std::vector<Worlds> in(cfg_.stmts.size());
    std::vector<char> queued(cfg_.stmts.size(), 0);
    std::deque<int> worklist;
    World seed;  // registration: primary host Owned, everything else Invalid
    seed.state.assign(static_cast<std::size_t>(topo_.node_count()),
                      rt::ReplicaState::kInvalid);
    seed.state[0] = rt::ReplicaState::kOwned;
    in[cfg_.entry].insert(std::move(seed));
    worklist.push_back(cfg_.entry);
    queued[cfg_.entry] = 1;

    int steps = 0;
    while (!worklist.empty()) {
      if (++steps > max_steps_) {
        result.fixpoint_reached = false;
        result.bag.add(
            "PL069", Severity::kError,
            "coherence verifier exhausted its iteration budget (" +
                std::to_string(max_steps_) + " steps) on container '" + data +
                "' without reaching a fixpoint — the abstract state kept "
                "growing; simplify the <calls> section or report a bug",
            main_.loc);
        result.steps += steps;
        return;
      }
      const int stmt_id = worklist.front();
      worklist.pop_front();
      queued[stmt_id] = 0;

      Worlds out;
      for (const World& w : in[stmt_id]) {
        transfer(stmt_id, data, w, out, nullptr);
      }
      for (int succ : cfg_.stmts[stmt_id].succs) {
        bool grew = false;
        for (const World& w : out) {
          if (in[succ].insert(w).second) grew = true;
        }
        if (grew && !queued[succ]) {
          worklist.push_back(succ);
          queued[succ] = 1;
        }
      }
    }
    result.steps += steps;

    report(data, in, result, hazards);
  }

  /// What the reporting pass accumulates over one container's statements.
  struct ContainerReport {
    DiagnosticBag& hazards;      ///< PL031..PL033, PL052
    Liveness liveness{};         ///< the fate of every pending write
    std::set<int> candidates{};  ///< every whole-container write statement
    bool pingpong_reported = false;  ///< PL052 reports once per container
  };

  /// Walks every statement once over its converged IN set and emits the
  /// diagnostics. Separated from the fixpoint so nothing is reported twice
  /// and every report sees the final (all-paths) state.
  void report(const std::string& data, const std::vector<Worlds>& in,
              VerifyResult& result, DiagnosticBag& hazards) {
    DiagnosticBag& bag = result.bag;
    ContainerReport container{hazards};
    std::set<int> escaped;  ///< pending writes reaching program end

    // PL060 only makes sense for containers the program itself defines
    // (some pure write exists): a container only ever read or accumulated
    // into (readwrite) is application-initialised by design, and its
    // first-iteration "unwritten" world is not a bug.
    bool program_defined = false;
    for (const Stmt& stmt : cfg_.stmts) {
      if (stmt.kind != Stmt::Kind::kCall) continue;
      for (const Access& access : call_accesses(repo_, stmt.node->call, data)) {
        if (access.mode == rt::AccessMode::kWrite) program_defined = true;
      }
    }
    program_defined_ = program_defined;

    for (std::size_t stmt_id = 0; stmt_id < cfg_.stmts.size(); ++stmt_id) {
      const Stmt& stmt = cfg_.stmts[stmt_id];
      const Worlds& worlds = in[stmt_id];
      if (worlds.empty()) continue;  // unreachable

      switch (stmt.kind) {
        case Stmt::Kind::kNop:
          break;
        case Stmt::Kind::kPartition: {
          if (stmt.node->data != data) break;
          for (const World& w : worlds) {
            if (w.partitioned()) {
              bag.add("PL066", Severity::kError,
                      "container '" + data +
                          "' is partitioned again while the partition at " +
                          loc_of(w.partition_stmt).to_string() +
                          " is still open on some path",
                      loc_of(static_cast<int>(stmt_id)));
              break;
            }
          }
          break;
        }
        case Stmt::Kind::kUnpartition: {
          if (stmt.node->data != data) break;
          for (const World& w : worlds) {
            if (!w.partitioned()) {
              bag.add("PL066", Severity::kError,
                      "container '" + data +
                          "' is unpartitioned without an open partition on "
                          "some path",
                      loc_of(static_cast<int>(stmt_id)));
              break;
            }
          }
          break;
        }
        case Stmt::Kind::kPrefetch: {
          if (stmt.node->data != data) break;
          report_partitioned_access(data, worlds, static_cast<int>(stmt_id),
                                    bag);
          const int side =
              stmt.node->prefetch_to_device ? kDeviceSide : kHostSide;
          const bool always_valid =
              std::all_of(worlds.begin(), worlds.end(), [&](const World& w) {
                return replica_valid(w.state[side]);
              });
          if (always_valid) {
            bag.add("PL061", Severity::kNote,
                    "prefetch of container '" + data + "' to the " +
                        side_name(side) +
                        " is redundant: a valid replica already exists "
                        "there on every path",
                    loc_of(static_cast<int>(stmt_id)));
          }
          break;
        }
        case Stmt::Kind::kPartitioned: {
          if (stmt.node->data != data) break;
          report_partitioned_access(data, worlds, static_cast<int>(stmt_id),
                                    bag);
          for (const World& w : worlds) {
            if (w.distributed()) {
              bag.add("PL066", Severity::kError,
                      "container '" + data +
                          "' is partitioned across the cluster again while "
                          "the distributed partitioning at " +
                          loc_of(w.dist_stmt).to_string() +
                          " is still open on some path — use <repartition> "
                          "to change an open distribution",
                      loc_of(static_cast<int>(stmt_id)));
              break;
            }
          }
          report_distribution_shape(data, stmt, static_cast<int>(stmt_id),
                                    bag);
          break;
        }
        case Stmt::Kind::kExchange: {
          if (stmt.node->data != data) break;
          for (const World& w : worlds) {
            if (!w.distributed()) {
              bag.add("PL066", Severity::kError,
                      "container '" + data +
                          "' gets a halo exchange without an open "
                          "distributed partitioning on some path — "
                          "<exchange> only applies between <partitioned> "
                          "and <gather>",
                      loc_of(static_cast<int>(stmt_id)));
              break;
            }
          }
          break;
        }
        case Stmt::Kind::kRepartition: {
          if (stmt.node->data != data) break;
          for (const World& w : worlds) {
            if (!w.distributed()) {
              bag.add("PL066", Severity::kError,
                      "container '" + data +
                          "' is repartitioned without an open distributed "
                          "partitioning on some path — open one with "
                          "<partitioned> first",
                      loc_of(static_cast<int>(stmt_id)));
              break;
            }
          }
          // PL083: changing the owner count re-scatters from the hosts, so
          // every live accelerator replica is flushed and re-uploaded.
          for (const World& w : worlds) {
            if (!w.distributed() || stmt.node->nodes == w.dist_nodes) continue;
            bool device_replica = false;
            for (int n = 0; n < topo_.node_count(); ++n) {
              if (!topo_.is_host(n) &&
                  replica_valid(w.state[static_cast<std::size_t>(n)])) {
                device_replica = true;
              }
            }
            if (device_replica) {
              bag.add(
                  "PL083", Severity::kWarning,
                  "repartitioning container '" + data + "' from " +
                      std::to_string(w.dist_nodes) + " to " +
                      std::to_string(stmt.node->nodes) +
                      " nodes forces the accelerator replicas off the "
                      "devices on some path — every device copy drains "
                      "through its host and is re-uploaded; gather results "
                      "or move the repartition out of the hot loop",
                  loc_of(static_cast<int>(stmt_id)));
              break;
            }
          }
          report_distribution_shape(data, stmt, static_cast<int>(stmt_id),
                                    bag);
          break;
        }
        case Stmt::Kind::kGather: {
          if (stmt.node->data != data) break;
          bool stray = false;
          bool inflight = false;
          for (const World& w : worlds) {
            if (!w.distributed()) {
              stray = true;
            } else if (w.exchange_open) {
              inflight = true;
            }
          }
          if (stray) {
            bag.add("PL066", Severity::kError,
                    "container '" + data +
                        "' is gathered without an open distributed "
                        "partitioning on some path",
                    loc_of(static_cast<int>(stmt_id)));
          }
          if (inflight) {
            bag.add("PL085", Severity::kError,
                    "container '" + data +
                        "' is gathered while a halo exchange is still in "
                        "flight on some path — the gather can observe "
                        "half-written ghost regions; read the exchanged "
                        "data (quiesce) before gathering",
                    loc_of(static_cast<int>(stmt_id)));
          }
          break;
        }
        case Stmt::Kind::kCall: {
          const std::vector<Access> accesses =
              call_accesses(repo_, stmt.node->call, data);
          if (accesses.empty()) break;
          // Publish the converged pre-state of this program point for the
          // verify_shadow cross-validation (VerifyResult::admits).
          std::vector<AbstractWorld>& published =
              result.states[stmt.call_index][data];
          std::set<std::tuple<std::vector<rt::ReplicaState>, bool, bool>> seen;
          for (const World& w : worlds) {
            if (seen.insert({w.state, w.initialized, w.partitioned()})
                    .second) {
              AbstractWorld aw;
              aw.host = w.state[kHostSide];
              aw.device = w.state[kDeviceSide];
              aw.initialized = w.initialized;
              aw.partitioned = w.partitioned();
              aw.nodes = w.state;
              published.push_back(std::move(aw));
            }
          }
          report_partitioned_access(data, worlds, static_cast<int>(stmt_id),
                                    bag);
          report_call(data, stmt, static_cast<int>(stmt_id), accesses, worlds,
                      bag, container);
          break;
        }
      }
    }

    std::set<int> open_dist;  ///< distributed partitionings leaking to exit
    for (const World& w : in[cfg_.exit]) {
      if (w.pending_write >= 0) escaped.insert(w.pending_write);
      if (w.partitioned()) {
        bag.add("PL063", Severity::kWarning,
                "container '" + data +
                    "' is still partitioned when the program ends on some "
                    "path — no <unpartition> matches this <partition>",
                loc_of(w.partition_stmt));
      }
      if (w.distributed()) open_dist.insert(w.dist_stmt);
    }
    for (int dist_stmt : open_dist) {
      bag.add("PL063", Severity::kWarning,
              "container '" + data +
                  "' is still distributed when the program ends on some "
                  "path — no <gather> collects the partitioning declared "
                  "here",
              loc_of(dist_stmt));
    }

    // A write is dead when no path reads it and no path carries it to the
    // program end (program outputs legitimately escape unread): every path
    // overwrites it first. Overwritten by the same call on every path it is
    // that call's PL033; by different calls on different paths, PL062.
    for (int write_stmt : container.candidates) {
      if (container.liveness.read.count(write_stmt) ||
          escaped.count(write_stmt)) {
        continue;
      }
      const std::set<int>& by = container.liveness.overwritten_by[write_stmt];
      if (by.size() == 1) {
        hazards.add("PL033", Severity::kWarning,
                    "container '" + data + "' written by " +
                        call_label(write_stmt) + " is overwritten by " +
                        call_label(*by.begin()) +
                        " before any read (dead write or missing dependency)",
                    loc_of(*by.begin()));
        continue;
      }
      bag.add("PL062", Severity::kWarning,
              "the value written to container '" + data +
                  "' here is overwritten on every path before any read "
                  "(dead write or missing dependency)",
              loc_of(write_stmt));
    }
  }

  void report_partitioned_access(const std::string& data, const Worlds& worlds,
                                 int stmt_id, DiagnosticBag& bag) {
    for (const World& w : worlds) {
      if (w.partitioned()) {
        bag.add("PL066", Severity::kError,
                "container '" + data +
                    "' is accessed while the partition at " +
                    loc_of(w.partition_stmt).to_string() +
                    " is still open on some path — partitioned data is only "
                    "reachable through its children",
                loc_of(stmt_id));
        return;
      }
    }
  }

  /// PL084, the static half: the declared distribution shape itself —
  /// more owning nodes than the profile provides, or explicit slices that
  /// leave coverage gaps or overlap. Path-independent, so it reports off
  /// the declaration alone.
  void report_distribution_shape(const std::string& data, const Stmt& stmt,
                                 int stmt_id, DiagnosticBag& bag) {
    const desc::CallNode& node = *stmt.node;
    if (options_.cluster.has_value() && node.nodes > sim_nodes_) {
      bag.add("PL084", Severity::kError,
              "container '" + data + "' is partitioned across " +
                  std::to_string(node.nodes) +
                  " nodes but the cluster profile '" +
                  options_.cluster->name + "' provides only " +
                  std::to_string(sim_nodes_),
              loc_of(stmt_id));
    }
    if (node.slices.empty()) return;
    std::vector<desc::SliceDecl> slices = node.slices;
    std::sort(slices.begin(), slices.end(),
              [](const desc::SliceDecl& a, const desc::SliceDecl& b) {
                return a.begin < b.begin;
              });
    long long cursor = 0;
    for (const desc::SliceDecl& slice : slices) {
      if (slice.begin > cursor) {
        bag.add("PL084", Severity::kError,
                "partitioned slice coverage gap: elements [" +
                    std::to_string(cursor) + ", " +
                    std::to_string(slice.begin) + ") of container '" + data +
                    "' are owned by no slice",
                slice.loc);
      } else if (slice.begin < cursor) {
        bag.add("PL084", Severity::kError,
                "partitioned slice overlap: elements [" +
                    std::to_string(slice.begin) + ", " +
                    std::to_string(std::min(cursor, slice.end)) +
                    ") of container '" + data +
                    "' are owned by more than one slice",
                slice.loc);
      }
      cursor = std::max(cursor, slice.end);
    }
    if (cursor < node.elements) {
      bag.add("PL084", Severity::kError,
              "partitioned slice coverage gap: elements [" +
                  std::to_string(cursor) + ", " +
                  std::to_string(node.elements) + ") of container '" + data +
                  "' are owned by no slice",
              loc_of(stmt_id));
    }
  }

  void report_call(const std::string& data, const Stmt& stmt, int stmt_id,
                   const std::vector<Access>& accesses, const Worlds& worlds,
                   DiagnosticBag& bag, ContainerReport& container) {
    bool any_init = false, any_uninit = false;
    for (const World& w : worlds) {
      (w.initialized ? any_init : any_uninit) = true;
    }
    const bool mixed_init = any_init && any_uninit;

    const bool reads = std::any_of(
        accesses.begin(), accesses.end(),
        [](const Access& a) { return mode_reads(a.mode); });
    const bool writes = std::any_of(
        accesses.begin(), accesses.end(),
        [](const Access& a) { return mode_writes(a.mode); });
    // Dead-write analysis is whole-container: while the container is
    // scattered a pinned write touches only its own slice, so a later write
    // on another node never shadows it — such writes are never candidates.
    const bool any_distributed =
        std::any_of(worlds.begin(), worlds.end(),
                    [](const World& w) { return w.distributed(); });
    if (writes && !any_distributed) container.candidates.insert(stmt_id);

    if (reads && mixed_init && program_defined_) {
      bag.add("PL060", Severity::kWarning,
              call_label(stmt_id) + " reads container '" + data +
                  "' which is written on some control-flow paths but not "
                  "on all of them — on the unwritten paths the read "
                  "consumes uninitialised data",
              loc_of(stmt_id));
    }

    // PL086: the worlds joining here disagree about which cluster node
    // holds the fresh data — whichever path ran, the runtime must
    // conservatively synchronise over the internode link before this read.
    if (topo_.multi_node() && reads) {
      std::set<int> writer_nodes;
      for (const World& w : worlds) {
        if (w.last_writer >= 0) writer_nodes.insert(topo_.sim_node(w.last_writer));
      }
      if (writer_nodes.size() >= 2) {
        bag.add("PL086", Severity::kWarning,
                call_label(stmt_id) + " reads container '" + data +
                    "' whose abstract worlds diverge across cluster nodes "
                    "at this join — a different node holds the last write "
                    "depending on the control-flow path taken, so the "
                    "placement cannot avoid an internode transfer",
                loc_of(stmt_id));
      }
    }

    // The node pin of this call, clamped into the profile (the clamp is
    // what transfer() executed; PL084 reports the out-of-range pin).
    const int pin = std::clamp(stmt.node->call.node, 0, sim_nodes_ - 1);
    const int host_mem = topo_.host_of(pin);
    // PL087: the call's first access is a pure write — nothing read first,
    // so nothing forced the asynchronous ghost copies to complete.
    const bool leading_write =
        !accesses.empty() && accesses.front().mode == rt::AccessMode::kWrite;

    // Liveness and ping-pong are simulated per world so the facts stay
    // path-accurate.
    bool pingpong_reported = false;
    bool n2n_reported = false;
    bool halo_reported = false;
    bool unexchanged_reported = false;
    bool exchange_race_reported = false;
    bool bad_pin_reported = false;
    for (const World& w : worlds) {
      // Liveness for the dead-write analysis.
      {
        World scratch = w;
        Worlds discard;
        transfer(stmt_id, data, scratch, discard, &container.liveness);
      }

      if (w.distributed()) {
        if (!halo_reported && reads && stmt.node->call.radius > w.halo) {
          bag.add("PL080", Severity::kWarning,
                  call_label(stmt_id) +
                      " declares a stencil access radius of " +
                      std::to_string(stmt.node->call.radius) +
                      " on container '" + data +
                      "' but the partitioning declares a halo of only " +
                      std::to_string(w.halo) +
                      " on some path — the outermost stencil rows read "
                      "unexchanged remote data; widen the halo",
                  loc_of(stmt_id));
          halo_reported = true;
        }
        if (!unexchanged_reported && reads && stmt.node->call.radius > 0 &&
            !w.exchanged) {
          bag.add("PL081", Severity::kError,
                  call_label(stmt_id) + " reads container '" + data +
                      "' with stencil radius " +
                      std::to_string(stmt.node->call.radius) +
                      " but no halo exchange dominates it on some path — "
                      "the ghost regions hold stale (or never-initialised) "
                      "neighbour data; add an <exchange> between the last "
                      "write and this call",
                  loc_of(stmt_id));
          unexchanged_reported = true;
        }
        if (!exchange_race_reported && leading_write && w.exchange_open) {
          bag.add("PL087", Severity::kError,
                  call_label(stmt_id) + " writes container '" + data +
                      "' while a halo exchange is still in flight on some "
                      "path — the write races the asynchronous ghost "
                      "copies; read the exchanged data first (quiesce) or "
                      "move the exchange after the write",
                  loc_of(stmt_id));
          exchange_race_reported = true;
        }
        if (!bad_pin_reported && stmt.node->call.node >= w.dist_nodes) {
          bag.add("PL084", Severity::kError,
                  call_label(stmt_id) + " is pinned to node " +
                      std::to_string(stmt.node->call.node) +
                      " but the open partitioning of container '" + data +
                      "' owns only nodes 0.." +
                      std::to_string(w.dist_nodes - 1) +
                      " on some path — the call computes on no slice",
                  loc_of(stmt_id));
          bad_pin_reported = true;
        }
      }

      if (!writes || stmt.placement == CallPlacement::kAny) continue;
      const int mem =
          stmt.placement == CallPlacement::kHost ? host_mem : host_mem + 1;

      // PL082: this pinned write follows a remote-node read of its own
      // last write, inside a loop — every iteration crosses the cluster
      // link, the n2n twin of PL064.
      if (!n2n_reported && stmt.loop_depth > 0 && w.last_writer == mem &&
          w.cross_node_read) {
        std::string cost;
        if (options_.cluster.has_value()) {
          const sim::LinkProfile& link = options_.cluster->internode;
          cost = " (each bounce pays ~" + format_g(link.latency_us) +
                 " us latency at " + format_g(link.bandwidth_gbs) +
                 " GB/s on the internode lane)";
        }
        bag.add("PL082", Severity::kWarning,
                "container '" + data +
                    "' ping-pongs between cluster nodes on every loop "
                    "iteration: " +
                    call_label(stmt_id) + " writes it on node " +
                    std::to_string(pin) +
                    " after a remote-node read of the previous write" + cost +
                    " — partition the container across the nodes or "
                    "co-locate the reader with the writer",
                loc_of(stmt_id));
        n2n_reported = true;
      }

      // Ping-pong: this pinned write follows a cross-side read of its own
      // last write. Inside a loop every iteration bounces the replica
      // (PL064, at the write-back); outside one it is PL052, once per
      // container, at the cross-side read.
      if (w.last_writer != mem || w.cross_reader < 0) continue;
      const int side = side_of(stmt_id);
      if (stmt.loop_depth > 0 && !pingpong_reported) {
        bag.add("PL064", Severity::kWarning,
                "container '" + data +
                    "' ping-pongs across the PCIe link on every loop "
                    "iteration: " +
                    call_label(stmt_id) + " writes it on the " +
                    side_name(side) +
                    " side after a cross-side read of the previous " +
                    side_name(side) +
                    "-side write — provide a variant on both sides or "
                    "co-locate the reader with the writers",
                loc_of(stmt_id));
        pingpong_reported = true;
      } else if (stmt.loop_depth == 0 && !container.pingpong_reported) {
        container.hazards.add(
            "PL052", Severity::kWarning,
            "container '" + data + "' ping-pongs across the PCIe link: " +
                call_label(w.writer_stmt) + " writes it on the " +
                side_name(side_of(w.writer_stmt)) + " side, " +
                call_label(w.cross_reader) + " reads it on the " +
                side_name(side_of(w.cross_reader)) + " side, and " +
                call_label(stmt_id) +
                " writes it back — every round trip re-invalidates the "
                "read-side replica, so prefetching this operand is always "
                "wasted; provide a variant on both sides or co-locate the "
                "reader with the writers",
            loc_of(w.cross_reader));
        container.pingpong_reported = true;
      }
    }

    report_races(data, stmt_id, accesses, worlds, bag, container.hazards);
  }

  /// PL031/PL032/PL065: the read-window races this call completes, per
  /// world. A race every world here completes is definite and is reported
  /// like the window it closes: PL031 at the hidden writer, naming the
  /// first true reader; PL032 at the second hidden writer. A race only some
  /// worlds complete is path-dependent: PL065 at this call.
  void report_races(const std::string& data, int stmt_id,
                    const std::vector<Access>& accesses, const Worlds& worlds,
                    DiagnosticBag& bag, DiagnosticBag& hazards) {
    using Race = std::tuple<std::string, int, int>;  // code, hidden, partner
    std::map<Race, std::size_t> completed_in;        // race -> worlds
    for (const World& w : worlds) {
      std::set<Race> races;
      ReadWindow window = w.window;
      for (const Access& access : accesses) {
        const ReadWindow before = window;
        window.join(stmt_id, access);
        if (window.first_hidden >= 0 && window.first_reader >= 0 &&
            (before.first_hidden < 0 || before.first_reader < 0)) {
          races.insert({"PL031", window.first_hidden, window.first_reader});
        }
        if (window.second_hidden >= 0 && before.second_hidden < 0) {
          races.insert({"PL032", window.first_hidden, window.second_hidden});
        }
      }
      for (const Race& race : races) ++completed_in[race];
    }

    bool path_dependent = false;
    for (const auto& [race, count] : completed_in) {
      const auto& [code, hidden, partner] = race;
      if (count < worlds.size()) {
        path_dependent = true;
      } else if (code == "PL031") {
        std::string param;
        for (const Access& access :
             call_accesses(repo_, cfg_.stmts[hidden].node->call, data)) {
          if (access.hidden_write) {
            param = access.param->name;
            break;
          }
        }
        hazards.add("PL031", Severity::kError,
                    "read/write race on container '" + data + "': " +
                        call_label(hidden) +
                        " declares read access through mutable parameter '" +
                        param + "' while " + call_label(partner) +
                        " reads it — the runtime schedules them concurrently",
                    loc_of(hidden));
      } else {
        hazards.add("PL032", Severity::kError,
                    "write/write race on container '" + data + "': " +
                        call_label(hidden) + " and " + call_label(partner) +
                        " both declare read access but their parameter types "
                        "are mutable — the runtime schedules them concurrently",
                    loc_of(partner));
      }
    }
    if (path_dependent) {
      bag.add("PL065", Severity::kError,
              "read/write race on container '" + data + "': " +
                  call_label(stmt_id) +
                  " joins a concurrent read window that hides a write "
                  "through a mutable parameter on at least one "
                  "control-flow path — the runtime schedules the window "
                  "concurrently",
              loc_of(stmt_id));
    }
  }

  const desc::Repository& repo_;
  const LintOptions& options_;
  const desc::MainDescriptor& main_;
  const int max_steps_;
  const rt::MemTopology topo_;  ///< abstract machine (see abstract_topology)
  const int sim_nodes_;         ///< simulated cluster nodes in topo_
  const std::vector<desc::CallNode> tree_;  ///< the statements cfg_ lowers
  Cfg cfg_;
  bool program_defined_ = false;  ///< current container has a pure write
};

}  // namespace

bool VerifyResult::admits(int verify_point, const std::string& data, int node,
                          rt::ReplicaState observed) const {
  const auto point = states.find(verify_point);
  if (point == states.end()) return false;
  const auto worlds = point->second.find(data);
  if (worlds == point->second.end()) return false;
  for (const AbstractWorld& w : worlds->second) {
    const rt::ReplicaState abstract =
        node >= 0 && node < static_cast<int>(w.nodes.size())
            ? w.nodes[static_cast<std::size_t>(node)]
            : (node == 0 ? w.host : w.device);
    if (abstract == observed) return true;
  }
  return false;
}

VerifyResult verify_main(const desc::Repository& repo,
                         const LintOptions& options) {
  const desc::MainDescriptor* main = repo.main_module();
  if (main == nullptr || (main->call_tree.empty() && main->calls.empty())) {
    return {};
  }

  Verifier verifier(repo, options, *main);
  return verifier.run();
}

}  // namespace peppher::analyze
