// Placement: rt::Plan, the one schedule simulator and the engine's one
// virtual timeline (DESIGN.md §5): a clock per worker of one worker table,
// a free time per link lane, and per datum a replica state and a valid-at
// time per memory node. dmda places and commits each task on the
// scheduler's plan, the lookahead window a batch on a copy of it,
// peppher-predict every call of its static trajectory, so they agree:
//
//   decision  start = max(worker clock, predecessors' end)
//   time      score = start + fetch + exec
//   energy    score = exec x worker busy watts + fetch x kLinkWatts
//             (equal joules go to the earlier start + fetch + exec)
//   commit    each hop of each fetch runs on its link lane from
//             max(lane free, source valid-at); the kernel starts at
//             max(worker clock, predecessors' end, data ready) and ends
//             exec later, where the written replicas become valid.
//
// A decision's fetch sums, over the read operands without a valid replica
// at the worker's node, the hops of MemTopology's route from the nearest
// valid replica: each hop's link latency in full (a ping-pong of chained
// fine-grained tasks is never free) plus its volume divided by a read-only
// operand's reuse, min(reads, kReuseCap); a written operand pays the full
// volume. A commit moves the replica states through msi::apply_acquire and
// the clocks by one core-sharing rule (see commit). exec is the caller's:
// a decision's estimate, or the cost model's time for the engine's commit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "runtime/topology.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"

namespace peppher::rt {

enum class ReplicaState : std::uint8_t;  // defined in runtime/memory.hpp
class DataHandle;

/// What the performance-aware scheduler optimizes — the application
/// descriptor's "overall optimization goal" (§II).
enum class Objective {
  kTime,    ///< minimize predicted completion time (default)
  kEnergy,  ///< minimize predicted energy (execution + transfer joules)
};

/// Most reads a read-only operand's transfer volume is amortised over.
inline constexpr std::uint64_t kReuseCap = 64;

/// Execution-time guess when neither history nor a cost hint is known.
inline constexpr double kNeutralExecSeconds = 1e-3;

/// Nominal draw of the interconnect while it moves data (energy score).
inline constexpr double kLinkWatts = 10.0;

/// Volume divisor of a read operand that `reads` tasks read:
/// min(reads, kReuseCap), and 1 for a single read.
double reuse_divisor(double reads) noexcept;

/// Seconds of one hop moving `bytes`: the link latency in full plus the
/// volume term divided by `reuse`.
double hop_seconds(const sim::LinkProfile& link, std::size_t bytes,
                   double reuse) noexcept;

/// Static description of one worker, visible to schedulers and plans.
struct WorkerDesc {
  WorkerId id = -1;
  std::vector<Arch> archs;   ///< architectures this worker can execute
  MemoryNodeId node = kHostNode;
  int sim_node = 0;          ///< simulated cluster node this worker lives on
  sim::DeviceProfile profile;
  bool is_combined_cpu = false;  ///< the all-CPU-cores parallel worker
};

/// The workers of a cluster, ids in table order: per simulated node its
/// per-core CPU workers, its combined all-cores worker (one core is
/// enough), then its accelerators. The Engine runs exactly these workers
/// and peppher-predict plans over them.
std::vector<WorkerDesc> worker_table(const sim::ClusterConfig& cluster);

/// The memory hierarchy fetches are priced over: MemTopology's routes, PCIe
/// within a simulated node and the inter-node link between hosts.
struct Interconnect {
  MemTopology topo;
  sim::LinkProfile pcie;
  sim::LinkProfile internode;

  /// Seconds to bring `bytes` from `source` to `dest` along the canonical
  /// route, each hop priced by hop_seconds on its own link. A negative
  /// source (no valid replica anywhere) is priced from the primary host.
  double fetch_seconds(MemoryNodeId source, MemoryNodeId dest,
                       std::size_t bytes, double reuse) const;

  /// The fetch rule: 0 when `states` (one per memory node) is valid on
  /// `dest`, else the route price from the nearest valid replica.
  double fetch_seconds(std::span<const ReplicaState> states,
                       MemoryNodeId dest, std::size_t bytes,
                       double reuse) const;

  /// The link lanes hops queue on: one for every PCIe hop with
  /// LinkProfile::shared_bus (or no device), else per device 2*ordinal
  /// host-to-device and 2*ordinal+1 device-to-host; then one per direction
  /// of each pair of simulated nodes.
  std::size_t lane_count() const;

  /// Lane of the single hop `from` -> `to` (a route step).
  std::size_t lane(MemoryNodeId from, MemoryNodeId to) const;

  /// The link a lane prices its hops on.
  const sim::LinkProfile& lane_link(std::size_t lane) const;

 private:
  std::size_t intra_lanes() const;
};

/// A simulated schedule over one worker table: price, place and commit
/// tasks on it.
class Plan {
 public:
  struct Operand {
    int data = -1;  ///< add_data() id
    AccessMode mode = AccessMode::kRead;
    std::size_t bytes = 0;
    double reuse = 1.0;  ///< reads a decision amortises a kRead's volume over
  };

  struct Task {
    std::vector<double> exec;  ///< estimate per worker; +inf = ineligible
    std::vector<Operand> operands;
    double deps = 0.0;  ///< end of the task's latest predecessor
  };

  /// One hop a commit reserved on a link lane.
  struct Hop {
    int data = -1;  ///< add_data() id
    std::size_t lane = 0;
    MemoryNodeId from = kHostNode;
    MemoryNodeId to = kHostNode;
    std::size_t bytes = 0;
    double start = 0.0;
    double end = 0.0;
  };
  using Hops = std::vector<Hop>;

  /// Draws whether one hop `from` -> `to` of a committed fetch fails (an
  /// injected transfer fault).
  using HopFault =
      std::function<bool(MemoryNodeId from, MemoryNodeId to, std::size_t bytes)>;

  /// One priced decision; worker -1 when no worker is eligible.
  struct Choice {
    WorkerId worker = -1;
    double start = 0.0;
    double fetch = 0.0;  ///< reuse-amortised
    double exec = std::numeric_limits<double>::infinity();
    double score = std::numeric_limits<double>::infinity();
    double work = 0.0;  ///< fetch + exec seconds

    bool eligible() const noexcept { return worker >= 0; }
  };

  struct Commit {
    double start = 0.0;  ///< max(worker clock, deps, data ready)
    double end = 0.0;    ///< start + exec
    bool failed = false;  ///< a hop of the fetch failed (HopFault)
  };

  /// A jointly placed window, per task in order.
  struct Window {
    std::vector<WorkerId> workers;
    std::vector<Commit> commits;
    double makespan = 0.0;  ///< latest committed end
    bool improved = false;  ///< the search beat the greedy start
    std::uint64_t explored = 0;  ///< branch-and-bound nodes expanded
  };

  /// `workers` must outlive the plan; without `net` fetches are free.
  Plan(const std::vector<WorkerDesc>& workers, const Interconnect* net,
       Objective objective = Objective::kTime) {
    reset(workers, net, objective);
  }
  Plan() = default;

  /// Starts over on an empty plan at time 0, keeping the storage.
  void reset(const std::vector<WorkerDesc>& workers, const Interconnect* net,
             Objective objective = Objective::kTime);

  /// Drops every datum; the clocks and lanes stay.
  void clear_data() {
    states_.clear();
    valid_at_.clear();
  }

  /// Adds a datum with one replica state per memory node, valid from
  /// `valid_at` (time 0 when empty); returns its id.
  int add_data(std::span<const ReplicaState> states,
               std::span<const double> valid_at = {});
  /// Adds a datum seeded from the plan's view of a handle.
  int add_data(const DataHandle& handle);
  /// Stores a datum back into the plan's view of `handle`.
  void store_data(int data, DataHandle& handle) const;

  double clock(WorkerId worker) const {
    return clocks_[static_cast<std::size_t>(worker)];
  }
  /// Loop extrapolation: every clock, lane and valid-at time that differs
  /// from `from`'s (this plan some iterations earlier; a datum added since
  /// counts from 0) moves `seconds` later.
  void advance_from(const Plan& from, double seconds);
  std::span<const ReplicaState> states(int data) const {
    return {states_.data() + static_cast<std::size_t>(data) * nodes_, nodes_};
  }
  /// Latest worker clock.
  double makespan() const;

  Choice price(const Task& task, WorkerId worker) const;

  /// The best-scoring eligible worker; equal scores go to the earlier end
  /// (start + work), then to the lowest worker id.
  Choice place(const Task& task) const;

  /// Runs `task` on `worker` for `exec` seconds by the commit rule (file
  /// comment), appending the hops to `hops` when given. A node's
  /// combined-CPU worker and its per-core workers share the cores: an end
  /// on one kind raises the other kind's clocks to at least it; per-core
  /// workers do not wait for each other. With `fails`, every hop draws
  /// it: a failing hop is not reserved, the operands from it on are not
  /// acquired (the data keep the hops that landed), and the attempt still
  /// holds its worker for `exec`.
  Commit commit(const Task& task, WorkerId worker, double exec,
                Hops* hops = nullptr, const HopFault* fails = nullptr);

  /// A host-side access of `data` on `node`: fetches as a commit does, and
  /// a write mode owns `node` from the arrival it returns (0 for kWrite).
  double access(int data, MemoryNodeId node, AccessMode mode,
                std::size_t bytes, Hops* hops = nullptr);

  /// Places and commits `tasks` jointly, each at its decision estimate: a
  /// greedy start (place, commit, in order), then a depth-first branch and
  /// bound that minimises the latest committed end within `budget`
  /// expanded nodes. Every task must have an eligible worker.
  Window place_window(const std::vector<Task>& tasks, std::uint64_t budget);

 private:
  struct State {
    std::vector<double> clocks;
    std::vector<double> lanes;
    std::vector<ReplicaState> states;
    std::vector<double> valid_at;
  };

  std::span<ReplicaState> slot(int data) {
    return {states_.data() + static_cast<std::size_t>(data) * nodes_, nodes_};
  }
  std::span<double> valid_slot(int data) {
    return {valid_at_.data() + static_cast<std::size_t>(data) * nodes_,
            nodes_};
  }
  double fetch_seconds(const Task& task, WorkerId worker, bool decision) const;
  /// Walks a `mode` acquire's fetch over the lanes; returns when the data
  /// is on `node` (0 for a kWrite). A hop `fails` draws true for throws
  /// HopFailed before it is reserved.
  double arrive(int data, MemoryNodeId node, AccessMode mode,
                std::size_t bytes, Hops* hops, const HopFault* fails = nullptr);
  /// Ends `worker`'s clock at `end` and raises the workers sharing its
  /// cores (the one core-sharing rule of commit).
  void finish(WorkerId worker, double end);
  void restore(const State& state);
  void search(const std::vector<Task>& tasks, std::size_t depth,
              double makespan, std::vector<WorkerId>& assign,
              std::vector<State>& saved, Window& best, std::uint64_t budget);

  const std::vector<WorkerDesc>* workers_ = nullptr;
  const Interconnect* net_ = nullptr;
  Objective objective_ = Objective::kTime;
  std::size_t nodes_ = 0;  ///< replica states per datum (0 without `net`)
  std::vector<double> clocks_;
  std::vector<double> lanes_;  ///< per Interconnect lane, when it is free
  std::vector<ReplicaState> states_;  ///< per datum, nodes_ states each
  std::vector<double> valid_at_;      ///< per datum, nodes_ times each
  std::uint64_t epoch_ = 0;  ///< unique per reset of any plan
};

}  // namespace peppher::rt
