// Placement: rt::Plan, the one schedule simulator (DESIGN.md §5). It holds
// a clock per worker of one worker table and a replica state per datum, and
// every placement decision runs on it — dmda places one task on the clocks
// its own earlier decisions booked, the lookahead window a batch on a copy
// of them, peppher-predict every call of its static trajectory — and the
// Engine books every executed attempt on one, so their timelines agree
// because they share this code:
//
//   start = max(worker clock, predecessors' end)
//   time    score = start + fetch + exec
//   energy  score = exec x worker busy watts + fetch x kLinkWatts
//           (equal joules go to the earlier start + fetch + exec)
//
// fetch sums, over the read operands without a valid replica at the
// worker's node, the hops of MemTopology's route from the nearest valid
// replica. A decision prices each hop at its link latency in full (a
// ping-pong of chained fine-grained tasks is never free) plus its volume
// divided by a read-only operand's reuse, min(reads, kReuseCap); a written
// operand, and every operand of a commit, pays the full volume. A commit
// also moves the replica states through msi::apply_acquire, a booking only
// the clocks; both advance the clocks by one core-sharing rule (see
// commit).
// exec is the caller's estimate: the history models, else the variant's
// cost hint, else kNeutralExecSeconds.
#pragma once

#include <cstddef>
#include <cstdint>
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
};

/// A simulated schedule over one worker table: price, place, book and
/// commit tasks on it.
class Plan {
 public:
  struct Operand {
    int data = -1;  ///< add_data() id
    AccessMode mode = AccessMode::kRead;
    std::size_t bytes = 0;
    double reuse = 1.0;  ///< reads a decision amortises a kRead's volume over
  };

  struct Task {
    std::vector<double> exec;  ///< seconds per worker; +inf = ineligible
    std::vector<Operand> operands;
    double deps = 0.0;  ///< end of the task's latest predecessor
  };

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
    double start = 0.0;
    double fetch = 0.0;  ///< full volume
    double end = 0.0;
    std::size_t fetched_bytes = 0;
    /// Choice::work of the committed worker, priced before the commit
    /// moved the plan.
    double work = 0.0;
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

  /// Starts over on an empty plan, keeping the storage.
  void reset(const std::vector<WorkerDesc>& workers, const Interconnect* net,
             Objective objective = Objective::kTime);

  /// Drops every datum; the clocks stay.
  void clear_data() { states_.clear(); }

  /// Adds a datum with one replica state per memory node; returns its id.
  int add_data(std::span<const ReplicaState> states);
  /// Adds a datum seeded from a live handle (DataHandle::plan_states).
  int add_data(const DataHandle& handle);

  double clock(WorkerId worker) const {
    return clocks_[static_cast<std::size_t>(worker)];
  }
  /// Moves a worker's clock `seconds` later (loop extrapolation).
  void advance(WorkerId worker, double seconds) {
    clocks_[static_cast<std::size_t>(worker)] += seconds;
  }
  std::span<const ReplicaState> states(int data) const {
    return {states_.data() + static_cast<std::size_t>(data) * nodes_, nodes_};
  }
  /// Latest worker clock.
  double makespan() const;

  Choice price(const Task& task, WorkerId worker) const;

  /// The best-scoring eligible worker; equal scores go to the earlier end
  /// (start + work), then to the lowest worker id.
  Choice place(const Task& task) const;

  /// Books `work` seconds on `worker` after `deps` and returns the start,
  /// max(clock, deps): the task ends at start + work, and the clocks move
  /// as a commit's do. Unlike a commit it moves no replica state.
  double book(WorkerId worker, double deps, double work);

  /// Runs `task` on `worker`: its clock advances to start + full fetch +
  /// exec and the operands' states move as the live handles' would.
  /// A commit or a booking treats a node's combined-CPU worker and its
  /// per-core workers as sharing the cores: the combined worker's end
  /// raises each per-core clock to at least it, and a per-core worker's end
  /// raises the combined clock; per-core workers do not wait for each
  /// other.
  Commit commit(const Task& task, WorkerId worker);

  /// Makes `data` valid on `node` as a read would (an explicit prefetch);
  /// returns the full seconds of the copy, 0 when already valid.
  double fetch(int data, MemoryNodeId node, std::size_t bytes);

  /// Makes the primary host's copy of `data` the only one (partitioning).
  void reclaim(int data);

  /// Places and commits `tasks` jointly: a greedy start (place, commit, in
  /// order), then a depth-first branch and bound that minimises the latest
  /// committed end within `budget` expanded nodes. Every task must have an
  /// eligible worker.
  Window place_window(const std::vector<Task>& tasks, std::uint64_t budget);

 private:
  struct State {
    std::vector<double> clocks;
    std::vector<ReplicaState> states;
  };

  std::span<ReplicaState> slot(int data) {
    return {states_.data() + static_cast<std::size_t>(data) * nodes_, nodes_};
  }
  double fetch_seconds(const Task& task, WorkerId worker, bool decision) const;
  /// Ends `worker`'s clock at `end` and raises the workers sharing its
  /// cores (the one core-sharing rule of commit and book).
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
  std::vector<ReplicaState> states_;  ///< per datum, nodes_ states each
};

}  // namespace peppher::rt
