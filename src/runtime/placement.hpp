// Placement cost: the one formula that prices running a task on a worker
// (DESIGN.md §5). Every placement decision calls it — the dmda scheduler
// online (Engine::estimate), the lookahead window planner over its plan's
// replica masks, and peppher-predict's static trajectory — so their
// estimates agree because they share this code:
//
//   time    score = max(worker ready, predecessors' end) + fetch + exec
//   energy  score = exec x worker busy watts + fetch x kLinkWatts
//
// fetch sums, over the read operands without a valid replica at the
// destination, the hops of MemTopology's route from the nearest valid
// replica (MemTopology::nearest_valid). Each hop costs its link latency in
// full (a ping-pong of chained fine-grained tasks is never free) plus its
// volume divided by the operand's reuse: a read-only operand that many
// tasks read amortises its one-time transfer over min(reads, kReuseCap).
// exec is the history models' estimate (PerfRegistry::estimate_exec), else
// the variant's cost hint on the worker's profile, else
// kNeutralExecSeconds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "runtime/topology.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"

namespace peppher::rt {

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
};

/// Completion time of a placement (the time score).
inline double end_time(double ready, double deps, double fetch,
                       double exec) noexcept {
  return std::max(ready, deps) + fetch + exec;
}

/// One priced placement of a task on a worker (Engine::estimate).
struct Placement {
  double ready = 0.0;  ///< virtual time the worker becomes free
  double deps = 0.0;   ///< end of the task's latest predecessor
  double fetch = 0.0;  ///< seconds moving the read operands in
  double exec = std::numeric_limits<double>::infinity();  ///< +inf: ineligible
  double watts = 0.0;  ///< the worker's busy draw
  Objective objective = Objective::kTime;

  bool eligible() const noexcept {
    return exec != std::numeric_limits<double>::infinity();
  }

  /// What dmda minimises: completion vtime, or joules under kEnergy.
  double score() const noexcept {
    if (!eligible()) return exec;
    return objective == Objective::kEnergy ? joules()
                                           : end_time(ready, deps, fetch, exec);
  }

  /// What the placement adds to its worker's queue while it waits:
  /// fetch + exec seconds, or its joules under kEnergy.
  double work() const noexcept {
    if (!eligible()) return exec;
    return objective == Objective::kEnergy ? joules() : fetch + exec;
  }

 private:
  double joules() const noexcept { return exec * watts + fetch * kLinkWatts; }
};

}  // namespace peppher::rt
