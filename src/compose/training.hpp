// Training executions / microbenchmarking (§III step 2: the tool "looks up
// prediction data from the performance data repository or runs
// microbenchmarking code on the target platform") packaged as a library
// API: run every enabled variant of a component over a set of context
// scenarios, record the timings in the engine's performance registry
// (persisted via the engine's sampling directory), and derive a static
// dispatch table from the result (§III step 3, §IV-A): the same
// "peppher-dispatch v1" table the runtime replays and peppher-lint checks.
// A table that still votes for several architectures *narrows* the
// candidate set (the runtime takes the final choice); one that votes for a
// single architecture pins the choice entirely.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "compose/ir.hpp"
#include "runtime/engine.hpp"

namespace peppher::compose {

/// Builds one training task for a scenario. The factory owns scenario
/// setup: it registers whatever operand data the component needs (keeping
/// it alive via `keepalive`) and returns the TaskSpec — without forced_arch,
/// which the trainer controls.
using TrainingTaskFactory = std::function<rt::TaskSpec(
    rt::Engine& engine, std::size_t scenario,
    std::vector<rt::DataHandlePtr>& keepalive)>;

/// One (architecture, scenario) measurement.
struct TrainingSample {
  rt::Arch arch = rt::Arch::kCpu;
  std::size_t scenario = 0;      ///< the scenario value given to the factory
  std::size_t total_bytes = 0;   ///< operand footprint of the built task
  double seconds = 0.0;          ///< mean virtual execution time
  std::uint64_t runs = 0;
};

struct TrainingReport {
  std::string component;
  std::vector<TrainingSample> samples;

  /// Scenario footprints (bytes) seen during training — the natural
  /// scenario set for build_dispatch_table.
  std::vector<std::size_t> scenario_bytes() const;
};

/// Runs `repeats` executions of the component on every architecture that
/// has an enabled variant on the engine's machine, for every scenario, and
/// returns the measurements (which are also in engine.perf(), keyed by the
/// codelet name). Architectures whose variants cannot serve a scenario
/// (selectability constraints) are skipped for that scenario.
TrainingReport train_component(rt::Engine& engine, const rt::Codelet& codelet,
                               const TrainingTaskFactory& factory,
                               const std::vector<std::size_t>& scenarios,
                               int repeats = 3);

/// Static composition from training data: for each scenario footprint,
/// one vote for the architecture whose history regression
/// (PerfRegistry::regression_estimate) is lowest among the component's
/// enabled variants, keyed (interface, footprint 0, point -1) — the key
/// peppher-predict's export uses for static sizes. A scenario where no
/// variant is predictable casts no vote. save() the result for replay
/// (EngineConfig::dispatch_table), or narrow with it.
rt::DispatchTable build_dispatch_table(
    const ComponentNode& component,
    const std::vector<std::size_t>& scenario_bytes,
    const rt::PerfRegistry& registry);

/// Disables every enabled variant of `component` whose architecture got no
/// vote under the component's interface (user-transparent static narrowing
/// from training data). A table with no votes for the interface changes
/// nothing. Returns the number of variants disabled.
int narrow_with_table(ComponentNode& component, const rt::DispatchTable& table);

}  // namespace peppher::compose
