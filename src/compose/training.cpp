#include "compose/training.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "support/error.hpp"
#include "support/log.hpp"

namespace peppher::compose {

std::vector<std::size_t> TrainingReport::scenario_bytes() const {
  std::vector<std::size_t> out;
  for (const TrainingSample& sample : samples) {
    out.push_back(sample.total_bytes);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TrainingReport train_component(rt::Engine& engine, const rt::Codelet& codelet,
                               const TrainingTaskFactory& factory,
                               const std::vector<std::size_t>& scenarios,
                               int repeats) {
  check(repeats > 0, "train_component: repeats must be positive");
  check(factory != nullptr, "train_component: null task factory");

  // Architectures with an enabled variant that exist on this machine.
  std::set<rt::Arch> archs;
  for (const auto& worker : engine.workers()) {
    for (rt::Arch arch : worker.archs) {
      if (codelet.impl_for(arch) != nullptr) archs.insert(arch);
    }
  }
  if (archs.empty()) {
    throw Error(ErrorCode::kInvalidState,
                "codelet '" + codelet.name() +
                    "' has no enabled variant runnable on this machine");
  }

  TrainingReport report;
  report.component = codelet.name();
  for (std::size_t scenario : scenarios) {
    for (rt::Arch arch : archs) {
      TrainingSample sample;
      sample.arch = arch;
      sample.scenario = scenario;
      double total_seconds = 0.0;
      for (int run = 0; run < repeats; ++run) {
        std::vector<rt::DataHandlePtr> keepalive;
        rt::TaskSpec spec = factory(engine, scenario, keepalive);
        check(spec.codelet == &codelet,
              "training factory built a task for a different codelet");
        spec.forced_arch = arch;
        spec.synchronous = true;
        rt::TaskPtr task;
        try {
          task = engine.submit(std::move(spec));
        } catch (const Error&) {
          // Selectability constraints can reject an (arch, scenario)
          // combination; skip it rather than failing the whole training.
          sample.runs = 0;
          break;
        }
        total_seconds += task->exec_seconds;
        ++sample.runs;
        std::size_t bytes = 0;
        for (const auto& op : task->spec.operands) bytes += op.handle->bytes();
        sample.total_bytes = bytes;
        for (const auto& handle : keepalive) engine.unregister(handle);
      }
      if (sample.runs > 0) {
        sample.seconds = total_seconds / static_cast<double>(sample.runs);
        report.samples.push_back(sample);
      }
    }
  }
  log::debug("compose", "trained component '{}': {} samples over {} scenarios",
             codelet.name(), report.samples.size(), scenarios.size());
  return report;
}

rt::DispatchTable build_dispatch_table(
    const ComponentNode& component,
    const std::vector<std::size_t>& scenario_bytes,
    const rt::PerfRegistry& registry) {
  const std::string& name = component.interface.name;
  rt::DispatchTable table;
  for (std::size_t bytes : scenario_bytes) {
    std::optional<rt::Arch> best;
    double best_seconds = std::numeric_limits<double>::infinity();
    for (const VariantNode* variant : component.enabled_variants()) {
      const std::optional<double> seconds =
          registry.regression_estimate(name, variant->arch(), bytes);
      if (seconds.has_value() && *seconds < best_seconds) {
        best = variant->arch();
        best_seconds = *seconds;
      }
    }
    if (best.has_value()) table.train(name, 0, -1, *best);
  }
  return table;
}

int narrow_with_table(ComponentNode& component, const rt::DispatchTable& table) {
  std::set<rt::Arch> voted;
  for (const rt::DispatchTable::Entry& entry : table.entries()) {
    if (entry.codelet == component.interface.name) voted.insert(entry.arch);
  }
  if (voted.empty()) return 0;
  int disabled = 0;
  for (VariantNode& variant : component.variants) {
    if (variant.enabled && voted.count(variant.arch()) == 0) {
      variant.enabled = false;
      variant.disabled_reason = "never selected by the static dispatch table";
      ++disabled;
    }
  }
  return disabled;
}

}  // namespace peppher::compose
