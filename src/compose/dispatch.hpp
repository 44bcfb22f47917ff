// Static composition via off-line dispatch tables (§III step 3, §IV-A, and
// Kessler/Löwe [7]): when sufficient performance prediction metadata is
// available (prediction functions, cost models, or training-run history),
// the tool evaluates the predictions for selected context scenarios and
// constructs a dispatch table mapping context size to the expected best
// variant. Adjacent scenarios choosing the same variant are merged
// (decision-list compaction — the paper's "compacted by machine learning
// techniques" in its simplest effective form).
//
// Multi-stage composition: a table that still contains several variants
// *narrows* the candidate set (the runtime takes the final choice); a table
// with a single variant pins the choice entirely.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compose/ir.hpp"
#include "runtime/perfmodel.hpp"

namespace peppher::compose {

/// Predicts the execution time in seconds of `variant` for a call context
/// with `bytes` total operand footprint; nullopt when nothing is known.
using Predictor =
    std::function<std::optional<double>(const VariantNode& variant, std::size_t bytes)>;

/// One decision of a dispatch table: contexts with total operand footprint
/// <= upper_bytes select `variant`.
struct DispatchEntry {
  std::size_t upper_bytes = 0;
  std::string variant;
  rt::Arch arch = rt::Arch::kCpu;
};

/// A per-component dispatch table (ascending by upper_bytes; the last entry
/// also covers larger contexts).
class DispatchTable {
 public:
  /// Builds a table for `component` by evaluating `predict` at each scenario
  /// size (ascending) and compacting runs of equal winners. Scenario sizes
  /// with no predictable variant are skipped. The result is empty if nothing
  /// was predictable.
  static DispatchTable build(const ComponentNode& component,
                             const std::vector<std::size_t>& scenario_bytes,
                             const Predictor& predict);

  /// The chosen variant for a context footprint, or nullptr if the table is
  /// empty.
  const DispatchEntry* lookup(std::size_t bytes) const;

  bool empty() const noexcept { return entries_.empty(); }
  const std::vector<DispatchEntry>& entries() const noexcept { return entries_; }

  /// Distinct variants appearing in the table.
  std::vector<std::string> variants_used() const;

  /// Text form: "upper_bytes variant arch" lines (round-trips with
  /// deserialize).
  std::string serialize() const;
  static DispatchTable deserialize(std::string_view text);

 private:
  std::vector<DispatchEntry> entries_;
};

/// Disables every variant of `component` that the table never selects
/// (user-transparent static narrowing from training data). No-op for empty
/// tables. Returns the number of variants disabled.
int narrow_with_table(ComponentNode& component, const DispatchTable& table);

/// Predictor backed by recorded training history (regression over the
/// recorded sizes of the component's interface, per architecture).
Predictor history_predictor(const rt::PerfRegistry& registry,
                            const std::string& component_name);

}  // namespace peppher::compose
