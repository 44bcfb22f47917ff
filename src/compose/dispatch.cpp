#include "compose/dispatch.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::compose {

DispatchTable DispatchTable::build(const ComponentNode& component,
                                   const std::vector<std::size_t>& scenario_bytes,
                                   const Predictor& predict) {
  std::vector<std::size_t> sizes = scenario_bytes;
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  DispatchTable table;
  for (std::size_t bytes : sizes) {
    const VariantNode* best = nullptr;
    double best_seconds = std::numeric_limits<double>::infinity();
    for (const VariantNode* variant : component.enabled_variants()) {
      const std::optional<double> seconds = predict(*variant, bytes);
      if (seconds.has_value() && *seconds < best_seconds) {
        best = variant;
        best_seconds = *seconds;
      }
    }
    if (best == nullptr) continue;  // nothing predictable at this size
    if (!table.entries_.empty() &&
        table.entries_.back().variant == best->descriptor.name) {
      // Compaction: extend the previous run instead of adding an entry.
      table.entries_.back().upper_bytes = bytes;
    } else {
      table.entries_.push_back(
          DispatchEntry{bytes, best->descriptor.name, best->arch()});
    }
  }
  return table;
}

const DispatchEntry* DispatchTable::lookup(std::size_t bytes) const {
  for (const DispatchEntry& entry : entries_) {
    if (bytes <= entry.upper_bytes) return &entry;
  }
  return entries_.empty() ? nullptr : &entries_.back();
}

std::vector<std::string> DispatchTable::variants_used() const {
  std::vector<std::string> out;
  for (const DispatchEntry& entry : entries_) {
    if (std::find(out.begin(), out.end(), entry.variant) == out.end()) {
      out.push_back(entry.variant);
    }
  }
  return out;
}

std::string DispatchTable::serialize() const {
  std::ostringstream out;
  for (const DispatchEntry& entry : entries_) {
    out << entry.upper_bytes << ' ' << entry.variant << ' '
        << rt::to_string(entry.arch) << '\n';
  }
  return std::move(out).str();
}

DispatchTable DispatchTable::deserialize(std::string_view text) {
  DispatchTable table;
  for (const std::string& line : strings::split(text, '\n')) {
    const auto fields = strings::split_whitespace(line);
    if (fields.empty()) continue;
    if (fields.size() != 3) {
      throw ParseError("bad dispatch-table line: '" + line + "'");
    }
    DispatchEntry entry;
    entry.upper_bytes =
        static_cast<std::size_t>(strings::to_int(fields[0]).value_or(0));
    entry.variant = fields[1];
    entry.arch = rt::parse_arch(fields[2]);
    table.entries_.push_back(std::move(entry));
  }
  return table;
}

int narrow_with_table(ComponentNode& component, const DispatchTable& table) {
  if (table.empty()) return 0;
  const std::vector<std::string> used = table.variants_used();
  const std::set<std::string> keep(used.begin(), used.end());
  int disabled = 0;
  for (VariantNode& variant : component.variants) {
    if (variant.enabled && keep.count(variant.descriptor.name) == 0) {
      variant.enabled = false;
      variant.disabled_reason = "never selected by the static dispatch table";
      ++disabled;
    }
  }
  return disabled;
}

Predictor history_predictor(const rt::PerfRegistry& registry,
                            const std::string& component_name) {
  return [&registry, component_name](const VariantNode& variant,
                                     std::size_t bytes) -> std::optional<double> {
    return registry.regression_estimate(component_name, variant.arch(), bytes);
  };
}

}  // namespace peppher::compose
