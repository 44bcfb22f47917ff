// Static-composition dispatch-table tests: construction from predictions,
// compaction, lookup, serialisation, narrowing, and the history-backed
// predictor.
#include <gtest/gtest.h>

#include "compose/dispatch.hpp"
#include "support/error.hpp"

namespace peppher::compose {
namespace {

/// Component with a CPU and a CUDA variant.
ComponentNode make_component() {
  ComponentNode node;
  node.interface.name = "kernel";
  VariantNode cpu;
  cpu.descriptor.name = "kernel_cpu";
  cpu.descriptor.interface_name = "kernel";
  cpu.descriptor.language = "cpu";
  node.variants.push_back(cpu);
  VariantNode cuda;
  cuda.descriptor.name = "kernel_cuda";
  cuda.descriptor.interface_name = "kernel";
  cuda.descriptor.language = "cuda";
  node.variants.push_back(cuda);
  return node;
}

/// CPU: 1 ns/byte. CUDA: 100 us + 0.01 ns/byte => crossover at ~101 KB.
Predictor crossover_predictor() {
  return [](const VariantNode& variant, std::size_t bytes) -> std::optional<double> {
    if (variant.arch() == rt::Arch::kCpu) return 1e-9 * static_cast<double>(bytes);
    return 100e-6 + 1e-11 * static_cast<double>(bytes);
  };
}

TEST(DispatchTable, PicksWinnerPerScenarioAndCompacts) {
  const ComponentNode node = make_component();
  const DispatchTable table = DispatchTable::build(
      node, {1'000, 10'000, 100'000, 1'000'000, 10'000'000}, crossover_predictor());
  // Three small sizes choose CPU (merged into one entry), two large choose
  // CUDA (merged into one entry).
  ASSERT_EQ(table.entries().size(), 2u);
  EXPECT_EQ(table.entries()[0].variant, "kernel_cpu");
  EXPECT_EQ(table.entries()[0].upper_bytes, 100'000u);
  EXPECT_EQ(table.entries()[1].variant, "kernel_cuda");
  EXPECT_EQ(table.entries()[1].arch, rt::Arch::kCuda);
}

TEST(DispatchTable, LookupSelectsByFootprint) {
  const ComponentNode node = make_component();
  const DispatchTable table = DispatchTable::build(
      node, {1'000, 100'000, 10'000'000}, crossover_predictor());
  EXPECT_EQ(table.lookup(500)->variant, "kernel_cpu");
  EXPECT_EQ(table.lookup(100'000)->variant, "kernel_cpu");
  EXPECT_EQ(table.lookup(5'000'000)->variant, "kernel_cuda");
  // Beyond the largest scenario the last entry still applies.
  EXPECT_EQ(table.lookup(1'000'000'000)->variant, "kernel_cuda");
}

TEST(DispatchTable, EmptyWhenNothingPredictable) {
  const ComponentNode node = make_component();
  const DispatchTable table = DispatchTable::build(
      node, {100, 200},
      [](const VariantNode&, std::size_t) { return std::nullopt; });
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.lookup(100), nullptr);
}

TEST(DispatchTable, SkipsDisabledVariants) {
  ComponentNode node = make_component();
  node.variants[0].enabled = false;  // CPU gone
  const DispatchTable table =
      DispatchTable::build(node, {1'000}, crossover_predictor());
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.entries()[0].variant, "kernel_cuda");
}

TEST(DispatchTable, SerializeRoundTrip) {
  const ComponentNode node = make_component();
  const DispatchTable table = DispatchTable::build(
      node, {1'000, 10'000'000}, crossover_predictor());
  const DispatchTable copy = DispatchTable::deserialize(table.serialize());
  ASSERT_EQ(copy.entries().size(), table.entries().size());
  EXPECT_EQ(copy.entries()[0].variant, table.entries()[0].variant);
  EXPECT_EQ(copy.entries()[0].upper_bytes, table.entries()[0].upper_bytes);
  EXPECT_EQ(copy.entries()[1].arch, table.entries()[1].arch);
}

TEST(DispatchTable, DeserializeRejectsGarbage) {
  EXPECT_THROW(DispatchTable::deserialize("1 2\n"), Error);
  EXPECT_NO_THROW(DispatchTable::deserialize(""));
}

TEST(DispatchNarrowing, DisablesNeverChosenVariants) {
  ComponentNode node = make_component();
  // Only large scenarios: CUDA always wins; CPU should be narrowed away.
  const DispatchTable table = DispatchTable::build(
      node, {10'000'000, 100'000'000}, crossover_predictor());
  const int disabled = narrow_with_table(node, table);
  EXPECT_EQ(disabled, 1);
  ASSERT_EQ(node.enabled_variants().size(), 1u);
  EXPECT_EQ(node.enabled_variants()[0]->descriptor.name, "kernel_cuda");
}

TEST(DispatchNarrowing, EmptyTableIsNoOp) {
  ComponentNode node = make_component();
  EXPECT_EQ(narrow_with_table(node, DispatchTable{}), 0);
  EXPECT_EQ(node.enabled_variants().size(), 2u);
}

TEST(DispatchNarrowing, MultiVariantTableKeepsCandidateSet) {
  // Mixed scenarios keep both variants registered (multi-stage composition:
  // the runtime takes the final choice).
  ComponentNode node = make_component();
  const DispatchTable table = DispatchTable::build(
      node, {1'000, 10'000'000}, crossover_predictor());
  EXPECT_EQ(narrow_with_table(node, table), 0);
  EXPECT_EQ(node.enabled_variants().size(), 2u);
}

TEST(HistoryPredictor, UsesRegressionOverRecordedSizes) {
  rt::PerfRegistry registry;
  // CPU times linear in bytes, 1e-9 s/B, at 5 distinct sizes.
  for (std::size_t bytes : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    registry.record("kernel", rt::Arch::kCpu, bytes, bytes,
                    1e-9 * static_cast<double>(bytes));
  }
  const Predictor predict = history_predictor(registry, "kernel");
  const ComponentNode node = make_component();
  const auto cpu_estimate = predict(node.variants[0], 32'000);
  ASSERT_TRUE(cpu_estimate.has_value());
  EXPECT_NEAR(*cpu_estimate, 32e-6, 5e-6);
  // No CUDA history: unpredictable.
  EXPECT_FALSE(predict(node.variants[1], 32'000).has_value());
}

}  // namespace
}  // namespace peppher::compose
