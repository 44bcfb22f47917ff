// Property-based tests (parameterised over seeds): randomized sequences
// exercising the invariants the system's correctness rests on — MSI
// coherence, sequential-consistency dependency inference, virtual-time
// consistency, partition round-trips, XML round-trips and dispatch-table
// optimality.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>

#include "compose/training.hpp"
#include "runtime/engine.hpp"
#include "runtime/memory.hpp"
#include "support/rng.hpp"
#include "xml/xml.hpp"

namespace peppher {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// MSI coherence under random access sequences
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, CoherenceInvariantsUnderRandomAccesses) {
  Rng rng(GetParam());
  const int nodes = 2 + static_cast<int>(rng.next_below(3));  // host + 1..3
  rt::DataManager manager(nodes, sim::LinkProfile::pcie2_x16());
  std::vector<std::uint32_t> payload(64, 0);
  auto handle = manager.register_buffer(payload.data(),
                                        payload.size() * sizeof(std::uint32_t),
                                        sizeof(std::uint32_t));
  std::uint32_t model = 0;  // what a correct reader must observe
  double last_vtime = 0.0;

  for (int step = 0; step < 200; ++step) {
    const auto node = static_cast<rt::MemoryNodeId>(rng.next_below(nodes));
    const int mode_pick = static_cast<int>(rng.next_below(3));
    const rt::AccessMode mode = mode_pick == 0   ? rt::AccessMode::kRead
                                : mode_pick == 1 ? rt::AccessMode::kWrite
                                                 : rt::AccessMode::kReadWrite;
    rt::VirtualTime ready = 0.0;
    auto* data = static_cast<std::uint32_t*>(handle->acquire(node, mode, &ready));

    // Invariant: fetched data matches the model (except pure writes, whose
    // incoming contents are unspecified).
    if (mode != rt::AccessMode::kWrite) {
      for (std::uint32_t v : std::vector<std::uint32_t>(data, data + 64)) {
        ASSERT_EQ(v, model) << "stale read at step " << step;
      }
      ASSERT_GE(ready, 0.0);
    }
    if (mode != rt::AccessMode::kRead) {
      ++model;
      for (int i = 0; i < 64; ++i) data[i] = model;
      last_vtime += 1.0;
      handle->mark_written(node, last_vtime);
    }

    // Invariant: at most one Owned replica; Owned implies everyone else
    // Invalid; at least one valid replica exists.
    int owned = 0, valid = 0;
    for (int n = 0; n < nodes; ++n) {
      const rt::ReplicaState state = handle->replica_state(n);
      owned += state == rt::ReplicaState::kOwned ? 1 : 0;
      valid += state != rt::ReplicaState::kInvalid ? 1 : 0;
    }
    ASSERT_LE(owned, 1);
    ASSERT_GE(valid, 1);
    if (owned == 1) {
      ASSERT_EQ(valid, 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Sequential consistency of inferred dependencies
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, InferredDependenciesGiveSequentialConsistency) {
  Rng rng(GetParam());
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 3;
  config.scheduler = GetParam() % 2 == 0 ? "ws" : "eager";
  config.use_history_models = false;
  rt::Engine engine(config);

  // Each handle holds one counter; writer task i does value = value*3 + 1.
  // Sequential consistency in submission order fixes the final value
  // exactly; readers are just extra edges.
  constexpr int kHandles = 4;
  std::vector<std::uint64_t> values(kHandles, 0);
  std::vector<rt::DataHandlePtr> handles;
  std::vector<std::uint64_t> expected(kHandles, 0);
  for (int h = 0; h < kHandles; ++h) {
    handles.push_back(engine.register_buffer(&values[static_cast<std::size_t>(h)],
                                             sizeof(std::uint64_t),
                                             sizeof(std::uint64_t)));
  }

  rt::Codelet writer("prop_writer");
  {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpu;
    impl.name = "prop_writer_cpu";
    impl.fn = [](rt::ExecContext& ctx) {
      auto* v = ctx.buffer_as<std::uint64_t>(0);
      *v = *v * 3 + 1;
    };
    writer.add_impl(std::move(impl));
    rt::Implementation gpu;
    gpu.arch = rt::Arch::kCuda;
    gpu.name = "prop_writer_cuda";
    gpu.fn = [](rt::ExecContext& ctx) {
      auto* v = ctx.buffer_as<std::uint64_t>(0);
      *v = *v * 3 + 1;
    };
    writer.add_impl(std::move(gpu));
  }
  rt::Codelet reader("prop_reader");
  {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpu;
    impl.name = "prop_reader_cpu";
    impl.fn = [](rt::ExecContext& ctx) {
      volatile std::uint64_t sink = *ctx.buffer_as<const std::uint64_t>(0);
      (void)sink;
    };
    reader.add_impl(std::move(impl));
  }

  for (int step = 0; step < 150; ++step) {
    const int h = static_cast<int>(rng.next_below(kHandles));
    const bool is_writer = rng.next_double() < 0.5;
    rt::TaskSpec spec;
    spec.codelet = is_writer ? &writer : &reader;
    spec.operands = {{handles[static_cast<std::size_t>(h)],
                      is_writer ? rt::AccessMode::kReadWrite
                                : rt::AccessMode::kRead}};
    engine.submit(std::move(spec));
    if (is_writer) {
      expected[static_cast<std::size_t>(h)] =
          expected[static_cast<std::size_t>(h)] * 3 + 1;
    }
  }
  engine.wait_for_all();
  for (int h = 0; h < kHandles; ++h) {
    engine.acquire_host(handles[static_cast<std::size_t>(h)],
                        rt::AccessMode::kRead);
    EXPECT_EQ(values[static_cast<std::size_t>(h)],
              expected[static_cast<std::size_t>(h)])
        << "handle " << h;
  }
}

// ---------------------------------------------------------------------------
// Virtual-time consistency
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, VirtualTimelineIsConsistent) {
  Rng rng(GetParam());
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  rt::Engine engine(config);

  rt::Codelet codelet("vt_probe");
  for (rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCuda}) {
    rt::Implementation impl;
    impl.arch = arch;
    impl.name = "vt_probe_" + rt::to_string(arch);
    impl.fn = [](rt::ExecContext& ctx) {
      auto* v = ctx.buffer_as<float>(0);
      v[0] += 1.0f;
    };
    impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
      return sim::KernelCost{1e6, static_cast<double>(bytes[0]), 1.0};
    };
    codelet.add_impl(std::move(impl));
  }

  std::vector<float> buffers(6, 0.0f);
  std::vector<rt::DataHandlePtr> handles;
  for (float& b : buffers) {
    handles.push_back(engine.register_buffer(&b, sizeof(float), sizeof(float)));
  }

  std::vector<rt::TaskPtr> tasks;
  for (int i = 0; i < 60; ++i) {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handles[rng.next_below(handles.size())],
                      rt::AccessMode::kReadWrite}};
    tasks.push_back(engine.submit(std::move(spec)));
  }
  engine.wait_for_all();

  std::map<rt::WorkerId, std::vector<const rt::Task*>> by_worker;
  double makespan = 0.0;
  for (const auto& task : tasks) {
    ASSERT_EQ(task->state, rt::TaskState::kDone);
    EXPECT_GE(task->vstart, 0.0);
    EXPECT_GT(task->vend, task->vstart);          // positive duration
    EXPECT_GE(task->vstart, task->max_pred_end);  // respects dependencies
    by_worker[task->executed_on].push_back(task.get());
    makespan = std::max(makespan, task->vend);
  }
  EXPECT_DOUBLE_EQ(engine.virtual_makespan(), makespan);
  // No two tasks overlap on the same worker.
  for (auto& [worker, list] : by_worker) {
    std::sort(list.begin(), list.end(),
              [](const rt::Task* a, const rt::Task* b) {
                return a->vstart < b->vstart;
              });
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_LE(list[i - 1]->vend, list[i]->vstart + 1e-12)
          << "overlap on worker " << worker;
    }
  }
}

// ---------------------------------------------------------------------------
// Partition round-trips
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, PartitionRoundTripPreservesData) {
  Rng rng(GetParam());
  rt::DataManager manager(3, sim::LinkProfile::pcie2_x16());
  const std::size_t elements = 16 + rng.next_below(200);
  std::vector<std::uint32_t> data(elements);
  std::iota(data.begin(), data.end(), 1000u);
  auto handle = manager.register_buffer(data.data(),
                                        data.size() * sizeof(std::uint32_t),
                                        sizeof(std::uint32_t));
  const std::size_t parts = 1 + rng.next_below(std::min<std::size_t>(elements, 9));
  auto children = handle->partition(parts);

  // Coverage: children tile the parent exactly.
  std::size_t covered = 0;
  for (const auto& child : children) covered += child->elements();
  ASSERT_EQ(covered, elements);

  // Each child doubles its slice on a random device node.
  for (const auto& child : children) {
    const auto node = static_cast<rt::MemoryNodeId>(1 + rng.next_below(2));
    auto* p = static_cast<std::uint32_t*>(
        child->acquire(node, rt::AccessMode::kReadWrite, nullptr));
    for (std::size_t i = 0; i < child->elements(); ++i) p[i] *= 2;
    child->mark_written(node, 1.0);
  }
  handle->unpartition();
  for (std::size_t i = 0; i < elements; ++i) {
    ASSERT_EQ(data[i], 2 * (1000u + static_cast<std::uint32_t>(i)));
  }
}

// ---------------------------------------------------------------------------
// Device-capacity invariants under random access/eviction pressure
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, EvictionKeepsDataCorrectUnderPressure) {
  Rng rng(GetParam() * 8191);
  rt::DataManager manager(2, sim::LinkProfile::pcie2_x16());
  rt::Tracer recorder;  // counts the overcommits, as the engine's would
  recorder.configure(manager.topo(), {}, false);
  manager.set_recorder(&recorder);
  const std::size_t capacity = 2048;
  manager.set_node_capacity(1, capacity);

  constexpr int kHandles = 6;
  std::vector<std::vector<std::uint32_t>> storage(kHandles);
  std::vector<rt::DataHandlePtr> handles;
  std::vector<std::uint32_t> model(kHandles, 0);
  for (int h = 0; h < kHandles; ++h) {
    storage[static_cast<std::size_t>(h)].assign(128, 0);  // 512 B each
    handles.push_back(manager.register_buffer(
        storage[static_cast<std::size_t>(h)].data(), 512, 4));
  }

  for (int step = 0; step < 300; ++step) {
    const int h = static_cast<int>(rng.next_below(kHandles));
    auto& handle = handles[static_cast<std::size_t>(h)];
    const bool write = rng.next_double() < 0.4;
    auto* data = static_cast<std::uint32_t*>(handle->acquire(
        1, write ? rt::AccessMode::kReadWrite : rt::AccessMode::kRead, nullptr));
    // Reads must always observe the model value, across any evictions.
    for (int i = 0; i < 128; ++i) {
      ASSERT_EQ(data[i], model[static_cast<std::size_t>(h)])
          << "handle " << h << " step " << step;
    }
    if (write) {
      ++model[static_cast<std::size_t>(h)];
      for (int i = 0; i < 128; ++i) data[i] = model[static_cast<std::size_t>(h)];
      handle->mark_written(1, static_cast<double>(step));
    }
    handle->release(1);
    // Capacity invariant: pins are all released, so the manager must have
    // kept the node within capacity (everything is evictable).
    ASSERT_LE(manager.node_allocated(1), capacity);
  }
  EXPECT_EQ(recorder.books().transfers().overcommits, 0u);
  // Final consistency: each handle's data reaches the host intact.
  for (int h = 0; h < kHandles; ++h) {
    auto* host = static_cast<std::uint32_t*>(
        handles[static_cast<std::size_t>(h)]->acquire(rt::kHostNode,
                                                      rt::AccessMode::kRead,
                                                      nullptr));
    ASSERT_EQ(host[0], model[static_cast<std::size_t>(h)]);
  }
}

// ---------------------------------------------------------------------------
// XML round-trips on random trees
// ---------------------------------------------------------------------------

namespace {

void build_random_tree(xml::Element& element, Rng& rng, int depth) {
  const char* const names[] = {"alpha", "beta", "gamma", "delta"};
  const char* const values[] = {"plain", "with space", "a<b&c>\"d'",
                                "123.5", ""};
  const std::size_t attrs = rng.next_below(3);
  for (std::size_t a = 0; a < attrs; ++a) {
    element.set_attribute(std::string("k") + std::to_string(a),
                          values[rng.next_below(5)]);
  }
  if (depth > 0 && rng.next_double() < 0.8) {
    const std::size_t kids = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < kids; ++k) {
      build_random_tree(element.append_child(names[rng.next_below(4)]), rng,
                        depth - 1);
    }
  } else if (rng.next_double() < 0.5) {
    element.set_text(values[rng.next_below(5)]);
  }
}

void expect_equal_trees(const xml::Element& a, const xml::Element& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.text(), b.text());
  ASSERT_EQ(a.attributes().size(), b.attributes().size());
  for (std::size_t i = 0; i < a.attributes().size(); ++i) {
    EXPECT_EQ(a.attributes()[i], b.attributes()[i]);
  }
  ASSERT_EQ(a.child_count(), b.child_count());
  for (std::size_t i = 0; i < a.child_count(); ++i) {
    expect_equal_trees(*a.all_children()[i], *b.all_children()[i]);
  }
}

}  // namespace

TEST_P(SeededProperty, XmlSerializeParseRoundTrip) {
  Rng rng(GetParam() * 7919);
  for (int round = 0; round < 20; ++round) {
    xml::Element root("root");
    build_random_tree(root, rng, 4);
    const std::string text = xml::serialize(root);
    const xml::Document parsed = xml::parse(text);
    expect_equal_trees(root, *parsed.root);
  }
}

// ---------------------------------------------------------------------------
// Dispatch tables pick the argmin at every scenario point
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, DispatchTableIsArgminAtScenarios) {
  Rng rng(GetParam() * 104729);
  compose::ComponentNode node;
  node.interface.name = "prop";
  rt::PerfRegistry registry;
  for (const char* lang : {"cpu", "openmp", "cuda"}) {
    compose::VariantNode variant;
    variant.descriptor.name = std::string("prop_") + lang;
    variant.descriptor.interface_name = "prop";
    variant.descriptor.language = lang;
    // A random affine cost curve per variant, recorded at five sizes: the
    // builder sees it only through the registry's regression.
    const double base = rng.uniform(1e-6, 1e-3);
    const double slope = rng.uniform(1e-12, 1e-8);
    for (std::size_t bytes = 1u << 10; bytes <= 1u << 26; bytes <<= 4) {
      registry.record("prop", variant.arch(), bytes, bytes,
                      base + slope * static_cast<double>(bytes));
    }
    node.variants.push_back(std::move(variant));
  }
  std::vector<std::size_t> scenarios;
  for (int s = 0; s < 12; ++s) {
    scenarios.push_back(1 + rng.next_below(1 << 28));
  }
  const rt::DispatchTable table =
      compose::build_dispatch_table(node, scenarios, registry);

  std::map<rt::Arch, std::uint64_t> argmin_tally;
  for (std::size_t bytes : scenarios) {
    std::optional<rt::Arch> best;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const auto& variant : node.variants) {
      const std::optional<double> cost =
          registry.regression_estimate("prop", variant.arch(), bytes);
      ASSERT_TRUE(cost.has_value()) << "bytes=" << bytes;
      if (*cost < best_cost) {
        best_cost = *cost;
        best = variant.arch();
      }
    }
    ++argmin_tally[*best];
  }
  std::map<rt::Arch, std::uint64_t> votes;
  for (const rt::DispatchTable::Entry& entry : table.entries()) {
    EXPECT_EQ(entry.codelet, "prop");
    EXPECT_EQ(entry.footprint, 0u);
    EXPECT_EQ(entry.point, -1);
    votes[entry.arch] += entry.count;
  }
  EXPECT_EQ(votes, argmin_tally);
}

// ---------------------------------------------------------------------------
// History-model regression brackets monotone data
// ---------------------------------------------------------------------------

TEST_P(SeededProperty, RegressionInterpolatesWithinRecordedRange) {
  Rng rng(GetParam() * 31337);
  rt::HistoryModel model;
  const double a = rng.uniform(1e-10, 1e-7);
  const double b = rng.uniform(0.8, 1.8);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 6; ++i) {
    const std::size_t bytes = 1000u << i;
    sizes.push_back(bytes);
    model.record(bytes, bytes, a * std::pow(static_cast<double>(bytes), b));
  }
  // Interior estimates stay within the recorded extremes and within 2x of
  // the generating law.
  for (int probe = 0; probe < 10; ++probe) {
    const std::size_t bytes = 1000 + rng.next_below(31000);
    const auto estimate = model.regression_estimate(bytes);
    ASSERT_TRUE(estimate.has_value());
    const double truth = a * std::pow(static_cast<double>(bytes), b);
    EXPECT_GT(*estimate, truth * 0.5);
    EXPECT_LT(*estimate, truth * 2.0);
  }
}

}  // namespace
}  // namespace peppher
