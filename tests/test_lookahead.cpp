// Lookahead scheduler + static-composition replay: DispatchTable unit
// tests (keys, majority resolution, the ".dispatch" wire format and its
// located parse errors), the window-1 differential against dmda,
// engine-level replay / window-tracing behaviour, and the window plan's
// cost: fetch routes, the replicas a multi-hop fetch leaves behind, and
// the cores a combined-CPU worker shares. The policy's decision rules at
// window > 1 are exercised end-to-end by bench_scheduler_lookahead and the
// chaos suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/ode.hpp"
#include "perf/trace.hpp"
#include "runtime/engine.hpp"
#include "runtime/memory.hpp"
#include "runtime/perfmodel.hpp"
#include "runtime/placement.hpp"
#include "runtime/scheduler.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "temp_dir.hpp"

namespace peppher::rt {
namespace {

// -- DispatchTable: keys -----------------------------------------------------

TEST(DispatchTableKey, PrefixFactorisationMatchesDirectKey) {
  const std::uint64_t prefix = DispatchTable::key_prefix("spmv_csr");
  EXPECT_EQ(DispatchTable::key_from_prefix(prefix, 42, 7),
            DispatchTable::key("spmv_csr", 42, 7));
  EXPECT_EQ(DispatchTable::key_from_prefix(prefix, 0, -1),
            DispatchTable::key("spmv_csr", 0, -1));
}

TEST(DispatchTableKey, DistinctFieldsGiveDistinctKeys) {
  std::set<std::uint64_t> keys;
  for (const char* codelet : {"a", "b", "spmv"}) {
    for (std::uint64_t footprint : {0ull, 1ull, 99ull}) {
      for (int point : {-1, 0, 1, 12}) {
        keys.insert(DispatchTable::key(codelet, footprint, point));
      }
    }
  }
  EXPECT_EQ(keys.size(), 3u * 3u * 4u);
}

// -- DispatchTable: training, resolution, wildcards --------------------------

TEST(DispatchTableResolve, MajorityVoteWinsPerKey) {
  DispatchTable table;
  table.train("k", 8, 0, Arch::kCpu, 3);
  table.train("k", 8, 0, Arch::kCuda, 5);
  table.finalize();
  const auto arch = table.lookup(DispatchTable::key("k", 8, 0));
  ASSERT_TRUE(arch.has_value());
  EXPECT_EQ(*arch, Arch::kCuda);
}

TEST(DispatchTableResolve, WildcardAggregatesCoverUntrainedProbes) {
  DispatchTable table;
  table.train("k", 8, 0, Arch::kCuda, 2);
  table.train("k", 16, 1, Arch::kCuda, 2);
  table.train("k", 16, 2, Arch::kCpu, 1);
  table.finalize();
  // Footprint collapsed (0 = any): point 1 trained only at footprint 16.
  EXPECT_EQ(table.lookup(DispatchTable::key("k", 0, 1)), Arch::kCuda);
  // Point collapsed (-1 = any): footprint 16 majority is cuda (2 vs 1).
  EXPECT_EQ(table.lookup(DispatchTable::key("k", 16, -1)), Arch::kCuda);
  // Both collapsed: global majority.
  EXPECT_EQ(table.lookup(DispatchTable::key("k", 0, -1)), Arch::kCuda);
  // A probe the training never saw in any projection misses.
  EXPECT_FALSE(table.lookup(DispatchTable::key("other", 0, -1)).has_value());
}

TEST(DispatchTableResolve, ZeroCountTrainIsIgnored) {
  DispatchTable table;
  table.train("k", 1, 0, Arch::kCpu, 0);
  EXPECT_TRUE(table.empty());
}

// -- DispatchTable: wire format ----------------------------------------------

TEST(DispatchTableFormat, SerialiseRoundTripsEntriesAndMachine) {
  DispatchTable table;
  table.set_machine("c2050");
  table.train("alpha", 8, 0, Arch::kCpu, 3);
  table.train("alpha", 8, 0, Arch::kCuda, 5);
  table.train("beta", 0, -1, Arch::kCpuOmp, 1);
  const std::string text = table.serialize();
  EXPECT_EQ(text.find("peppher-dispatch v1 c2050\n"), 0u);

  DispatchTable parsed;
  parsed.deserialize(text);
  EXPECT_EQ(parsed.machine(), "c2050");
  const auto a = table.entries();
  const auto b = parsed.entries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].codelet, b[i].codelet);
    EXPECT_EQ(a[i].footprint, b[i].footprint);
    EXPECT_EQ(a[i].point, b[i].point);
    EXPECT_EQ(a[i].arch, b[i].arch);
    EXPECT_EQ(a[i].count, b[i].count);
  }
  // Fixpoint: a second round trip reproduces the text byte for byte.
  EXPECT_EQ(parsed.serialize(), text);
}

TEST(DispatchTableFormat, HeaderWithoutMachineDefaultsToUnknown) {
  DispatchTable table;
  table.deserialize("peppher-dispatch v1\nk 0 -1 cpu 4\n");
  EXPECT_EQ(table.machine(), "unknown");
  table.finalize();
  EXPECT_EQ(table.lookup(DispatchTable::key("k", 0, -1)), Arch::kCpu);
}

/// Expects `text` to fail parsing at exactly (line, column).
void expect_parse_error(const std::string& text, int line, int column) {
  DispatchTable table;
  try {
    table.deserialize(text);
    FAIL() << "expected ParseError for: " << text;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_EQ(e.column(), column) << e.what();
  }
}

TEST(DispatchTableFormat, MalformedInputsFailWithLocations) {
  const std::string head = "peppher-dispatch v1 m\n";
  expect_parse_error("", 1, 1);                          // empty: no header
  expect_parse_error("peppher-model v2\n", 1, 1);        // wrong schema tag
  expect_parse_error("peppher-dispatch v2 m\n", 1, 18);  // wrong version
  expect_parse_error("peppher-dispatch v1 m extra\n", 1, 23);  // trailing
  expect_parse_error(head + "k 0 -1 cpu\n", 2, 1);       // 4 fields
  expect_parse_error(head + "k x -1 cpu 1\n", 2, 3);     // bad footprint
  expect_parse_error(head + "k 0 -2 cpu 1\n", 2, 5);     // point < -1
  expect_parse_error(head + "k 0 -1 fpga 1\n", 2, 8);    // unknown arch
  expect_parse_error(head + "k 0 -1 cpu 0\n", 2, 12);    // zero count
  expect_parse_error(head + "k 0 -1 cpu 1\nk 0 -1 cpu 2\n", 3, 1);  // dup
}

TEST(DispatchTableFormat, LoadNamesTheFileInParseErrors) {
  const std::filesystem::path dir =
      peppher::testing::unique_temp_dir("peppher_dispatch_test");
  const std::filesystem::path file = dir / "broken.dispatch";
  fs::write_file(file, "not-a-dispatch-table\n");
  DispatchTable table;
  try {
    table.load(file);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("broken.dispatch"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(DispatchTableFormat, SaveLoadIsReadyForReplay) {
  const std::filesystem::path dir =
      peppher::testing::unique_temp_dir("peppher_dispatch_test");
  const std::filesystem::path file = dir / "table.dispatch";
  {
    DispatchTable table;
    table.set_machine("m1");
    table.train("k", 4, 2, Arch::kCuda, 7);
    table.save(file);
  }
  DispatchTable loaded;
  loaded.load(file);  // load() finalizes: lookups work immediately
  EXPECT_EQ(loaded.machine(), "m1");
  EXPECT_EQ(loaded.lookup(DispatchTable::key("k", 4, 2)), Arch::kCuda);
  EXPECT_EQ(loaded.lookup(DispatchTable::key("k", 0, -1)), Arch::kCuda);
  std::filesystem::remove_all(dir);
}

// -- window-1 differential: lookahead degenerates to dmda --------------------

/// Mock world mirroring test_scheduler_unit: 3 workers (2 CPU + 1 GPU),
/// table-driven eligibility and estimates.
class LookaheadDifferential : public ::testing::Test {
 protected:
  LookaheadDifferential() {
    for (int i = 0; i < 3; ++i) {
      WorkerDesc desc;
      desc.id = i;
      desc.archs = {i < 2 ? Arch::kCpu : Arch::kCuda};
      desc.node = i < 2 ? kHostNode : 1;
      desc.profile = i < 2 ? sim::DeviceProfile::xeon_e5520_core()
                           : sim::DeviceProfile::tesla_c2050();
      workers_.push_back(desc);
    }
    codelet_.add_impl({Arch::kCpu, "d_cpu", [](ExecContext&) {}, nullptr});
    codelet_.add_impl({Arch::kCuda, "d_cuda", [](ExecContext&) {}, nullptr});

    env_.workers = &workers_;
    env_.rng = &rng_;
    env_.calibration_min = 2;
    env_.window_size = 1;  // the degenerate window: dmda by construction
    env_.worker_ready_at = [this](WorkerId id) {
      return ready_[static_cast<std::size_t>(id)];
    };
    env_.eligible = [](const Task&, WorkerId) { return true; };
    env_.exec = [this](const Task&, WorkerId id) {
      return work_[static_cast<std::size_t>(id)];
    };
    env_.sample_count = [this](const Task&, WorkerId id) {
      return samples_[static_cast<std::size_t>(id)];
    };
  }

  /// A task, reading `read` when given.
  TaskPtr make_task(const DataHandlePtr& read = nullptr) {
    TaskSpec spec;
    spec.codelet = &codelet_;
    if (read != nullptr) spec.operands = {{read, AccessMode::kRead}};
    auto task = std::make_shared<Task>(std::move(spec), next_seq_++);
    if (read != nullptr) task->operand_bytes = {read->bytes()};
    return task;
  }

  /// Pushes `count` tasks through `scheduler` with no pop in between, as
  /// asynchronous submissions queue up, and returns each worker's queue as
  /// push indices.
  std::vector<std::vector<std::uint64_t>> queued(
      Scheduler& scheduler, int count, const DataHandlePtr& read = nullptr) {
    const std::uint64_t first = next_seq_;
    for (int i = 0; i < count; ++i) scheduler.push(make_task(read));
    std::vector<std::vector<std::uint64_t>> queues(3);
    for (int w = 0; w < 3; ++w) {
      while (TaskPtr task = scheduler.pop(w)) {
        queues[static_cast<std::size_t>(w)].push_back(task->sequence - first);
      }
    }
    return queues;
  }

  /// Pushes one task through `scheduler` and returns the worker whose
  /// queue received it.
  WorkerId placed_on(Scheduler& scheduler) {
    scheduler.push(make_task());
    for (int w = 0; w < 3; ++w) {
      if (scheduler.pop(w) != nullptr) return w;
    }
    return -1;
  }

  std::vector<WorkerDesc> workers_;
  Codelet codelet_{"differential"};
  Rng rng_{7};
  SchedEnv env_;
  std::vector<double> ready_{0.0, 0.0, 0.0};
  std::vector<double> work_{1.0, 1.0, 1.0};
  std::vector<std::uint64_t> samples_{100, 100, 100};  // calibrated
  std::uint64_t next_seq_ = 0;
};

TEST_F(LookaheadDifferential, WindowOnePlacesExactlyLikeDmda) {
  auto dmda = make_scheduler("dmda", env_);
  auto lookahead = make_scheduler("lookahead", env_);
  // A spread of readiness/work shapes, including ties (both policies must
  // break them identically: first minimal worker wins).
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      shapes = {
          {{10.0, 5.0, 20.0}, {1.0, 1.0, 1.0}},
          {{0.0, 0.0, 0.0}, {3.0, 2.0, 1.0}},
          {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},    // full tie
          {{5.0, 0.0, 2.0}, {0.5, 6.0, 0.5}},
          {{0.0, 100.0, 100.0}, {10.0, 1.0, 1.0}},
      };
  for (const auto& [ready, work] : shapes) {
    ready_ = ready;
    work_ = work;
    const WorkerId expected = placed_on(*dmda);
    EXPECT_EQ(placed_on(*lookahead), expected)
        << "ready={" << ready[0] << "," << ready[1] << "," << ready[2]
        << "} work={" << work[0] << "," << work[1] << "," << work[2] << "}";
  }
}

TEST_F(LookaheadDifferential, WindowOneExploresUncalibratedLikeDmda) {
  samples_ = {100, 100, 0};      // GPU variant unsampled
  ready_ = {0.0, 0.0, 1000.0};   // and apparently terrible
  auto dmda = make_scheduler("dmda", env_);
  auto lookahead = make_scheduler("lookahead", env_);
  EXPECT_EQ(placed_on(*dmda), 2);       // exploration overrides estimates
  EXPECT_EQ(placed_on(*lookahead), 2);  // identical at window 1
}

TEST_F(LookaheadDifferential, WindowOneQueuesJoulesLikeDmdaUnderEnergy) {
  // Every placement weighs the work queued before it, so a window of one
  // must queue exactly dmda's work. Under kEnergy that work is joules: the
  // GPU (0.01 s at 238 W) takes tasks until its queued joules pass a
  // core's (1 s at 20 W).
  env_.objective = Objective::kEnergy;
  work_ = {1.0, 1.0, 0.01};
  auto dmda = make_scheduler("dmda", env_);
  auto lookahead = make_scheduler("lookahead", env_);
  const auto expected = queued(*dmda, 24);
  EXPECT_FALSE(expected[0].empty());
  EXPECT_GT(expected[2].size(), expected[0].size());
  EXPECT_EQ(queued(*lookahead, 24), expected);
}

TEST_F(LookaheadDifferential, WindowOneQueuesAmortisedFetchesLikeDmda) {
  // Under kTime the queued work is the decision's fetch — amortised over
  // the handle's 64 reads — plus exec: the GPU takes tasks until that
  // work passes a core's exec, many more than its full uploads would fit.
  DataManager data(2, sim::LinkProfile::pcie2_x16());
  std::vector<float> buffer(1 << 20, 0.0f);
  const DataHandlePtr handle = data.register_buffer(
      buffer.data(), buffer.size() * sizeof(float), sizeof(float));
  for (int i = 0; i < 64; ++i) {
    handle->acquire(kHostNode, AccessMode::kRead, nullptr);
  }
  env_.interconnect = &data.interconnect();
  const double full = data.interconnect().fetch_seconds(kHostNode, 1,
                                                        handle->bytes(), 1.0);
  work_ = {full, full, full / 20.0};
  auto dmda = make_scheduler("dmda", env_);
  auto lookahead = make_scheduler("lookahead", env_);
  const auto expected = queued(*dmda, 24, handle);
  EXPECT_FALSE(expected[0].empty());
  EXPECT_GT(expected[2].size(), 2u);  // more than full uploads would allow
  EXPECT_EQ(queued(*lookahead, 24, handle), expected);
}

// -- engine-level replay -----------------------------------------------------

Codelet make_gpu_friendly_codelet() {
  Codelet codelet("replay_kernel");
  const auto body = [](ExecContext& ctx) {
    auto* data = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) data[i] += 1.0f;
  };
  // Heavy compute, trivial data: dynamic policies put this on the GPU.
  const auto cost = [](const std::vector<std::size_t>&, const void*) {
    return sim::KernelCost{5e9, 1e4, 1.0};
  };
  codelet.add_impl({Arch::kCpu, "replay_cpu", body, cost});
  codelet.add_impl({Arch::kCuda, "replay_cuda", body, cost});
  return codelet;
}

TEST(LookaheadReplay, TablePlacementOverridesTheModels) {
  constexpr int kTasks = 32;
  const std::filesystem::path dir =
      peppher::testing::unique_temp_dir("peppher_replay_test");
  const std::filesystem::path file = dir / "forced.dispatch";
  {
    // A table that pins the GPU-friendly kernel to the CPU: replay must
    // honour it without consulting any cost model.
    DispatchTable table;
    table.train("replay_kernel", 0, -1, Arch::kCpu, 1);
    table.save(file);
  }

  auto run = [&](bool with_table) {
    EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.machine.cpu_cores = 2;
    config.scheduler = "lookahead";
    config.use_history_models = false;
    if (with_table) config.dispatch_table = file;
    Engine engine(config);
    Codelet codelet = make_gpu_friendly_codelet();
    std::vector<std::vector<float>> buffers(kTasks,
                                            std::vector<float>(8, 0.0f));
    std::vector<DataHandlePtr> handles;
    for (auto& buffer : buffers) {
      handles.push_back(engine.register_buffer(
          buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
    }
    for (int i = 0; i < kTasks; ++i) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handles[static_cast<std::size_t>(i)],
                        AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
    std::uint64_t on_gpu = 0;
    for (const auto& desc : engine.workers()) {
      if (!desc.archs.empty() && desc.archs.front() == Arch::kCuda) {
        on_gpu += engine.worker_stats(desc.id).tasks_executed;
      }
    }
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      engine.acquire_host(handles[i], AccessMode::kRead);
      for (float v : buffers[i]) EXPECT_FLOAT_EQ(v, 1.0f);
    }
    return on_gpu;
  };

  EXPECT_GT(run(false), 0u) << "without the table the GPU gets work";
  EXPECT_EQ(run(true), 0u) << "the table pins every task to the CPU";
  std::filesystem::remove_all(dir);
}

TEST(LookaheadReplay, OtherSchedulersRejectADispatchTable) {
  // Only lookahead replays a table: any other policy would silently ignore
  // it, so the engine refuses the combination.
  const std::filesystem::path dir =
      peppher::testing::unique_temp_dir("peppher_replay_test");
  const std::filesystem::path file = dir / "pinned.dispatch";
  {
    DispatchTable table;
    table.train("replay_kernel", 0, -1, Arch::kCpu, 1);
    table.save(file);
  }
  for (const std::string& scheduler : scheduler_names()) {
    if (scheduler == "lookahead") continue;
    EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.scheduler = scheduler;
    config.dispatch_table = file;
    try {
      Engine engine(config);
      ADD_FAILURE() << scheduler << " accepted a dispatch table";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
      const std::string message = e.what();
      EXPECT_NE(message.find("dispatch_table"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + scheduler + "'"), std::string::npos)
          << message;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(LookaheadReplay, TrainingRunWritesALoadableTable) {
  constexpr int kTasks = 24;
  const std::filesystem::path dir =
      peppher::testing::unique_temp_dir("peppher_replay_test");
  const std::filesystem::path file = dir / "trained.dispatch";
  {
    EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.scheduler = "lookahead";
    config.use_history_models = false;
    config.dispatch_out = file;
    Engine engine(config);
    Codelet codelet = make_gpu_friendly_codelet();
    std::vector<std::vector<float>> buffers(kTasks,
                                            std::vector<float>(8, 0.0f));
    for (auto& buffer : buffers) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{engine.register_buffer(buffer.data(),
                                               buffer.size() * sizeof(float),
                                               sizeof(float)),
                        AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
  }  // shutdown saves the table

  DispatchTable table;
  table.load(file);
  EXPECT_FALSE(table.empty());
  EXPECT_EQ(table.machine(), sim::MachineConfig::platform_c2050().name);
  // The GPU-friendly kernel's majority placement must be the GPU.
  const auto arch = table.lookup(DispatchTable::key("replay_kernel", 0, -1));
  ASSERT_TRUE(arch.has_value());
  EXPECT_EQ(*arch, Arch::kCuda);
  std::filesystem::remove_all(dir);
}

/// Majority architecture per (codelet, footprint, point) key of a
/// ".dispatch" file, read through the format's one parser.
std::map<std::tuple<std::string, std::uint64_t, int>, Arch> majorities(
    const std::filesystem::path& file) {
  std::map<std::tuple<std::string, std::uint64_t, int>,
           std::map<Arch, std::uint64_t>>
      votes;
  for (const DispatchTable::Entry& entry : DispatchTable::parse_file(file)) {
    votes[{entry.codelet, entry.footprint, entry.point}][entry.arch] +=
        entry.count;
  }
  std::map<std::tuple<std::string, std::uint64_t, int>, Arch> out;
  for (const auto& [key, arches] : votes) {
    out[key] = std::max_element(arches.begin(), arches.end(),
                                [](const auto& a, const auto& b) {
                                  return a.second < b.second;
                                })
                   ->first;
  }
  return out;
}

// Static composition end to end on the ODE pipeline: a lookahead training
// run writes a dispatch table, and replaying it (while training a second
// table) must reproduce the trained per-key majority placements with at
// most 5% divergence — a replay that drifts from its own table means the
// table is being ignored.
TEST(LookaheadReplay, ReplayReproducesTheTrainedMajorities) {
  const std::filesystem::path dir =
      peppher::testing::unique_temp_dir("peppher_replay_ode");
  const std::filesystem::path trained = dir / "train.dispatch";
  const std::filesystem::path replayed = dir / "replay.dispatch";
  apps::ode::register_components();
  const apps::ode::Problem problem = apps::ode::make_problem(96, 24);
  for (const bool replay : {false, true}) {
    EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.scheduler = "lookahead";
    config.use_history_models = false;
    config.dispatch_out = replay ? replayed : trained;
    if (replay) config.dispatch_table = trained;
    Engine engine(config);
    apps::ode::run_tool(engine, problem);
  }  // each shutdown saves its table

  const auto train = majorities(trained);
  const auto replay = majorities(replayed);
  std::size_t shared = 0;
  std::size_t diverged = 0;
  for (const auto& [key, arch] : train) {
    const auto found = replay.find(key);
    if (found == replay.end()) continue;
    ++shared;
    if (found->second != arch) ++diverged;
  }
  ASSERT_GT(shared, 0u) << "no shared keys between the two tables";
  EXPECT_LE(static_cast<double>(diverged), 0.05 * static_cast<double>(shared))
      << diverged << " of " << shared << " keys diverged";
  std::filesystem::remove_all(dir);
}

// -- engine-level window tracing ---------------------------------------------

TEST(LookaheadWindows, PlannedWindowsAreTracedAndExported) {
  constexpr int kTasks = 16;
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.scheduler = "lookahead";
  config.use_history_models = false;
  config.enable_trace = true;
  config.window_size = 4;
  Engine engine(config);
  Codelet codelet = make_gpu_friendly_codelet();
  std::vector<std::vector<float>> buffers(kTasks, std::vector<float>(8, 0.0f));
  for (auto& buffer : buffers) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{engine.register_buffer(buffer.data(),
                                             buffer.size() * sizeof(float),
                                             sizeof(float)),
                      AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();

  // Every independent task goes through the staging buffer exactly once
  // (no replay, no exploration), so the planned windows partition them.
  const std::vector<WindowRecord> windows = engine.trace().windows();
  ASSERT_FALSE(windows.empty());
  std::set<std::uint64_t> planned;
  for (const WindowRecord& window : windows) {
    EXPECT_GT(window.size, 0);
    EXPECT_LE(window.size, config.window_size);
    EXPECT_EQ(window.size, static_cast<int>(window.tasks.size()));
    for (const std::uint64_t task : window.tasks) {
      EXPECT_TRUE(planned.insert(task).second)
          << "task " << task << " planned twice";
    }
  }
  EXPECT_EQ(planned.size(), static_cast<std::size_t>(kTasks));

  // And the exported trace document round-trips the same windows.
  const perf::Trace trace = perf::parse_trace(engine.trace_json());
  ASSERT_EQ(trace.windows.size(), windows.size());
  std::uint64_t exported_tasks = 0;
  for (const auto& window : trace.windows) {
    exported_tasks += static_cast<std::uint64_t>(window.tasks.size());
  }
  EXPECT_EQ(exported_tasks, static_cast<std::uint64_t>(kTasks));
}

// -- the window plan prices fetches like the live handles ---------------------

TEST(LookaheadPlanCost, RemotePlacementPaysTheInterNodeHop) {
  // Two single-core nodes without accelerators; the operand lives on node
  // 0 and the task may only run on node 1's core. The plan must price the
  // host0 -> host1 hop over the inter-node link, exactly as a plan seeded
  // from the handle prices it.
  EngineConfig config;
  config.cluster =
      sim::ClusterConfig::uniform(2, sim::MachineConfig::cpu_only(1));
  config.scheduler = "lookahead";
  config.window_size = 4;
  config.use_history_models = false;
  config.enable_trace = true;
  Engine engine(config);
  const auto cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{1e6, static_cast<double>(bytes[0]), 1.0};
  };
  Codelet codelet("remote_read");
  codelet.add_impl({Arch::kCpu, "remote_read_cpu", [](ExecContext&) {}, cost});
  std::vector<float> data(1 << 16, 1.0f);
  const std::size_t bytes = data.size() * sizeof(float);
  const DataHandlePtr handle =
      engine.register_buffer(data.data(), bytes, sizeof(float));

  WorkerId remote = -1;
  for (const WorkerDesc& w : engine.workers()) {
    if (w.sim_node == 1 && w.archs.front() == Arch::kCpu) remote = w.id;
  }
  ASSERT_GE(remote, 0);
  const WorkerDesc& worker = engine.workers()[static_cast<std::size_t>(remote)];
  const Interconnect net{MemTopology::of_cluster(config.cluster),
                         config.cluster.nodes[0].machine.link,
                         config.cluster.internode};
  Plan plan(engine.workers(), &net);
  Plan::Task read;
  read.exec.assign(engine.workers().size(), 0.0);
  read.operands = {{plan.add_data(*handle), AccessMode::kRead, bytes, 1.0}};
  const double fetch = plan.price(read, remote).fetch;
  const double exec =
      sim::execution_seconds(worker.profile, cost({bytes}, nullptr));
  ASSERT_NE(fetch, sim::transfer_seconds(config.cluster.nodes[0].machine.link,
                                         bytes))
      << "the route must cross the inter-node link, not PCIe";

  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kRead}};
  spec.forced_worker = remote;
  engine.submit(std::move(spec));
  engine.wait_for_all();

  const std::vector<WindowRecord> windows = engine.trace().windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].estimate, fetch + exec);
}

TEST(LookaheadPlanCost, MultiHopFetchLeavesTheIntermediateHostValid) {
  // On two C2050 nodes, data on host 0 travels host0 -> host1 -> dev1 to a
  // node-1 device task. copy_replica leaves a copy on host 1 on the way,
  // and so does the plan: a second task reading the data on host 1 then
  // plans no fetch.
  const sim::ClusterConfig cluster =
      sim::ClusterConfig::uniform(2, sim::MachineConfig::platform_c2050());
  const std::vector<WorkerDesc> workers = worker_table(cluster);
  DataManager data(MemTopology::of_cluster(cluster),
                   cluster.nodes[0].machine.link, cluster.internode);
  std::vector<float> buffer(1 << 12, 1.0f);
  const std::size_t bytes = buffer.size() * sizeof(float);
  const DataHandlePtr handle =
      data.register_buffer(buffer.data(), bytes, sizeof(float));

  WorkerId device = -1;
  WorkerId core = -1;
  for (const WorkerDesc& w : workers) {
    if (w.sim_node != 1) continue;
    if (w.archs.front() == Arch::kCuda) device = w.id;
    if (w.archs.front() == Arch::kCpu && core < 0) core = w.id;
  }
  ASSERT_GE(device, 0);
  ASSERT_GE(core, 0);
  const MemoryNodeId device_node = workers[static_cast<std::size_t>(device)].node;
  const MemoryNodeId host1 = workers[static_cast<std::size_t>(core)].node;

  Plan plan(workers, &data.interconnect());
  const int datum = plan.add_data(*handle);
  const auto read_on = [&](WorkerId worker) {
    Plan::Task task;
    task.exec.assign(workers.size(), std::numeric_limits<double>::infinity());
    task.exec[static_cast<std::size_t>(worker)] = 1e-3;
    task.operands = {{datum, AccessMode::kRead, bytes, 1.0}};
    return task;
  };
  const Plan::Commit first = plan.commit(read_on(device), device);
  EXPECT_EQ(first.fetch, data.interconnect().fetch_seconds(
                             kHostNode, device_node, bytes, 1.0));
  EXPECT_NE(plan.states(datum)[static_cast<std::size_t>(host1)],
            ReplicaState::kInvalid);
  EXPECT_EQ(plan.price(read_on(core), core).fetch, 0.0);

  // The live handle leaves the same copy behind.
  handle->acquire(device_node, AccessMode::kRead, nullptr);
  handle->release(device_node);
  std::vector<ReplicaState> live;
  handle->plan_states(live);
  EXPECT_TRUE(std::ranges::equal(live, plan.states(datum)));
}

TEST(LookaheadPlanCost, WindowCouplesTheCombinedWorkerWithItsCores) {
  // Two independent 1-GFLOP tasks with identical cpu and openmp variants
  // on two cores: a core runs one in 0.275 s, the combined worker in
  // 0.153 s — but only while both cores are idle, so the engine runs a
  // core task after a combined one, not beside it. A window that plans
  // the pair must know that too: its estimate is the makespan the engine
  // then runs, with one task on each core.
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  config.scheduler = "lookahead";
  config.window_size = 2;
  config.use_history_models = false;
  config.enable_prefetch = false;
  config.enable_trace = true;
  Engine engine(config);

  // A gate both tasks read: they become ready together when it completes,
  // and the completing worker stages both before anyone plans.
  std::atomic<bool> open{false};
  Codelet gate("gate");
  gate.add_impl({Arch::kCpu, "gate_cpu",
                 [&open](ExecContext&) {
                   while (!open.load()) std::this_thread::yield();
                 },
                 [](const std::vector<std::size_t>&, const void*) {
                   return sim::KernelCost{0.0, 0.0, 1.0};
                 }});
  const auto gflop = [](const std::vector<std::size_t>&, const void*) {
    return sim::KernelCost{1e9, 0.0, 1.0};
  };
  Codelet work("gflop");
  work.add_impl({Arch::kCpu, "gflop_cpu", [](ExecContext&) {}, gflop});
  work.add_impl({Arch::kCpuOmp, "gflop_openmp", [](ExecContext&) {}, gflop});

  std::vector<float> buffer(16, 0.0f);
  const DataHandlePtr handle = engine.register_buffer(
      buffer.data(), buffer.size() * sizeof(float), sizeof(float));
  TaskSpec opener;
  opener.codelet = &gate;
  opener.operands = {{handle, AccessMode::kWrite}};
  const TaskPtr gate_task = engine.submit(std::move(opener));
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 2; ++i) {
    TaskSpec spec;
    spec.codelet = &work;
    spec.operands = {{handle, AccessMode::kRead}};
    tasks.push_back(engine.submit(std::move(spec)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // idle parks
  open.store(true);
  engine.wait_for_all();

  const std::vector<WindowRecord> windows = engine.trace().windows();
  ASSERT_FALSE(windows.empty());
  EXPECT_EQ(windows.back().size, 2);
  EXPECT_NEAR(windows.back().estimate, engine.virtual_makespan(), 1e-12);
  const double core_seconds = sim::execution_seconds(
      config.machine.cpu_core, gflop({}, nullptr));
  EXPECT_NEAR(engine.virtual_makespan(), gate_task->vend + core_seconds,
              1e-12);
  EXPECT_EQ(tasks[0]->executed_arch, Arch::kCpu);
  EXPECT_EQ(tasks[1]->executed_arch, Arch::kCpu);
  EXPECT_NE(tasks[0]->executed_on, tasks[1]->executed_on);
}

}  // namespace
}  // namespace peppher::rt
