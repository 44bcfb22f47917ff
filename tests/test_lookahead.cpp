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
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
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
/// table-driven eligibility and estimates (which the commits also take:
/// SchedEnv::cost is unset). Both policies' worker clocks are their own
/// plan's, so a test builds them with earlier submissions.
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
    env_.calibration_min = 2;
    env_.window_size = 1;  // the degenerate window: dmda by construction
    env_.eligible = [this](const Task&, WorkerId id) {
      return pinned_ < 0 || id == pinned_;
    };
    env_.exec = [this](const Task& task, WorkerId id) {
      return env_.eligible(task, id)
                 ? work_[static_cast<std::size_t>(id)]
                 : std::numeric_limits<double>::infinity();
    };
    env_.sample_count = [this](const Task& task, WorkerId id) {
      return env_.eligible(task, id)
                 ? samples_[static_cast<std::size_t>(id)]
                 : std::numeric_limits<std::uint64_t>::max();
    };
  }

  /// A fresh `policy` with `ready[w]` seconds committed on each worker w:
  /// one task only that worker may run, submitted before the test's tasks.
  std::unique_ptr<Scheduler> with_clocks(const std::string& policy,
                                         const std::vector<double>& ready) {
    auto scheduler = make_scheduler(policy, env_);
    const std::vector<double> work = work_;
    for (int w = 0; w < 3; ++w) {
      if (ready[static_cast<std::size_t>(w)] == 0.0) continue;
      pinned_ = w;
      work_.assign(3, ready[static_cast<std::size_t>(w)]);
      EXPECT_EQ(placed_on(*scheduler), w);
    }
    pinned_ = -1;
    work_ = work;
    return scheduler;
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

  /// Submits `count` tasks through `scheduler` and returns, per worker,
  /// the submission indices of the tasks committed there.
  std::vector<std::vector<std::uint64_t>> queued(
      Scheduler& scheduler, int count, const DataHandlePtr& read = nullptr) {
    const std::uint64_t first = next_seq_;
    std::vector<TaskPtr> committed;
    for (int i = 0; i < count; ++i) scheduler.submit(make_task(read), committed);
    scheduler.flush(committed);
    std::vector<std::vector<std::uint64_t>> queues(3);
    for (const TaskPtr& task : committed) {
      queues[static_cast<std::size_t>(task->executed_on)].push_back(
          task->sequence - first);
    }
    return queues;
  }

  /// Submits `task` (a fresh one by default) through `scheduler`, commits
  /// it and returns its worker.
  WorkerId placed_on(Scheduler& scheduler, TaskPtr task = nullptr) {
    if (task == nullptr) task = make_task();
    std::vector<TaskPtr> committed;
    scheduler.submit(task, committed);
    scheduler.flush(committed);
    return committed.empty() ? -1 : task->executed_on;
  }

  std::vector<WorkerDesc> workers_;
  Codelet codelet_{"differential"};
  SchedEnv env_;
  std::vector<double> work_{1.0, 1.0, 1.0};
  std::vector<std::uint64_t> samples_{100, 100, 100};  // calibrated
  WorkerId pinned_ = -1;  ///< the one eligible worker, when >= 0
  std::uint64_t next_seq_ = 0;
};

TEST_F(LookaheadDifferential, WindowOnePlacesExactlyLikeDmda) {
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
    auto dmda = with_clocks("dmda", ready);
    auto lookahead = with_clocks("lookahead", ready);
    work_ = work;
    const WorkerId expected = placed_on(*dmda);
    EXPECT_EQ(placed_on(*lookahead), expected)
        << "ready={" << ready[0] << "," << ready[1] << "," << ready[2]
        << "} work={" << work[0] << "," << work[1] << "," << work[2] << "}";
  }
}

TEST_F(LookaheadDifferential, WindowOneExploresUncalibratedLikeDmda) {
  auto dmda = with_clocks("dmda", {0.0, 0.0, 1000.0});  // GPU far off
  auto lookahead = with_clocks("lookahead", {0.0, 0.0, 1000.0});
  samples_ = {100, 100, 0};  // and its variant unsampled
  EXPECT_EQ(placed_on(*dmda), 2);       // exploration overrides estimates
  EXPECT_EQ(placed_on(*lookahead), 2);  // identical at window 1
}

TEST_F(LookaheadDifferential, WindowOneQueuesJoulesLikeDmdaUnderEnergy) {
  // Energy is additive: a placement's score is the task's own joules, not
  // the joules queued before it. The GPU (0.01 s at 238 W) beats a core
  // (1 s at 20 W) on every task, so both policies put all 24 there.
  env_.objective = Objective::kEnergy;
  work_ = {1.0, 1.0, 0.01};
  auto dmda = make_scheduler("dmda", env_);
  auto lookahead = make_scheduler("lookahead", env_);
  const auto expected = queued(*dmda, 24);
  EXPECT_EQ(expected[2].size(), 24u);
  EXPECT_EQ(queued(*lookahead, 24), expected);
}

TEST_F(LookaheadDifferential, EqualJoulesSpreadOverTheCoresUnderEnergy) {
  // Both cores spend the same joules on a task (1 s at 20 W; the GPU's
  // 1 s at 238 W loses), so each placement goes to the core whose committed
  // clock ends the task first: the 24 tasks alternate between the cores.
  env_.objective = Objective::kEnergy;
  auto dmda = make_scheduler("dmda", env_);
  auto lookahead = make_scheduler("lookahead", env_);
  const auto expected = queued(*dmda, 24);
  EXPECT_EQ(expected[0].size(), 12u);
  EXPECT_EQ(expected[1].size(), 12u);
  EXPECT_TRUE(expected[2].empty());
  EXPECT_EQ(queued(*lookahead, 24), expected);
}

TEST_F(LookaheadDifferential, WindowOneCommitsEverySubmissionAtOnce) {
  // A window of one commits each submission before the next is made, so
  // the tasks land as dmda places them, spread over all three workers.
  work_ = {3.0, 2.0, 5.0};
  auto dmda = make_scheduler("dmda", env_);
  auto lookahead = make_scheduler("lookahead", env_);
  std::set<WorkerId> used;
  for (int i = 0; i < 12; ++i) {
    std::vector<TaskPtr> committed;
    const TaskPtr task = make_task();
    lookahead->submit(task, committed);
    ASSERT_EQ(committed, std::vector<TaskPtr>{task});
    EXPECT_EQ(task->executed_on, placed_on(*dmda));
    used.insert(task->executed_on);
  }
  EXPECT_EQ(used.size(), 3u);
}

TEST_F(LookaheadDifferential, ReplayedPlacementsAreBookedForDynamicTasks) {
  // A partial dispatch table: six tasks replay onto the GPU, then a task
  // with no table entry is planned beside them. The GPU ends it first on
  // empty clocks (1 s against 3 s on a core), but the six replayed seconds
  // committed there send it to a core.
  DispatchTable table;
  table.finalize();
  env_.dispatch = &table;
  work_ = {3.0, 3.0, 1.0};
  auto lookahead = make_scheduler("lookahead", env_);
  for (int i = 0; i < 6; ++i) {
    const TaskPtr task = make_task();
    task->has_dispatch_keys = true;
    task->replay_arch = static_cast<int>(Arch::kCuda);
    EXPECT_EQ(placed_on(*lookahead, task), 2);
  }
  const TaskPtr dynamic = make_task();
  dynamic->has_dispatch_keys = true;  // keys, but no entry: replay_arch -1
  EXPECT_EQ(placed_on(*lookahead, dynamic), 0);

  auto fresh = make_scheduler("lookahead", env_);
  EXPECT_EQ(placed_on(*fresh), 2);  // the premise: empty clocks
}

TEST_F(LookaheadDifferential, WindowOneQueuesAmortisedFetchesLikeDmda) {
  // Under kTime the first GPU decision prices the upload amortised over
  // the handle's 64 committed reads and its commit pays it in full on the
  // lane; the later ones find the replica there. The GPU takes tasks until
  // its clock passes a core's, many more than full uploads would fit. Each
  // policy gets a handle of its own: a commit moves the handle's plan view.
  DataManager data(2, sim::LinkProfile::pcie2_x16());
  env_.interconnect = &data.interconnect();
  std::vector<float> buffer(1 << 20, 0.0f);
  const auto run = [&](const std::string& policy) {
    const DataHandlePtr handle = data.register_buffer(
        buffer.data(), buffer.size() * sizeof(float), sizeof(float));
    auto scheduler = make_scheduler(policy, env_);
    for (int i = 0; i < 64; ++i) {
      scheduler->commit_access(*handle, kHostNode, AccessMode::kRead);
    }
    return queued(*scheduler, 24, handle);
  };
  const double full = data.interconnect().fetch_seconds(
      kHostNode, 1, buffer.size() * sizeof(float), 1.0);
  work_ = {full, full, full / 20.0};
  const auto expected = run("dmda");
  EXPECT_FALSE(expected[0].empty());
  EXPECT_GT(expected[2].size(), 2u);  // more than full uploads would allow
  EXPECT_EQ(run("lookahead"), expected);
}

/// Two cores (workers 0 and 1), their combined worker (2) and a GPU (3),
/// with table-driven eligibility and estimates (which the commits take
/// too, unless a test sets SchedEnv::cost).
class BookedClocks : public ::testing::Test {
 protected:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  BookedClocks() : workers_(4) {
    for (int i = 0; i < 4; ++i) {
      WorkerDesc& desc = workers_[static_cast<std::size_t>(i)];
      desc.id = i;
      desc.archs = {i < 2 ? Arch::kCpu : i == 2 ? Arch::kCpuOmp : Arch::kCuda};
      desc.node = i < 3 ? kHostNode : 1;
      desc.is_combined_cpu = i == 2;
    }
    env_.workers = &workers_;
    env_.window_size = 1;
    env_.eligible = [this](const Task&, WorkerId id) {
      return pinned_ < 0 || id == pinned_;
    };
    env_.exec = [this](const Task& task, WorkerId id) {
      return env_.eligible(task, id) ? exec_[static_cast<std::size_t>(id)]
                                     : kInf;
    };
    env_.sample_count = [this](const Task& task, WorkerId id) {
      return env_.eligible(task, id)
                 ? std::uint64_t{100}
                 : std::numeric_limits<std::uint64_t>::max();
    };
  }

  TaskPtr make_task() {
    TaskSpec spec;
    spec.codelet = &codelet_;
    return std::make_shared<Task>(std::move(spec), sequence_++);
  }

  /// Submits `task` through `scheduler`, commits it and returns its worker.
  static WorkerId placed_on(Scheduler& scheduler, const TaskPtr& task) {
    std::vector<TaskPtr> committed;
    scheduler.submit(task, committed);
    scheduler.flush(committed);
    return committed.empty() ? -1 : task->executed_on;
  }

  std::vector<WorkerDesc> workers_;
  Codelet codelet_{"booked"};
  SchedEnv env_;
  WorkerId pinned_ = -1;  ///< the one eligible worker, when >= 0
  std::vector<double> exec_;
  std::uint64_t sequence_ = 0;
};

TEST_F(BookedClocks, ACoreAndTheCombinedWorkerShareTheirCores) {
  // A commit moves the clocks by the one core-sharing rule: a task on the
  // combined worker holds both cores, a task on a core holds the combined
  // worker, and the cores do not hold each other. A follow-up
  // task takes 1 s on one CPU worker and 5 s on the GPU, after a 10-s task
  // pinned to `first`; it goes to the CPU worker if the rule leaves it
  // free, else to the GPU.
  // {first, the follow-up's CPU worker, where the follow-up goes}
  const std::vector<std::array<WorkerId, 3>> cases = {
      {2, 0, 3},  // the combined worker holds core 0
      {0, 2, 3},  // core 0 holds the combined worker
      {0, 1, 1},  // core 0 does not hold core 1
  };
  for (const std::string policy : {"dmda", "lookahead"}) {
    for (const auto& [first, cpu, expected] : cases) {
      auto scheduler = make_scheduler(policy, env_);
      pinned_ = first;
      exec_.assign(4, 10.0);
      EXPECT_EQ(placed_on(*scheduler, make_task()), first);
      pinned_ = -1;
      exec_ = {kInf, kInf, kInf, 5.0};
      exec_[static_cast<std::size_t>(cpu)] = 1.0;
      EXPECT_EQ(placed_on(*scheduler, make_task()), expected)
          << policy << ": first " << first << ", follow-up CPU worker " << cpu;
    }
  }
}

TEST_F(BookedClocks, AReplayWithoutAnEstimateCommitsItsCost) {
  // A replayed task the models know no time for has no finite estimate on
  // its worker, but its commit takes the cost model's seconds, which are:
  // it holds core 0 and the combined worker for 2 s, not forever. A
  // follow-up task that takes 1 s on the combined worker and 5 s on the
  // GPU then still goes to the combined worker.
  DispatchTable table;
  table.finalize();
  env_.dispatch = &table;
  env_.cost = [](const Task&, WorkerId) { return 2.0; };
  auto lookahead = make_scheduler("lookahead", env_);
  const TaskPtr replayed = make_task();
  replayed->has_dispatch_keys = true;
  replayed->replay_arch = static_cast<int>(Arch::kCpu);
  exec_ = {kInf, kInf, kInf, kInf};
  EXPECT_EQ(placed_on(*lookahead, replayed), 0);
  EXPECT_EQ(replayed->vend, 2.0);
  exec_ = {kInf, kInf, 1.0, 5.0};
  EXPECT_EQ(placed_on(*lookahead, make_task()), 2);
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
  Plan::Hops hops;
  plan.commit(read_on(device), device, 1e-3, &hops);
  double fetch = 0.0;
  for (const Plan::Hop& hop : hops) fetch += hop.end - hop.start;
  EXPECT_DOUBLE_EQ(fetch, data.interconnect().fetch_seconds(
                              kHostNode, device_node, bytes, 1.0));
  EXPECT_NE(plan.states(datum)[static_cast<std::size_t>(host1)],
            ReplicaState::kInvalid);
  EXPECT_EQ(plan.price(read_on(core), core).fetch, 0.0);

  // The real fetch leaves the same copy behind.
  handle->acquire(device_node, AccessMode::kRead);
  handle->release(device_node);
  for (int n = 0; n < data.node_count(); ++n) {
    EXPECT_EQ(handle->replica_state(n),
              plan.states(datum)[static_cast<std::size_t>(n)])
        << "node " << n;
  }
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

  // A gate both tasks read: it commits first (they depend on it), and the
  // two tasks then fill a window of two.
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

TEST(LookaheadPlanCost, TheEngineRunsTheWindowsCommitsInAnyKernelOrder) {
  // Figure 5's shape on two cores: a core chunk A, a combined-CPU chunk C
  // and a core chunk B become ready together, in that order, and the
  // window commits them so: C after A (it needs both cores), B after C.
  // The kernels are gated to run in another order — B starts before A
  // ends and C runs last — and the engine's virtual makespan is still the
  // windows' plan, as every task carries its commit.
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  config.scheduler = "lookahead";
  config.window_size = 3;
  config.use_history_models = false;
  config.enable_prefetch = false;
  config.enable_trace = true;
  Engine engine(config);  // workers: cores 0 and 1, combined 2
  ASSERT_TRUE(engine.workers()[2].is_combined_cpu);

  const auto await = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  std::atomic<bool> open{false}, b_started{false}, a_done{false};
  const auto flops = [](double count) {
    return [count](const std::vector<std::size_t>&, const void*) {
      return sim::KernelCost{count, 0.0, 1.0};
    };
  };
  Codelet gate("gate");
  gate.add_impl({Arch::kCpu, "gate_cpu", [&](ExecContext&) { await(open); },
                 flops(0.0)});
  Codelet chunk_a("chunk_a");
  chunk_a.add_impl({Arch::kCpu, "chunk_a_cpu",
                    [&](ExecContext&) {
                      await(b_started);
                      a_done.store(true);
                    },
                    flops(4e6)});
  Codelet chunk_b("chunk_b");
  chunk_b.add_impl({Arch::kCpu, "chunk_b_cpu",
                    [&](ExecContext&) { b_started.store(true); },
                    flops(3e6)});
  Codelet chunk_c("chunk_c");
  chunk_c.add_impl({Arch::kCpuOmp, "chunk_c_openmp",
                    [&](ExecContext&) { await(a_done); }, flops(8e6)});

  std::vector<float> buffer(16, 0.0f);
  const DataHandlePtr handle = engine.register_buffer(
      buffer.data(), buffer.size() * sizeof(float), sizeof(float));
  TaskSpec opener;
  opener.codelet = &gate;
  opener.operands = {{handle, AccessMode::kWrite}};
  engine.submit(std::move(opener));
  std::vector<TaskPtr> chunks;
  for (const auto& [codelet, worker] : {std::pair{&chunk_a, 0},
                                        std::pair{&chunk_c, 2},
                                        std::pair{&chunk_b, 1}}) {
    TaskSpec spec;
    spec.codelet = codelet;
    spec.operands = {{handle, AccessMode::kRead}};
    spec.forced_worker = worker;
    chunks.push_back(engine.submit(std::move(spec)));
  }
  open.store(true);
  engine.wait_for_all();

  const TaskPtr& a = chunks[0];
  const TaskPtr& c = chunks[1];
  const TaskPtr& b = chunks[2];
  EXPECT_EQ(c->vstart, a->vend);
  EXPECT_EQ(b->vstart, c->vend);
  EXPECT_EQ(engine.virtual_makespan(), b->vend);
  double planned = 0.0;
  for (const WindowRecord& window : engine.trace().windows()) {
    planned = std::max(planned, window.estimate);
  }
  EXPECT_EQ(engine.virtual_makespan(), planned);
}

}  // namespace
}  // namespace peppher::rt
