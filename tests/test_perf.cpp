// Tests of the full-runtime tracing path and the peppher-perf analyses:
//
//  - a golden chrome://tracing export pinned byte-for-byte (like the SARIF
//    golden), so format drift is a visible diff;
//  - a differential harness: for every scheduler, on one host and on a
//    two-node cluster, with and without faults, totals derived purely from
//    the trace must EXACTLY equal the counters behind the engine's stats
//    accessors — one recorder call feeds both, so they never diverge;
//  - summary() reporting one interval, the one since the last reset;
//  - round-trip of the machine-readable schema through the src/perf
//    parser, record for record;
//  - the PF0xx analyses, both end-to-end (a deliberately mis-sized
//    machine must yield a device-imbalance diagnosis naming the hot
//    program point) and unit-level on hand-built traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "apps/ode.hpp"
#include "apps/spmv.hpp"
#include "perf/analyze.hpp"
#include "perf/trace.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"

namespace peppher {
namespace {

using rt::AccessMode;
using rt::Arch;
using rt::Codelet;
using rt::DataHandlePtr;
using rt::Engine;
using rt::EngineConfig;
using rt::TaskSpec;
using rt::WorkerId;

Codelet make_chain_codelet() {
  Codelet codelet("chain_add");
  const auto body = [](rt::ExecContext& ctx) {
    auto* data = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) data[i] += 1.0f;
  };
  const auto cost = [](const std::vector<std::size_t>&, const void*) {
    return sim::KernelCost{5e7, 1e5, 1.0};
  };
  codelet.add_impl({Arch::kCpu, "chain_cpu", body, cost});
  codelet.add_impl({Arch::kCpuOmp, "chain_omp", body, cost});
  codelet.add_impl({Arch::kCuda, "chain_cuda", body, cost});
  return codelet;
}

/// Submits `chains` x `length` dependent RW chains (the chaos-test shape:
/// dependencies within a chain, parallelism across chains).
void run_chains(Engine& engine, Codelet& codelet, int chains, int length) {
  std::vector<std::vector<float>> buffers(chains, std::vector<float>(64, 0.f));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
  }
  for (int step = 0; step < length; ++step) {
    for (int chain = 0; chain < chains; ++chain) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handles[chain], AccessMode::kReadWrite}};
      spec.name = "c" + std::to_string(chain) + "s" + std::to_string(step);
      engine.submit(std::move(spec));
    }
  }
  engine.wait_for_all();
  engine.drain_prefetches();
}

// ---------------------------------------------------------------------------
// Golden chrome://tracing export
// ---------------------------------------------------------------------------
//
// A single-eligible-worker configuration (forced CUDA, no prefetcher, no
// history models) makes the whole run — placements, virtual times, lane
// sequences — a pure function of the inputs, so the export is pinned
// byte-for-byte. Regenerate with PEPPHER_REGENERATE_GOLDEN=1 after an
// intentional format change.
TEST(TraceGolden, ChromeExportIsPinned) {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.scheduler = "eager";
  config.enable_trace = true;
  config.enable_prefetch = false;
  config.use_history_models = false;

  apps::ode::register_components();
  Engine engine(config);
  const apps::ode::Problem problem = apps::ode::make_problem(32, 3);
  apps::ode::run_tool(engine, problem, Arch::kCuda);

  const std::string json = engine.trace().to_chrome_json();
  const std::filesystem::path golden =
      std::filesystem::path(PEPPHER_SOURCE_ROOT) / "tests" / "golden" /
      "trace.json";
  if (std::getenv("PEPPHER_REGENERATE_GOLDEN") != nullptr) {
    fs::write_file(golden, json);
    SUCCEED() << "regenerated " << golden;
    return;
  }
  EXPECT_EQ(json, fs::read_file(golden))
      << "chrome trace export drifted; if intentional, regenerate with "
         "PEPPHER_REGENERATE_GOLDEN=1";
}

/// First accelerator worker on `sim_node` (-1 + failure if none).
WorkerId accelerator_on(const Engine& engine, int sim_node) {
  for (const rt::WorkerDesc& desc : engine.workers()) {
    if (desc.sim_node != sim_node || desc.archs.empty()) continue;
    if (desc.archs.front() == Arch::kCuda ||
        desc.archs.front() == Arch::kOpenCl) {
      return desc.id;
    }
  }
  ADD_FAILURE() << "no accelerator on sim node " << sim_node;
  return -1;
}

// A two-node cluster run, forced onto the remote accelerator so every
// placement and hop is deterministic. Inter-node hops must render as "n2n"
// rows while the single-host golden above keeps its historical d2h/h2d
// labels (from_node == to_node there).
TEST(TraceGolden, ClusterChromeExportIsPinned) {
  EngineConfig config;
  config.cluster =
      sim::ClusterConfig::uniform(2, sim::MachineConfig::platform_c2050());
  config.scheduler = "eager";
  config.enable_trace = true;
  config.enable_prefetch = false;
  config.use_history_models = false;
  Engine engine(config);

  Codelet codelet = make_chain_codelet();
  std::vector<float> data(64, 0.f);
  auto handle = engine.register_buffer(
      data.data(), data.size() * sizeof(float), sizeof(float));
  for (int step = 0; step < 3; ++step) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    spec.name = "hop" + std::to_string(step);
    // Ping-pong between the two nodes' accelerators: each step crosses the
    // inter-node link.
    spec.forced_worker = accelerator_on(engine, step % 2);
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  engine.acquire_host(handle, AccessMode::kRead);

  const std::string json = engine.trace().to_chrome_json();
  EXPECT_NE(json.find("\"n2n\""), std::string::npos);
  const std::filesystem::path golden =
      std::filesystem::path(PEPPHER_SOURCE_ROOT) / "tests" / "golden" /
      "trace_cluster.json";
  if (std::getenv("PEPPHER_REGENERATE_GOLDEN") != nullptr) {
    fs::write_file(golden, json);
    SUCCEED() << "regenerated " << golden;
    return;
  }
  EXPECT_EQ(json, fs::read_file(golden))
      << "cluster chrome trace export drifted; if intentional, regenerate "
         "with PEPPHER_REGENERATE_GOLDEN=1";
}

// ---------------------------------------------------------------------------
// Differential harness: trace totals == engine counters, exactly
// ---------------------------------------------------------------------------

/// Re-derives every counter the engine exposes from the trace records and
/// expects exact equality. Call after wait_for_all() and drain_prefetches().
void expect_books_match_trace(Engine& engine, const std::string& scheduler) {
  // Per-worker books: each attempt is recorded under its worker shard's
  // lock, which adds its busy time and energy in record order, so the
  // re-summed doubles must be BITWISE equal — any tolerance would hide a
  // dropped or double-counted record.
  std::map<int, double> busy;
  std::map<int, double> energy;
  std::map<int, std::uint64_t> executed;
  std::map<int, std::uint64_t> failed;
  std::array<std::uint64_t, rt::kArchCount> arch{};
  for (const rt::TaskRecord& r : engine.trace().records()) {
    const double watts =
        engine.workers()[static_cast<std::size_t>(r.worker)].profile.busy_watts;
    busy[r.worker] += r.exec_seconds;
    energy[r.worker] += r.exec_seconds * watts;
    ++(r.failed ? failed : executed)[r.worker];
    if (!r.failed) ++arch[static_cast<std::size_t>(r.arch)];
  }
  double total_energy = 0.0;
  for (const rt::WorkerDesc& desc : engine.workers()) {
    const rt::WorkerStats stats = engine.worker_stats(desc.id);
    EXPECT_EQ(busy[desc.id], stats.busy_vtime) << "worker " << desc.id;
    EXPECT_EQ(energy[desc.id], stats.energy_joules) << "worker " << desc.id;
    EXPECT_EQ(executed[desc.id], stats.tasks_executed) << "worker " << desc.id;
    EXPECT_EQ(failed[desc.id], stats.failed_attempts) << "worker " << desc.id;
    total_energy += energy[desc.id];
  }
  EXPECT_EQ(total_energy, engine.energy_joules());
  EXPECT_EQ(arch, engine.arch_task_counts());
  std::uint64_t failed_records = 0;
  for (const auto& [worker, count] : failed) failed_records += count;
  EXPECT_EQ(failed_records, engine.fault_stats().failed_attempts);

  // Transfers: every DataManager hop emits exactly one record, so counts
  // and bytes re-derived from the trace must equal TransferStats to the
  // last byte. Inter-node hops are the n2n rows.
  rt::TransferStats observed;
  for (const rt::TransferRecord& t : engine.trace().transfers()) {
    if (t.from_node != t.to_node) {
      ++observed.internode_count;
      observed.internode_bytes += t.bytes;
    } else if (engine.topo().is_host(t.from)) {
      ++observed.host_to_device_count;
      observed.host_to_device_bytes += t.bytes;
    } else {
      ++observed.device_to_host_count;
      observed.device_to_host_bytes += t.bytes;
    }
  }
  const rt::TransferStats stats = engine.transfer_stats();
  EXPECT_EQ(observed.host_to_device_count, stats.host_to_device_count);
  EXPECT_EQ(observed.device_to_host_count, stats.device_to_host_count);
  EXPECT_EQ(observed.host_to_device_bytes, stats.host_to_device_bytes);
  EXPECT_EQ(observed.device_to_host_bytes, stats.device_to_host_bytes);
  EXPECT_EQ(observed.internode_count, stats.internode_count);
  EXPECT_EQ(observed.internode_bytes, stats.internode_bytes);

  // Prefetch lifecycle: one enqueued record per queued operand, one
  // completed/skipped record per serviced request.
  std::uint64_t enqueued = 0;
  std::uint64_t completed = 0;
  std::uint64_t skipped = 0;
  for (const rt::PrefetchRecord& p : engine.trace().prefetches()) {
    switch (p.event) {
      case rt::PrefetchEvent::kEnqueued: ++enqueued; break;
      case rt::PrefetchEvent::kCompleted: ++completed; break;
      case rt::PrefetchEvent::kSkipped: ++skipped; break;
    }
  }
  const Engine::PrefetchStats prefetch = engine.prefetch_stats();
  EXPECT_EQ(enqueued, prefetch.enqueued);
  EXPECT_EQ(completed, prefetch.completed);
  EXPECT_EQ(skipped, prefetch.skipped);

  // Scheduler decisions: one record per committed attempt; the chosen
  // worker must exist and dmda's steady-state decisions carry estimates.
  for (const rt::DecisionRecord& d : engine.trace().decisions()) {
    ASSERT_GE(d.chosen, 0);
    ASSERT_LT(d.chosen, static_cast<int>(engine.workers().size()));
    if (scheduler == "dmda" && !d.explored) {
      EXPECT_GE(d.chosen_estimate, 0.0);
    }
  }
  EXPECT_FALSE(engine.trace().decisions().empty());
}

class TraceDifferential : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, TraceDifferential,
                         ::testing::ValuesIn(rt::scheduler_names()),
                         [](const auto& info) { return info.param; });

TEST_P(TraceDifferential, CountersMatchTraceExactly) {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = GetParam();
  config.use_history_models = false;
  config.enable_trace = true;
  Engine engine(config);
  Codelet codelet = make_chain_codelet();
  run_chains(engine, codelet, /*chains=*/6, /*length=*/30);
  expect_books_match_trace(engine, GetParam());
}

TEST_P(TraceDifferential, FaultedCountersMatchTraceExactly) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 0.25;
  plan.seed = 99;

  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = GetParam();
  config.use_history_models = false;
  config.enable_trace = true;
  config.max_retries = 4;
  config.accelerator_faults = {plan};
  Engine engine(config);
  Codelet codelet = make_chain_codelet();
  run_chains(engine, codelet, /*chains=*/6, /*length=*/30);

  // Busy time stays exact under retries too: the failed attempt burned
  // the worker's virtual time and the trace must account for it.
  expect_books_match_trace(engine, GetParam());
  std::uint64_t success_records = 0;
  for (const rt::TaskRecord& r : engine.trace().records()) {
    if (!r.failed) ++success_records;
  }
  EXPECT_EQ(success_records, 6u * 30u);
}

TEST_P(TraceDifferential, ClusterCountersMatchTraceExactly) {
  EngineConfig config;
  sim::MachineConfig node = sim::MachineConfig::platform_c2050();
  node.cpu_cores = 2;
  config.cluster = sim::ClusterConfig::uniform(2, node);
  config.scheduler = GetParam();
  config.use_history_models = false;
  config.enable_trace = true;
  Engine engine(config);
  Codelet codelet = make_chain_codelet();

  // Each chain alternates between the two nodes' accelerators, so every
  // step crosses the inter-node link whatever the policy.
  std::vector<std::vector<float>> buffers(4, std::vector<float>(64, 0.f));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
  }
  for (int step = 0; step < 6; ++step) {
    for (std::size_t chain = 0; chain < handles.size(); ++chain) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handles[chain], AccessMode::kReadWrite}};
      spec.forced_worker =
          accelerator_on(engine, static_cast<int>(chain + step) % 2);
      engine.submit(std::move(spec));
    }
  }
  engine.wait_for_all();
  engine.drain_prefetches();
  for (const DataHandlePtr& handle : handles) {
    engine.acquire_host(handle, AccessMode::kRead);
  }

  EXPECT_GT(engine.transfer_stats().internode_count, 0u);
  expect_books_match_trace(engine, GetParam());
}

// ---------------------------------------------------------------------------
// summary(): one interval, the one since the last reset_virtual_time()
// ---------------------------------------------------------------------------

TEST(EngineBooks, SummaryReportsTheRunSinceTheLastReset) {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  Engine engine(config);
  const apps::spmv::Problem problem = apps::spmv::make_problem(
      apps::sparse::MatrixClass::kStructural, 0.02);
  apps::spmv::RunResult third;
  std::uint64_t first_task_of_third = 0;
  for (int run = 0; run < 3; ++run) {  // each run resets the virtual clocks
    first_task_of_third = engine.tasks_submitted();
    third = apps::spmv::run_hybrid(engine, problem, 8);
  }
  const std::uint64_t third_tasks =
      engine.tasks_submitted() - first_task_of_third;
  const std::string summary = engine.summary();

  EXPECT_NE(summary.find("scheduler 'dmda', " + std::to_string(third_tasks) +
                         " tasks, makespan"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("PCIe: " +
                         std::to_string(third.transfers.host_to_device_count) +
                         " h2d"),
            std::string::npos)
      << summary;

  // Busy time and the makespan cover the same interval: no worker is busy
  // longer than the run.
  const std::regex utilisation(R"(s busy \((\d+)%\))");
  int workers = 0;
  for (auto it = std::sregex_iterator(summary.begin(), summary.end(),
                                      utilisation);
       it != std::sregex_iterator(); ++it) {
    ++workers;
    EXPECT_LE(std::stoi((*it)[1].str()), 100) << summary;
  }
  EXPECT_EQ(workers, static_cast<int>(engine.workers().size()));

  // The per-architecture counts are the third run's tasks too.
  const std::regex per_arch(R"( [a-z]+=(\d+))");
  const std::size_t arch_line = summary.find("tasks by architecture:");
  ASSERT_NE(arch_line, std::string::npos);
  const std::string arch_text =
      summary.substr(arch_line, summary.find('\n', arch_line) - arch_line);
  std::uint64_t by_arch = 0;
  for (auto it = std::sregex_iterator(arch_text.begin(), arch_text.end(),
                                      per_arch);
       it != std::sregex_iterator(); ++it) {
    by_arch += std::stoull((*it)[1].str());
  }
  EXPECT_EQ(by_arch, third_tasks) << summary;
}

// ---------------------------------------------------------------------------
// Machine-readable schema round trip
// ---------------------------------------------------------------------------

TEST(TraceSchema, RoundTripsThroughTheParser) {
  for (const char* scheduler : {"dmda", "lookahead"}) {
    SCOPED_TRACE(scheduler);
    EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.machine.cpu_cores = 2;
    config.scheduler = scheduler;
    config.use_history_models = false;
    config.enable_trace = true;
    Engine engine(config);
    engine.trace_phase("build");
    Codelet codelet = make_chain_codelet();
    run_chains(engine, codelet, /*chains=*/4, /*length=*/10);
    engine.trace_phase("done");

    const perf::Trace trace = perf::parse_trace(engine.trace_json());
    EXPECT_EQ(trace.version, 1);
    EXPECT_EQ(trace.machine, config.machine.name);
    EXPECT_EQ(trace.scheduler, scheduler);
    EXPECT_EQ(trace.makespan, engine.virtual_makespan());
    ASSERT_EQ(trace.workers.size(), engine.workers().size());
    for (std::size_t i = 0; i < trace.workers.size(); ++i) {
      const rt::WorkerDesc& desc = engine.workers()[i];
      EXPECT_EQ(trace.workers[i].id, desc.id);
      EXPECT_EQ(trace.workers[i].name, desc.profile.name);
      EXPECT_EQ(trace.workers[i].arch, rt::to_string(desc.archs.front()));
      EXPECT_EQ(trace.workers[i].node, desc.node);
      EXPECT_EQ(trace.workers[i].sim_node, desc.sim_node);
      EXPECT_EQ(trace.workers[i].combined, desc.is_combined_cpu);
    }

    // Every parsed record equals its in-memory record, field for field
    // (doubles bit for bit: the writer emits 17 significant digits). The
    // document orders tasks by (sequence, attempt) and transfers by
    // (lane, lane order); the other streams keep recording order.
    std::vector<rt::TaskRecord> tasks = engine.trace().records();
    std::sort(tasks.begin(), tasks.end(),
              [](const rt::TaskRecord& a, const rt::TaskRecord& b) {
                return std::pair(a.sequence, a.attempt) <
                       std::pair(b.sequence, b.attempt);
              });
    std::vector<rt::TransferRecord> transfers = engine.trace().transfers();
    std::sort(transfers.begin(), transfers.end(),
              [](const rt::TransferRecord& a, const rt::TransferRecord& b) {
                return std::pair(a.lane, a.lane_sequence) <
                       std::pair(b.lane, b.lane_sequence);
              });
    ASSERT_FALSE(tasks.empty());
    ASSERT_FALSE(transfers.empty());
    EXPECT_TRUE(trace.tasks == tasks);
    EXPECT_TRUE(trace.transfers == transfers);
    EXPECT_TRUE(trace.prefetches == engine.trace().prefetches());
    EXPECT_TRUE(trace.decisions == engine.trace().decisions());
    EXPECT_TRUE(trace.windows == engine.trace().windows());
    EXPECT_TRUE(trace.phases == engine.trace().phases());
    ASSERT_EQ(trace.phases.size(), 2u);
    EXPECT_EQ(trace.phases[1].label, "done");
    if (std::string(scheduler) == "lookahead") {
      EXPECT_FALSE(trace.windows.empty());
    }
  }
}

// Schema v1 additive node fields: workers carry sim_node, transfers carry
// from_node/to_node, and they survive engine.trace_json() -> parse_trace.
TEST(TraceSchema, ClusterRunStampsNodeIds) {
  EngineConfig config;
  config.cluster =
      sim::ClusterConfig::uniform(2, sim::MachineConfig::platform_c2050());
  config.scheduler = "eager";
  config.use_history_models = false;
  config.enable_prefetch = false;
  config.enable_trace = true;
  Engine engine(config);

  Codelet codelet = make_chain_codelet();
  std::vector<float> data(64, 0.f);
  auto handle = engine.register_buffer(
      data.data(), data.size() * sizeof(float), sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.forced_worker = accelerator_on(engine, 1);
  engine.submit(std::move(spec));
  engine.wait_for_all();
  engine.acquire_host(handle, AccessMode::kRead);

  const perf::Trace trace = perf::parse_trace(engine.trace_json());
  ASSERT_EQ(trace.workers.size(), engine.workers().size());
  bool saw_node1_worker = false;
  for (std::size_t i = 0; i < trace.workers.size(); ++i) {
    EXPECT_EQ(trace.workers[i].sim_node, engine.workers()[i].sim_node);
    if (trace.workers[i].sim_node == 1) saw_node1_worker = true;
  }
  EXPECT_TRUE(saw_node1_worker);

  int internode = 0;
  for (const rt::TransferRecord& t : trace.transfers) {
    EXPECT_GE(t.from_node, 0);
    EXPECT_GE(t.to_node, 0);
    if (t.from_node != t.to_node) ++internode;
  }
  // One hop out (host0 -> host1) and one home (host1 -> host0).
  EXPECT_EQ(internode, 2);
  EXPECT_EQ(static_cast<std::uint64_t>(internode),
            engine.transfer_stats().internode_count);
}

TEST(TraceSchema, TracingDisabledRecordsNothing) {
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  Engine engine(config);
  engine.trace_phase("ignored");
  Codelet codelet = make_chain_codelet();
  run_chains(engine, codelet, /*chains=*/2, /*length=*/4);
  EXPECT_EQ(engine.trace().size(), 0u);
  EXPECT_TRUE(engine.trace().transfers().empty());
  EXPECT_TRUE(engine.trace().prefetches().empty());
  EXPECT_TRUE(engine.trace().decisions().empty());
  EXPECT_TRUE(engine.trace().phases().empty());
}

// ---------------------------------------------------------------------------
// End-to-end analysis: the ISSUE's acceptance scenario
// ---------------------------------------------------------------------------
//
// An 8-core host profile fed a serial ODE chain pinned to the CPU: seven
// cores can never get work. The analyzer must call out the imbalance and
// name the dominant program point (the O(n^2) right-hand side).
TEST(PerfAnalysis, MisSizedMachineReportsImbalanceAtTheHotPoint) {
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(8);
  config.scheduler = "dmda";
  config.use_history_models = false;
  config.enable_trace = true;

  apps::ode::register_components();
  Engine engine(config);
  const apps::ode::Problem problem = apps::ode::make_problem(64, 8);
  apps::ode::run_tool(engine, problem, Arch::kCpu);

  const perf::Trace trace = perf::parse_trace(engine.trace_json());
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  const diag::Diagnostic* imbalance = nullptr;
  for (const diag::Diagnostic& d : bag.diagnostics()) {
    if (d.code == "PF001") imbalance = &d;
  }
  ASSERT_NE(imbalance, nullptr) << bag.format_text();
  EXPECT_EQ(imbalance->severity, diag::Severity::kWarning);
  EXPECT_NE(imbalance->message.find("ode_rhs"), std::string::npos)
      << imbalance->message;
}

// ---------------------------------------------------------------------------
// Unit-level analyses on hand-built traces
// ---------------------------------------------------------------------------

perf::Trace balanced_base() {
  perf::Trace trace;
  trace.version = 1;
  trace.machine = "unit";
  trace.scheduler = "dmda";
  trace.makespan = 1.0;
  trace.workers = {{0, "core", "cpu", 0, false},
                   {1, "core", "cpu", 0, false},
                   {2, "gpu", "cuda", 1, false}};
  return trace;
}

rt::TaskRecord unit_task(std::uint64_t sequence, const std::string& name,
                         int worker, double start, double exec,
                         std::vector<std::uint64_t> data = {}) {
  rt::TaskRecord t;
  t.sequence = sequence;
  t.name = name;
  t.impl = name + "_impl";
  t.arch = Arch::kCpu;
  t.worker = worker;
  t.vstart = start;
  t.vend = start + exec;
  t.exec_seconds = exec;
  t.data = std::move(data);
  return t;
}

TEST(PerfAnalysis, BalancedTraceIsClean) {
  perf::Trace trace = balanced_base();
  trace.tasks = {unit_task(0, "a", 0, 0.0, 0.5),
                 unit_task(1, "a", 1, 0.0, 0.5)};
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  EXPECT_TRUE(bag.empty()) << bag.format_text();
}

TEST(PerfAnalysis, TransferBoundPhaseIsReported) {
  perf::Trace trace = balanced_base();
  trace.tasks = {unit_task(0, "a", 0, 0.0, 0.1),
                 unit_task(1, "a", 1, 0.0, 0.1)};
  rt::TransferRecord move;
  move.lane = 0;
  move.lane_sequence = 0;
  move.from = 0;
  move.to = 1;
  move.bytes = 1 << 20;
  move.vstart = 0.0;
  move.vend = 0.9;
  trace.transfers = {move};
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  ASSERT_EQ(bag.diagnostics().size(), 1u) << bag.format_text();
  EXPECT_EQ(bag.diagnostics()[0].code, "PF002");
}

TEST(PerfAnalysis, PrefetchMissesAndStaleSkipsAreReported) {
  perf::Trace trace = balanced_base();
  trace.tasks = {unit_task(0, "a", 0, 0.0, 0.5),
                 unit_task(1, "a", 1, 0.0, 0.5)};
  for (int i = 0; i < 10; ++i) {
    rt::PrefetchRecord enqueue;
    enqueue.event = rt::PrefetchEvent::kEnqueued;
    enqueue.task_sequence = static_cast<std::uint64_t>(i);
    trace.prefetches.push_back(enqueue);
    rt::PrefetchRecord outcome;
    outcome.event = rt::PrefetchEvent::kSkipped;
    outcome.reason = i == 0 ? rt::PrefetchSkipReason::kWriterRace
                            : rt::PrefetchSkipReason::kTransferFailed;
    outcome.task_sequence = static_cast<std::uint64_t>(i);
    trace.prefetches.push_back(outcome);
  }
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  bool saw_misses = false;
  bool saw_stale = false;
  for (const diag::Diagnostic& d : bag.diagnostics()) {
    if (d.code == "PF003") saw_misses = true;
    if (d.code == "PF004") saw_stale = true;
  }
  EXPECT_TRUE(saw_misses) << bag.format_text();
  EXPECT_TRUE(saw_stale) << bag.format_text();
}

TEST(PerfAnalysis, SystematicMispredictionsAreReported) {
  perf::Trace trace = balanced_base();
  for (int i = 0; i < 8; ++i) {
    trace.tasks.push_back(
        unit_task(static_cast<std::uint64_t>(i), "hot", i % 2, 0.1 * i, 0.1));
    rt::DecisionRecord d;
    d.task_sequence = static_cast<std::uint64_t>(i);
    d.chosen = i % 2;
    d.chosen_estimate = trace.tasks.back().vend * 4.0;  // 300% off, > 1ms
    trace.decisions.push_back(d);
  }
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  bool saw = false;
  for (const diag::Diagnostic& d : bag.diagnostics()) {
    if (d.code == "PF005") {
      saw = true;
      EXPECT_NE(d.message.find("hot"), std::string::npos) << d.message;
    }
  }
  EXPECT_TRUE(saw) << bag.format_text();
}

TEST(PerfAnalysis, RuntimePingPongIsReported) {
  perf::Trace trace = balanced_base();
  for (int i = 0; i < 10; ++i) {
    // Datum 7 alternates between a host worker and the device worker.
    trace.tasks.push_back(unit_task(static_cast<std::uint64_t>(i),
                                    i % 2 == 0 ? "produce" : "consume",
                                    i % 2 == 0 ? 0 : 2, 0.05 * i, 0.05, {7}));
  }
  // Keep the CPU class balanced so only the ping-pong fires.
  trace.tasks.push_back(unit_task(100, "other", 1, 0.0, 0.25));
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  bool saw = false;
  for (const diag::Diagnostic& d : bag.diagnostics()) {
    if (d.code == "PF006") {
      saw = true;
      EXPECT_NE(d.message.find("data 7"), std::string::npos) << d.message;
      EXPECT_NE(d.message.find("produce"), std::string::npos) << d.message;
    }
  }
  EXPECT_TRUE(saw) << bag.format_text();
}

// ---------------------------------------------------------------------------
// PF007: node-link-bound phases / lopsided halo exchange
// ---------------------------------------------------------------------------

/// Two one-device nodes: memory layout [host0, dev0, host1, dev1].
perf::Trace cluster_base() {
  perf::Trace trace = balanced_base();
  trace.machine = "2xunit";
  trace.workers = {{0, "core", "cpu", 0, 0, false},
                   {1, "gpu", "cuda", 1, 0, false},
                   {2, "core", "cpu", 2, 1, false},
                   {3, "gpu", "cuda", 3, 1, false}};
  return trace;
}

rt::TransferRecord node_hop(int from_node, int to_node, std::uint64_t bytes,
                            double vstart, double vend) {
  rt::TransferRecord t;
  t.lane = 0;
  t.lane_sequence = 0;
  t.from = from_node == 0 ? 0 : 2;  // hosts move inter-node traffic
  t.to = to_node == 0 ? 0 : 2;
  t.from_node = from_node;
  t.to_node = to_node;
  t.bytes = bytes;
  t.vstart = vstart;
  t.vend = vend;
  return t;
}

std::vector<const diag::Diagnostic*> find_all(const diag::DiagnosticBag& bag,
                                              const std::string& code) {
  std::vector<const diag::Diagnostic*> out;
  for (const diag::Diagnostic& d : bag.diagnostics()) {
    if (d.code == code) out.push_back(&d);
  }
  return out;
}

TEST(PerfAnalysis, NodeLinkBoundPhaseIsReported) {
  perf::Trace trace = cluster_base();
  // 0.8 s of balanced compute vs 0.6 s of inter-node lane busy (>= 50%),
  // spread over four hops — the halo exchange is clearly not hidden.
  trace.tasks = {unit_task(0, "jacobi", 0, 0.0, 0.4),
                 unit_task(1, "jacobi", 2, 0.0, 0.4)};
  trace.transfers = {node_hop(0, 1, 4096, 0.00, 0.15),
                     node_hop(0, 1, 4096, 0.20, 0.35),
                     node_hop(0, 1, 4096, 0.40, 0.55),
                     node_hop(0, 1, 4096, 0.60, 0.75)};
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  const auto hits = find_all(bag, "PF007");
  // Only the phase signal fires: a single directed pair has no imbalance.
  ASSERT_EQ(hits.size(), 1u) << bag.format_text();
  EXPECT_EQ(hits[0]->severity, diag::Severity::kWarning);
  EXPECT_NE(hits[0]->message.find("node-link-bound"), std::string::npos)
      << hits[0]->message;
  EXPECT_NE(hits[0]->message.find("4 hops"), std::string::npos)
      << hits[0]->message;
}

TEST(PerfAnalysis, LopsidedHaloExchangeIsReported) {
  perf::Trace trace = cluster_base();
  trace.tasks = {unit_task(0, "jacobi", 0, 0.0, 0.5),
                 unit_task(1, "jacobi", 2, 0.0, 0.5)};
  // Instantaneous hops keep the lanes idle (no phase signal), but link
  // 0->1 moves 3 MiB while 1->0 moves 4 KiB: the partitioning is lopsided.
  trace.transfers = {node_hop(0, 1, 1 << 20, 0.1, 0.1),
                     node_hop(0, 1, 1 << 20, 0.2, 0.2),
                     node_hop(0, 1, 1 << 20, 0.3, 0.3),
                     node_hop(1, 0, 4096, 0.4, 0.4)};
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  const auto hits = find_all(bag, "PF007");
  ASSERT_EQ(hits.size(), 1u) << bag.format_text();
  EXPECT_NE(hits[0]->message.find("lopsided halo exchange"), std::string::npos)
      << hits[0]->message;
  EXPECT_NE(hits[0]->message.find("0->1"), std::string::npos)
      << hits[0]->message;
  EXPECT_NE(hits[0]->message.find("4096"), std::string::npos)
      << hits[0]->message;
}

TEST(PerfAnalysis, BalancedExchangeStaysQuiet) {
  perf::Trace trace = cluster_base();
  trace.tasks = {unit_task(0, "jacobi", 0, 0.0, 0.5),
                 unit_task(1, "jacobi", 2, 0.0, 0.5)};
  // Symmetric volumes and lanes busy well under half the compute: hidden.
  trace.transfers = {node_hop(0, 1, 4096, 0.00, 0.02),
                     node_hop(1, 0, 4096, 0.10, 0.12),
                     node_hop(0, 1, 4096, 0.20, 0.22),
                     node_hop(1, 0, 4096, 0.30, 0.32)};
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  EXPECT_TRUE(find_all(bag, "PF007").empty()) << bag.format_text();
}

TEST(PerfAnalysis, SingleHostTracesNeverFireNodeLink) {
  perf::Trace trace = balanced_base();
  trace.tasks = {unit_task(0, "a", 0, 0.0, 0.1),
                 unit_task(1, "a", 1, 0.0, 0.1)};
  // Saturated PCIe lanes on one host (from_node == to_node == 0): PF002
  // territory, never PF007.
  for (int i = 0; i < 6; ++i) {
    rt::TransferRecord move;
    move.lane = 0;
    move.lane_sequence = static_cast<std::uint64_t>(i);
    move.from = 0;
    move.to = 1;
    move.bytes = 1 << 20;
    move.vstart = 0.15 * i;
    move.vend = 0.15 * i + 0.14;
    trace.transfers.push_back(move);
  }
  const diag::DiagnosticBag bag = perf::analyze_trace(trace);
  EXPECT_TRUE(find_all(bag, "PF007").empty()) << bag.format_text();
}

}  // namespace
}  // namespace peppher
