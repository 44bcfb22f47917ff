#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "apps/ode.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "apps/suite.hpp"
#include "support/fs.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace apps = peppher::apps;
using M = rt::AccessMode;

namespace {

/// |a - b|_inf <= rel_tol * max(1, |b|_inf).
bool close_to(const std::vector<float>& a, const std::vector<float>& b,
              double rel_tol) {
  if (a.size() != b.size()) return false;
  double scale = 1.0, worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    scale = std::max(scale, std::fabs(static_cast<double>(b[i])));
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return worst <= rel_tol * scale;
}

/// Closed-loop session plan: `sessions` engine lifetimes share the run's
/// time evenly; in a traced run every second session records spans, the
/// others give the untraced baseline for trace.overhead_ratio.
struct Plan {
  Clock::time_point start = Clock::now();
  double seconds = 0.0;
  int sessions = 1;

  Clock::time_point session_end(int i) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds * (i + 1) / sessions));
  }
};

double total(const Harness& h, const char* series) {
  double sum = 0.0;
  for (double v : h.series(series)) sum += v;
  return sum;
}

/// Every session composed exactly the components its header declares.
void guard_components(Harness& h, const std::string& workload, double expected) {
  bool ok = !h.series("compose.components").empty();
  for (double v : h.series("compose.components")) ok = ok && v == expected;
  h.guard(workload + ".composes_all_components", ok);
}

bool traced_session(const Harness& harness, int i) {
  return harness.options().trace && i % 2 == 1;
}

/// Engine sessions of the ode_chain and spmv_hybrid runs; each gives one
/// set-up sample, so there are enough for a steady setup_s median.
constexpr int kSessions = 40;

rt::EngineConfig c2050_dmda() {
  rt::EngineConfig config;
  config.machine = peppher::sim::MachineConfig::platform_c2050();
  config.scheduler = "dmda";
  return config;
}

// ---------------------------------------------------------------------------
// ode_chain
// ---------------------------------------------------------------------------

constexpr std::uint32_t kOdeN = 64;
constexpr std::uint64_t kOdeTasks = 2 + 9 * apps::ode::kPaperSteps;  // 10613
constexpr double kOdeTolerance = 1e-5;

std::shared_ptr<const void> ode_args(std::uint32_t n, float h, float c1 = 0,
                                     float c2 = 0, float c3 = 0, float c4 = 0) {
  auto args = std::make_shared<apps::ode::OdeVecArgs>();
  args->n = n;
  args->h = h;
  args->c1 = c1;
  args->c2 = c2;
  args->c3 = c3;
  args->c4 = c4;
  return std::shared_ptr<const void>(args, args.get());
}

/// One RK4 integration through the generated-wrapper path: every component
/// call is a core::invoke_async by name, dependencies are inferred from the
/// operands. Mirrors apps::ode::run_tool (2 + 9 * steps invocations).
bool ode_tool_solve(Harness& h, const apps::ode::Problem& p,
                    const std::vector<float>& reference) {
  const std::uint32_t n = p.n;
  const float dt = p.h;
  std::vector<float> y(n), k1(n), k2(n), k3(n), k4(n), t(n);
  float err = 0.0f;
  h.reset_unit();
  auto reg = [&h](std::vector<float>& v) {
    return h.register_buffer(v.data(), v.size() * sizeof(float), sizeof(float));
  };
  const auto J = h.register_buffer(const_cast<float*>(p.jacobian.data()),
                                   p.jacobian.size() * sizeof(float), sizeof(float));
  const auto hy = reg(y), hk1 = reg(k1), hk2 = reg(k2), hk3 = reg(k3),
             hk4 = reg(k4), ht = reg(t);
  const auto herr = h.register_buffer(&err, sizeof(float), sizeof(float));

  h.invoke("ode_init", {{ht, M::kWrite}}, ode_args(n, dt));
  h.invoke("ode_copy", {{ht, M::kRead}, {hy, M::kWrite}}, ode_args(n, dt));
  for (int s = 0; s < p.steps; ++s) {
    h.invoke("ode_rhs", {{J, M::kRead}, {hy, M::kRead}, {hk1, M::kWrite}},
             ode_args(n, dt));
    h.invoke("ode_stage2", {{hy, M::kRead}, {hk1, M::kRead}, {ht, M::kWrite}},
             ode_args(n, dt, 0.5f));
    h.invoke("ode_rhs", {{J, M::kRead}, {ht, M::kRead}, {hk2, M::kWrite}},
             ode_args(n, dt));
    h.invoke("ode_stage3",
             {{hy, M::kRead}, {hk1, M::kRead}, {hk2, M::kRead}, {ht, M::kWrite}},
             ode_args(n, dt, 0.0f, 0.5f));
    h.invoke("ode_rhs", {{J, M::kRead}, {ht, M::kRead}, {hk3, M::kWrite}},
             ode_args(n, dt));
    h.invoke("ode_stage4",
             {{hy, M::kRead}, {hk1, M::kRead}, {hk2, M::kRead}, {hk3, M::kRead},
              {ht, M::kWrite}},
             ode_args(n, dt, 0.0f, 0.0f, 1.0f));
    h.invoke("ode_rhs", {{J, M::kRead}, {ht, M::kRead}, {hk4, M::kWrite}},
             ode_args(n, dt));
    h.invoke("ode_combine",
             {{hy, M::kReadWrite}, {hk1, M::kRead}, {hk2, M::kRead},
              {hk3, M::kRead}, {hk4, M::kRead}},
             ode_args(n, dt, 1.f / 6, 1.f / 3, 1.f / 3, 1.f / 6));
    h.invoke("ode_error",
             {{hk1, M::kRead}, {hk2, M::kRead}, {hk3, M::kRead}, {hk4, M::kRead},
              {herr, M::kWrite}},
             ode_args(n, dt, 1.f / 6 - 1, 1.f / 3, 1.f / 3, 1.f / 6));
  }
  h.acquire_host(hy);
  h.acquire_host(herr);
  h.wait_for_all();
  h.end_unit();
  for (const auto& handle : {J, hy, hk1, hk2, hk3, hk4, ht, herr}) h.unregister(handle);
  Spans::Scope span(h.spans(), "check");
  return h.check(close_to(y, reference, kOdeTolerance), "ode_chain: final state");
}

// ---------------------------------------------------------------------------
// spmv_hybrid
// ---------------------------------------------------------------------------

constexpr int kSpmvChunks = 12;
constexpr double kSpmvScale = 1.0;
constexpr double kSpmvTolerance = 1e-5;
constexpr std::uint64_t kSpmvMatrixSeed = 7;

/// One nnz-balanced row block of a matrix, with its rebased row pointers
/// (input generation, outside all timing).
struct Chunk {
  std::uint32_t r0 = 0, r1 = 0, k0 = 0;
  std::size_t nnz = 0;
  std::vector<std::uint32_t> rowptr;
};

struct SpmvInput {
  std::string name;
  apps::spmv::Problem problem;
  std::vector<Chunk> chunks;
  std::vector<float> reference;
  float regularity = 0.5f;
};

/// The row split of apps::spmv::run_hybrid.
std::vector<Chunk> split_rows(const apps::sparse::CsrMatrix& A, int chunks) {
  const std::size_t per_chunk = (A.nnz() + chunks - 1) / chunks;
  std::vector<std::uint32_t> bounds{0};
  std::size_t next_target = per_chunk;
  for (std::uint32_t r = 0; r < A.nrows; ++r) {
    if (A.rowptr[r + 1] >= next_target &&
        bounds.size() < static_cast<std::size_t>(chunks)) {
      bounds.push_back(r + 1);
      next_target += per_chunk;
    }
  }
  bounds.push_back(A.nrows);
  std::vector<Chunk> out;
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    if (bounds[c] == bounds[c + 1]) continue;
    Chunk chunk;
    chunk.r0 = bounds[c];
    chunk.r1 = bounds[c + 1];
    chunk.k0 = A.rowptr[chunk.r0];
    chunk.nnz = std::max<std::size_t>(1, A.rowptr[chunk.r1] - chunk.k0);
    for (std::uint32_t r = chunk.r0; r <= chunk.r1; ++r) {
      chunk.rowptr.push_back(A.rowptr[r] - chunk.k0);
    }
    out.push_back(std::move(chunk));
  }
  return out;
}

/// One hybrid product of one matrix: fresh registration, x warmed on every
/// accelerator, one spmv call per chunk, y acquired chunk by chunk.
bool spmv_unit(Harness& h, const SpmvInput& in, int accelerators) {
  const auto& A = in.problem.A;
  std::vector<float> y(A.nrows, 0.0f);
  h.reset_unit();
  const auto hx = h.register_buffer(const_cast<float*>(in.problem.x.data()),
                                    in.problem.x.size() * sizeof(float),
                                    sizeof(float));
  for (int a = 0; a < accelerators; ++a) {
    h.prefetch(hx, static_cast<rt::MemoryNodeId>(1 + a));
  }
  std::vector<rt::DataHandlePtr> y_handles, handles{hx};
  for (const Chunk& c : in.chunks) {
    const auto hv = h.register_buffer(const_cast<float*>(A.values.data() + c.k0),
                                      c.nnz * sizeof(float), sizeof(float));
    const auto hc = h.register_buffer(
        const_cast<std::uint32_t*>(A.colidx.data() + c.k0),
        c.nnz * sizeof(std::uint32_t), sizeof(std::uint32_t));
    const auto hr = h.register_buffer(const_cast<std::uint32_t*>(c.rowptr.data()),
                                      c.rowptr.size() * sizeof(std::uint32_t),
                                      sizeof(std::uint32_t));
    const auto hy = h.register_buffer(y.data() + c.r0, (c.r1 - c.r0) * sizeof(float),
                                      sizeof(float));
    y_handles.push_back(hy);
    handles.insert(handles.end(), {hv, hc, hr, hy});
    auto args = std::make_shared<apps::spmv::SpmvArgs>();
    args->nrows = c.r1 - c.r0;
    args->regularity = in.regularity;
    h.invoke("spmv",
             {{hv, M::kRead}, {hc, M::kRead}, {hr, M::kRead}, {hx, M::kRead},
              {hy, M::kWrite}},
             std::shared_ptr<const void>(args, args.get()));
  }
  for (const auto& hy : y_handles) h.acquire_host(hy);
  h.wait_for_all();
  h.end_unit();
  for (const auto& handle : handles) h.unregister(handle);
  Spans::Scope span(h.spans(), "check");
  return h.check(close_to(y, in.reference, kSpmvTolerance), "spmv_hybrid: " + in.name);
}

// ---------------------------------------------------------------------------
// suite_sessions
// ---------------------------------------------------------------------------

constexpr double kSuiteTolerance = 1e-3;
/// Solves (passes over the nine apps) per engine session.
constexpr int kSuitePasses = 2;
/// The cold session plus the sessions that bring the sampling dir to its
/// steady state before any sample is taken.
constexpr int kSuiteUnrecordedSessions = 3;
/// Recorded sessions run even when --seconds is shorter.
constexpr int kSuiteMinSessions = 4;

struct ModelFile {
  std::filesystem::file_time_type mtime;
  std::size_t content_hash = 0;
};

std::map<std::string, ModelFile> snapshot_models(const std::filesystem::path& dir) {
  std::map<std::string, ModelFile> out;
  if (!std::filesystem::exists(dir)) return out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".model") continue;
    out[entry.path().filename().string()] =
        ModelFile{entry.last_write_time(),
                  std::hash<std::string>{}(peppher::fs::read_file(entry.path()))};
  }
  return out;
}

}  // namespace

Info run_ode_chain(Harness& h) {
  const Options& opt = h.options();
  apps::ode::register_components();
  const apps::ode::Problem problem =
      apps::ode::make_problem(kOdeN, apps::ode::kPaperSteps, opt.seed);
  const std::vector<float> reference = apps::ode::reference(problem);
  const auto machine = peppher::sim::MachineConfig::platform_c2050();

  rt::EngineConfig config = c2050_dmda();
  config.use_history_models = true;  // in-memory models, no sampling dir

  Plan plan;
  plan.seconds = opt.seconds;
  plan.sessions = kSessions;
  bool all_tasks = true, all_executed = true;
  std::optional<std::vector<float>> direct_first;
  for (int i = 0; i < plan.sessions; ++i) {
    h.begin_session(traced_session(h, i), "ode_chain.h", config);
    // The warm-up solve calibrates the history models (1179 steps give
    // every variant its samples).
    h.solve(false, [&] { return ode_tool_solve(h, problem, reference); });
    int solves = 0;
    while (solves < 1 || Clock::now() < plan.session_end(i)) {
      h.solve(true, [&] { return ode_tool_solve(h, problem, reference); });
      all_tasks = all_tasks && h.last_solve_tasks() == kOdeTasks;
      std::uint64_t executed = 0;
      for (std::uint64_t n : h.last_solve_arch_tasks()) executed += n;
      all_executed = all_executed && executed == kOdeTasks;
      ++solves;
      // run_direct's stage-4 coefficients differ from apps::ode::reference
      // (it carries stage 3's c2 over), so the baseline is checked for
      // finite, repeatable output instead of against the reference.
      const Clock::time_point start = Clock::now();
      const auto direct = apps::ode::run_direct(problem, rt::Arch::kCpu, machine);
      h.sample("apps.direct_solve_s", seconds_since(start));
      if (!direct_first) direct_first = direct.y;
      bool finite = true;
      for (float v : direct.y) finite = finite && std::isfinite(v);
      h.guard("ode_chain.direct_solve_repeatable",
              finite && direct.y == *direct_first);
    }
    h.sample("perfmodel.models", static_cast<double>(h.engine().perf().list().size()));
    h.end_session();
  }
  guard_components(h, "ode_chain", 9);
  h.guard("ode_chain.tasks_per_solve_is_10613", all_tasks);
  h.guard("ode_chain.every_task_executed", all_executed);
  if (opt.trace) {
    // Calibration belongs to the warm-up: measured solves place by model.
    const double decisions = total(h, "scheduler.decisions");
    h.guard("ode_chain.calibrated_in_warmup",
            decisions > 0.0 && total(h, "scheduler.explored") <= 0.01 * decisions);
  }
  const std::string no_dir = "no sampling dir: models stay in memory (layer bypassed)";
  for (const char* m : {"perfmodel.load_s", "perfmodel.save_s",
                        "perfmodel.files_rewritten", "perfmodel.save_useful_ratio"}) {
    h.note(m, no_dir);
  }
  h.note("self_s.runtime.prefetch", "no explicit prefetch on this workload");
  h.note("self_s.apps.suite_run", "suite workload only");
  return {{"n", kOdeN}, {"steps", apps::ode::kPaperSteps}};
}

Info run_spmv_hybrid(Harness& h) {
  const Options& opt = h.options();
  apps::spmv::register_components();
  std::vector<SpmvInput> inputs;
  peppher::Rng x_rng(opt.seed);
  double nnz = 0.0;
  const auto& table = apps::sparse::uf_matrix_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    SpmvInput in;
    in.name = table[i].short_name;
    // The matrices are fixed stand-ins for the UF collection, as in Figure 5
    // (bench_fig5's generator seed); the seed draws the vectors x.
    in.problem = apps::spmv::make_problem(table[i].matrix_class, kSpmvScale,
                                          kSpmvMatrixSeed);
    for (float& v : in.problem.x) v = static_cast<float>(x_rng.uniform(-1.0, 1.0));
    in.chunks = split_rows(in.problem.A, kSpmvChunks);
    in.reference = apps::spmv::reference(in.problem);
    in.regularity = in.problem.regularity();
    nnz += static_cast<double>(in.problem.A.nnz());
    inputs.push_back(std::move(in));
  }

  rt::EngineConfig config = c2050_dmda();
  config.use_history_models = false;  // transfer-aware cost-hint estimates
  config.enable_prefetch = true;
  const int accelerators = static_cast<int>(config.machine.accelerators.size());

  Plan plan;
  plan.seconds = opt.seconds;
  plan.sessions = kSessions;
  auto one_solve = [&] {
    bool ok = true;
    for (const SpmvInput& in : inputs) ok = spmv_unit(h, in, accelerators) && ok;
    return ok;
  };
  for (int i = 0; i < plan.sessions; ++i) {
    h.begin_session(traced_session(h, i), "spmv_hybrid.h", config);
    h.solve(false, one_solve);
    int solves = 0;
    while (solves < 1 || Clock::now() < plan.session_end(i)) {
      h.solve(true, one_solve);
      ++solves;
    }
    h.sample("perfmodel.models", static_cast<double>(h.engine().perf().list().size()));
    h.end_session();
  }
  guard_components(h, "spmv_hybrid", 1);
  h.guard("spmv_hybrid.chunks_on_cpu",
          total(h, "runtime.arch_tasks.cpu") + total(h, "runtime.arch_tasks.cpu_omp") > 0);
  h.guard("spmv_hybrid.chunks_on_cuda", total(h, "runtime.arch_tasks.cuda") > 0);
  h.guard("spmv_hybrid.moves_h2d_bytes", total(h, "memory.h2d_bytes") > 0);
  h.guard("spmv_hybrid.enqueues_prefetches", total(h, "memory.prefetch_enqueued") > 0);
  const std::string no_dir = "no sampling dir: cost-hint estimates (layer bypassed)";
  for (const char* m : {"perfmodel.load_s", "perfmodel.save_s",
                        "perfmodel.files_rewritten", "perfmodel.save_useful_ratio"}) {
    h.note(m, no_dir);
  }
  h.note("apps.direct_solve_s", "ode_chain only");
  h.note("task_overhead_us", "ode_chain only (needs the runtime-free solve)");
  h.note("self_s.apps.suite_run", "suite workload only");
  return {{"matrices", static_cast<double>(inputs.size())},
          {"chunks", kSpmvChunks},
          {"nnz", nnz}};
}

Info run_suite_sessions(Harness& h) {
  const Options& opt = h.options();
  const auto& suite = apps::figure6_suite();

  // Forced-CPU checksums of every (app, size): the reference each
  // performance-aware run is checked against (input generation, untimed).
  std::map<std::pair<std::string, int>, double> reference;
  {
    rt::EngineConfig config = c2050_dmda();
    config.use_history_models = false;
    rt::Engine engine(config);
    for (const apps::SuiteApp& app : suite) {
      for (int size : app.sizes) {
        reference[{app.name, size}] = app.run(engine, size, rt::Arch::kCpu).checksum;
      }
    }
  }

  const std::filesystem::path sampling = opt.work_dir / "sampling";
  std::filesystem::remove_all(sampling);
  std::filesystem::create_directories(sampling);
  rt::EngineConfig config = c2050_dmda();
  config.use_history_models = true;
  config.calibration_samples = 1;
  config.sampling_dir = sampling;

  peppher::Rng order_rng(opt.seed);
  auto one_pass = [&](const std::vector<const apps::SuiteApp*>& order) {
    bool ok = true;
    for (const apps::SuiteApp* app : order) {
      for (int size : app->sizes) {
        apps::SuiteRunResult r;
        {
          Spans::Scope span(h.spans(), "apps.suite_run");
          r = app->run(h.engine(), size, std::nullopt);
        }
        h.end_unit();
        Spans::Scope span(h.spans(), "check");
        const double want = reference.at({app->name, size});
        const double scale = std::max({1.0, std::fabs(want), std::fabs(r.checksum)});
        ok = h.check(std::fabs(r.checksum - want) <= kSuiteTolerance * scale,
                     "suite_sessions: " + app->name + " @ " + std::to_string(size)) &&
             ok;
      }
    }
    return ok;
  };
  // Each session runs the nine apps in an order drawn from the seed.
  auto draw_order = [&] {
    std::vector<const apps::SuiteApp*> order;
    for (const apps::SuiteApp& app : suite) order.push_back(&app);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    }
    return order;
  };

  // The cold session calibrates every variant and writes the models; it
  // and the next unrecorded sessions belong to set-up. The first saves
  // create the files (cheap), the next ones rewrite them while their blocks
  // reach the disk; only after that does every save cost about the same.
  // Set-up is sampled once per recorded session: an engine with a sampling
  // dir rewrites its models on destruction, so set-up-only rounds would
  // cost seconds each here.
  const Clock::time_point cold_start = Clock::now();
  for (int i = 0; i < kSuiteUnrecordedSessions; ++i) {
    h.begin_session(false, "suite_sessions.h", config, /*recorded=*/false);
    h.solve(false, [&] { return one_pass(draw_order()); });
    h.end_session();
  }
  const double cold_s = seconds_since(cold_start);

  // Recorded sessions fill --seconds: one more starts only while the
  // longest one so far would still end in time.
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  Clock::duration longest{};
  int sessions = 0;
  bool rewrites = true;
  for (; sessions < kSuiteMinSessions || Clock::now() + longest < end; ++sessions) {
    const Clock::time_point session_start = Clock::now();
    const bool traced = traced_session(h, sessions);
    const auto before = snapshot_models(sampling);
    h.begin_session(traced, "suite_sessions.h", config);
    for (int pass = 0; pass < kSuitePasses; ++pass) {
      h.solve(true, [&] { return one_pass(draw_order()); });
    }
    h.end_session();
    const auto after = snapshot_models(sampling);
    double rewritten = 0.0, changed = 0.0;
    for (const auto& [name, file] : after) {
      const auto old = before.find(name);
      if (old == before.end() || old->second.mtime != file.mtime) ++rewritten;
      if (old == before.end() || old->second.content_hash != file.content_hash) ++changed;
    }
    rewrites = rewrites && rewritten >= 1;
    longest = std::max(longest, Clock::now() - session_start);
    h.sample("perfmodel.files_rewritten", rewritten);
    h.sample("perfmodel.files_changed", changed);
    h.sample("perfmodel.models", static_cast<double>(after.size()));
    if (traced) {
      // PerfRegistry::load / save on the session dir itself, from the same
      // flushed state the engine's own save starts from: the same bytes are
      // written back, and the timing keeps the cost of truncating files
      // whose blocks are on disk (a fresh copy would not have them yet).
      h.flush_filesystem();
      rt::PerfRegistry registry;
      Clock::time_point start = Clock::now();
      registry.load(sampling);
      h.sample("perfmodel.load_s", seconds_since(start));
      start = Clock::now();
      registry.save(sampling);
      h.sample("perfmodel.save_s", seconds_since(start));
    }
  }
  guard_components(h, "suite_sessions", 17);
  h.guard("suite_sessions.rewrites_models_each_session", rewrites);
  h.guard("suite_sessions.runs_on_cpu", total(h, "runtime.arch_tasks.cpu") > 0);
  h.guard("suite_sessions.runs_on_cpu_omp", total(h, "runtime.arch_tasks.cpu_omp") > 0);
  h.guard("suite_sessions.runs_on_cuda", total(h, "runtime.arch_tasks.cuda") > 0);
  h.note("core.invoke_us.p50", "the apps submit inside apps::*; not visible from outside");
  h.note("core.invoke_us.p99", "the apps submit inside apps::*; not visible from outside");
  h.note("containers.acquire_host_us", "the apps acquire inside apps::*");
  h.note("runtime.wait_s", "the apps wait inside apps::*");
  h.note("apps.direct_solve_s", "ode_chain only");
  h.note("task_overhead_us", "ode_chain only (needs the runtime-free solve)");
  h.note("self_s.runtime.register", "the apps register inside apps::*");
  h.note("self_s.core.invoke", "the apps submit inside apps::*");
  h.note("self_s.runtime.prefetch", "the apps prefetch inside apps::*");
  h.note("self_s.runtime.reset", "the apps reset inside apps::*");
  h.note("self_s.containers.acquire_host", "the apps acquire inside apps::*");
  h.note("self_s.runtime.wait", "the apps wait inside apps::*");
  h.note("self_s.runtime.unregister", "the apps release data inside apps::*");
  return {{"sessions", static_cast<double>(sessions)}, {"unrecorded_sessions_s", cold_s}};
}

}  // namespace perfbench
