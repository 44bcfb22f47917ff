#include "harness.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "setup.hpp"
#include "support/fs.hpp"

namespace perfbench {

namespace {

/// Per-layer self-time series kept for every solve of a traced session.
constexpr const char* kSolveLayers[] = {
    "solve",        "runtime.reset",           "runtime.register",
    "core.invoke",  "runtime.prefetch",        "containers.acquire_host",
    "runtime.wait", "runtime.unregister",      "apps.suite_run",
    "check"};

/// Recorded sessions whose resident-set peaks make peak_rss_mb.
constexpr std::size_t kPeakRssSessions = 4;

/// Set-up stages, in pipeline order, and the metric each feeds.
constexpr const char* kSetupLayers[] = {
    "cdecl.parse",    "compose.skeleton", "descriptor.scan",
    "compose.build_tree", "compose.narrow", "analyze.lint",
    "compose.codegen", "compose.write"};

/// Resets the kernel's resident-set high-water mark (VmHWM) to the current
/// RSS; false where /proc does not allow it.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// VmHWM in MB, or a negative value when unavailable.
double peak_rss_mb_since_reset() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kb = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0.0 ? -1.0 : kb / 1024.0;
}

/// syncfs on the filesystem holding `dir` (sync where it cannot be opened).
void flush_filesystem_of(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    ::sync();
    return;
  }
  ::syncfs(fd);
  ::close(fd);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// The q-quantile by nearest rank (0 when empty).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Harness::Harness(Options options) : options_(std::move(options)) {}

void Harness::begin_session(bool traced, const std::string& header,
                            rt::EngineConfig config, bool recorded) {
  traced_ = traced;
  session_recorded_ = recorded;
  peak_rss_reset_ = reset_peak_rss();
  spans_.set_enabled(traced);
  const std::string header_text =
      peppher::fs::read_file(options_.headers_dir / header);
  if (!compose_dir_.empty()) std::filesystem::remove_all(compose_dir_);
  compose_dir_ = options_.work_dir / ("compose-" + std::to_string(setup_index_++));
  std::filesystem::remove_all(compose_dir_);
  flush_filesystem();

  config.enable_trace = traced;
  spans_.begin_root("setup");
  const Clock::time_point start = Clock::now();
  const ComposeResult composed = compose_components(header_text, compose_dir_, spans_);
  double ctor_s = 0.0;
  {
    Spans::Scope span(spans_, "runtime.engine_ctor");
    core::initialize(std::move(config));
    ctor_s = span.seconds();
  }
  const double setup_s = seconds_since(start);
  const auto totals = spans_.end_root();
  if (!recorded) return;

  sample("runtime.engine_ctor_s", ctor_s);
  sample("compose.files_written", static_cast<double>(composed.files_written));
  sample("compose.components", static_cast<double>(composed.components));
  if (traced) {
    for (const char* layer : kSetupLayers) {
      const auto found = totals.find(layer);
      sample(std::string(layer) + "_s",
             found == totals.end() ? 0.0 : found->second.total_s);
    }
  } else {
    sample("setup_s", setup_s);
  }
}

void Harness::flush_filesystem() { flush_filesystem_of(options_.work_dir); }

void Harness::end_session() {
  const Clock::time_point start = Clock::now();
  core::shutdown();
  const double shutdown_s = seconds_since(start);
  if (session_recorded_) {
    sample("runtime.engine_dtor_s", shutdown_s);
    const double peak = peak_rss_mb_since_reset();
    if (peak_rss_reset_ && peak > 0.0) sample("peak_rss_mb", peak);
  }
  ::malloc_trim(0);
  traced_ = false;
  spans_.set_enabled(false);
}

void Harness::begin_solve(bool recorded) {
  rt::Engine& e = engine();
  solve_ok_ = true;
  solve_sampled_ = recorded && traced_;
  solve_wait_s_ = 0.0;
  solve_vtime_ = 0.0;
  solve_transfers_ = {};
  solve_decisions_ = 0;
  solve_explored_ = 0;
  tasks_before_ = e.tasks_submitted();
  arch_before_ = e.arch_task_counts();
  faults_before_ = e.fault_stats();
  prefetch_before_ = e.prefetch_stats();
  busy_before_.clear();
  for (const rt::WorkerDesc& w : e.workers()) {
    busy_before_.push_back(e.worker_stats(w.id).busy_vtime);
  }
  if (traced_) e.trace().clear();
  spans_.begin_root("solve");
  solve_cpu_start_ = process_cpu_seconds();
  solve_start_ = Clock::now();
}

void Harness::end_solve(bool recorded, bool ok) {
  const double wall_s = seconds_since(solve_start_);
  const double cpu_s = process_cpu_seconds() - solve_cpu_start_;
  const auto totals = spans_.end_root();
  ok = ok && solve_ok_;
  ++attempted_;
  if (!ok) {
    ++failed_;
    try {
      engine().wait_for_all();
    } catch (const std::exception&) {
      // The failure was already counted; only drain here.
    }
  }

  rt::Engine& e = engine();
  const auto arch_after = e.arch_task_counts();
  for (int a = 0; a < rt::kArchCount; ++a) {
    last_arch_tasks_[a] = arch_after[a] - arch_before_[a];
  }
  last_tasks_ = e.tasks_submitted() - tasks_before_;
  if (!recorded || !ok) return;

  sample(traced_ ? "traced.solve_s" : "solve_s", wall_s);
  sample("cpu_s", cpu_s);
  sample("virtual_makespan_s", solve_vtime_);
  sample("runtime.wait_s", solve_wait_s_);
  sample("runtime.tasks_per_solve", static_cast<double>(last_tasks_));
  sample("runtime.arch_tasks.cpu", static_cast<double>(last_arch_tasks_[0]));
  sample("runtime.arch_tasks.cpu_omp", static_cast<double>(last_arch_tasks_[1]));
  sample("runtime.arch_tasks.cuda", static_cast<double>(last_arch_tasks_[2]));

  const rt::FaultStats faults = e.fault_stats();
  sample("runtime.failed_attempts",
         static_cast<double>(faults.failed_attempts - faults_before_.failed_attempts));
  sample("runtime.retries", static_cast<double>(faults.retries - faults_before_.retries));

  sample("memory.h2d_bytes", static_cast<double>(solve_transfers_.host_to_device_bytes));
  sample("memory.d2h_bytes", static_cast<double>(solve_transfers_.device_to_host_bytes));
  sample("memory.h2d_transfers",
         static_cast<double>(solve_transfers_.host_to_device_count));
  sample("memory.coalesced", static_cast<double>(solve_transfers_.coalesced_transfers));
  sample("memory.evictions", static_cast<double>(solve_transfers_.evictions));

  const rt::Engine::PrefetchStats prefetch = e.prefetch_stats();
  sample("memory.prefetch_enqueued",
         static_cast<double>(prefetch.enqueued - prefetch_before_.enqueued));
  sample("memory.prefetch_completed",
         static_cast<double>(prefetch.completed - prefetch_before_.completed));
  sample("memory.prefetch_skipped",
         static_cast<double>(prefetch.skipped - prefetch_before_.skipped));

  // Busy shares of the virtual makespan: per-core CPU workers plus the
  // combined all-cores worker (which occupies every core), and the GPU.
  double cpu_busy = 0.0, cuda_busy = 0.0;
  int cores = 0;
  const auto& workers = e.workers();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const double busy = e.worker_stats(workers[i].id).busy_vtime - busy_before_[i];
    if (workers[i].node != rt::kHostNode) {
      cuda_busy += busy;
    } else if (!workers[i].is_combined_cpu) {
      cpu_busy += busy;
      ++cores;
    }
  }
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (workers[i].is_combined_cpu) {
      cpu_busy += cores * (e.worker_stats(workers[i].id).busy_vtime - busy_before_[i]);
    }
  }
  if (solve_vtime_ > 0.0 && cores > 0) {
    sample("runtime.busy_frac.cpu", cpu_busy / (cores * solve_vtime_));
    sample("runtime.busy_frac.cuda", cuda_busy / solve_vtime_);
  }

  if (traced_) {
    sample("scheduler.decisions", static_cast<double>(solve_decisions_));
    sample("scheduler.explored", static_cast<double>(solve_explored_));
    for (const char* layer : kSolveLayers) {
      const auto found = totals.find(layer);
      sample(std::string("self_s.") + layer,
             found == totals.end() ? 0.0 : found->second.self_s);
    }
    const auto root = totals.find("solve");
    if (root != totals.end()) {
      sample("trace.solve_total_s", root->second.total_s);
      sample("trace.solve_self_s", root->second.self_s);
    }
  }
}

void Harness::note_failure(const std::string& what) {
  solve_ok_ = false;
  std::fprintf(stderr, "perfbench: solve failed: %s\n", what.c_str());
}

void Harness::reset_unit() {
  Spans::Scope span(spans_, "runtime.reset");
  engine().reset_virtual_time();
  engine().reset_transfer_stats();
}

void Harness::end_unit() {
  rt::Engine& e = engine();
  solve_vtime_ += e.virtual_makespan();
  const rt::TransferStats t = e.transfer_stats();
  solve_transfers_.host_to_device_bytes += t.host_to_device_bytes;
  solve_transfers_.device_to_host_bytes += t.device_to_host_bytes;
  solve_transfers_.host_to_device_count += t.host_to_device_count;
  solve_transfers_.coalesced_transfers += t.coalesced_transfers;
  solve_transfers_.evictions += t.evictions;
  if (traced_) {
    // The engine trace is read per unit and then dropped, so a long run
    // keeps only one unit's events in memory.
    e.wait_for_all();
    for (const rt::DecisionRecord& d : e.trace().decisions()) {
      ++solve_decisions_;
      if (d.explored) ++solve_explored_;
    }
    e.trace().clear();
  }
}

rt::DataHandlePtr Harness::register_buffer(void* ptr, std::size_t bytes,
                                           std::size_t element_size) {
  Spans::Scope span(spans_, "runtime.register");
  return engine().register_buffer(ptr, bytes, element_size);
}

void Harness::unregister(const rt::DataHandlePtr& handle) {
  Spans::Scope span(spans_, "runtime.unregister");
  engine().unregister(handle);
}

void Harness::invoke(const std::string& component,
                     std::vector<core::CallOperand> operands,
                     std::shared_ptr<const void> arg) {
  if (!traced_) {
    core::invoke_async(component, std::move(operands), std::move(arg));
    return;
  }
  Spans::Scope span(spans_, "core.invoke");
  core::invoke_async(component, std::move(operands), std::move(arg));
  if (solve_sampled_) sample("core.invoke_us", 1e6 * span.seconds());
}

void Harness::prefetch(const rt::DataHandlePtr& handle, rt::MemoryNodeId node) {
  Spans::Scope span(spans_, "runtime.prefetch");
  engine().prefetch(handle, node);
}

void Harness::acquire_host(const rt::DataHandlePtr& handle) {
  Spans::Scope span(spans_, "containers.acquire_host");
  engine().acquire_host(handle, rt::AccessMode::kRead);
  const double s = span.seconds();
  solve_wait_s_ += s;
  if (solve_sampled_) sample("containers.acquire_host_us", 1e6 * s);
}

void Harness::wait_for_all() {
  Spans::Scope span(spans_, "runtime.wait");
  engine().wait_for_all();
  solve_wait_s_ += span.seconds();
}

bool Harness::check(bool ok, const std::string& what) {
  if (!ok) note_failure("result check: " + what);
  return ok;
}

void Harness::guard(const std::string& name, bool ok) {
  const auto [it, inserted] = guards_.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
}

void Harness::sample(const std::string& series, double value) {
  series_[series].push_back(value);
}

const std::vector<double>& Harness::series(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto found = series_.find(name);
  return found == series_.end() ? kEmpty : found->second;
}

void Harness::note(const std::string& metric, const std::string& why) {
  notes_[metric] = why;
}

std::map<std::string, Metric> Harness::metrics(bool end_to_end) const {
  std::map<std::string, Metric> out;
  auto put = [&](const std::string& name, const std::string& unit, double value,
                 std::size_t samples) {
    Metric m;
    m.value = value;
    m.unit = unit;
    m.samples = samples;
    const auto why = notes_.find(name);
    if (why != notes_.end()) m.note = why->second;
    out[name] = m;
  };
  auto med = [&](const std::string& name, const std::string& series_name,
                 const std::string& unit) {
    const auto& s = series(series_name);
    put(name, unit, median(s), s.size());
  };
  auto ratio = [&](const std::string& name, const std::string& num,
                   const std::string& den) {
    const double d = sum(series(den));
    put(name, "ratio", d > 0.0 ? sum(series(num)) / d : 0.0, series(den).size());
  };

  // Median of the first recorded sessions' peaks; the process-wide peak
  // where the kernel cannot reset the high-water mark. Memory an engine
  // keeps after its destruction raises every later session's peak, so the
  // same session positions are used however many sessions --seconds fits.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<double> peaks = series("peak_rss_mb");
  peaks.resize(std::min(peaks.size(), kPeakRssSessions));
  const double peak_rss_mb = peaks.empty()
                                 ? static_cast<double>(usage.ru_maxrss) / 1024.0
                                 : median(peaks);
  const std::size_t peak_samples = peaks.empty() ? 1 : peaks.size();

  if (end_to_end) {
    med("setup_s", "setup_s", "s");
    med("solve_s", "solve_s", "s");
    med("virtual_makespan_s", "virtual_makespan_s", "s");
    med("cpu_s", "cpu_s", "s");
    put("peak_rss_mb", "MB", peak_rss_mb, peak_samples);
    return out;
  }

  for (const char* layer : kSetupLayers) {
    const std::string name = std::string(layer) + "_s";
    med(name, name, "s");
  }
  med("compose.files_written", "compose.files_written", "count");
  med("runtime.engine_ctor_s", "runtime.engine_ctor_s", "s");

  const auto& invoke_us = series("core.invoke_us");
  put("core.invoke_us.p50", "us", quantile(invoke_us, 0.50), invoke_us.size());
  put("core.invoke_us.p99", "us", quantile(invoke_us, 0.99), invoke_us.size());
  med("runtime.wait_s", "runtime.wait_s", "s");
  med("runtime.tasks_per_solve", "runtime.tasks_per_solve", "count");
  med("runtime.arch_tasks.cpu", "runtime.arch_tasks.cpu", "count");
  med("runtime.arch_tasks.cpu_omp", "runtime.arch_tasks.cpu_omp", "count");
  med("runtime.arch_tasks.cuda", "runtime.arch_tasks.cuda", "count");
  med("runtime.busy_frac.cpu", "runtime.busy_frac.cpu", "ratio");
  med("runtime.busy_frac.cuda", "runtime.busy_frac.cuda", "ratio");
  put("runtime.failed_attempts", "count", sum(series("runtime.failed_attempts")),
      series("runtime.failed_attempts").size());
  put("runtime.retries", "count", sum(series("runtime.retries")),
      series("runtime.retries").size());
  put("failed_ratio", "ratio",
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                     : 0.0,
      attempted_);
  med("containers.acquire_host_us", "containers.acquire_host_us", "us");

  med("memory.h2d_bytes", "memory.h2d_bytes", "bytes");
  med("memory.d2h_bytes", "memory.d2h_bytes", "bytes");
  med("memory.h2d_transfers", "memory.h2d_transfers", "count");
  ratio("memory.coalesced_ratio", "memory.coalesced", "memory.h2d_transfers");
  med("memory.evictions", "memory.evictions", "count");
  med("memory.prefetch_enqueued", "memory.prefetch_enqueued", "count");
  ratio("memory.prefetch_hit_ratio", "memory.prefetch_completed",
        "memory.prefetch_enqueued");
  med("memory.prefetch_skipped", "memory.prefetch_skipped", "count");

  med("scheduler.decisions", "scheduler.decisions", "count");
  ratio("scheduler.explore_ratio", "scheduler.explored", "scheduler.decisions");

  med("perfmodel.load_s", "perfmodel.load_s", "s");
  med("perfmodel.save_s", "perfmodel.save_s", "s");
  med("perfmodel.models", "perfmodel.models", "count");
  med("perfmodel.files_rewritten", "perfmodel.files_rewritten", "count");
  ratio("perfmodel.save_useful_ratio", "perfmodel.files_changed",
        "perfmodel.files_rewritten");

  med("runtime.engine_dtor_s", "runtime.engine_dtor_s", "s");
  med("apps.direct_solve_s", "apps.direct_solve_s", "s");
  {
    // The Figure 7 / section V-E quantity: wall cost the runtime adds per
    // task over the runtime-free solve of the same problem.
    const auto& direct = series("apps.direct_solve_s");
    const double tasks = median(series("runtime.tasks_per_solve"));
    const double value =
        direct.empty() || tasks <= 0.0
            ? 0.0
            : 1e6 * (median(series("solve_s")) - median(direct)) / tasks;
    put("task_overhead_us", "us", value, direct.empty() ? 0 : series("solve_s").size());
  }

  const double untraced = median(series("solve_s"));
  put("trace.overhead_ratio", "ratio",
      untraced > 0.0 ? median(series("traced.solve_s")) / untraced : 0.0,
      series("traced.solve_s").size());
  ratio("trace.unaccounted_frac", "trace.solve_self_s", "trace.solve_total_s");
  for (const char* layer : kSolveLayers) {
    const std::string name = std::string("self_s.") + layer;
    med(name, name, "s");
  }
  return out;
}

}  // namespace perfbench
