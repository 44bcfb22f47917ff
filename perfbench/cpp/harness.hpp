// The measurement harness shared by the three workloads: engine sessions
// around the global PEPPHER runtime (core::initialize / core::shutdown),
// closed-loop solves with their wall, CPU and virtual-time accounting, the
// timed calls into each runtime layer, result checks and mechanism guards.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/peppher.hpp"
#include "runtime/engine.hpp"
#include "spans.hpp"

namespace perfbench {

namespace rt = peppher::rt;
namespace core = peppher::core;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;     ///< private to this run
  std::filesystem::path headers_dir;  ///< the workloads' C headers
};

/// One reported number with its sample count, or the reason it has none.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;
};

class Harness {
 public:
  explicit Harness(Options options);

  const Options& options() const { return options_; }
  Spans& spans() { return spans_; }

  /// Set-up of one session: composes the components declared in
  /// `header` (perfbench/headers) and constructs the global engine. The
  /// wall time of both is one `setup_s` sample unless `recorded` is false.
  /// Untimed, it first deletes the previous session's compose dir and
  /// flushes the filesystem, so every set-up (and the next model save)
  /// starts from a filesystem with nothing left to commit.
  void begin_session(bool traced, const std::string& header,
                     rt::EngineConfig config, bool recorded = true);
  /// Destroys the global engine (drain, join, persistence): one
  /// `runtime.engine_dtor_s` sample and the session's `peak_rss_mb` sample.
  /// Untimed, it then hands freed heap back to the kernel, so the next
  /// session's peak does not carry this one's memory.
  void end_session();

  rt::Engine& engine() { return core::engine(); }

  /// Flushes the filesystem of the run's work dir (syncfs).
  void flush_filesystem();

  /// Runs one closed-loop solve. `body` returns whether the result checked
  /// out; an exception or `false` counts the solve as failed. Warm-up solves
  /// (recorded = false) are checked but add no samples.
  template <typename Body>
  void solve(bool recorded, Body&& body) {
    begin_solve(recorded);
    bool ok = false;
    try {
      ok = body();
    } catch (const std::exception& e) {
      note_failure(e.what());
    }
    end_solve(recorded, ok);
  }

  // -- timed calls into the layers (used inside a solve body) ---------------

  /// Drains the engine and zeroes its virtual clocks and transfer counters:
  /// starts one reset-delimited unit of work.
  void reset_unit();
  /// Ends a unit: adds its virtual makespan and transfer counters to the
  /// solve (every app entry point resets the engine at its start, so a
  /// solve is a sequence of such units).
  void end_unit();

  rt::DataHandlePtr register_buffer(void* ptr, std::size_t bytes,
                                    std::size_t element_size);
  /// Hands registered memory back to the application (StarPU's data
  /// unregister); a solve that registers fresh data releases it here.
  void unregister(const rt::DataHandlePtr& handle);
  void invoke(const std::string& component,
              std::vector<core::CallOperand> operands,
              std::shared_ptr<const void> arg);
  void prefetch(const rt::DataHandlePtr& handle, rt::MemoryNodeId node);
  void acquire_host(const rt::DataHandlePtr& handle);
  void wait_for_all();

  /// Records a result check; a failed check fails the current solve.
  bool check(bool ok, const std::string& what);

  /// A mechanism guard; one that trips (on any call with its name) is
  /// reported by name and fails the run.
  void guard(const std::string& name, bool ok);
  const std::map<std::string, bool>& guards() const { return guards_; }

  /// Adds a raw sample to a per-layer series.
  void sample(const std::string& series, double value);
  const std::vector<double>& series(const std::string& name) const;

  /// Marks a metric as not measurable on this workload, with the reason.
  void note(const std::string& metric, const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Reduces every series to the reported metrics (medians, percentiles,
  /// ratios of totals); `end_to_end` selects the untraced set.
  std::map<std::string, Metric> metrics(bool end_to_end) const;

  /// Counters of the current solve so far (workload-specific guards).
  std::array<std::uint64_t, rt::kArchCount> last_solve_arch_tasks() const {
    return last_arch_tasks_;
  }
  std::uint64_t last_solve_tasks() const { return last_tasks_; }

 private:
  void begin_solve(bool recorded);
  void end_solve(bool recorded, bool ok);
  void note_failure(const std::string& what);

  Options options_;
  Spans spans_;
  bool traced_ = false;
  bool session_recorded_ = true;
  bool peak_rss_reset_ = false;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::string> notes_;
  std::map<std::string, bool> guards_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int setup_index_ = 0;
  std::filesystem::path compose_dir_;  ///< the current session's

  // Per-solve accounting.
  bool solve_ok_ = true;
  bool solve_sampled_ = false;  ///< recorded solve of a traced session
  Clock::time_point solve_start_;
  double solve_cpu_start_ = 0.0;
  double solve_wait_s_ = 0.0;
  double solve_vtime_ = 0.0;
  rt::TransferStats solve_transfers_;
  std::uint64_t solve_decisions_ = 0;
  std::uint64_t solve_explored_ = 0;
  std::uint64_t tasks_before_ = 0;
  std::array<std::uint64_t, rt::kArchCount> arch_before_{};
  rt::FaultStats faults_before_;
  rt::Engine::PrefetchStats prefetch_before_;
  std::vector<double> busy_before_;
  std::array<std::uint64_t, rt::kArchCount> last_arch_tasks_{};
  std::uint64_t last_tasks_ = 0;
};

/// Median of a sample series (0 when empty).
double median(std::vector<double> values);

/// Process CPU time (user + system, all threads), in seconds.
double process_cpu_seconds();

}  // namespace perfbench
