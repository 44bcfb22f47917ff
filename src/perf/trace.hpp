// In-memory model of a peppher-trace document (schema v1, docs/perf.md)
// plus the validating reader that turns Engine::trace_json output — or any
// foreign producer of the schema — back into the runtime's own event
// records (runtime/trace.hpp). parse_trace is the exact inverse of
// Engine::trace_json: every parsed record equals the recorded one.
//
// parse_trace is strict: wrong schema tag, unsupported version, unknown
// sections or enum values, type mismatches and non-monotonic timelines are
// all located ParseErrors (1-based line/column of the offending value),
// never crashes or silent best-effort repairs.
#pragma once

#include <string>
#include <vector>

#include "runtime/trace.hpp"

namespace peppher::perf {

/// One engine worker row ("workers" section).
struct TraceWorker {
  int id = -1;
  std::string name;  ///< device profile name, e.g. "tesla-c2050"
  std::string arch;  ///< "cpu", "openmp", "cuda", "opencl"
  int node = 0;      ///< memory node the worker executes against
  int sim_node = 0;  ///< simulated cluster node (0 on single-host traces)
  bool combined = false;  ///< the all-CPU-cores fork-join worker
};

/// A full parsed trace document.
struct Trace {
  int version = 0;
  std::string machine;
  std::string scheduler;
  double makespan = 0.0;
  std::vector<TraceWorker> workers;
  std::vector<rt::TaskRecord> tasks;
  std::vector<rt::TransferRecord> transfers;
  std::vector<rt::PrefetchRecord> prefetches;
  std::vector<rt::DecisionRecord> decisions;
  /// Lookahead window plans; empty for the per-task policies. The section
  /// is present in every document written since the lookahead scheduler
  /// landed and absent in older ones; both parse.
  std::vector<rt::WindowRecord> windows;
  std::vector<rt::PhaseRecord> phases;
};

/// Parses and validates a trace document; see the header comment for the
/// failure contract. `text` is the full JSON document.
Trace parse_trace(const std::string& text);

}  // namespace peppher::perf
