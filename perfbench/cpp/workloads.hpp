// The three workloads of the benchmark (see METRICS.md for why each was
// chosen and which layers it loads).
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// Extra context a workload reports beside its metrics.
using Info = std::map<std::string, double>;

/// Figure 7: the LibSolve RK4 chain through core::invoke_async, beside the
/// runtime-free apps::ode::run_direct solve of the same problem.
Info run_ode_chain(Harness& harness);

/// Figure 5: the six UF-class matrices, 12 nnz-balanced chunks each, over
/// the four CPU cores and the C2050.
Info run_spmv_hybrid(Harness& harness);

/// Figure 6: the nine-application suite as engine sessions sharing one
/// persisted sampling dir.
Info run_suite_sessions(Harness& harness);

}  // namespace perfbench
