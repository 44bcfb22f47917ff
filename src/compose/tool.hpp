// Command-line driver of the composition tool (the `compose` binary):
//
//   compose main.xml                       build composition code for an app
//   compose -generateCompFiles=spmv.h      utility mode: skeleton generation
//
// Switches (§IV):
//   -disableImpls=<name|arch>[,...]   user-guided static narrowing
//   -useHistoryModels=<true|false>    performance-aware selection flag
//   -scheduler=<policy>               runtime scheduling policy, one of
//                                     rt::scheduler_names()
//   -machine=<c2050|c1060|cpu>        target platform preset
//   -bind=<T=float[,double]>          generic-component expansion bindings
//   -expandTunables                   variant per tunable-value combination
//   -outdir=<dir>                     output directory for generated files
//   -backends=<cpu,openmp,cuda>       utility mode: backends to scaffold
//   -lint                             run the static checks (signatures,
//                                     feasibility, dispatch coverage,
//                                     hazards, coherence), skip codegen
//   -verify                           coherence-verify (PL060..PL069) even
//                                     straight-line call sequences
//   -werror                           lint warnings abort composition too
//   -verbose                          print per-step reports
//
// Build mode always runs the peppher-lint static checks (src/analyze)
// before code generation and aborts on error-severity diagnostics, so
// `compose main.xml` fails fast with the same messages as `peppher-lint`.
//
// The driver is a library function so tests can exercise it without
// spawning processes; tools/compose_main.cpp is a thin wrapper.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "compose/ir.hpp"
#include "compose/skeleton.hpp"

namespace peppher::compose {

struct ToolOptions {
  std::string main_descriptor;      ///< path to main.xml ("" unless build mode)
  std::string generate_comp_files;  ///< header path ("" unless utility mode)
  std::string output_dir;           ///< "" = next to the input file
  Recipe recipe;
  SkeletonOptions skeleton;
  bool verbose = false;
  bool dump_ir = false;    ///< print the component tree after the IR passes
  bool lint_only = false;  ///< -lint: stop after the static checks
  bool werror = false;     ///< -werror: warnings abort composition too
  bool verify = false;     ///< -verify: coherence-verify straight lines too
};

/// Parses argv-style arguments (without argv[0]). Throws
/// Error(kInvalidArgument) with a usage-oriented message on bad input.
ToolOptions parse_arguments(const std::vector<std::string>& args);

/// Runs the tool: returns 0 on success, 1 on a reported error. All output
/// goes to the given streams (no direct stdout/stderr use).
int run_tool(const ToolOptions& options, std::ostream& out, std::ostream& err);

/// The usage/help text.
std::string usage();

}  // namespace peppher::compose
