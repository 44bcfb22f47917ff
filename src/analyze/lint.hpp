// peppher-lint: static diagnostics over a component repository and a main
// module, run before code generation ("Optimized Composition", Kessler &
// Dastgeer arXiv:1405.2915: composition correctness is checked at the
// metadata level, before variant selection).
//
// Four check families, on top of the repository's own structural
// diagnostics (Repository::diagnose, PL04x/PL05x):
//
//   * signature cross-checks (PL001..PL008): every implementation's C
//     signature — parsed from its source files with the cdecl parser — is
//     compared against the interface descriptor's lowered signature (arity,
//     types, const/pointer qualifiers), and the declared access modes are
//     checked against the parameter types' constness;
//   * platform feasibility (PL010..PL013): variants whose backend no
//     platform descriptor (or target machine) provides, and components left
//     with zero viable variants after disableImpls narrowing;
//   * dispatch-table coverage (PL024..PL027): every "*.dispatch" file under
//     the root is read with the runtime's own "peppher-dispatch v1" parser
//     (a file it rejects is PL000), and each entry's interface and
//     architecture are checked against the repository: unknown interfaces,
//     architectures no implementation has (stale training data), ones
//     whose every implementation is disabled, and empty tables;
//   * task-graph hazard analysis (PL030..PL036, PL052): each call of the
//     main module's declared <calls> is checked on its own (aliasing binds,
//     unknown interfaces and parameters, unbound operands); the hazards
//     between calls — write/write and read/write conflicts the declared
//     access modes would let the runtime schedule concurrently, dead writes
//     and cross-architecture ping-pong — come from the coherence verifier's
//     fixpoint (verify.hpp), which run_lint runs on every such main.
//
// The compose pipeline runs the same checks (compose/tool.cpp), so
// `compose_main` fails fast with the same messages as `peppher-lint`.
#pragma once

#include <filesystem>
#include <optional>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "descriptor/descriptor.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"

namespace peppher::analyze {

struct LintOptions {
  /// Additional user-guided narrowing (the compose -disableImpls switch):
  /// implementation names or architecture names.
  std::vector<std::string> disable_impls;

  /// When set, platform feasibility also counts the machine's devices as
  /// providers of their architectures (compose passes the recipe machine).
  std::optional<sim::MachineConfig> machine;

  /// Parse implementation sources with the cdecl parser and cross-check
  /// signatures. Disable for descriptor-only linting.
  bool check_sources = true;

  /// Directory scanned recursively for "*.dispatch" tables (set by
  /// lint_path; empty skips the dispatch checks).
  std::filesystem::path root;

  /// Report the coherence verifier's PL060..PL069 (analyze/verify.hpp) on
  /// straight-line call sequences too. The verifier runs on every main
  /// module with <calls> and its sequence hazards (PL031..PL033, PL052) are
  /// always reported; with control flow (<loop>/<if>) or a distributed
  /// statement its coherence findings are as well.
  bool verify = false;

  /// Iteration budget of the verifier's worklist fixpoint, per container
  /// (0 = built-in default). Exceeding it emits PL069; only tests lower it.
  int verify_max_steps = 0;

  /// Cluster profile the coherence verifier runs against (the peppher-lint
  /// --cluster=<file> switch, parsed by sim::parse_cluster). Unset or a
  /// one-node cluster keeps the historical single-host abstract machine —
  /// the differential tests pin that output byte-identical. A multi-node
  /// profile gives the abstract worlds a node dimension and arms the
  /// distributed checks (PL080..PL087).
  std::optional<sim::ClusterConfig> cluster;
};

/// Which side of the PCIe link a call is pinned to by its viable
/// implementation variants: every enabled variant of the interface targets
/// an accelerator (kDevice), the host (kHost), or the call is free to run
/// on either side (kAny). The coherence verifier's CFG lowering places
/// each call with it.
enum class CallPlacement { kHost, kDevice, kAny };

CallPlacement call_placement(const desc::Repository& repo,
                             const LintOptions& options,
                             const desc::CallDesc& call);

/// True when a -disableImpls token (from the options or the main module)
/// disables this variant, matched by implementation name or architecture.
/// Shared with peppher-predict so both agree on the viable variant set.
bool impl_disabled(const desc::ImplementationDescriptor& impl,
                   const desc::Repository& repo, const LintOptions& options);

/// Runs every check over an already-loaded repository. The result is sorted
/// by location (DiagnosticBag::sort).
diag::DiagnosticBag run_lint(const desc::Repository& repo,
                             const LintOptions& options = {});

/// Loads descriptors from `path` (a directory, or one descriptor file whose
/// directory is scanned alongside) and lints them. Files that fail to parse
/// become PL000 diagnostics instead of aborting the run.
diag::DiagnosticBag lint_path(const std::filesystem::path& path,
                              const LintOptions& options = {});

/// The lowered C signature the composition tool expects an implementation
/// of `interface` to define (mirrors compose/codegen lowering: smart
/// containers become element pointer + extent parameters). Exposed for the
/// signature checks and tests.
std::string expected_impl_signature(const desc::InterfaceDescriptor& interface,
                                    const std::string& function_name);

}  // namespace peppher::analyze
