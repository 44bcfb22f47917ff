#include "analyze/lint.hpp"

#include <map>
#include <set>

#include "analyze/verify.hpp"

#include "cdecl/cdecl.hpp"
#include "runtime/perfmodel.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"

namespace peppher::analyze {

namespace {

using diag::DiagnosticBag;
using diag::Severity;
using diag::SourceLocation;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// True if `token` (a -disableImpls entry) disables `impl`: either its name
/// or its architecture.
bool token_disables(const std::string& token,
                    const desc::ImplementationDescriptor& impl) {
  if (token == impl.name) return true;
  try {
    return rt::parse_arch(token) == impl.arch();
  } catch (const Error&) {
    return false;
  }
}

bool is_disabled(const desc::ImplementationDescriptor& impl,
                 const desc::Repository& repo, const LintOptions& options) {
  for (const std::string& token : options.disable_impls) {
    if (token_disables(token, impl)) return true;
  }
  if (const desc::MainDescriptor* main = repo.main_module()) {
    for (const std::string& token : main->disabled_impls) {
      if (token_disables(token, impl)) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// PL001..PL008 — signature & access-mode cross-checks
// ---------------------------------------------------------------------------

using desc::ParamKind;

/// True at position `i` of the lowered parameter list when the parameter
/// came from a raw-pointer interface parameter — the only kind whose
/// constness the descriptor spells out, so the only kind the const checks
/// apply to.
struct LoweredParam {
  bool from_raw_pointer = false;
  const desc::ParamDesc* source = nullptr;
};

std::vector<LoweredParam> lowered_params(const desc::InterfaceDescriptor& iface) {
  std::vector<LoweredParam> out;
  for (const desc::ParamDesc& p : iface.params) {
    switch (p.kind()) {
      case ParamKind::kValue:
        out.push_back({false, &p});
        break;
      case ParamKind::kRawPointer:
        out.push_back({true, &p});
        break;
      case ParamKind::kVector:  // elem* + count
        out.push_back({false, &p});
        out.push_back({false, &p});
        break;
      case ParamKind::kMatrix:  // elem* + rows + cols
        out.push_back({false, &p});
        out.push_back({false, &p});
        out.push_back({false, &p});
        break;
      case ParamKind::kScalar:  // elem*
        out.push_back({false, &p});
        break;
    }
  }
  return out;
}

bool types_equal(const cdecl_parser::Type& a, const cdecl_parser::Type& b) {
  return a.base == b.base && a.is_const == b.is_const &&
         a.pointer_depth == b.pointer_depth && a.is_reference == b.is_reference;
}

void check_interface_access_modes(const desc::InterfaceDescriptor& iface,
                                  DiagnosticBag& bag) {
  for (const desc::ParamDesc& p : iface.params) {
    const bool declared_write = p.access != rt::AccessMode::kRead;
    if (p.is_operand()) {
      const bool const_type = p.type.find("const") != std::string::npos;
      if (declared_write && const_type) {
        bag.add("PL004", Severity::kError,
                "parameter '" + p.name + "' of interface '" + iface.name +
                    "' declares access mode '" + rt::to_string(p.access) +
                    "' but its type '" + p.type + "' is const",
                p.loc.known() ? p.loc : iface.loc);
      }
      if (!declared_write && !const_type &&
          p.kind() == ParamKind::kRawPointer) {
        bag.add("PL005", Severity::kWarning,
                "parameter '" + p.name + "' of interface '" + iface.name +
                    "' is declared read-only but its type '" + p.type +
                    "' is mutable; a hidden write would race",
                p.loc.known() ? p.loc : iface.loc);
      }
    } else if (declared_write) {
      bag.add("PL008", Severity::kWarning,
              "value parameter '" + p.name + "' of interface '" + iface.name +
                  "' declares access mode '" + rt::to_string(p.access) +
                  "'; value parameters cannot be written back",
              p.loc.known() ? p.loc : iface.loc);
    }
  }
}

void check_implementation_signature(const desc::Repository& repo,
                                    const desc::ImplementationDescriptor& impl,
                                    const LintOptions& options,
                                    DiagnosticBag& bag) {
  const desc::InterfaceDescriptor* iface =
      repo.find_interface(impl.interface_name);
  if (iface == nullptr || iface->is_generic()) return;  // PL041 / expansion
  if (!options.check_sources || impl.sources.empty()) return;
  const std::filesystem::path origin = repo.origin_of(impl.name);
  if (origin.empty()) return;  // descriptor added programmatically

  // Parse every declaration in the variant's sources.
  std::vector<cdecl_parser::FunctionDecl> decls;
  bool any_source_found = false;
  for (const std::string& source : impl.sources) {
    const std::filesystem::path path = origin / source;
    if (!std::filesystem::exists(path)) {
      bag.add("PL007", Severity::kWarning,
              "implementation '" + impl.name + "' lists source file '" +
                  source + "' which does not exist under '" + origin.string() +
                  "'",
              impl.loc);
      continue;
    }
    any_source_found = true;
    for (cdecl_parser::FunctionDecl& decl :
         cdecl_parser::parse_header(fs::read_file(path))) {
      decls.push_back(std::move(decl));
    }
  }
  if (!any_source_found) return;

  const cdecl_parser::FunctionDecl* found = nullptr;
  for (const cdecl_parser::FunctionDecl& decl : decls) {
    if (decl.name == impl.name) found = &decl;
  }
  if (found == nullptr) {
    for (const cdecl_parser::FunctionDecl& decl : decls) {
      if (decl.name == iface->name) found = &decl;
    }
  }
  if (found == nullptr) {
    bag.add("PL006", Severity::kWarning,
            "no declaration of '" + impl.name + "' (or '" + iface->name +
                "') found in the sources of implementation '" + impl.name + "'",
            impl.loc);
    return;
  }

  // The expected lowered signature, parsed with the same cdecl grammar so
  // both sides are normalised identically.
  cdecl_parser::FunctionDecl expected;
  try {
    expected = cdecl_parser::parse_declaration(
        desc::lowered_impl_signature(*iface, found->name) + ";");
  } catch (const Error&) {
    return;  // unloadable interface types; PL04x/PL000 covers the cause
  }

  const std::vector<LoweredParam> lowered = lowered_params(*iface);
  check(lowered.size() == expected.params.size(),
        "lint: lowered parameter bookkeeping out of sync");

  if (found->params.size() != expected.params.size()) {
    bag.add("PL001", Severity::kError,
            "implementation '" + impl.name + "' declares " +
                std::to_string(found->params.size()) +
                " parameter(s) but interface '" + iface->name +
                "' lowers to " + std::to_string(expected.params.size()) +
                " (expected: " +
                desc::lowered_impl_signature(*iface, found->name) + ")",
            impl.loc);
    return;
  }
  for (std::size_t i = 0; i < expected.params.size(); ++i) {
    const cdecl_parser::Type& want = expected.params[i].type;
    const cdecl_parser::Type& got = found->params[i].type;
    if (types_equal(want, got)) continue;
    // A constness difference on a written raw-pointer operand is its own
    // diagnostic; other differences are plain type mismatches.
    const desc::ParamDesc* source_param = lowered[i].source;
    if (lowered[i].from_raw_pointer && got.base == want.base &&
        got.pointer_depth == want.pointer_depth &&
        got.is_reference == want.is_reference &&
        got.is_const != want.is_const) {
      if (got.is_const && source_param->access != rt::AccessMode::kRead) {
        bag.add("PL003", Severity::kError,
                "implementation '" + impl.name + "' declares parameter '" +
                    found->params[i].name + "' as '" + got.spelling() +
                    "' but the interface declares access mode '" +
                    rt::to_string(source_param->access) +
                    "' — the variant cannot write it",
                impl.loc);
      } else {
        bag.add("PL005", Severity::kWarning,
                "implementation '" + impl.name + "' declares parameter '" +
                    found->params[i].name + "' as mutable '" + got.spelling() +
                    "' but the interface declares it read-only; a hidden "
                    "write would race",
                impl.loc);
      }
      continue;
    }
    bag.add("PL002", Severity::kError,
            "implementation '" + impl.name + "' parameter " +
                std::to_string(i + 1) + " ('" + found->params[i].name +
                "') has type '" + got.spelling() + "' but interface '" +
                iface->name + "' expects '" + want.spelling() + "'",
            impl.loc);
  }
}

// ---------------------------------------------------------------------------
// PL010..PL013 — platform feasibility
// ---------------------------------------------------------------------------

/// Architectures a platform descriptor of `kind` provides.
std::set<rt::Arch> archs_of_kind(const std::string& kind) {
  if (kind == "cpu") return {rt::Arch::kCpu, rt::Arch::kCpuOmp};
  if (kind == "cuda") return {rt::Arch::kCuda};
  if (kind == "opencl") return {rt::Arch::kOpenCl};
  return {};
}

void check_feasibility(const desc::Repository& repo, const LintOptions& options,
                       DiagnosticBag& bag) {
  // Which architectures does the installation provide? Union of the
  // repository's platform descriptors and (when given) the target machine.
  std::set<rt::Arch> provided;
  bool provision_known = false;
  for (const desc::PlatformDescriptor* platform : repo.platforms()) {
    provision_known = true;
    for (rt::Arch arch : archs_of_kind(platform->kind)) provided.insert(arch);
  }
  if (options.machine) {
    provision_known = true;
    if (options.machine->cpu_cores > 0) {
      provided.insert(rt::Arch::kCpu);
      provided.insert(rt::Arch::kCpuOmp);
    }
    for (const sim::DeviceProfile& accel : options.machine->accelerators) {
      if (accel.device_class == sim::DeviceClass::kCudaGpu) {
        provided.insert(rt::Arch::kCuda);
      } else if (accel.device_class == sim::DeviceClass::kOpenClGpu) {
        provided.insert(rt::Arch::kOpenCl);
      }
    }
  }

  for (const desc::InterfaceDescriptor* iface : repo.interfaces()) {
    const auto impls = repo.implementations_of(iface->name);
    int viable = 0;
    for (const desc::ImplementationDescriptor* impl : impls) {
      // Language vs the declared target platform's kind.
      if (!impl->target_platform.empty()) {
        if (const desc::PlatformDescriptor* target =
                repo.find_platform(impl->target_platform)) {
          const std::set<rt::Arch> kinds = archs_of_kind(target->kind);
          if (!kinds.empty() && kinds.count(impl->arch()) == 0) {
            bag.add("PL010", Severity::kError,
                    "implementation '" + impl->name + "' is written in '" +
                        impl->language + "' but targets platform '" +
                        target->name + "' of kind '" + target->kind + "'",
                    impl->loc);
          }
        }
      }
      const bool arch_available =
          !provision_known || provided.count(impl->arch()) != 0;
      if (provision_known && !arch_available) {
        bag.add("PL011", Severity::kWarning,
                "implementation '" + impl->name + "' requires backend '" +
                    impl->language +
                    "' which no platform descriptor or target machine "
                    "provides",
                impl->loc);
      }
      if (arch_available && !is_disabled(*impl, repo, options)) ++viable;
    }
    if (!impls.empty() && viable == 0) {
      bag.add("PL012", Severity::kError,
              "component '" + iface->name +
                  "' has no viable implementation variant left (all " +
                  std::to_string(impls.size()) +
                  " variant(s) disabled or infeasible)",
              iface->loc);
    }
  }

  if (const desc::MainDescriptor* main = repo.main_module()) {
    if (!main->target_platform.empty() && !repo.platforms().empty() &&
        repo.find_platform(main->target_platform) == nullptr) {
      bag.add("PL013", Severity::kWarning,
              "main module targets platform '" + main->target_platform +
                  "' but no platform descriptor of that name exists",
              main->loc);
    }
  }
}

// ---------------------------------------------------------------------------
// PL024..PL027 — dispatch-table coverage
// ---------------------------------------------------------------------------

/// Reads one table with the runtime's own parser: a file it rejects is
/// PL000, with the Engine's message at the parser's line and column. Each
/// (interface, architecture) pair the entries name is checked once, at its
/// first line.
void check_dispatch_file(const desc::Repository& repo,
                         const std::filesystem::path& path,
                         const LintOptions& options, DiagnosticBag& bag) {
  std::vector<rt::DispatchTable::Entry> entries;
  try {
    entries = rt::DispatchTable::parse_file(path);
  } catch (const ParseError& e) {
    bag.add("PL000", Severity::kError, e.what(),
            SourceLocation{path.string(), e.line(), e.column()});
    return;
  }
  if (entries.empty()) {
    bag.add("PL027", Severity::kWarning,
            "dispatch table '" + path.filename().string() +
                "' is empty — training produced no usable data "
                "(training-data hole)",
            SourceLocation{path.string(), 0, 0});
    return;
  }

  std::set<std::pair<std::string, rt::Arch>> checked;
  for (const rt::DispatchTable::Entry& entry : entries) {
    if (!checked.emplace(entry.codelet, entry.arch).second) continue;
    const SourceLocation loc{path.string(), entry.line, 0};
    const std::string arch(rt::to_string(entry.arch));
    if (repo.find_interface(entry.codelet) == nullptr) {
      bag.add("PL025", Severity::kWarning,
              "dispatch entry for '" + entry.codelet +
                  "' matches no interface in the repository",
              loc);
      continue;
    }
    bool has_arch = false;
    bool all_disabled = true;
    for (const desc::ImplementationDescriptor* impl :
         repo.implementations_of(entry.codelet)) {
      if (impl->arch() != entry.arch) continue;
      has_arch = true;
      all_disabled = all_disabled && is_disabled(*impl, repo, options);
    }
    if (!has_arch) {
      bag.add("PL024", Severity::kError,
              "dispatch entry for '" + entry.codelet +
                  "' records architecture '" + arch +
                  "' but no implementation of '" + entry.codelet +
                  "' is '" + arch + "' — stale training data",
              loc);
    } else if (all_disabled) {
      bag.add("PL026", Severity::kWarning,
              "dispatch entry for '" + entry.codelet + "' selects '" + arch +
                  "', whose every implementation is disabled (unreachable "
                  "branch)",
              loc);
    }
  }
}

void check_dispatch(const desc::Repository& repo, const LintOptions& options,
                    DiagnosticBag& bag) {
  if (options.root.empty() || !std::filesystem::exists(options.root)) return;
  for (const std::filesystem::path& path :
       fs::list_files_recursive(options.root, ".dispatch")) {
    check_dispatch_file(repo, path, options, bag);
  }
}

// ---------------------------------------------------------------------------
// PL030, PL034..PL036 — per-call checks of the <calls> section
// ---------------------------------------------------------------------------

/// Checks each call on its own. The hazards between calls (PL031..PL033,
/// PL052) are the coherence verifier's: its fixpoint reports them on every
/// program (verify.hpp).
void check_calls(const desc::Repository& repo, DiagnosticBag& bag) {
  const desc::MainDescriptor* main = repo.main_module();
  if (main == nullptr) return;
  for (std::size_t call_index = 0; call_index < main->calls.size();
       ++call_index) {
    const desc::CallDesc& call = main->calls[call_index];
    const std::string label = "call #" + std::to_string(call_index + 1);
    const desc::InterfaceDescriptor* iface =
        repo.find_interface(call.interface_name);
    if (iface == nullptr) {
      bag.add("PL034", Severity::kError,
              label + " names unknown interface '" + call.interface_name + "'",
              call.loc);
      continue;
    }
    std::set<std::string> bound;
    struct Operand {
      int bindings = 0;
      bool written = false;
    };
    std::map<std::string, Operand> operands;  // per data name
    for (const desc::CallArgDesc& arg : call.args) {
      const desc::ParamDesc* param = nullptr;
      for (const desc::ParamDesc& p : iface->params) {
        if (p.name == arg.param) param = &p;
      }
      if (param == nullptr) {
        bag.add("PL035", Severity::kError,
                label + " binds '" + arg.data + "' to unknown parameter '" +
                    arg.param + "' of interface '" + iface->name + "'",
                arg.loc.known() ? arg.loc : call.loc);
        continue;
      }
      bound.insert(param->name);
      if (!param->is_operand()) continue;
      Operand& operand = operands[arg.data];
      ++operand.bindings;
      operand.written |= param->access != rt::AccessMode::kRead;
    }
    for (const desc::ParamDesc& p : iface->params) {
      if (p.is_operand() && bound.count(p.name) == 0) {
        bag.add("PL036", Severity::kWarning,
                label + " leaves operand parameter '" + p.name +
                    "' of interface '" + iface->name + "' unbound",
                call.loc);
      }
    }
    // Intra-call aliasing: the same container bound to several parameters of
    // one task, at least one of them written.
    for (const auto& [data, operand] : operands) {
      if (operand.bindings < 2 || !operand.written) continue;
      bag.add("PL030", Severity::kError,
              label + " (" + iface->name + ") binds container '" + data +
                  "' to multiple parameters with a write access mode — "
                  "aliased operands of one task are scheduled without "
                  "ordering",
              call.loc);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

bool impl_disabled(const desc::ImplementationDescriptor& impl,
                   const desc::Repository& repo, const LintOptions& options) {
  return is_disabled(impl, repo, options);
}

CallPlacement call_placement(const desc::Repository& repo,
                             const LintOptions& options,
                             const desc::CallDesc& call) {
  const desc::InterfaceDescriptor* iface =
      repo.find_interface(call.interface_name);
  if (iface == nullptr) return CallPlacement::kAny;
  bool host = false;
  bool device = false;
  for (const desc::ImplementationDescriptor* impl :
       repo.implementations_of(iface->name)) {
    if (is_disabled(*impl, repo, options)) continue;
    try {
      const rt::Arch arch = impl->arch();
      if (arch == rt::Arch::kCuda || arch == rt::Arch::kOpenCl) {
        device = true;
      } else {
        host = true;
      }
    } catch (const Error&) {
      return CallPlacement::kAny;  // unknown backend: placement unconstrained
    }
  }
  if (host == device) return CallPlacement::kAny;
  return host ? CallPlacement::kHost : CallPlacement::kDevice;
}

diag::DiagnosticBag run_lint(const desc::Repository& repo,
                             const LintOptions& options) {
  DiagnosticBag bag;
  bag.merge(repo.diagnose());
  for (const desc::InterfaceDescriptor* iface : repo.interfaces()) {
    check_interface_access_modes(*iface, bag);
  }
  for (const desc::InterfaceDescriptor* iface : repo.interfaces()) {
    for (const desc::ImplementationDescriptor* impl :
         repo.implementations_of(iface->name)) {
      check_implementation_signature(repo, *impl, options, bag);
    }
  }
  check_feasibility(repo, options, bag);
  check_dispatch(repo, options, bag);
  check_calls(repo, bag);
  const VerifyResult verified = verify_main(repo, options);
  bag.merge(verified.hazards.diagnostics());
  // The rest of the verifier's findings (PL060..PL069, PL080..PL087) are
  // opt-in on a straight line (--verify); control flow or a distributed
  // statement arms them.
  const desc::MainDescriptor* main = repo.main_module();
  if (options.verify ||
      (main != nullptr && (main->has_control_flow || main->has_distributed))) {
    bag.merge(verified.bag.diagnostics());
  }
  bag.sort();
  return bag;
}

diag::DiagnosticBag lint_path(const std::filesystem::path& path,
                              const LintOptions& options) {
  LintOptions opts = options;
  std::filesystem::path root =
      std::filesystem::is_directory(path) ? path : path.parent_path();
  if (root.empty()) root = ".";
  opts.root = root;

  DiagnosticBag bag;
  desc::Repository repo;
  for (const std::filesystem::path& file :
       fs::list_files_recursive(root, ".xml")) {
    try {
      repo.load_file(file);
    } catch (const ParseError& e) {
      bag.add("PL000", Severity::kError, e.what(),
              SourceLocation{file.string(), e.line(), e.column()});
    } catch (const Error& e) {
      bag.add("PL000", Severity::kError, e.what(),
              SourceLocation{file.string(), 0, 0});
    }
  }
  bag.merge(run_lint(repo, opts).diagnostics());
  bag.sort();
  return bag;
}

}  // namespace peppher::analyze
