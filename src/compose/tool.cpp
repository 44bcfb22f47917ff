#include "compose/tool.hpp"

#include <algorithm>
#include <ostream>

#include "analyze/lint.hpp"
#include "compose/codegen.hpp"
#include "compose/expand.hpp"
#include "runtime/scheduler.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::compose {

namespace {

std::string strip_quotes(std::string text) {
  if (text.size() >= 2 && ((text.front() == '"' && text.back() == '"') ||
                           (text.front() == '\'' && text.back() == '\''))) {
    return text.substr(1, text.size() - 2);
  }
  return text;
}

}  // namespace

std::string usage() {
  return "usage:\n"
         "  compose <main.xml> [switches]        generate composition code\n"
         "  compose -generateCompFiles=<hdr.h>   generate component skeletons\n"
         "switches:\n"
         "  -disableImpls=<name|arch>[,...]\n"
         "  -useHistoryModels=<true|false>\n"
         "  -scheduler=<" +
         strings::join(rt::scheduler_names(), "|") +
         ">\n"
         "  -machine=<" +
         std::string(sim::kMachinePresets) +
         ">\n"
         "  -bind=<Param=type[,type...]>\n"
         "  -expandTunables\n"
         "  -dumpIR\n"
         "  -outdir=<dir>\n"
         "  -backends=<cpu,openmp,cuda>\n"
         "  -lint    run the static checks (signatures, feasibility,\n"
         "           dispatch coverage, hazards, coherence) and stop\n"
         "  -verify  also report PL060..PL069 on straight-line programs\n"
         "  -werror\n"
         "  -verbose\n";
}

ToolOptions parse_arguments(const std::vector<std::string>& args) {
  ToolOptions options;
  for (const std::string& arg : args) {
    std::string value;
    if (cli::match_switch(arg, "generateCompFiles", &value)) {
      options.generate_comp_files = strip_quotes(value);
    } else if (cli::match_switch(arg, "disableImpls", &value)) {
      for (std::string& name : strings::split(strip_quotes(value), ',')) {
        std::string trimmed(strings::trim(name));
        if (!trimmed.empty()) options.recipe.disable_impls.push_back(trimmed);
      }
    } else if (cli::match_switch(arg, "useHistoryModels", &value)) {
      options.recipe.use_history_models =
          strings::to_lower(value) != "false" && value != "0";
    } else if (cli::match_switch(arg, "scheduler", &value)) {
      const std::vector<std::string> policies = rt::scheduler_names();
      if (std::find(policies.begin(), policies.end(), value) ==
          policies.end()) {
        throw Error(ErrorCode::kInvalidArgument,
                    "unknown scheduler '" + value + "' (" +
                        strings::join(policies, "|") + ")");
      }
      options.recipe.scheduler = value;
    } else if (cli::match_switch(arg, "machine", &value)) {
      options.recipe.machine = sim::machine_preset(value);
    } else if (cli::match_switch(arg, "bind", &value)) {
      const std::string binding = strip_quotes(value);
      const std::size_t eq = binding.find('=');
      if (eq == std::string::npos) {
        throw Error(ErrorCode::kInvalidArgument,
                    "-bind expects Param=type[,type...], got '" + binding + "'");
      }
      std::vector<std::string> types;
      for (std::string& t : strings::split(binding.substr(eq + 1), ',')) {
        std::string trimmed(strings::trim(t));
        if (!trimmed.empty()) types.push_back(trimmed);
      }
      if (types.empty()) {
        throw Error(ErrorCode::kInvalidArgument,
                    "-bind has no types: '" + binding + "'");
      }
      options.recipe.bindings.emplace_back(binding.substr(0, eq), types);
    } else if (cli::match_switch(arg, "outdir", &value)) {
      options.output_dir = strip_quotes(value);
    } else if (cli::match_switch(arg, "backends", &value)) {
      options.skeleton.backends.clear();
      for (std::string& b : strings::split(strip_quotes(value), ',')) {
        std::string trimmed(strings::trim(b));
        if (!trimmed.empty()) options.skeleton.backends.push_back(trimmed);
      }
    } else if (arg == "-expandTunables" || arg == "--expandTunables") {
      options.recipe.expand_tunables = true;
    } else if (arg == "-lint" || arg == "--lint") {
      options.lint_only = true;
    } else if (arg == "-verify" || arg == "--verify") {
      options.verify = true;
    } else if (arg == "-werror" || arg == "--werror") {
      options.werror = true;
    } else if (arg == "-dumpIR" || arg == "--dumpIR") {
      options.dump_ir = true;
    } else if (arg == "-verbose" || arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "-help" || arg == "--help" || arg == "-h") {
      throw Error(ErrorCode::kInvalidArgument, usage());
    } else if (!arg.empty() && arg.front() == '-') {
      throw Error(ErrorCode::kInvalidArgument,
                  "unknown switch '" + arg + "'\n" + usage());
    } else {
      if (!options.main_descriptor.empty()) {
        throw Error(ErrorCode::kInvalidArgument,
                    "more than one main descriptor given");
      }
      options.main_descriptor = arg;
    }
  }
  if (options.main_descriptor.empty() && options.generate_comp_files.empty()) {
    throw Error(ErrorCode::kInvalidArgument,
                "nothing to do: pass a main.xml or -generateCompFiles\n" + usage());
  }
  return options;
}

int run_tool(const ToolOptions& options, std::ostream& out, std::ostream& err) {
  try {
    if (!options.generate_comp_files.empty()) {
      const std::filesystem::path header(options.generate_comp_files);
      const std::filesystem::path outdir =
          options.output_dir.empty() ? header.parent_path()
                                     : std::filesystem::path(options.output_dir);
      const CodegenResult result =
          generate_skeleton_from_file(header, outdir, options.skeleton);
      out << "generated " << result.files.size() << " skeleton file(s) under '"
          << outdir.string() << "'\n";
      if (options.verbose) {
        for (const std::string& note : result.notes) out << "  " << note << "\n";
        for (const GeneratedFile& file : result.files) {
          out << "  " << file.path << "\n";
        }
      }
      return 0;
    }

    // Build mode: compose main.xml.
    const std::filesystem::path main_path(options.main_descriptor);
    desc::Repository repo;
    repo.scan(main_path.parent_path().empty() ? "."
                                              : main_path.parent_path().string());
    // Ensure the main descriptor itself is loaded even if outside the tree.
    repo.load_file(main_path);

    // Static checks (peppher-lint) before any code generation: the same
    // engine the standalone `peppher-lint` tool runs, so composition fails
    // fast with identical messages.
    analyze::LintOptions lint_options;
    lint_options.disable_impls = options.recipe.disable_impls;
    lint_options.machine = options.recipe.machine;
    lint_options.root = main_path.parent_path().empty()
                            ? std::filesystem::path(".")
                            : main_path.parent_path();
    lint_options.verify = options.verify;
    const diag::DiagnosticBag lint = analyze::run_lint(repo, lint_options);
    if (!lint.empty()) err << lint.format_text();
    if (lint.fails(options.werror)) {
      err << "compose: static checks failed; no code generated\n";
      return 1;
    }
    if (options.lint_only) {
      out << "lint: " << lint.diagnostics().size() << " diagnostic(s), 0 fatal\n";
      return 0;
    }

    ComponentTree tree = build_tree(repo, options.recipe);
    std::vector<std::string> expansion = expand_generics(tree);
    if (tree.recipe.expand_tunables) {
      for (std::string& note : expand_tunables(tree)) {
        expansion.push_back(std::move(note));
      }
    }
    const std::vector<std::string> narrowing = apply_static_narrowing(tree);
    if (options.dump_ir) out << describe(tree);
    const CodegenResult result = generate(tree);

    const std::filesystem::path outdir =
        options.output_dir.empty()
            ? (main_path.parent_path().empty()
                   ? std::filesystem::path(".")
                   : main_path.parent_path())
            : std::filesystem::path(options.output_dir);
    write_files(result, outdir);

    out << "composed " << tree.components.size() << " component(s); wrote "
        << result.files.size() << " file(s) under '" << outdir.string() << "'\n";
    if (options.verbose) {
      for (const std::string& note : expansion) out << "  " << note << "\n";
      for (const std::string& note : narrowing) out << "  " << note << "\n";
      for (const std::string& note : result.notes) out << "  " << note << "\n";
    }
    return 0;
  } catch (const Error& e) {
    err << "compose: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace peppher::compose
