// peppher-lint: standalone driver for the static-analysis subsystem
// (src/analyze). Lints component repositories and main modules without
// composing them:
//
//   peppher-lint <dir-or-descriptor.xml>... [switches]
//
// Switches:
//   --format=text|json|sarif   output renderer (default text, to stdout)
//   --werror                   warnings fail the run too
//   --machine=<preset>         (sim::kMachinePresets) count the preset
//                              machine's devices as backend
//                              providers for the feasibility checks
//   --disableImpls=<name|arch>[,...]
//                              same narrowing switch the compose tool takes
//   --no-sources               skip parsing implementation sources (descriptor
//                              and hazard checks only)
//   --verify                   also report the coherence verifier's
//                              PL060..PL069 on straight-line programs (its
//                              sequence hazards PL031..PL033 and PL052 are
//                              always reported; main modules with <loop>/<if>
//                              or distributed forms report both)
//   --cluster=<file>           verify against a peppher-cluster v1 profile:
//                              the abstract machine gains one host + one
//                              accelerator slot per cluster node and the
//                              distributed checks (PL080..PL087) arm; a
//                              one-node profile is byte-identical to not
//                              passing the switch
//   --explain=PLxxx            print the code's severity, summary and
//                              remediation from the registry, then exit
//
// Exit status: 0 clean (or findings below the failure threshold), 1 fatal
// findings, 2 usage error (or unknown --explain code).
#include <iostream>
#include <string>
#include <vector>

#include "analyze/lint.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"

namespace {

using namespace peppher;

int usage(std::ostream& out) {
  out << "usage: peppher-lint <dir-or-descriptor.xml>... [switches]\n"
         "  --format=text|json|sarif\n"
         "  --werror\n"
         "  --machine=<"
      << sim::kMachinePresets
      << ">\n"
         "  --disableImpls=<name|arch>[,...]\n"
         "  --no-sources\n"
         "  --verify   also report PL060..PL069 on straight-line programs\n"
         "  --cluster=<peppher-cluster-v1-file>\n"
         "  --explain=PLxxx|all\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  analyze::LintOptions options;
  std::string format = "text";
  bool werror = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "-h" || arg == "-help" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (arg == "-werror" || arg == "--werror") {
      werror = true;
    } else if (arg == "-no-sources" || arg == "--no-sources") {
      options.check_sources = false;
    } else if (arg == "-verify" || arg == "--verify") {
      options.verify = true;
    } else if (cli::match_switch(arg, "explain", &value)) {
      if (value.empty() && i + 1 < argc) value = argv[++i];
      return diag::explain("peppher-lint", value, "docs/lint.md");
    } else if (cli::match_switch(arg, "format", &value)) {
      if (value != "text" && value != "json" && value != "sarif") {
        std::cerr << "peppher-lint: unknown format '" << value << "'\n";
        return usage(std::cerr);
      }
      format = value;
    } else if (cli::match_switch(arg, "machine", &value)) {
      try {
        options.machine = sim::machine_preset(value);
      } catch (const Error& e) {
        std::cerr << "peppher-lint: " << e.what() << "\n";
        return 2;
      }
    } else if (cli::match_switch(arg, "cluster", &value)) {
      if (value.empty() && i + 1 < argc) value = argv[++i];
      try {
        options.cluster = sim::parse_cluster(fs::read_file(value));
      } catch (const ParseError& e) {
        std::cerr << "peppher-lint: --cluster: " << value << ": " << e.what()
                  << "\n";
        return 2;
      } catch (const Error& e) {
        std::cerr << "peppher-lint: --cluster: " << e.what() << "\n";
        return 2;
      }
    } else if (cli::match_switch(arg, "disableImpls", &value)) {
      for (std::string& name : strings::split(value, ',')) {
        std::string trimmed(strings::trim(name));
        if (!trimmed.empty()) options.disable_impls.push_back(trimmed);
      }
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "peppher-lint: unknown switch '" << arg << "'\n";
      return usage(std::cerr);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(std::cerr);

  diag::DiagnosticBag bag;
  for (const std::string& path : paths) {
    if (!std::filesystem::exists(path)) {
      std::cerr << "peppher-lint: no such file or directory: '" << path
                << "'\n";
      return 2;
    }
    bag.merge(analyze::lint_path(path, options).diagnostics());
  }
  bag.sort();

  if (format == "json") {
    std::cout << bag.format_json() << "\n";
  } else if (format == "sarif") {
    std::cout << bag.format_sarif() << "\n";
  } else if (!bag.empty()) {
    std::cout << bag.format_text();
  }
  return bag.fails(werror) ? 1 : 0;
}
