// peppher-predict: static whole-program cost prediction (src/analyze,
// docs/predict.md). Analyzes a component repository plus main module and
// predicts the makespan on a hypothetical machine, without running the
// program:
//
//   peppher-predict analyze <dir-or-descriptor.xml>... [switches]
//   peppher-predict whatif  <dir-or-descriptor.xml>... --target=<tasks/s>
//
// Switches:
//   --machine=<preset>         machine preset the program is costed for
//                              (sim::kMachinePresets)
//   --models=<dir>             performance-model directory (.model files,
//                              as written by peppher-perf --models-out)
//   --size=NAME=BYTES          container size binding (repeatable)
//   --default-size=BYTES       size of containers not bound by --size
//   --calibration=<N>          samples before an exact mean is calibrated
//                              (match the engine's calibration_samples)
//   --max-steps=<N>            statement-evaluation budget (PL077 beyond)
//   --target=<tasks/s>         whatif: throughput target
//   --max-devices=<N>          whatif: largest device count tried (default 64)
//   --dispatch-out=<path>      analyze: also export the per-point greedy
//                              placements as a runtime dispatch table (the
//                              static prior EngineConfig::dispatch_table
//                              replays; docs/runtime.md)
//   --format=text|json|sarif   output renderer (default text, to stdout)
//   --werror                   warnings fail the run too
//   --explain=PLxxx|all        print registry metadata, then exit
//
// Exit status: 0 clean (or findings below the failure threshold), 1 fatal
// findings, 2 usage error / unreadable descriptors or model files.
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/predict.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"

namespace {

using namespace peppher;

int usage(std::ostream& out) {
  out << "usage: peppher-predict analyze <dir-or-descriptor.xml>... "
         "[switches]\n"
         "       peppher-predict whatif <dir-or-descriptor.xml>... "
         "--target=<tasks/s>\n"
         "  --machine=<"
      << sim::kMachinePresets
      << ">\n"
         "  --models=<dir>\n"
         "  --size=NAME=BYTES (repeatable)\n"
         "  --default-size=BYTES\n"
         "  --calibration=<N>\n"
         "  --max-steps=<N>\n"
         "  --target=<tasks/s> --max-devices=<N>\n"
         "  --dispatch-out=<path>\n"
         "  --format=text|json|sarif\n"
         "  --werror\n"
         "  --explain=PLxxx|all\n";
  return 2;
}

/// Loads every descriptor under the paths into one repository; parse
/// failures become PL000 findings (the prediction still runs over what
/// loaded).
desc::Repository load_repository(const std::vector<std::string>& paths,
                                 diag::DiagnosticBag& bag) {
  desc::Repository repo;
  for (const std::string& path : paths) {
    std::filesystem::path root = std::filesystem::is_directory(path)
                                     ? std::filesystem::path(path)
                                     : std::filesystem::path(path).parent_path();
    if (root.empty()) root = ".";
    for (const std::filesystem::path& file :
         fs::list_files_recursive(root, ".xml")) {
      try {
        repo.load_file(file);
      } catch (const ParseError& e) {
        bag.add("PL000", diag::Severity::kError, e.what(),
                diag::SourceLocation{file.string(), e.line(), e.column()});
      } catch (const Error& e) {
        bag.add("PL000", diag::Severity::kError, e.what(),
                diag::SourceLocation{file.string(), 0, 0});
      }
    }
  }
  return repo;
}

void render(const diag::DiagnosticBag& bag, const std::string& format) {
  if (format == "json") {
    std::cout << bag.format_json() << "\n";
  } else if (format == "sarif") {
    std::cout << bag.format_sarif() << "\n";
  } else if (!bag.empty()) {
    std::cout << bag.format_text();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  analyze::PredictOptions options;
  std::string mode;
  std::string format = "text";
  std::string models_dir;
  bool werror = false;
  double target = 0.0;
  bool have_target = false;
  int max_devices = 64;
  std::string dispatch_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "-h" || arg == "-help" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (mode.empty() && (arg == "analyze" || arg == "whatif")) {
      mode = arg;
    } else if (arg == "-werror" || arg == "--werror") {
      werror = true;
    } else if (cli::match_switch(arg, "explain", &value)) {
      if (value.empty() && i + 1 < argc) value = argv[++i];
      return diag::explain("peppher-predict", value, "docs/predict.md");
    } else if (cli::match_switch(arg, "format", &value)) {
      if (value != "text" && value != "json" && value != "sarif") {
        std::cerr << "peppher-predict: unknown format '" << value << "'\n";
        return usage(std::cerr);
      }
      format = value;
    } else if (cli::match_switch(arg, "machine", &value)) {
      try {
        options.machine = sim::machine_preset(value);
      } catch (const Error& e) {
        std::cerr << "peppher-predict: " << e.what() << "\n";
        return 2;
      }
    } else if (cli::match_switch(arg, "models", &value)) {
      models_dir = value;
    } else if (cli::match_switch(arg, "size", &value)) {
      const std::size_t eq = value.find('=');
      std::optional<long long> bytes;
      if (eq != std::string::npos) {
        bytes = strings::to_int(value.substr(eq + 1));
      }
      if (eq == std::string::npos || eq == 0 || !bytes || *bytes < 0) {
        std::cerr << "peppher-predict: --size needs NAME=BYTES, got '" << value
                  << "'\n";
        return 2;
      }
      options.sizes[value.substr(0, eq)] = static_cast<std::size_t>(*bytes);
    } else if (cli::match_switch(arg, "default-size", &value)) {
      const auto bytes = strings::to_int(value);
      if (!bytes || *bytes < 0) return usage(std::cerr);
      options.default_bytes = static_cast<std::size_t>(*bytes);
    } else if (cli::match_switch(arg, "calibration", &value)) {
      const auto n = strings::to_int(value);
      if (!n || *n < 0) return usage(std::cerr);
      options.calibration_min = static_cast<std::uint64_t>(*n);
    } else if (cli::match_switch(arg, "max-steps", &value)) {
      const auto n = strings::to_int(value);
      if (!n || *n <= 0) return usage(std::cerr);
      options.max_steps = static_cast<int>(*n);
    } else if (cli::match_switch(arg, "max-devices", &value)) {
      const auto n = strings::to_int(value);
      if (!n || *n <= 0) return usage(std::cerr);
      max_devices = static_cast<int>(*n);
    } else if (cli::match_switch(arg, "target", &value)) {
      try {
        target = std::stod(value);
      } catch (const std::exception&) {
        return usage(std::cerr);
      }
      have_target = true;
    } else if (cli::match_switch(arg, "dispatch-out", &value)) {
      dispatch_out = value;
    } else if (cli::match_switch(arg, "disableImpls", &value)) {
      for (std::string& name : strings::split(value, ',')) {
        std::string trimmed(strings::trim(name));
        if (!trimmed.empty()) options.lint.disable_impls.push_back(trimmed);
      }
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "peppher-predict: unknown switch '" << arg << "'\n";
      return usage(std::cerr);
    } else {
      paths.push_back(arg);
    }
  }
  if (mode.empty() || paths.empty()) return usage(std::cerr);
  if (mode == "whatif" && !have_target) {
    std::cerr << "peppher-predict: whatif needs --target=<tasks/s>\n";
    return usage(std::cerr);
  }

  diag::DiagnosticBag bag;
  const desc::Repository repo = load_repository(paths, bag);

  rt::PerfRegistry models;
  if (!models_dir.empty()) {
    try {
      models.load(models_dir);
    } catch (const ParseError& e) {
      // A malformed .model file is a usage-level failure with a precise
      // location: the prediction would silently degrade to guesses.
      std::cerr << e.what() << "\n";
      return 2;
    } catch (const Error& e) {
      std::cerr << "peppher-predict: " << e.what() << "\n";
      return 2;
    }
  }

  if (mode == "analyze") {
    analyze::PredictResult result = analyze::predict_main(repo, models, options);
    if (!dispatch_out.empty()) {
      try {
        analyze::export_dispatch(result, options.machine.name)
            .save(dispatch_out);
      } catch (const Error& e) {
        std::cerr << "peppher-predict: " << e.what() << "\n";
        return 2;
      }
    }
    bag.merge(result.bag.diagnostics());
    bag.sort();
    if (format == "json") {
      std::cout << "{\"diagnostics\":" << bag.format_json()
                << ",\"report\":" << result.report_json() << "}\n";
    } else {
      render(bag, format);
      if (format == "text") std::cout << result.report_text();
    }
    return bag.fails(werror) ? 1 : 0;
  }

  analyze::WhatIfResult result =
      analyze::whatif(repo, models, options, target, max_devices);
  bag.merge(result.base.bag.diagnostics());
  bag.merge(result.bag.diagnostics());
  bag.sort();
  if (format == "json") {
    std::ostringstream whatif_json;
    whatif_json.precision(17);
    whatif_json << "{\"target_tasks_per_second\":" << result.target_tasks_per_second
                << ",\"max_devices\":" << result.max_devices
                << ",\"min_devices\":" << result.min_devices
                << ",\"achieved_tasks_per_second\":"
                << result.achieved_tasks_per_second << ",\"makespans\":[";
    for (std::size_t i = 0; i < result.makespans.size(); ++i) {
      if (i > 0) whatif_json << ',';
      whatif_json << result.makespans[i];
    }
    whatif_json << "]}";
    std::cout << "{\"diagnostics\":" << bag.format_json()
              << ",\"whatif\":" << whatif_json.str()
              << ",\"report\":" << result.base.report_json() << "}\n";
  } else {
    render(bag, format);
    if (format == "text") std::cout << result.report_text();
  }
  return bag.fails(werror) ? 1 : 0;
}
