// peppher-perf: runtime-trace recorder and bottleneck analyzer (src/perf).
//
// Analyze mode (default) ingests a peppher-trace JSON document (schema v1,
// docs/perf.md) and reports PF0xx findings through the same diagnostics
// engine peppher-lint uses:
//
//   peppher-perf <trace.json> [switches]
//
// Record mode runs the ODE solver example through the runtime with tracing
// on and writes the trace (optionally also the chrome://tracing view):
//
//   peppher-perf --record=ode --out=trace.json [switches]
//
// Switches:
//   --format=text|json|sarif   output renderer (default text, to stdout)
//   --werror                   warnings fail the run too
//   --explain=PFxxx|all        print the code's severity, summary and
//                              remediation from the registry (or catalogue
//                              every registered code), then exit
//   --record=ode               record instead of analyze
//   --out=<path>               where record mode writes the trace
//   --chrome=<path>            also write the chrome://tracing JSON
//   --models-out=<dir>         also sample execution times and persist the
//                              .model files there (peppher-predict input)
//   --machine=<preset>         machine preset to record on
//                              (sim::kMachinePresets; cpuN = N cores)
//   --scheduler=<policy>       one of rt::scheduler_names() (default dmda)
//   --window=<N>               lookahead window size (default 8)
//   --dispatch-out=<path>      train a static-composition dispatch table
//                              and write it here at shutdown
//   --dispatch=<path>          replay placements from a trained table
//                              (lookahead scheduler required)
//   --force=<cpu|cuda|opencl>  pin every task to one architecture
//   --n=<size> --steps=<count> ODE problem size (defaults 96 / 24)
//
// Exit status: 0 clean (or findings below the failure threshold), 1 fatal
// findings, 2 usage error / unreadable or malformed trace.
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "apps/ode.hpp"
#include "perf/analyze.hpp"
#include "perf/trace.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "sim/device.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"

namespace {

using namespace peppher;

int usage(std::ostream& out) {
  out << "usage: peppher-perf <trace.json> [switches]\n"
         "       peppher-perf --record=ode --out=trace.json [switches]\n"
         "  --format=text|json|sarif\n"
         "  --werror\n"
         "  --explain=PFxxx|all\n"
         "  --chrome=<path>\n"
         "  --models-out=<dir>\n"
         "  --machine=<"
      << sim::kMachinePresets
      << ">\n"
         "  --scheduler=<"
      << strings::join(rt::scheduler_names(), "|")
      << ">\n"
         "  --window=<N>\n"
         "  --dispatch-out=<path> --dispatch=<path>\n"
         "  --force=<cpu|cuda|opencl>\n"
         "  --n=<size> --steps=<count>\n";
  return 2;
}

std::optional<rt::Arch> force_arch(const std::string& name) {
  if (name == "cpu") return rt::Arch::kCpu;
  if (name == "cuda") return rt::Arch::kCuda;
  if (name == "opencl") return rt::Arch::kOpenCl;
  throw Error(ErrorCode::kInvalidArgument,
              "unknown --force arch '" + name + "' (cpu|cuda|opencl)");
}

struct RecordOptions {
  std::string out;
  std::string chrome;
  std::string models_out;
  sim::MachineConfig machine = sim::MachineConfig::platform_c2050();
  std::string scheduler = "dmda";
  std::optional<rt::Arch> force;
  std::uint32_t n = 96;
  int steps = 24;
  int window = 8;
  std::string dispatch_out;  ///< train + persist a dispatch table
  std::string dispatch;      ///< replay placements from a trained table
};

/// Runs the ODE pipeline with tracing on and writes the trace document.
int record_ode(const RecordOptions& options) {
  rt::EngineConfig config;
  config.machine = options.machine;
  config.scheduler = options.scheduler;
  config.enable_trace = true;
  // Cost hints only: recorded history would make the trace depend on the
  // sampling directory's state, and recordings should be reproducible.
  config.use_history_models = false;
  // A non-empty sampling dir turns on execution-time sampling; the engine
  // persists the .model files there at shutdown (peppher-predict input).
  config.sampling_dir = options.models_out;
  config.window_size = options.window;
  config.dispatch_out = options.dispatch_out;
  config.dispatch_table = options.dispatch;

  apps::ode::register_components();
  {
    rt::Engine engine(config);
    engine.trace_phase("ode:init");
    const apps::ode::Problem problem =
        apps::ode::make_problem(options.n, options.steps);
    const apps::ode::RunResult result =
        apps::ode::run_tool(engine, problem, options.force);
    engine.trace_phase("ode:done");

    fs::write_file(options.out, engine.trace_json());
    if (!options.chrome.empty()) {
      fs::write_file(options.chrome, engine.trace().to_chrome_json());
    }
    std::cout << "peppher-perf: recorded " << result.invocations
              << " invocations (" << result.virtual_seconds
              << " s virtual) to " << options.out << "\n";
  }  // engine shutdown flushes the models
  if (!options.models_out.empty()) {
    std::cout << "peppher-perf: performance models written to "
              << options.models_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string format = "text";
  bool werror = false;
  std::string record;
  RecordOptions record_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "-h" || arg == "-help" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (arg == "-werror" || arg == "--werror") {
      werror = true;
    } else if (cli::match_switch(arg, "explain", &value)) {
      if (value.empty() && i + 1 < argc) value = argv[++i];
      return diag::explain("peppher-perf", value, "docs/perf.md");
    } else if (cli::match_switch(arg, "format", &value)) {
      if (value != "text" && value != "json" && value != "sarif") {
        std::cerr << "peppher-perf: unknown format '" << value << "'\n";
        return usage(std::cerr);
      }
      format = value;
    } else if (cli::match_switch(arg, "record", &value)) {
      if (value != "ode") {
        std::cerr << "peppher-perf: unknown recording '" << value
                  << "' (only 'ode')\n";
        return usage(std::cerr);
      }
      record = value;
    } else if (cli::match_switch(arg, "out", &value)) {
      record_options.out = value;
    } else if (cli::match_switch(arg, "chrome", &value)) {
      record_options.chrome = value;
    } else if (cli::match_switch(arg, "models-out", &value)) {
      record_options.models_out = value;
    } else if (cli::match_switch(arg, "machine", &value)) {
      try {
        record_options.machine = sim::machine_preset(value);
      } catch (const Error& e) {
        std::cerr << "peppher-perf: " << e.what() << "\n";
        return 2;
      }
    } else if (cli::match_switch(arg, "scheduler", &value)) {
      record_options.scheduler = value;
    } else if (cli::match_switch(arg, "window", &value)) {
      const auto window = strings::to_int(value);
      if (!window || *window <= 0 || *window > 1024) {
        std::cerr << "peppher-perf: --window needs an integer in [1, 1024]\n";
        return usage(std::cerr);
      }
      record_options.window = static_cast<int>(*window);
    } else if (cli::match_switch(arg, "dispatch-out", &value)) {
      record_options.dispatch_out = value;
    } else if (cli::match_switch(arg, "dispatch", &value)) {
      record_options.dispatch = value;
    } else if (cli::match_switch(arg, "force", &value)) {
      try {
        record_options.force = force_arch(value);
      } catch (const Error& e) {
        std::cerr << "peppher-perf: " << e.what() << "\n";
        return 2;
      }
    } else if (cli::match_switch(arg, "n", &value)) {
      const auto n = strings::to_int(value);
      if (!n || *n <= 0) return usage(std::cerr);
      record_options.n = static_cast<std::uint32_t>(*n);
    } else if (cli::match_switch(arg, "steps", &value)) {
      const auto steps = strings::to_int(value);
      if (!steps || *steps <= 0) return usage(std::cerr);
      record_options.steps = static_cast<int>(*steps);
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "peppher-perf: unknown switch '" << arg << "'\n";
      return usage(std::cerr);
    } else {
      paths.push_back(arg);
    }
  }

  if (!record.empty()) {
    if (record_options.out.empty()) {
      std::cerr << "peppher-perf: --record needs --out=<path>\n";
      return usage(std::cerr);
    }
    try {
      return record_ode(record_options);
    } catch (const Error& e) {
      std::cerr << "peppher-perf: " << e.what() << "\n";
      return 2;
    }
  }

  if (paths.size() != 1) return usage(std::cerr);
  const std::string& path = paths.front();
  diag::DiagnosticBag bag;
  try {
    const perf::Trace trace = perf::parse_trace(fs::read_file(path));
    bag = perf::analyze_trace(trace);
  } catch (const ParseError& e) {
    // Malformed input is a usage-level failure with a precise location,
    // not a finding: the analyses never ran.
    std::cerr << path << ":" << e.line() << ":" << e.column() << ": "
              << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    std::cerr << "peppher-perf: " << e.what() << "\n";
    return 2;
  }

  if (format == "json") {
    std::cout << bag.format_json() << "\n";
  } else if (format == "sarif") {
    std::cout << bag.format_sarif() << "\n";
  } else if (!bag.empty()) {
    std::cout << bag.format_text();
  }
  return bag.fails(werror) ? 1 : 0;
}
