// perfbench: one workload of the end-to-end benchmark (see METRICS.md).
//
//   perfbench --workload ode_chain|spmv_hybrid|suite_sessions --seed N
//             --seconds S --trace 0|1 --work-dir DIR --headers DIR
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: the workload's metrics (end-to-end with --trace 0, per-layer with
// --trace 1) with their units and sample counts, the result-check counts,
// the mechanism guards and extra context. Exits 1 when a result check
// failed or a guard tripped, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ode_chain|spmv_hybrid|suite_sessions "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --headers DIR\n",
               argv0);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--headers") {
      options.headers_dir = value;
    } else {
      usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_seed || options.work_dir.empty() ||
      options.headers_dir.empty() || options.seconds <= 0.0) {
    usage(argv[0]);
  }
  std::filesystem::create_directories(options.work_dir);

  Harness harness(options);
  Info info;
  try {
    if (options.workload == "ode_chain") {
      info = run_ode_chain(harness);
    } else if (options.workload == "spmv_hybrid") {
      info = run_spmv_hybrid(harness);
    } else if (options.workload == "suite_sessions") {
      info = run_suite_sessions(harness);
    } else {
      usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (options.trace) {
    harness.spans().write_jsonl(options.work_dir / "spans.jsonl");
    info["spans_kept"] = static_cast<double>(harness.spans().kept());
    info["spans_recorded"] = static_cast<double>(harness.spans().recorded());
  }

  bool guards_ok = true;
  std::string guards;
  for (const auto& [name, ok] : harness.guards()) {
    guards += (guards.empty() ? "" : ", ") + json_string(name) + ": " +
              (ok ? "true" : "false");
    guards_ok = guards_ok && ok;
    if (!ok) std::fprintf(stderr, "perfbench: guard tripped: %s\n", name.c_str());
  }
  std::string metrics;
  for (const auto& [name, m] : harness.metrics(!options.trace)) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) + ": {\"value\": " +
               value + ", \"unit\": " + json_string(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) +
               (m.note.empty() ? "" : ", \"note\": " + json_string(m.note)) + "}";
  }
  std::string extra;
  for (const auto& [name, v] : info) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    extra += (extra.empty() ? "" : ", ") + json_string(name) + ": " + value;
  }
  const bool correct = harness.failed() == 0 && guards_ok;
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"guards\": {%s}, "
      "\"metrics\": {%s}, \"info\": {%s}}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      correct ? "true" : "false",
      static_cast<unsigned long long>(harness.attempted()),
      static_cast<unsigned long long>(harness.failed()), guards.c_str(),
      metrics.c_str(), extra.c_str());
  return correct ? 0 : 1;
}
