// Prediction-accuracy validation for peppher-predict (docs/predict.md):
// for the paper's fig. 5 (SpMV) and fig. 7 (ODE) compositions, compare the
// statically predicted makespan against the simulated runtime's on three
// machine presets (C2050, C1060, CPU-only).
//
// Per (app, machine) the flow mirrors a real deployment:
//   1. calibrate — forced single-architecture runs with a sampling
//      directory, so the engine persists .model files (v2, with multi-term
//      fit lines) exactly as `peppher-perf --models-out` would;
//   2. simulate — a dmda run with the recorded history loaded, measuring
//      the engine's virtual makespan;
//   3. predict — `analyze::predict_main` over hand-authored descriptors of
//      the same composition, with the same models and container sizes.
//
// The records are predicted/simulated seconds, their ratio (the ±30% band
// is a gate in bench/gates.json, binding on full runs only: smoke sizes sit
// at the latency floor where ratios wobble) and whether the predictor ranks
// the machines in the same order the simulator does. --smoke uses tiny
// problem sizes (bench/report.hpp).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analyze/predict.hpp"
#include "apps/ode.hpp"
#include "apps/spmv.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

struct Machine {
  std::string name;
  sim::MachineConfig config;
  bool has_cuda = false;
};

std::vector<Machine> machines() {
  return {
      {"c2050", sim::MachineConfig::platform_c2050(), true},
      {"c1060", sim::MachineConfig::platform_c1060(), true},
      {"cpu4", sim::MachineConfig::cpu_only(4), false},
  };
}

rt::EngineConfig engine_config(const Machine& machine,
                               const std::filesystem::path& sampling_dir,
                               bool use_history) {
  rt::EngineConfig config;
  config.machine = machine.config;
  config.scheduler = "dmda";
  config.use_history_models = use_history;
  config.sampling_dir = sampling_dir;
  return config;
}

/// One composition to validate: how to calibrate/simulate it through the
/// engine and how to describe it to the predictor.
struct Workload {
  std::string name;
  std::vector<std::string> descriptors;  ///< interface/impl/main XML texts
  std::map<std::string, std::size_t> sizes;
  /// Runs the app through `engine` (forced arch for calibration, nullopt
  /// for the measured dmda run) and returns the virtual makespan.
  double (*run)(rt::Engine&, std::optional<rt::Arch>, bool smoke);
};

std::string impl_xml(const std::string& iface, const std::string& language) {
  return "<peppher-implementation name=\"" + iface + "_" + language +
         "\" interface=\"" + iface + "\">\n  <platform language=\"" +
         language + "\"/>\n</peppher-implementation>\n";
}

void add_impls(std::vector<std::string>* descriptors,
               const std::vector<std::string>& ifaces) {
  for (const std::string& iface : ifaces) {
    for (const char* language : {"cpu", "openmp", "cuda"}) {
      descriptors->push_back(impl_xml(iface, language));
    }
  }
}

// ---------------------------------------------------------------------------
// ODE (fig. 7): 2 setup calls + a steps-long loop of 9 calls. The param
// order of every interface matches the operand order apps::ode::run_tool
// submits, so the predictor's footprints equal the engine's.
// ---------------------------------------------------------------------------

// Full size n=1024 sits where the paper's fig. 7 makes the GPU profitable
// (the O(n^2) right-hand side dominates), so machine ranking is exercised.
std::uint32_t ode_n(bool smoke) { return smoke ? 48 : 1024; }
int ode_steps(bool smoke) { return smoke ? 3 : 12; }

double run_ode(rt::Engine& engine, std::optional<rt::Arch> force, bool smoke) {
  const apps::ode::Problem problem =
      apps::ode::make_problem(ode_n(smoke), ode_steps(smoke));
  return apps::ode::run_tool(engine, problem, force).virtual_seconds;
}

std::string ode_iface(const std::string& name,
                      const std::vector<std::pair<std::string, std::string>>&
                          params) {
  std::string xml = "<peppher-interface name=\"" + name +
                    "\">\n  <function returnType=\"void\">\n"
                    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n";
  for (const auto& [pname, mode] : params) {
    const bool readonly = mode == "read";
    xml += "    <param name=\"" + pname + "\" type=\"" +
           (readonly ? "const float*" : "float*") + "\" accessMode=\"" + mode +
           "\" size=\"n\"/>\n";
  }
  return xml + "  </function>\n</peppher-interface>\n";
}

Workload ode_workload(bool smoke) {
  Workload w;
  w.name = "fig7_ode";
  w.run = run_ode;
  const std::uint32_t n = ode_n(smoke);
  for (const char* vec : {"y", "k1", "k2", "k3", "k4", "t"}) {
    w.sizes[vec] = n * sizeof(float);
  }
  w.sizes["J"] = static_cast<std::size_t>(n) * n * sizeof(float);
  w.sizes["err"] = sizeof(float);

  w.descriptors = {
      ode_iface("ode_init", {{"t", "write"}}),
      ode_iface("ode_copy", {{"src", "read"}, {"dst", "write"}}),
      ode_iface("ode_rhs", {{"J", "read"}, {"y", "read"}, {"k", "write"}}),
      ode_iface("ode_stage2", {{"y", "read"}, {"k1", "read"}, {"t", "write"}}),
      ode_iface("ode_stage3", {{"y", "read"},
                               {"k1", "read"},
                               {"k2", "read"},
                               {"t", "write"}}),
      ode_iface("ode_stage4", {{"y", "read"},
                               {"k1", "read"},
                               {"k2", "read"},
                               {"k3", "read"},
                               {"t", "write"}}),
      ode_iface("ode_combine", {{"y", "readwrite"},
                                {"k1", "read"},
                                {"k2", "read"},
                                {"k3", "read"},
                                {"k4", "read"}}),
      ode_iface("ode_error", {{"k1", "read"},
                              {"k2", "read"},
                              {"k3", "read"},
                              {"k4", "read"},
                              {"err", "write"}}),
  };
  add_impls(&w.descriptors,
            {"ode_init", "ode_copy", "ode_rhs", "ode_stage2", "ode_stage3",
             "ode_stage4", "ode_combine", "ode_error"});

  auto rhs = [](const char* in, const char* out) {
    return std::string("      <call interface=\"ode_rhs\">"
                       "<arg param=\"J\" data=\"J\"/><arg param=\"y\" data=\"") +
           in + "\"/><arg param=\"k\" data=\"" + out + "\"/></call>\n";
  };
  std::string main_xml =
      "<peppher-main name=\"ode\" source=\"main.cpp\">\n  <calls>\n"
      "    <call interface=\"ode_init\"><arg param=\"t\" data=\"t\"/></call>\n"
      "    <call interface=\"ode_copy\"><arg param=\"src\" data=\"t\"/>"
      "<arg param=\"dst\" data=\"y\"/></call>\n"
      "    <loop count=\"" +
      std::to_string(ode_steps(smoke)) + "\">\n" + rhs("y", "k1") +
      "      <call interface=\"ode_stage2\"><arg param=\"y\" data=\"y\"/>"
      "<arg param=\"k1\" data=\"k1\"/><arg param=\"t\" data=\"t\"/></call>\n" +
      rhs("t", "k2") +
      "      <call interface=\"ode_stage3\"><arg param=\"y\" data=\"y\"/>"
      "<arg param=\"k1\" data=\"k1\"/><arg param=\"k2\" data=\"k2\"/>"
      "<arg param=\"t\" data=\"t\"/></call>\n" +
      rhs("t", "k3") +
      "      <call interface=\"ode_stage4\"><arg param=\"y\" data=\"y\"/>"
      "<arg param=\"k1\" data=\"k1\"/><arg param=\"k2\" data=\"k2\"/>"
      "<arg param=\"k3\" data=\"k3\"/><arg param=\"t\" data=\"t\"/></call>\n" +
      rhs("t", "k4") +
      "      <call interface=\"ode_combine\"><arg param=\"y\" data=\"y\"/>"
      "<arg param=\"k1\" data=\"k1\"/><arg param=\"k2\" data=\"k2\"/>"
      "<arg param=\"k3\" data=\"k3\"/><arg param=\"k4\" data=\"k4\"/></call>\n"
      "      <call interface=\"ode_error\"><arg param=\"k1\" data=\"k1\"/>"
      "<arg param=\"k2\" data=\"k2\"/><arg param=\"k3\" data=\"k3\"/>"
      "<arg param=\"k4\" data=\"k4\"/><arg param=\"err\" data=\"err\"/>"
      "</call>\n"
      "    </loop>\n  </calls>\n</peppher-main>\n";
  w.descriptors.push_back(std::move(main_xml));
  return w;
}

// ---------------------------------------------------------------------------
// SpMV (fig. 5): one whole-matrix spmv invocation (the direct baseline of
// the figure). Operand order matches apps::spmv::run_single.
// ---------------------------------------------------------------------------

apps::spmv::Problem spmv_problem(bool smoke) {
  return apps::spmv::make_problem(apps::sparse::MatrixClass::kHB,
                                  smoke ? 0.05 : 1.0);
}

double run_spmv(rt::Engine& engine, std::optional<rt::Arch> force,
                bool smoke) {
  const apps::spmv::Problem problem = spmv_problem(smoke);
  return apps::spmv::run_single(engine, problem, force).virtual_seconds;
}

Workload spmv_workload(bool smoke) {
  Workload w;
  w.name = "fig5_spmv";
  w.run = run_spmv;
  const apps::spmv::Problem problem = spmv_problem(smoke);
  w.sizes["values"] = problem.A.values.size() * sizeof(float);
  w.sizes["colidx"] = problem.A.colidx.size() * sizeof(std::uint32_t);
  w.sizes["rowptr"] = problem.A.rowptr.size() * sizeof(std::uint32_t);
  w.sizes["x"] = problem.x.size() * sizeof(float);
  w.sizes["y"] = static_cast<std::size_t>(problem.A.nrows) * sizeof(float);

  w.descriptors = {
      "<peppher-interface name=\"spmv\">\n"
      "  <function returnType=\"void\">\n"
      "    <param name=\"nrows\" type=\"int\" accessMode=\"read\"/>\n"
      "    <param name=\"values\" type=\"const float*\" accessMode=\"read\" "
      "size=\"nrows\"/>\n"
      "    <param name=\"colidx\" type=\"const float*\" accessMode=\"read\" "
      "size=\"nrows\"/>\n"
      "    <param name=\"rowptr\" type=\"const float*\" accessMode=\"read\" "
      "size=\"nrows\"/>\n"
      "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" "
      "size=\"nrows\"/>\n"
      "    <param name=\"y\" type=\"float*\" accessMode=\"write\" "
      "size=\"nrows\"/>\n"
      "  </function>\n"
      "</peppher-interface>\n",
      "<peppher-main name=\"spmv_app\" source=\"main.cpp\">\n  <calls>\n"
      "    <call interface=\"spmv\">"
      "<arg param=\"values\" data=\"values\"/>"
      "<arg param=\"colidx\" data=\"colidx\"/>"
      "<arg param=\"rowptr\" data=\"rowptr\"/>"
      "<arg param=\"x\" data=\"x\"/>"
      "<arg param=\"y\" data=\"y\"/></call>\n"
      "  </calls>\n</peppher-main>\n",
  };
  add_impls(&w.descriptors, {"spmv"});
  return w;
}

// ---------------------------------------------------------------------------
// The calibrate -> simulate -> predict pipeline
// ---------------------------------------------------------------------------

struct Row {
  std::string app;
  std::string machine;
  double predicted_s = 0.0;
  double simulated_s = 0.0;
};

Row evaluate(const Workload& workload, const Machine& machine,
             const std::filesystem::path& sampling_root, bool smoke) {
  const std::filesystem::path dir =
      sampling_root / (workload.name + "_" + machine.name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // 1. Calibrate: forced runs per architecture the machine provides; two
  // runs so even once-per-program codelets reach the engine's default
  // calibration threshold (2 samples per exact footprint). The engine
  // persists the .model files at shutdown.
  std::vector<rt::Arch> archs = {rt::Arch::kCpu, rt::Arch::kCpuOmp};
  if (machine.has_cuda) archs.push_back(rt::Arch::kCuda);
  for (const rt::Arch arch : archs) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      rt::Engine engine(engine_config(machine, dir, /*use_history=*/false));
      workload.run(engine, arch, smoke);
    }
  }

  // 2. Load the recorded models for the predictor BEFORE the measured run
  // appends its own samples to the directory.
  rt::PerfRegistry models;
  models.load(dir);

  // 3. Simulate: dmda with the recorded history loaded.
  double simulated = 0.0;
  {
    rt::Engine engine(engine_config(machine, dir, /*use_history=*/true));
    simulated = workload.run(engine, std::nullopt, smoke);
  }

  // 4. Predict over the descriptor form of the same composition.
  desc::Repository repo;
  for (const std::string& text : workload.descriptors) {
    repo.load_text(text);
  }
  analyze::PredictOptions options;
  options.machine = machine.config;
  options.sizes = workload.sizes;
  const analyze::PredictResult result =
      analyze::predict_main(repo, models, options);
  for (const diag::Diagnostic& d : result.bag.diagnostics()) {
    if (d.severity == diag::Severity::kError) {
      std::fprintf(stderr, "predictor error (%s on %s): %s\n",
                   workload.name.c_str(), machine.name.c_str(),
                   result.bag.format_text().c_str());
      break;
    }
  }

  Row row;
  row.app = workload.name;
  row.machine = machine.name;
  row.predicted_s = result.makespan.est;
  row.simulated_s = simulated;
  return row;
}

/// Machine names ordered fastest-first by the given per-machine makespans.
std::vector<std::string> order_of(const std::vector<Row>& rows,
                                  double Row::*field) {
  std::vector<const Row*> sorted;
  for (const Row& r : rows) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [field](const Row* a, const Row* b) {
                     return a->*field < b->*field;
                   });
  std::vector<std::string> names;
  for (const Row* r : sorted) names.push_back(r->machine);
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("predict_accuracy", argc, argv);
  const std::filesystem::path sampling_root =
      std::filesystem::temp_directory_path() / "peppher_predict_accuracy";

  for (const Workload& workload :
       {ode_workload(report.smoke()), spmv_workload(report.smoke())}) {
    std::vector<Row> rows;
    for (const Machine& machine : machines()) {
      const Row row = evaluate(workload, machine, sampling_root, report.smoke());
      const bench::Labels labels = {{"app", row.app}, {"machine", row.machine}};
      const auto clock = bench::Clock::kVirtual;
      report.add("predicted_s", labels, row.predicted_s, "s", clock);
      report.add("simulated_s", labels, row.simulated_s, "s", clock);
      report.add("ratio", labels,
                 row.simulated_s > 0.0 ? row.predicted_s / row.simulated_s
                                       : 0.0,
                 "x", clock);
      rows.push_back(row);
    }
    const bool matches = order_of(rows, &Row::predicted_s) ==
                         order_of(rows, &Row::simulated_s);
    report.add("ranking_matches", {{"app", workload.name}}, matches ? 1.0 : 0.0,
               "bool", bench::Clock::kVirtual);
  }
  std::filesystem::remove_all(sampling_root);
  return report.finish();
}
