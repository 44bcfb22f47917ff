// Table I reproduction: "Comparison of total source LOC written by the
// programmer when using the composition tool compared to an equivalent code
// written directly using the runtime system."
//
// Counts physical non-blank source lines of the real driver pairs in
// src/apps/drivers (the same metric the paper uses, Park [13]); both
// versions of every application are compiled and equivalence-tested in
// tests/test_drivers.cpp, so the counted code is live code. `saved_loc` is
// signed, so a tool version longer than its direct one shows as negative.
// --smoke counts the same files (bench/report.hpp).
#include "apps/drivers/drivers.hpp"
#include "report.hpp"
#include "support/fs.hpp"

using namespace peppher;

namespace {

void add_app(bench::Report& report, const std::string& app, double tool,
             double direct) {
  const bench::Labels labels = {{"app", app}};
  const auto clock = bench::Clock::kNone;
  report.add("tool_loc", labels, tool, "lines", clock);
  report.add("direct_loc", labels, direct, "lines", clock);
  report.add("saved_loc", labels, direct - tool, "lines", clock);
  report.add("saved_pct", labels, 100.0 * (direct - tool) / direct, "%",
             clock);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("table1_loc", argc, argv);
  const std::filesystem::path root(PEPPHER_SOURCE_ROOT);
  double total_tool = 0.0, total_direct = 0.0;
  for (const auto& app : apps::drivers::driver_sources()) {
    const auto tool =
        static_cast<double>(fs::count_source_lines(root / app.tool_file));
    const auto direct =
        static_cast<double>(fs::count_source_lines(root / app.direct_file));
    total_tool += tool;
    total_direct += direct;
    add_app(report, app.app, tool, direct);
  }
  add_app(report, "TOTAL", total_tool, total_direct);
  return report.finish();
}
