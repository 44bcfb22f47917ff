// Distributed scaling over simulated cluster nodes (the PR-9 tentpole):
// the 2-D Jacobi stencil with halo exchange and the row-partitioned SpMV
// are run on 1 -> 2 -> 4 uniform C2050 nodes joined by a 10GbE-class
// inter-node link, at a FIXED per-node problem size (weak scaling).
//
// Two headline numbers, both gated in bench/gates.json:
//
//   overlap_speedup_4node   blocking / overlapped virtual makespan of the
//                           4-node Jacobi run. Identical numerics and
//                           traffic; only the dependency shape differs
//                           (JacobiConfig::overlap). Gate: >= 1.3x.
//   weak_scaling_4node      scaled speedup nodes * T(1) / T(nodes) of the
//                           overlapped Jacobi run at 4 nodes — 4.0 would be
//                           perfect weak scaling, the inter-node exchange
//                           is the loss term. Gate: >= 2.0x.
//
// --smoke uses tiny grids and few sweeps (bench/report.hpp).
#include <chrono>
#include <string>

#include "apps/distributed.hpp"
#include "apps/spmv.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"
#include "sim/topology.hpp"

using namespace peppher;

namespace {

struct Row {
  std::string workload;
  int nodes = 1;
  std::string exchange;  ///< "overlapped" | "blocking" | "-" (spmv)
  double virtual_s = 0.0;
  double wall_ms = 0.0;
  std::uint64_t internode_transfers = 0;
  std::uint64_t internode_bytes = 0;
};

/// Records `row` and returns its virtual makespan.
double emit(const Row& row, bench::Report& report) {
  const bench::Labels labels = {{"workload", row.workload},
                                {"nodes", std::to_string(row.nodes)},
                                {"exchange", row.exchange}};
  report.add("virtual_s", labels, row.virtual_s, "s", bench::Clock::kVirtual);
  report.add("internode_transfers", labels,
             static_cast<double>(row.internode_transfers), "count",
             bench::Clock::kNone);
  report.add("internode_bytes", labels,
             static_cast<double>(row.internode_bytes), "bytes",
             bench::Clock::kNone);
  report.add("wall_ms", labels, row.wall_ms, "ms", bench::Clock::kWall);
  return row.virtual_s;
}

rt::EngineConfig cluster_config(int nodes) {
  rt::EngineConfig config;
  config.cluster =
      sim::ClusterConfig::uniform(nodes, sim::MachineConfig::platform_c2050());
  config.use_history_models = false;
  config.enable_prefetch = false;
  return config;
}

Row run_jacobi_row(int nodes, bool overlap, std::size_t rows_per_node,
                   std::size_t cols, int iterations) {
  apps::dist::JacobiConfig jacobi;
  jacobi.rows = rows_per_node * static_cast<std::size_t>(nodes);
  jacobi.cols = cols;
  jacobi.iterations = iterations;
  jacobi.overlap = overlap;

  rt::Engine engine(cluster_config(nodes));
  const auto wall_start = std::chrono::steady_clock::now();
  const apps::dist::JacobiResult result = apps::dist::run_jacobi(engine, jacobi);
  const auto wall_end = std::chrono::steady_clock::now();

  Row row;
  row.workload = "jacobi";
  row.nodes = nodes;
  row.exchange = overlap ? "overlapped" : "blocking";
  row.virtual_s = result.virtual_seconds;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  row.internode_transfers = result.transfers.internode_count;
  row.internode_bytes = result.transfers.internode_bytes;
  return row;
}

Row run_spmv_row(int nodes, double scale_per_node) {
  const apps::spmv::Problem problem = apps::spmv::make_problem(
      apps::sparse::MatrixClass::kHB, scale_per_node * nodes);

  rt::Engine engine(cluster_config(nodes));
  const auto wall_start = std::chrono::steady_clock::now();
  const apps::spmv::RunResult result =
      apps::dist::run_distributed_spmv(engine, problem);
  const auto wall_end = std::chrono::steady_clock::now();

  Row row;
  row.workload = "spmv";
  row.nodes = nodes;
  row.exchange = "-";
  row.virtual_s = result.virtual_seconds;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
  row.internode_transfers = result.transfers.internode_count;
  row.internode_bytes = result.transfers.internode_bytes;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("distributed_scaling", argc, argv);
  const bool smoke = report.smoke();
  const std::size_t rows_per_node = smoke ? 16 : 512;
  const std::size_t cols = smoke ? 64 : 2048;
  const int iterations = smoke ? 2 : 8;
  const double spmv_scale = smoke ? 0.02 : 0.10;

  apps::dist::register_components();

  double overlapped_s[5] = {};  // indexed by node count
  for (const int nodes : {1, 2, 4}) {
    overlapped_s[nodes] =
        emit(run_jacobi_row(nodes, /*overlap=*/true, rows_per_node, cols,
                            iterations),
             report);
  }
  const double blocking_4node_s =
      emit(run_jacobi_row(4, /*overlap=*/false, rows_per_node, cols,
                          iterations),
           report);
  for (const int nodes : {1, 2, 4}) {
    emit(run_spmv_row(nodes, spmv_scale), report);
  }

  report.add("overlap_speedup_4node", {}, blocking_4node_s / overlapped_s[4],
             "x", bench::Clock::kVirtual);
  report.add("weak_scaling_4node", {}, 4.0 * overlapped_s[1] / overlapped_s[4],
             "x", bench::Clock::kVirtual);
  return report.finish();
}
