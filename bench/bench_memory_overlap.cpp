// Overlapped data movement: measures what the duplex per-device link lanes
// and scheduler-driven prefetch buy on a transfer-bound pipelined workload.
//
// The workload is the hybrid chunk-upload pattern: one large host array is
// registered as contiguous slices, and each task streams one slice to a GPU
// (cost model makes the PCIe upload ~18x the kernel time, so the link is the
// bottleneck). Half the slices are pinned to each GPU of a dual-C2050 box.
// Three runtime configurations are compared on identical numerics:
//
//   shared_bus              one half-duplex link clock for the whole machine
//                           (the legacy Figure-5 contention model)
//   duplex_lanes            independent H2D/D2H clocks per device
//   duplex_lanes_prefetch   + dmda commit hints warm read operands in the
//                           background (EngineConfig::enable_prefetch)
//
// Headline: virtual-makespan speedup of the duplex lanes over the shared
// bus. Expected ~2x on two GPUs (each device's uploads ride its own lane),
// which is what BENCH_memory_overlap.json records.
//
// --smoke uses tiny slices and few tasks (bench/report.hpp).
#include <chrono>
#include <string>
#include <vector>

#include "report.hpp"
#include "runtime/engine.hpp"
#include "sim/device.hpp"

using namespace peppher;

namespace {

struct Setup {
  const char* name;
  bool shared_bus = false;
  bool prefetch = false;
};

/// Runs one configuration and records its rows; returns its virtual
/// makespan.
double run_config(const Setup& setup, int tasks, std::size_t slice_floats,
                  bench::Report& report) {
  sim::MachineConfig machine = sim::MachineConfig::platform_dual_c2050();
  machine.link =
      setup.shared_bus ? sim::LinkProfile::pcie2_x16_shared()
                       : sim::LinkProfile::pcie2_x16();

  rt::EngineConfig config;
  config.machine = machine;
  config.scheduler = "dmda";
  config.use_history_models = false;
  config.enable_prefetch = setup.prefetch;
  rt::Engine engine(config);

  std::vector<rt::WorkerId> gpu_workers;
  for (const auto& worker : engine.workers()) {
    if (worker.node != rt::kHostNode) gpu_workers.push_back(worker.id);
  }

  // One big array registered as contiguous slices (the hybrid SpMV chunk
  // pattern); per-task scalar outputs.
  std::vector<float> input(static_cast<std::size_t>(tasks) * slice_floats,
                           1.0f);
  std::vector<float> output(static_cast<std::size_t>(tasks), 0.0f);

  rt::Codelet codelet("slice_reduce");
  rt::Implementation impl;
  impl.arch = rt::Arch::kCuda;
  impl.name = "slice_reduce_cuda";
  impl.fn = [](rt::ExecContext& ctx) {
    const auto* in = ctx.buffer_as<const float>(0);
    auto* out = ctx.buffer_as<float>(1);
    float acc = 0.0f;
    for (std::size_t i = 0; i < ctx.elements(0); i += 997) acc += in[i];
    out[0] = acc;
  };
  impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
    // Streaming read of the slice: on a C2050 this is ~18x faster than the
    // PCIe upload of the same bytes, which makes the workload link-bound.
    return sim::KernelCost{0.0, static_cast<double>(bytes[0]), 1.0};
  };
  codelet.add_impl(std::move(impl));

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<rt::DataHandlePtr> keep_alive;
  for (int t = 0; t < tasks; ++t) {
    auto h_in = engine.register_buffer(
        input.data() + static_cast<std::size_t>(t) * slice_floats,
        slice_floats * sizeof(float), sizeof(float));
    auto h_out = engine.register_buffer(&output[static_cast<std::size_t>(t)],
                                        sizeof(float), sizeof(float));
    keep_alive.push_back(h_in);
    keep_alive.push_back(h_out);

    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{h_in, rt::AccessMode::kRead},
                     {h_out, rt::AccessMode::kWrite}};
    // Block-contiguous device assignment: the first half of the slices
    // streams to GPU 0, the second half to GPU 1.
    const std::size_t gpu =
        (t < tasks / 2 || gpu_workers.size() < 2) ? 0 : 1;
    spec.forced_worker = gpu_workers[gpu];
    spec.name = "slice" + std::to_string(t);
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  engine.drain_prefetches();
  const auto wall_end = std::chrono::steady_clock::now();

  const double virtual_s = engine.virtual_makespan();
  const bench::Labels config_label = {{"config", setup.name}};
  const auto count = [&](const char* metric, std::uint64_t value) {
    report.add(metric, config_label, static_cast<double>(value), "count",
               bench::Clock::kNone);
  };
  report.add("virtual_s", config_label, virtual_s, "s",
             bench::Clock::kVirtual);
  count("h2d_transfers", engine.transfer_stats().host_to_device_count);
  count("prefetch_enqueued", engine.prefetch_stats().enqueued);
  count("prefetch_completed", engine.prefetch_stats().completed);
  report.add("wall_ms", config_label,
             std::chrono::duration<double, std::milli>(wall_end - wall_start)
                 .count(),
             "ms", bench::Clock::kWall);
  return virtual_s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("memory_overlap", argc, argv);
  const int tasks = report.smoke() ? 8 : 32;
  const std::size_t slice_floats =
      (report.smoke() ? (1u << 20) : (8u << 20)) / sizeof(float);

  const std::vector<Setup> setups = {
      {"shared_bus", true, false},
      {"duplex_lanes", false, false},
      {"duplex_lanes_prefetch", false, true},
  };
  double shared_bus_s = 0.0;
  for (const Setup& setup : setups) {
    const double virtual_s = run_config(setup, tasks, slice_floats, report);
    if (&setup == &setups.front()) shared_bus_s = virtual_s;
    report.add("speedup_vs_shared_bus", {{"config", setup.name}},
               shared_bus_s / virtual_s, "x", bench::Clock::kVirtual);
  }
  return report.finish();
}
