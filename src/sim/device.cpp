#include "sim/device.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::sim {

std::string to_string(DeviceClass device_class) {
  switch (device_class) {
    case DeviceClass::kCpuCore: return "cpu";
    case DeviceClass::kCudaGpu: return "cuda";
    case DeviceClass::kOpenClGpu: return "opencl";
  }
  return "unknown";
}

DeviceProfile DeviceProfile::xeon_e5520_core() {
  DeviceProfile p;
  p.name = "XeonE5520-core";
  p.device_class = DeviceClass::kCpuCore;
  // 2.27 GHz x 4-wide SSE = 9.08 GFLOP/s SP peak per core; scalar-ish codes
  // typically reach ~40 % of that.
  p.peak_gflops = 9.08;
  p.compute_efficiency = 0.40;
  // ~25.6 GB/s socket bandwidth shared by 4 cores.
  p.mem_bandwidth_gbs = 6.4;
  // Deep cache hierarchy keeps irregular access tolerable.
  p.irregular_bw_fraction = 0.45;
  p.launch_overhead_us = 0.5;
  p.memory_mb = 24576.0;  // host RAM on the evaluation machine
  p.busy_watts = 20.0;    // one core's share of the 80 W TDP
  return p;
}

DeviceProfile DeviceProfile::tesla_c2050() {
  DeviceProfile p;
  p.name = "TeslaC2050";
  p.device_class = DeviceClass::kCudaGpu;
  p.peak_gflops = 1030.0;
  p.compute_efficiency = 0.55;
  // 144 GB/s raw; ~115 GB/s achievable with ECC enabled.
  p.mem_bandwidth_gbs = 115.0;
  // Fermi's L1/L2 caches keep irregular kernels (bfs, spmv) viable.
  p.irregular_bw_fraction = 0.30;
  p.launch_overhead_us = 7.0;
  p.memory_mb = 3072.0;  // 3 GB GDDR5 (with ECC)
  p.busy_watts = 238.0;  // board TDP
  return p;
}

DeviceProfile DeviceProfile::tesla_c1060() {
  DeviceProfile p;
  p.name = "TeslaC1060";
  p.device_class = DeviceClass::kCudaGpu;
  p.peak_gflops = 933.0;
  p.compute_efficiency = 0.45;
  p.mem_bandwidth_gbs = 102.0;
  // GT200 has no general cache: irregular access collapses to a small
  // fraction of peak bandwidth.
  p.irregular_bw_fraction = 0.06;
  p.launch_overhead_us = 10.0;
  p.memory_mb = 4096.0;  // 4 GB GDDR3
  p.busy_watts = 188.0;  // board TDP
  return p;
}

DeviceProfile DeviceProfile::generic_opencl_gpu() {
  DeviceProfile p;
  p.name = "GenericOpenCL";
  p.device_class = DeviceClass::kOpenClGpu;
  p.peak_gflops = 720.0;
  p.compute_efficiency = 0.40;  // OpenCL kernels typically trail CUDA tuning
  p.mem_bandwidth_gbs = 90.0;
  p.irregular_bw_fraction = 0.20;
  p.launch_overhead_us = 12.0;
  p.memory_mb = 2048.0;
  p.busy_watts = 150.0;
  return p;
}

double execution_seconds(const DeviceProfile& device, const KernelCost& cost) {
  check(cost.flops >= 0.0 && cost.bytes >= 0.0, "KernelCost must be non-negative");
  const double regularity = std::clamp(cost.regularity, 0.0, 1.0);
  const double achieved_flops =
      device.peak_gflops * device.compute_efficiency * 1e9;
  // Geometric interpolation between full bandwidth (regularity 1) and the
  // device's irregular floor (regularity 0): cache-less devices collapse
  // quickly as access patterns degrade, cached ones degrade gracefully —
  // the property Figure 6(a) vs 6(b) of the paper turns on.
  const double bw_fraction =
      std::pow(device.irregular_bw_fraction, 1.0 - regularity);
  const double achieved_bw = device.mem_bandwidth_gbs * bw_fraction * 1e9;
  const double compute_time =
      achieved_flops > 0.0 ? cost.flops / achieved_flops : 0.0;
  const double memory_time = achieved_bw > 0.0 ? cost.bytes / achieved_bw : 0.0;
  return device.launch_overhead_us * 1e-6 + std::max(compute_time, memory_time);
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t salt)
    : plan_(plan), rng_(plan.seed ^ salt ^ 0xD6E8FEB86659FD93ULL) {}

bool FaultInjector::next_kernel_fails() {
  if (plan_.kernel_failure_rate <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return rng_.next_double() < plan_.kernel_failure_rate;
}

bool FaultInjector::next_transfer_fails() {
  if (plan_.transfer_failure_rate <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return rng_.next_double() < plan_.transfer_failure_rate;
}

void FaultInjector::record_kernel_success() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++kernel_successes_;
}

std::uint64_t FaultInjector::kernel_successes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kernel_successes_;
}

bool FaultInjector::death_due(double device_vtime) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (plan_.die_after_tasks > 0 && kernel_successes_ >= plan_.die_after_tasks) {
    return true;
  }
  return plan_.die_at_vtime > 0.0 && device_vtime >= plan_.die_at_vtime;
}

LinkProfile LinkProfile::pcie2_x16() {
  LinkProfile link;
  link.latency_us = 10.0;
  link.bandwidth_gbs = 8.0;
  return link;
}

LinkProfile LinkProfile::pcie2_x16_shared() {
  LinkProfile link = pcie2_x16();
  link.shared_bus = true;
  return link;
}

LinkProfile LinkProfile::cluster_10gbe() {
  LinkProfile link;
  link.latency_us = 50.0;
  link.bandwidth_gbs = 1.25;
  return link;
}

double transfer_seconds(const LinkProfile& link, std::size_t bytes) {
  return link.latency_us * 1e-6 +
         static_cast<double>(bytes) / (link.bandwidth_gbs * 1e9);
}

DeviceProfile combined_cpu_profile(const DeviceProfile& core, int cores) {
  DeviceProfile p = core;
  p.name = core.name + "-x" + std::to_string(cores);
  const double parallel_efficiency = 0.90;
  p.peak_gflops = core.peak_gflops * cores * parallel_efficiency;
  p.mem_bandwidth_gbs = core.mem_bandwidth_gbs * cores;
  p.launch_overhead_us = 2.0;  // thread-team fork/join
  p.busy_watts = core.busy_watts * cores;
  return p;
}

MachineConfig MachineConfig::platform_c2050() {
  MachineConfig m;
  m.name = "xeon-e5520+c2050";
  m.cpu_cores = 4;
  m.cpu_core = DeviceProfile::xeon_e5520_core();
  m.accelerators = {DeviceProfile::tesla_c2050()};
  m.link = LinkProfile::pcie2_x16();
  return m;
}

MachineConfig MachineConfig::platform_c1060() {
  MachineConfig m = platform_c2050();
  m.name = "xeon-e5520+c1060";
  m.accelerators = {DeviceProfile::tesla_c1060()};
  return m;
}

MachineConfig MachineConfig::platform_opencl() {
  MachineConfig m = platform_c2050();
  m.name = "xeon-e5520+opencl";
  m.accelerators = {DeviceProfile::generic_opencl_gpu()};
  return m;
}

MachineConfig MachineConfig::platform_dual_c2050() {
  MachineConfig m = platform_c2050();
  m.name = "xeon-e5520+2xc2050";
  m.accelerators = {DeviceProfile::tesla_c2050(), DeviceProfile::tesla_c2050()};
  return m;
}

MachineConfig MachineConfig::cpu_only(int cores) {
  MachineConfig m;
  m.name = "cpu-only";
  m.cpu_cores = cores;
  m.cpu_core = DeviceProfile::xeon_e5520_core();
  m.accelerators.clear();
  return m;
}

MachineConfig machine_preset(std::string_view name) {
  if (name == "c2050") return MachineConfig::platform_c2050();
  if (name == "c1060") return MachineConfig::platform_c1060();
  if (name == "opencl") return MachineConfig::platform_opencl();
  if (name == "dual_c2050") return MachineConfig::platform_dual_c2050();
  if (name == "cpu" || name == "cpu_only") return MachineConfig::cpu_only();
  if (strings::starts_with(name, "cpu")) {
    const auto cores = strings::to_int(name.substr(3));
    if (cores && *cores > 0 && *cores <= 256) {
      return MachineConfig::cpu_only(static_cast<int>(*cores));
    }
  }
  throw Error(ErrorCode::kInvalidArgument,
              "unknown machine preset '" + std::string(name) + "' (" +
                  std::string(kMachinePresets) + ")");
}

}  // namespace peppher::sim
