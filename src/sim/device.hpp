// Device simulation substrate.
//
// The paper evaluates on real GPUs (NVIDIA Tesla C2050 / C1060) driven by
// StarPU. This reproduction has no GPU, so accelerators are *simulated*:
// each simulated device has its own memory space (separate host allocations
// standing in for device memory, so coherence and transfers are real code
// paths) and a roofline execution-cost model that converts a kernel's
// declared work (flops, bytes, access regularity) into *virtual seconds*.
// Virtual time drives the performance models, the locality-aware scheduler
// and every figure benchmark; numerics always come from really executing the
// kernel on a worker thread.
//
// Profile parameters follow the devices' public spec sheets:
//   * Xeon E5520 core: 2.27 GHz Nehalem, SSE 4-wide SP FMA-less
//   * Tesla C2050 (Fermi): 1.03 TFLOP/s SP, 144 GB/s, L1/L2 caches
//   * Tesla C1060 (GT200): 933 GFLOP/s SP, 102 GB/s, no cache hierarchy
// The cache difference is modelled as the achievable-bandwidth fraction for
// irregular access patterns — exactly the property Figure 6(a) vs 6(b) of
// the paper turns on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace peppher::sim {

/// Broad device class, mirroring the platform kinds of PEPPHER descriptors.
enum class DeviceClass { kCpuCore, kCudaGpu, kOpenClGpu };

std::string to_string(DeviceClass device_class);

/// Performance profile of one execution unit (a CPU core or a whole GPU).
struct DeviceProfile {
  std::string name;
  DeviceClass device_class = DeviceClass::kCpuCore;

  double peak_gflops = 1.0;         ///< single-precision peak of the unit
  double compute_efficiency = 0.5;  ///< fraction of peak typical kernels reach
  double mem_bandwidth_gbs = 10.0;  ///< streaming bandwidth (GB/s)
  double irregular_bw_fraction = 0.3;  ///< achievable BW fraction at regularity 0
  double launch_overhead_us = 1.0;  ///< fixed per-kernel launch cost
  double memory_mb = 4096.0;        ///< memory capacity of the unit's node
  double busy_watts = 50.0;         ///< draw while executing (energy model)

  // -- canned profiles used by the reproduction ----------------------------

  /// One core of the paper's Intel Xeon E5520 @ 2.27 GHz host.
  static DeviceProfile xeon_e5520_core();
  /// NVIDIA Tesla C2050 (Fermi, with L1/L2 cache) — Figure 6(a) platform.
  static DeviceProfile tesla_c2050();
  /// NVIDIA Tesla C1060 (GT200, no cache) — Figure 6(b) platform.
  static DeviceProfile tesla_c1060();
  /// A generic mid-range OpenCL accelerator (the PEPPHER component model
  /// treats OpenCL as a first-class backend; §IV-C lists it alongside CUDA).
  static DeviceProfile generic_opencl_gpu();
};

/// Work declared by a kernel for one execution: the roofline inputs.
struct KernelCost {
  double flops = 0.0;      ///< floating-point operations
  double bytes = 0.0;      ///< DRAM traffic (bytes moved)
  double regularity = 1.0; ///< 1 = perfectly streaming, 0 = fully irregular

  KernelCost scaled(double factor) const {
    return KernelCost{flops * factor, bytes * factor, regularity};
  }
};

/// Roofline execution time of `cost` on `device`, in (virtual) seconds:
///   overhead + max(flops / achieved_flops, bytes / achieved_bandwidth)
/// where achieved bandwidth degrades linearly from full (regularity 1) to
/// `irregular_bw_fraction` (regularity 0).
double execution_seconds(const DeviceProfile& device, const KernelCost& cost);

/// An interconnect between two memory spaces (PCIe in this reproduction).
///
/// The contention model has two shapes. By default every device gets two
/// independent *lanes* — one host-to-device, one device-to-host — so
/// concurrent transfers to different devices (or in different directions)
/// never queue behind each other, matching PCIe's full-duplex point-to-point
/// links. `shared_bus` restores the legacy model: one half-duplex bus with a
/// single clock shared by all devices and both directions (used by the
/// Figure 5 reproduction's compatibility runs and by tests that pin down the
/// serialized contention behavior). Either way each hop costs
/// transfer_seconds() on its lane, the price rt::Plan and peppher-predict
/// charge too.
struct LinkProfile {
  double latency_us = 10.0;
  double bandwidth_gbs = 8.0;

  /// Legacy contention model: one half-duplex bus shared by every device.
  bool shared_bus = false;

  /// PCIe 2.0 x16 as on the paper's evaluation hosts (duplex lanes).
  static LinkProfile pcie2_x16();
  /// Same link with the legacy shared-bus contention model.
  static LinkProfile pcie2_x16_shared();
  /// 10GbE-class inter-node link: ~5x the PCIe latency and a fraction of
  /// its bandwidth, the default sim::ClusterConfig internode profile.
  static LinkProfile cluster_10gbe();
};

/// Time to move `bytes` across `link`, in (virtual) seconds: the latency
/// plus the volume over the bandwidth.
double transfer_seconds(const LinkProfile& link, std::size_t bytes);

/// Seeded, deterministic fault specification for one simulated device.
/// Attached per accelerator via EngineConfig::accelerator_faults; the engine
/// exercises it from the execution and transfer paths so the runtime's retry
/// / fallback / blacklisting machinery can be tested reproducibly.
struct FaultPlan {
  double kernel_failure_rate = 0.0;    ///< P(one kernel attempt fails transiently)
  double transfer_failure_rate = 0.0;  ///< P(one PCIe hop touching the device fails)
  std::uint64_t die_after_tasks = 0;   ///< hard death after N successful kernels (0 = never)
  double die_at_vtime = 0.0;           ///< hard death at this virtual time (0 = never)
  std::uint64_t seed = 0;              ///< fault-stream seed (mixed with a per-injector salt)

  /// True if the plan injects anything at all.
  bool any() const noexcept {
    return kernel_failure_rate > 0.0 || transfer_failure_rate > 0.0 ||
           die_after_tasks > 0 || die_at_vtime > 0.0;
  }
};

/// Draws one device's fault decisions in execution order. Deterministic for
/// a fixed (plan, salt) and a fixed sequence of draws; thread safe because
/// kernel draws come from the device's worker thread while transfer draws
/// can come from any thread staging data to or from the device's node.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t salt);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Draws the next transient-kernel-failure decision.
  bool next_kernel_fails();

  /// Draws the next transfer-failure decision.
  bool next_transfer_fails();

  /// Records one successful kernel execution (feeds die_after_tasks).
  void record_kernel_success();
  std::uint64_t kernel_successes() const;

  /// True once the device's hard-death condition holds: die_after_tasks
  /// successful kernels executed, or the device clock reached die_at_vtime.
  bool death_due(double device_vtime) const;

 private:
  FaultPlan plan_;
  mutable std::mutex mutex_;
  Rng rng_;
  std::uint64_t kernel_successes_ = 0;
};

/// Machine description: N identical CPU cores plus zero or more accelerators
/// reached over a shared link. Mirrors the paper's two evaluation platforms.
struct MachineConfig {
  std::string name;
  int cpu_cores = 4;
  DeviceProfile cpu_core = DeviceProfile::xeon_e5520_core();
  std::vector<DeviceProfile> accelerators;
  LinkProfile link = LinkProfile::pcie2_x16();

  /// The paper's main platform: 4 Xeon E5520 cores + Tesla C2050.
  static MachineConfig platform_c2050();
  /// The secondary platform: same CPUs + lower-end Tesla C1060.
  static MachineConfig platform_c1060();
  /// Same CPUs + a generic OpenCL accelerator.
  static MachineConfig platform_opencl();
  /// Multi-GPU platform: same CPUs + two Tesla C2050s sharing the PCIe
  /// link (the component model's multi-GPU case; abstract of the paper).
  static MachineConfig platform_dual_c2050();
  /// CPU-only machine (useful for tests).
  static MachineConfig cpu_only(int cores = 4);
};

/// The preset names machine_preset accepts, for usage and error messages.
inline constexpr std::string_view kMachinePresets =
    "c2050|c1060|opencl|dual_c2050|cpu|cpu_only|cpuN";

/// The machine preset called `name`, shared by every command-line tool and
/// the cluster format: the four platforms above, `cpu` (or `cpu_only`) for
/// MachineConfig::cpu_only() and `cpuN` for N cores (1..256). Throws
/// Error(kInvalidArgument) naming kMachinePresets for any other name.
MachineConfig machine_preset(std::string_view name);

/// Profile of the combined all-CPU-cores worker running `cores` copies of
/// `core` as one team: linear scaling with a fork-join efficiency factor,
/// socket bandwidth = per-core share x cores, a fork/join launch overhead
/// and every core's busy draw.
DeviceProfile combined_cpu_profile(const DeviceProfile& core, int cores);

}  // namespace peppher::sim
