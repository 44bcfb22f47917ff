// Ablation: smart-container lazy coherence (§IV-D/H and Figure 3) vs the
// naive per-call copy-in/copy-out policy the paper attributes to Kicherer
// et al. [8,9].
//
// Scenario 1 — the Figure 3 walk-through: four component calls + two
// application accesses on one vector. Lazy coherence needs 2 copies, the
// naive policy needs 7.
// Scenario 2 — repetitive execution (§IV-H): N GPU invocations on resident
// data; lazy coherence transfers inputs once, the naive policy 2N times.
// --smoke runs the same scenarios (bench/report.hpp).
#include <memory>
#include <vector>

#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

rt::EngineConfig gpu_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.use_history_models = false;
  return config;
}

rt::Codelet& touch_codelet() {
  static rt::Codelet codelet = [] {
    rt::Codelet c("touch");
    rt::Implementation impl;
    impl.arch = rt::Arch::kCuda;
    impl.name = "touch_cuda";
    impl.fn = [](rt::ExecContext& ctx) {
      auto* data = ctx.buffer_as<float>(0);
      for (std::size_t i = 0; i < ctx.buffer_bytes(0) / sizeof(float); ++i) {
        data[i] += 1.0f;
      }
    };
    // Roofline hint: one flop per element, each element read and written
    // once. Without it every call would take the neutral 1 ms.
    impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
      const auto n = static_cast<double>(bytes[0]);
      return sim::KernelCost{n / sizeof(float), 2.0 * n, 1.0};
    };
    c.add_impl(std::move(impl));
    return c;
  }();
  return codelet;
}

void submit_touch(rt::Engine& engine, const rt::DataHandlePtr& handle,
                  rt::AccessMode mode) {
  rt::TaskSpec spec;
  spec.codelet = &touch_codelet();
  spec.operands = {{handle, mode}};
  spec.synchronous = true;
  engine.submit(std::move(spec));
}

/// The naive policy: unregister (copy back) after every call and
/// re-register before the next, discarding all device copies.
std::uint64_t figure3_naive(rt::Engine& engine, std::vector<float>& data) {
  engine.reset_transfer_stats();
  std::uint64_t copies = 0;
  auto call = [&](rt::AccessMode mode) {
    auto handle = engine.register_buffer(data.data(),
                                         data.size() * sizeof(float),
                                         sizeof(float));
    if (mode != rt::AccessMode::kWrite) {
      // copy-in before the call (skipped only for pure writes)...
      handle->acquire(1, rt::AccessMode::kRead);
      ++copies;
    }
    submit_touch(engine, handle, mode);
    // ...and unconditional copy-out after it, every single call.
    handle->acquire(rt::kHostNode, rt::AccessMode::kRead);
    ++copies;
    engine.unregister(handle);
  };
  call(rt::AccessMode::kWrite);      // line 4: copy-out only
  (void)data[0];                     // line 6 (host already valid: naive)
  call(rt::AccessMode::kReadWrite);  // line 8: in + out
  call(rt::AccessMode::kRead);       // line 10: in + out
  call(rt::AccessMode::kRead);       // line 12: in + out
  data[0] = 5.0f;                    // line 14
  return copies;                     // 7, as the paper counts
}

std::uint64_t figure3_lazy(rt::Engine& engine, std::vector<float>& data) {
  engine.reset_transfer_stats();
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  submit_touch(engine, handle, rt::AccessMode::kWrite);      // line 4
  engine.acquire_host(handle, rt::AccessMode::kRead);        // line 6
  (void)data[0];
  submit_touch(engine, handle, rt::AccessMode::kReadWrite);  // line 8
  submit_touch(engine, handle, rt::AccessMode::kRead);       // line 10
  submit_touch(engine, handle, rt::AccessMode::kRead);       // line 12
  engine.acquire_host(handle, rt::AccessMode::kReadWrite);   // line 14
  data[0] = 5.0f;
  return engine.transfer_stats().total_count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("ablation_containers", argc, argv);
  {
    std::vector<float> v0(1 << 18, 0.0f);
    rt::Engine engine(gpu_config());
    const std::uint64_t lazy = figure3_lazy(engine, v0);
    std::vector<float> v1(1 << 18, 0.0f);
    const std::uint64_t naive = figure3_naive(engine, v1);
    report.add("copies", {{"scenario", "figure3"}, {"policy", "smart"}},
               static_cast<double>(lazy), "count", bench::Clock::kNone);
    report.add("copies", {{"scenario", "figure3"}, {"policy", "per_call"}},
               static_cast<double>(naive), "count", bench::Clock::kNone);
  }

  {
    const int invocations = 50;
    std::vector<float> data(1 << 20, 1.0f);
    rt::Engine engine(gpu_config());

    auto handle = engine.register_buffer(data.data(),
                                         data.size() * sizeof(float),
                                         sizeof(float));
    engine.reset_transfer_stats();
    engine.reset_virtual_time();
    for (int i = 0; i < invocations; ++i) {
      submit_touch(engine, handle, rt::AccessMode::kReadWrite);
    }
    engine.acquire_host(handle, rt::AccessMode::kRead);
    const auto lazy = engine.transfer_stats();
    const double lazy_time = engine.virtual_makespan();

    std::vector<float> data2(1 << 20, 1.0f);
    engine.reset_transfer_stats();
    engine.reset_virtual_time();
    for (int i = 0; i < invocations; ++i) {
      auto h = engine.register_buffer(data2.data(), data2.size() * sizeof(float),
                                      sizeof(float));
      submit_touch(engine, h, rt::AccessMode::kReadWrite);
      engine.unregister(h);
    }
    const auto naive = engine.transfer_stats();
    const double naive_time = engine.virtual_makespan();

    // 50 GPU invocations on 4 MB (§IV-H).
    const auto add_policy = [&report](const char* policy,
                                      const rt::TransferStats& stats,
                                      double seconds) {
      const bench::Labels labels = {{"scenario", "repetitive"},
                                    {"policy", policy}};
      report.add("transfers", labels, static_cast<double>(stats.total_count()),
                 "count", bench::Clock::kNone);
      report.add("transfer_mb", labels, stats.total_bytes() / 1e6, "MB",
                 bench::Clock::kNone);
      report.add("virtual_s", labels, seconds, "s", bench::Clock::kVirtual);
    };
    add_policy("smart", lazy, lazy_time);
    add_policy("per_call", naive, naive_time);
    report.add("residency_speedup", {{"scenario", "repetitive"}},
               naive_time / lazy_time, "x", bench::Clock::kVirtual);
  }
  return report.finish();
}
