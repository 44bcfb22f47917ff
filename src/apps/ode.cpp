#include "apps/ode.hpp"

#include <cmath>
#include <memory>
#include <mutex>

#include "core/peppher.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace peppher::apps::ode {

namespace {

// Classical RK4 tableau plus an embedded-difference vector for the error
// estimate (difference against the Euler weights).
constexpr float kA21 = 0.5f;
constexpr float kA32 = 0.5f;
constexpr float kA43 = 1.0f;
constexpr float kB1 = 1.0f / 6.0f, kB2 = 1.0f / 3.0f, kB3 = 1.0f / 3.0f,
                kB4 = 1.0f / 6.0f;
constexpr float kD1 = kB1 - 1.0f, kD2 = kB2, kD3 = kB3, kD4 = kB4;

// ---------------------------------------------------------------------------
// kernels (shared by every variant; the OpenMP flavour parallelises rows /
// chunks through the context)
// ---------------------------------------------------------------------------

void rhs_kernel(const float* J, const float* y, float* k, std::uint32_t n,
                rt::ExecContext* ctx) {
  auto rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const float* row = J + i * n;
      float acc = 0.0f;
      for (std::uint32_t j = 0; j < n; ++j) acc += row[j] * y[j];
      k[i] = acc;
    }
  };
  if (ctx != nullptr && ctx->cpu_threads() > 1) {
    ctx->parallel_for(0, n, rows);
  } else {
    rows(0, n);
  }
}

void stage2_kernel(const float* y, const float* k1, float* t,
                   const OdeVecArgs& a) {
  for (std::uint32_t i = 0; i < a.n; ++i) t[i] = y[i] + a.h * a.c1 * k1[i];
}

void stage3_kernel(const float* y, const float* k1, const float* k2, float* t,
                   const OdeVecArgs& a) {
  for (std::uint32_t i = 0; i < a.n; ++i) {
    t[i] = y[i] + a.h * (a.c1 * k1[i] + a.c2 * k2[i]);
  }
}

void stage4_kernel(const float* y, const float* k1, const float* k2,
                   const float* k3, float* t, const OdeVecArgs& a) {
  for (std::uint32_t i = 0; i < a.n; ++i) {
    t[i] = y[i] + a.h * (a.c1 * k1[i] + a.c2 * k2[i] + a.c3 * k3[i]);
  }
}

void combine_kernel(float* y, const float* k1, const float* k2, const float* k3,
                    const float* k4, const OdeVecArgs& a) {
  for (std::uint32_t i = 0; i < a.n; ++i) {
    y[i] += a.h * (a.c1 * k1[i] + a.c2 * k2[i] + a.c3 * k3[i] + a.c4 * k4[i]);
  }
}

void error_kernel(const float* k1, const float* k2, const float* k3,
                  const float* k4, float* err, const OdeVecArgs& a) {
  float worst = 0.0f;
  for (std::uint32_t i = 0; i < a.n; ++i) {
    const float e =
        a.h * (a.c1 * k1[i] + a.c2 * k2[i] + a.c3 * k3[i] + a.c4 * k4[i]);
    worst = std::max(worst, std::fabs(e));
  }
  *err = worst;
}

void scale_kernel(float* x, const OdeVecArgs& a) {
  for (std::uint32_t i = 0; i < a.n; ++i) x[i] *= a.c1;
}

void copy_kernel(const float* src, float* dst, const OdeVecArgs& a) {
  for (std::uint32_t i = 0; i < a.n; ++i) dst[i] = src[i];
}

void init_kernel(float* y, const OdeVecArgs& a) {
  for (std::uint32_t i = 0; i < a.n; ++i) {
    y[i] = 1.0f + 0.25f * std::sin(0.1f * static_cast<float>(i));
  }
}

// ---------------------------------------------------------------------------
// cost hints
// ---------------------------------------------------------------------------

sim::KernelCost rhs_cost(const std::vector<std::size_t>& bytes, const void* arg) {
  const auto* a = static_cast<const OdeVecArgs*>(arg);
  const double n = a->n;
  return {2.0 * n * n, static_cast<double>(bytes[0]) + 8.0 * n, 1.0};
}

sim::KernelCost vec_cost_factory_flops(double flops_per_elem,
                                       const std::vector<std::size_t>& bytes,
                                       const void* arg) {
  const auto* a = static_cast<const OdeVecArgs*>(arg);
  const double n = a->n;
  double total_bytes = 0.0;
  for (std::size_t b : bytes) total_bytes += static_cast<double>(b);
  return {flops_per_elem * n, total_bytes, 1.0};
}

// ---------------------------------------------------------------------------
// registration
// ---------------------------------------------------------------------------

/// Wraps a buffer-order kernel into CPU/OpenMP/CUDA variants (only the rhs
/// actually exploits intra-task threads; vector ops are bandwidth-bound).
void add_all_variants(const std::string& name, rt::ImplFn serial_fn,
                      rt::ImplFn omp_fn, rt::CostFn cost) {
  rt::Codelet& codelet = core::ComponentRegistry::global().get_or_create(name);
  codelet.add_impl({rt::Arch::kCpu, name + "_cpu", serial_fn, cost});
  codelet.add_impl({rt::Arch::kCpuOmp, name + "_openmp", omp_fn, cost});
  codelet.add_impl({rt::Arch::kCuda, name + "_cuda", serial_fn, cost});
  codelet.add_impl({rt::Arch::kOpenCl, name + "_opencl", serial_fn, cost});
}

}  // namespace

void register_components() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto vec_cost = [](double flops_per_elem) {
      return [flops_per_elem](const std::vector<std::size_t>& bytes,
                              const void* arg) {
        return vec_cost_factory_flops(flops_per_elem, bytes, arg);
      };
    };

    add_all_variants(
        "ode_rhs",
        [](rt::ExecContext& ctx) {
          rhs_kernel(ctx.buffer_as<const float>(0), ctx.buffer_as<const float>(1),
                     ctx.buffer_as<float>(2), ctx.arg<OdeVecArgs>().n, nullptr);
        },
        [](rt::ExecContext& ctx) {
          rhs_kernel(ctx.buffer_as<const float>(0), ctx.buffer_as<const float>(1),
                     ctx.buffer_as<float>(2), ctx.arg<OdeVecArgs>().n, &ctx);
        },
        &rhs_cost);

    add_all_variants(
        "ode_stage2",
        [](rt::ExecContext& ctx) {
          stage2_kernel(ctx.buffer_as<const float>(0),
                        ctx.buffer_as<const float>(1), ctx.buffer_as<float>(2),
                        ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          stage2_kernel(ctx.buffer_as<const float>(0),
                        ctx.buffer_as<const float>(1), ctx.buffer_as<float>(2),
                        ctx.arg<OdeVecArgs>());
        },
        vec_cost(3.0));

    add_all_variants(
        "ode_stage3",
        [](rt::ExecContext& ctx) {
          stage3_kernel(ctx.buffer_as<const float>(0),
                        ctx.buffer_as<const float>(1),
                        ctx.buffer_as<const float>(2), ctx.buffer_as<float>(3),
                        ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          stage3_kernel(ctx.buffer_as<const float>(0),
                        ctx.buffer_as<const float>(1),
                        ctx.buffer_as<const float>(2), ctx.buffer_as<float>(3),
                        ctx.arg<OdeVecArgs>());
        },
        vec_cost(5.0));

    add_all_variants(
        "ode_stage4",
        [](rt::ExecContext& ctx) {
          stage4_kernel(ctx.buffer_as<const float>(0),
                        ctx.buffer_as<const float>(1),
                        ctx.buffer_as<const float>(2),
                        ctx.buffer_as<const float>(3), ctx.buffer_as<float>(4),
                        ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          stage4_kernel(ctx.buffer_as<const float>(0),
                        ctx.buffer_as<const float>(1),
                        ctx.buffer_as<const float>(2),
                        ctx.buffer_as<const float>(3), ctx.buffer_as<float>(4),
                        ctx.arg<OdeVecArgs>());
        },
        vec_cost(7.0));

    add_all_variants(
        "ode_combine",
        [](rt::ExecContext& ctx) {
          combine_kernel(ctx.buffer_as<float>(0), ctx.buffer_as<const float>(1),
                         ctx.buffer_as<const float>(2),
                         ctx.buffer_as<const float>(3),
                         ctx.buffer_as<const float>(4), ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          combine_kernel(ctx.buffer_as<float>(0), ctx.buffer_as<const float>(1),
                         ctx.buffer_as<const float>(2),
                         ctx.buffer_as<const float>(3),
                         ctx.buffer_as<const float>(4), ctx.arg<OdeVecArgs>());
        },
        vec_cost(9.0));

    add_all_variants(
        "ode_error",
        [](rt::ExecContext& ctx) {
          error_kernel(ctx.buffer_as<const float>(0),
                       ctx.buffer_as<const float>(1),
                       ctx.buffer_as<const float>(2),
                       ctx.buffer_as<const float>(3), ctx.buffer_as<float>(4),
                       ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          error_kernel(ctx.buffer_as<const float>(0),
                       ctx.buffer_as<const float>(1),
                       ctx.buffer_as<const float>(2),
                       ctx.buffer_as<const float>(3), ctx.buffer_as<float>(4),
                       ctx.arg<OdeVecArgs>());
        },
        vec_cost(10.0));

    add_all_variants(
        "ode_scale",
        [](rt::ExecContext& ctx) {
          scale_kernel(ctx.buffer_as<float>(0), ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          scale_kernel(ctx.buffer_as<float>(0), ctx.arg<OdeVecArgs>());
        },
        vec_cost(1.0));

    add_all_variants(
        "ode_copy",
        [](rt::ExecContext& ctx) {
          copy_kernel(ctx.buffer_as<const float>(0), ctx.buffer_as<float>(1),
                      ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          copy_kernel(ctx.buffer_as<const float>(0), ctx.buffer_as<float>(1),
                      ctx.arg<OdeVecArgs>());
        },
        vec_cost(1.0));

    add_all_variants(
        "ode_init",
        [](rt::ExecContext& ctx) {
          init_kernel(ctx.buffer_as<float>(0), ctx.arg<OdeVecArgs>());
        },
        [](rt::ExecContext& ctx) {
          init_kernel(ctx.buffer_as<float>(0), ctx.arg<OdeVecArgs>());
        },
        vec_cost(4.0));
  });
}

Problem make_problem(std::uint32_t n, int steps, std::uint64_t seed) {
  check(n >= 4, "ode: system too small");
  Problem p;
  p.n = n;
  p.steps = steps;
  p.h = 1e-3f;
  p.jacobian.resize(static_cast<std::size_t>(n) * n);
  Rng rng(seed);
  // Random coupling scaled by 1/n plus a decaying diagonal keeps the system
  // stable over the integration horizon.
  const float scale = 1.0f / static_cast<float>(n);
  for (float& v : p.jacobian) {
    v = scale * static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    p.jacobian[static_cast<std::size_t>(i) * n + i] = -0.5f;
  }
  p.y0.resize(n);
  OdeVecArgs a;
  a.n = n;
  init_kernel(p.y0.data(), a);
  return p;
}

std::vector<float> reference(const Problem& problem) {
  const std::uint32_t n = problem.n;
  std::vector<float> y = problem.y0;
  std::vector<float> k1(n), k2(n), k3(n), k4(n), t(n);
  OdeVecArgs a;
  a.n = n;
  a.h = problem.h;
  for (int s = 0; s < problem.steps; ++s) {
    rhs_kernel(problem.jacobian.data(), y.data(), k1.data(), n, nullptr);
    a.c1 = kA21;
    stage2_kernel(y.data(), k1.data(), t.data(), a);
    rhs_kernel(problem.jacobian.data(), t.data(), k2.data(), n, nullptr);
    a.c1 = 0.0f;
    a.c2 = kA32;
    stage3_kernel(y.data(), k1.data(), k2.data(), t.data(), a);
    rhs_kernel(problem.jacobian.data(), t.data(), k3.data(), n, nullptr);
    a.c1 = 0.0f;
    a.c2 = 0.0f;
    a.c3 = kA43;
    stage4_kernel(y.data(), k1.data(), k2.data(), k3.data(), t.data(), a);
    rhs_kernel(problem.jacobian.data(), t.data(), k4.data(), n, nullptr);
    a.c1 = kB1;
    a.c2 = kB2;
    a.c3 = kB3;
    a.c4 = kB4;
    combine_kernel(y.data(), k1.data(), k2.data(), k3.data(), k4.data(), a);
  }
  return y;
}

RunResult run_tool(rt::Engine& engine, const Problem& problem,
                   std::optional<rt::Arch> force) {
  register_components();
  auto& registry = core::ComponentRegistry::global();
  const std::uint32_t n = problem.n;

  RunResult result;
  result.y.assign(n, 0.0f);
  std::vector<float> k1(n), k2(n), k3(n), k4(n), t(n);
  float err = 0.0f;
  engine.reset_virtual_time();
  engine.reset_transfer_stats();

  auto reg = [&engine](auto& vec) {
    return engine.register_buffer(vec.data(),
                                  vec.size() * sizeof(float), sizeof(float));
  };
  auto h_J = engine.register_buffer(const_cast<float*>(problem.jacobian.data()),
                                    problem.jacobian.size() * sizeof(float),
                                    sizeof(float));
  auto h_y = reg(result.y);
  auto h_k1 = reg(k1);
  auto h_k2 = reg(k2);
  auto h_k3 = reg(k3);
  auto h_k4 = reg(k4);
  auto h_t = reg(t);
  auto h_err = engine.register_buffer(&err, sizeof(float), sizeof(float));

  std::uint64_t invocations = 0;
  auto submit = [&](const char* component, std::vector<rt::TaskOperand> ops,
                    const OdeVecArgs& args_value) {
    rt::Codelet* codelet = registry.find(component);
    check(codelet != nullptr, "ode codelet missing");
    auto args = std::make_shared<OdeVecArgs>(args_value);
    rt::TaskSpec spec;
    spec.codelet = codelet;
    spec.operands = std::move(ops);
    spec.arg = std::shared_ptr<const void>(args, args.get());
    spec.forced_arch = force;
    engine.submit(std::move(spec));
    ++invocations;
  };

  using M = rt::AccessMode;
  OdeVecArgs a;
  a.n = n;
  a.h = problem.h;

  // 2 setup invocations: init into t, copy t -> y (exercises ode_copy).
  submit("ode_init", {{h_t, M::kWrite}}, a);
  submit("ode_copy", {{h_t, M::kRead}, {h_y, M::kWrite}}, a);

  for (int s = 0; s < problem.steps; ++s) {
    OdeVecArgs args = a;
    submit("ode_rhs", {{h_J, M::kRead}, {h_y, M::kRead}, {h_k1, M::kWrite}}, args);
    args.c1 = kA21;
    submit("ode_stage2", {{h_y, M::kRead}, {h_k1, M::kRead}, {h_t, M::kWrite}},
           args);
    submit("ode_rhs", {{h_J, M::kRead}, {h_t, M::kRead}, {h_k2, M::kWrite}}, args);
    args.c1 = 0.0f;
    args.c2 = kA32;
    submit("ode_stage3",
           {{h_y, M::kRead}, {h_k1, M::kRead}, {h_k2, M::kRead}, {h_t, M::kWrite}},
           args);
    submit("ode_rhs", {{h_J, M::kRead}, {h_t, M::kRead}, {h_k3, M::kWrite}}, args);
    args.c1 = 0.0f;
    args.c2 = 0.0f;
    args.c3 = kA43;
    submit("ode_stage4",
           {{h_y, M::kRead},
            {h_k1, M::kRead},
            {h_k2, M::kRead},
            {h_k3, M::kRead},
            {h_t, M::kWrite}},
           args);
    submit("ode_rhs", {{h_J, M::kRead}, {h_t, M::kRead}, {h_k4, M::kWrite}}, args);
    args.c1 = kB1;
    args.c2 = kB2;
    args.c3 = kB3;
    args.c4 = kB4;
    submit("ode_combine",
           {{h_y, M::kReadWrite},
            {h_k1, M::kRead},
            {h_k2, M::kRead},
            {h_k3, M::kRead},
            {h_k4, M::kRead}},
           args);
    args.c1 = kD1;
    args.c2 = kD2;
    args.c3 = kD3;
    args.c4 = kD4;
    submit("ode_error",
           {{h_k1, M::kRead},
            {h_k2, M::kRead},
            {h_k3, M::kRead},
            {h_k4, M::kRead},
            {h_err, M::kWrite}},
           args);
  }

  engine.acquire_host(h_y, rt::AccessMode::kRead);
  engine.acquire_host(h_err, rt::AccessMode::kRead);
  engine.wait_for_all();
  result.last_error = err;
  result.invocations = invocations;
  result.virtual_seconds = engine.virtual_makespan();
  result.transfers = engine.transfer_stats();
  return result;
}

RunResult run_direct(const Problem& problem, rt::Arch arch,
                     const sim::MachineConfig& machine) {
  register_components();
  const std::uint32_t n = problem.n;
  check(arch == rt::Arch::kCpu || arch == rt::Arch::kCpuOmp ||
            arch == rt::Arch::kCuda,
        "ode run_direct: unsupported architecture");

  sim::DeviceProfile profile = machine.cpu_core;
  if (arch == rt::Arch::kCuda) {
    check(!machine.accelerators.empty(), "machine has no accelerator");
    profile = machine.accelerators.front();
  } else if (arch == rt::Arch::kCpuOmp) {
    profile = sim::combined_cpu_profile(machine.cpu_core, machine.cpu_cores);
  }

  RunResult result;
  result.y = problem.y0;
  std::vector<float> k1(n), k2(n), k3(n), k4(n), t(n);
  double vtime = 0.0;

  // CUDA: J and y move to the device once; result returns once (hand-written
  // code also keeps data resident across kernels).
  if (arch == rt::Arch::kCuda) {
    vtime += sim::transfer_seconds(machine.link,
                                   problem.jacobian.size() * sizeof(float));
    vtime += sim::transfer_seconds(machine.link, n * sizeof(float));
  }

  auto charge = [&](double flops, double bytes) {
    vtime += sim::execution_seconds(profile, {flops, bytes, 1.0});
  };
  const double nn = static_cast<double>(n) * n;
  const double vec_bytes = 4.0 * n;

  OdeVecArgs a;
  a.n = n;
  a.h = problem.h;
  for (int s = 0; s < problem.steps; ++s) {
    rhs_kernel(problem.jacobian.data(), result.y.data(), k1.data(), n, nullptr);
    charge(2.0 * nn, 4.0 * nn + 2.0 * vec_bytes);
    a.c1 = kA21;
    stage2_kernel(result.y.data(), k1.data(), t.data(), a);
    charge(3.0 * n, 3.0 * vec_bytes);
    rhs_kernel(problem.jacobian.data(), t.data(), k2.data(), n, nullptr);
    charge(2.0 * nn, 4.0 * nn + 2.0 * vec_bytes);
    a.c1 = 0.0f;
    a.c2 = kA32;
    stage3_kernel(result.y.data(), k1.data(), k2.data(), t.data(), a);
    charge(5.0 * n, 4.0 * vec_bytes);
    rhs_kernel(problem.jacobian.data(), t.data(), k3.data(), n, nullptr);
    charge(2.0 * nn, 4.0 * nn + 2.0 * vec_bytes);
    a.c2 = 0.0f;
    a.c3 = kA43;
    stage4_kernel(result.y.data(), k1.data(), k2.data(), k3.data(), t.data(), a);
    charge(7.0 * n, 5.0 * vec_bytes);
    rhs_kernel(problem.jacobian.data(), t.data(), k4.data(), n, nullptr);
    charge(2.0 * nn, 4.0 * nn + 2.0 * vec_bytes);
    a.c1 = kB1;
    a.c2 = kB2;
    a.c3 = kB3;
    a.c4 = kB4;
    combine_kernel(result.y.data(), k1.data(), k2.data(), k3.data(), k4.data(), a);
    charge(9.0 * n, 6.0 * vec_bytes);
    a.c1 = kD1;
    a.c2 = kD2;
    a.c3 = kD3;
    a.c4 = kD4;
    error_kernel(k1.data(), k2.data(), k3.data(), k4.data(), &result.last_error,
                 a);
    charge(10.0 * n, 4.0 * vec_bytes);
    result.invocations += 9;
  }
  if (arch == rt::Arch::kCuda) {
    vtime += sim::transfer_seconds(machine.link, n * sizeof(float));
  }
  result.virtual_seconds = vtime;
  return result;
}

}  // namespace peppher::apps::ode
