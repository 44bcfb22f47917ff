#include "apps/distributed.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>

#include "containers/partitioned.hpp"
#include "core/peppher.hpp"
#include "support/error.hpp"

namespace peppher::apps::dist {

namespace {

/// Argument block of the "jacobi_band" codelet. The operand list is
/// [above?, band, below?, dst, ...]: `above`/`below` are present exactly
/// when above_rows/below_rows is non-zero, and any operands past `dst`
/// are dependency-only (the blocking-exchange ablation appends the ghost
/// handles there so the interior task waits for the exchange).
struct JacobiBandArgs {
  std::uint32_t cols = 0;
  std::uint32_t above_rows = 0;  ///< 0 = band starts at the global top row
  std::uint32_t band_rows = 0;   ///< rows written
  std::uint32_t below_rows = 0;  ///< 0 = band ends at the global bottom row
};

/// One stencil row with the exact expression the serial reference uses
/// (bitwise-identical results) and fixed edge columns.
void stencil_row(const float* up, const float* mid, const float* down,
                 float* out, std::size_t cols) {
  out[0] = mid[0];
  for (std::size_t j = 1; j + 1 < cols; ++j) {
    out[j] = 0.25f * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
  }
  out[cols - 1] = mid[cols - 1];
}

void jacobi_band_body(rt::ExecContext& ctx) {
  const auto& args = ctx.arg<JacobiBandArgs>();
  std::size_t idx = 0;
  const float* above =
      args.above_rows > 0 ? ctx.buffer_as<const float>(idx++) : nullptr;
  const float* band = ctx.buffer_as<const float>(idx++);
  const float* below =
      args.below_rows > 0 ? ctx.buffer_as<const float>(idx++) : nullptr;
  float* dst = ctx.buffer_as<float>(idx);

  const std::size_t cols = args.cols;
  const std::size_t total =
      args.above_rows + args.band_rows + args.below_rows;
  // Row `s` of the conceptual stack [above; band; below].
  const auto row = [&](std::size_t s) -> const float* {
    if (s < args.above_rows) return above + s * cols;
    s -= args.above_rows;
    if (s < args.band_rows) return band + s * cols;
    return below + (s - args.band_rows) * cols;
  };
  for (std::size_t r = 0; r < args.band_rows; ++r) {
    const std::size_t s = args.above_rows + r;
    float* out = dst + r * cols;
    if (s == 0 || s + 1 == total) {
      // Global top/bottom row: Dirichlet boundary, copied through.
      std::memcpy(out, band + r * cols, cols * sizeof(float));
    } else {
      stencil_row(row(s - 1), row(s), row(s + 1), out, cols);
    }
  }
}

sim::KernelCost jacobi_band_cost(const std::vector<std::size_t>& /*bytes*/,
                                 const void* arg) {
  const auto* args = static_cast<const JacobiBandArgs*>(arg);
  const double cols = static_cast<double>(args->cols);
  const double band = static_cast<double>(args->band_rows);
  sim::KernelCost cost;
  cost.flops = 4.0 * band * cols;  // 3 adds + 1 multiply per point
  // Streams the band plus one neighbour row per side, writes the band.
  cost.bytes = (2.0 * band + 2.0) * cols * sizeof(float);
  cost.regularity = 0.9f;  // unit-stride rows
  return cost;
}

void halo_copy_body(rt::ExecContext& ctx) {
  std::memcpy(ctx.buffer(1), ctx.buffer(0), ctx.buffer_bytes(0));
}

sim::KernelCost halo_copy_cost(const std::vector<std::size_t>& bytes,
                               const void* /*arg*/) {
  sim::KernelCost cost;
  cost.flops = 0.0;
  cost.bytes = 2.0 * static_cast<double>(bytes[0]);
  cost.regularity = 1.0f;
  return cost;
}

rt::Codelet* find_codelet(const char* name) {
  rt::Codelet* codelet = core::ComponentRegistry::global().find(name);
  check(codelet != nullptr, std::string(name) + " codelet missing");
  return codelet;
}

bool is_accelerator(const rt::WorkerDesc& desc) {
  const rt::Arch arch = desc.archs.empty() ? rt::Arch::kCpu : desc.archs.front();
  return arch == rt::Arch::kCuda || arch == rt::Arch::kOpenCl;
}

/// Deterministic initial field; the fixed boundary keeps these values.
float initial_value(std::size_t i, std::size_t j) {
  return static_cast<float>((i * 31 + j * 17) % 101) / 100.0f;
}

}  // namespace

void register_components() {
  static std::once_flag once;
  std::call_once(once, [] {
    rt::Codelet& band =
        core::ComponentRegistry::global().get_or_create("jacobi_band");
    for (const rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCpuOmp,
                                rt::Arch::kCuda, rt::Arch::kOpenCl}) {
      band.add_impl({arch, std::string("jacobi_band_") + rt::to_string(arch),
                     jacobi_band_body, &jacobi_band_cost});
    }
    rt::Codelet& copy =
        core::ComponentRegistry::global().get_or_create("halo_copy");
    for (const rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCpuOmp,
                                rt::Arch::kCuda, rt::Arch::kOpenCl}) {
      copy.add_impl({arch, std::string("halo_copy_") + rt::to_string(arch),
                     halo_copy_body, &halo_copy_cost});
    }
  });
}

rt::WorkerId compute_worker(const rt::Engine& engine, int sim_node) {
  const rt::WorkerDesc* combined = nullptr;
  const rt::WorkerDesc* any = nullptr;
  for (const rt::WorkerDesc& desc : engine.workers()) {
    if (desc.sim_node != sim_node) continue;
    if (is_accelerator(desc)) return desc.id;
    if (desc.is_combined_cpu && combined == nullptr) combined = &desc;
    if (any == nullptr) any = &desc;
  }
  if (combined != nullptr) return combined->id;
  check(any != nullptr, "no worker on simulated node " +
                            std::to_string(sim_node));
  return any->id;
}

rt::WorkerId exchange_worker(const rt::Engine& engine, int sim_node) {
  const rt::WorkerId compute = compute_worker(engine, sim_node);
  const rt::WorkerDesc* fallback = nullptr;
  for (const rt::WorkerDesc& desc : engine.workers()) {
    if (desc.sim_node != sim_node || desc.id == compute) continue;
    const rt::Arch arch =
        desc.archs.empty() ? rt::Arch::kCpu : desc.archs.front();
    if (arch == rt::Arch::kCpu && !desc.is_combined_cpu) return desc.id;
    if (fallback == nullptr) fallback = &desc;
  }
  return fallback != nullptr ? fallback->id : compute;
}

JacobiResult run_jacobi(rt::Engine& engine, const JacobiConfig& config) {
  register_components();
  rt::Codelet* band_codelet = find_codelet("jacobi_band");
  rt::Codelet* copy_codelet = find_codelet("halo_copy");

  const rt::MemTopology& topo = engine.topo();
  const int nodes = topo.sim_node_count();
  const std::size_t w = config.halo;
  const std::size_t rows = config.rows;
  const std::size_t cols = config.cols;
  check(w >= 1, "run_jacobi: halo width must be >= 1");
  check(cols >= 3, "run_jacobi: need at least 3 columns");
  check(rows >= static_cast<std::size_t>(nodes) * (2 * w + 1),
        "run_jacobi: each node needs at least 2*halo+1 rows");

  const cont::Partitioning layout =
      cont::Partitioning::block(rows, nodes).with_halo(w);

  // Double-buffered field; both buffers start from the initial values so
  // the fixed boundary is correct in either.
  std::vector<float> bufs[2];
  for (auto& buf : bufs) {
    buf.resize(rows * cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        buf[i * cols + j] = initial_value(i, j);
      }
    }
  }
  // Ghost-row storage: [buffer][partition], w rows each.
  std::vector<std::vector<float>> ghost_top[2], ghost_bot[2];
  for (int b = 0; b < 2; ++b) {
    ghost_top[b].assign(nodes, std::vector<float>(w * cols, 0.0f));
    ghost_bot[b].assign(nodes, std::vector<float>(w * cols, 0.0f));
  }

  // Region handles: [buffer][partition] top (w rows), interior, bottom.
  struct Regions {
    rt::DataHandlePtr top, mid, bot, g_top, g_bot;
  };
  std::vector<Regions> regions[2];
  const auto rows_handle = [&](std::vector<float>& buf, std::size_t r0,
                               std::size_t count) {
    return engine.register_buffer(buf.data() + r0 * cols,
                                  count * cols * sizeof(float),
                                  cols * sizeof(float));
  };
  for (int b = 0; b < 2; ++b) {
    regions[b].resize(nodes);
    for (int p = 0; p < nodes; ++p) {
      const cont::Slice owned = layout.parts[p].owned;
      Regions& r = regions[b][p];
      r.top = rows_handle(bufs[b], owned.begin, w);
      r.mid = rows_handle(bufs[b], owned.begin + w, owned.size() - 2 * w);
      r.bot = rows_handle(bufs[b], owned.end - w, w);
      if (p > 0) {
        r.g_top = engine.register_buffer(ghost_top[b][p].data(),
                                         w * cols * sizeof(float),
                                         cols * sizeof(float));
      }
      if (p + 1 < nodes) {
        r.g_bot = engine.register_buffer(ghost_bot[b][p].data(),
                                         w * cols * sizeof(float),
                                         cols * sizeof(float));
      }
    }
  }

  std::vector<rt::WorkerId> compute(nodes), exchange(nodes);
  for (int p = 0; p < nodes; ++p) {
    compute[p] = compute_worker(engine, p);
    exchange[p] = exchange_worker(engine, p);
  }

  // Pre-stage each partition onto its owning node's compute memory: a
  // distributed field starts resident where it is owned (the partitioned
  // container keeps it there across repartitions), so the measured run is
  // the iteration cost, not the one-time initial distribution. The clocks
  // reset below; only the halo traffic of the sweeps is charged.
  for (int b = 0; b < 2; ++b) {
    for (int p = 0; p < nodes; ++p) {
      const rt::MemoryNodeId target =
          engine.workers()[static_cast<std::size_t>(compute[p])].node;
      engine.prefetch(regions[b][p].top, target);
      engine.prefetch(regions[b][p].mid, target);
      engine.prefetch(regions[b][p].bot, target);
    }
  }
  engine.reset_transfer_stats();
  engine.reset_virtual_time();

  const auto submit_copy = [&](const rt::DataHandlePtr& from,
                               const rt::DataHandlePtr& to, int p,
                               const std::string& name) {
    rt::TaskSpec spec;
    spec.codelet = copy_codelet;
    spec.operands = {{from, rt::AccessMode::kRead},
                     {to, rt::AccessMode::kWrite}};
    spec.forced_worker = exchange[p];
    spec.name = name;
    // Halo traffic is critical-path work: the neighbour's next boundary
    // band is waiting on it, while the wide interior band can always run.
    spec.priority = 1;
    engine.submit(std::move(spec));
  };
  const auto submit_band = [&](std::vector<rt::TaskOperand> operands,
                               JacobiBandArgs args_value, int p,
                               const std::string& name, int priority) {
    auto args = std::make_shared<JacobiBandArgs>(args_value);
    rt::TaskSpec spec;
    spec.codelet = band_codelet;
    spec.operands = std::move(operands);
    spec.arg = std::shared_ptr<const void>(args, args.get());
    spec.forced_worker = compute[p];
    spec.name = name;
    spec.priority = priority;
    engine.submit(std::move(spec));
  };

  const std::uint32_t w32 = static_cast<std::uint32_t>(w);
  const std::uint32_t cols32 = static_cast<std::uint32_t>(cols);
  for (int it = 0; it < config.iterations; ++it) {
    const int src = it % 2;
    const int dst = 1 - src;
    const std::string tag = "_it" + std::to_string(it) + "_p";
    // Halo exchange: pull the neighbours' boundary rows of the source
    // buffer into this node's ghosts. Runs on the exchange worker, so it
    // shares no virtual clock with the interior compute below.
    for (int p = 0; p < nodes; ++p) {
      if (p > 0) {
        submit_copy(regions[src][p - 1].bot, regions[src][p].g_top, p,
                    "halo_top" + tag + std::to_string(p));
      }
      if (p + 1 < nodes) {
        submit_copy(regions[src][p + 1].top, regions[src][p].g_bot, p,
                    "halo_bot" + tag + std::to_string(p));
      }
    }
    for (int p = 0; p < nodes; ++p) {
      const Regions& s = regions[src][p];
      const Regions& d = regions[dst][p];
      const std::uint32_t mid_rows =
          static_cast<std::uint32_t>(layout.parts[p].owned.size() - 2 * w);
      // Interior: node-local data only — free to run while the exchange
      // is still in flight. The blocking ablation appends the ghost
      // handles as dependency-only reads.
      std::vector<rt::TaskOperand> interior = {
          {s.top, rt::AccessMode::kRead},
          {s.mid, rt::AccessMode::kRead},
          {s.bot, rt::AccessMode::kRead},
          {d.mid, rt::AccessMode::kWrite}};
      if (!config.overlap) {
        if (s.g_top != nullptr) {
          interior.push_back({s.g_top, rt::AccessMode::kRead});
        }
        if (s.g_bot != nullptr) {
          interior.push_back({s.g_bot, rt::AccessMode::kRead});
        }
      }
      submit_band(std::move(interior), {cols32, w32, mid_rows, w32}, p,
                  "jacobi_int" + tag + std::to_string(p), /*priority=*/0);
      // Top band: ghost rows above (absent on the global top), own top
      // rows, first interior rows below.
      std::vector<rt::TaskOperand> top;
      if (s.g_top != nullptr) top.push_back({s.g_top, rt::AccessMode::kRead});
      top.push_back({s.top, rt::AccessMode::kRead});
      top.push_back({s.mid, rt::AccessMode::kRead});
      top.push_back({d.top, rt::AccessMode::kWrite});
      // Dependency-only read of the interior's output: the boundary bands
      // run after this iteration's interior, so a worker never commits to a
      // band whose ghost rows are still crossing the inter-node link while
      // the (local-only) interior could have filled that time.
      top.push_back({d.mid, rt::AccessMode::kRead});
      submit_band(std::move(top),
                  {cols32, s.g_top != nullptr ? w32 : 0, w32, mid_rows}, p,
                  "jacobi_top" + tag + std::to_string(p), /*priority=*/1);
      // Bottom band: interior above, own bottom rows, ghost rows below
      // (absent on the global bottom).
      std::vector<rt::TaskOperand> bot;
      bot.push_back({s.mid, rt::AccessMode::kRead});
      bot.push_back({s.bot, rt::AccessMode::kRead});
      if (s.g_bot != nullptr) bot.push_back({s.g_bot, rt::AccessMode::kRead});
      bot.push_back({d.bot, rt::AccessMode::kWrite});
      bot.push_back({d.mid, rt::AccessMode::kRead});  // order: see top band
      submit_band(std::move(bot),
                  {cols32, mid_rows, w32, s.g_bot != nullptr ? w32 : 0}, p,
                  "jacobi_bot" + tag + std::to_string(p), /*priority=*/1);
    }
  }

  // The measured numbers are the iteration cost: the snapshot is taken
  // before the gather back to the root host (multi-megabyte regions over
  // the lanes the halo hops use) is committed.
  engine.wait_for_all();

  JacobiResult result;
  result.virtual_seconds = engine.virtual_makespan();
  result.transfers = engine.transfer_stats();

  const int final_buf = config.iterations % 2;
  for (int p = 0; p < nodes; ++p) {
    engine.acquire_host(regions[final_buf][p].top, rt::AccessMode::kRead);
    engine.acquire_host(regions[final_buf][p].mid, rt::AccessMode::kRead);
    engine.acquire_host(regions[final_buf][p].bot, rt::AccessMode::kRead);
  }
  result.grid = bufs[final_buf];

  // Unregister before the backing storage leaves scope.
  for (int b = 0; b < 2; ++b) {
    for (Regions& r : regions[b]) {
      for (const rt::DataHandlePtr* h : {&r.top, &r.mid, &r.bot, &r.g_top,
                                         &r.g_bot}) {
        if (*h != nullptr) engine.unregister(*h);
      }
    }
  }
  return result;
}

std::vector<float> jacobi_reference(const JacobiConfig& config) {
  const std::size_t rows = config.rows;
  const std::size_t cols = config.cols;
  std::vector<float> bufs[2];
  for (auto& buf : bufs) {
    buf.resize(rows * cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        buf[i * cols + j] = initial_value(i, j);
      }
    }
  }
  for (int it = 0; it < config.iterations; ++it) {
    const std::vector<float>& src = bufs[it % 2];
    std::vector<float>& dst = bufs[1 - it % 2];
    for (std::size_t i = 0; i < rows; ++i) {
      float* out = dst.data() + i * cols;
      const float* mid = src.data() + i * cols;
      if (i == 0 || i + 1 == rows) {
        std::memcpy(out, mid, cols * sizeof(float));
      } else {
        stencil_row(mid - cols, mid, mid + cols, out, cols);
      }
    }
  }
  return bufs[config.iterations % 2];
}

spmv::RunResult run_distributed_spmv(rt::Engine& engine,
                                     const spmv::Problem& problem) {
  spmv::register_components();
  rt::Codelet* codelet = find_codelet("spmv");

  const rt::MemTopology& topo = engine.topo();
  const int nodes = topo.sim_node_count();
  const sparse::CsrMatrix& A = problem.A;
  check(A.nrows >= static_cast<std::uint32_t>(nodes),
        "run_distributed_spmv: fewer rows than nodes");
  const cont::Partitioning layout =
      cont::Partitioning::block(A.nrows, nodes);

  spmv::RunResult result;
  result.y.assign(A.nrows, 0.0f);
  engine.reset_transfer_stats();
  engine.reset_virtual_time();

  // x is one handle: every node's task reads it, so its replicas fan out
  // across the inter-node links on first use and stay resident after.
  auto h_x = engine.register_buffer(const_cast<float*>(problem.x.data()),
                                    problem.x.size() * sizeof(float),
                                    sizeof(float));

  std::vector<std::vector<std::uint32_t>> rebased_rowptrs(nodes);
  std::vector<rt::DataHandlePtr> y_handles;
  const float regularity = problem.regularity();
  for (int p = 0; p < nodes; ++p) {
    const auto r0 = static_cast<std::uint32_t>(layout.parts[p].owned.begin);
    const auto r1 = static_cast<std::uint32_t>(layout.parts[p].owned.end);
    const std::uint32_t k0 = A.rowptr[r0];
    const std::uint32_t k1 = A.rowptr[r1];
    const std::size_t part_nnz = std::max<std::size_t>(1, k1 - k0);

    std::vector<std::uint32_t>& rebased = rebased_rowptrs[p];
    rebased.reserve(r1 - r0 + 1);
    for (std::uint32_t r = r0; r <= r1; ++r) rebased.push_back(A.rowptr[r] - k0);

    auto h_values = engine.register_buffer(
        const_cast<float*>(A.values.data() + k0), part_nnz * sizeof(float),
        sizeof(float));
    auto h_colidx = engine.register_buffer(
        const_cast<std::uint32_t*>(A.colidx.data() + k0),
        part_nnz * sizeof(std::uint32_t), sizeof(std::uint32_t));
    auto h_rowptr = engine.register_buffer(
        rebased.data(), rebased.size() * sizeof(std::uint32_t),
        sizeof(std::uint32_t));
    auto h_y = engine.register_buffer(result.y.data() + r0,
                                      (r1 - r0) * sizeof(float), sizeof(float));
    y_handles.push_back(h_y);

    auto args = std::make_shared<spmv::SpmvArgs>();
    args->nrows = r1 - r0;
    args->regularity = regularity;

    rt::TaskSpec spec;
    spec.codelet = codelet;
    spec.operands = {{h_values, rt::AccessMode::kRead},
                     {h_colidx, rt::AccessMode::kRead},
                     {h_rowptr, rt::AccessMode::kRead},
                     {h_x, rt::AccessMode::kRead},
                     {h_y, rt::AccessMode::kWrite}};
    spec.arg = std::shared_ptr<const void>(args, args.get());
    spec.forced_worker = compute_worker(engine, p);
    spec.name = "spmv_node" + std::to_string(p);
    engine.submit(std::move(spec));
  }

  // Quiesce, snapshot, then gather y — same reasoning as run_jacobi: the
  // result collection must not contend with (or be charged to) the run.
  engine.wait_for_all();  // also: rebased_rowptrs dies with this frame
  result.virtual_seconds = engine.virtual_makespan();
  result.transfers = engine.transfer_stats();
  for (const auto& h_y : y_handles) {
    engine.acquire_host(h_y, rt::AccessMode::kRead);
  }
  return result;
}

}  // namespace peppher::apps::dist
