#include "lib/skeletons.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "core/peppher.hpp"
#include "support/error.hpp"

namespace peppher::lib {

namespace {

struct SkelArgs {
  MapFn map_fn = nullptr;
  BinFn bin_fn = nullptr;
  float constant = 0.0f;
  float identity = 0.0f;
};

// ---------------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------------

void map_body(rt::ExecContext& ctx, bool parallel) {
  const auto& args = ctx.arg<SkelArgs>();
  const auto* x = ctx.buffer_as<const float>(0);
  auto* y = ctx.buffer_as<float>(1);
  auto run = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) y[i] = args.map_fn(x[i], args.constant);
  };
  if (parallel) {
    ctx.parallel_for(0, ctx.elements(0), run);
  } else {
    run(0, ctx.elements(0));
  }
}

void zip_body(rt::ExecContext& ctx, bool parallel) {
  const auto& args = ctx.arg<SkelArgs>();
  const auto* x = ctx.buffer_as<const float>(0);
  const auto* y = ctx.buffer_as<const float>(1);
  auto* z = ctx.buffer_as<float>(2);
  auto run = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) z[i] = args.bin_fn(x[i], y[i]);
  };
  if (parallel) {
    ctx.parallel_for(0, ctx.elements(0), run);
  } else {
    run(0, ctx.elements(0));
  }
}

void reduce_body(rt::ExecContext& ctx, bool parallel) {
  const auto& args = ctx.arg<SkelArgs>();
  const auto* x = ctx.buffer_as<const float>(0);
  auto* out = ctx.buffer_as<float>(1);
  const std::size_t n = ctx.elements(0);
  if (parallel && ctx.cpu_threads() > 1) {
    // One partial fold per chunk of the team's split, combined in chunk
    // order so the bits do not depend on which chunk finished first
    // (re-association allowed: the operator is required to be associative).
    const std::size_t chunks = chunk_count(ctx.cpu_threads(), n);
    std::vector<float> partials(chunks);
    ctx.parallel_for(0, chunks, [&](std::size_t b, std::size_t e) {
      for (std::size_t c = b; c < e; ++c) {
        const ChunkRange range = chunk_range(n, chunks, c);
        float acc = args.identity;
        for (std::size_t i = range.begin; i < range.end; ++i) {
          acc = args.bin_fn(acc, x[i]);
        }
        partials[c] = acc;
      }
    });
    float acc = args.identity;
    for (float p : partials) acc = args.bin_fn(acc, p);
    *out = acc;
  } else {
    float acc = args.identity;
    for (std::size_t i = 0; i < n; ++i) acc = args.bin_fn(acc, x[i]);
    *out = acc;
  }
}

void scan_body(rt::ExecContext& ctx) {
  const auto& args = ctx.arg<SkelArgs>();
  const auto* x = ctx.buffer_as<const float>(0);
  auto* y = ctx.buffer_as<float>(1);
  const std::size_t n = ctx.elements(0);
  if (n == 0) return;
  float acc = x[0];
  y[0] = acc;
  for (std::size_t i = 1; i < n; ++i) {
    acc = args.bin_fn(acc, x[i]);
    y[i] = acc;
  }
}

void sort_body(rt::ExecContext& ctx) {
  auto* x = ctx.buffer_as<float>(0);
  std::sort(x, x + ctx.elements(0));
}

/// Parallel merge sort for the OpenMP variant: per-chunk std::sort, then a
/// serial k-way merge via repeated two-way merges.
void sort_body_parallel(rt::ExecContext& ctx) {
  auto* x = ctx.buffer_as<float>(0);
  const std::size_t n = ctx.elements(0);
  const std::size_t chunks =
      std::min<std::size_t>(static_cast<std::size_t>(ctx.cpu_threads()),
                            std::max<std::size_t>(1, n / 1024));
  if (chunks <= 1) {
    std::sort(x, x + n);
    return;
  }
  std::vector<std::size_t> bounds{0};
  for (std::size_t c = 1; c <= chunks; ++c) bounds.push_back(n * c / chunks);
  ctx.parallel_for(0, chunks, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      std::sort(x + bounds[c], x + bounds[c + 1]);
    }
  });
  // Fold the sorted runs together.
  std::vector<float> buffer(n);
  std::size_t sorted_end = bounds[1];
  for (std::size_t c = 1; c < chunks; ++c) {
    std::merge(x, x + sorted_end, x + bounds[c], x + bounds[c + 1],
               buffer.begin());
    sorted_end = bounds[c + 1];
    std::copy(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(sorted_end), x);
  }
}

// ---------------------------------------------------------------------------
// cost hints
// ---------------------------------------------------------------------------

sim::KernelCost streaming_cost(double flops_per_elem,
                               const std::vector<std::size_t>& bytes) {
  double total_bytes = 0.0;
  for (std::size_t b : bytes) total_bytes += static_cast<double>(b);
  const double elems = static_cast<double>(bytes[0]) / sizeof(float);
  return {flops_per_elem * elems, total_bytes, 1.0};
}

sim::KernelCost sort_cost(const std::vector<std::size_t>& bytes, const void*) {
  const double n = static_cast<double>(bytes[0]) / sizeof(float);
  const double log_n = n > 2.0 ? std::log2(n) : 1.0;
  return {8.0 * n * log_n, static_cast<double>(bytes[0]) * log_n, 0.6};
}

void add_variants(const std::string& name, rt::ImplFn serial, rt::ImplFn omp,
                  rt::CostFn cost) {
  rt::Codelet& codelet = core::ComponentRegistry::global().get_or_create(name);
  codelet.add_impl({rt::Arch::kCpu, name + "_cpu", serial, cost});
  codelet.add_impl({rt::Arch::kCpuOmp, name + "_openmp", omp, cost});
  codelet.add_impl({rt::Arch::kCuda, name + "_cuda", serial, cost});
  codelet.add_impl({rt::Arch::kOpenCl, name + "_opencl", serial, cost});
}

std::shared_ptr<const void> pack(const SkelArgs& value) {
  auto args = std::make_shared<SkelArgs>(value);
  return std::shared_ptr<const void>(args, args.get());
}

}  // namespace

void register_components() {
  static std::once_flag once;
  std::call_once(once, [] {
    add_variants(
        "skel_map", [](rt::ExecContext& ctx) { map_body(ctx, false); },
        [](rt::ExecContext& ctx) { map_body(ctx, true); },
        [](const std::vector<std::size_t>& bytes, const void*) {
          return streaming_cost(2.0, bytes);
        });
    add_variants(
        "skel_zip", [](rt::ExecContext& ctx) { zip_body(ctx, false); },
        [](rt::ExecContext& ctx) { zip_body(ctx, true); },
        [](const std::vector<std::size_t>& bytes, const void*) {
          return streaming_cost(2.0, bytes);
        });
    add_variants(
        "skel_reduce", [](rt::ExecContext& ctx) { reduce_body(ctx, false); },
        [](rt::ExecContext& ctx) { reduce_body(ctx, true); },
        [](const std::vector<std::size_t>& bytes, const void*) {
          return streaming_cost(1.0, bytes);
        });
    add_variants(
        "skel_scan", [](rt::ExecContext& ctx) { scan_body(ctx); },
        [](rt::ExecContext& ctx) { scan_body(ctx); },
        [](const std::vector<std::size_t>& bytes, const void*) {
          return streaming_cost(2.0, bytes);
        });
    add_variants(
        "skel_sort", [](rt::ExecContext& ctx) { sort_body(ctx); },
        [](rt::ExecContext& ctx) { sort_body_parallel(ctx); }, &sort_cost);
  });
}

rt::TaskPtr map(cont::Vector<float>& x, cont::Vector<float>& y, MapFn f,
                float c) {
  check(f != nullptr, "skel map: null function");
  check(x.size() == y.size(), "skel map: size mismatch");
  register_components();
  SkelArgs args;
  args.map_fn = f;
  args.constant = c;
  return core::invoke_async("skel_map",
                            {{x.handle(), rt::AccessMode::kRead},
                             {y.handle(), rt::AccessMode::kWrite}},
                            pack(args));
}

rt::TaskPtr zip(cont::Vector<float>& x, cont::Vector<float>& y,
                cont::Vector<float>& z, BinFn f) {
  check(f != nullptr, "skel zip: null function");
  check(x.size() == y.size() && y.size() == z.size(), "skel zip: size mismatch");
  register_components();
  SkelArgs args;
  args.bin_fn = f;
  return core::invoke_async("skel_zip",
                            {{x.handle(), rt::AccessMode::kRead},
                             {y.handle(), rt::AccessMode::kRead},
                             {z.handle(), rt::AccessMode::kWrite}},
                            pack(args));
}

rt::TaskPtr reduce(cont::Vector<float>& x, cont::Scalar<float>& out, BinFn op,
                   float identity) {
  check(op != nullptr, "skel reduce: null operator");
  register_components();
  SkelArgs args;
  args.bin_fn = op;
  args.identity = identity;
  return core::invoke_async("skel_reduce",
                            {{x.handle(), rt::AccessMode::kRead},
                             {out.handle(), rt::AccessMode::kWrite}},
                            pack(args));
}

rt::TaskPtr scan(cont::Vector<float>& x, cont::Vector<float>& y, BinFn op) {
  check(op != nullptr, "skel scan: null operator");
  check(x.size() == y.size(), "skel scan: size mismatch");
  register_components();
  SkelArgs args;
  args.bin_fn = op;
  return core::invoke_async("skel_scan",
                            {{x.handle(), rt::AccessMode::kRead},
                             {y.handle(), rt::AccessMode::kWrite}},
                            pack(args));
}

rt::TaskPtr sort(cont::Vector<float>& x) {
  register_components();
  return core::invoke_async("skel_sort",
                            {{x.handle(), rt::AccessMode::kReadWrite}},
                            pack(SkelArgs{}));
}

}  // namespace peppher::lib
