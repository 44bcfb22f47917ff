// Intra-component parallelism (§IV-F): "for certain computations, more
// parallelism can be spawned from a single component invocation by
// partitioning and dividing the work into several chunks that all can be
// processed concurrently, possibly on different devices ... (e.g. blocked
// matrix multiplication)."
//
// This example PEPPHERizes exactly that: one logical matrix product whose
// C rows are partitioned through the smart container into blocks, each
// block becoming one runtime sub-task that the performance-aware scheduler
// places on CPUs or the GPU.
//
// Build & run:  ./build/examples/hybrid_matmul
#include <cstdio>
#include <memory>

#include "containers/containers.hpp"
#include "core/peppher.hpp"
#include "support/rng.hpp"

using namespace peppher;

namespace {

struct BlockArgs {
  std::uint32_t rows = 0, n = 0, k = 0;
};

/// One C row-block: C_block = A_block * B.
void register_matmul_block() {
  rt::Codelet& codelet =
      core::ComponentRegistry::global().get_or_create("matmul_block");
  auto body = [](rt::ExecContext& ctx) {
    const auto& args = ctx.arg<BlockArgs>();
    const auto* A = ctx.buffer_as<const float>(0);
    const auto* B = ctx.buffer_as<const float>(1);
    auto* C = ctx.buffer_as<float>(2);
    for (std::uint32_t i = 0; i < args.rows; ++i) {
      for (std::uint32_t j = 0; j < args.n; ++j) {
        float acc = 0.0f;
        for (std::uint32_t kk = 0; kk < args.k; ++kk) {
          acc += A[i * args.k + kk] * B[kk * args.n + j];
        }
        C[i * args.n + j] = acc;
      }
    }
  };
  auto cost = [](const std::vector<std::size_t>& bytes, const void* arg) {
    const auto* a = static_cast<const BlockArgs*>(arg);
    return sim::KernelCost{2.0 * a->rows * a->n * a->k,
                           static_cast<double>(bytes[0] + bytes[1] + bytes[2]),
                           1.0};
  };
  for (rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCuda}) {
    codelet.add_impl({arch, "matmul_block_" + rt::to_string(arch), body, cost});
  }
}

}  // namespace

int main() {
  rt::EngineConfig config;
  config.use_history_models = false;  // deterministic placement for the demo
  config.enable_trace = true;
  config.verify_shadow = true;  // log coherence states while demoing
  PEPPHER_INITIALIZE(config);
  register_matmul_block();
  rt::Engine& engine = core::engine();

  const std::uint32_t m = 512, n = 256, k = 128;
  const int blocks = 8;
  cont::Matrix<float> A(&engine, m, k);
  cont::Matrix<float> B(&engine, k, n);
  cont::Matrix<float> C(&engine, m, n);
  {
    Rng rng(7);
    for (float& v : A.write_access()) v = static_cast<float>(rng.uniform(-1, 1));
    for (float& v : B.write_access()) v = static_cast<float>(rng.uniform(-1, 1));
  }

  // One logical invocation -> `blocks` runtime sub-tasks over row blocks.
  auto a_blocks = A.partition_rows(blocks);
  auto c_blocks = C.partition_rows(blocks);
  for (int b = 0; b < blocks; ++b) {
    auto args = std::make_shared<BlockArgs>();
    args->rows = static_cast<std::uint32_t>(a_blocks[static_cast<std::size_t>(b)]->elements());
    args->n = n;
    args->k = k;
    core::invoke_async("matmul_block",
                       {{a_blocks[static_cast<std::size_t>(b)], rt::AccessMode::kRead},
                        {B.handle(), rt::AccessMode::kRead},
                        {c_blocks[static_cast<std::size_t>(b)], rt::AccessMode::kWrite}},
                       std::shared_ptr<const void>(args, args.get()));
  }
  engine.wait_for_all();
  A.unpartition_rows();
  C.unpartition_rows();

  std::printf("C = A(%ux%u) * B(%ux%u) as %d row-block sub-tasks\n", m, k, k,
              n, blocks);
  std::printf("C(0,0) = %.4f, C(%u,%u) = %.4f\n", static_cast<float>(C(0, 0)),
              m - 1, n - 1, static_cast<float>(C(m - 1, n - 1)));
  std::printf("\n%s\n", engine.summary().c_str());
  std::printf("%s", engine.trace().to_text_gantt(70).c_str());
  PEPPHER_SHUTDOWN();
  return 0;
}
