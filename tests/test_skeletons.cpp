// Adaptive algorithm-library tests: the five skeletons against their
// standard-library equivalents, on forced architectures and under dynamic
// selection, including the asynchronous chaining behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/peppher.hpp"
#include "lib/skeletons.hpp"
#include "support/rng.hpp"

namespace peppher::lib {
namespace {

float plus(float a, float b) { return a + b; }
float times(float a, float b) { return a * b; }
float fmax_fn(float a, float b) { return a < b ? b : a; }
float axpb(float x, float c) { return 2.0f * x + c; }
float square(float x, float) { return x * x; }
float right(float, float b) { return b; }  // associative, not commutative

class SkeletonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (!core::initialized()) {
      rt::EngineConfig config;
      config.machine = sim::MachineConfig::platform_c2050();
      config.machine.cpu_cores = 2;
      config.use_history_models = false;
      core::initialize(config);
    }
    register_components();
  }

  static cont::Vector<float> random_vector(std::size_t n, std::uint64_t seed) {
    cont::Vector<float> v(&core::engine(), n);
    Rng rng(seed);
    auto view = v.write_access();
    for (float& value : view) value = static_cast<float>(rng.uniform(-8.0, 8.0));
    return v;
  }
};

TEST_F(SkeletonTest, MapAppliesElementwise) {
  auto x = random_vector(999, 3);
  cont::Vector<float> y(&core::engine(), 999);
  map(x, y, &axpb, 5.0f);
  auto xs = x.read_access();
  auto ys = y.read_access();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_FLOAT_EQ(ys[i], 2.0f * xs[i] + 5.0f);
  }
}

TEST_F(SkeletonTest, ZipCombinesTwoVectors) {
  auto x = random_vector(512, 5);
  auto y = random_vector(512, 6);
  cont::Vector<float> z(&core::engine(), 512);
  zip(x, y, z, &times);
  auto xs = x.read_access();
  auto ys = y.read_access();
  auto zs = z.read_access();
  for (std::size_t i = 0; i < zs.size(); ++i) {
    ASSERT_FLOAT_EQ(zs[i], xs[i] * ys[i]);
  }
}

TEST_F(SkeletonTest, ReduceSumAndMax) {
  auto x = random_vector(4096, 7);
  cont::Scalar<float> total(&core::engine());
  reduce(x, total, &plus, 0.0f);
  auto xs = x.read_access();
  const double expected = std::accumulate(xs.begin(), xs.end(), 0.0);
  EXPECT_NEAR(total.get(), expected, 1e-2);

  cont::Scalar<float> biggest(&core::engine());
  reduce(x, biggest, &fmax_fn, -1e30f);
  EXPECT_FLOAT_EQ(biggest.get(), *std::max_element(xs.begin(), xs.end()));
}

TEST_F(SkeletonTest, ScanInclusivePrefix) {
  auto x = random_vector(257, 9);
  cont::Vector<float> y(&core::engine(), 257);
  scan(x, y, &plus);
  auto xs = x.read_access();
  auto ys = y.read_access();
  float acc = 0.0f;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += xs[i];
    ASSERT_NEAR(ys[i], acc, 1e-2);
  }
}

TEST_F(SkeletonTest, SortOrdersAscending) {
  auto x = random_vector(10'000, 11);
  sort(x);
  auto view = x.read_access();
  EXPECT_TRUE(std::is_sorted(view.begin(), view.end()));
}

TEST_F(SkeletonTest, SortOnEveryVariant) {
  for (rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCpuOmp, rt::Arch::kCuda}) {
    auto x = random_vector(5'000, 13 + static_cast<std::uint64_t>(arch));
    register_components();
    core::CallOptions options;
    options.forced_arch = arch;
    core::invoke("skel_sort", {{x.handle(), rt::AccessMode::kReadWrite}},
                 nullptr, options);
    auto view = x.read_access();
    EXPECT_TRUE(std::is_sorted(view.begin(), view.end()))
        << rt::to_string(arch);
  }
}

TEST_F(SkeletonTest, ChainedSkeletonsComputeDotProduct) {
  // dot(x, y) = reduce(zip(x, y, *), +) — all calls asynchronous; the
  // scalar read at the end synchronises the whole chain.
  auto x = random_vector(2048, 17);
  auto y = random_vector(2048, 19);
  cont::Vector<float> products(&core::engine(), 2048);
  cont::Scalar<float> dot(&core::engine());
  zip(x, y, products, &times);
  reduce(products, dot, &plus, 0.0f);

  auto xs = x.read_access();
  auto ys = y.read_access();
  double expected = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expected += static_cast<double>(xs[i]) * ys[i];
  }
  EXPECT_NEAR(dot.get(), expected, std::fabs(expected) * 1e-4 + 1e-2);
}

TEST_F(SkeletonTest, MapSquareThenScanMatchesManual) {
  auto x = random_vector(300, 23);
  cont::Vector<float> squares(&core::engine(), 300);
  cont::Vector<float> prefix(&core::engine(), 300);
  map(x, squares, &square);
  scan(squares, prefix, &plus);
  auto xs = x.read_access();
  auto ps = prefix.read_access();
  float acc = 0.0f;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += xs[i] * xs[i];
    ASSERT_NEAR(ps[i], acc, acc * 1e-4 + 1e-2);
  }
}

TEST_F(SkeletonTest, SizeMismatchThrows) {
  auto x = random_vector(16, 29);
  cont::Vector<float> y(&core::engine(), 8);
  EXPECT_THROW(map(x, y, &axpb), Error);
  EXPECT_THROW(scan(x, y, &plus), Error);
  cont::Vector<float> z(&core::engine(), 16);
  EXPECT_THROW(zip(x, y, z, &plus), Error);
  EXPECT_THROW(map(x, z, nullptr), Error);
}

TEST_F(SkeletonTest, OpenMpReduceFoldsChunksInOrder) {
  // Only the OpenMP variant stays enabled for this test.
  rt::Codelet& codelet =
      core::ComponentRegistry::global().get_or_create("skel_reduce");
  for (const char* other : {"skel_reduce_cpu", "skel_reduce_cuda",
                            "skel_reduce_opencl"}) {
    codelet.disable_impls(other);
  }
  struct EnableAll {
    rt::Codelet& codelet;
    ~EnableAll() { codelet.enable_all(); }
  } restore{codelet};

  constexpr std::size_t n = 4099;
  auto x = random_vector(n, 31);
  std::vector<float> xs;
  {
    auto view = x.read_access();
    xs.assign(view.begin(), view.end());
  }
  // The documented split: as many chunks as the node has cores,
  // contiguous, sizes differing by at most one, larger chunks first; each
  // chunk folds from the identity and the partials fold in chunk order.
  const auto threads = static_cast<std::size_t>(
      core::engine().cluster().nodes.front().machine.cpu_cores);
  ASSERT_GT(threads, 1u);
  float expected = 0.0f;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < threads; ++c) {
    const std::size_t len = n / threads + (c < n % threads ? 1 : 0);
    float partial = 0.0f;
    for (std::size_t i = begin; i < begin + len; ++i) partial += xs[i];
    expected += partial;
    begin += len;
  }
  ASSERT_EQ(begin, n);

  for (int run = 0; run < 20; ++run) {
    cont::Scalar<float> total(&core::engine());
    rt::TaskPtr task = reduce(x, total, &plus, 0.0f);
    core::engine().wait(task);
    EXPECT_EQ(task->executed_arch, rt::Arch::kCpuOmp);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(total.get()),
              std::bit_cast<std::uint32_t>(expected))
        << "run " << run;

    // The right projection keeps the last partial folded: the last
    // chunk's, whichever chunk finished last.
    cont::Scalar<float> last(&core::engine());
    reduce(x, last, &right, 0.0f);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(last.get()),
              std::bit_cast<std::uint32_t>(xs[n - 1]))
        << "run " << run;
  }
}

}  // namespace
}  // namespace peppher::lib
