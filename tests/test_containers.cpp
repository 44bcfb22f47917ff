// Smart-container tests: plain-container behaviour outside PEPPHER, lazy
// coherence with proxy-based read/write detection, implicit blocking on
// in-flight tasks, row-block partitioning, and containers that outlive
// their engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "containers/containers.hpp"
#include "containers/partitioned.hpp"
#include "core/peppher.hpp"
#include "runtime/engine.hpp"

namespace peppher::cont {
namespace {

rt::EngineConfig test_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  return config;
}

/// Doubles operand 0 in place.
rt::Codelet make_double_codelet(rt::Arch arch) {
  rt::Codelet codelet("cont_double");
  rt::Implementation impl;
  impl.arch = arch;
  impl.name = "cont_double";
  impl.fn = [](rt::ExecContext& ctx) {
    auto* data = ctx.buffer_as<float>(0);
    // Iterate floats regardless of the handle's element granularity (row
    // blocks have row-sized elements).
    for (std::size_t i = 0; i < ctx.buffer_bytes(0) / sizeof(float); ++i) {
      data[i] *= 2.0f;
    }
  };
  codelet.add_impl(std::move(impl));
  return codelet;
}

// -- unmanaged: regular C++ containers (the paper: "function as regular C++
// containers outside the PEPPHER context") ------------------------------------

TEST(VectorContainer, UnmanagedActsAsPlainContainer) {
  Vector<float> v(8, 1.5f);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_FLOAT_EQ(v[3], 1.5f);
  v[3] = 4.0f;
  EXPECT_FLOAT_EQ(v[3], 4.0f);
  EXPECT_FALSE(v.managed());
}

TEST(MatrixContainer, UnmanagedIndexing) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  m(2, 3) = 9;
  EXPECT_EQ(m(2, 3), 9);
  EXPECT_EQ(m(0, 0), 7);
}

TEST(ScalarContainer, UnmanagedGetSet) {
  Scalar<double> s(2.5);
  EXPECT_DOUBLE_EQ(s.get(), 2.5);
  s.set(3.5);
  EXPECT_DOUBLE_EQ(s.get(), 3.5);
}

TEST(VectorContainer, OutOfRangeThrows) {
  Vector<float> v(4);
  EXPECT_THROW(v[4], Error);
  Matrix<float> m(2, 2);
  EXPECT_THROW(m(2, 0), Error);
}

// -- managed -------------------------------------------------------------------

TEST(VectorContainer, TaskResultVisibleThroughProxyRead) {
  rt::Engine engine(test_config());
  Vector<float> v(&engine, 32, 1.0f);
  rt::Codelet codelet = make_double_codelet(rt::Arch::kCuda);

  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{v.handle(), rt::AccessMode::kReadWrite}};
  engine.submit(std::move(spec));
  // No explicit wait: the element read must block and fetch from the GPU.
  EXPECT_FLOAT_EQ(v[0], 2.0f);
  EXPECT_FLOAT_EQ(v[31], 2.0f);
}

TEST(VectorContainer, ReadAccessKeepsDeviceCopyValid) {
  rt::Engine engine(test_config());
  Vector<float> v(&engine, 64, 1.0f);
  rt::Codelet codelet = make_double_codelet(rt::Arch::kCuda);

  auto run_task = [&] {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{v.handle(), rt::AccessMode::kReadWrite}};
    spec.synchronous = true;
    engine.submit(std::move(spec));
  };
  run_task();
  engine.reset_transfer_stats();
  (void)v.read_access();  // d2h copy (1 transfer)
  (void)v.read_access();  // cached, no transfer
  const float x = v[5];   // proxy read, still cached
  EXPECT_FLOAT_EQ(x, 2.0f);
  EXPECT_EQ(engine.transfer_stats().total_count(), 1u);

  // A second task on the GPU can reuse the device copy (reads only happened
  // since): no new h2d transfer for the fetch, device copy was never
  // invalidated.
  run_task();
  engine.acquire_host(v.handle(), rt::AccessMode::kRead);
  EXPECT_EQ(engine.transfer_stats().host_to_device_count, 0u);
}

TEST(VectorContainer, ProxyWriteInvalidatesDeviceCopy) {
  rt::Engine engine(test_config());
  Vector<float> v(&engine, 16, 1.0f);
  rt::Codelet codelet = make_double_codelet(rt::Arch::kCuda);
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{v.handle(), rt::AccessMode::kReadWrite}};
  spec.synchronous = true;
  engine.submit(std::move(spec));

  v[0] = 100.0f;  // write access: fetches, then invalidates the GPU copy
  engine.reset_transfer_stats();

  rt::TaskSpec spec2;
  spec2.codelet = &codelet;
  spec2.operands = {{v.handle(), rt::AccessMode::kReadWrite}};
  spec2.synchronous = true;
  engine.submit(std::move(spec2));
  // The fresh host write must flow to the device again.
  EXPECT_EQ(engine.transfer_stats().host_to_device_count, 1u);
  EXPECT_FLOAT_EQ(v[0], 200.0f);
}

TEST(VectorContainer, CompoundAssignmentThroughProxy) {
  rt::Engine engine(test_config());
  Vector<float> v(&engine, 4, 10.0f);
  v[1] += 5.0f;
  v[2] *= 3.0f;
  EXPECT_FLOAT_EQ(v[1], 15.0f);
  EXPECT_FLOAT_EQ(v[2], 30.0f);
}

TEST(MatrixContainer, ManagedTaskRoundTrip) {
  rt::Engine engine(test_config());
  Matrix<float> m(&engine, 8, 8, 1.0f);
  rt::Codelet codelet = make_double_codelet(rt::Arch::kCpu);
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{m.handle(), rt::AccessMode::kReadWrite}};
  spec.synchronous = true;
  engine.submit(std::move(spec));
  EXPECT_FLOAT_EQ(m(7, 7), 2.0f);
}

TEST(MatrixContainer, RowBlockPartitioning) {
  rt::Engine engine(test_config());
  Matrix<float> m(&engine, 6, 4, 0.0f);
  {
    auto view = m.write_access();
    std::iota(view.begin(), view.end(), 0.0f);
  }
  auto blocks = m.partition_rows(3);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0]->elements(), 2u);  // 2 rows each, element = row
  EXPECT_EQ(blocks[0]->bytes(), 2u * 4u * sizeof(float));

  rt::Codelet codelet = make_double_codelet(rt::Arch::kCuda);
  for (auto& block : blocks) {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{block, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  m.unpartition_rows();
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(5, 3), 46.0f);  // 23 * 2
}

TEST(ScalarContainer, ManagedReduction) {
  rt::Engine engine(test_config());
  Vector<float> v(&engine, 100, 1.0f);
  Scalar<float> total(&engine);

  rt::Codelet codelet("sum");
  rt::Implementation impl;
  impl.arch = rt::Arch::kCuda;
  impl.name = "sum_cuda";
  impl.fn = [](rt::ExecContext& ctx) {
    const auto* in = ctx.buffer_as<const float>(0);
    auto* out = ctx.buffer_as<float>(1);
    float acc = 0.0f;
    for (std::size_t i = 0; i < ctx.elements(0); ++i) acc += in[i];
    out[0] = acc;
  };
  codelet.add_impl(std::move(impl));

  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{v.handle(), rt::AccessMode::kRead},
                   {total.handle(), rt::AccessMode::kWrite}};
  engine.submit(std::move(spec));
  EXPECT_FLOAT_EQ(total.get(), 100.0f);  // blocks + fetches implicitly
}

// -- lifetime: a container may outlive its engine -----------------------------

TEST(VectorContainer, OutlivesItsEngine) {
  // The engine's shutdown syncs the data home and detaches the handle: the
  // container's memory then holds the final result, destroying the
  // container is a no-op, and any other use is a located error.
  rt::Codelet codelet = make_double_codelet(rt::Arch::kCuda);
  std::optional<Vector<float>> destroyed_after;
  std::optional<Vector<float>> used_after;
  std::optional<PartitionedVector<float>> sliced;
  {
    rt::Engine engine(test_config());
    destroyed_after.emplace(&engine, 32, 1.0f);
    used_after.emplace(&engine, 32, 1.0f);
    sliced.emplace(&engine, Partitioning::block(32, 1), 1.0f);
    std::vector<rt::DataHandlePtr> handles = {destroyed_after->handle(),
                                              used_after->handle()};
    handles.push_back(sliced->partition_handles(0).front());
    for (const rt::DataHandlePtr& handle : handles) {
      rt::TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handle, rt::AccessMode::kReadWrite}};
      engine.submit(std::move(spec));  // the only valid copy: on the GPU
    }
    engine.wait_for_all();
  }
  destroyed_after.reset();
  EXPECT_FLOAT_EQ(sliced->data()[0], 2.0f);
  EXPECT_FLOAT_EQ(sliced->data()[31], 2.0f);
  sliced.reset();
  EXPECT_FLOAT_EQ(used_after->storage().data()[0], 2.0f);
  EXPECT_FLOAT_EQ(used_after->storage().data()[31], 2.0f);
  try {
    (void)static_cast<float>((*used_after)[0]);
    ADD_FAILURE() << "a read after shutdown must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("used after its runtime engine shut "
                                         "down"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(used_after->handle(), Error);
  EXPECT_TRUE(used_after->managed());
}

TEST(VectorContainer, FailedDeviceWriterLeavesFreedMemoryAlone) {
  // The container goes while its writer is still running on the GPU, and
  // the writer then fails: the sync in the container's destructor rethrows
  // the error (swallowed), and the GPU holds the only valid copy. The
  // handle outlives the engine (here a reference does what a task's link
  // to its operands does), so the engine's shutdown meets it and must not
  // copy into the freed memory (an AddressSanitizer build reports it).
  std::atomic<bool> open{false};
  rt::Codelet codelet("cont_fail");
  codelet.add_impl({rt::Arch::kCuda, "cont_fail_cuda",
                    [&open](rt::ExecContext&) {
                      while (!open.load()) std::this_thread::yield();
                      throw Error(ErrorCode::kIoError, "kernel failed");
                    },
                    nullptr});
  rt::EngineConfig config = test_config();
  config.max_retries = 0;
  rt::DataHandlePtr handle;
  rt::Engine engine(config);
  std::thread opener;
  {
    Vector<float> v(&engine, 32, 1.0f);
    handle = v.handle();
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
    // Fails the writer while the destructor below waits for it.
    opener = std::thread([&open] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      open.store(true);
    });
  }
  opener.join();
  EXPECT_EQ(handle->replica_state(rt::kHostNode), rt::ReplicaState::kInvalid);
}

TEST(VectorContainer, ShutdownSyncIgnoresTransferFaults) {
  // Every PCIe hop touching the GPU fails, but a write-only task needs
  // none, so its result lives only on the GPU. The shutdown sync home is a
  // plain copy: it draws no transfer fault and the engine's destructor
  // does not throw.
  rt::Codelet fill("cont_fill");
  fill.add_impl({rt::Arch::kCuda, "cont_fill_cuda",
                 [](rt::ExecContext& ctx) {
                   auto* data = ctx.buffer_as<float>(0);
                   for (std::size_t i = 0; i < ctx.elements(0); ++i) {
                     data[i] = 3.0f;
                   }
                 },
                 nullptr});
  std::optional<Vector<float>> v;
  {
    rt::EngineConfig config = test_config();
    config.accelerator_faults = {sim::FaultPlan{.transfer_failure_rate = 1.0}};
    rt::Engine engine(config);
    v.emplace(&engine, 32, 1.0f);
    rt::TaskSpec spec;
    spec.codelet = &fill;
    spec.operands = {{v->handle(), rt::AccessMode::kWrite}};
    spec.synchronous = true;
    engine.submit(std::move(spec));
    ASSERT_EQ(v->handle()->replica_state(rt::kHostNode),
              rt::ReplicaState::kInvalid);
  }
  EXPECT_FLOAT_EQ(v->storage().data()[0], 3.0f);
  EXPECT_FLOAT_EQ(v->storage().data()[31], 3.0f);
}

}  // namespace
}  // namespace peppher::cont
