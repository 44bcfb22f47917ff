// Core public-API tests: runtime lifetime, the component registry, the
// invocation helpers and the raw-pointer consistency machinery the
// generated entry-wrappers rely on.
#include <gtest/gtest.h>

#include <cstring>

#include "core/peppher.hpp"
#include "support/error.hpp"

namespace peppher::core {
namespace {

rt::EngineConfig test_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 1;
  config.use_history_models = false;
  return config;
}

/// The whole file runs against one global runtime (like an application).
class CoreApi : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (!initialized()) initialize(test_config());
  }
};

// C-style task function doubling buffers[0] (float elements given by arg).
struct DoubleArgs {
  std::size_t count;
};
void double_task(void** buffers, const void* arg) {
  const auto* a = static_cast<const DoubleArgs*>(arg);
  auto* data = static_cast<float*>(buffers[0]);
  for (std::size_t i = 0; i < a->count; ++i) data[i] *= 2.0f;
}

TEST_F(CoreApi, InitializeIsExclusive) {
  EXPECT_TRUE(initialized());
  EXPECT_THROW(initialize(test_config()), Error);
  EXPECT_NO_THROW(engine());
}

TEST_F(CoreApi, RegistryCreatesFindsAndDisables) {
  auto& registry = ComponentRegistry::global();
  rt::Codelet& codelet = registry.get_or_create("core_test_component");
  EXPECT_EQ(&registry.get_or_create("core_test_component"), &codelet);
  EXPECT_EQ(registry.find("core_test_component"), &codelet);
  EXPECT_EQ(registry.find("never_registered"), nullptr);

  codelet.add_impl({rt::Arch::kCpu, "core_test_cpu", [](rt::ExecContext&) {},
                    nullptr});
  EXPECT_EQ(registry.disable_impls("core_test_cpu"), 1);
  EXPECT_FALSE(codelet.has_enabled_impl());
  registry.enable_all();
  EXPECT_TRUE(codelet.has_enabled_impl());

  const auto names = registry.component_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "core_test_component"),
            names.end());
}

TEST_F(CoreApi, InvokeUnknownComponentThrows) {
  EXPECT_THROW(invoke("no_such_component", {}), Error);
  EXPECT_THROW(invoke_async("no_such_component", {}), Error);
}

TEST_F(CoreApi, RegisterBackendAndInvoke) {
  register_backend("core_doubler", rt::Arch::kCpu, "core_doubler_cpu",
                   &double_task);
  register_backend("core_doubler", rt::Arch::kCuda, "core_doubler_cuda",
                   &double_task);

  std::vector<float> data(32, 3.0f);
  auto handle = engine().register_buffer(data.data(), data.size() * 4, 4);
  auto args = std::make_shared<DoubleArgs>(DoubleArgs{data.size()});
  invoke("core_doubler", {{handle, rt::AccessMode::kReadWrite}},
         std::shared_ptr<const void>(args, args.get()));
  engine().acquire_host(handle, rt::AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 6.0f);
}

TEST_F(CoreApi, InvokeAsyncReturnsWaitableTask) {
  register_backend("core_doubler2", rt::Arch::kCpu, "core_doubler2_cpu",
                   &double_task);
  std::vector<float> data(8, 1.0f);
  auto handle = engine().register_buffer(data.data(), data.size() * 4, 4);
  auto args = std::make_shared<DoubleArgs>(DoubleArgs{data.size()});
  rt::TaskPtr task =
      invoke_async("core_doubler2", {{handle, rt::AccessMode::kReadWrite}},
                   std::shared_ptr<const void>(args, args.get()));
  engine().wait(task);
  EXPECT_EQ(task->state, rt::TaskState::kDone);
  EXPECT_EQ(task->executed_impl, "core_doubler2_cpu");
}

TEST_F(CoreApi, CallOptionsForceArchitecture) {
  register_backend("core_forced", rt::Arch::kCpu, "core_forced_cpu",
                   &double_task);
  register_backend("core_forced", rt::Arch::kCuda, "core_forced_cuda",
                   &double_task);
  std::vector<float> data(8, 1.0f);
  auto handle = engine().register_buffer(data.data(), data.size() * 4, 4);
  auto args = std::make_shared<DoubleArgs>(DoubleArgs{data.size()});
  CallOptions options;
  options.forced_arch = rt::Arch::kCuda;
  rt::TaskPtr task =
      invoke_async("core_forced", {{handle, rt::AccessMode::kReadWrite}},
                   std::shared_ptr<const void>(args, args.get()), options);
  engine().wait(task);
  EXPECT_EQ(task->executed_arch, rt::Arch::kCuda);
}

TEST_F(CoreApi, TransientOperandsCopyBackOnDestruction) {
  register_backend("core_transient", rt::Arch::kCuda, "core_transient_cuda",
                   &double_task);
  std::vector<float> data(16, 5.0f);
  auto args = std::make_shared<DoubleArgs>(DoubleArgs{data.size()});
  {
    TransientOperands operands;
    operands.add(data.data(), data.size(), sizeof(float),
                 rt::AccessMode::kReadWrite);
    invoke("core_transient", operands.operands(),
           std::shared_ptr<const void>(args, args.get()));
    // The GPU wrote the result; the host copy may still be stale here.
  }  // destructor: conservative copy-back (§IV-D raw-pointer rule)
  for (float v : data) EXPECT_FLOAT_EQ(v, 10.0f);
}

TEST_F(CoreApi, WrapCTaskAdaptsBuffersAndArg) {
  rt::ImplFn fn = wrap_c_task(&double_task);
  std::vector<float> payload(4, 2.0f);
  DoubleArgs args{4};
  std::vector<void*> buffers = {payload.data()};
  std::vector<std::size_t> bytes = {16};
  std::vector<std::size_t> elems = {4};
  rt::ExecContext ctx(rt::Arch::kCpu, 0, nullptr, buffers, bytes, elems, &args);
  fn(ctx);
  EXPECT_FLOAT_EQ(payload[0], 4.0f);
  EXPECT_THROW(wrap_c_task(nullptr), Error);
}

}  // namespace
}  // namespace peppher::core
