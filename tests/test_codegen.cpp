// Code-generation tests: wrapper structure (entry-wrapper, backend
// wrappers, registration), peppher.h, Makefile — plus a compilation check
// that pipes a generated wrapper through the host compiler.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "compose/codegen.hpp"
#include "compose/expand.hpp"
#include "compose/ir.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"

#include "temp_dir.hpp"

namespace peppher::compose {
namespace {

desc::Repository raw_pointer_repo() {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="spmv">
      <function returnType="void">
        <param name="values" type="const float*" accessMode="read" size="nnz"/>
        <param name="nnz" type="int" accessMode="read"/>
        <param name="nrows" type="int" accessMode="read"/>
        <param name="x" type="const float*" accessMode="read" size="nrows"/>
        <param name="y" type="float*" accessMode="write" size="nrows"/>
      </function>
    </peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="spmv_cpu" interface="spmv">
      <platform language="cpu"/>
      <sources><source file="cpu/spmv_cpu.cpp"/></sources>
      <compilation command="g++" options="-O2"/>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-implementation name="spmv_cusp" interface="spmv">
      <platform language="cuda"/>
      <sources><source file="cuda/spmv_cusp.cu"/></sources>
      <compilation command="nvcc" options="-O3"/>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-main name="spmv_app" source="main.cpp">
      <uses interface="spmv"/></peppher-main>)");
  return repo;
}

desc::Repository container_repo() {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="vscale">
      <function returnType="void">
        <param name="data" type="Vector&lt;float&gt;&amp;" accessMode="readwrite"/>
        <param name="factor" type="float" accessMode="read"/>
      </function>
    </peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="vscale_cpu" interface="vscale">
      <platform language="cpu"/>
      <sources><source file="cpu/vscale_cpu.cpp"/></sources>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-main name="vapp"><uses interface="vscale"/></peppher-main>)");
  return repo;
}

TEST(Codegen, WrapperContainsBackendWrappersAndRegistration) {
  ComponentTree tree = build_tree(raw_pointer_repo(), Recipe{});
  const std::string wrapper = generate_wrapper_file(tree.components[0]);

  // extern declarations of the actual implementations.
  EXPECT_NE(wrapper.find("extern void spmv_cpu(const float* values"),
            std::string::npos);
  EXPECT_NE(wrapper.find("extern void spmv_cusp("), std::string::npos);
  // Backend wrappers with the runtime's C task-function signature.
  EXPECT_NE(wrapper.find("_peppher_spmv_cpu_task(void** buffers, const void* arg)"),
            std::string::npos);
  EXPECT_NE(wrapper.find("_peppher_spmv_cusp_task"), std::string::npos);
  // Registration of both variants.
  EXPECT_NE(wrapper.find("register_backend(\"spmv\""), std::string::npos);
  EXPECT_NE(wrapper.find("peppher::rt::Arch::kCuda"), std::string::npos);
  // Entry wrapper with the interface's exact signature.
  EXPECT_NE(wrapper.find("void spmv(const float* values, int nnz"),
            std::string::npos);
  // Raw-pointer operands: transient registration with the declared size
  // expressions.
  EXPECT_NE(wrapper.find("static_cast<std::size_t>(nnz)"), std::string::npos);
  EXPECT_NE(wrapper.find("static_cast<std::size_t>(nrows)"), std::string::npos);
  // Raw pointers => synchronous only, no async wrapper.
  EXPECT_EQ(wrapper.find("spmv_async"), std::string::npos);
}

TEST(Codegen, DisabledVariantsAreNotRegistered) {
  Recipe recipe;
  recipe.disable_impls = {"spmv_cusp"};
  ComponentTree tree = build_tree(raw_pointer_repo(), recipe);
  apply_static_narrowing(tree);
  const std::string wrapper = generate_wrapper_file(tree.components[0]);
  EXPECT_EQ(wrapper.find("spmv_cusp"), std::string::npos);
  EXPECT_NE(wrapper.find("spmv_cpu"), std::string::npos);
}

TEST(Codegen, ContainerComponentGetsAsyncWrapper) {
  ComponentTree tree = build_tree(container_repo(), Recipe{});
  const std::string wrapper = generate_wrapper_file(tree.components[0]);
  EXPECT_NE(wrapper.find("void vscale(peppher::cont::Vector<float>& data, "
                         "float factor)"),
            std::string::npos);
  EXPECT_NE(wrapper.find("peppher::rt::TaskPtr vscale_async("), std::string::npos);
  // The lowered implementation signature passes pointer + count.
  EXPECT_NE(wrapper.find("extern void vscale_cpu(float* data, std::size_t "
                         "data_count, float factor)"),
            std::string::npos);
  // Geometry travels through the argument block.
  EXPECT_NE(wrapper.find("data_count = data.size()"), std::string::npos);
}

TEST(Codegen, MissingSizeExpressionThrows) {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="bad">
      <function returnType="void">
        <param name="p" type="float*" accessMode="readwrite"/>
      </function>
    </peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="bad_cpu" interface="bad">
      <platform language="cpu"/></peppher-implementation>)");
  repo.load_text(R"(<peppher-main name="app"><uses interface="bad"/></peppher-main>)");
  ComponentTree tree = build_tree(repo, Recipe{});
  EXPECT_THROW(generate_wrapper_file(tree.components[0]), Error);
}

TEST(Codegen, NonVoidInterfaceUnsupported) {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="ret">
      <function returnType="int"/>
    </peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="ret_cpu" interface="ret">
      <platform language="cpu"/></peppher-implementation>)");
  repo.load_text(R"(<peppher-main name="app"><uses interface="ret"/></peppher-main>)");
  ComponentTree tree = build_tree(repo, Recipe{});
  EXPECT_THROW(generate_wrapper_file(tree.components[0]), Error);
}

TEST(Codegen, PredictionFunctionsAreWiredIntoRegistration) {
  desc::Repository repo = raw_pointer_repo();
  repo.load_text(R"(<peppher-implementation name="spmv_pred" interface="spmv">
      <platform language="cuda"/>
      <prediction function="spmv_pred_cost"/>
    </peppher-implementation>)");
  ComponentTree tree = build_tree(repo, Recipe{});
  const std::string wrapper = generate_wrapper_file(tree.components[0]);
  EXPECT_NE(wrapper.find("extern peppher::sim::KernelCost spmv_pred_cost("),
            std::string::npos);
  EXPECT_NE(wrapper.find("&_peppher_spmv_pred_task, &spmv_pred_cost)"),
            std::string::npos);
  // Variants without a prediction function register without one.
  EXPECT_NE(wrapper.find("\"spmv_cpu\", &_peppher_spmv_cpu_task);"),
            std::string::npos);
}

TEST(Codegen, TunableExpandedVariantsCompileToDistinctObjects) {
  desc::Repository repo = raw_pointer_repo();
  repo.load_text(R"(<peppher-implementation name="spmv_tiled" interface="spmv">
      <platform language="cuda"/>
      <sources><source file="cuda/spmv_tiled.cu"/></sources>
      <compilation command="nvcc" options="-O3"/>
      <tunables><tunable name="block_size" values="64,128"/></tunables>
    </peppher-implementation>)");
  ComponentTree tree = build_tree(repo, Recipe{});
  expand_tunables(tree);
  const std::string makefile = generate_makefile(tree);
  EXPECT_NE(makefile.find("spmv_tiled__block_size_64_cuda_spmv_tiled.o"),
            std::string::npos);
  EXPECT_NE(makefile.find("spmv_tiled__block_size_128_cuda_spmv_tiled.o"),
            std::string::npos);
  EXPECT_NE(makefile.find("-DBLOCK_SIZE=128"), std::string::npos);
}

TEST(Codegen, ConstraintsBecomeSelectabilityPredicates) {
  desc::Repository repo = raw_pointer_repo();
  repo.load_text(R"(<peppher-implementation name="spmv_bigonly" interface="spmv">
      <platform language="cuda"/>
      <constraints>
        <constraint param="nnz" min="1024"/>
        <constraint param="nrows" max="1000000"/>
      </constraints>
    </peppher-implementation>)");
  ComponentTree tree = build_tree(repo, Recipe{});
  const std::string wrapper = generate_wrapper_file(tree.components[0]);
  EXPECT_NE(wrapper.find("_peppher_spmv_bigonly_selectable"), std::string::npos);
  EXPECT_NE(wrapper.find("a->nnz) >= 1024"), std::string::npos);
  EXPECT_NE(wrapper.find("a->nrows) <= 1"), std::string::npos);  // 1e6 spelled out
  EXPECT_NE(wrapper.find(", nullptr, &_peppher_spmv_bigonly_selectable)"),
            std::string::npos);
  // Unconstrained variants register without a predicate.
  EXPECT_NE(wrapper.find("\"spmv_cpu\", &_peppher_spmv_cpu_task);"),
            std::string::npos);
}

TEST(Codegen, HeaderDeclaresEveryEntryWrapper) {
  ComponentTree tree = build_tree(raw_pointer_repo(), Recipe{});
  const std::string header = generate_header(tree);
  EXPECT_NE(header.find("#pragma once"), std::string::npos);
  EXPECT_NE(header.find("core/peppher.hpp"), std::string::npos);
  EXPECT_NE(header.find("void spmv(const float* values"), std::string::npos);
}

TEST(Codegen, MakefileHasPerVariantCompileRules) {
  ComponentTree tree = build_tree(raw_pointer_repo(), Recipe{});
  const std::string makefile = generate_makefile(tree);
  EXPECT_NE(makefile.find("spmv_app: $(OBJS)"), std::string::npos);
  EXPECT_NE(makefile.find("main.o: main.cpp"), std::string::npos);
  EXPECT_NE(makefile.find("spmv_wrapper.o: spmv_wrapper.cpp"), std::string::npos);
  // The CUDA variant keeps its descriptor-specified compiler and options.
  EXPECT_NE(makefile.find("nvcc -O3"), std::string::npos);
  EXPECT_NE(makefile.find("spmv_cusp_cuda_spmv_cusp.o: cuda/spmv_cusp.cu"),
            std::string::npos);
  EXPECT_NE(makefile.find("clean:"), std::string::npos);
}

TEST(Codegen, GenerateProducesAllFiles) {
  ComponentTree tree = build_tree(raw_pointer_repo(), Recipe{});
  const CodegenResult result = generate(tree);
  ASSERT_EQ(result.files.size(), 3u);  // wrapper + peppher.h + Makefile
  EXPECT_EQ(result.files[0].path, "spmv_wrapper.cpp");
  EXPECT_EQ(result.files[1].path, "peppher.h");
  EXPECT_EQ(result.files[2].path, "Makefile");
}

TEST(Codegen, WriteFilesCreatesTree) {
  ComponentTree tree = build_tree(raw_pointer_repo(), Recipe{});
  const auto dir = peppher::testing::unique_temp_dir("peppher_gen_test");
  write_files(generate(tree), dir);
  EXPECT_TRUE(std::filesystem::exists(dir / "spmv_wrapper.cpp"));
  EXPECT_TRUE(std::filesystem::exists(dir / "peppher.h"));
  EXPECT_TRUE(std::filesystem::exists(dir / "Makefile"));
  std::filesystem::remove_all(dir);
}

// The one lowering the code generator emits and lint checks against.
TEST(Codegen, LoweredSignatureConventions) {
  desc::InterfaceDescriptor iface;
  iface.name = "k";
  desc::ParamDesc vec;
  vec.name = "v";
  vec.type = "Vector<double>&";
  iface.params.push_back(vec);
  desc::ParamDesc mat;
  mat.name = "m";
  mat.type = "Matrix<float>&";
  iface.params.push_back(mat);
  desc::ParamDesc scalar;
  scalar.name = "s";
  scalar.type = "Scalar<int>&";
  iface.params.push_back(scalar);
  desc::ParamDesc value;
  value.name = "alpha";
  value.type = "float";
  iface.params.push_back(value);
  EXPECT_EQ(desc::lowered_impl_signature(iface, "k_cpu"),
            "void k_cpu(double* v, std::size_t v_count, float* m, std::size_t "
            "m_rows, std::size_t m_cols, int* s, float alpha)");
}

// Generated wrappers must actually compile: syntax-check the generated
// wrapper and header with the host compiler against the real core API.
TEST(Codegen, GeneratedWrapperCompiles) {
  for (bool containers : {false, true}) {
    ComponentTree tree =
        build_tree(containers ? container_repo() : raw_pointer_repo(), Recipe{});
    const auto dir = peppher::testing::unique_temp_dir(
        containers ? "peppher_cc_cont" : "peppher_cc_raw");
    write_files(generate(tree), dir);
    const std::string src_root = std::string(PEPPHER_SOURCE_ROOT) + "/src";
    const std::string command = "g++ -std=c++20 -fsyntax-only -I" + dir.string() +
                                " -I" + src_root + " " +
                                (dir / (containers ? "vscale_wrapper.cpp"
                                                   : "spmv_wrapper.cpp"))
                                    .string() +
                                " 2> " + (dir / "cc.log").string();
    const int rc = std::system(command.c_str());
    EXPECT_EQ(rc, 0) << fs::read_file(dir / "cc.log");
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace peppher::compose
