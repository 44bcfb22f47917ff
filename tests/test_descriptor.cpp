// Descriptor tests: XML round-trips of all four descriptor kinds, the
// repository, bottom-up ordering and validation diagnostics.
#include <gtest/gtest.h>

#include <filesystem>

#include "descriptor/descriptor.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "xml/xml.hpp"

#include "temp_dir.hpp"

namespace peppher::desc {
namespace {

const char* const kSpmvInterface = R"(
<peppher-interface name="spmv">
  <function returnType="void">
    <param name="values" type="const float*" accessMode="read" size="nnz"/>
    <param name="nnz" type="int" accessMode="read"/>
    <param name="nrows" type="int" accessMode="read"/>
    <param name="x" type="const float*" accessMode="read" size="nrows"/>
    <param name="y" type="float*" accessMode="write" size="nrows"/>
  </function>
  <performanceMetrics><metric name="avg_exec_time"/></performanceMetrics>
  <contextParams><contextParam name="nnz" min="0" max="1e9"/></contextParams>
</peppher-interface>
)";

const char* const kCpuImpl = R"(
<peppher-implementation name="spmv_cpu" interface="spmv">
  <platform language="cpu"/>
  <sources><source file="cpu/spmv_cpu.cpp"/></sources>
  <compilation command="g++" options="-O2"/>
</peppher-implementation>
)";

const char* const kCudaImpl = R"(
<peppher-implementation name="spmv_cusp" interface="spmv">
  <platform language="cuda" target="TeslaC2050"/>
  <sources><source file="cuda/spmv_cusp.cu"/></sources>
  <compilation command="nvcc" options="-O3 -arch=sm_20"/>
  <resources minMemoryMB="1" maxMemoryMB="2048"/>
  <prediction function="spmv_cusp_predict"/>
  <tunables><tunable name="block_size" values="64,128,256" default="128"/></tunables>
  <constraints><constraint param="nnz" min="1024"/></constraints>
</peppher-implementation>
)";

TEST(InterfaceDescriptor, ParsesAllFields) {
  const xml::Document doc = xml::parse(kSpmvInterface);
  const InterfaceDescriptor iface = InterfaceDescriptor::from_xml(*doc.root);
  EXPECT_EQ(iface.name, "spmv");
  ASSERT_EQ(iface.params.size(), 5u);
  EXPECT_EQ(iface.params[0].type, "const float*");
  EXPECT_EQ(iface.params[0].access, rt::AccessMode::kRead);
  EXPECT_EQ(iface.params[0].size_expr, "nnz");
  EXPECT_TRUE(iface.params[0].is_operand());
  EXPECT_FALSE(iface.params[1].is_operand());
  EXPECT_EQ(iface.params[4].access, rt::AccessMode::kWrite);
  ASSERT_EQ(iface.performance_metrics.size(), 1u);
  ASSERT_EQ(iface.context_params.size(), 1u);
  EXPECT_DOUBLE_EQ(iface.context_params[0].max.value(), 1e9);
  EXPECT_FALSE(iface.is_generic());
}

TEST(InterfaceDescriptor, RoundTrip) {
  const xml::Document doc = xml::parse(kSpmvInterface);
  const InterfaceDescriptor iface = InterfaceDescriptor::from_xml(*doc.root);
  const InterfaceDescriptor again =
      InterfaceDescriptor::from_xml(*iface.to_xml());
  EXPECT_EQ(again.name, iface.name);
  EXPECT_EQ(again.params.size(), iface.params.size());
  EXPECT_EQ(again.params[0].size_expr, "nnz");
  EXPECT_EQ(again.context_params.size(), iface.context_params.size());
}

TEST(InterfaceDescriptor, PrototypeRendersSignature) {
  const xml::Document doc = xml::parse(kSpmvInterface);
  const InterfaceDescriptor iface = InterfaceDescriptor::from_xml(*doc.root);
  const std::string proto = iface.prototype();
  EXPECT_NE(proto.find("void spmv("), std::string::npos);
  EXPECT_NE(proto.find("const float* values"), std::string::npos);
}

TEST(InterfaceDescriptor, GenericTemplateParams) {
  const xml::Document doc = xml::parse(R"(
    <peppher-interface name="sort">
      <function returnType="void">
        <param name="data" type="Vector&lt;T&gt;&amp;" accessMode="readwrite"/>
      </function>
      <templateParam name="T"/>
    </peppher-interface>)");
  const InterfaceDescriptor iface = InterfaceDescriptor::from_xml(*doc.root);
  EXPECT_TRUE(iface.is_generic());
  EXPECT_EQ(iface.params[0].type, "Vector<T>&");
  EXPECT_TRUE(iface.params[0].is_container());
  EXPECT_EQ(iface.params[0].element_type(), "T");
}

TEST(ParamDesc, ElementTypeExtraction) {
  ParamDesc p;
  p.type = "const float*";
  EXPECT_EQ(p.element_type(), "float");
  p.type = "Vector<unsigned long>&";
  EXPECT_EQ(p.element_type(), "unsigned long");
  p.type = "int";
  EXPECT_EQ(p.element_type(), "");
}

TEST(ImplementationDescriptor, ParsesAllFields) {
  const xml::Document doc = xml::parse(kCudaImpl);
  const ImplementationDescriptor impl =
      ImplementationDescriptor::from_xml(*doc.root);
  EXPECT_EQ(impl.name, "spmv_cusp");
  EXPECT_EQ(impl.interface_name, "spmv");
  EXPECT_EQ(impl.arch(), rt::Arch::kCuda);
  EXPECT_EQ(impl.target_platform, "TeslaC2050");
  ASSERT_EQ(impl.sources.size(), 1u);
  EXPECT_EQ(impl.compile_command, "nvcc");
  EXPECT_DOUBLE_EQ(impl.max_memory_mb, 2048.0);
  EXPECT_EQ(impl.prediction_function.value(), "spmv_cusp_predict");
  ASSERT_EQ(impl.tunables.size(), 1u);
  EXPECT_EQ(impl.tunables[0].values.size(), 3u);
  EXPECT_EQ(impl.tunables[0].default_value, "128");
  ASSERT_EQ(impl.constraints.size(), 1u);
  EXPECT_TRUE(impl.constraints[0].admits(2048.0));
  EXPECT_FALSE(impl.constraints[0].admits(100.0));
}

TEST(ImplementationDescriptor, RoundTrip) {
  const xml::Document doc = xml::parse(kCudaImpl);
  const ImplementationDescriptor impl =
      ImplementationDescriptor::from_xml(*doc.root);
  const ImplementationDescriptor again =
      ImplementationDescriptor::from_xml(*impl.to_xml());
  EXPECT_EQ(again.name, impl.name);
  EXPECT_EQ(again.tunables[0].values, impl.tunables[0].values);
  EXPECT_EQ(again.prediction_function, impl.prediction_function);
}

TEST(ImplementationDescriptor, BadLanguageThrows) {
  EXPECT_THROW(ImplementationDescriptor::from_xml(
                   *xml::parse(R"(<peppher-implementation name="x" interface="i">
                      <platform language="fortran"/>
                    </peppher-implementation>)")
                        .root),
               Error);
}

TEST(PlatformDescriptor, PropertiesLookup) {
  const xml::Document doc = xml::parse(R"(
    <peppher-platform name="TeslaC2050" kind="cuda">
      <property name="peak_gflops" value="1030"/>
      <property name="memory_gb" value="3"/>
      <property name="vendor" value="NVIDIA"/>
    </peppher-platform>)");
  const PlatformDescriptor platform = PlatformDescriptor::from_xml(*doc.root);
  EXPECT_EQ(platform.kind, "cuda");
  EXPECT_DOUBLE_EQ(platform.numeric_property("peak_gflops").value(), 1030.0);
  EXPECT_FALSE(platform.numeric_property("vendor").has_value());
  EXPECT_FALSE(platform.numeric_property("missing").has_value());
  const PlatformDescriptor again = PlatformDescriptor::from_xml(*platform.to_xml());
  EXPECT_EQ(again.properties.size(), 3u);
}

TEST(MainDescriptor, ParsesCompositionSwitches) {
  const xml::Document doc = xml::parse(R"(
    <peppher-main name="spmv_app" source="main.cpp">
      <target platform="xeon-e5520+c2050"/>
      <goal metric="exec_time"/>
      <uses interface="spmv"/>
      <composition useHistoryModels="false" scheduler="eager">
        <disableImpls name="spmv_slow"/>
        <disableImpls name="opencl"/>
      </composition>
    </peppher-main>)");
  const MainDescriptor main = MainDescriptor::from_xml(*doc.root);
  EXPECT_EQ(main.name, "spmv_app");
  EXPECT_EQ(main.target_platform, "xeon-e5520+c2050");
  EXPECT_FALSE(main.use_history_models);
  EXPECT_EQ(main.scheduler, "eager");
  ASSERT_EQ(main.disabled_impls.size(), 2u);
  const MainDescriptor again = MainDescriptor::from_xml(*main.to_xml());
  EXPECT_EQ(again.disabled_impls, main.disabled_impls);
  EXPECT_FALSE(again.use_history_models);
}

void expect_same_call(const CallDesc& a, const CallDesc& b) {
  EXPECT_EQ(a.interface_name, b.interface_name);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.radius, b.radius);
  ASSERT_EQ(a.args.size(), b.args.size());
  for (std::size_t i = 0; i < a.args.size(); ++i) {
    EXPECT_EQ(a.args[i].param, b.args[i].param);
    EXPECT_EQ(a.args[i].data, b.args[i].data);
  }
}

void expect_same_tree(const std::vector<CallNode>& a,
                      const std::vector<CallNode>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("statement " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    expect_same_call(a[i].call, b[i].call);
    EXPECT_EQ(a[i].loop_count, b[i].loop_count);
    EXPECT_EQ(a[i].data, b[i].data);
    EXPECT_EQ(a[i].parts, b[i].parts);
    EXPECT_EQ(a[i].prefetch_to_device, b[i].prefetch_to_device);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].halo, b[i].halo);
    EXPECT_EQ(a[i].exchange_width, b[i].exchange_width);
    EXPECT_EQ(a[i].elements, b[i].elements);
    ASSERT_EQ(a[i].slices.size(), b[i].slices.size());
    for (std::size_t s = 0; s < a[i].slices.size(); ++s) {
      EXPECT_EQ(a[i].slices[s].node, b[i].slices[s].node);
      EXPECT_EQ(a[i].slices[s].begin, b[i].slices[s].begin);
      EXPECT_EQ(a[i].slices[s].end, b[i].slices[s].end);
    }
    expect_same_tree(a[i].body, b[i].body);
    expect_same_tree(a[i].else_body, b[i].else_body);
  }
}

TEST(MainDescriptor, CallsRoundTripEveryStatementKind) {
  const xml::Document doc = xml::parse(R"(
    <peppher-main name="pipeline" source="main.cpp">
      <uses interface="stencil"/>
      <calls>
        <call interface="stencil" node="1" radius="2">
          <arg param="in" data="g"/>
          <arg param="out" data="h"/>
        </call>
        <loop count="3">
          <if>
            <call interface="spmv"><arg param="y" data="y"/></call>
            <else>
              <call interface="norm"><arg param="x" data="y"/></call>
            </else>
          </if>
        </loop>
        <partition data="x" parts="4"/>
        <unpartition data="x"/>
        <prefetch data="x" on="host"/>
        <prefetch data="x" on="device"/>
        <partitioned data="g" nodes="2" halo="1" elements="100">
          <slice node="0" begin="0" end="50"/>
          <slice node="1" begin="50" end="100"/>
        </partitioned>
        <exchange data="g" width="1"/>
        <repartition data="g" nodes="4" halo="2"/>
        <gather data="g"/>
      </calls>
    </peppher-main>)");
  const MainDescriptor main = MainDescriptor::from_xml(*doc.root);
  ASSERT_EQ(main.call_tree.size(), 10u);
  EXPECT_TRUE(main.has_control_flow);
  EXPECT_TRUE(main.has_distributed);

  const std::string saved = xml::serialize(*main.to_xml());
  const xml::Document reloaded = xml::parse(saved);
  const MainDescriptor again = MainDescriptor::from_xml(*reloaded.root);
  expect_same_tree(again.call_tree, main.call_tree);
  EXPECT_EQ(xml::serialize(*again.to_xml()), saved);

  ASSERT_EQ(again.calls.size(), 3u);
  for (std::size_t i = 0; i < main.calls.size(); ++i) {
    expect_same_call(again.calls[i], main.calls[i]);
  }
  EXPECT_EQ(again.has_control_flow, main.has_control_flow);
  EXPECT_EQ(again.has_distributed, main.has_distributed);

  // A descriptor built with only the flattened view keeps its pins too.
  MainDescriptor flat;
  flat.name = "flat";
  flat.source = "main.cpp";
  flat.calls = {main.calls.front()};
  const MainDescriptor flat_again = MainDescriptor::from_xml(*flat.to_xml());
  ASSERT_EQ(flat_again.calls.size(), 1u);
  expect_same_call(flat_again.calls.front(), flat.calls.front());
}

// -- repository -----------------------------------------------------------------

TEST(Repository, LoadAndQuery) {
  Repository repo;
  repo.load_text(kSpmvInterface);
  repo.load_text(kCpuImpl);
  repo.load_text(kCudaImpl);
  ASSERT_NE(repo.find_interface("spmv"), nullptr);
  EXPECT_EQ(repo.implementations_of("spmv").size(), 2u);
  EXPECT_NE(repo.find_implementation("spmv_cusp"), nullptr);
  EXPECT_EQ(repo.find_interface("nope"), nullptr);
  EXPECT_EQ(repo.main_module(), nullptr);
}

TEST(Repository, ScanDirectoryTree) {
  const auto dir = peppher::testing::unique_temp_dir("peppher_repo_test");
  fs::write_file(dir / "spmv" / "spmv.xml", kSpmvInterface);
  fs::write_file(dir / "spmv" / "cpu" / "spmv_cpu.xml", kCpuImpl);
  fs::write_file(dir / "spmv" / "cuda" / "spmv_cusp.xml", kCudaImpl);
  fs::write_file(dir / "unrelated.xml", "<other-root/>");

  Repository repo;
  repo.scan(dir);
  EXPECT_NE(repo.find_interface("spmv"), nullptr);
  EXPECT_EQ(repo.implementations_of("spmv").size(), 2u);
  EXPECT_EQ(repo.origin_of("spmv_cpu"), dir / "spmv" / "cpu");
  std::filesystem::remove_all(dir);
}

TEST(Repository, BottomUpOrderRespectsRequires) {
  Repository repo;
  repo.load_text(R"(<peppher-interface name="top">
      <function returnType="void"/></peppher-interface>)");
  repo.load_text(R"(<peppher-interface name="mid">
      <function returnType="void"/></peppher-interface>)");
  repo.load_text(R"(<peppher-interface name="leaf">
      <function returnType="void"/></peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="top_cpu" interface="top">
      <platform language="cpu"/>
      <requires><interface name="mid"/></requires>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-implementation name="mid_cpu" interface="mid">
      <platform language="cpu"/>
      <requires><interface name="leaf"/></requires>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-implementation name="leaf_cpu" interface="leaf">
      <platform language="cpu"/></peppher-implementation>)");

  const auto order = repo.interfaces_bottom_up();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0]->name, "leaf");
  EXPECT_EQ(order[1]->name, "mid");
  EXPECT_EQ(order[2]->name, "top");
}

TEST(Repository, CycleInRequiresThrows) {
  Repository repo;
  repo.load_text(R"(<peppher-interface name="a">
      <function returnType="void"/></peppher-interface>)");
  repo.load_text(R"(<peppher-interface name="b">
      <function returnType="void"/></peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="a_cpu" interface="a">
      <platform language="cpu"/>
      <requires><interface name="b"/></requires>
    </peppher-implementation>)");
  repo.load_text(R"(<peppher-implementation name="b_cpu" interface="b">
      <platform language="cpu"/>
      <requires><interface name="a"/></requires>
    </peppher-implementation>)");
  EXPECT_THROW(repo.interfaces_bottom_up(), Error);
}

TEST(Repository, ValidateFindsDanglingReferences) {
  Repository repo;
  repo.load_text(kSpmvInterface);  // no implementations -> problem
  repo.load_text(R"(<peppher-implementation name="ghost" interface="nothing">
      <platform language="cpu"/></peppher-implementation>)");
  const auto problems = repo.validate();
  ASSERT_GE(problems.size(), 2u);
  bool found_unknown_interface = false, found_no_variants = false;
  for (const std::string& p : problems) {
    if (p.find("unknown interface 'nothing'") != std::string::npos) {
      found_unknown_interface = true;
    }
    if (p.find("no implementation variants") != std::string::npos) {
      found_no_variants = true;
    }
  }
  EXPECT_TRUE(found_unknown_interface);
  EXPECT_TRUE(found_no_variants);
}

TEST(Repository, ValidateAcceptsConsistentRepo) {
  Repository repo;
  repo.load_text(kSpmvInterface);
  repo.load_text(kCpuImpl);
  repo.load_text(kCudaImpl);
  // The cuda impl references platform TeslaC2050: add it.
  repo.load_text(R"(<peppher-platform name="TeslaC2050" kind="cuda"/>)");
  EXPECT_TRUE(repo.validate().empty());
}

}  // namespace
}  // namespace peppher::desc
