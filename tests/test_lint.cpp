// peppher-lint tests: seeded malformed fixtures with golden diagnostics
// (stable PL0xx codes plus line/column locations), output-format validity,
// lint-clean negative tests over generated skeleton sets, and the runtime's
// debug hazard check (EngineConfig::hazard_checks).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/lint.hpp"
#include "compose/skeleton.hpp"
#include "compose/tool.hpp"
#include "runtime/engine.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/strings.hpp"
#include "xml/xml.hpp"

#include "temp_dir.hpp"

namespace peppher {
namespace {

using analyze::LintOptions;
using diag::Diagnostic;
using diag::DiagnosticBag;
using diag::Severity;

// ---------------------------------------------------------------------------
// Fixture: a temp directory of descriptor files, linted via lint_path.
// ---------------------------------------------------------------------------

// A consistent single-component repository the malformed fixtures perturb:
// axpy with one CPU variant whose source matches the lowered signature.
constexpr const char* kAxpyInterface =
    "<peppher-interface name=\"axpy\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"a\" type=\"float\" accessMode=\"read\"/>\n"
    "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" size=\"n\"/>\n"
    "    <param name=\"y\" type=\"float*\" accessMode=\"readwrite\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kAxpyImpl =
    "<peppher-implementation name=\"axpy_cpu\" interface=\"axpy\">\n"
    "  <platform language=\"cpu\"/>\n"
    "  <sources><source file=\"axpy_cpu.cpp\"/></sources>\n"
    "</peppher-implementation>\n";

constexpr const char* kAxpySource =
    "void axpy_cpu(int n, float a, const float* x, float* y);\n";

constexpr const char* kAxpyMain =
    "<peppher-main name=\"app\" source=\"main.cpp\">\n"
    "  <uses interface=\"axpy\"/>\n"
    "</peppher-main>\n";

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = peppher::testing::unique_temp_dir("peppher_lint_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const std::string& relative, const std::string& content) {
    fs::write_file(dir_ / relative, content);
  }

  void write_clean_axpy() {
    write("axpy.xml", kAxpyInterface);
    write("axpy_cpu.xml", kAxpyImpl);
    write("axpy_cpu.cpp", kAxpySource);
    write("main.xml", kAxpyMain);
  }

  DiagnosticBag lint(const LintOptions& options = {}) {
    return analyze::lint_path(dir_, options);
  }

  static const Diagnostic* find(const DiagnosticBag& bag,
                                const std::string& code) {
    for (const Diagnostic& d : bag.diagnostics()) {
      if (d.code == code) return &d;
    }
    return nullptr;
  }

  static std::vector<std::string> codes(const DiagnosticBag& bag) {
    std::vector<std::string> out;
    for (const Diagnostic& d : bag.diagnostics()) out.push_back(d.code);
    return out;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Negative tests: consistent repositories lint clean.
// ---------------------------------------------------------------------------

TEST_F(LintTest, CleanRepositoryHasNoDiagnostics) {
  write_clean_axpy();
  const DiagnosticBag bag = lint();
  EXPECT_TRUE(bag.empty()) << bag.format_text();
}

TEST_F(LintTest, GeneratedSkeletonSetLintsClean) {
  fs::write_file(dir_ / "spmv.h",
                 "void spmv(const float* values, int nnz, int nrows, "
                 "const float* x, float* y);");
  compose::generate_skeleton_from_file(dir_ / "spmv.h", dir_, {});
  const DiagnosticBag bag = lint();
  EXPECT_FALSE(bag.has_errors()) << bag.format_text();
}

TEST_F(LintTest, ComposeToolLintModeAcceptsCleanSkeletonSet) {
  fs::write_file(dir_ / "spmv.h",
                 "void spmv(const float* values, int nnz, int nrows, "
                 "const float* x, float* y);");
  compose::generate_skeleton_from_file(dir_ / "spmv.h", dir_, {});
  std::ostringstream out, err;
  const compose::ToolOptions options = compose::parse_arguments(
      {(dir_ / "main.xml").string(), "-lint", "-werror"});
  EXPECT_TRUE(options.lint_only);
  EXPECT_TRUE(options.werror);
  EXPECT_EQ(compose::run_tool(options, out, err), 0) << err.str();
}

// ---------------------------------------------------------------------------
// Seeded malformed fixtures, one PL0xx family at a time.
// ---------------------------------------------------------------------------

TEST_F(LintTest, UnparseableDescriptorIsPL000) {
  write_clean_axpy();
  write("broken.xml", "<peppher-interface name=\"oops\"");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL000");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->location.file.find("broken.xml"), std::string::npos);
}

TEST_F(LintTest, ArityMismatchIsPL001) {
  write_clean_axpy();
  write("axpy_cpu.cpp", "void axpy_cpu(int n, float a, const float* x);\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL001");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("3 parameter(s)"), std::string::npos);
  EXPECT_NE(d->message.find("lowers to 4"), std::string::npos);
}

TEST_F(LintTest, TypeMismatchIsPL002WithImplLocation) {
  write_clean_axpy();
  write("axpy_cpu.cpp", "void axpy_cpu(int n, float a, const float* x, double* y);\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL002");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  // The diagnostic points at the implementation's root element: line 1,
  // column 1 of axpy_cpu.xml.
  EXPECT_NE(d->location.file.find("axpy_cpu.xml"), std::string::npos);
  EXPECT_EQ(d->location.line, 1);
  EXPECT_EQ(d->location.column, 1);
  EXPECT_NE(d->message.find("'double*'"), std::string::npos);
  EXPECT_NE(d->message.find("'float*'"), std::string::npos);
}

TEST_F(LintTest, ConstParamDeclaredWritableIsPL003) {
  write_clean_axpy();
  // The variant takes y as const although the interface declares readwrite.
  write("axpy_cpu.cpp",
        "void axpy_cpu(int n, float a, const float* x, const float* y);\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL003");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("cannot write"), std::string::npos);
}

TEST_F(LintTest, WriteAccessThroughConstTypeIsPL004WithParamLocation) {
  write("bad.xml",
        "<peppher-interface name=\"bad\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"out\" type=\"const float*\" accessMode=\"write\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL004");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  // Golden rendering, including the <param> element's exact line/column.
  EXPECT_EQ(d->format(),
            (dir_ / "bad.xml").string() +
                ":3:5: error: parameter 'out' of interface 'bad' declares "
                "access mode 'write' but its type 'const float*' is const "
                "[PL004]");
}

TEST_F(LintTest, ReadAccessThroughMutablePointerIsPL005) {
  write("leaky.xml",
        "<peppher-interface name=\"leaky\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"p\" type=\"float*\" accessMode=\"read\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL005");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location.line, 3);
}

TEST_F(LintTest, MissingSourceFileIsPL007) {
  write_clean_axpy();
  std::filesystem::remove(dir_ / "axpy_cpu.cpp");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL007");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST_F(LintTest, WritableValueParameterIsPL008) {
  write("valw.xml",
        "<peppher-interface name=\"valw\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"n\" type=\"int\" accessMode=\"write\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL008");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST_F(LintTest, LanguagePlatformKindConflictIsPL010) {
  write_clean_axpy();
  write("host.xml", "<peppher-platform name=\"host\" kind=\"cpu\"/>\n");
  write("axpy_cuda.xml",
        "<peppher-implementation name=\"axpy_cuda\" interface=\"axpy\">\n"
        "  <platform language=\"cuda\" target=\"host\"/>\n"
        "</peppher-implementation>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL010");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST_F(LintTest, UnprovidedBackendIsPL011Warning) {
  write_clean_axpy();
  write("host.xml", "<peppher-platform name=\"host\" kind=\"cpu\"/>\n");
  write("axpy_cuda.xml",
        "<peppher-implementation name=\"axpy_cuda\" interface=\"axpy\">\n"
        "  <platform language=\"cuda\"/>\n"
        "</peppher-implementation>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL011");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  // Warnings fail only under --werror.
  EXPECT_FALSE(bag.fails(false));
  EXPECT_TRUE(bag.fails(true));
}

TEST_F(LintTest, AllVariantsDisabledIsPL012) {
  write_clean_axpy();
  LintOptions options;
  options.disable_impls = {"axpy_cpu"};
  const DiagnosticBag bag = lint(options);
  const Diagnostic* d = find(bag, "PL012");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("no viable implementation"), std::string::npos);
}

TEST_F(LintTest, UnknownMainTargetPlatformIsPL013) {
  write_clean_axpy();
  write("host.xml", "<peppher-platform name=\"host\" kind=\"cpu\"/>\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <target platform=\"warehouse\"/>\n"
        "  <uses interface=\"axpy\"/>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL013");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST_F(LintTest, DispatchTableProblemsArePL02x) {
  write_clean_axpy();
  // A stale architecture (the cpu-only axpy has no cuda variant) and an
  // entry for an interface the repository lacks; each (interface, arch)
  // pair is reported once, at its first line.
  write("trained.dispatch",
        "peppher-dispatch v1 xeon-e5520+c2050\n"
        "axpy 0 -1 cuda 3\n"
        "ghost 0 -1 cpu 2\n"
        "axpy 4096 -1 cuda 1\n"
        "axpy 0 -1 cpu 5\n");
  const DiagnosticBag bag = lint();
  EXPECT_EQ(codes(bag), (std::vector<std::string>{"PL024", "PL025"}))
      << bag.format_text();
  const Diagnostic* stale = find(bag, "PL024");
  ASSERT_NE(stale, nullptr) << bag.format_text();
  EXPECT_EQ(stale->severity, Severity::kError);
  EXPECT_EQ(stale->location.line, 2);
  const Diagnostic* unknown = find(bag, "PL025");
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->severity, Severity::kWarning);
  EXPECT_EQ(unknown->location.line, 3);
}

TEST_F(LintTest, OrphanAndEmptyDispatchTablesArePL025AndPL027) {
  write_clean_axpy();
  write("orphan.dispatch", "peppher-dispatch v1 m\nnothing 0 -1 cpu 1\n");
  write("empty.dispatch", "peppher-dispatch v1 m\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* orphan = find(bag, "PL025");
  ASSERT_NE(orphan, nullptr) << bag.format_text();
  EXPECT_EQ(orphan->severity, Severity::kWarning);
  EXPECT_EQ(orphan->location.line, 2);
  const Diagnostic* empty = find(bag, "PL027");
  ASSERT_NE(empty, nullptr) << bag.format_text();
  EXPECT_EQ(empty->severity, Severity::kWarning);
  EXPECT_NE(empty->location.file.find("empty.dispatch"), std::string::npos);
}

TEST_F(LintTest, RecordedRuntimeDispatchTablesAreCheckedPerEntry) {
  // A table recorded by a training run (peppher-perf --dispatch-out) is
  // checked entry by entry, whatever the file is named: axpy -> cuda is
  // stale on the cpu-only axpy (PL024), ode_rhs is no interface here
  // (PL025).
  write_clean_axpy();
  rt::DispatchTable table;
  table.train("ode_rhs", 0, -1, rt::Arch::kCpu, 3);
  table.train("axpy", 0, 2, rt::Arch::kCuda, 1);
  table.save(dir_ / "axpy.dispatch");
  table.save(dir_ / "ode_rhs.dispatch");
  const DiagnosticBag bag = lint();
  EXPECT_EQ(codes(bag),
            (std::vector<std::string>{"PL024", "PL025", "PL024", "PL025"}))
      << bag.format_text();
  for (const Diagnostic& d : bag.diagnostics()) {
    EXPECT_EQ(d.location.line, d.code == "PL024" ? 2 : 3) << d.message;
  }
  EXPECT_EQ(bag.count(Severity::kError), 2u) << bag.format_text();
  EXPECT_EQ(bag.count(Severity::kWarning), 2u) << bag.format_text();
}

TEST_F(LintTest, DisabledVariantInDispatchTableIsPL026) {
  write_clean_axpy();
  write("axpy.dispatch", "peppher-dispatch v1 m\naxpy 1024 -1 cpu 1\n");
  LintOptions options;
  options.disable_impls = {"axpy_cpu"};
  const DiagnosticBag bag = lint(options);
  const Diagnostic* d = find(bag, "PL026");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location.line, 2);
  EXPECT_NE(d->message.find("unreachable"), std::string::npos);
}

TEST_F(LintTest, MalformedDispatchTableIsPL000WhereTheEngineFails) {
  write_clean_axpy();
  write("bad.dispatch",
        "peppher-dispatch v1 m\n"
        "axpy 0 -1 cpu 1\n"
        "axpy 0 -1 cpu 0 garbage\n");
  const DiagnosticBag bag = lint();
  ASSERT_EQ(codes(bag), std::vector<std::string>{"PL000"})
      << bag.format_text();
  const Diagnostic& d = bag.diagnostics().front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.line, 3);
  EXPECT_EQ(d.location.column, 1);
  // Same location and message as the Engine replaying the table.
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(1);
  config.scheduler = "lookahead";
  config.dispatch_table = dir_ / "bad.dispatch";
  try {
    rt::Engine engine(config);
    FAIL() << "the engine accepted a malformed dispatch table";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), d.location.line);
    EXPECT_EQ(e.column(), d.location.column);
    EXPECT_EQ(e.what(), d.message);
  }
}

TEST_F(LintTest, UnknownSchedulerIsPL000AtTheCompositionElement) {
  write_clean_axpy();
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"axpy\"/>\n"
        "  <composition scheduler='ws'/>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  ASSERT_EQ(codes(bag), std::vector<std::string>{"PL000"})
      << bag.format_text();
  const Diagnostic& d = bag.diagnostics().front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.location.file.find("main.xml"), std::string::npos);
  EXPECT_EQ(d.location.line, 3);
  EXPECT_EQ(d.location.column, 3);
  EXPECT_NE(d.message.find("eager, dmda, lookahead"), std::string::npos)
      << d.message;
}

TEST_F(LintTest, EngineTrainedTableOverTheRepositoryLintsClean) {
  write_clean_axpy();
  {
    rt::EngineConfig config;
    config.machine = sim::MachineConfig::cpu_only(2);
    config.scheduler = "lookahead";
    config.dispatch_out = dir_ / "trained.dispatch";
    rt::Engine engine(config);
    rt::Codelet axpy("axpy");
    axpy.add_impl({rt::Arch::kCpu, "axpy_cpu", [](rt::ExecContext&) {},
                   nullptr});
    std::vector<std::vector<float>> buffers(6, std::vector<float>(16));
    for (auto& buffer : buffers) {
      rt::TaskSpec spec;
      spec.codelet = &axpy;
      spec.operands = {{engine.register_buffer(buffer.data(),
                                               buffer.size() * sizeof(float),
                                               sizeof(float)),
                        rt::AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
  }  // shutdown writes the table
  ASSERT_FALSE(rt::DispatchTable::parse_file(dir_ / "trained.dispatch").empty());
  const DiagnosticBag bag = lint();
  EXPECT_TRUE(bag.empty()) << bag.format_text();
}

// ---------------------------------------------------------------------------
// Task-graph hazard analysis over the main module's <calls> sequence.
// ---------------------------------------------------------------------------

TEST_F(LintTest, AliasedWriteBindingIsPL030) {
  write_clean_axpy();
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"axpy\"/>\n"
        "  <calls>\n"
        "    <call interface=\"axpy\">\n"
        "      <arg param=\"x\" data=\"D\"/>\n"
        "      <arg param=\"y\" data=\"D\"/>\n"
        "    </call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL030");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.line, 4);  // the <call> element
}

TEST_F(LintTest, HiddenWriteRacingAReaderIsPL031) {
  // p is declared read but its type is mutable: the runtime would schedule
  // both calls concurrently although call #1 may write.
  write("scan.xml",
        "<peppher-interface name=\"scan\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"p\" type=\"float*\" accessMode=\"read\" size=\"1\"/>\n"
        "    <param name=\"q\" type=\"const float*\" accessMode=\"read\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"scan\"/>\n"
        "  <calls>\n"
        "    <call interface=\"scan\">\n"
        "      <arg param=\"p\" data=\"D\"/>\n"
        "      <arg param=\"q\" data=\"E\"/>\n"
        "    </call>\n"
        "    <call interface=\"scan\">\n"
        "      <arg param=\"p\" data=\"F\"/>\n"
        "      <arg param=\"q\" data=\"D\"/>\n"
        "    </call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL031");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("read/write race on container 'D'"),
            std::string::npos);
}

TEST_F(LintTest, TwoHiddenWritersArePL032) {
  write("scan.xml",
        "<peppher-interface name=\"scan\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"p\" type=\"float*\" accessMode=\"read\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"scan\"/>\n"
        "  <calls>\n"
        "    <call interface=\"scan\"><arg param=\"p\" data=\"D\"/></call>\n"
        "    <call interface=\"scan\"><arg param=\"p\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL032");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("write/write race"), std::string::npos);
}

TEST_F(LintTest, OverwrittenUnreadResultIsPL033) {
  write("init.xml",
        "<peppher-interface name=\"init\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"o\" type=\"float*\" accessMode=\"write\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"init\"/>\n"
        "  <calls>\n"
        "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
        "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL033");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("dead write"), std::string::npos);
  EXPECT_EQ(d->location.line, 5);  // the second <call>
}

TEST_F(LintTest, CallToUnknownInterfaceIsPL034) {
  write_clean_axpy();
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"axpy\"/>\n"
        "  <calls>\n"
        "    <call interface=\"warp\"><arg param=\"p\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL034");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST_F(LintTest, BindingUnknownParameterIsPL035) {
  write_clean_axpy();
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"axpy\"/>\n"
        "  <calls>\n"
        "    <call interface=\"axpy\">\n"
        "      <arg param=\"x\" data=\"D\"/>\n"
        "      <arg param=\"zeta\" data=\"E\"/>\n"
        "      <arg param=\"y\" data=\"F\"/>\n"
        "    </call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL035");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.line, 6);  // the <arg> element
}

TEST_F(LintTest, UnboundOperandParameterIsPL036) {
  write_clean_axpy();
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"axpy\"/>\n"
        "  <calls>\n"
        "    <call interface=\"axpy\"><arg param=\"x\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL036");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("'y'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Repository-structural diagnostics surface through the same engine.
// ---------------------------------------------------------------------------

TEST_F(LintTest, DanglingInterfaceReferenceIsPL041) {
  write("ghost_impl.xml",
        "<peppher-implementation name=\"ghost_cpu\" interface=\"ghost\">\n"
        "  <platform language=\"cpu\"/>\n"
        "</peppher-implementation>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL041");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.line, 1);
}

TEST_F(LintTest, UndeclaredSizeExpressionParameterIsPL051) {
  write("sized.xml",
        "<peppher-interface name=\"sized\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"v\" type=\"const float*\" accessMode=\"read\" size=\"count\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL051");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_NE(d->message.find("'count'"), std::string::npos);
}

TEST_F(LintTest, CrossArchReadPingPongIsPL052) {
  // D is produced on the accelerator (step has only a CUDA variant), read on
  // the host (observe has only a CPU variant), then written on the
  // accelerator again: the host replica is re-invalidated every iteration,
  // so prefetching it is always wasted.
  write("step.xml",
        "<peppher-interface name=\"step\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"d\" type=\"float*\" accessMode=\"readwrite\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("step_cuda.xml",
        "<peppher-implementation name=\"step_cuda\" interface=\"step\">\n"
        "  <platform language=\"cuda\"/>\n"
        "  <sources><source file=\"step_cuda.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("step_cuda.cpp", "void step_cuda(float* d);\n");
  write("observe.xml",
        "<peppher-interface name=\"observe\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"d\" type=\"const float*\" accessMode=\"read\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("observe_cpu.xml",
        "<peppher-implementation name=\"observe_cpu\" interface=\"observe\">\n"
        "  <platform language=\"cpu\"/>\n"
        "  <sources><source file=\"observe_cpu.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("observe_cpu.cpp", "void observe_cpu(const float* d);\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"step\"/>\n"
        "  <uses interface=\"observe\"/>\n"
        "  <calls>\n"
        "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n"
        "    <call interface=\"observe\"><arg param=\"d\" data=\"D\"/></call>\n"
        "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL052");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("ping-pongs across the PCIe link"),
            std::string::npos);
  EXPECT_NE(d->message.find("container 'D'"), std::string::npos);
  EXPECT_EQ(d->location.line, 6);  // anchored at the cross-side read
}

TEST_F(LintTest, ReadWithAVariantOnBothSidesIsNotPL052) {
  // Same sequence, but observe also ships a CUDA variant: the runtime can
  // co-locate the read with the writer, so there is nothing to warn about.
  write("step.xml",
        "<peppher-interface name=\"step\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"d\" type=\"float*\" accessMode=\"readwrite\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("step_cuda.xml",
        "<peppher-implementation name=\"step_cuda\" interface=\"step\">\n"
        "  <platform language=\"cuda\"/>\n"
        "  <sources><source file=\"step_cuda.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("step_cuda.cpp", "void step_cuda(float* d);\n");
  write("observe.xml",
        "<peppher-interface name=\"observe\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"d\" type=\"const float*\" accessMode=\"read\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("observe_cpu.xml",
        "<peppher-implementation name=\"observe_cpu\" interface=\"observe\">\n"
        "  <platform language=\"cpu\"/>\n"
        "  <sources><source file=\"observe_cpu.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("observe_cpu.cpp", "void observe_cpu(const float* d);\n");
  write("observe_cuda.xml",
        "<peppher-implementation name=\"observe_cuda\" interface=\"observe\">\n"
        "  <platform language=\"cuda\"/>\n"
        "  <sources><source file=\"observe_cuda.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("observe_cuda.cpp", "void observe_cuda(const float* d);\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"step\"/>\n"
        "  <uses interface=\"observe\"/>\n"
        "  <calls>\n"
        "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n"
        "    <call interface=\"observe\"><arg param=\"d\" data=\"D\"/></call>\n"
        "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  EXPECT_EQ(find(bag, "PL052"), nullptr) << bag.format_text();
}

TEST_F(LintTest, DisablingTheBalancingVariantRevealsPL052) {
  // -disableImpls can turn the clean both-sides repository into a
  // ping-pong: with observe_cuda disabled the read is host-pinned again.
  write("step.xml",
        "<peppher-interface name=\"step\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"d\" type=\"float*\" accessMode=\"readwrite\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("step_cuda.xml",
        "<peppher-implementation name=\"step_cuda\" interface=\"step\">\n"
        "  <platform language=\"cuda\"/>\n"
        "  <sources><source file=\"step_cuda.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("step_cuda.cpp", "void step_cuda(float* d);\n");
  write("observe.xml",
        "<peppher-interface name=\"observe\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"d\" type=\"const float*\" accessMode=\"read\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("observe_cpu.xml",
        "<peppher-implementation name=\"observe_cpu\" interface=\"observe\">\n"
        "  <platform language=\"cpu\"/>\n"
        "  <sources><source file=\"observe_cpu.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("observe_cpu.cpp", "void observe_cpu(const float* d);\n");
  write("observe_cuda.xml",
        "<peppher-implementation name=\"observe_cuda\" interface=\"observe\">\n"
        "  <platform language=\"cuda\"/>\n"
        "  <sources><source file=\"observe_cuda.cpp\"/></sources>\n"
        "</peppher-implementation>\n");
  write("observe_cuda.cpp", "void observe_cuda(const float* d);\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"step\"/>\n"
        "  <uses interface=\"observe\"/>\n"
        "  <calls>\n"
        "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n"
        "    <call interface=\"observe\"><arg param=\"d\" data=\"D\"/></call>\n"
        "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  LintOptions options;
  options.disable_impls = {"observe_cuda"};
  const DiagnosticBag bag = lint(options);
  EXPECT_NE(find(bag, "PL052"), nullptr) << bag.format_text();
}

// ---------------------------------------------------------------------------
// One hazard engine: each finding takes its code from what the verifier's
// fixpoint proves about its own container, never from control flow
// elsewhere in the file.
// ---------------------------------------------------------------------------

constexpr const char* kInitInterface =
    "<peppher-interface name=\"init\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"o\" type=\"float*\" accessMode=\"write\" size=\"1\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kBumpInterface =
    "<peppher-interface name=\"bump\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"o\" type=\"float*\" accessMode=\"readwrite\" size=\"1\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kConsumeInterface =
    "<peppher-interface name=\"consume\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" size=\"1\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

std::string impl_descriptor(const std::string& iface,
                            const std::string& language) {
  return "<peppher-implementation name=\"" + iface + "_" + language +
         "\" interface=\"" + iface + "\">\n  <platform language=\"" +
         language + "\"/>\n</peppher-implementation>\n";
}

std::string main_descriptor(const std::string& calls) {
  return "<peppher-main name=\"app\" source=\"main.cpp\">\n"
         "  <calls>\n" +
         calls +
         "  </calls>\n"
         "</peppher-main>\n";
}

/// One straight-line hazard fixture of the tests above: its descriptors,
/// the <calls> body, the code it pins, and a call on a fresh container 'Z'
/// for an appended <if> to wrap.
struct HazardFixture {
  const char* name;
  std::vector<std::pair<std::string, std::string>> descriptors;
  std::string calls;
  std::string code;
  std::string branch_call;
};

std::vector<HazardFixture> straight_line_hazards() {
  const std::string scan_pq =
      "<peppher-interface name=\"scan\">\n"
      "  <function returnType=\"void\">\n"
      "    <param name=\"p\" type=\"float*\" accessMode=\"read\" size=\"1\"/>\n"
      "    <param name=\"q\" type=\"const float*\" accessMode=\"read\" size=\"1\"/>\n"
      "  </function>\n"
      "</peppher-interface>\n";
  const std::string scan_p =
      "<peppher-interface name=\"scan\">\n"
      "  <function returnType=\"void\">\n"
      "    <param name=\"p\" type=\"float*\" accessMode=\"read\" size=\"1\"/>\n"
      "  </function>\n"
      "</peppher-interface>\n";
  const std::string step =
      "<peppher-interface name=\"step\">\n"
      "  <function returnType=\"void\">\n"
      "    <param name=\"d\" type=\"float*\" accessMode=\"readwrite\" size=\"1\"/>\n"
      "  </function>\n"
      "</peppher-interface>\n";
  const std::string observe =
      "<peppher-interface name=\"observe\">\n"
      "  <function returnType=\"void\">\n"
      "    <param name=\"d\" type=\"const float*\" accessMode=\"read\" size=\"1\"/>\n"
      "  </function>\n"
      "</peppher-interface>\n";
  const std::string init = "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n";
  const std::string bump = "    <call interface=\"bump\"><arg param=\"o\" data=\"D\"/></call>\n";
  return {
      {"PL031",
       {{"scan.xml", scan_pq}},
       "    <call interface=\"scan\">\n"
       "      <arg param=\"p\" data=\"D\"/>\n"
       "      <arg param=\"q\" data=\"E\"/>\n"
       "    </call>\n"
       "    <call interface=\"scan\">\n"
       "      <arg param=\"p\" data=\"F\"/>\n"
       "      <arg param=\"q\" data=\"D\"/>\n"
       "    </call>\n",
       "PL031",
       "<call interface=\"scan\"><arg param=\"p\" data=\"Z\"/>"
       "<arg param=\"q\" data=\"Y\"/></call>"},
      {"PL032",
       {{"scan.xml", scan_p}},
       "    <call interface=\"scan\"><arg param=\"p\" data=\"D\"/></call>\n"
       "    <call interface=\"scan\"><arg param=\"p\" data=\"D\"/></call>\n",
       "PL032",
       "<call interface=\"scan\"><arg param=\"p\" data=\"Z\"/></call>"},
      {"PL033 write/write",
       {{"init.xml", kInitInterface}},
       init + init,
       "PL033",
       "<call interface=\"init\"><arg param=\"o\" data=\"Z\"/></call>"},
      {"PL033 write/readwrite/write",
       {{"init.xml", kInitInterface}, {"bump.xml", kBumpInterface}},
       init + bump + init,
       "PL033",
       "<call interface=\"bump\"><arg param=\"o\" data=\"Z\"/></call>"},
      {"PL052",
       {{"step.xml", step},
        {"step_cuda.xml", impl_descriptor("step", "cuda")},
        {"observe.xml", observe},
        {"observe_cpu.xml", impl_descriptor("observe", "cpu")}},
       "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n"
       "    <call interface=\"observe\"><arg param=\"d\" data=\"D\"/></call>\n"
       "    <call interface=\"step\"><arg param=\"d\" data=\"D\"/></call>\n",
       "PL052",
       "<call interface=\"observe\"><arg param=\"d\" data=\"Z\"/></call>"},
  };
}

TEST_F(LintTest, AnIfOverAFreshContainerKeepsEveryStraightLineHazard) {
  // The parent of the one-engine change lost the PL052, turned the PL031
  // and PL032 into PL065 and each PL033 into PL062 as soon as the file held
  // any <if>, even one that never touches the fixture's containers.
  LintOptions options;
  options.check_sources = false;
  for (const HazardFixture& fixture : straight_line_hazards()) {
    SCOPED_TRACE(fixture.name);
    std::filesystem::remove_all(dir_);
    for (const auto& [file, text] : fixture.descriptors) write(file, text);
    write("main.xml", main_descriptor(fixture.calls));
    const DiagnosticBag straight = lint(options);
    EXPECT_NE(find(straight, fixture.code), nullptr) << straight.format_text();
    write("main.xml", main_descriptor(fixture.calls + "    <if>\n      " +
                                      fixture.branch_call + "\n    </if>\n"));
    const DiagnosticBag branched = lint(options);
    EXPECT_EQ(branched.format_text(), straight.format_text());
  }
}

TEST_F(LintTest, VerifyReportsAStraightLineDeadWriteOnce) {
  // --verify used to add the verifier's PL062 at the first <call> next to
  // lint's PL033 at the second: one dead write, two findings.
  write("init.xml", kInitInterface);
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <uses interface=\"init\"/>\n"
        "  <calls>\n"
        "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
        "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  LintOptions options;
  options.verify = true;
  const DiagnosticBag bag = lint(options);
  const std::vector<std::string> found = codes(bag);
  EXPECT_EQ(std::count(found.begin(), found.end(), "PL033"), 1)
      << bag.format_text();
  EXPECT_EQ(find(bag, "PL062"), nullptr) << bag.format_text();
  const Diagnostic* d = find(bag, "PL033");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->location.line, 5);  // the second <call>
}

TEST_F(LintTest, DisjointSliceWritesOfADistributedContainerAreNotPL033) {
  // Each pinned init writes only its own node's slice: neither write is
  // overwritten. The straight-line walk of the parent reported PL033 here
  // while its own verifier correctly stayed silent.
  write("init.xml", kInitInterface);
  write("init_cpu.xml", impl_descriptor("init", "cpu"));
  write("consume.xml", kConsumeInterface);
  write("consume_cpu.xml", impl_descriptor("consume", "cpu"));
  write("main.xml",
        main_descriptor(
            "    <partitioned data=\"u\" nodes=\"2\" halo=\"0\"/>\n"
            "    <call interface=\"init\" node=\"0\"><arg param=\"o\" data=\"u\"/></call>\n"
            "    <call interface=\"init\" node=\"1\"><arg param=\"o\" data=\"u\"/></call>\n"
            "    <gather data=\"u\"/>\n"
            "    <call interface=\"consume\"><arg param=\"x\" data=\"u\"/></call>\n"));
  LintOptions options;
  options.check_sources = false;
  const DiagnosticBag bag = lint(options);
  EXPECT_EQ(find(bag, "PL033"), nullptr) << bag.format_text();
  EXPECT_EQ(find(bag, "PL062"), nullptr) << bag.format_text();
}

TEST_F(LintTest, DeadWriteInsideALoopIsPL033AtItsOverwriter) {
  // Every iteration overwrites the first init with the second before any
  // read: the same call kills it on every path, so it is PL033 at that
  // call (the parent said PL062 at the first init).
  write("init.xml", kInitInterface);
  write("consume.xml", kConsumeInterface);
  write("main.xml",
        main_descriptor(
            "    <loop count=\"2\">\n"
            "      <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
            "      <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
            "      <call interface=\"consume\"><arg param=\"x\" data=\"D\"/></call>\n"
            "    </loop>\n"));
  const DiagnosticBag bag = lint();
  const std::vector<std::string> found = codes(bag);
  EXPECT_EQ(std::count(found.begin(), found.end(), "PL033"), 1)
      << bag.format_text();
  EXPECT_EQ(find(bag, "PL062"), nullptr) << bag.format_text();
  const Diagnostic* d = find(bag, "PL033");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->location.line, 5);  // the second <call>
  EXPECT_NE(d->message.find("written by call #1 (init) is overwritten by "
                            "call #2 (init)"),
            std::string::npos)
      << d->message;
}

// ---------------------------------------------------------------------------
// Output formats.
// ---------------------------------------------------------------------------

TEST_F(LintTest, TextOutputEndsWithSummaryLine) {
  write_clean_axpy();
  write("axpy_cpu.cpp", "void axpy_cpu(int n);\n");
  const std::string text = lint().format_text();
  EXPECT_NE(text.find("[PL001]"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 0 warning(s), 0 note(s)"),
            std::string::npos);
}

TEST_F(LintTest, JsonOutputCarriesAllFields) {
  write_clean_axpy();
  write("axpy_cpu.cpp", "void axpy_cpu(int n);\n");
  const std::string json(strings::trim(lint().format_json()));
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"code\": \"PL001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
}

TEST_F(LintTest, SarifOutputIsWellFormed) {
  write_clean_axpy();
  write("axpy_cpu.cpp", "void axpy_cpu(int n);\n");
  const std::string sarif = lint().format_sarif();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"peppher-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"PL001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"results\""), std::string::npos);
  // Every brace closes (cheap structural sanity; the rule registry and the
  // result serialisation share the escaping helper).
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
}

TEST_F(LintTest, DiagnosticsAreSortedByLocation) {
  write_clean_axpy();
  write("axpy.dispatch",
        "peppher-dispatch v1 m\n"
        "ghost 0 -1 cpu 1\n"
        "axpy 0 -1 cuda 1\n"
        "phantom 0 -1 cpu 1\n");
  const DiagnosticBag bag = lint();
  const std::vector<std::string> got = codes(bag);
  ASSERT_GE(got.size(), 3u) << bag.format_text();
  // Same file, by line: PL025 (line 2), PL024 (line 3), PL025 (line 4).
  EXPECT_EQ(got, (std::vector<std::string>{"PL025", "PL024", "PL025"}));
  EXPECT_EQ(bag.diagnostics()[0].location.line, 2);
  EXPECT_LE(bag.diagnostics()[0].location.line,
            bag.diagnostics()[1].location.line);
  EXPECT_LE(bag.diagnostics()[1].location.line,
            bag.diagnostics()[2].location.line);
}

// ---------------------------------------------------------------------------
// Lowered signature lint checks implementations against.
// ---------------------------------------------------------------------------

TEST(ExpectedImplSignature, LowersContainersLikeTheCodeGenerator) {
  desc::InterfaceDescriptor iface;
  iface.name = "mix";
  iface.params = {
      {"n", "int", rt::AccessMode::kRead, {}, ""},
      {"v", "Vector<float>&", rt::AccessMode::kReadWrite, {}, ""},
      {"m", "const Matrix<double>&", rt::AccessMode::kRead, {}, ""},
      {"s", "Scalar<float>&", rt::AccessMode::kWrite, {}, ""},
      {"raw", "const int*", rt::AccessMode::kRead, {}, "n"},
  };
  EXPECT_EQ(desc::lowered_impl_signature(iface, "mix_cpu"),
            "void mix_cpu(int n, float* v, std::size_t v_count, "
            "double* m, std::size_t m_rows, std::size_t m_cols, "
            "float* s, const int* raw)");
}

// ---------------------------------------------------------------------------
// XML line/column tracking (satellite: xml.cpp records source locations).
// ---------------------------------------------------------------------------

TEST(XmlLocations, ElementsRememberLineAndColumn) {
  const xml::Document doc = xml::parse(
      "<root>\n"
      "  <child attr=\"1\"/>\n"
      "  <other>\n"
      "    <nested/>\n"
      "  </other>\n"
      "</root>\n");
  EXPECT_EQ(doc.root->line(), 1);
  EXPECT_EQ(doc.root->column(), 1);
  const xml::Element* child = doc.root->child("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->line(), 2);
  EXPECT_EQ(child->column(), 3);
  const xml::Element* nested = doc.root->child("other")->child("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->line(), 4);
  EXPECT_EQ(nested->column(), 5);
}

TEST(XmlLocations, ParseErrorsReportLineAndColumn) {
  try {
    xml::parse("<root>\n  <broken\n</root>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line"), std::string::npos) << what;
    EXPECT_NE(what.find("column"), std::string::npos) << what;
  }
}

TEST(XmlLocations, LocationsFlowIntoDescriptors) {
  desc::Repository repo;
  repo.load_text(kAxpyInterface, {}, "axpy.xml");
  const desc::InterfaceDescriptor* iface = repo.find_interface("axpy");
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->loc.file, "axpy.xml");
  EXPECT_EQ(iface->loc.line, 1);
  ASSERT_EQ(iface->params.size(), 4u);
  EXPECT_EQ(iface->params[0].loc.line, 3);
  EXPECT_EQ(iface->params[3].loc.line, 6);
  EXPECT_EQ(iface->params[0].loc.column, 5);
}

// ---------------------------------------------------------------------------
// Runtime debug hazard check (EngineConfig::hazard_checks): the dynamic
// counterpart of PL030.
// ---------------------------------------------------------------------------

rt::Codelet make_noop_codelet() {
  rt::Codelet codelet("noop");
  rt::Implementation impl;
  impl.arch = rt::Arch::kCpu;
  impl.name = "noop_cpu";
  impl.fn = [](rt::ExecContext&) {};
  impl.cost = [](const std::vector<std::size_t>&, const void*) {
    return sim::KernelCost{1.0, 1.0, 1.0};
  };
  codelet.add_impl(std::move(impl));
  return codelet;
}

TEST(EngineHazardChecks, RejectsAliasedWriteOperands) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  config.hazard_checks = true;
  rt::Engine engine(config);
  std::vector<float> data(16, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  rt::Codelet codelet = make_noop_codelet();
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, rt::AccessMode::kRead},
                   {handle, rt::AccessMode::kWrite}};
  try {
    engine.submit(std::move(spec));
    FAIL() << "expected the hazard check to reject the task";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("PL030"), std::string::npos);
  }
}

TEST(EngineHazardChecks, AllowsAliasedReadsAndStaysOffByDefault) {
  {
    rt::EngineConfig config;
    config.machine = sim::MachineConfig::cpu_only(2);
    config.hazard_checks = true;
    rt::Engine engine(config);
    std::vector<float> data(16, 0.0f);
    auto handle = engine.register_buffer(
        data.data(), data.size() * sizeof(float), sizeof(float));
    rt::Codelet codelet = make_noop_codelet();
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, rt::AccessMode::kRead},
                     {handle, rt::AccessMode::kRead}};
    rt::TaskPtr task = engine.submit(std::move(spec));
    engine.wait(task);
    EXPECT_EQ(task->state, rt::TaskState::kDone);
  }
  {
    rt::EngineConfig config;  // hazard_checks defaults to false
    config.machine = sim::MachineConfig::cpu_only(2);
    rt::Engine engine(config);
    std::vector<float> data(16, 0.0f);
    auto handle = engine.register_buffer(
        data.data(), data.size() * sizeof(float), sizeof(float));
    rt::Codelet codelet = make_noop_codelet();
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, rt::AccessMode::kRead},
                     {handle, rt::AccessMode::kWrite}};
    rt::TaskPtr task = engine.submit(std::move(spec));
    engine.wait(task);
    EXPECT_EQ(task->state, rt::TaskState::kDone);
  }
}

// ---------------------------------------------------------------------------
// PL033 precision: a readwrite between two writes reads the first write, but
// its own written value can still die against the second write.
// ---------------------------------------------------------------------------

TEST_F(LintTest, WriteFollowedByReadWriteIsNotPL033) {
  write("init.xml",
        "<peppher-interface name=\"init\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"o\" type=\"float*\" accessMode=\"write\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("bump.xml",
        "<peppher-interface name=\"bump\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"o\" type=\"float*\" accessMode=\"readwrite\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <calls>\n"
        "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
        "    <call interface=\"bump\"><arg param=\"o\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  EXPECT_EQ(find(bag, "PL033"), nullptr) << bag.format_text();
}

TEST_F(LintTest, ReadWriteResultOverwrittenIsPL033) {
  write("init.xml",
        "<peppher-interface name=\"init\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"o\" type=\"float*\" accessMode=\"write\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("bump.xml",
        "<peppher-interface name=\"bump\">\n"
        "  <function returnType=\"void\">\n"
        "    <param name=\"o\" type=\"float*\" accessMode=\"readwrite\" size=\"1\"/>\n"
        "  </function>\n"
        "</peppher-interface>\n");
  write("main.xml",
        "<peppher-main name=\"app\" source=\"main.cpp\">\n"
        "  <calls>\n"
        "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
        "    <call interface=\"bump\"><arg param=\"o\" data=\"D\"/></call>\n"
        "    <call interface=\"init\"><arg param=\"o\" data=\"D\"/></call>\n"
        "  </calls>\n"
        "</peppher-main>\n");
  const DiagnosticBag bag = lint();
  const Diagnostic* d = find(bag, "PL033");
  ASSERT_NE(d, nullptr) << bag.format_text();
  EXPECT_EQ(d->location.line, 5);  // the final overwriting <call>
}

// ---------------------------------------------------------------------------
// The code registry is the single source of truth: the docs tables and the
// SARIF rules section must stay in sync with it.
// ---------------------------------------------------------------------------

TEST(CodeRegistry, DocsTablesMatchTheRegistry) {
  // The families split across four files: structural lint codes in
  // docs/lint.md, coherence verification (PL060..PL069) in docs/verify.md,
  // trace analyses (PF0xx) in docs/perf.md, static cost prediction
  // (PL070..PL077) in docs/predict.md. Every registered code must appear in
  // exactly ONE of them — the tool-specific guide owns its codes, the
  // others point at it.
  struct Row {
    std::string file;
    std::string severity;
    std::string meaning;
  };
  std::map<std::string, Row> rows;
  for (const char* name : {"lint.md", "verify.md", "perf.md", "predict.md"}) {
    const std::string docs = fs::read_file(
        std::filesystem::path(PEPPHER_SOURCE_ROOT) / "docs" / name);
    std::istringstream stream(docs);
    std::string line;
    while (std::getline(stream, line)) {
      if (!strings::starts_with(line, "| PL") &&
          !strings::starts_with(line, "| PF")) {
        continue;
      }
      const std::vector<std::string> cells = strings::split(line, '|');
      ASSERT_GE(cells.size(), 4u) << "malformed table row: " << line;
      const std::string code(strings::trim(cells[1]));
      const auto [it, inserted] = rows.emplace(
          code, Row{name, std::string(strings::trim(cells[2])),
                    std::string(strings::trim(cells[3]))});
      EXPECT_TRUE(inserted) << code << " documented in both "
                            << it->second.file << " and " << name;
    }
  }
  for (const diag::CodeInfo& info : diag::all_codes()) {
    const auto it = rows.find(std::string(info.code));
    ASSERT_NE(it, rows.end()) << info.code << " missing from the docs";
    EXPECT_EQ(it->second.severity, diag::to_string(info.severity))
        << info.code << " severity diverges from the registry";
    // The verification, prediction and trace-analysis families document
    // the registry summary verbatim (older rows carry hand-written prose).
    if (info.code >= "PL060" || strings::starts_with(info.code, "PF")) {
      EXPECT_EQ(it->second.meaning, info.summary)
          << info.code << " summary diverges from the registry";
    }
  }
  for (const auto& [code, row] : rows) {
    EXPECT_NE(diag::find_code(code), nullptr)
        << code << " documented in " << row.file << " but not registered";
  }
  // Spot-check the family split itself.
  EXPECT_EQ(rows.at("PL060").file, "verify.md");
  EXPECT_EQ(rows.at("PL070").file, "predict.md");
  EXPECT_EQ(rows.at("PF001").file, "perf.md");
}

TEST(CodeRegistry, ExplainMetadataIsComplete) {
  for (const diag::CodeInfo& info : diag::all_codes()) {
    EXPECT_FALSE(info.summary.empty()) << info.code;
    EXPECT_FALSE(info.remediation.empty()) << info.code;
  }
  EXPECT_NE(diag::find_code("PL060"), nullptr);
  EXPECT_EQ(diag::find_code("PL059"), nullptr);
  EXPECT_EQ(diag::find_code(""), nullptr);
}

// ---------------------------------------------------------------------------
// SARIF golden file: the renderer's exact output is pinned so accidental
// format drift (field renames, escaping changes) shows up as a diff.
// ---------------------------------------------------------------------------

TEST(SarifGolden, RendererOutputIsPinned) {
  DiagnosticBag bag;
  bag.add("PL002", Severity::kError,
          "implementation 'axpy_cpu' parameter 2 ('x') has type 'double*' "
          "but interface 'axpy' expects 'const float*'",
          {"components/axpy/axpy_cpu.xml", 4, 5});
  bag.add("PL033", Severity::kWarning,
          "container 'D' written here is a dead write: overwritten before "
          "any read",
          {"main.xml", 5, 5});
  bag.add("PL061", Severity::kNote,
          "prefetch of 'v' to host is redundant: a valid replica already "
          "exists there on every path");
  bag.sort();
  const std::string expected = fs::read_file(
      std::filesystem::path(PEPPHER_SOURCE_ROOT) / "tests" / "golden" /
      "lint.sarif");
  EXPECT_EQ(bag.format_sarif(), expected)
      << "SARIF renderer output drifted; if intentional, regenerate "
         "tests/golden/lint.sarif";
}

}  // namespace
}  // namespace peppher
