// Coherence verifier tests (analyze/verify.hpp): CFG lowering + fixpoint
// behaviour, one positive and one negative case per PL060..PL069 code, and
// the cross-validation of the runtime's verify_shadow observation log
// against the verifier's abstract per-program-point states.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/lint.hpp"
#include "analyze/verify.hpp"
#include "descriptor/descriptor.hpp"
#include "runtime/engine.hpp"
#include "runtime/memory.hpp"
#include "sim/device.hpp"
#include "sim/topology.hpp"
#include "support/error.hpp"

namespace peppher {
namespace {

using analyze::LintOptions;
using analyze::VerifyResult;
using analyze::verify_main;

// ---------------------------------------------------------------------------
// Fixture: a repository assembled from inline descriptor strings
// ---------------------------------------------------------------------------

// init(y): pure producer. axpy(x, y): consumer/accumulator. consume(x):
// pure reader. sneaky(x): declared read through a mutable type (the hidden
// write the PL065 check hunts).
constexpr const char* kProducer =
    "<peppher-interface name=\"init\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"y\" type=\"float*\" accessMode=\"write\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kAxpy =
    "<peppher-interface name=\"axpy\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" size=\"n\"/>\n"
    "    <param name=\"y\" type=\"float*\" accessMode=\"readwrite\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kConsumer =
    "<peppher-interface name=\"consume\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kSneaky =
    "<peppher-interface name=\"sneaky\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"x\" type=\"float*\" accessMode=\"read\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

// stencil(x, y): pure producer from a read input — the distributed sweep
// shape (reads x with a declared radius, writes y).
constexpr const char* kStencil =
    "<peppher-interface name=\"stencil\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" size=\"n\"/>\n"
    "    <param name=\"y\" type=\"float*\" accessMode=\"write\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

std::string impl_xml(const std::string& name, const std::string& iface,
                     const std::string& language) {
  return "<peppher-implementation name=\"" + name + "\" interface=\"" + iface +
         "\">\n  <platform language=\"" + language +
         "\"/>\n</peppher-implementation>\n";
}

/// Repository with all four interfaces, each with a host (cpu) variant
/// unless remapped: `device_ifaces` get a cuda variant *instead*.
desc::Repository make_repo(const std::string& main_xml,
                           const std::vector<std::string>& device_ifaces = {}) {
  desc::Repository repo;
  repo.load_text(kProducer);
  repo.load_text(kAxpy);
  repo.load_text(kConsumer);
  repo.load_text(kSneaky);
  repo.load_text(kStencil);
  for (const char* iface : {"init", "axpy", "consume", "sneaky", "stencil"}) {
    const bool device = std::find(device_ifaces.begin(), device_ifaces.end(),
                                  iface) != device_ifaces.end();
    repo.load_text(impl_xml(std::string(iface) + (device ? "_cuda" : "_cpu"),
                            iface, device ? "cuda" : "cpu"));
  }
  repo.load_text(main_xml, {}, "main.xml");
  return repo;
}

std::string main_with_calls(const std::string& calls) {
  return "<peppher-main name=\"app\" source=\"main.cpp\">\n<calls>\n" + calls +
         "</calls>\n</peppher-main>\n";
}

int count_code(const VerifyResult& result, const std::string& code) {
  int n = 0;
  for (const diag::Diagnostic& d : result.bag.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

VerifyResult verify(const std::string& calls,
                    const std::vector<std::string>& device_ifaces = {}) {
  const desc::Repository repo = make_repo(main_with_calls(calls), device_ifaces);
  return verify_main(repo);
}

// ---------------------------------------------------------------------------
// Fixpoint behaviour
// ---------------------------------------------------------------------------

TEST(Verify, EmptyRepositoryVerifiesClean) {
  desc::Repository repo;
  const VerifyResult result = verify_main(repo);
  EXPECT_TRUE(result.bag.empty());
  EXPECT_TRUE(result.fixpoint_reached);
}

TEST(Verify, StraightLineProgramVerifiesClean) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"axpy\"><arg param=\"x\" data=\"v\"/>"
      "<arg param=\"y\" data=\"out\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"out\"/></call>\n");
  EXPECT_TRUE(result.bag.empty()) << result.bag.format_text();
  EXPECT_TRUE(result.fixpoint_reached);
  EXPECT_GT(result.steps, 0);
}

TEST(Verify, NestedControlFlowReachesFixpointClean) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<loop count=\"8\">\n"
      "  <if>\n"
      "    <call interface=\"axpy\"><arg param=\"x\" data=\"v\"/>"
      "<arg param=\"y\" data=\"acc\"/></call>\n"
      "  <else>\n"
      "    <loop count=\"2\">\n"
      "      <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "    </loop>\n"
      "  </else>\n"
      "  </if>\n"
      "</loop>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_TRUE(result.bag.empty()) << result.bag.format_text();
  EXPECT_TRUE(result.fixpoint_reached);
}

TEST(Verify, MixedPlacementForksWorldsAndStaysClean) {
  // consume has only a cuda variant: the read forces a device fetch; the
  // host-pinned producer then writes again. Straight-line, correct, and the
  // abstract state must cover both the fetched and re-invalidated worlds.
  const VerifyResult result =
      verify("<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
             "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
             "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
             "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
             {"consume"});
  EXPECT_TRUE(result.bag.empty()) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL060 — branch-divergent initialisation
// ---------------------------------------------------------------------------

TEST(Verify, PL060FlagsReadOfBranchDependentInit) {
  const VerifyResult result = verify(
      "<if>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL060"), 1) << result.bag.format_text();
}

TEST(Verify, PL060SilentWhenBothBranchesInitialise) {
  const VerifyResult result = verify(
      "<if>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<else>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "</else>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL060"), 0) << result.bag.format_text();
}

TEST(Verify, PL060SilentForAppInitialisedAccumulator) {
  // No pure write ever touches 'acc': the application initialises it, and
  // the loop's readwrite accumulation is the intended pattern.
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<loop count=\"4\">\n"
      "  <call interface=\"axpy\"><arg param=\"x\" data=\"v\"/>"
      "<arg param=\"y\" data=\"acc\"/></call>\n"
      "</loop>\n");
  EXPECT_EQ(count_code(result, "PL060"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL061 — redundant prefetch
// ---------------------------------------------------------------------------

TEST(Verify, PL061FlagsPrefetchOfAlreadyValidReplica) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<prefetch data=\"v\" on=\"host\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL061"), 1) << result.bag.format_text();
}

TEST(Verify, PL061SilentForUsefulPrefetch) {
  // The host-side producer leaves the device replica invalid; warming it
  // ahead of the device-only consumer is exactly what <prefetch> is for.
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<prefetch data=\"v\" on=\"device\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {"consume"});
  EXPECT_EQ(count_code(result, "PL061"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL062 — dead write on every path
// ---------------------------------------------------------------------------

TEST(Verify, PL062FlagsWriteOverwrittenOnEveryPath) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<else>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "</else>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL062"), 1) << result.bag.format_text();
}

TEST(Verify, PL062SilentWhenSomePathReadsTheWrite) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL062"), 0) << result.bag.format_text();
}

TEST(Verify, PL062SilentForFinalOutputWrite) {
  // The last write of a program is its output; unread is not dead.
  const VerifyResult result = verify(
      "<loop count=\"2\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n"
      "<call interface=\"init\"><arg param=\"y\" data=\"out\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL062"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL063 — partition without unpartition
// ---------------------------------------------------------------------------

TEST(Verify, PL063FlagsUnclosedPartitionOnSomePath) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<partition data=\"v\" parts=\"4\"/>\n"
      "<if>\n"
      "  <unpartition data=\"v\"/>\n"
      "</if>\n");
  EXPECT_EQ(count_code(result, "PL063"), 1) << result.bag.format_text();
}

TEST(Verify, PL063SilentForBalancedPartition) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<partition data=\"v\" parts=\"4\"/>\n"
      "<unpartition data=\"v\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL063"), 0) << result.bag.format_text();
  EXPECT_EQ(count_code(result, "PL066"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL064 — loop-carried cross-architecture ping-pong
// ---------------------------------------------------------------------------

TEST(Verify, PL064FlagsLoopCarriedPingPong) {
  // Host-pinned producer, device-pinned consumer, every iteration: the
  // replica bounces across the link and prefetch can never hide it.
  const VerifyResult result = verify(
      "<loop count=\"10\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n",
      {"consume"});
  EXPECT_EQ(count_code(result, "PL064"), 1) << result.bag.format_text();
}

TEST(Verify, PL064SilentWhenCoLocated) {
  const VerifyResult result = verify(
      "<loop count=\"10\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n");
  EXPECT_EQ(count_code(result, "PL064"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL065 — path-dependent hidden-write race
// ---------------------------------------------------------------------------

TEST(Verify, PL065FlagsHiddenWriteJoiningReadWindow) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"sneaky\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL065"), 1) << result.bag.format_text();
}

TEST(Verify, PL065SilentWithoutHiddenWrites) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL065"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// Sequence hazards (VerifyResult::hazards): the fixpoint picks each code
// from what it proves about the finding itself
// ---------------------------------------------------------------------------

int count_hazard(const VerifyResult& result, const std::string& code) {
  int n = 0;
  for (const diag::Diagnostic& d : result.hazards.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

TEST(VerifyHazards, RaceOnEveryPathReachingItIsPL031) {
  // Both accesses sit in the same branch: every path that reaches the
  // reader races, so the race is definite even inside an <if>.
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"sneaky\"><arg param=\"x\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</if>\n");
  EXPECT_EQ(count_hazard(result, "PL031"), 1) << result.hazards.format_text();
  EXPECT_EQ(count_code(result, "PL065"), 0) << result.bag.format_text();
}

TEST(VerifyHazards, TwoHiddenWritersOnOnePathOnlyArePL065) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"sneaky\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"sneaky\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_hazard(result, "PL032"), 0) << result.hazards.format_text();
  EXPECT_EQ(count_code(result, "PL065"), 1) << result.bag.format_text();
}

TEST(VerifyHazards, StraightLinePingPongIsAHazardNotACoherenceFinding) {
  // The MixedPlacement program: the host write-back after a device read is
  // a PL052 hazard, reported once; the coherence bag stays clean.
  const VerifyResult result =
      verify("<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
             "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
             "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
             "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
             {"consume"});
  EXPECT_TRUE(result.bag.empty()) << result.bag.format_text();
  EXPECT_EQ(count_hazard(result, "PL052"), 1) << result.hazards.format_text();
}

TEST(VerifyHazards, PingPongOutsideALoopIsPL052AndInsideIsPL064) {
  // A loop on another container does not make v's write-back loop-carried;
  // only a write-back inside a <loop> is PL064.
  const VerifyResult result = verify(
      "<loop count=\"3\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"w\"/></call>\n"
      "</loop>\n"
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<loop count=\"3\">\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"u\"/></call>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "</loop>\n",
      {"consume"});
  ASSERT_EQ(count_hazard(result, "PL052"), 1) << result.hazards.format_text();
  EXPECT_NE(result.hazards.diagnostics().front().message.find("container 'v'"),
            std::string::npos);
  EXPECT_EQ(result.hazards.diagnostics().front().location.line, 7);
  EXPECT_EQ(count_code(result, "PL064"), 1) << result.bag.format_text();
}

TEST(VerifyHazards, DeadWriteOverwrittenByOneCallIsPL033) {
  // Both branches read nothing and the same call overwrites the first init
  // on every path: PL033 at that call, not PL062.
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"w\"/></call>\n"
      "</if>\n"
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_hazard(result, "PL033"), 1) << result.hazards.format_text();
  EXPECT_EQ(count_code(result, "PL062"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL066 — partition protocol violations
// ---------------------------------------------------------------------------

TEST(Verify, PL066FlagsAccessWhilePartitioned) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<partition data=\"v\" parts=\"2\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "<unpartition data=\"v\"/>\n");
  EXPECT_EQ(count_code(result, "PL066"), 1) << result.bag.format_text();
}

TEST(Verify, PL066FlagsDoublePartitionAndStrayUnpartition) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<partition data=\"v\" parts=\"2\"/>\n"
      "<partition data=\"v\" parts=\"2\"/>\n"
      "<unpartition data=\"v\"/>\n"
      "<unpartition data=\"v\"/>\n"
      "<unpartition data=\"v\"/>\n");
  EXPECT_GE(count_code(result, "PL066"), 2) << result.bag.format_text();
}

TEST(Verify, PL066SilentForProperLifecycle) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<partition data=\"v\" parts=\"2\"/>\n"
      "<unpartition data=\"v\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL066"), 0) << result.bag.format_text();
}

// ---------------------------------------------------------------------------
// PL069 — fixpoint budget
// ---------------------------------------------------------------------------

TEST(Verify, PL069FiresWhenBudgetExhausted) {
  const desc::Repository repo = make_repo(main_with_calls(
      "<loop count=\"4\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n"));
  LintOptions options;
  options.verify_max_steps = 1;
  const VerifyResult result = verify_main(repo, options);
  EXPECT_EQ(count_code(result, "PL069"), 1) << result.bag.format_text();
  EXPECT_FALSE(result.fixpoint_reached);
}

TEST(Verify, PL069SilentUnderTheDefaultBudget) {
  const VerifyResult result = verify(
      "<loop count=\"4\">\n"
      "  <loop count=\"4\">\n"
      "    <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "    <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "  </loop>\n"
      "</loop>\n");
  EXPECT_EQ(count_code(result, "PL069"), 0) << result.bag.format_text();
  EXPECT_TRUE(result.fixpoint_reached);
}

// ---------------------------------------------------------------------------
// run_lint integration: opt-in for straight lines, automatic for control flow
// ---------------------------------------------------------------------------

TEST(Verify, RunLintRunsVerifierAutomaticallyForControlFlow) {
  const desc::Repository repo = make_repo(main_with_calls(
      "<if>\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"));
  LintOptions options;
  options.check_sources = false;
  const diag::DiagnosticBag bag = analyze::run_lint(repo, options);
  int pl060 = 0;
  for (const diag::Diagnostic& d : bag.diagnostics()) {
    if (d.code == "PL060") ++pl060;
  }
  EXPECT_EQ(pl060, 1) << bag.format_text();
}

TEST(Verify, RunLintNeedsOptInForStraightLine) {
  const desc::Repository repo = make_repo(main_with_calls(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<prefetch data=\"v\" on=\"host\"/>\n"));
  LintOptions options;
  options.check_sources = false;
  // Wait — a <prefetch> is a statement, not control flow; the descriptor
  // stays straight-line and the verifier must not run un-asked.
  diag::DiagnosticBag bag = analyze::run_lint(repo, options);
  EXPECT_TRUE(std::none_of(
      bag.diagnostics().begin(), bag.diagnostics().end(),
      [](const diag::Diagnostic& d) { return d.code == "PL061"; }))
      << bag.format_text();
  options.verify = true;
  bag = analyze::run_lint(repo, options);
  EXPECT_TRUE(std::any_of(
      bag.diagnostics().begin(), bag.diagnostics().end(),
      [](const diag::Diagnostic& d) { return d.code == "PL061"; }))
      << bag.format_text();
}

// ---------------------------------------------------------------------------
// Distributed verification (PL080..PL087): the abstract machine gains one
// host + one accelerator slot per cluster node and <partitioned>/<exchange>/
// <repartition>/<gather> drive per-slice sub-machines.
// ---------------------------------------------------------------------------

VerifyResult verify_cluster(int nodes, const std::string& calls,
                            const std::vector<std::string>& device_ifaces = {}) {
  const desc::Repository repo = make_repo(main_with_calls(calls), device_ifaces);
  LintOptions options;
  options.cluster =
      sim::ClusterConfig::uniform(nodes, sim::MachineConfig::platform_c2050());
  return verify_main(repo, options);
}

TEST(VerifyDistributed, PL080FlagsHaloNarrowerThanStencilRadius) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"0\"/>\n"
      "<exchange data=\"u\"/>\n"
      "<call interface=\"consume\" radius=\"1\">"
      "<arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL080"), 1) << result.bag.format_text();
  EXPECT_EQ(count_code(result, "PL081"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL080SilentWhenHaloCoversRadius) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<exchange data=\"u\"/>\n"
      "<call interface=\"consume\" radius=\"1\">"
      "<arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL080"), 0) << result.bag.format_text();
  EXPECT_EQ(count_code(result, "PL081"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL081FlagsStencilReadWithoutExchange) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<call interface=\"consume\" radius=\"1\">"
      "<arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL081"), 1) << result.bag.format_text();
  EXPECT_EQ(count_code(result, "PL080"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL081SilentWhenExchangeDominatesTheRead) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<exchange data=\"u\"/>\n"
      "<call interface=\"consume\" radius=\"1\">"
      "<arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL081"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL081ArmsEvenWithoutAClusterProfile) {
  // The distributed forms are meaningful on a single host too (the abstract
  // machine simply has one node); the protocol checks must not need --cluster.
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<call interface=\"consume\" radius=\"1\">"
      "<arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL081"), 1) << result.bag.format_text();
}

TEST(VerifyDistributed, PL082FlagsLoopCarriedInternodePingPong) {
  const VerifyResult result = verify_cluster(
      2,
      "<loop count=\"10\">\n"
      "  <call interface=\"init\" node=\"0\">"
      "<arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\" node=\"1\">"
      "<arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n");
  EXPECT_EQ(count_code(result, "PL082"), 1) << result.bag.format_text();
  // The n2n twin must not double-report as a same-node PCIe ping-pong.
  EXPECT_EQ(count_code(result, "PL064"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL082SilentWhenCoLocatedOnOneNode) {
  const VerifyResult result = verify_cluster(
      2,
      "<loop count=\"10\">\n"
      "  <call interface=\"init\" node=\"0\">"
      "<arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\" node=\"0\">"
      "<arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n");
  EXPECT_EQ(count_code(result, "PL082"), 0) << result.bag.format_text();
  EXPECT_EQ(count_code(result, "PL064"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL083FlagsRepartitionEvictingDeviceReplicas) {
  const VerifyResult result = verify_cluster(
      4,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<call interface=\"consume\" node=\"0\">"
      "<arg param=\"x\" data=\"u\"/></call>\n"
      "<repartition data=\"u\" nodes=\"4\" halo=\"1\"/>\n"
      "<gather data=\"u\"/>\n",
      {"consume"});
  EXPECT_EQ(count_code(result, "PL083"), 1) << result.bag.format_text();
}

TEST(VerifyDistributed, PL083SilentWhenTheShapeIsUnchanged) {
  const VerifyResult result = verify_cluster(
      4,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<call interface=\"consume\" node=\"0\">"
      "<arg param=\"x\" data=\"u\"/></call>\n"
      "<repartition data=\"u\" nodes=\"2\" halo=\"2\"/>\n"
      "<gather data=\"u\"/>\n",
      {"consume"});
  EXPECT_EQ(count_code(result, "PL083"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL084FlagsSliceCoverageGap) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\" elements=\"100\">\n"
      "  <slice node=\"0\" begin=\"0\" end=\"40\"/>\n"
      "  <slice node=\"1\" begin=\"60\" end=\"100\"/>\n"
      "</partitioned>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_GE(count_code(result, "PL084"), 1) << result.bag.format_text();
}

TEST(VerifyDistributed, PL084FlagsSliceOverlap) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\" elements=\"100\">\n"
      "  <slice node=\"0\" begin=\"0\" end=\"60\"/>\n"
      "  <slice node=\"1\" begin=\"40\" end=\"100\"/>\n"
      "</partitioned>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_GE(count_code(result, "PL084"), 1) << result.bag.format_text();
}

TEST(VerifyDistributed, PL084FlagsNodePinOutsideTheProfile) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"consume\" node=\"5\">"
      "<arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_GE(count_code(result, "PL084"), 1) << result.bag.format_text();
}

TEST(VerifyDistributed, PL084SilentForExactCoverage) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\" elements=\"100\">\n"
      "  <slice node=\"0\" begin=\"0\" end=\"50\"/>\n"
      "  <slice node=\"1\" begin=\"50\" end=\"100\"/>\n"
      "</partitioned>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL084"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL085FlagsGatherDuringInFlightExchange) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<exchange data=\"u\"/>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL085"), 1) << result.bag.format_text();
}

TEST(VerifyDistributed, PL085SilentOnceAReadQuiescesTheExchange) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<exchange data=\"u\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL085"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL086FlagsNodeDivergentWorldsAtAJoin) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\" node=\"0\">"
      "<arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"init\" node=\"1\">"
      "<arg param=\"y\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL086"), 1) << result.bag.format_text();
}

TEST(VerifyDistributed, PL086SilentWhenEveryPathWritesOnOneNode) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\" node=\"0\">"
      "<arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"init\" node=\"0\">"
      "<arg param=\"y\" data=\"v\"/></call>\n"
      "</if>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL086"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL087FlagsWriteRacingAnInFlightExchange) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<exchange data=\"u\"/>\n"
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL087"), 1) << result.bag.format_text();
  EXPECT_EQ(count_code(result, "PL085"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL087SilentWhenTheExchangeDrainedFirst) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"1\"/>\n"
      "<exchange data=\"u\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"u\"/></call>\n"
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"u\"/></call>\n"
      "<gather data=\"u\"/>\n");
  EXPECT_EQ(count_code(result, "PL087"), 0) << result.bag.format_text();
}

TEST(VerifyDistributed, PL063FlagsPartitioningWithoutGather) {
  const VerifyResult result = verify_cluster(
      2,
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"2\" halo=\"0\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"u\"/></call>\n");
  EXPECT_EQ(count_code(result, "PL063"), 1) << result.bag.format_text();
}

/// A canonical double-buffered Jacobi over `nodes` cluster nodes: device
/// sweeps read u (radius 1) into unew, host copy-back closes the iteration.
std::string jacobi_calls(int nodes) {
  const std::string n = std::to_string(nodes);
  std::string calls =
      "<call interface=\"init\"><arg param=\"y\" data=\"u\"/></call>\n"
      "<partitioned data=\"u\" nodes=\"" + n + "\" halo=\"1\"/>\n"
      "<partitioned data=\"unew\" nodes=\"" + n + "\" halo=\"1\"/>\n"
      "<loop count=\"3\">\n"
      "  <exchange data=\"u\"/>\n";
  for (int k = 0; k < nodes; ++k) {
    calls += "  <call interface=\"stencil\" node=\"" + std::to_string(k) +
             "\" radius=\"1\"><arg param=\"x\" data=\"u\"/>"
             "<arg param=\"y\" data=\"unew\"/></call>\n";
  }
  for (int k = 0; k < nodes; ++k) {
    calls += "  <call interface=\"axpy\" node=\"" + std::to_string(k) +
             "\"><arg param=\"x\" data=\"unew\"/>"
             "<arg param=\"y\" data=\"u\"/></call>\n";
  }
  calls +=
      "</loop>\n"
      "<gather data=\"u\"/>\n"
      "<gather data=\"unew\"/>\n";
  return calls;
}

TEST(VerifyDistributed, CleanJacobiVerifiesCleanOnTwoAndFourNodes) {
  for (int nodes : {2, 4}) {
    const VerifyResult result =
        verify_cluster(nodes, jacobi_calls(nodes), {"stencil"});
    EXPECT_TRUE(result.bag.empty())
        << "nodes=" << nodes << "\n" << result.bag.format_text();
    EXPECT_TRUE(result.fixpoint_reached);
  }
}

TEST(VerifyDistributed, OneNodeProfileIsIdenticalToSingleHostVerify) {
  // The differential guard of the issue: a one-node cluster profile must
  // take the exact same path as no profile at all — same diagnostics text,
  // same fixpoint step count — on programs without distributed forms.
  struct Program {
    const char* calls;
    std::vector<std::string> device;
  };
  const Program programs[] = {
      {"<loop count=\"10\">\n"
       "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
       "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
       "</loop>\n",
       {"consume"}},
      {"<if>\n"
       "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
       "</if>\n"
       "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
       {}},
      {"<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
       "<prefetch data=\"v\" on=\"host\"/>\n"
       "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
       {}},
      {"<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
       "<partition data=\"v\" parts=\"4\"/>\n"
       "<if>\n"
       "  <unpartition data=\"v\"/>\n"
       "</if>\n",
       {}},
  };
  for (const Program& program : programs) {
    const desc::Repository repo =
        make_repo(main_with_calls(program.calls), program.device);
    const VerifyResult plain = verify_main(repo);
    LintOptions options;
    options.cluster =
        sim::ClusterConfig::single(sim::MachineConfig::platform_c2050());
    const VerifyResult clustered = verify_main(repo, options);
    EXPECT_EQ(plain.bag.format_text(), clustered.bag.format_text());
    EXPECT_EQ(plain.steps, clustered.steps);
    EXPECT_EQ(plain.fixpoint_reached, clustered.fixpoint_reached);
  }
}

// ---------------------------------------------------------------------------
// Abstract states and the verify_shadow cross-validation
// ---------------------------------------------------------------------------

TEST(Verify, PublishesAbstractStatesPerCallPoint) {
  const VerifyResult result = verify(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n");
  ASSERT_TRUE(result.states.count(0));
  ASSERT_TRUE(result.states.count(1));
  // Before the first call every container sits host-Owned (registration).
  EXPECT_TRUE(result.admits(0, "v", 0, rt::ReplicaState::kOwned));
  EXPECT_FALSE(result.admits(0, "v", 0, rt::ReplicaState::kInvalid));
  // After the host-side producer the device replica is still invalid.
  EXPECT_TRUE(result.admits(1, "v", 1, rt::ReplicaState::kInvalid));
  // Unknown points and containers are never admitted.
  EXPECT_FALSE(result.admits(7, "v", 0, rt::ReplicaState::kOwned));
  EXPECT_FALSE(result.admits(0, "nope", 0, rt::ReplicaState::kOwned));
}

/// Builds the runtime counterpart of the two-call descriptor program and
/// checks every verify_shadow observation is admitted by the verifier's
/// abstract state for the same program point. Synchronous submission keeps
/// the concrete execution in program order, matching the CFG.
void cross_validate(rt::Arch arch, const std::vector<std::string>& device) {
  const desc::Repository repo = make_repo(main_with_calls(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"axpy\"><arg param=\"x\" data=\"v\"/>"
      "<arg param=\"y\" data=\"acc\"/></call>\n"),
      device);
  const VerifyResult abstract = verify_main(repo);
  ASSERT_TRUE(abstract.fixpoint_reached);

  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  config.verify_shadow = true;
  rt::Engine engine(config);

  std::vector<float> v(32, 0.0f), acc(32, 1.0f);
  auto hv = engine.register_buffer(v.data(), v.size() * sizeof(float),
                                   sizeof(float));
  auto hacc = engine.register_buffer(acc.data(), acc.size() * sizeof(float),
                                     sizeof(float));

  rt::Codelet init("init");
  {
    rt::Implementation impl;
    impl.arch = arch;
    impl.name = "init_" + rt::to_string(arch);
    impl.fn = [](rt::ExecContext& ctx) {
      auto* y = ctx.buffer_as<float>(0);
      for (std::size_t i = 0; i < ctx.elements(0); ++i) y[i] = 2.0f;
    };
    init.add_impl(std::move(impl));
  }
  rt::Codelet axpy("axpy");
  {
    rt::Implementation impl;
    impl.arch = arch;
    impl.name = "axpy_" + rt::to_string(arch);
    impl.fn = [](rt::ExecContext& ctx) {
      const auto* x = ctx.buffer_as<const float>(0);
      auto* y = ctx.buffer_as<float>(1);
      for (std::size_t i = 0; i < ctx.elements(1); ++i) y[i] += x[i];
    };
    axpy.add_impl(std::move(impl));
  }

  rt::TaskSpec s0;
  s0.codelet = &init;
  s0.operands = {{hv, rt::AccessMode::kWrite}};
  s0.synchronous = true;
  s0.verify_point = 0;
  engine.submit(std::move(s0));

  rt::TaskSpec s1;
  s1.codelet = &axpy;
  s1.operands = {{hv, rt::AccessMode::kRead},
                 {hacc, rt::AccessMode::kReadWrite}};
  s1.synchronous = true;
  s1.verify_point = 1;
  engine.submit(std::move(s1));
  engine.wait_for_all();

  const std::vector<rt::ShadowRecord> log = engine.shadow_log();
  ASSERT_EQ(log.size(), 3u);  // one record per operand per task
  const char* const operand_names[2][2] = {{"v", nullptr}, {"v", "acc"}};
  for (const rt::ShadowRecord& record : log) {
    ASSERT_GE(record.verify_point, 0);
    ASSERT_LE(record.verify_point, 1);
    ASSERT_LT(record.operand, 2u);
    const char* data = operand_names[record.verify_point][record.operand];
    ASSERT_NE(data, nullptr);
    const int abstract_node = record.node == rt::kHostNode ? 0 : 1;
    EXPECT_TRUE(
        abstract.admits(record.verify_point, data, abstract_node, record.state))
        << "task " << record.task_name << " operand " << record.operand
        << " on node " << record.node << " observed '"
        << rt::to_string(record.state)
        << "' which no abstract world at point " << record.verify_point
        << " admits";
  }
}

TEST(Verify, ShadowLogMatchesAbstractStatesOnTheHost) {
  cross_validate(rt::Arch::kCpu, {});
}

TEST(Verify, ShadowLogMatchesAbstractStatesOnTheDevice) {
  cross_validate(rt::Arch::kCuda, {"init", "axpy"});
}

// ---------------------------------------------------------------------------
// Distributed shadow cross-validation: cluster runs confirm the abstract
// per-node worlds (the cluster profile has one accelerator per node, so the
// verifier's abstract topology coincides with the engine's real one).
// ---------------------------------------------------------------------------

/// First worker on `sim_node` of the requested kind (host CPU or
/// accelerator); mirrors the abstract host/device split per cluster node.
rt::WorkerId worker_on(const rt::Engine& engine, int sim_node, bool accel) {
  for (const auto& desc : engine.workers()) {
    if (desc.sim_node != sim_node || desc.archs.empty()) continue;
    const bool is_accel = desc.archs.front() == rt::Arch::kCuda ||
                          desc.archs.front() == rt::Arch::kOpenCl;
    if (is_accel == accel) return desc.id;
  }
  ADD_FAILURE() << "no " << (accel ? "accelerator" : "cpu")
                << " worker on sim node " << sim_node;
  return 0;
}

/// Checks every tagged verify_shadow observation against the abstract state
/// for that program point: `names[point][operand]` maps a record back to its
/// container (nullptr = outside the abstract model, e.g. ghost buffers).
void check_shadow_log(const rt::Engine& engine,
                      const analyze::VerifyResult& abstract,
                      const std::vector<std::vector<const char*>>& names) {
  const rt::MemTopology& topo = engine.topo();
  int checked = 0;
  for (const rt::ShadowRecord& record : engine.shadow_log()) {
    if (record.verify_point < 0) continue;
    ASSERT_LT(static_cast<std::size_t>(record.verify_point), names.size());
    const auto& operands = names[static_cast<std::size_t>(record.verify_point)];
    ASSERT_LT(record.operand, operands.size());
    const char* data = operands[record.operand];
    if (data == nullptr) continue;  // ghost buffers live outside the model
    const int abstract_node =
        2 * record.sim_node + (topo.is_host(record.node) ? 0 : 1);
    EXPECT_TRUE(
        abstract.admits(record.verify_point, data, abstract_node, record.state))
        << "task " << record.task_name << " operand " << record.operand
        << " on node " << record.node << " (sim node " << record.sim_node
        << ") observed '" << rt::to_string(record.state)
        << "' which no abstract world at point " << record.verify_point
        << " admits";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

/// The runtime counterpart of jacobi_calls(nodes): per-slice handles homed
/// by a scatter write on their owner, halo exchange through dedicated ghost
/// buffers, device sweeps and host copy-backs pinned like the descriptor.
void cross_validate_jacobi(int nodes) {
  const desc::Repository repo =
      make_repo(main_with_calls(jacobi_calls(nodes)), {"stencil"});
  LintOptions options;
  options.cluster =
      sim::ClusterConfig::uniform(nodes, sim::MachineConfig::platform_c2050());
  const analyze::VerifyResult abstract = verify_main(repo, options);
  ASSERT_TRUE(abstract.fixpoint_reached);
  ASSERT_TRUE(abstract.bag.empty()) << abstract.bag.format_text();

  rt::EngineConfig config;
  config.cluster = *options.cluster;
  config.use_history_models = false;
  config.enable_prefetch = false;  // the abstract model has no <prefetch>
  config.verify_shadow = true;
  rt::Engine engine(config);
  ASSERT_EQ(engine.topo().sim_node_count(), nodes);

  constexpr std::size_t kSlice = 16;
  std::vector<std::vector<float>> u(static_cast<std::size_t>(nodes)),
      unew(static_cast<std::size_t>(nodes)),
      ghost(static_cast<std::size_t>(nodes));
  std::vector<rt::DataHandlePtr> hu, hunew, hghost;
  for (int k = 0; k < nodes; ++k) {
    u[static_cast<std::size_t>(k)].assign(kSlice, 0.0f);
    unew[static_cast<std::size_t>(k)].assign(kSlice, 0.0f);
    ghost[static_cast<std::size_t>(k)].assign(2, 0.0f);
    auto reg = [&engine](std::vector<float>& buf) {
      return engine.register_buffer(buf.data(), buf.size() * sizeof(float),
                                    sizeof(float));
    };
    hu.push_back(reg(u[static_cast<std::size_t>(k)]));
    hunew.push_back(reg(unew[static_cast<std::size_t>(k)]));
    hghost.push_back(reg(ghost[static_cast<std::size_t>(k)]));
  }

  auto cpu_impl = [](const char* name, void (*fn)(rt::ExecContext&)) {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpu;
    impl.name = name;
    impl.fn = fn;
    return impl;
  };
  rt::Codelet scatter("scatter");
  scatter.add_impl(cpu_impl("scatter_cpu", [](rt::ExecContext& ctx) {
    auto* y = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) y[i] = 1.0f;
  }));
  rt::Codelet halo("halo");  // reads the own slice, fills a neighbour ghost
  halo.add_impl(cpu_impl("halo_cpu", [](rt::ExecContext& ctx) {
    const auto* x = ctx.buffer_as<const float>(0);
    auto* g = ctx.buffer_as<float>(1);
    g[0] = x[0];
    g[1] = x[ctx.elements(0) - 1];
  }));
  rt::Codelet sweep("sweep");  // device: unew[i] = avg(u, ghosts at the rim)
  {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCuda;
    impl.name = "sweep_cuda";
    impl.fn = [](rt::ExecContext& ctx) {
      const auto* x = ctx.buffer_as<const float>(0);
      const auto* g = ctx.buffer_as<const float>(1);
      auto* y = ctx.buffer_as<float>(2);
      const std::size_t n = ctx.elements(0);
      for (std::size_t i = 0; i < n; ++i) {
        const float left = i == 0 ? g[0] : x[i - 1];
        const float right = i + 1 == n ? g[1] : x[i + 1];
        y[i] = (left + x[i] + right) / 3.0f;
      }
    };
    sweep.add_impl(std::move(impl));
  }
  rt::Codelet copy("copyback");  // host: u <- relaxation of unew into u
  copy.add_impl(cpu_impl("copyback_cpu", [](rt::ExecContext& ctx) {
    const auto* x = ctx.buffer_as<const float>(0);
    auto* y = ctx.buffer_as<float>(1);
    for (std::size_t i = 0; i < ctx.elements(1); ++i) {
      y[i] = 0.5f * y[i] + 0.5f * x[i];
    }
  }));

  auto submit = [&engine](const rt::Codelet* codelet,
                          std::vector<rt::TaskOperand> operands,
                          rt::WorkerId worker, int point) {
    rt::TaskSpec spec;
    spec.codelet = codelet;
    spec.operands = std::move(operands);
    spec.forced_worker = worker;
    spec.synchronous = true;
    spec.verify_point = point;
    engine.submit(std::move(spec));
  };

  // <partitioned>: home each slice on its owner with an untagged write.
  for (int k = 0; k < nodes; ++k) {
    const rt::WorkerId host = worker_on(engine, k, false);
    const std::size_t sk = static_cast<std::size_t>(k);
    submit(&scatter, {{hu[sk], rt::AccessMode::kWrite}}, host, -1);
    submit(&scatter, {{hunew[sk], rt::AccessMode::kWrite}}, host, -1);
  }
  for (int iteration = 0; iteration < 3; ++iteration) {
    // <exchange data="u"/>: each owner reads its slice on its own host and
    // publishes the border into the neighbours' ghost buffers.
    for (int k = 0; k < nodes; ++k) {
      const rt::WorkerId host = worker_on(engine, k, false);
      const std::size_t sk = static_cast<std::size_t>(k);
      if (k > 0) {
        submit(&halo,
               {{hu[sk], rt::AccessMode::kRead},
                {hghost[sk - 1], rt::AccessMode::kWrite}},
               host, -1);
      }
      if (k + 1 < nodes) {
        submit(&halo,
               {{hu[sk], rt::AccessMode::kRead},
                {hghost[sk + 1], rt::AccessMode::kWrite}},
               host, -1);
      }
    }
    for (int k = 0; k < nodes; ++k) {  // device sweeps (points 1..nodes)
      const std::size_t sk = static_cast<std::size_t>(k);
      submit(&sweep,
             {{hu[sk], rt::AccessMode::kRead},
              {hghost[sk], rt::AccessMode::kRead},
              {hunew[sk], rt::AccessMode::kWrite}},
             worker_on(engine, k, true), 1 + k);
    }
    for (int k = 0; k < nodes; ++k) {  // host copy-backs (points nodes+1..2N)
      const std::size_t sk = static_cast<std::size_t>(k);
      submit(&copy,
             {{hunew[sk], rt::AccessMode::kRead},
              {hu[sk], rt::AccessMode::kReadWrite}},
             worker_on(engine, k, false), 1 + nodes + k);
    }
  }
  engine.wait_for_all();

  // point 0 is the init call (no tagged runtime task); then sweeps, copies.
  std::vector<std::vector<const char*>> names(
      1 + 2 * static_cast<std::size_t>(nodes));
  for (int k = 0; k < nodes; ++k) {
    names[static_cast<std::size_t>(1 + k)] = {"u", nullptr, "unew"};
    names[static_cast<std::size_t>(1 + nodes + k)] = {"unew", "u"};
  }
  check_shadow_log(engine, abstract, names);
}

TEST(VerifyDistributed, ShadowLogMatchesAbstractWorldsOnTwoNodeJacobi) {
  cross_validate_jacobi(2);
}

TEST(VerifyDistributed, ShadowLogMatchesAbstractWorldsOnFourNodeJacobi) {
  cross_validate_jacobi(4);
}

TEST(VerifyDistributed, ShadowLogMatchesAbstractWorldsOnDistributedSpmv) {
  // Distributed SpMV shape: a replicated input vector read by every node's
  // accelerator, a partitioned result vector gathered back for a host read.
  const int nodes = 2;
  std::string calls =
      "<call interface=\"init\"><arg param=\"y\" data=\"x\"/></call>\n"
      "<partitioned data=\"y\" nodes=\"2\" halo=\"0\"/>\n";
  for (int k = 0; k < nodes; ++k) {
    calls += "<call interface=\"stencil\" node=\"" + std::to_string(k) +
             "\"><arg param=\"x\" data=\"x\"/>"
             "<arg param=\"y\" data=\"y\"/></call>\n";
  }
  calls +=
      "<gather data=\"y\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"y\"/></call>\n";
  const desc::Repository repo = make_repo(main_with_calls(calls), {"stencil"});
  LintOptions options;
  options.cluster =
      sim::ClusterConfig::uniform(nodes, sim::MachineConfig::platform_c2050());
  const analyze::VerifyResult abstract = verify_main(repo, options);
  ASSERT_TRUE(abstract.fixpoint_reached);
  ASSERT_TRUE(abstract.bag.empty()) << abstract.bag.format_text();

  rt::EngineConfig config;
  config.cluster = *options.cluster;
  config.use_history_models = false;
  config.enable_prefetch = false;  // the abstract model has no <prefetch>
  config.verify_shadow = true;
  rt::Engine engine(config);

  std::vector<float> x(32, 1.0f);
  std::vector<std::vector<float>> y(static_cast<std::size_t>(nodes),
                                    std::vector<float>(16, 0.0f));
  auto hx =
      engine.register_buffer(x.data(), x.size() * sizeof(float), sizeof(float));
  std::vector<rt::DataHandlePtr> hy;
  for (int k = 0; k < nodes; ++k) {
    auto& slice = y[static_cast<std::size_t>(k)];
    hy.push_back(engine.register_buffer(
        slice.data(), slice.size() * sizeof(float), sizeof(float)));
  }

  rt::Codelet scatter("scatter");
  {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpu;
    impl.name = "scatter_cpu";
    impl.fn = [](rt::ExecContext& ctx) {
      auto* out = ctx.buffer_as<float>(0);
      for (std::size_t i = 0; i < ctx.elements(0); ++i) out[i] = 0.0f;
    };
    scatter.add_impl(std::move(impl));
  }
  rt::Codelet spmv("spmv_part");
  {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCuda;
    impl.name = "spmv_cuda";
    impl.fn = [](rt::ExecContext& ctx) {
      const auto* vec = ctx.buffer_as<const float>(0);
      auto* out = ctx.buffer_as<float>(1);
      for (std::size_t i = 0; i < ctx.elements(1); ++i) out[i] = 2.0f * vec[i];
    };
    spmv.add_impl(std::move(impl));
  }
  rt::Codelet reduce("reduce");
  {
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpu;
    impl.name = "reduce_cpu";
    impl.fn = [](rt::ExecContext& ctx) {
      float sum = 0.0f;
      for (std::size_t op = 0; op < 2; ++op) {
        const auto* part = ctx.buffer_as<const float>(op);
        for (std::size_t i = 0; i < ctx.elements(op); ++i) sum += part[i];
      }
      EXPECT_GT(sum, 0.0f);
    };
    reduce.add_impl(std::move(impl));
  }

  auto submit = [&engine](const rt::Codelet* codelet,
                          std::vector<rt::TaskOperand> operands,
                          rt::WorkerId worker, int point) {
    rt::TaskSpec spec;
    spec.codelet = codelet;
    spec.operands = std::move(operands);
    spec.forced_worker = worker;
    spec.synchronous = true;
    spec.verify_point = point;
    engine.submit(std::move(spec));
  };

  for (int k = 0; k < nodes; ++k) {  // <partitioned data="y"/>
    submit(&scatter, {{hy[static_cast<std::size_t>(k)], rt::AccessMode::kWrite}},
           worker_on(engine, k, false), -1);
  }
  for (int k = 0; k < nodes; ++k) {  // per-node partial products
    submit(&spmv,
           {{hx, rt::AccessMode::kRead},
            {hy[static_cast<std::size_t>(k)], rt::AccessMode::kWrite}},
           worker_on(engine, k, true), 1 + k);
  }
  engine.wait_for_all();
  for (int k = 0; k < nodes; ++k) {  // <gather data="y"/>
    engine.acquire_host(hy[static_cast<std::size_t>(k)],
                        rt::AccessMode::kReadWrite);
  }
  submit(&reduce,
         {{hy[0], rt::AccessMode::kRead}, {hy[1], rt::AccessMode::kRead}},
         worker_on(engine, 0, false), 1 + nodes);
  engine.wait_for_all();

  std::vector<std::vector<const char*>> names(
      static_cast<std::size_t>(nodes) + 2);
  for (int k = 0; k < nodes; ++k) {
    names[static_cast<std::size_t>(1 + k)] = {"x", "y"};
  }
  names[static_cast<std::size_t>(1 + nodes)] = {"y", "y"};
  check_shadow_log(engine, abstract, names);
}

// ---------------------------------------------------------------------------
// verify_shadow runtime behaviour
// ---------------------------------------------------------------------------

TEST(VerifyShadow, CleanPipelineRunsWithoutDivergence) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  config.verify_shadow = true;
  rt::Engine engine(config);

  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  rt::Codelet codelet("scale");
  for (rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCuda}) {
    rt::Implementation impl;
    impl.arch = arch;
    impl.name = "scale_" + rt::to_string(arch);
    impl.fn = [](rt::ExecContext& ctx) {
      auto* d = ctx.buffer_as<float>(0);
      for (std::size_t i = 0; i < ctx.elements(0); ++i) d[i] *= 2.0f;
    };
    codelet.add_impl(std::move(impl));
  }
  for (int i = 0; i < 8; ++i) {
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    spec.forced_arch = i % 2 == 0 ? rt::Arch::kCpu : rt::Arch::kCuda;
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  engine.acquire_host(handle, rt::AccessMode::kRead);
  for (float vv : data) EXPECT_FLOAT_EQ(vv, 256.0f);  // 2^8
  EXPECT_EQ(engine.shadow_log().size(), 8u);  // one record per task
}

// The log only records: a faulted, retried run gives the same results with
// and without it. Every GPU attempt may lose its upload or its kernel and is
// then retried on the CPU; the seeded fault draws are made at the commits,
// in submission order, so they fall the same way in both runs.
TEST(VerifyShadow, RecordsFaultedRetriedRunWithoutChangingIt) {
  constexpr int kTasks = 20;
  struct Outcome {
    std::vector<std::vector<float>> out;
    std::vector<rt::Arch> archs;
    rt::FaultStats faults;
    std::uint64_t transfers = 0;
    std::vector<rt::ShadowRecord> log;
  };
  const auto run = [](bool verify_shadow) {
    rt::EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.machine.cpu_cores = 1;
    config.use_history_models = false;
    config.verify_shadow = verify_shadow;
    sim::FaultPlan plan;
    plan.kernel_failure_rate = 0.3;
    plan.transfer_failure_rate = 0.3;
    plan.seed = 11;
    config.accelerator_faults = {plan};

    Outcome result;
    std::vector<std::vector<float>> in(kTasks);
    result.out.assign(kTasks, std::vector<float>(64, 0.0f));
    rt::Codelet codelet("plus_one");
    const auto body = [](rt::ExecContext& ctx) {
      const auto* x = ctx.buffer_as<float>(0);
      auto* y = ctx.buffer_as<float>(1);
      for (std::size_t i = 0; i < ctx.elements(0); ++i) y[i] = x[i] + 1.0f;
    };
    const auto cost = [](const std::vector<std::size_t>&, const void*) {
      return sim::KernelCost{1e9, 1e6, 1.0};  // the GPU is the first choice
    };
    codelet.add_impl({rt::Arch::kCpu, "plus_one_cpu", body, cost});
    codelet.add_impl({rt::Arch::kCuda, "plus_one_cuda", body, cost});
    std::vector<rt::DataHandlePtr> handles;  // outlive the engine
    {
      rt::Engine engine(config);
      for (int t = 0; t < kTasks; ++t) {
        in[t].assign(64, static_cast<float>(t));
        auto x = engine.register_buffer(in[t].data(), 64 * sizeof(float),
                                        sizeof(float));
        auto y = engine.register_buffer(result.out[t].data(),
                                        64 * sizeof(float), sizeof(float));
        y->keep_home_at_shutdown(true);  // synced home by the shutdown
        handles.insert(handles.end(), {x, y});
        rt::TaskSpec spec;
        spec.codelet = &codelet;
        spec.operands = {{x, rt::AccessMode::kRead},
                         {y, rt::AccessMode::kWrite}};
        spec.synchronous = true;
        result.archs.push_back(engine.submit(std::move(spec))->executed_arch);
      }
      result.faults = engine.fault_stats();
      result.transfers = engine.transfer_stats().total_count();
      result.log = engine.shadow_log();
    }
    return result;
  };

  const Outcome plain = run(false);
  const Outcome shadowed = run(true);
  for (int t = 0; t < kTasks; ++t) {
    for (const float v : shadowed.out[t]) {
      ASSERT_FLOAT_EQ(v, static_cast<float>(t) + 1.0f);
    }
  }
  EXPECT_EQ(shadowed.out, plain.out);
  EXPECT_EQ(shadowed.archs, plain.archs);
  EXPECT_GT(plain.faults.injected_transfer_faults, 0u);
  EXPECT_GT(plain.faults.injected_kernel_faults, 0u);
  EXPECT_EQ(shadowed.faults.injected_transfer_faults,
            plain.faults.injected_transfer_faults);
  EXPECT_EQ(shadowed.faults.injected_kernel_faults,
            plain.faults.injected_kernel_faults);
  EXPECT_EQ(shadowed.faults.failed_attempts, plain.faults.failed_attempts);
  EXPECT_EQ(shadowed.faults.retries, plain.faults.retries);
  EXPECT_EQ(shadowed.faults.tasks_failed, 0u);
  EXPECT_EQ(shadowed.transfers, plain.transfers);
  EXPECT_TRUE(plain.log.empty());
  // Two records per task: an attempt that failed at its commit never runs,
  // so only the attempt that succeeded is observed.
  EXPECT_EQ(shadowed.log.size(), 2u * kTasks);
}

}  // namespace
}  // namespace peppher
