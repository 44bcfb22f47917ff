// Robustness fuzzing (deterministic, seed-parameterised): the XML parser
// and the C-declaration parser must either succeed or throw ParseError on
// arbitrary mutated input — never crash, hang or corrupt memory.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "cdecl/cdecl.hpp"
#include "descriptor/descriptor.hpp"
#include "perf/trace.hpp"
#include "runtime/perfmodel.hpp"
#include "sim/topology.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/rng.hpp"
#include "xml/xml.hpp"

namespace peppher {
namespace {

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// Applies `count` random byte mutations (replace / insert / delete).
std::string mutate(std::string text, Rng& rng, int count) {
  const std::string alphabet = "<>/=\"'&;abcXY _\n\t#?!-[]";
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t pos = rng.next_below(text.size());
    switch (rng.next_below(3)) {
      case 0:
        text[pos] = alphabet[rng.next_below(alphabet.size())];
        break;
      case 1:
        text.insert(pos, 1, alphabet[rng.next_below(alphabet.size())]);
        break;
      default:
        text.erase(pos, 1);
        break;
    }
  }
  return text;
}

const char* const kSeedXml = R"(<peppher-implementation name="spmv_cusp" interface="spmv">
  <platform language="cuda" target="TeslaC2050"/>
  <sources><source file="cuda/spmv_cusp.cu"/></sources>
  <compilation command="nvcc" options="-O3 -arch=sm_20"/>
  <tunables><tunable name="bs" values="64,128" default="128"/></tunables>
  <constraints><constraint param="nnz" min="1024"/></constraints>
</peppher-implementation>)";

TEST_P(FuzzSeed, XmlParserNeverCrashesOnMutatedDescriptors) {
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const std::string mutated =
        mutate(kSeedXml, rng, 1 + static_cast<int>(rng.next_below(12)));
    try {
      const xml::Document doc = xml::parse(mutated);
      // Parsed: the tree must be internally consistent enough to serialise
      // and reparse.
      const std::string text = xml::serialize(*doc.root);
      EXPECT_NO_THROW(xml::parse(text)) << mutated;
    } catch (const ParseError&) {
      // Expected for most mutations.
    }
  }
}

TEST_P(FuzzSeed, DescriptorLoaderNeverCrashesOnMutatedInput) {
  Rng rng(GetParam() * 31);
  for (int round = 0; round < 200; ++round) {
    const std::string mutated =
        mutate(kSeedXml, rng, 1 + static_cast<int>(rng.next_below(10)));
    desc::Repository repo;
    try {
      repo.load_text(mutated);
    } catch (const Error&) {
      // ParseError / kNotFound / kInvalidArgument are all acceptable.
    }
  }
}

const char* const kSeedDecl =
    "template <typename T> void spmv(const float* values, int nnz, "
    "Vector<T>& x, float* y, size_t n);";

TEST_P(FuzzSeed, CdeclParserNeverCrashesOnMutatedDeclarations) {
  Rng rng(GetParam() * 47);
  for (int round = 0; round < 300; ++round) {
    const std::string mutated =
        mutate(kSeedDecl, rng, 1 + static_cast<int>(rng.next_below(8)));
    try {
      const auto decl = cdecl_parser::parse_declaration(mutated);
      EXPECT_FALSE(decl.name.empty());
    } catch (const ParseError&) {
      // Expected for most mutations.
    }
  }
}

TEST_P(FuzzSeed, HeaderScannerToleratesArbitraryText) {
  Rng rng(GetParam() * 89);
  std::string blob;
  for (int i = 0; i < 600; ++i) {
    blob += static_cast<char>(32 + rng.next_below(95));
    if (rng.next_double() < 0.05) blob += '\n';
  }
  // parse_header skips everything it cannot parse; it must simply return.
  EXPECT_NO_THROW({ (void)cdecl_parser::parse_header(blob); });
}

// ---------------------------------------------------------------------------
// Targeted malformed-descriptor cases (not random mutations): inputs a user
// plausibly produces by hand that must yield diagnostics, never crashes.
// ---------------------------------------------------------------------------

TEST(MalformedDescriptors, TruncatedInputNeverCrashesTheLoader) {
  const std::string seed = kSeedXml;
  // Every prefix, including ones that cut an attribute or tag name in half.
  for (std::size_t len = 0; len <= seed.size(); ++len) {
    desc::Repository repo;
    try {
      repo.load_text(seed.substr(0, len));
    } catch (const Error&) {
      // ParseError etc. are fine; crashing or hanging is not.
    }
  }
}

TEST(MalformedDescriptors, DuplicateImplementationNamesAreDiagnosed) {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="spmv">
      <function returnType="void">
        <param name="y" type="float*" accessMode="write" size="n"/>
      </function></peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="twin" interface="spmv">
      <platform language="cpu"/></peppher-implementation>)");
  repo.load_text(R"(<peppher-implementation name="twin" interface="spmv">
      <platform language="openmp"/></peppher-implementation>)");
  const auto problems = repo.validate();
  bool clash_reported = false;
  for (const std::string& p : problems) {
    if (p.find("twin") != std::string::npos) clash_reported = true;
  }
  EXPECT_TRUE(clash_reported);
  // Lookup must still resolve to exactly one of the two, not crash.
  EXPECT_NE(repo.find_implementation("twin"), nullptr);
}

TEST(MalformedDescriptors, InvalidArchStringsAreRejectedAtLoad) {
  // The loader validates the platform language eagerly so the error points
  // at the offending descriptor instead of surfacing at composition time.
  // (parse_arch trims/lowercases, so "CUDA " or "c++" are legal aliases;
  // these are the genuinely unknown ones.)
  for (const char* bogus : {"fortran", "", "x86_64", "cuda9", "open cl"}) {
    desc::Repository repo;
    EXPECT_THROW(
        repo.load_text(std::string(
                           R"(<peppher-implementation name="i" interface="f">
          <platform language=")") +
                       bogus + R"("/></peppher-implementation>)"),
        Error)
        << "language '" << bogus << "'";
    // The rejected descriptor must not be half-registered.
    EXPECT_EQ(repo.find_implementation("i"), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Malformed control flow in the <calls> section: every fixture must raise a
// ParseError carrying the offending element's line/column — never crash,
// and never leave a half-registered main module behind.
// ---------------------------------------------------------------------------

std::string main_with(const std::string& calls) {
  return "<peppher-main name=\"app\" source=\"main.cpp\">\n<calls>\n" + calls +
         "\n</calls>\n</peppher-main>\n";
}

TEST(MalformedControlFlow, BadStatementsRaiseLocatedParseErrors) {
  struct Fixture {
    const char* label;
    std::string xml;
  };
  const Fixture fixtures[] = {
      {"zero trip count", main_with("<loop count=\"0\"/>")},
      {"negative trip count",
       main_with("<loop count=\"-3\"><call interface=\"f\"/></loop>")},
      {"non-integer trip count", main_with("<loop count=\"2.5\"/>")},
      {"non-numeric trip count", main_with("<loop count=\"many\"/>")},
      {"missing trip count", main_with("<loop><call interface=\"f\"/></loop>")},
      {"else outside if", main_with("<else><call interface=\"f\"/></else>")},
      {"else not last",
       main_with("<if><else/><call interface=\"f\"/></if>")},
      {"else inside loop",
       main_with("<loop count=\"2\"><else/></loop>")},
      {"zero partition parts", main_with("<partition data=\"d\" parts=\"0\"/>")},
      {"partition without data", main_with("<partition parts=\"2\"/>")},
      {"unpartition without data", main_with("<unpartition/>")},
      {"bad prefetch target",
       main_with("<prefetch data=\"d\" on=\"gpu2\"/>")},
      {"unknown statement", main_with("<while count=\"2\"/>")},
  };
  for (const Fixture& fixture : fixtures) {
    desc::Repository repo;
    try {
      repo.load_text(fixture.xml, {}, "main.xml");
      FAIL() << fixture.label << ": expected a ParseError";
    } catch (const ParseError& e) {
      EXPECT_GT(e.line(), 1) << fixture.label;  // inside <calls>, not line 1
      EXPECT_GT(e.column(), 0) << fixture.label;
    }
    EXPECT_EQ(repo.main_module(), nullptr) << fixture.label;
  }
}

TEST(MalformedControlFlow, BadDistributedFormsRaiseLocatedParseErrors) {
  // Truncated or self-contradictory <partitioned>/<exchange>/<repartition>/
  // <gather> forms (docs/descriptors.md): each must be rejected with the
  // offending element's location, and the main module must not half-load.
  struct Fixture {
    const char* label;
    std::string xml;
  };
  const Fixture fixtures[] = {
      {"partitioned without data", main_with("<partitioned nodes=\"2\"/>")},
      {"partitioned without nodes", main_with("<partitioned data=\"d\"/>")},
      {"zero partitioned nodes",
       main_with("<partitioned data=\"d\" nodes=\"0\"/>")},
      {"negative partitioned nodes",
       main_with("<partitioned data=\"d\" nodes=\"-2\"/>")},
      {"non-integer partitioned nodes",
       main_with("<partitioned data=\"d\" nodes=\"two\"/>")},
      {"negative halo",
       main_with("<partitioned data=\"d\" nodes=\"2\" halo=\"-1\"/>")},
      {"slice node outside the partitioning",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\">"
                 "<slice node=\"2\" begin=\"0\" end=\"8\"/></partitioned>")},
      {"negative slice node",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\">"
                 "<slice node=\"-1\" begin=\"0\" end=\"8\"/></partitioned>")},
      {"empty slice range",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\">"
                 "<slice node=\"0\" begin=\"4\" end=\"4\"/></partitioned>")},
      {"inverted slice range",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\">"
                 "<slice node=\"0\" begin=\"6\" end=\"2\"/></partitioned>")},
      {"negative slice begin",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\">"
                 "<slice node=\"0\" begin=\"-1\" end=\"4\"/></partitioned>")},
      {"slice beyond the declared elements",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\">"
                 "<slice node=\"0\" begin=\"0\" end=\"9\"/></partitioned>")},
      {"slice missing begin",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\">"
                 "<slice node=\"0\" end=\"8\"/></partitioned>")},
      {"slices without elements",
       main_with("<partitioned data=\"d\" nodes=\"2\">"
                 "<slice node=\"0\" begin=\"0\" end=\"8\"/></partitioned>")},
      {"elements without slices",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"8\"/>")},
      {"zero elements",
       main_with("<partitioned data=\"d\" nodes=\"2\" elements=\"0\">"
                 "<slice node=\"0\" begin=\"0\" end=\"1\"/></partitioned>")},
      {"exchange without data", main_with("<exchange width=\"1\"/>")},
      {"negative exchange width",
       main_with("<exchange data=\"d\" width=\"-1\"/>")},
      {"repartition without nodes", main_with("<repartition data=\"d\"/>")},
      {"zero repartition nodes",
       main_with("<repartition data=\"d\" nodes=\"0\"/>")},
      {"gather without data", main_with("<gather/>")},
  };
  for (const Fixture& fixture : fixtures) {
    desc::Repository repo;
    try {
      repo.load_text(fixture.xml, {}, "main.xml");
      FAIL() << fixture.label << ": expected a ParseError";
    } catch (const ParseError& e) {
      EXPECT_GT(e.line(), 1) << fixture.label;  // inside <calls>, not line 1
      EXPECT_GT(e.column(), 0) << fixture.label;
    }
    EXPECT_EQ(repo.main_module(), nullptr) << fixture.label;
  }
}

TEST(MalformedControlFlow, UnclosedAndMisNestedElementsRaiseParseErrors) {
  const std::string fixtures[] = {
      // Unclosed <loop>: the document ends inside the statement list.
      "<peppher-main name=\"a\" source=\"m.cpp\">\n<calls>\n"
      "<loop count=\"2\">\n<call interface=\"f\"/>\n",
      // </if> closes <loop>: mis-nested close tags.
      main_with("<loop count=\"2\"><call interface=\"f\"/></if>"),
      // <else> opened but never closed before </calls>.
      "<peppher-main name=\"a\" source=\"m.cpp\">\n<calls>\n"
      "<if><call interface=\"f\"/><else>\n</calls>\n</peppher-main>\n",
  };
  for (const std::string& xml : fixtures) {
    desc::Repository repo;
    EXPECT_THROW(repo.load_text(xml), ParseError) << xml;
    EXPECT_EQ(repo.main_module(), nullptr) << xml;
  }
}

TEST_P(FuzzSeed, ControlFlowMainNeverCrashesUnderMutation) {
  const std::string seed = main_with(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<loop count=\"4\">\n"
      "  <if>\n"
      "    <call interface=\"axpy\"><arg param=\"x\" data=\"v\"/></call>\n"
      "  <else>\n"
      "    <prefetch data=\"v\" on=\"device\"/>\n"
      "  </else>\n"
      "  </if>\n"
      "  <partition data=\"v\" parts=\"2\"/>\n"
      "  <unpartition data=\"v\"/>\n"
      "</loop>\n"
      "<partitioned data=\"v\" nodes=\"2\" halo=\"1\" elements=\"8\">\n"
      "  <slice node=\"0\" begin=\"0\" end=\"4\"/>\n"
      "  <slice node=\"1\" begin=\"4\" end=\"8\"/>\n"
      "</partitioned>\n"
      "<exchange data=\"v\" width=\"1\"/>\n"
      "<call interface=\"axpy\" node=\"1\" radius=\"1\">"
      "<arg param=\"x\" data=\"v\"/></call>\n"
      "<repartition data=\"v\" nodes=\"2\"/>\n"
      "<gather data=\"v\"/>\n");
  Rng rng(GetParam() * 17);
  for (int round = 0; round < 300; ++round) {
    const std::string mutated =
        mutate(seed, rng, 1 + static_cast<int>(rng.next_below(8)));
    desc::Repository repo;
    try {
      repo.load_text(mutated);
    } catch (const Error&) {
      // ParseError and schema errors are fine; crashing or hanging is not.
    }
  }
}

// ---------------------------------------------------------------------------
// Trace ingestion (peppher-perf, docs/perf.md): truncated documents,
// unknown event types / sections, schema-version mismatches and
// non-monotonic timelines must all raise located ParseErrors — the
// analyzer never crashes on a damaged trace.
// ---------------------------------------------------------------------------

const char* const kSeedTrace = R"({
  "schema": "peppher-trace",
  "version": 1,
  "machine": "unit",
  "scheduler": "dmda",
  "makespan": 1.0,
  "workers": [
    {"id": 0, "name": "core", "arch": "cpu", "node": 0, "combined": false},
    {"id": 1, "name": "gpu", "arch": "cuda", "node": 1, "combined": false}
  ],
  "tasks": [
    {"sequence": 0, "name": "a", "impl": "a_cpu", "arch": "cpu", "worker": 0,
     "vstart": 0, "vend": 0.5, "exec": 0.5, "attempt": 0, "failed": false,
     "point": 3, "data": [1]},
    {"sequence": 1, "name": "b", "impl": "b_cuda", "arch": "cuda", "worker": 1,
     "vstart": 0.5, "vend": 0.9, "exec": 0.4, "attempt": 0, "failed": false,
     "point": -1, "data": [1, 2]}
  ],
  "transfers": [
    {"lane": 0, "order": 0, "from": 0, "to": 1, "bytes": 4096, "vstart": 0.1,
     "vend": 0.2, "coalesced": false, "burst": 1, "data": 1},
    {"lane": 0, "order": 1, "from": 0, "to": 1, "bytes": 512, "vstart": 0.2,
     "vend": 0.3, "coalesced": true, "burst": 1, "data": 2}
  ],
  "prefetches": [
    {"event": "enqueued", "reason": "none", "task": 1, "node": 1, "data": 2,
     "bytes": 512},
    {"event": "skipped", "reason": "writer_race", "task": 1, "node": 1,
     "data": 2, "bytes": 512}
  ],
  "decisions": [
    {"task": 1, "worker": 1, "explored": false, "estimate": 0.9,
     "arch_estimate": {"cpu": 1.4, "cuda": 0.9}}
  ],
  "phases": [
    {"label": "run", "vtime": 0}
  ]
})";

TEST(MalformedTraces, SeedTraceItselfParses) {
  const perf::Trace trace = perf::parse_trace(kSeedTrace);
  EXPECT_EQ(trace.tasks.size(), 2u);
  EXPECT_EQ(trace.transfers.size(), 2u);
  EXPECT_EQ(trace.tasks[0].verify_point, 3);
}

TEST(MalformedTraces, TruncatedTraceRaisesLocatedErrors) {
  const std::string seed = kSeedTrace;
  // Every prefix, including ones that cut a string or number in half.
  for (std::size_t len = 0; len < seed.size(); ++len) {
    try {
      (void)perf::parse_trace(seed.substr(0, len));
      // A prefix that happens to parse as a complete document would be a
      // parser bug: the seed has no nested complete sub-document.
      FAIL() << "prefix of length " << len << " parsed as a full trace";
    } catch (const ParseError& e) {
      EXPECT_GT(e.line(), 0) << "prefix length " << len;
      EXPECT_GT(e.column(), 0) << "prefix length " << len;
    }
  }
}

TEST(MalformedTraces, TargetedCorruptionsRaiseLocatedParseErrors) {
  struct Fixture {
    const char* label;
    const char* needle;       // substring of the seed to replace...
    const char* replacement;  // ...with this
  };
  const Fixture fixtures[] = {
      {"wrong schema tag", "\"peppher-trace\"", "\"chrome-trace\""},
      {"future schema version", "\"version\": 1", "\"version\": 2"},
      {"unknown top-level section", "\"phases\"", "\"spans\""},
      {"unknown prefetch event", "\"enqueued\"", "\"requested\""},
      {"unknown skip reason", "\"writer_race\"", "\"cosmic_ray\""},
      {"non-monotonic task interval", "\"vend\": 0.5", "\"vend\": -0.5"},
      {"non-monotonic lane order", "\"order\": 1", "\"order\": 0"},
      {"type mismatch", "\"worker\": 0", "\"worker\": \"zero\""},
      {"fractional integer", "\"sequence\": 0", "\"sequence\": 0.25"},
      {"missing required field", "\"lane\": 0, ", ""},
  };
  for (const Fixture& fixture : fixtures) {
    std::string text = kSeedTrace;
    const std::size_t pos = text.find(fixture.needle);
    ASSERT_NE(pos, std::string::npos) << fixture.label;
    text.replace(pos, std::string(fixture.needle).size(), fixture.replacement);
    try {
      (void)perf::parse_trace(text);
      FAIL() << fixture.label << ": expected a ParseError";
    } catch (const ParseError& e) {
      EXPECT_GT(e.line(), 0) << fixture.label;
      EXPECT_GT(e.column(), 0) << fixture.label;
    }
  }
}

TEST(MalformedTraces, TrailingGarbageAndWrongRootAreRejected) {
  EXPECT_THROW((void)perf::parse_trace(std::string(kSeedTrace) + " []"),
               ParseError);
  EXPECT_THROW((void)perf::parse_trace("[]"), ParseError);
  EXPECT_THROW((void)perf::parse_trace(""), ParseError);
  EXPECT_THROW((void)perf::parse_trace("{\"schema\": \"peppher-trace\"}"),
               ParseError);
  // Deep nesting must be a located error, not a stack overflow.
  EXPECT_THROW((void)perf::parse_trace(std::string(5000, '[')), ParseError);
}

TEST_P(FuzzSeed, TraceParserNeverCrashesOnMutatedTraces) {
  Rng rng(GetParam() * 193);
  for (int round = 0; round < 200; ++round) {
    const std::string mutated =
        mutate(kSeedTrace, rng, 1 + static_cast<int>(rng.next_below(10)));
    try {
      (void)perf::parse_trace(mutated);
      // Some mutations (e.g. inside a string literal) stay valid traces.
    } catch (const ParseError&) {
      // Expected for most mutations.
    }
  }
}

TEST(MalformedTraces, NodeFieldsParseAndRejectCorruption) {
  // The v1-additive node ids on transfer / worker / prefetch rows: absent
  // means single-host (0), present must be a non-negative integer.
  std::string text = kSeedTrace;
  const std::size_t pos = text.find("\"from\": 0,");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "\"from_node\": 1, \"to_node\": 0, ");
  const perf::Trace trace = perf::parse_trace(text);
  EXPECT_EQ(trace.transfers[0].from_node, 1);
  EXPECT_EQ(trace.transfers[0].to_node, 0);
  EXPECT_EQ(trace.transfers[1].from_node, 0);  // absent -> 0
  EXPECT_EQ(trace.workers[0].sim_node, 0);
  EXPECT_EQ(trace.prefetches[0].sim_node, 0);

  const struct {
    const char* label;
    const char* inject;
  } fixtures[] = {
      {"negative from_node", "\"from_node\": -1, "},
      {"fractional to_node", "\"to_node\": 0.5, "},
      {"non-numeric from_node", "\"from_node\": \"zero\", "},
  };
  for (const auto& fixture : fixtures) {
    std::string bad = kSeedTrace;
    bad.insert(bad.find("\"from\": 0,"), fixture.inject);
    try {
      (void)perf::parse_trace(bad);
      FAIL() << fixture.label << ": expected a ParseError";
    } catch (const ParseError& e) {
      EXPECT_GT(e.line(), 0) << fixture.label;
      EXPECT_GT(e.column(), 0) << fixture.label;
    }
  }
  // The same contract on the worker table's sim_node.
  std::string bad_worker = kSeedTrace;
  bad_worker.insert(bad_worker.find("\"id\": 0,"), "\"sim_node\": -2, ");
  EXPECT_THROW((void)perf::parse_trace(bad_worker), ParseError);
}

// ---------------------------------------------------------------------------
// Malformed cluster topology profiles (peppher-cluster v1, sim/topology.hpp):
// negative bandwidth, duplicate node ids, truncation and friends must all
// raise located ParseErrors — the reader never crashes or half-loads.
// ---------------------------------------------------------------------------

const char* const kSeedCluster =
    "peppher-cluster v1\n"
    "name testbed\n"
    "internode latency_us 50 bandwidth_gbs 1.25\n"
    "node 0 machine c2050 cpu_cores 4\n"
    "node 1 machine cpu_only cpu_cores 8\n"
    "end\n";

TEST(MalformedClusters, SeedClusterItselfParses) {
  const sim::ClusterConfig cluster = sim::parse_cluster(kSeedCluster);
  EXPECT_EQ(cluster.name, "testbed");
  ASSERT_EQ(cluster.nodes.size(), 2u);
  EXPECT_EQ(cluster.internode.bandwidth_gbs, 1.25);
}

TEST(MalformedClusters, TruncationRaisesLocatedParseErrors) {
  const std::string seed = kSeedCluster;
  // Until the final 'end' token is complete, every prefix is a truncated
  // document (or cuts a keyword/number in half) and must be rejected with
  // a located error; once 'end' is complete, the document is whole.
  const std::size_t end_complete = seed.rfind("end") + 3;
  for (std::size_t len = 0; len <= seed.size(); ++len) {
    try {
      (void)sim::parse_cluster(seed.substr(0, len));
      EXPECT_GE(len, end_complete) << "prefix of length " << len
                                   << " parsed as a full cluster";
    } catch (const ParseError& e) {
      EXPECT_LT(len, end_complete) << "full document rejected at " << len;
      EXPECT_GT(e.line(), 0) << "prefix length " << len;
      EXPECT_GT(e.column(), 0) << "prefix length " << len;
    }
  }
}

TEST(MalformedClusters, TargetedCorruptionsRaiseLocatedParseErrors) {
  struct Fixture {
    const char* label;
    const char* needle;
    const char* replacement;
  };
  const Fixture fixtures[] = {
      {"wrong document tag", "peppher-cluster", "peppher-machine"},
      {"future version", "v1", "v2"},
      {"negative bandwidth", "bandwidth_gbs 1.25", "bandwidth_gbs -1.25"},
      {"zero bandwidth", "bandwidth_gbs 1.25", "bandwidth_gbs 0"},
      {"negative latency", "latency_us 50", "latency_us -50"},
      {"non-numeric latency", "latency_us 50", "latency_us fast"},
      {"unknown link field", "latency_us 50", "jitter_us 50"},
      {"duplicate node id", "node 1", "node 0"},
      {"non-dense node ids", "node 1", "node 7"},
      {"negative node id", "node 1", "node -1"},
      {"unknown machine preset", "machine c2050", "machine k80"},
      {"unknown node field", "cpu_cores 4", "gpu_cores 4"},
      {"missing keyword value", "cpu_cores 8\n", "cpu_cores\n"},
      {"non-integer cpu_cores", "cpu_cores 4", "cpu_cores 4.5"},
      {"negative cpu_cores", "cpu_cores 4", "cpu_cores -4"},
      {"unknown keyword", "name testbed", "rack testbed"},
      {"content after end", "end\n", "end\nnode 2\n"},
      {"trailing tokens after end", "end\n", "end now\n"},
  };
  for (const Fixture& fixture : fixtures) {
    std::string text = kSeedCluster;
    const std::size_t pos = text.find(fixture.needle);
    ASSERT_NE(pos, std::string::npos) << fixture.label;
    text.replace(pos, std::string(fixture.needle).size(), fixture.replacement);
    try {
      (void)sim::parse_cluster(text);
      FAIL() << fixture.label << ": expected a ParseError";
    } catch (const ParseError& e) {
      EXPECT_GT(e.line(), 0) << fixture.label;
      EXPECT_GT(e.column(), 0) << fixture.label;
    }
  }
  EXPECT_THROW((void)sim::parse_cluster(""), ParseError);
  EXPECT_THROW((void)sim::parse_cluster("peppher-cluster v1\nend\n"),
               ParseError);  // no nodes
}

TEST_P(FuzzSeed, ClusterParserNeverCrashesOnMutatedProfiles) {
  Rng rng(GetParam() * 211);
  for (int round = 0; round < 300; ++round) {
    const std::string mutated =
        mutate(kSeedCluster, rng, 1 + static_cast<int>(rng.next_below(8)));
    try {
      const sim::ClusterConfig cluster = sim::parse_cluster(mutated);
      // Survivors must round-trip through the writer.
      EXPECT_NO_THROW((void)sim::parse_cluster(sim::to_text(cluster)))
          << mutated;
    } catch (const ParseError&) {
      // Expected for most mutations.
    }
  }
}

// ---------------------------------------------------------------------------
// Targeted malformed .model files (peppher-predict --models input): each
// fixture must raise a located ParseError — never crash and never load a
// half-parsed model. PerfRegistry::load additionally names the file.
// ---------------------------------------------------------------------------

TEST(MalformedModels, TruncatedFilesRaiseLocatedParseErrors) {
  rt::HistoryModel seed_model;
  for (const std::size_t bytes : {1000, 2000, 4000, 8000, 16000}) {
    seed_model.record(rt::footprint_of({bytes}), bytes,
                      1e-9 * static_cast<double>(bytes));
  }
  ASSERT_TRUE(seed_model.multi_term_fit().has_value());
  const std::string serialized = seed_model.serialize();
  // Every proper prefix that cuts a line in half must be rejected; prefixes
  // ending on a line boundary are legitimately shorter files.
  for (std::size_t cut = 1; cut < serialized.size(); ++cut) {
    const std::string prefix = serialized.substr(0, cut);
    if (prefix.back() == '\n') continue;
    rt::HistoryModel model;
    try {
      model.deserialize(prefix);
      // A cut inside the final digits of a number can still parse.
    } catch (const ParseError& e) {
      EXPECT_GT(e.line(), 0) << prefix;
    }
  }
}

TEST(MalformedModels, NonFiniteAndNegativeTimesAreRejected) {
  const char* const fixtures[] = {
      "1 4096 2 nan 0.0 0.4 0.6\n",     // NaN mean
      "1 4096 2 inf 0.0 0.4 0.6\n",     // infinite mean
      "1 4096 2 -0.5 0.0 0.4 0.6\n",    // negative mean
      "1 4096 2 0.5 -1.0 0.4 0.6\n",    // negative variance accumulator
      "1 4096 2 0.5 0.0 -0.4 0.6\n",    // negative minimum
      "1 4096 2 0.5 0.0 0.6 0.4\n",     // min > max
      "1 4096 0 0.5 0.0 0.4 0.6\n",     // zero sample count
  };
  for (const char* text : fixtures) {
    rt::HistoryModel model;
    EXPECT_THROW(model.deserialize(text), ParseError) << text;
    EXPECT_EQ(model.entry_count(), 0u) << text;
  }
}

TEST(MalformedModels, DuplicateFootprintKeysAreRejected) {
  rt::HistoryModel model;
  try {
    model.deserialize(
        "peppher-model v2\n"
        "1 4096 2 0.5 0.0 0.4 0.6\n"
        "1 8192 3 0.7 0.0 0.6 0.8\n");
    FAIL() << "duplicate key accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(MalformedModels, RegistryLoadNamesTheOffendingFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "peppher_bad_models";
  std::filesystem::create_directories(dir);
  fs::write_file(dir / "spmv.cpu.model", "1 4096 2 0.5 0.0 0.4 garbage\n");
  rt::PerfRegistry registry;
  try {
    registry.load(dir);
    FAIL() << "malformed model file accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("spmv.cpu.model"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), 1);
  }
  std::filesystem::remove_all(dir);
}

TEST_P(FuzzSeed, PerfModelDeserializeRejectsMutations) {
  Rng rng(GetParam() * 131);
  rt::HistoryModel seed_model;
  seed_model.record(42, 4096, 0.5);
  seed_model.record(77, 65536, 1.5);
  const std::string serialized = seed_model.serialize();
  for (int round = 0; round < 200; ++round) {
    const std::string mutated =
        mutate(serialized, rng, 1 + static_cast<int>(rng.next_below(6)));
    rt::HistoryModel model;
    try {
      model.deserialize(mutated);
    } catch (const ParseError&) {
    }
  }
}

}  // namespace
}  // namespace peppher
