// Static cost predictor tests (analyze/predict.hpp, analyze/cost.hpp):
// multi-term model fitting and .model v2 round trips, the CostEvaluator
// estimate chain, one positive and one negative case per PL070..PL077
// code, what-if device-count queries, and the differential guard — on
// straight-line programs with fully-observed sizes the static per-task
// estimates must equal the dmda scheduler's online formula
// (PerfRegistry::estimate_exec) to within floating-point round-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analyze/cost.hpp"
#include "analyze/predict.hpp"
#include "descriptor/descriptor.hpp"
#include "runtime/memory.hpp"
#include "runtime/perfmodel.hpp"
#include "runtime/placement.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace peppher {
namespace {

using analyze::CostEvaluator;
using analyze::EstimateSource;
using analyze::PredictOptions;
using analyze::PredictResult;
using analyze::WhatIfResult;

// ---------------------------------------------------------------------------
// Fixture: a repository assembled from inline descriptor strings
// ---------------------------------------------------------------------------

// init(y): pure producer. work(x, y): consumer/producer. consume(x): pure
// reader. Each test picks which architectures implement them.
constexpr const char* kInit =
    "<peppher-interface name=\"init\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"y\" type=\"float*\" accessMode=\"write\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kWork =
    "<peppher-interface name=\"work\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" size=\"n\"/>\n"
    "    <param name=\"y\" type=\"float*\" accessMode=\"write\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

constexpr const char* kConsume =
    "<peppher-interface name=\"consume\">\n"
    "  <function returnType=\"void\">\n"
    "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
    "    <param name=\"x\" type=\"const float*\" accessMode=\"read\" size=\"n\"/>\n"
    "  </function>\n"
    "</peppher-interface>\n";

std::string impl_xml(const std::string& name, const std::string& iface,
                     const std::string& language) {
  return "<peppher-implementation name=\"" + name + "\" interface=\"" + iface +
         "\">\n  <platform language=\"" + language +
         "\"/>\n</peppher-implementation>\n";
}

/// Repository with the three interfaces; `langs` maps each interface to the
/// platform languages it is implemented for.
desc::Repository make_repo(
    const std::string& main_xml,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        langs = {{"init", {"cpu"}}, {"work", {"cpu"}}, {"consume", {"cpu"}}}) {
  desc::Repository repo;
  repo.load_text(kInit);
  repo.load_text(kWork);
  repo.load_text(kConsume);
  for (const auto& [iface, languages] : langs) {
    for (const std::string& lang : languages) {
      repo.load_text(impl_xml(iface + "_" + lang, iface, lang));
    }
  }
  repo.load_text(main_xml, {}, "main.xml");
  return repo;
}

std::string main_with_calls(const std::string& calls) {
  return "<peppher-main name=\"app\" source=\"main.cpp\">\n<calls>\n" + calls +
         "</calls>\n</peppher-main>\n";
}

int count_code(const diag::DiagnosticBag& bag, const std::string& code) {
  int n = 0;
  for (const diag::Diagnostic& d : bag.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

/// Records `samples` executions of `seconds` each for a single-operand
/// footprint of `bytes`, so the exact-footprint mean is calibrated.
void calibrate(rt::PerfRegistry& models, const std::string& codelet,
               rt::Arch arch, std::size_t bytes, double seconds,
               int samples = 3) {
  const std::uint64_t footprint = rt::footprint_of({bytes});
  for (int i = 0; i < samples; ++i) {
    models.record(codelet, arch, footprint, bytes, seconds);
  }
}

/// Records one sample per size so regression / multi-term fitting kicks in.
void record_sizes(rt::PerfRegistry& models, const std::string& codelet,
                  rt::Arch arch, const std::vector<std::size_t>& sizes,
                  double (*time_of)(double)) {
  for (const std::size_t bytes : sizes) {
    models.record(codelet, arch, rt::footprint_of({bytes}), bytes,
                  time_of(static_cast<double>(bytes)));
  }
}

// ---------------------------------------------------------------------------
// Multi-term fitting (rt::HistoryModel / rt::MultiTermModel)
// ---------------------------------------------------------------------------

TEST(MultiTerm, FitsAffineBehaviourThePowerLawCannot) {
  // 2 ms launch overhead + 1 ns/byte: a power law time = a*n^b cannot
  // express the additive constant, a {1, n} multi-term model can.
  rt::HistoryModel model;
  for (const std::size_t bytes : {1000, 2000, 4000, 8000, 16000, 32000}) {
    model.record(rt::footprint_of({bytes}), bytes,
                 2e-3 + 1e-9 * static_cast<double>(bytes));
  }
  const auto fit = model.multi_term_fit();
  ASSERT_TRUE(fit.has_value());
  EXPECT_TRUE(fit->usable());
  EXPECT_LT(fit->cv_error, 0.05);
  // Interpolated and mildly extrapolated predictions stay within 5%.
  for (const double bytes : {3000.0, 24000.0, 64000.0}) {
    const double expected = 2e-3 + 1e-9 * bytes;
    EXPECT_NEAR(fit->evaluate(bytes), expected, 0.05 * expected) << bytes;
  }
}

TEST(MultiTerm, FitsQuadraticGrowth) {
  rt::HistoryModel model;
  for (const std::size_t bytes : {512, 1024, 2048, 4096, 8192}) {
    const double n = static_cast<double>(bytes);
    model.record(rt::footprint_of({bytes}), bytes, 1e-12 * n * n);
  }
  const auto fit = model.multi_term_fit();
  ASSERT_TRUE(fit.has_value());
  const double n = 16384.0;
  EXPECT_NEAR(fit->evaluate(n), 1e-12 * n * n, 0.1 * 1e-12 * n * n);
}

TEST(MultiTerm, NeedsFourDistinctSizes) {
  rt::HistoryModel model;
  for (const std::size_t bytes : {1024, 2048, 4096}) {
    model.record(rt::footprint_of({bytes}), bytes, 1e-6);
  }
  EXPECT_FALSE(model.multi_term_fit().has_value());
  model.record(rt::footprint_of({std::size_t{8192}}), 8192, 1e-6);
  EXPECT_TRUE(model.multi_term_fit().has_value());
}

TEST(MultiTerm, EvaluationClampsNegativePredictionsToZero) {
  rt::MultiTermModel model;
  model.terms = {{rt::TermBasis::kConst, -5.0}};
  EXPECT_EQ(model.evaluate(1024.0), 0.0);
}

TEST(MultiTerm, ExtrapolationIsFlaggedOutsideTheObservedRange) {
  rt::MultiTermModel model;
  model.terms = {{rt::TermBasis::kLinear, 1e-9}};
  model.min_bytes = 1000;
  model.max_bytes = 10000;
  EXPECT_FALSE(model.extrapolates(5000.0, 2.0));
  EXPECT_FALSE(model.extrapolates(19999.0, 2.0));  // within 2x slack
  EXPECT_TRUE(model.extrapolates(20001.0, 2.0));
  EXPECT_TRUE(model.extrapolates(100.0, 2.0));
}

TEST(MultiTerm, SerializedModelFileCarriesV2HeaderAndFitLine) {
  rt::HistoryModel model;
  for (const std::size_t bytes : {1000, 2000, 4000, 8000, 16000}) {
    model.record(rt::footprint_of({bytes}), bytes,
                 1e-9 * static_cast<double>(bytes));
  }
  ASSERT_TRUE(model.multi_term_fit().has_value());
  const std::string text = model.serialize();
  EXPECT_EQ(text.rfind("peppher-model v2\n", 0), 0u) << text;
  EXPECT_NE(text.find("\nfit "), std::string::npos) << text;
}

TEST(MultiTerm, FitSurvivesASaveLoadRoundTripWithoutRefitting) {
  rt::HistoryModel model;
  for (const std::size_t bytes : {1000, 2000, 4000, 8000, 16000}) {
    model.record(rt::footprint_of({bytes}), bytes,
                 2e-3 + 1e-9 * static_cast<double>(bytes));
  }
  const auto before = model.multi_term_fit();
  ASSERT_TRUE(before.has_value());

  rt::HistoryModel loaded;
  loaded.deserialize(model.serialize());
  const auto after = loaded.multi_term_fit();
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->terms.size(), before->terms.size());
  for (std::size_t i = 0; i < before->terms.size(); ++i) {
    EXPECT_EQ(after->terms[i].basis, before->terms[i].basis);
    EXPECT_DOUBLE_EQ(after->terms[i].coefficient,
                     before->terms[i].coefficient);
  }
  EXPECT_DOUBLE_EQ(after->cv_error, before->cv_error);
  EXPECT_EQ(after->points, before->points);
  EXPECT_EQ(after->min_bytes, before->min_bytes);
  EXPECT_EQ(after->max_bytes, before->max_bytes);
  // The entries themselves round-trip too.
  EXPECT_EQ(loaded.entry_count(), model.entry_count());
  EXPECT_EQ(loaded.total_samples(), model.total_samples());
}

TEST(MultiTerm, HeaderlessV1FilesStillLoad) {
  rt::HistoryModel model;
  model.deserialize("7 4096 2 0.5 0.0 0.4 0.6\n");
  EXPECT_EQ(model.sample_count(7), 2u);
  EXPECT_DOUBLE_EQ(model.expected(7).value(), 0.5);
}

// ---------------------------------------------------------------------------
// Located parse errors on malformed .model input
// ---------------------------------------------------------------------------

TEST(ModelParse, MalformedLineReportsLineAndColumn) {
  rt::HistoryModel model;
  try {
    model.deserialize("peppher-model v2\n1 4096 2 0.5 0.0 0.4 bogus\n");
    FAIL() << "garbage accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.column(), 1);
  }
}

TEST(ModelParse, DuplicateFootprintIsRejected) {
  rt::HistoryModel model;
  EXPECT_THROW(model.deserialize("1 4096 2 0.5 0.0 0.4 0.6\n"
                                 "1 4096 2 0.5 0.0 0.4 0.6\n"),
               ParseError);
}

TEST(ModelParse, FitLineWithoutV2HeaderIsRejected) {
  rt::HistoryModel model;
  EXPECT_THROW(model.deserialize("1 4096 2 0.5 0.0 0.4 0.6\n"
                                 "fit 0.0 4 1024 8192 1 n 1e-9\n"),
               ParseError);
}

// ---------------------------------------------------------------------------
// CostEvaluator estimate chain
// ---------------------------------------------------------------------------

TEST(CostEval, CalibratedMeanWinsAndMatchesTheSchedulerFormula) {
  rt::PerfRegistry models;
  calibrate(models, "work", rt::Arch::kCpu, 4096, 1.5e-3);
  const CostEvaluator eval(sim::MachineConfig::cpu_only(), models, 2);
  const auto exec =
      eval.exec_seconds("work", rt::Arch::kCpu, rt::footprint_of({4096}), 4096);
  EXPECT_EQ(exec.source, EstimateSource::kCalibrated);
  EXPECT_FALSE(exec.low_confidence);
  const auto online = models.estimate_exec("work", rt::Arch::kCpu,
                                           rt::footprint_of({4096}), 4096, 2);
  ASSERT_TRUE(online.has_value());
  EXPECT_DOUBLE_EQ(exec.seconds, *online);
}

TEST(CostEval, UnseenFootprintFallsBackToMultiTerm) {
  rt::PerfRegistry models;
  record_sizes(models, "work", rt::Arch::kCpu,
               {1000, 2000, 4000, 8000, 16000},
               +[](double n) { return 1e-3 + 1e-9 * n; });
  const CostEvaluator eval(sim::MachineConfig::cpu_only(), models, 2);
  const auto exec = eval.exec_seconds("work", rt::Arch::kCpu,
                                      rt::footprint_of({3000}), 3000);
  EXPECT_EQ(exec.source, EstimateSource::kMultiTerm);
  EXPECT_NEAR(exec.seconds, 1e-3 + 3e-6, 0.05 * (1e-3 + 3e-6));
  // Far beyond the observed range the estimate is flagged.
  const auto far = eval.exec_seconds("work", rt::Arch::kCpu,
                                     rt::footprint_of({640000}), 640000);
  EXPECT_TRUE(far.low_confidence);
}

TEST(CostEval, MissingModelYieldsTheNeutralGuess) {
  rt::PerfRegistry models;
  const CostEvaluator eval(sim::MachineConfig::cpu_only(), models, 2);
  const auto exec =
      eval.exec_seconds("work", rt::Arch::kCpu, rt::footprint_of({4096}), 4096);
  EXPECT_EQ(exec.source, EstimateSource::kGuess);
  EXPECT_TRUE(exec.low_confidence);
  EXPECT_DOUBLE_EQ(exec.seconds, CostEvaluator::kNeutralGuessSeconds);
}

TEST(CostEval, DecisionFetchIsTheRuntimeFetchEstimate) {
  // A loop-invariant read: predict prices the upload of a container read
  // `reads` times with that reuse, dmda prices a handle's upload with the
  // reads the handle counted. Both go through rt::Plan's fetch rule: the
  // latency plus the volume over min(reads, kReuseCap).
  const sim::MachineConfig machine = sim::MachineConfig::platform_c2050();
  const std::vector<rt::WorkerDesc> workers =
      rt::worker_table(sim::ClusterConfig::single(machine));
  rt::DataManager data(2, machine.link);
  std::vector<float> buffer(1 << 14, 0.0f);
  const std::size_t bytes = buffer.size() * sizeof(float);
  const rt::DataHandlePtr handle =
      data.register_buffer(buffer.data(), bytes, sizeof(float));
  const rt::WorkerId gpu = workers.back().id;
  ASSERT_EQ(workers.back().node, 1);
  for (int reads = 1; reads <= 100; ++reads) {
    handle->acquire(rt::kHostNode, rt::AccessMode::kRead, nullptr);
    rt::Plan plan(workers, &data.interconnect());
    rt::Plan::Task task;
    task.exec.assign(workers.size(), 1e-3);
    ASSERT_EQ(handle->reads(), static_cast<std::uint64_t>(reads));
    task.operands = {{plan.add_data(*handle), rt::AccessMode::kRead, bytes,
                      static_cast<double>(handle->reads())}};
    EXPECT_EQ(plan.price(task, gpu).fetch,
              rt::hop_seconds(machine.link, bytes, rt::reuse_divisor(reads)))
        << reads << " reads";
  }
}

TEST(CostEval, ArchFeasibilityFollowsTheMachine) {
  // The architectures a machine runs are its worker table's, the table the
  // Engine builds its workers from.
  const auto runs = [](const sim::MachineConfig& machine, rt::Arch arch) {
    const std::vector<rt::WorkerDesc> workers =
        rt::worker_table(sim::ClusterConfig::single(machine));
    return std::any_of(workers.begin(), workers.end(),
                       [arch](const rt::WorkerDesc& w) {
                         return w.archs.front() == arch;
                       });
  };
  const sim::MachineConfig c2050 = sim::MachineConfig::platform_c2050();
  EXPECT_TRUE(runs(c2050, rt::Arch::kCpu));
  EXPECT_TRUE(runs(c2050, rt::Arch::kCpuOmp));
  EXPECT_TRUE(runs(c2050, rt::Arch::kCuda));
  EXPECT_FALSE(runs(c2050, rt::Arch::kOpenCl));
  // One core still has a combined-CPU worker: the Engine runs OpenMP
  // variants there.
  const sim::MachineConfig solo = sim::MachineConfig::cpu_only(1);
  EXPECT_TRUE(runs(solo, rt::Arch::kCpu));
  EXPECT_TRUE(runs(solo, rt::Arch::kCpuOmp));
  EXPECT_FALSE(runs(solo, rt::Arch::kCuda));
}

// ---------------------------------------------------------------------------
// Differential guard: static estimates == dmda online estimates
// ---------------------------------------------------------------------------

TEST(Predict, StraightLineEstimatesMatchTheOnlineFormulaExactly) {
  // Fully-observed sizes, calibrated models, host-only machine: every
  // per-task static estimate must be the scheduler's own number, and the
  // serial makespan their exact sum.
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  calibrate(models, "init", rt::Arch::kCpu, bytes, 1.25e-3);
  // work(x, y) has two operands; calibrate its two-operand footprint.
  const std::uint64_t work_fp = rt::footprint_of({bytes, bytes});
  models.record("work", rt::Arch::kCpu, work_fp, 2 * bytes, 3.5e-3);
  models.record("work", rt::Arch::kCpu, work_fp, 2 * bytes, 3.5e-3);
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 0.75e-3);

  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only();
  options.sizes = {{"v", bytes}, {"out", bytes}};
  const desc::Repository repo = make_repo(main_with_calls(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<call interface=\"work\"><arg param=\"x\" data=\"v\"/>"
      "<arg param=\"y\" data=\"out\"/></call>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"out\"/></call>\n"));
  const PredictResult result = analyze::predict_main(repo, models, options);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.points.size(), 3u);

  const double init_online = models
                                 .estimate_exec("init", rt::Arch::kCpu,
                                                rt::footprint_of({bytes}),
                                                bytes, 2)
                                 .value();
  const double work_online =
      models.estimate_exec("work", rt::Arch::kCpu, work_fp, 2 * bytes, 2)
          .value();
  const double consume_online = models
                                    .estimate_exec("consume", rt::Arch::kCpu,
                                                   rt::footprint_of({bytes}),
                                                   bytes, 2)
                                    .value();
  EXPECT_DOUBLE_EQ(result.points[0].exec_seconds, init_online);
  EXPECT_DOUBLE_EQ(result.points[1].exec_seconds, work_online);
  EXPECT_DOUBLE_EQ(result.points[2].exec_seconds, consume_online);
  for (const analyze::PointCost& p : result.points) {
    EXPECT_EQ(p.source, EstimateSource::kCalibrated);
    EXPECT_EQ(p.chosen, rt::Arch::kCpu);
    EXPECT_EQ(p.transfer_seconds, 0.0);  // host-resident data, host exec
  }
  EXPECT_DOUBLE_EQ(result.makespan.est,
                   init_online + work_online + consume_online);
  EXPECT_LE(result.makespan.lo, result.makespan.est);
  EXPECT_GE(result.makespan.hi, result.makespan.est);
  EXPECT_TRUE(result.bag.empty()) << result.bag.format_text();
}

TEST(Predict, LoopIterationsExtrapolateLinearly) {
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 2e-3);
  calibrate(models, "init", rt::Arch::kCpu, bytes, 1e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only();
  options.sizes = {{"v", bytes}};
  const desc::Repository repo = make_repo(main_with_calls(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<loop count=\"10\">\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n"));
  const PredictResult result = analyze::predict_main(repo, models, options);
  ASSERT_TRUE(result.completed);
  // 1 init + 10 loop iterations, each a calibrated 2 ms consume. The ten
  // independent readers spread over the four cores in three rounds, as the
  // Engine runs them: 1 ms + 3 x 2 ms.
  EXPECT_EQ(result.task_executions, 11u);
  EXPECT_NEAR(result.makespan.est, 1e-3 + 3 * 2e-3, 1e-12);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[1].executions, 10u);
  EXPECT_NEAR(result.points[1].exec_seconds, 10 * 2e-3, 1e-12);
}

TEST(Predict, LongLoopsSkipWholeRotationsOfTheWorkers) {
  // The loop above, run long: after one rotation over the four cores the
  // state repeats two ms later, and only whole rotations are skipped.
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 2e-3);
  calibrate(models, "init", rt::Arch::kCpu, bytes, 1e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only(4);
  options.sizes = {{"v", bytes}};
  for (const auto& [count, makespan] :
       {std::pair{1000, 0.501}, std::pair{1000000, 500.001}}) {
    const desc::Repository repo = make_repo(main_with_calls(
        "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
        "<loop count=\"" +
        std::to_string(count) +
        "\">\n"
        "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
        "</loop>\n"));
    const PredictResult result = analyze::predict_main(repo, models, options);
    ASSERT_TRUE(result.completed) << count;
    EXPECT_EQ(count_code(result.bag, "PL077"), 0) << count;
    EXPECT_NEAR(result.makespan.est, makespan, 1e-9 * makespan) << count;
    EXPECT_EQ(result.task_executions, static_cast<std::uint64_t>(count) + 1);
  }
}

TEST(Predict, LoopsWithoutAnExactRepeatSkipTheirNearestRepeat) {
  // Four cores at 2 ms and a GPU at 0.7123 ms: the workers' times share no
  // short period, so the state never repeats within the search. The loop
  // skips copies of its nearest repeat instead, and a million iterations
  // complete at the workers' joint rate.
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  calibrate(models, "init", rt::Arch::kCpu, bytes, 1e-3);
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 2e-3);
  calibrate(models, "consume", rt::Arch::kCuda, bytes, 0.7123e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.machine.cpu_cores = 4;
  options.sizes = {{"v", bytes}};
  const long long count = 1000000;
  const desc::Repository repo = make_repo(
      main_with_calls(
          "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
          "<loop count=\"" +
          std::to_string(count) +
          "\">\n"
          "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
          "</loop>\n"),
      {{"init", {"cpu"}}, {"consume", {"cpu", "cuda"}}});
  const PredictResult result = analyze::predict_main(repo, models, options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(count_code(result.bag, "PL077"), 0);
  EXPECT_EQ(result.task_executions, static_cast<std::uint64_t>(count) + 1);
  const double rate = 4.0 / 2e-3 + 1.0 / 0.7123e-3;  // tasks per second
  EXPECT_NEAR(result.makespan.est, static_cast<double>(count) / rate,
              1e-3 * static_cast<double>(count) / rate);
}

// ---------------------------------------------------------------------------
// PL070..PL077: one positive and one negative case each
// ---------------------------------------------------------------------------

PredictResult predict(const std::string& calls,
                      const std::vector<std::pair<std::string,
                                                  std::vector<std::string>>>&
                          langs,
                      PredictOptions options = {},
                      rt::PerfRegistry* models = nullptr) {
  rt::PerfRegistry empty;
  const desc::Repository repo = make_repo(main_with_calls(calls), langs);
  return analyze::predict_main(repo, models != nullptr ? *models : empty,
                               options);
}

TEST(PredictDiag, PL070DeadVariantUnderTheAnalysedMachine) {
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();  // no OpenCL
  const PredictResult result = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu", "opencl"}}}, options);
  EXPECT_EQ(count_code(result.bag, "PL070"), 1) << result.bag.format_text();

  PredictOptions opencl;
  opencl.machine = sim::MachineConfig::platform_opencl();
  const PredictResult clean = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu", "opencl"}}}, opencl);
  EXPECT_EQ(count_code(clean.bag, "PL070"), 0) << clean.bag.format_text();

  // One core still gets the Engine's combined-CPU worker: an OpenMP
  // variant runs there, so it is not dead.
  PredictOptions solo;
  solo.machine = sim::MachineConfig::cpu_only(1);
  const PredictResult single = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu", "openmp"}}}, solo);
  EXPECT_EQ(count_code(single.bag, "PL070"), 0) << single.bag.format_text();
}

TEST(PredictDiag, PL071MissingModelForASelectableVariant) {
  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only();
  const PredictResult result = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu"}}}, options);
  EXPECT_EQ(count_code(result.bag, "PL071"), 1) << result.bag.format_text();

  rt::PerfRegistry models;
  options.sizes = {{"v", 4096}};
  calibrate(models, "consume", rt::Arch::kCpu, 4096, 1e-3);
  const PredictResult clean = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu"}}}, options, &models);
  EXPECT_EQ(count_code(clean.bag, "PL071"), 0) << clean.bag.format_text();
}

TEST(PredictDiag, PL072LowConfidenceEstimate) {
  rt::PerfRegistry models;
  record_sizes(models, "consume", rt::Arch::kCpu,
               {1000, 2000, 4000, 8000, 16000},
               +[](double n) { return 1e-9 * n; });
  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only();
  // 100x beyond the observed range: multi-term, but extrapolating.
  options.sizes = {{"v", 1600000}};
  const PredictResult result = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu"}}}, options, &models);
  EXPECT_EQ(count_code(result.bag, "PL072"), 1) << result.bag.format_text();

  options.sizes = {{"v", 3000}};  // interpolation: confident
  const PredictResult clean = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu"}}}, options, &models);
  EXPECT_EQ(count_code(clean.bag, "PL072"), 0) << clean.bag.format_text();
}

TEST(PredictDiag, PL073StaticallyTransferBoundLoop) {
  // Producer pinned to the device, consumer pinned to the host: every
  // steady-state iteration bounces the container across the link.
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", 256u << 20}};  // 256 MiB: link time >> 1 ms guesses
  const PredictResult result = predict(
      "<loop count=\"8\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n",
      {{"init", {"cuda"}}, {"consume", {"cpu"}}}, options);
  ASSERT_EQ(count_code(result.bag, "PL073"), 1) << result.bag.format_text();
  // The message carries the predicted per-iteration byte counts.
  for (const diag::Diagnostic& d : result.bag.diagnostics()) {
    if (d.code == "PL073") {
      EXPECT_NE(d.message.find("bytes H2D"), std::string::npos) << d.message;
      EXPECT_NE(d.message.find("bytes D2H"), std::string::npos) << d.message;
    }
  }

  // Same loop with both calls on the host: no forced steady transfers.
  const PredictResult clean = predict(
      "<loop count=\"8\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n",
      {{"init", {"cpu"}}, {"consume", {"cpu"}}}, options);
  EXPECT_EQ(count_code(clean.bag, "PL073"), 0) << clean.bag.format_text();
}

TEST(PredictDiag, PL074PredictedDeviceCapacityOverflow) {
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();  // 3 GiB C2050
  options.sizes = {{"v", std::size_t{4} << 30}};           // 4 GiB container
  const PredictResult result = predict(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n",
      {{"init", {"cuda"}}}, options);
  EXPECT_EQ(count_code(result.bag, "PL074"), 1) << result.bag.format_text();

  options.sizes = {{"v", 1u << 20}};
  const PredictResult clean = predict(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n",
      {{"init", {"cuda"}}}, options);
  EXPECT_EQ(count_code(clean.bag, "PL074"), 0) << clean.bag.format_text();
}

TEST(PredictDiag, PL075AcceleratorVariantPredictedUnprofitable) {
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  // Device "speedup" is negative at this size: 10 ms on CUDA vs 1 ms on the
  // host, plus the forced H2D transfer.
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 1e-3);
  calibrate(models, "consume", rt::Arch::kCuda, bytes, 10e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", bytes}};
  const PredictResult result = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu", "cuda"}}}, options, &models);
  EXPECT_EQ(count_code(result.bag, "PL075"), 1) << result.bag.format_text();

  // Flip the times: the accelerator wins, no note.
  rt::PerfRegistry fast;
  calibrate(fast, "consume", rt::Arch::kCpu, bytes, 10e-3);
  calibrate(fast, "consume", rt::Arch::kCuda, bytes, 1e-3);
  const PredictResult clean = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu", "cuda"}}}, options, &fast);
  EXPECT_EQ(count_code(clean.bag, "PL075"), 0) << clean.bag.format_text();
}

TEST(PredictDiag, PL076WhatIfTargetUnreachable) {
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  calibrate(models, "init", rt::Arch::kCuda, bytes, 1e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", bytes}};
  const desc::Repository repo = make_repo(
      main_with_calls(
          "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"),
      {{"init", {"cuda"}}});
  // 1 task in ~1 ms: a million tasks/s is unreachable with any device count.
  const WhatIfResult unreachable =
      analyze::whatif(repo, models, options, 1e6, 8);
  EXPECT_EQ(unreachable.min_devices, -1);
  EXPECT_EQ(count_code(unreachable.bag, "PL076"), 1)
      << unreachable.bag.format_text();
  EXPECT_EQ(unreachable.makespans.size(), 8u);

  const WhatIfResult fine = analyze::whatif(repo, models, options, 10.0, 8);
  EXPECT_EQ(fine.min_devices, 1);
  EXPECT_EQ(count_code(fine.bag, "PL076"), 0) << fine.bag.format_text();
  EXPECT_GE(fine.achieved_tasks_per_second, 10.0);
}

TEST(PredictDiag, PL077PredictionBudgetExhausted) {
  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only();
  options.max_steps = 2;
  const PredictResult result = predict(
      "<loop count=\"4\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n",
      {{"init", {"cpu"}}, {"consume", {"cpu"}}}, options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(count_code(result.bag, "PL077"), 1) << result.bag.format_text();

  options.max_steps = 0;  // default budget
  const PredictResult clean = predict(
      "<loop count=\"4\">\n"
      "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "</loop>\n",
      {{"init", {"cpu"}}, {"consume", {"cpu"}}}, options);
  EXPECT_TRUE(clean.completed);
  EXPECT_EQ(count_code(clean.bag, "PL077"), 0) << clean.bag.format_text();
}

// ---------------------------------------------------------------------------
// Control flow and explicit prefetches
// ---------------------------------------------------------------------------

TEST(Predict, IfTakesTheSlowerBranchAndHullsTheBounds) {
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  calibrate(models, "init", rt::Arch::kCpu, bytes, 1e-3);
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 2e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only();
  options.sizes = {{"v", bytes}};
  const PredictResult result = predict(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<if>\n"
      "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
      "  <else>\n"
      "    <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "  </else>\n"
      "</if>\n",
      {{"init", {"cpu"}}, {"consume", {"cpu"}}}, options, &models);
  ASSERT_TRUE(result.completed);
  // The trajectory runs the 2 ms branch; the interval hulls both branches.
  EXPECT_NEAR(result.makespan.est, 3e-3, 1e-12);
  EXPECT_NEAR(result.makespan.lo, 2e-3, 1e-12);
  EXPECT_NEAR(result.makespan.hi, 3e-3, 1e-12);
  EXPECT_EQ(result.task_executions, 2u);
  ASSERT_EQ(result.points.size(), 2u);  // the else branch never ran
  EXPECT_EQ(result.points[1].interface_name, "consume");
}

TEST(Predict, PrefetchTheCoherenceStateProvesRedundantCostsNothing) {
  rt::PerfRegistry models;
  const std::size_t bytes = 1u << 20;
  calibrate(models, "init", rt::Arch::kCpu, bytes, 1e-3);
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 2e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", bytes}};
  const PredictResult result = predict(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<prefetch data=\"v\" on=\"host\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"init", {"cpu"}}, {"consume", {"cpu"}}}, options, &models);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.transfer_time_seconds, 0.0);
  EXPECT_EQ(result.h2d_bytes + result.d2h_bytes, 0.0);
  EXPECT_NEAR(result.makespan.est, 3e-3, 1e-12);
}

TEST(Predict, ColdPrefetchChargesOneHop) {
  rt::PerfRegistry models;
  const std::size_t bytes = 1u << 20;
  calibrate(models, "init", rt::Arch::kCpu, bytes, 1e-3);
  calibrate(models, "consume", rt::Arch::kCuda, bytes, 2e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", bytes}};
  const PredictResult result = predict(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
      "<prefetch data=\"v\" on=\"device\"/>\n"
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"init", {"cpu"}}, {"consume", {"cuda"}}}, options, &models);
  ASSERT_TRUE(result.completed);
  const double hop = sim::transfer_seconds(options.machine.link, bytes);
  // One upload, paid by the prefetch; the device consumer finds v resident.
  EXPECT_DOUBLE_EQ(result.transfer_time_seconds, hop);
  EXPECT_EQ(result.h2d_bytes, static_cast<double>(bytes));
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[1].transfer_seconds, 0.0);
  EXPECT_NEAR(result.makespan.est, 1e-3 + hop + 2e-3, 1e-12);
}

// ---------------------------------------------------------------------------
// Placement, what-if scaling and reports
// ---------------------------------------------------------------------------

TEST(Predict, GreedyPlacementPrefersTheFasterSide) {
  rt::PerfRegistry models;
  const std::size_t bytes = 1u << 20;
  calibrate(models, "init", rt::Arch::kCpu, bytes, 50e-3);
  calibrate(models, "init", rt::Arch::kCuda, bytes, 1e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", bytes}};
  const PredictResult result = predict(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n",
      {{"init", {"cpu", "cuda"}}}, options, &models);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].chosen, rt::Arch::kCuda);
  EXPECT_GT(result.device_exec_seconds, 0.0);
  EXPECT_EQ(result.host_exec_seconds, 0.0);
}

TEST(Predict, ReadWriteOperandPaysItsFetchOnceLikeTheRuntime) {
  // v is host-resident and read by 64 later consume calls, but bump's
  // readwrite operand is not a read the runtime amortises: rt::Plan prices
  // any written operand with reuse 1. The accelerator is faster by less
  // than the full upload and by more than its 64-fold amortised share, so
  // the host must win.
  const sim::MachineConfig machine = sim::MachineConfig::platform_c2050();
  const std::size_t bytes = 1u << 20;
  rt::PerfRegistry models;
  const double full = rt::hop_seconds(machine.link, bytes, 1.0);
  const double amortised =
      rt::hop_seconds(machine.link, bytes, rt::reuse_divisor(64));
  ASSERT_LT(amortised, full);
  calibrate(models, "bump", rt::Arch::kCuda, bytes, 1e-3);
  calibrate(models, "bump", rt::Arch::kCpu, bytes, 1e-3 + (full + amortised) / 2);
  calibrate(models, "consume", rt::Arch::kCpu, bytes, 1e-4);

  // The runtime side of the contract: the plan does not discount a
  // readwrite, whatever reads its handle counted.
  const std::vector<rt::WorkerDesc> workers =
      rt::worker_table(sim::ClusterConfig::single(machine));
  rt::DataManager data(2, machine.link);
  std::vector<float> buffer(bytes / sizeof(float), 0.0f);
  const rt::DataHandlePtr handle =
      data.register_buffer(buffer.data(), bytes, sizeof(float));
  for (int i = 0; i < 64; ++i) {
    handle->acquire(rt::kHostNode, rt::AccessMode::kRead, nullptr);
  }
  rt::Plan plan(workers, &data.interconnect());
  rt::Plan::Task task;
  task.exec.assign(workers.size(), 1e-3);
  task.operands = {{plan.add_data(*handle), rt::AccessMode::kReadWrite, bytes,
                    static_cast<double>(handle->reads())}};
  EXPECT_EQ(plan.price(task, workers.back().id).fetch, full);

  desc::Repository repo = make_repo(
      main_with_calls(
          "<call interface=\"bump\"><arg param=\"y\" data=\"v\"/></call>\n"
          "<loop count=\"64\">\n"
          "  <call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n"
          "</loop>\n"),
      {{"consume", {"cpu"}}});
  repo.load_text(
      "<peppher-interface name=\"bump\">\n"
      "  <function returnType=\"void\">\n"
      "    <param name=\"n\" type=\"int\" accessMode=\"read\"/>\n"
      "    <param name=\"y\" type=\"float*\" accessMode=\"readwrite\" size=\"n\"/>\n"
      "  </function>\n"
      "</peppher-interface>\n");
  repo.load_text(impl_xml("bump_cpu", "bump", "cpu"));
  repo.load_text(impl_xml("bump_cuda", "bump", "cuda"));
  PredictOptions options;
  options.machine = machine;
  options.sizes = {{"v", bytes}};
  const PredictResult result = analyze::predict_main(repo, models, options);
  ASSERT_FALSE(result.points.empty());
  EXPECT_EQ(result.points[0].interface_name, "bump");
  EXPECT_EQ(result.points[0].chosen, rt::Arch::kCpu);
}

TEST(Predict, WhatIfMakespansDecreaseMonotonically) {
  rt::PerfRegistry models;
  const std::size_t bytes = 4096;
  calibrate(models, "init", rt::Arch::kCuda, bytes, 5e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", bytes}};
  const desc::Repository repo = make_repo(
      main_with_calls(
          "<loop count=\"6\">\n"
          "  <call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n"
          "</loop>\n"),
      {{"init", {"cuda"}}});
  const WhatIfResult result = analyze::whatif(repo, models, options, 1e9, 4);
  ASSERT_EQ(result.makespans.size(), 4u);
  for (std::size_t i = 1; i < result.makespans.size(); ++i) {
    EXPECT_LE(result.makespans[i], result.makespans[i - 1]);
  }
}

TEST(Predict, ReportsContainTheSchemaAndThePoints) {
  rt::PerfRegistry models;
  calibrate(models, "consume", rt::Arch::kCpu, 4096, 1e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::cpu_only();
  options.sizes = {{"v", 4096}};
  const PredictResult result = predict(
      "<call interface=\"consume\"><arg param=\"x\" data=\"v\"/></call>\n",
      {{"consume", {"cpu"}}}, options, &models);
  const std::string text = result.report_text();
  EXPECT_NE(text.find("predicted makespan"), std::string::npos);
  EXPECT_NE(text.find("consume"), std::string::npos);
  const std::string json = result.report_json();
  EXPECT_NE(json.find("\"schema\":\"peppher-predict-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"interface\":\"consume\""), std::string::npos);
}

TEST(Predict, EmptyMainPredictsZeroCost) {
  desc::Repository repo;
  rt::PerfRegistry models;
  const PredictResult result =
      analyze::predict_main(repo, models, PredictOptions{});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.makespan.est, 0.0);
  EXPECT_TRUE(result.points.empty());
}

TEST(Predict, DisabledImplsNarrowTheVariantSet) {
  rt::PerfRegistry models;
  const std::size_t bytes = 1u << 20;
  calibrate(models, "init", rt::Arch::kCpu, bytes, 50e-3);
  calibrate(models, "init", rt::Arch::kCuda, bytes, 1e-3);
  PredictOptions options;
  options.machine = sim::MachineConfig::platform_c2050();
  options.sizes = {{"v", bytes}};
  options.lint.disable_impls = {"cuda"};
  const PredictResult result = predict(
      "<call interface=\"init\"><arg param=\"y\" data=\"v\"/></call>\n",
      {{"init", {"cpu", "cuda"}}}, options, &models);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].chosen, rt::Arch::kCpu);
}

}  // namespace
}  // namespace peppher
