// Direct unit tests of the scheduler policies against a mock environment
// (the engine-level behaviour is covered in test_engine.cpp; these pin down
// each policy's decision rule in isolation).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

/// Mock world: 3 workers — two CPU cores and one GPU. Task eligibility and
/// per-worker estimates are table-driven; with SchedEnv::cost unset a
/// commit takes the estimate. Every policy's worker clocks are its plan's
/// commits, so a test builds them with earlier pushes (or pops, for eager).
class SchedulerUnit : public ::testing::Test {
 protected:
  SchedulerUnit() {
    for (int i = 0; i < 3; ++i) {
      WorkerDesc desc;
      desc.id = i;
      desc.archs = {i < 2 ? Arch::kCpu : Arch::kCuda};
      desc.node = i < 2 ? kHostNode : 1;
      desc.profile = i < 2 ? sim::DeviceProfile::xeon_e5520_core()
                           : sim::DeviceProfile::tesla_c2050();
      workers_.push_back(desc);
    }
    codelet_.add_impl({Arch::kCpu, "u_cpu", [](ExecContext&) {}, nullptr});
    codelet_.add_impl({Arch::kCuda, "u_cuda", [](ExecContext&) {}, nullptr});

    env_.workers = &workers_;
    env_.calibration_min = 2;
    env_.eligible = [this](const Task&, WorkerId id) {
      if (pinned_ >= 0) return id == pinned_;
      return !(cpu_only_task_ && id == 2);
    };
    env_.exec = [this](const Task& task, WorkerId id) {
      return env_.eligible(task, id) ? work_[static_cast<std::size_t>(id)]
                                     : std::numeric_limits<double>::infinity();
    };
    env_.sample_count = [this](const Task& task, WorkerId id) {
      return env_.eligible(task, id)
                 ? samples_[static_cast<std::size_t>(id)]
                 : std::numeric_limits<std::uint64_t>::max();
    };
  }

  /// Commits `ready[w]` seconds on each worker w of a fresh `policy`: one
  /// task only that worker may run, popped again before the test's pushes.
  std::unique_ptr<Scheduler> with_clocks(const std::string& policy,
                                         const std::vector<double>& ready) {
    auto scheduler = make_scheduler(policy, env_);
    const std::vector<double> work = work_;
    for (int w = 0; w < 3; ++w) {
      if (ready[static_cast<std::size_t>(w)] == 0.0) continue;
      pinned_ = w;
      work_.assign(3, ready[static_cast<std::size_t>(w)]);
      const TaskPtr task = make_task();
      scheduler->push(task);
      EXPECT_EQ(scheduler->pop(w), task);
    }
    pinned_ = -1;
    work_ = work;
    return scheduler;
  }

  TaskPtr make_task(int priority = 0) {
    TaskSpec spec;
    spec.codelet = &codelet_;
    spec.priority = priority;
    return std::make_shared<Task>(std::move(spec), next_seq_++);
  }

  std::vector<WorkerDesc> workers_;
  Codelet codelet_{"unit"};
  SchedEnv env_;
  std::vector<double> work_{1.0, 1.0, 1.0};
  std::vector<std::uint64_t> samples_{100, 100, 100};  // calibrated
  bool cpu_only_task_ = false;
  WorkerId pinned_ = -1;  ///< the one eligible worker, when >= 0
  std::uint64_t next_seq_ = 0;
};

TEST_F(SchedulerUnit, FactoryKnowsAllPolicies) {
  EXPECT_EQ(scheduler_names(),
            (std::vector<std::string>{"eager", "dmda", "lookahead"}));
  for (const std::string& name : scheduler_names()) {
    auto scheduler = make_scheduler(name, env_);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->pop(0), nullptr);  // starts empty
  }
  try {
    make_scheduler("nope", env_);
    FAIL() << "an unknown policy must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("eager, dmda, lookahead"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SchedulerUnit, EagerIsFifoAcrossWorkers) {
  auto scheduler = make_scheduler("eager", env_);
  auto t1 = make_task();
  auto t2 = make_task();
  scheduler->push(t1);
  scheduler->push(t2);
  EXPECT_EQ(scheduler->pop(2), t1);  // any worker takes the oldest
  EXPECT_EQ(scheduler->pop(0), t2);
  EXPECT_EQ(scheduler->pop(1), nullptr);
  // A pop commits the task on the popping worker.
  EXPECT_EQ(t1->vend, 1.0);
  EXPECT_EQ(scheduler->makespan(), 1.0);
}

TEST_F(SchedulerUnit, EagerPrefersHigherPriority) {
  auto scheduler = make_scheduler("eager", env_);
  auto low = make_task(0);
  auto high = make_task(5);
  scheduler->push(low);
  scheduler->push(high);
  EXPECT_EQ(scheduler->pop(0), high);
  EXPECT_EQ(scheduler->pop(0), low);
}

TEST_F(SchedulerUnit, EagerSkipsIneligibleWorker) {
  auto scheduler = make_scheduler("eager", env_);
  cpu_only_task_ = true;
  auto task = make_task();
  scheduler->push(task);
  EXPECT_EQ(scheduler->pop(2), nullptr);  // GPU cannot take it
  EXPECT_EQ(scheduler->pop(1), task);
}

TEST_F(SchedulerUnit, DmdaPicksMinimalCompletion) {
  auto scheduler = with_clocks("dmda", {10.0, 5.0, 20.0});
  work_ = {1.0, 1.0, 1.0};
  auto task = make_task();
  scheduler->push(task);
  EXPECT_EQ(scheduler->pop(1), task);  // worker 1: completion 6.0
  EXPECT_EQ(task->vstart, 5.0);        // committed there at push
  EXPECT_EQ(task->vend, 6.0);
  EXPECT_EQ(scheduler->pop(0), nullptr);
  EXPECT_EQ(scheduler->pop(2), nullptr);
}

TEST_F(SchedulerUnit, DmdaCountsQueuedWorkNotYetStarted) {
  auto scheduler = with_clocks("dmda", {0.0, 100.0, 100.0});
  work_ = {10.0, 10.0, 10.0};
  // Twelve tasks pushed before any pops: each is committed on its worker's
  // clock when it is placed, so they cannot all pile up on worker 0. It
  // takes eleven (completions 10 .. 110, the last a tie with worker 1's
  // 110), and the queued tasks carry their committed times.
  for (int i = 0; i < 12; ++i) scheduler->push(make_task());
  int on_worker0 = 0;
  while (const TaskPtr task = scheduler->pop(0)) {
    EXPECT_EQ(task->vstart, 10.0 * on_worker0);
    EXPECT_EQ(task->vend, 10.0 * (on_worker0 + 1));
    ++on_worker0;
  }
  EXPECT_EQ(on_worker0, 11);
  EXPECT_EQ(scheduler->makespan(), 110.0);
}

TEST_F(SchedulerUnit, DmdaExploresUncalibratedVariantsFirst) {
  auto scheduler = with_clocks("dmda", {0.0, 0.0, 1000.0});  // GPU far off
  samples_ = {100, 100, 0};  // and its variant never sampled
  auto task = make_task();
  scheduler->push(task);
  EXPECT_EQ(scheduler->pop(2), task);  // exploration overrides estimates
}

TEST_F(SchedulerUnit, DmdaStopsExploringAtCalibrationMin) {
  auto scheduler = with_clocks("dmda", {1.0, 3.0, 2.0});
  samples_ = {2, 2, 2};  // exactly calibration_min
  auto task = make_task();
  scheduler->push(task);
  EXPECT_EQ(scheduler->pop(0), task);  // min completion, no exploration
}

}  // namespace
}  // namespace peppher::rt
