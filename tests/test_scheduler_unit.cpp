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
/// commits, so a test builds them with earlier submissions.
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
  /// task only that worker may run, submitted before the test's tasks.
  std::unique_ptr<Scheduler> with_clocks(const std::string& policy,
                                         const std::vector<double>& ready) {
    auto scheduler = make_scheduler(policy, env_);
    const std::vector<double> work = work_;
    for (int w = 0; w < 3; ++w) {
      if (ready[static_cast<std::size_t>(w)] == 0.0) continue;
      pinned_ = w;
      work_.assign(3, ready[static_cast<std::size_t>(w)]);
      EXPECT_EQ(submit(*scheduler, make_task()), w);
    }
    pinned_ = -1;
    work_ = work;
    return scheduler;
  }

  TaskPtr make_task() {
    TaskSpec spec;
    spec.codelet = &codelet_;
    return std::make_shared<Task>(std::move(spec), next_seq_++);
  }

  /// Submits `task` and returns the worker it was committed to (-1 when it
  /// was staged or committed nowhere).
  WorkerId submit(Scheduler& scheduler, const TaskPtr& task) {
    std::vector<TaskPtr> committed;
    scheduler.submit(task, committed);
    return committed.empty() ? -1 : task->executed_on;
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
    EXPECT_EQ(scheduler->makespan(), 0.0);  // starts on empty clocks
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

TEST_F(SchedulerUnit, EagerTakesTheEarliestCommittedStart) {
  // The GPU would end the task first, but eager reads no model: the task
  // goes to the worker that can start it first, and is committed there at
  // submit for its cost.
  auto scheduler = with_clocks("eager", {10.0, 5.0, 20.0});
  work_ = {1.0, 1.0, 0.1};
  const TaskPtr task = make_task();
  EXPECT_EQ(submit(*scheduler, task), 1);
  EXPECT_EQ(task->vstart, 5.0);
  EXPECT_EQ(task->vend, 6.0);
  EXPECT_EQ(scheduler->makespan(), 20.0);
}

TEST_F(SchedulerUnit, EagerBreaksTiesOnTheStartTowardTheLowestId) {
  // Two independent tasks spread over the idle cores; a task whose
  // predecessor ends at 1 s can start at 1 s anywhere, so it stays on the
  // lowest id (a worker's earlier clock is no reason to move it).
  auto scheduler = make_scheduler("eager", env_);
  EXPECT_EQ(submit(*scheduler, make_task()), 0);
  EXPECT_EQ(submit(*scheduler, make_task()), 1);
  const TaskPtr successor = make_task();
  successor->max_pred_end = 1.0;
  EXPECT_EQ(submit(*scheduler, successor), 0);
  EXPECT_EQ(successor->vstart, 1.0);
}

TEST_F(SchedulerUnit, EagerSkipsIneligibleWorker) {
  auto scheduler = with_clocks("eager", {5.0, 6.0, 0.0});
  cpu_only_task_ = true;
  EXPECT_EQ(submit(*scheduler, make_task()), 0);  // the idle GPU cannot
}

TEST_F(SchedulerUnit, DmdaPicksMinimalCompletion) {
  auto scheduler = with_clocks("dmda", {10.0, 5.0, 20.0});
  work_ = {1.0, 1.0, 1.0};
  const TaskPtr task = make_task();
  EXPECT_EQ(submit(*scheduler, task), 1);  // worker 1: completion 6.0
  EXPECT_EQ(task->vstart, 5.0);            // committed there at submit
  EXPECT_EQ(task->vend, 6.0);
}

TEST_F(SchedulerUnit, DmdaCountsQueuedWorkNotYetStarted) {
  auto scheduler = with_clocks("dmda", {0.0, 100.0, 100.0});
  work_ = {10.0, 10.0, 10.0};
  // Twelve tasks submitted before any runs: each is committed on its
  // worker's clock when it is placed, so they cannot all pile up on worker
  // 0. It takes eleven (completions 10 .. 110, the last a tie with worker
  // 1's 110), and the tasks carry their committed times.
  int on_worker0 = 0;
  for (int i = 0; i < 12; ++i) {
    const TaskPtr task = make_task();
    if (submit(*scheduler, task) != 0) continue;
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
  EXPECT_EQ(submit(*scheduler, make_task()), 2);  // exploration wins
}

TEST_F(SchedulerUnit, DmdaStopsExploringAtCalibrationMin) {
  auto scheduler = with_clocks("dmda", {1.0, 3.0, 2.0});
  samples_ = {2, 2, 2};  // exactly calibration_min
  EXPECT_EQ(submit(*scheduler, make_task()), 0);  // min completion
}

TEST_F(SchedulerUnit, AFailedAttemptsRetryCommitsRightAfterIt) {
  // The settle hook fails the GPU attempt and excludes the GPU: every
  // policy commits the retry in the same call, on a core.
  work_ = {4.0, 4.0, 2.0};
  env_.settle = [this](const TaskPtr& task, bool hop_failed) {
    EXPECT_FALSE(hop_failed);
    if (task->executed_on != 2) return false;
    cpu_only_task_ = true;
    ++task->attempts;
    return true;
  };
  for (const std::string& policy : scheduler_names()) {
    cpu_only_task_ = false;
    auto scheduler = make_scheduler(policy, env_);
    if (policy == "eager") {
      // eager reads no model: two tasks first take the idle cores.
      EXPECT_EQ(submit(*scheduler, make_task()), 0);
      EXPECT_EQ(submit(*scheduler, make_task()), 1);
    }
    const TaskPtr task = make_task();
    std::vector<TaskPtr> committed;
    scheduler->submit(task, committed);
    scheduler->flush(committed);
    ASSERT_EQ(committed.back(), task) << policy;
    EXPECT_EQ(task->attempts, 1) << policy;
    EXPECT_EQ(task->executed_on, 0) << policy;
    EXPECT_EQ(task->vend, task->vstart + 4.0) << policy;
  }
}

TEST_F(SchedulerUnit, LookaheadCommitsAWindowOfSubmissionsWhenItFills) {
  env_.window_size = 3;
  auto scheduler = make_scheduler("lookahead", env_);
  std::vector<TaskPtr> tasks;
  std::vector<TaskPtr> committed;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back(make_task());
    scheduler->submit(tasks.back(), committed);
  }
  EXPECT_TRUE(committed.empty());  // staged
  tasks.push_back(make_task());
  scheduler->submit(tasks.back(), committed);
  EXPECT_EQ(committed, tasks);  // the full window, in submission order

  // A flush commits a partial window.
  committed.clear();
  const TaskPtr last = make_task();
  scheduler->submit(last, committed);
  EXPECT_TRUE(committed.empty());
  scheduler->flush(committed);
  EXPECT_EQ(committed, std::vector<TaskPtr>{last});
}

}  // namespace
}  // namespace peppher::rt
