#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "workload/synthetic.hpp"
#include "workload/task.hpp"
#include "workload/urgency.hpp"

namespace iscope {
namespace {

Task make_task(double runtime = 100.0, double gamma = 1.0) {
  Task t;
  t.id = 1;
  t.submit_s = 10.0;
  t.cpus = 4;
  t.runtime_s = runtime;
  t.gamma = gamma;
  t.deadline_s = t.submit_s + 12.0 * runtime;
  return t;
}

// --------------------------------------------------------------- Eq-3

TEST(TaskEq3, FullyCpuBoundIsInverse) {
  const Task t = make_task(100.0, 1.0);
  // gamma = 1: halving frequency doubles execution time.
  EXPECT_DOUBLE_EQ(t.exec_time_s(1.0, 2.0), 200.0);
  EXPECT_DOUBLE_EQ(t.exec_time_s(2.0, 2.0), 100.0);
}

TEST(TaskEq3, NonCpuBoundUnaffected) {
  const Task t = make_task(100.0, 0.0);
  // gamma = 0: frequency does not matter.
  EXPECT_DOUBLE_EQ(t.exec_time_s(0.75, 2.0), 100.0);
}

TEST(TaskEq3, IntermediateGamma) {
  const Task t = make_task(100.0, 0.5);
  // T(f) = 100 * (0.5*(2/1 - 1) + 1) = 150.
  EXPECT_DOUBLE_EQ(t.exec_time_s(1.0, 2.0), 150.0);
}

TEST(TaskEq3, SlowdownMonotoneInFrequencyDrop) {
  const Task t = make_task(100.0, 0.7);
  double prev = 0.0;
  for (double f = 2.0; f >= 0.75; f -= 0.25) {
    const double s = t.slowdown(f, 2.0);
    EXPECT_GE(s, prev >= 1.0 ? 1.0 : 0.0);
    EXPECT_GE(s, 1.0 - 1e-12);
    if (prev > 0.0) {
      EXPECT_GE(s, prev);
    }
    prev = s;
  }
}

TEST(TaskEq3, LatestStart) {
  const Task t = make_task(100.0, 1.0);  // deadline = 10 + 1200
  EXPECT_DOUBLE_EQ(t.latest_start_s(2.0, 2.0), 1210.0 - 100.0);
  EXPECT_DOUBLE_EQ(t.latest_start_s(1.0, 2.0), 1210.0 - 200.0);
}

TEST(TaskEq3, Validation) {
  const Task t = make_task();
  EXPECT_THROW(t.slowdown(0.0, 2.0), InvalidArgument);
  EXPECT_THROW(t.slowdown(3.0, 2.0), InvalidArgument);  // above fmax
}

// ----------------------------------------------------------- task utils

TEST(TaskUtils, ValidateCatchesBadTasks) {
  std::vector<Task> ok = {make_task()};
  EXPECT_NO_THROW(validate_tasks(ok));
  auto bad = ok;
  bad[0].runtime_s = 0.0;
  EXPECT_THROW(validate_tasks(bad), InvalidArgument);
  bad = ok;
  bad[0].cpus = 0;
  EXPECT_THROW(validate_tasks(bad), InvalidArgument);
  bad = ok;
  bad[0].deadline_s = bad[0].submit_s;
  EXPECT_THROW(validate_tasks(bad), InvalidArgument);
  bad = ok;
  bad[0].gamma = 1.5;
  EXPECT_THROW(validate_tasks(bad), InvalidArgument);
  // Non-finite times: an infinite deadline or runtime would put the
  // task's wakeup or its completion at +inf, which no run reaches.
  const double inf = std::numeric_limits<double>::infinity();
  for (double Task::*field :
       {&Task::submit_s, &Task::runtime_s, &Task::deadline_s}) {
    for (const double v : {inf, -inf, std::nan("")}) {
      bad = ok;
      bad[0].*field = v;
      EXPECT_THROW(validate_tasks(bad), InvalidArgument) << v;
    }
  }
}

TEST(TaskUtils, CheckFailureNamesTheSourceFromSrc) {
  // A failed check names its source file from src/ on, never the build's
  // own directory: the daemon sends these messages to its clients.
  Task t = make_task();
  t.gamma = std::nan("");
  try {
    validate_task(t, 8);
    FAIL() << "a NaN gamma passed validate_task";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("src/workload/task.cpp:");
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_EQ(what.rfind('/', at), std::string::npos) << what;
  }
  EXPECT_EQ(detail::source_path("/build/tree/src/sched/policy.cpp"),
            "src/sched/policy.cpp");
  EXPECT_EQ(detail::source_path("src/sim/simulator.cpp"),
            "src/sim/simulator.cpp");
  EXPECT_EQ(detail::source_path("/elsewhere/main.cpp"), "main.cpp");
  EXPECT_EQ(detail::source_path("main.cpp"), "main.cpp");
}

TEST(TaskUtils, SortBySubmitStable) {
  std::vector<Task> tasks(3, make_task());
  tasks[0].submit_s = 30.0;
  tasks[0].id = 1;
  tasks[1].submit_s = 10.0;
  tasks[1].id = 2;
  tasks[2].submit_s = 10.0;
  tasks[2].id = 3;
  for (auto& t : tasks) t.deadline_s = t.submit_s + 100.0;
  sort_by_submit(tasks);
  EXPECT_EQ(tasks[0].id, 2);
  EXPECT_EQ(tasks[1].id, 3);  // stable: keeps input order on ties
  EXPECT_EQ(tasks[2].id, 1);
}

TEST(TaskUtils, ArrivalScalingKeepsSlack) {
  std::vector<Task> tasks = {make_task()};
  const double slack = tasks[0].deadline_s - tasks[0].submit_s;
  const auto scaled = scale_arrival_rate(tasks, 5.0);
  // "arrival rate of 5X => submit time is 20% of the origin" (Sec. V-D).
  EXPECT_DOUBLE_EQ(scaled[0].submit_s, 2.0);
  EXPECT_DOUBLE_EQ(scaled[0].deadline_s - scaled[0].submit_s, slack);
  EXPECT_THROW(scale_arrival_rate(tasks, 0.0), InvalidArgument);
}

TEST(TaskUtils, ClampWidths) {
  std::vector<Task> tasks = {make_task()};
  tasks[0].cpus = 4096;
  const auto clamped = clamp_widths(tasks, 100);
  EXPECT_EQ(clamped[0].cpus, 100u);
  EXPECT_THROW(clamp_widths(tasks, 0), InvalidArgument);
}

// ------------------------------------------------------------- generator

TEST(Synthetic, GeneratesRequestedJobs) {
  SyntheticWorkloadConfig cfg;
  cfg.num_jobs = 500;
  const auto tasks = generate_workload(cfg);
  EXPECT_EQ(tasks.size(), 500u);
  EXPECT_NO_THROW(validate_tasks(tasks));
}

TEST(Synthetic, SubmitTimesAscend) {
  const auto tasks = generate_workload(SyntheticWorkloadConfig{});
  for (std::size_t i = 1; i < tasks.size(); ++i)
    EXPECT_GE(tasks[i].submit_s, tasks[i - 1].submit_s);
}

TEST(Synthetic, WidthsWithinCap) {
  SyntheticWorkloadConfig cfg;
  cfg.max_cpus = 64;
  for (const Task& t : generate_workload(cfg)) {
    EXPECT_GE(t.cpus, 1u);
    EXPECT_LE(t.cpus, 64u);
  }
}

TEST(Synthetic, GammaWithinConfiguredRange) {
  SyntheticWorkloadConfig cfg;
  cfg.gamma_lo = 0.6;
  cfg.gamma_hi = 0.9;
  for (const Task& t : generate_workload(cfg)) {
    EXPECT_GE(t.gamma, 0.6);
    EXPECT_LE(t.gamma, 0.9);
  }
}

TEST(Synthetic, Deterministic) {
  SyntheticWorkloadConfig cfg;
  const auto a = generate_workload(cfg);
  const auto b = generate_workload(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_s, b[i].submit_s);
    EXPECT_EQ(a[i].cpus, b[i].cpus);
    EXPECT_EQ(a[i].runtime_s, b[i].runtime_s);
  }
}

TEST(Synthetic, PowerOfTwoWidthsDominate) {
  SyntheticWorkloadConfig cfg;
  cfg.num_jobs = 2000;
  cfg.pow2_fraction = 0.85;
  std::size_t pow2 = 0;
  for (const Task& t : generate_workload(cfg)) {
    if ((t.cpus & (t.cpus - 1)) == 0) ++pow2;
  }
  EXPECT_GT(static_cast<double>(pow2) / 2000.0, 0.7);
}

TEST(Synthetic, DiurnalArrivalSwing) {
  SyntheticWorkloadConfig cfg;
  cfg.num_jobs = 6000;
  cfg.diurnal_amplitude = 0.9;
  cfg.mean_interarrival_s = 30.0;
  const auto tasks = generate_workload(cfg);
  // Bucket arrivals by hour-of-day; the peak hour should see far more
  // arrivals than the trough.
  std::vector<double> per_hour(24, 0.0);
  for (const Task& t : tasks)
    per_hour[static_cast<std::size_t>(std::fmod(t.submit_s / 3600.0, 24.0))] +=
        1.0;
  double lo = 1e18, hi = 0.0;
  for (const double c : per_hour) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(hi, 2.0 * lo);
}

TEST(Synthetic, Validation) {
  SyntheticWorkloadConfig cfg;
  cfg.num_jobs = 0;
  EXPECT_THROW(generate_workload(cfg), InvalidArgument);
  cfg = SyntheticWorkloadConfig{};
  cfg.diurnal_amplitude = 1.0;
  EXPECT_THROW(generate_workload(cfg), InvalidArgument);
  cfg = SyntheticWorkloadConfig{};
  cfg.gamma_lo = 0.9;
  cfg.gamma_hi = 0.5;
  EXPECT_THROW(generate_workload(cfg), InvalidArgument);
}

// --------------------------------------------------------------- demand

TEST(DemandFraction, CountsOverlappingJobs) {
  std::vector<Task> tasks(2, make_task());
  tasks[0].submit_s = 0.0;
  tasks[0].runtime_s = 120.0;  // minutes 0-1
  tasks[0].cpus = 10;
  tasks[0].deadline_s = 1e4;
  tasks[1].submit_s = 60.0;
  tasks[1].runtime_s = 60.0;   // minute 1
  tasks[1].cpus = 30;
  tasks[1].deadline_s = 1e4;
  const auto d = demanded_cpu_fraction_per_minute(tasks, 100, 240.0);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 0.10);
  EXPECT_DOUBLE_EQ(d[1], 0.40);
  EXPECT_DOUBLE_EQ(d[2], 0.0);  // both end exactly at the minute-2 boundary
  EXPECT_DOUBLE_EQ(d[3], 0.0);
}

TEST(DemandFraction, CapsAtOne) {
  std::vector<Task> tasks = {make_task()};
  tasks[0].cpus = 500;
  tasks[0].runtime_s = 60.0;
  tasks[0].submit_s = 0.0;
  tasks[0].deadline_s = 1e4;
  const auto d = demanded_cpu_fraction_per_minute(tasks, 100, 120.0);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
}

// -------------------------------------------------------------- urgency

TEST(Urgency, HuFractionRespected) {
  auto tasks = generate_workload(SyntheticWorkloadConfig{});
  UrgencyConfig cfg;
  cfg.hu_fraction = 0.3;
  assign_deadlines(tasks, cfg);
  EXPECT_NEAR(hu_fraction(tasks), 0.3, 0.05);
}

TEST(Urgency, ExtremesAllOrNone) {
  auto tasks = generate_workload(SyntheticWorkloadConfig{});
  UrgencyConfig cfg;
  cfg.hu_fraction = 0.0;
  assign_deadlines(tasks, cfg);
  EXPECT_DOUBLE_EQ(hu_fraction(tasks), 0.0);
  cfg.hu_fraction = 1.0;
  assign_deadlines(tasks, cfg);
  EXPECT_DOUBLE_EQ(hu_fraction(tasks), 1.0);
}

TEST(Urgency, DeadlinesFeasibleAtFmax) {
  auto tasks = generate_workload(SyntheticWorkloadConfig{});
  UrgencyConfig cfg;
  cfg.hu_fraction = 0.5;
  assign_deadlines(tasks, cfg);
  for (const Task& t : tasks)
    EXPECT_GE(t.deadline_s - t.submit_s,
              cfg.min_multiplier * t.runtime_s - 1e-9);
}

TEST(Urgency, HuTighterThanLu) {
  auto tasks = generate_workload(SyntheticWorkloadConfig{});
  UrgencyConfig cfg;
  cfg.hu_fraction = 0.5;
  assign_deadlines(tasks, cfg);
  RunningStats hu_mult, lu_mult;
  for (const Task& t : tasks) {
    const double m = (t.deadline_s - t.submit_s) / t.runtime_s;
    (t.urgency == Urgency::kHigh ? hu_mult : lu_mult).add(m);
  }
  // Paper Sec. V-D: HU ~ Normal(4, var 2), LU ~ Normal(12, var 2).
  EXPECT_NEAR(hu_mult.mean(), 4.0, 0.3);
  EXPECT_NEAR(lu_mult.mean(), 12.0, 0.3);
  EXPECT_LT(hu_mult.mean(), lu_mult.mean());
}

TEST(Urgency, Deterministic) {
  auto a = generate_workload(SyntheticWorkloadConfig{});
  auto b = a;
  UrgencyConfig cfg;
  assign_deadlines(a, cfg);
  assign_deadlines(b, cfg);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].deadline_s, b[i].deadline_s);
}

TEST(Urgency, Validation) {
  UrgencyConfig cfg;
  cfg.hu_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg = UrgencyConfig{};
  cfg.min_multiplier = 0.5;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

}  // namespace
}  // namespace iscope
