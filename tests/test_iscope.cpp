// End-to-end lifecycle tests of the IScope facade: commission -> scan ->
// schedule -> wear -> periodic re-scan.
#include "core/iscope.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"

namespace iscope {
namespace {

IScope::Options small_options(std::size_t procs = 16) {
  IScope::Options opt;
  opt.cluster.num_processors = procs;
  opt.cluster.seed = 7;
  opt.opportunistic.domain_size = 4;
  return opt;
}

std::vector<Task> burst(std::size_t n, std::size_t cpus = 2,
                        double runtime = 400.0) {
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.id = static_cast<std::int64_t>(i);
    t.submit_s = static_cast<double>(i) * 300.0;
    t.cpus = cpus;
    t.runtime_s = runtime;
    t.gamma = 0.9;
    t.deadline_s = t.submit_s + 12.0 * runtime;
    tasks.push_back(t);
  }
  return tasks;
}

TEST(IScope, StartsUnprofiled) {
  const IScope iscope(small_options());
  EXPECT_EQ(iscope.profiles().profiled_count(), 0u);
  EXPECT_EQ(iscope.stale_processors(0.0).size(), 16u);
}

TEST(IScope, ScanAllProfilesEverything) {
  IScope iscope(small_options());
  iscope.scan_all(0.0);
  EXPECT_EQ(iscope.profiles().profiled_count(), 16u);
  EXPECT_TRUE(iscope.stale_processors(1000.0).empty());
  // Fresh profiles against fresh silicon: no violations.
  EXPECT_EQ(iscope.undervolt_violations(), 0u);
}

TEST(IScope, StalenessReappearsAfterRescanPeriod) {
  IScope::Options opt = small_options();
  opt.rescan_period_s = units::days_to_s(30.0);
  IScope iscope(opt);
  iscope.scan_all(0.0);
  EXPECT_TRUE(iscope.stale_processors(units::days_to_s(29.0)).empty());
  EXPECT_EQ(iscope.stale_processors(units::days_to_s(31.0)).size(), 16u);
}

TEST(IScope, PlanCoversOnlyStaleProcessors) {
  IScope iscope(small_options());
  iscope.scan_all(0.0);
  // All idle all day; nothing stale right after the scan.
  const std::vector<double> idle_demand(1440, 0.05);
  const ProfilingPlan plan =
      iscope.plan_scans(idle_demand, HybridSupply{}, 1.0);
  EXPECT_EQ(plan.placed_count() + plan.unplaced.size(), 0u);
}

TEST(IScope, ExecutePlanFillsDatabase) {
  IScope iscope(small_options());
  const std::vector<double> idle_demand(10 * 1440, 0.05);
  const ProfilingPlan plan =
      iscope.plan_scans(idle_demand, HybridSupply{}, 0.0);
  EXPECT_GT(plan.placed_count(), 0u);
  iscope.execute_plan(plan);
  EXPECT_EQ(iscope.profiles().profiled_count(), plan.placed_count());
}

TEST(IScope, ScheduleRunsAllSchemes) {
  IScope iscope(small_options());
  iscope.scan_all(0.0);
  const auto tasks = burst(10);
  for (const Scheme s : kAllSchemes) {
    const SimResult r = iscope.schedule(s, tasks, HybridSupply{});
    EXPECT_EQ(r.tasks_completed, tasks.size()) << scheme_name(s);
  }
}

TEST(IScope, ScheduleRunsUnderCrashRepairFaults) {
  // The facade schedules on a const Knowledge view; crashed processors are
  // kept out of the idle pool by the simulator's own fault state.
  IScope::Options opt = small_options();
  opt.sim.faults = parse_fault_spec("mtbf=3600,repair=600");
  opt.sim.fault_seed = 3;
  IScope iscope(opt);
  iscope.scan_all(0.0);
  const auto tasks = burst(10);
  const SimResult r = iscope.schedule(Scheme::kScanFair, tasks, HybridSupply{});
  EXPECT_GT(r.faults.cpu_failures, 0u);
  EXPECT_EQ(r.tasks_completed + r.faults.tasks_failed, tasks.size());
}

TEST(IScope, WearCreatesViolationsRescanClearsThem) {
  IScope iscope(small_options());
  iscope.scan_all(0.0);
  EXPECT_EQ(iscope.undervolt_violations(), 0u);

  // Five years of heavy wear with stale profiles.
  iscope.apply_wear(
      std::vector<double>(iscope.cluster().size(), units::days_to_s(5 * 365.0)));
  const std::size_t stale_violations = iscope.undervolt_violations();
  EXPECT_GT(stale_violations, 0u);

  // Periodic re-profiling closes the gap.
  iscope.scan_all(units::days_to_s(5 * 365.0));
  EXPECT_LT(iscope.undervolt_violations(), stale_violations);
  EXPECT_EQ(iscope.undervolt_violations(), 0u);
}

TEST(IScope, WearAccumulates) {
  IScope iscope(small_options());
  std::vector<double> wear(iscope.cluster().size(), 100.0);
  iscope.apply_wear(wear);
  iscope.apply_wear(wear);
  EXPECT_DOUBLE_EQ(iscope.total_wear_s(0), 200.0);
  EXPECT_THROW(iscope.apply_wear(std::vector<double>(3, 1.0)),
               InvalidArgument);
  EXPECT_THROW(iscope.total_wear_s(999), InvalidArgument);
}

TEST(IScope, WearRaisesEnergyOfStaleScheduling) {
  // After silicon drift, a ScanEffi run on stale profiles consumes no less
  // energy than right after commissioning (the efficiency map decayed).
  IScope iscope(small_options(24));
  iscope.scan_all(0.0);
  const auto tasks = burst(20);
  const SimResult fresh = iscope.schedule(Scheme::kScanEffi, tasks,
                                          HybridSupply{});
  iscope.apply_wear(
      std::vector<double>(iscope.cluster().size(), units::days_to_s(4 * 365.0)));
  const SimResult stale = iscope.schedule(Scheme::kScanEffi, tasks,
                                          HybridSupply{});
  EXPECT_GE(stale.energy.total().joules(), fresh.energy.total().joules() * 0.99);
}

TEST(IScope, ScheduleWithProfilingMetersScans) {
  IScope iscope(small_options());
  ProfilingPlan plan;
  ProfilingWindow w;
  w.start_s = 50.0;  // before the first task arrives: everything is idle
  w.duration_s = 400.0;
  w.proc_ids = {12, 13, 14, 15};
  plan.windows.push_back(w);
  auto tasks = burst(3);
  for (Task& t : tasks) t.submit_s += 600.0;
  for (Task& t : tasks) t.deadline_s += 600.0;
  const SimResult r = iscope.schedule_with_profiling(
      Scheme::kBinRan, tasks, HybridSupply{}, plan);
  EXPECT_EQ(r.profiling_procs_scanned, 4u);
  EXPECT_GT(r.profiling_proc_seconds, 0.0);
}

TEST(IScope, DeterministicAcrossInstances) {
  IScope a(small_options()), b(small_options());
  a.scan_all(0.0);
  b.scan_all(0.0);
  const auto tasks = burst(8);
  const SimResult ra = a.schedule(Scheme::kScanFair, tasks, HybridSupply{});
  const SimResult rb = b.schedule(Scheme::kScanFair, tasks, HybridSupply{});
  EXPECT_EQ(ra.energy.utility.joules(), rb.energy.utility.joules());
  EXPECT_EQ(ra.busy_time_s, rb.busy_time_s);
}

}  // namespace
}  // namespace iscope
