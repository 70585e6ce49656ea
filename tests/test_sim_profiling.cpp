// In-band opportunistic profiling inside the simulator (paper Sec. III-C),
// plus the battery-in-simulator and rush-mode behaviours.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "profiling/scanner.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace iscope {
namespace {

struct Fixture {
  Cluster cluster;
  ProfileDb db;
  Knowledge knowledge;

  Fixture()
      : cluster(build_cluster([] {
          ClusterConfig cfg;
          cfg.num_processors = 8;
          cfg.seed = 77;
          return cfg;
        }())),
        db(cluster.size()),
        knowledge(&cluster, KnowledgeSource::kBin) {
    const Scanner scanner(&cluster, ScanConfig{});
    Rng rng(7);
    std::vector<std::size_t> all(cluster.size());
    std::iota(all.begin(), all.end(), 0);
    scanner.scan_domain(all, 0.0, rng, db);
  }
};

Task simple_task(std::int64_t id, double submit, std::size_t cpus,
                 double runtime, double deadline_mult = 12.0) {
  Task t;
  t.id = id;
  t.submit_s = submit;
  t.cpus = cpus;
  t.runtime_s = runtime;
  t.gamma = 1.0;
  t.deadline_s = submit + deadline_mult * runtime;
  return t;
}

ProfilingWindow window(double start, double duration,
                       std::vector<std::size_t> procs) {
  ProfilingWindow w;
  w.start_s = start;
  w.duration_s = duration;
  w.proc_ids = std::move(procs);
  return w;
}

TEST(SimProfiling, IdleProcessorsGetScanned) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  // One small task; window targets processors guaranteed idle.
  const SimResult r = sim.run({simple_task(1, 0.0, 1, 100.0)},
                              {window(10.0, 300.0, {4, 5, 6})});
  EXPECT_EQ(r.profiling_procs_scanned, 3u);
  EXPECT_EQ(r.profiling_procs_skipped, 0u);
  EXPECT_NEAR(r.profiling_proc_seconds, 3.0 * 300.0, 1e-6);
}

TEST(SimProfiling, BusyProcessorsAreSkipped) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  // A full-cluster task occupies everything when the window opens.
  const SimResult r = sim.run({simple_task(1, 0.0, 8, 1000.0)},
                              {window(100.0, 300.0, {0, 1, 2, 3})});
  EXPECT_EQ(r.profiling_procs_scanned, 0u);
  EXPECT_EQ(r.profiling_procs_skipped, 4u);
  EXPECT_EQ(r.tasks_completed, 1u);
}

TEST(SimProfiling, ScanPowerIsMetered) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  const SimResult idle_run = sim.run({simple_task(1, 0.0, 1, 100.0)}, {});
  const SimResult scan_run = sim.run({simple_task(1, 0.0, 1, 100.0)},
                                     {window(0.0, 600.0, {5, 6, 7})});
  EXPECT_GT(scan_run.energy.total().joules(), idle_run.energy.total().joules());
}

TEST(SimProfiling, ReservedProcessorsNotSchedulable) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  // Reserve 6 of 8 processors, then submit a 4-wide task during the
  // window: it must wait for the window to end.
  const SimResult r = sim.run({simple_task(1, 100.0, 4, 50.0)},
                              {window(0.0, 2000.0, {0, 1, 2, 3, 4, 5})});
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_GE(r.mean_wait.seconds(), 1900.0 - 100.0 - 1e-6);
}

TEST(SimProfiling, ProfilingOnlyRunDrains) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  const SimResult r = sim.run({}, {window(0.0, 300.0, {0, 1})});
  EXPECT_EQ(r.tasks_completed, 0u);
  EXPECT_EQ(r.profiling_procs_scanned, 2u);
  EXPECT_GT(r.energy.total().joules(), 0.0);  // scan power was metered
}

TEST(SimProfiling, BadWindowThrows) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  EXPECT_THROW(sim.run({}, {window(0.0, 0.0, {0})}), InvalidArgument);
}

TEST(SimProfiling, BadWindowsAreRejectedAtPrepareByBothSimulators) {
  // Processor 999 does not exist on this 8-CPU cluster. Both simulators
  // must refuse the plan when it is staged, before touching any state:
  // not when the window opens (after reserving processor 1), and not by
  // silently dropping the id a shard slice cannot place.
  Fixture f;
  const HybridSupply supply;
  const std::vector<ProfilingWindow> out_of_range = {
      window(100.0, 50.0, {1, 999})};
  const std::vector<ProfilingWindow> bad_timing = {window(-1.0, 50.0, {1})};

  DatacenterSim sim(&f.knowledge, PlacementRule::kEfficiency, &supply,
                    SimConfig{});
  sim.prepare({simple_task(1, 0.0, 2, 400.0)});
  sim.step_until(300.0);
  const DecisionSnapshot before = sim.decision_snapshot();
  EXPECT_THROW(sim.prepare({}, out_of_range), InvalidArgument);
  EXPECT_THROW(sim.prepare({}, bad_timing), InvalidArgument);
  const DecisionSnapshot after = sim.decision_snapshot();
  EXPECT_EQ(after.now_s, before.now_s);
  EXPECT_EQ(after.events_processed, before.events_processed);
  EXPECT_EQ(after.running, 1u);

  SimConfig sharded_cfg;
  sharded_cfg.topology.cpus_per_rack = 4;
  sharded_cfg.topology.shards = 2;
  ShardedSim sharded(f.cluster, Scheme::kBinEffi, nullptr, supply,
                     sharded_cfg);
  EXPECT_THROW(sharded.prepare({}, out_of_range), InvalidArgument);
  EXPECT_THROW(sharded.run({}, out_of_range), InvalidArgument);
  EXPECT_THROW(sharded.run({}, bad_timing), InvalidArgument);
}

// ------------------------------------------------------- battery in sim

TEST(SimBattery, BatteryCutsUtilityDraw) {
  Fixture f;
  // Strongly fluctuating wind: half the epochs windy, half calm.
  std::vector<double> pattern;
  for (int i = 0; i < 200; ++i) pattern.push_back(i % 2 == 0 ? 3000.0 : 0.0);
  const HybridSupply supply(SupplyTrace(Seconds{600.0}, pattern));

  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i)
    tasks.push_back(simple_task(i, i * 500.0, 2, 2000.0));

  SimConfig no_batt;
  SimConfig with_batt;
  with_batt.battery = BatteryConfig::make(50.0, 50.0);

  DatacenterSim sim_a(&f.knowledge, PlacementRule::kRandom, &supply, no_batt);
  DatacenterSim sim_b(&f.knowledge, PlacementRule::kRandom, &supply,
                      with_batt);
  const SimResult a = sim_a.run(tasks);
  const SimResult b = sim_b.run(tasks);

  EXPECT_GT(b.battery_delivered.kwh(), 0.0);
  EXPECT_LT(b.energy.utility_kwh(), a.energy.utility_kwh());
  // Losses are real: battery wind purchases exceed the delivered energy.
  EXPECT_GT(b.battery_losses.kwh(), 0.0);
}

TEST(SimBattery, NoBatteryFieldsAreZero) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  const SimResult r = sim.run({simple_task(1, 0.0, 1, 100.0)});
  EXPECT_DOUBLE_EQ(r.battery_delivered.kwh(), 0.0);
  EXPECT_DOUBLE_EQ(r.battery_losses.kwh(), 0.0);
}

// ----------------------------------------------------------- rush mode

TEST(RushMode, StarvedForcedTaskSpeedsUpRunners) {
  Fixture f;
  const HybridSupply supply;
  // A long low-urgency task occupies the cluster; a tight task arrives
  // and is forced. Without rush the runner crawls at its energy-optimal
  // level; with rush it must finish at the top level, letting the forced
  // task meet (or nearly meet) its deadline.
  std::vector<Task> tasks = {simple_task(1, 0.0, 8, 2000.0, 12.0),
                             simple_task(2, 100.0, 8, 500.0, 5.2)};
  DatacenterSim sim(&f.knowledge, PlacementRule::kEfficiency, &supply,
                    SimConfig{});
  const SimResult r = sim.run(tasks);
  EXPECT_EQ(r.tasks_completed, 2u);
  // Task 1 at gamma=1 would take 2000 * (2.0/1.625) ~ 2460 s at its
  // energy-optimal level; rush forces it to finish in ~2000 s so task 2
  // can start by its latest start (100 + 2100 = 2200).
  EXPECT_EQ(r.deadline_misses, 0u);
}

// ------------------------------------------------------------ timeline

TEST(SimTimeline, RecordsLifecycleInOrder) {
  Fixture f;
  const HybridSupply supply;
  SimConfig cfg;
  cfg.record_timeline = true;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply, cfg);
  const SimResult r = sim.run({simple_task(1, 50.0, 2, 300.0)},
                              {window(10.0, 100.0, {6, 7})});
  ASSERT_GE(r.timeline.size(), 5u);
  // Events are time-ordered.
  for (std::size_t i = 1; i < r.timeline.size(); ++i)
    EXPECT_GE(r.timeline[i].time_s, r.timeline[i - 1].time_s);
  // The lifecycle kinds all appear.
  auto has = [&](TimelineKind k) {
    for (const auto& e : r.timeline)
      if (e.kind == k) return true;
    return false;
  };
  EXPECT_TRUE(has(TimelineKind::kArrival));
  EXPECT_TRUE(has(TimelineKind::kStart));
  EXPECT_TRUE(has(TimelineKind::kCompletion));
  EXPECT_TRUE(has(TimelineKind::kProfilingBegin));
  EXPECT_TRUE(has(TimelineKind::kProfilingEnd));
}

TEST(SimTimeline, OffByDefault) {
  Fixture f;
  const HybridSupply supply;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply,
                    SimConfig{});
  const SimResult r = sim.run({simple_task(1, 0.0, 1, 100.0)});
  EXPECT_TRUE(r.timeline.empty());
}

TEST(SimTimeline, MissEventCarriesLateness) {
  Fixture f;
  const HybridSupply supply;
  SimConfig cfg;
  cfg.record_timeline = true;
  DatacenterSim sim(&f.knowledge, PlacementRule::kRandom, &supply, cfg);
  // Two full-cluster tasks with tight deadlines: the second must be late.
  const SimResult r = sim.run({simple_task(1, 0.0, 8, 1000.0, 1.2),
                               simple_task(2, 0.0, 8, 1000.0, 1.2)});
  EXPECT_GE(r.deadline_misses, 1u);
  bool found = false;
  for (const auto& e : r.timeline) {
    if (e.kind == TimelineKind::kDeadlineMiss) {
      EXPECT_GT(e.value, 0.0);  // lateness
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace iscope
