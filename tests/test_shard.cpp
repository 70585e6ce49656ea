// Sharded-simulator contracts (DESIGN.md Sec. 12, sim/sharded.hpp).
//
//  * ShardIdentity: a 1-shard ShardedSim run is bit-identical to the
//    single-event-loop DatacenterSim across all five schemes, +- battery,
//    +- profiling windows, +- fault injection -- every SimResult field,
//    trace sample and timeline event compared with exact FP equality.
//  * Worker independence: an N-shard run is a pure function of
//    (inputs, seed); the shard_workers knob (1/2/8) must not move a bit.
//  * Reconciliation: the epoch-barrier wind allocator conserves the budget
//    at 0 ULP of the fixed-shard-order sum and never over-grants.
//  * Partition: tasks land exactly once, always on a shard they fit.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "energy/reconcile.hpp"
#include "fault/fault.hpp"
#include "profiling/scanner.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim_identity.hpp"

namespace iscope {
namespace {

struct Scenario {
  Cluster cluster;
  ProfileDb db;

  explicit Scenario(std::size_t n, std::uint64_t seed)
      : cluster(build_cluster([&] {
          ClusterConfig cfg;
          cfg.num_processors = n;
          cfg.seed = seed;
          return cfg;
        }())),
        db(n) {
    const Scanner scanner(&cluster, ScanConfig{});
    Rng rng(seed + 7);
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    scanner.scan_domain(all, 0.0, rng, db);
  }

  /// Randomized workload capped at `max_cpus` so every task fits a shard
  /// slice in the multi-shard configurations under test.
  std::vector<Task> make_tasks(std::size_t count, std::size_t max_cpus,
                               std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Task> tasks;
    tasks.reserve(count);
    double submit = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      submit += rng.uniform(0.0, 400.0);
      Task t;
      t.id = static_cast<std::int64_t>(i + 1);
      t.submit_s = submit;
      t.cpus = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(max_cpus)));
      t.runtime_s = rng.uniform(100.0, 2000.0);
      t.gamma = rng.uniform(0.3, 1.0);
      t.deadline_s = t.submit_s + t.runtime_s * rng.uniform(1.5, 10.0);
      tasks.push_back(t);
    }
    return tasks;
  }

  HybridSupply make_supply(std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<double> watts;
    Watts peak;
    const std::size_t top = cluster.levels().freq_ghz.size() - 1;
    for (std::size_t p = 0; p < cluster.size(); ++p)
      peak += cluster.power(p, top, Volts{cluster.levels().vdd_nom[top]});
    for (std::size_t i = 0; i < 200; ++i)
      watts.push_back(rng.uniform(0.0, 0.9 * peak.watts()));
    return HybridSupply(SupplyTrace(Seconds{600.0}, std::move(watts)));
  }

  SimConfig base_config(std::size_t shards) const {
    SimConfig cfg;
    cfg.record_trace = true;
    cfg.record_timeline = true;
    cfg.topology.cpus_per_rack = 2;
    cfg.topology.shards = shards;
    return cfg;
  }

  SimResult run_legacy(Scheme scheme, const std::vector<Task>& tasks,
                       const HybridSupply& supply, SimConfig cfg,
                       const std::vector<ProfilingWindow>& profiling = {})
      const {
    cfg.topology.shards = 1;
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks, profiling);
  }

  SimResult run_sharded(Scheme scheme, const std::vector<Task>& tasks,
                        const HybridSupply& supply, SimConfig cfg,
                        const std::vector<ProfilingWindow>& profiling = {})
      const {
    ShardedSim sim(cluster, scheme, scheme_uses_scan(scheme) ? &db : nullptr,
                   supply, cfg);
    return sim.run(tasks, profiling);
  }

  /// The tentpole invariant: the 1-shard sharded run (chunked event
  /// processing, reconciled fraction pinned to 1.0) is bit-identical to
  /// one uninterrupted DatacenterSim drain.
  void check_one_shard_identity(
      Scheme scheme, const std::vector<Task>& tasks,
      const HybridSupply& supply, SimConfig cfg,
      const std::vector<ProfilingWindow>& profiling = {}) const {
    cfg.topology.shards = 1;
    const SimResult legacy = run_legacy(scheme, tasks, supply, cfg, profiling);
    const SimResult sharded =
        run_sharded(scheme, tasks, supply, cfg, profiling);
    expect_identical(legacy, sharded);
  }
};

std::vector<ProfilingWindow> spread_windows(std::size_t procs) {
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 4; ++w) {
    ProfilingWindow win;
    win.start_s = 500.0 + 2500.0 * static_cast<double>(w);
    win.duration_s = 900.0;
    // Processors spread across the whole facility, so multi-shard runs
    // exercise the window split.
    win.proc_ids = {w, (w + procs / 3) % procs, (w + 2 * procs / 3) % procs};
    windows.push_back(win);
  }
  return windows;
}

// ----------------------------------------------------- 1-shard identity

TEST(ShardIdentity, AllSchemesWithWind) {
  const Scenario s(24, 11);
  const auto tasks = s.make_tasks(40, 8, 21);
  const HybridSupply supply = s.make_supply(31);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_one_shard_identity(scheme, tasks, supply, s.base_config(1));
  }
}

TEST(ShardIdentity, UtilityOnly) {
  const Scenario s(24, 13);
  const auto tasks = s.make_tasks(30, 8, 23);
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinRan}) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_one_shard_identity(scheme, tasks, HybridSupply{},
                               s.base_config(1));
  }
}

TEST(ShardIdentity, WithBattery) {
  const Scenario s(24, 17);
  const auto tasks = s.make_tasks(35, 8, 27);
  const HybridSupply supply = s.make_supply(37);
  SimConfig cfg = s.base_config(1);
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_one_shard_identity(scheme, tasks, supply, cfg);
  }
}

TEST(ShardIdentity, WithProfilingWindows) {
  const Scenario s(24, 19);
  const auto tasks = s.make_tasks(35, 8, 29);
  const HybridSupply supply = s.make_supply(39);
  const auto windows = spread_windows(24);
  s.check_one_shard_identity(Scheme::kScanEffi, tasks, supply,
                             s.base_config(1), windows);
  s.check_one_shard_identity(Scheme::kScanRan, tasks, supply,
                             s.base_config(1), windows);
}

TEST(ShardIdentity, WithFaultInjection) {
  const Scenario s(24, 23);
  const auto tasks = s.make_tasks(35, 8, 33);
  const HybridSupply supply = s.make_supply(41);
  SimConfig cfg = s.base_config(1);
  // Representative spec: crashes + repairs + scan mis-profiling. The
  // legacy path builds its plan from the spec directly; the sharded path
  // builds the same global plan and slices it -- slice(0, procs) must
  // reproduce it exactly.
  cfg.faults = parse_fault_spec("mtbf=30000,repair=1800,misprofile=0.05");
  cfg.fault_seed = 77;
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kScanEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_one_shard_identity(scheme, tasks, supply, cfg);
  }
}

TEST(ShardIdentity, BatteryPlusProfilingPlusFaults) {
  // Everything at once: the kitchen-sink scenario from the equivalence
  // suite's playbook.
  const Scenario s(24, 29);
  const auto tasks = s.make_tasks(30, 8, 43);
  const HybridSupply supply = s.make_supply(47);
  SimConfig cfg = s.base_config(1);
  cfg.battery = BatteryConfig::make(1.0, 0.5);
  cfg.faults = parse_fault_spec("mtbf=40000,repair=2400,misprofile=0.03");
  cfg.fault_seed = 5;
  s.check_one_shard_identity(Scheme::kScanFair, tasks, supply, cfg,
                             spread_windows(24));
}

// ----------------------------------------- N-shard seed determinism

TEST(ShardDeterminism, WorkerCountDoesNotMoveABit) {
  const Scenario s(24, 31);
  const auto tasks = s.make_tasks(60, 4, 51);
  const HybridSupply supply = s.make_supply(53);
  SimConfig cfg = s.base_config(4);
  SimResult first;
  bool have_first = false;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(workers);
    cfg.shard_workers = workers;
    const SimResult r = s.run_sharded(Scheme::kScanFair, tasks, supply, cfg);
    if (!have_first) {
      first = r;
      have_first = true;
      // Sanity: the run did real work and lost no task.
      EXPECT_EQ(r.tasks_completed, tasks.size());
      EXPECT_GT(r.events_processed, 0u);
    } else {
      expect_identical(first, r);
    }
  }
}

// The shards read one plan's shared per-processor streams, each through
// its own cursor; with crashes and mis-profiles live the run must still not
// move by a bit with the worker count.
TEST(ShardDeterminism, FaultedWorkerCountDoesNotMoveABit) {
  const Scenario s(24, 32);
  const auto tasks = s.make_tasks(60, 4, 52);
  const HybridSupply supply = s.make_supply(54);
  SimConfig cfg = s.base_config(4);
  cfg.faults = parse_fault_spec("mtbf=15000,repair=900,misprofile=0.1");
  cfg.fault_seed = 61;
  SimResult first;
  bool have_first = false;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(workers);
    cfg.shard_workers = workers;
    const SimResult r = s.run_sharded(Scheme::kScanFair, tasks, supply, cfg);
    if (!have_first) {
      first = r;
      have_first = true;
      EXPECT_EQ(r.tasks_completed + r.faults.tasks_failed, tasks.size());
      EXPECT_GT(r.faults.cpu_failures, 10u);
      EXPECT_GT(r.faults.misprofile_failures, 0u);
      EXPECT_GT(r.faults.task_requeues, 0u);
    } else {
      expect_identical(first, r);
    }
  }
}

TEST(ShardDeterminism, RepeatedRunsAreIdentical) {
  const Scenario s(26, 37);  // partial last rack
  const auto tasks = s.make_tasks(50, 4, 57);
  const HybridSupply supply = s.make_supply(59);
  const SimConfig cfg = s.base_config(3);
  const SimResult a = s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg);
  const SimResult b = s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg);
  expect_identical(a, b);
}

TEST(ShardDeterminism, MultiShardConservesTasksAndEnergyAccounting) {
  const Scenario s(24, 41);
  const auto tasks = s.make_tasks(60, 4, 61);
  const HybridSupply supply = s.make_supply(63);
  for (const std::size_t shards : {2u, 4u, 6u}) {
    SCOPED_TRACE(shards);
    const SimResult r =
        s.run_sharded(Scheme::kScanFair, tasks, supply, s.base_config(shards));
    EXPECT_EQ(r.tasks_completed, tasks.size());
    EXPECT_EQ(r.deadline_misses + r.faults.tasks_failed,
              r.deadline_misses);  // no faults configured
    EXPECT_GT(r.energy.total().joules(), 0.0);
    EXPECT_EQ(r.busy_time_s.size(), s.cluster.size());
    // Cost re-priced from the aggregate split must match the reported cost.
    EXPECT_EQ(r.cost.raw(), EnergyPrices{}.cost(r.energy).raw());
  }
}

// ----------------------------------------------- wind reconciliation

TEST(Reconcile, SingleShardFractionIsExactlyOne) {
  const WindAllocation a =
      reconcile_wind(Watts{1234.5}, {Watts{900.0}}, {1.0});
  EXPECT_EQ(a.fraction[0], 1.0);
  EXPECT_EQ(a.grant[0].watts(), 1234.5);
  EXPECT_EQ(a.total_granted.watts(), 1234.5);
  // Even a becalmed barrier pins the lone shard's view to the whole farm.
  const WindAllocation calm =
      reconcile_wind(Watts{}, {Watts{900.0}}, {1.0});
  EXPECT_EQ(calm.fraction[0], 1.0);
}

TEST(Reconcile, ZeroWindSplitsByCapacity) {
  const WindAllocation a = reconcile_wind(
      Watts{}, {Watts{10.0}, Watts{20.0}, Watts{30.0}}, {0.5, 0.25, 0.25});
  EXPECT_EQ(a.total_granted.watts(), 0.0);
  EXPECT_EQ(a.fraction[0], 0.5);
  EXPECT_EQ(a.fraction[1], 0.25);
  EXPECT_EQ(a.fraction[2], 0.25);
}

TEST(Reconcile, ConservationAtZeroUlp) {
  // total_granted_w must BE the fixed-shard-order sum of the grants (not
  // merely close to it), and never exceed the budget.
  Rng rng(97);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 16));
    std::vector<Watts> demand(n);
    std::vector<double> share(n);
    double share_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      demand[i] = Watts{rng.uniform(0.0, 5000.0)};
      share[i] = rng.uniform(0.1, 10.0);
      share_sum += share[i];
    }
    for (std::size_t i = 0; i < n; ++i) share[i] /= share_sum;
    const Watts available{rng.uniform(0.0, 8000.0)};

    const WindAllocation a = reconcile_wind(available, demand, share);
    double fixed_order_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(a.grant[i].watts(), 0.0);
      EXPECT_GE(a.fraction[i], 0.0);
      EXPECT_LE(a.fraction[i], 1.0);
      fixed_order_sum += a.grant[i].watts();
    }
    EXPECT_EQ(fixed_order_sum, a.total_granted.watts()) << "trial " << trial;
    EXPECT_LE(a.total_granted.watts(), available.watts())
        << "trial " << trial;
  }
}

TEST(Reconcile, UnmetDemandDrawsTheLeftoverInShardOrder) {
  // Shard 0 wants little, shard 1 wants much more than its fair slice:
  // the leftover commits to shard 1 before any capacity spread.
  const WindAllocation a = reconcile_wind(
      Watts{1000.0}, {Watts{100.0}, Watts{2000.0}}, {0.5, 0.5});
  EXPECT_EQ(a.grant[0].watts(), 100.0);
  EXPECT_EQ(a.grant[1].watts(), 900.0);
  EXPECT_EQ(a.total_granted.watts(), 1000.0);
}

TEST(Reconcile, SurplusSpreadsByCapacityShare) {
  // Facility demand below the wind: the surplus comes back by capacity so
  // shard batteries/curtailment meters see it.
  const WindAllocation a = reconcile_wind(
      Watts{1000.0}, {Watts{100.0}, Watts{100.0}}, {0.75, 0.25});
  EXPECT_GT(a.grant[0].watts(), a.grant[1].watts());
  EXPECT_EQ(a.grant[0].watts() + a.grant[1].watts(),
            a.total_granted.watts());
  EXPECT_LE(a.total_granted.watts(), 1000.0);
}

TEST(Reconcile, RejectsMalformedInputs) {
  EXPECT_THROW(reconcile_wind(Watts{1.0}, {}, {}), InvalidArgument);
  EXPECT_THROW(reconcile_wind(Watts{1.0}, {Watts{1.0}, Watts{2.0}}, {1.0}),
               InvalidArgument);
  EXPECT_THROW(reconcile_wind(Watts{-1.0}, {Watts{1.0}}, {1.0}),
               InvalidArgument);
}

// ----------------------------------------------------- task partition

TEST(Partition, EveryTaskLandsExactlyOnceAndFits) {
  const Topology topo([] {
    TopologyConfig cfg;
    cfg.cpus_per_rack = 4;
    cfg.shards = 4;
    return cfg;
  }(), 48);
  Rng rng(7);
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < 100; ++i) {
    Task t;
    t.id = static_cast<std::int64_t>(i);
    t.submit_s = rng.uniform(0.0, 10000.0);
    t.cpus = static_cast<std::size_t>(rng.uniform_int(1, 12));
    t.runtime_s = rng.uniform(10.0, 1000.0);
    t.deadline_s = t.submit_s + 100000.0;
    tasks.push_back(t);
  }
  const auto parts = partition_tasks(tasks, topo);
  ASSERT_EQ(parts.size(), 4u);
  std::vector<int> seen(100, 0);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (const Task& t : parts[s]) {
      ++seen[static_cast<std::size_t>(t.id)];
      EXPECT_LE(t.cpus, topo.slice(s).proc_count)
          << "task " << t.id << " cannot fit shard " << s;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "task " << i;
}

TEST(Partition, SingleShardIsIdentity) {
  const Topology topo(TopologyConfig{}, 480);
  std::vector<Task> tasks(5);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = static_cast<std::int64_t>(i);
    tasks[i].submit_s = static_cast<double>(5 - i);  // deliberately unsorted
    tasks[i].cpus = 1;
    tasks[i].runtime_s = 1.0;
    tasks[i].deadline_s = 1e9;
  }
  const auto parts = partition_tasks(tasks, topo);
  ASSERT_EQ(parts.size(), 1u);
  ASSERT_EQ(parts[0].size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(parts[0][i].id, tasks[i].id);  // order untouched
}

TEST(Partition, ThrowsWhenATaskFitsNoShard) {
  const Topology topo([] {
    TopologyConfig cfg;
    cfg.cpus_per_rack = 4;
    cfg.shards = 4;
    return cfg;
  }(), 32);  // 8 CPUs per shard
  std::vector<Task> tasks(1);
  tasks[0].cpus = 9;
  tasks[0].runtime_s = 1.0;
  tasks[0].deadline_s = 1.0;
  EXPECT_THROW(partition_tasks(tasks, topo), InvalidArgument);
}

TEST(Partition, PrepareRefusesAnInfiniteDeadline) {
  // The task's deadline-pressure wakeup would sit at +inf, past every
  // barrier, so its shard would never drain and run() would never end.
  const Scenario sc(16, 3);
  const HybridSupply supply = sc.make_supply(5);
  ShardedSim sim(sc.cluster, Scheme::kScanEffi, &sc.db, supply,
                 sc.base_config(2));
  std::vector<Task> tasks = sc.make_tasks(4, 4, 11);
  tasks[1].deadline_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sim.prepare(tasks, {}), InvalidArgument);
}

TEST(Partition, WindowsSplitToLocalIds) {
  const Topology topo([] {
    TopologyConfig cfg;
    cfg.cpus_per_rack = 4;
    cfg.shards = 2;
    return cfg;
  }(), 16);  // shard 0: procs 0-7, shard 1: procs 8-15
  ProfilingWindow w;
  w.start_s = 10.0;
  w.duration_s = 60.0;
  w.proc_ids = {2, 7, 8, 15};
  const auto parts = partition_windows({w}, topo);
  ASSERT_EQ(parts.size(), 2u);
  ASSERT_EQ(parts[0].size(), 1u);
  ASSERT_EQ(parts[1].size(), 1u);
  EXPECT_EQ(parts[0][0].proc_ids, (std::vector<std::size_t>{2, 7}));
  EXPECT_EQ(parts[1][0].proc_ids, (std::vector<std::size_t>{0, 7}));
  EXPECT_EQ(parts[1][0].start_s, 10.0);
  // A window touching only shard 0 is dropped for shard 1.
  w.proc_ids = {0, 1};
  const auto only0 = partition_windows({w}, topo);
  EXPECT_EQ(only0[0].size(), 1u);
  EXPECT_TRUE(only0[1].empty());
}

}  // namespace
}  // namespace iscope
