// Parameterized property suites: invariants that must hold across whole
// parameter grids, not just hand-picked points.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <tuple>

#include "matcher_rows.hpp"
#include "profiling/scanner.hpp"
#include "sim/simulator.hpp"
#include "variation/binning.hpp"
#include "workload/task.hpp"

namespace iscope {
namespace {

// ------------------------------------------------- Eq-3 over (gamma, f)

class Eq3Property
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Eq3Property, SlowdownBoundsAndMonotonicity) {
  const double gamma = std::get<0>(GetParam());
  const double f = std::get<1>(GetParam());
  Task t;
  t.runtime_s = 100.0;
  t.gamma = gamma;
  const double fmax = 2.0;
  const double s = t.slowdown(f, fmax);
  // Slowdown is at least 1 and bounded by the full-CPU-bound case.
  EXPECT_GE(s, 1.0 - 1e-12);
  EXPECT_LE(s, fmax / f + 1e-12);
  // At fmax there is no slowdown; a lower frequency never speeds it up.
  EXPECT_DOUBLE_EQ(t.slowdown(fmax, fmax), 1.0);
  if (f < fmax) {
    EXPECT_GE(s, t.slowdown(fmax, fmax));
  }
  // Interpolation property: gamma scales linearly between the extremes.
  const double s0 = 1.0;
  const double s1 = fmax / f;
  EXPECT_NEAR(s, s0 + gamma * (s1 - s0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GammaFreqGrid, Eq3Property,
    testing::Combine(testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                     testing::Values(0.75, 1.0625, 1.375, 1.6875, 2.0)));

// ---------------------------------------- matcher demand vs wind budget

class MatcherWindProperty : public testing::TestWithParam<double> {
 protected:
  static const Cluster& cluster() {
    static const Cluster c = build_cluster([] {
      ClusterConfig cfg;
      cfg.num_processors = 16;
      cfg.seed = 11;
      return cfg;
    }());
    return c;
  }
};

TEST_P(MatcherWindProperty, DemandMonotoneInBudgetAndSafe) {
  const double wind_w = GetParam();
  const Knowledge knowledge(&cluster(), KnowledgeSource::kBin);
  const PowerMatcher matcher(&knowledge, 1.4);
  const ReferenceMatcher reference{knowledge, matcher};

  auto make_tasks = [&] {
    std::vector<ActiveTask> tasks;
    for (std::size_t i = 0; i < 6; ++i) {
      ActiveTask t;
      t.remaining_work_s = 500.0 + 100.0 * static_cast<double>(i);
      t.deadline_s = 3600.0 * (1.0 + static_cast<double>(i));
      t.gamma = 0.5 + 0.1 * static_cast<double>(i % 5);
      t.procs = {2 * i, 2 * i + 1};
      tasks.push_back(std::move(t));
    }
    return tasks;
  };

  const auto tasks = make_tasks();
  MatcherColumns cols = matcher_rows(knowledge, matcher, tasks);
  const MatchResult r = matcher.match(cols, Watts{wind_w}, 0.0);

  // Levels never violate deadline floors.
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_GE(cols.level[i], reference.min_feasible_level(tasks[i], 0.0));

  // More wind never increases demand... (fitting relaxes monotonically)
  MatcherColumns cols_more = matcher_rows(knowledge, matcher, tasks);
  const MatchResult more =
      matcher.match(cols_more, Watts{wind_w * 2.0 + 10.0}, 0.0);
  EXPECT_GE(more.demand.watts(), r.demand.watts() - 1e-9);

  // Demand equals the sum of the assigned task powers times cooling.
  double sum = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    sum += reference.task_power(tasks[i], cols.level[i]).watts();
  EXPECT_NEAR(r.demand.watts(), sum * 1.4, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(WindBudgets, MatcherWindProperty,
                         testing::Values(0.0, 100.0, 300.0, 600.0, 1000.0,
                                         2000.0, 5000.0, 1e9));

// ------------------------------------------------ schemes x supply grid

class SchemeProperty
    : public testing::TestWithParam<std::tuple<Scheme, bool>> {
 protected:
  struct World {
    Cluster cluster;
    ProfileDb db;
    World()
        : cluster(build_cluster([] {
            ClusterConfig cfg;
            cfg.num_processors = 12;
            cfg.seed = 21;
            return cfg;
          }())),
          db(cluster.size()) {
      const Scanner scanner(&cluster, ScanConfig{});
      Rng rng(5);
      std::vector<std::size_t> all(cluster.size());
      std::iota(all.begin(), all.end(), 0);
      scanner.scan_domain(all, 0.0, rng, db);
    }
  };
  static const World& world() {
    static const World w;
    return w;
  }
};

TEST_P(SchemeProperty, CompletesAccountsAndConserves) {
  const Scheme scheme = std::get<0>(GetParam());
  const bool with_wind = std::get<1>(GetParam());

  std::vector<Task> tasks;
  for (int i = 0; i < 25; ++i) {
    Task t;
    t.id = i;
    t.submit_s = i * 120.0;
    t.cpus = 1 + static_cast<std::size_t>(i) % 6;
    t.runtime_s = 200.0 + 40.0 * (i % 7);
    t.gamma = 0.5 + 0.1 * (i % 5);
    t.deadline_s = t.submit_s + (i % 3 == 0 ? 4.0 : 12.0) * t.runtime_s;
    tasks.push_back(t);
  }

  const SupplyTrace wind(Seconds{600.0}, std::vector<double>(300, 600.0));
  const HybridSupply supply =
      with_wind ? HybridSupply(wind) : HybridSupply();

  const SimResult r = run_scheme(world().cluster, scheme, &world().db, supply,
                                 tasks, SimConfig{});

  EXPECT_EQ(r.tasks_completed, tasks.size());
  EXPECT_GT(r.energy.total().joules(), 0.0);
  EXPECT_GT(r.cost.dollars(), 0.0);
  if (!with_wind) {
    EXPECT_DOUBLE_EQ(r.energy.wind.joules(), 0.0);
  }
  // Busy-time sanity.
  for (const double b : r.busy_time_s) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, r.makespan.seconds() + 1e-6);
  }
  // Determinism: identical rerun gives identical outputs.
  const SimResult again = run_scheme(world().cluster, scheme, &world().db,
                                     supply, tasks, SimConfig{});
  EXPECT_EQ(r.energy.utility.joules(), again.energy.utility.joules());
  EXPECT_EQ(r.energy.wind.joules(), again.energy.wind.joules());
  EXPECT_EQ(r.deadline_misses, again.deadline_misses);
  EXPECT_EQ(r.busy_time_s, again.busy_time_s);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeProperty,
    testing::Combine(testing::Values(Scheme::kBinRan, Scheme::kBinEffi,
                                     Scheme::kScanRan, Scheme::kScanEffi,
                                     Scheme::kScanFair),
                     testing::Bool()),
    [](const testing::TestParamInfo<SchemeProperty::ParamType>& info) {
      return std::string(scheme_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_wind" : "_utility");
    });

// ----------------------------------------------- scanner vs noise level

class ScannerNoiseProperty : public testing::TestWithParam<double> {};

TEST_P(ScannerNoiseProperty, NeverUnsafeAndNearTruth) {
  const double noise = GetParam();
  ClusterConfig cfg;
  cfg.num_processors = 6;
  cfg.seed = 31;
  const Cluster cluster = build_cluster(cfg);
  // The production safety margin must cover the configured noise.
  ScanConfig scan;
  scan.noise_sigma = noise;
  scan.safety_margin = std::max(0.005, 3.0 * noise);
  scan.repeats = noise > 0.0 ? 3 : 1;
  Rng rng(noise > 0.0 ? 91 : 17);
  for (std::size_t chip = 0; chip < cluster.size(); ++chip) {
    const ChipProfile p = Scanner(&cluster, scan).scan_chip(chip, 0.0, rng);
    for (std::size_t core = 0; core < p.core_vdd.size(); ++core) {
      for (std::size_t l = 0; l < p.core_vdd[core].levels(); ++l) {
        const double truth = cluster.proc(chip).core_truth[core].vdd(l);
        const double vnom = cluster.levels().vdd_nom[l];
        // Safe: never more than a whisker below the silicon truth.
        EXPECT_GE(p.core_vdd[core].vdd(l), truth * (1.0 - 2.0 * noise) - 1e-9);
        // Useful: never far above the stock voltage.
        EXPECT_LE(p.core_vdd[core].vdd(l),
                  std::max(truth, vnom) * (1.0 + scan.sweep_depth));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, ScannerNoiseProperty,
                         testing::Values(0.0, 0.002, 0.005, 0.01));

// ------------------------------------------------- binning vs bin count

class BinningProperty : public testing::TestWithParam<int> {};

TEST_P(BinningProperty, CoverageDominanceAndMonotoneHeadroom) {
  const int bins = GetParam();
  const Cluster cluster = build_cluster([] {
    ClusterConfig cfg;
    cfg.num_processors = 48;
    cfg.seed = 41;
    return cfg;
  }());
  std::vector<MinVddCurve> chips;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    chips.push_back(cluster.proc(i).chip_truth);
  const BinningResult r = speed_bin(chips, bins);

  std::size_t covered = 0;
  for (const std::size_t s : r.bin_sizes) covered += s;
  EXPECT_EQ(covered, chips.size());

  double headroom = 0.0;
  const std::size_t top = chips.front().levels() - 1;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const double bin_v =
        r.bin_curve[static_cast<std::size_t>(r.bin_of_chip[i])].vdd(top);
    EXPECT_GE(bin_v, chips[i].vdd(top));
    headroom += bin_v - chips[i].vdd(top);
  }
  // More bins -> tighter fit -> less total guardband headroom.
  if (bins > 1) {
    const BinningResult coarser = speed_bin(chips, bins - 1);
    double coarse_headroom = 0.0;
    for (std::size_t i = 0; i < chips.size(); ++i)
      coarse_headroom +=
          coarser.bin_curve[static_cast<std::size_t>(coarser.bin_of_chip[i])]
              .vdd(top) -
          chips[i].vdd(top);
    EXPECT_LE(headroom, coarse_headroom + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(BinCounts, BinningProperty,
                         testing::Values(1, 2, 3, 4, 6, 8));

// ------------------------------------------- fault injection vs seed

// Invariants that must survive *any* seeded fault schedule (50 seeds):
// no task is ever silently lost, per-task requeues respect the retry
// budget, energy accounting stays positive and self-consistent, and the
// same seed replays the identical schedule bit for bit.
class FaultSeedProperty : public testing::TestWithParam<std::uint64_t> {
 protected:
  struct World {
    Cluster cluster;
    ProfileDb db;
    std::vector<Task> tasks;
    HybridSupply supply;
    World()
        : cluster(build_cluster([] {
            ClusterConfig cfg;
            cfg.num_processors = 10;
            cfg.seed = 71;
            return cfg;
          }())),
          db(cluster.size()),
          supply(SupplyTrace(Seconds{600.0},
                             std::vector<double>(300, 800.0))) {
      const Scanner scanner(&cluster, ScanConfig{});
      Rng rng(72);
      std::vector<std::size_t> all(cluster.size());
      std::iota(all.begin(), all.end(), 0);
      scanner.scan_domain(all, 0.0, rng, db);
      for (int i = 0; i < 30; ++i) {
        Task t;
        t.id = i + 1;
        t.submit_s = 200.0 * i;
        t.cpus = 1 + static_cast<std::size_t>(i) % 4;
        t.runtime_s = 300.0 + 80.0 * (i % 6);
        t.gamma = 0.4 + 0.1 * (i % 6);
        t.deadline_s = t.submit_s + 20.0 * t.runtime_s;
        tasks.push_back(t);
      }
    }
  };
  static const World& world() {
    static const World w;
    return w;
  }

  static SimResult run_faulty(std::uint64_t seed) {
    SimConfig cfg;
    cfg.record_timeline = true;
    // Aggressive enough that most seeds see failures mid-run.
    cfg.faults.crash_mtbf_s = 8.0 * 3600.0;
    cfg.faults.repair_mean_s = 1200.0;
    cfg.faults.misprofile_prob = 0.15;
    cfg.faults.misprofile_latency_mean_s = 600.0;
    cfg.faults.max_retries = 3;
    cfg.fault_seed = seed;
    Knowledge knowledge(&world().cluster,
                        scheme_knowledge(Scheme::kScanEffi), &world().db);
    DatacenterSim sim(&knowledge, scheme_rule(Scheme::kScanEffi),
                      &world().supply, cfg);
    return sim.run(world().tasks);
  }
};

TEST_P(FaultSeedProperty, NoTaskLostRetriesBoundedAndReplayable) {
  const std::uint64_t seed = GetParam();
  const SimResult r = run_faulty(seed);

  // Conservation: every submitted task either completed or was counted as
  // terminally failed -- nothing vanishes.
  EXPECT_EQ(r.tasks_completed + r.faults.tasks_failed,
            world().tasks.size());

  // Requeues per task never exceed the retry budget (timeline audit).
  std::map<std::int64_t, std::size_t> requeues;
  std::size_t abandons = 0;
  for (const TimelineEvent& e : r.timeline) {
    if (e.kind == TimelineKind::kTaskRequeue) ++requeues[e.task_id];
    if (e.kind == TimelineKind::kTaskAbandon) ++abandons;
  }
  std::size_t total_requeues = 0;
  for (const auto& [id, n] : requeues) {
    EXPECT_LE(n, 3u) << "task " << id;
    total_requeues += n;
  }
  EXPECT_EQ(total_requeues, r.faults.task_requeues);
  EXPECT_EQ(abandons, r.faults.tasks_failed);

  // Repairs never outnumber failures; lost work only when tasks died.
  EXPECT_LE(r.faults.cpu_repairs, r.faults.cpu_failures);
  EXPECT_GE(r.faults.lost_cpu_seconds, 0.0);
  if (r.faults.task_requeues == 0 && r.faults.tasks_failed == 0) {
    EXPECT_EQ(r.faults.lost_cpu_seconds, 0.0);
  }

  // Energy accounting stays sane under injection (the debug-mode energy
  // auditor additionally re-verifies conservation at every accrual).
  EXPECT_GT(r.energy.total().joules(), 0.0);
  EXPECT_GT(r.cost.dollars(), 0.0);
  for (const double b : r.busy_time_s) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, r.makespan.seconds() + 1e-6);
  }

  // Same seed => same schedule, bit for bit.
  const SimResult again = run_faulty(seed);
  EXPECT_EQ(r.cost.raw(), again.cost.raw());
  EXPECT_EQ(r.energy.utility.joules(), again.energy.utility.joules());
  EXPECT_EQ(r.tasks_completed, again.tasks_completed);
  EXPECT_EQ(r.faults.cpu_failures, again.faults.cpu_failures);
  EXPECT_EQ(r.faults.task_requeues, again.faults.task_requeues);
  EXPECT_EQ(r.faults.lost_cpu_seconds, again.faults.lost_cpu_seconds);
  ASSERT_EQ(r.timeline.size(), again.timeline.size());
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    EXPECT_EQ(r.timeline[i].time_s, again.timeline[i].time_s);
    EXPECT_EQ(r.timeline[i].kind, again.timeline[i].kind);
    EXPECT_EQ(r.timeline[i].task_id, again.timeline[i].task_id);
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, FaultSeedProperty,
                         testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace iscope
