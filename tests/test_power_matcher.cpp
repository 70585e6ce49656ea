#include "sched/power_matcher.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hardware/cluster.hpp"
#include "matcher_rows.hpp"

namespace iscope {
namespace {

struct Fixture {
  Cluster cluster;
  Knowledge knowledge;
  PowerMatcher matcher;
  ReferenceMatcher reference{knowledge, matcher};

  Fixture()
      : cluster(build_cluster([] {
          ClusterConfig cfg;
          cfg.num_processors = 16;
          cfg.seed = 7;
          return cfg;
        }())),
        knowledge(&cluster, KnowledgeSource::kBin),
        matcher(&knowledge, 1.4) {}

  ActiveTask task(double work = 1000.0, double deadline = 1e9,
                  double gamma = 1.0,
                  std::vector<std::size_t> procs = {0, 1}) const {
    ActiveTask t;
    t.remaining_work_s = work;
    t.deadline_s = deadline;
    t.gamma = gamma;
    t.procs = std::move(procs);
    return t;
  }

  MatcherColumns rows(const std::vector<ActiveTask>& tasks) const {
    return matcher_rows(knowledge, matcher, tasks);
  }

  /// The production floor scan over `task`'s row at `now`.
  std::size_t floor_of(const ActiveTask& task, double now) const {
    const MatcherColumns cols = rows({task});
    std::size_t floor = 0;
    soa::floor_scan_rows(cols.slowdown.data(), cols.levels,
                         cols.remaining.data(), cols.deadline.data(), now, 1,
                         &floor);
    return floor;
  }

  /// The production energy-optimal level above deadline floor `floor`:
  /// `task`'s best_from table.
  std::size_t best_from(const ActiveTask& task, std::size_t floor) const {
    return rows({task}).best_from_row(0)[floor];
  }

  /// The production matcher.
  MatchResult match(MatcherColumns& cols, Watts wind, double now = 0.0) const {
    return matcher.match(cols, wind, now);
  }

  /// `count` random tasks on random processor sets, with deadlines from
  /// loose to infeasible so floors cover every level.
  std::vector<ActiveTask> random_tasks(Rng& rng, std::size_t count) const {
    std::vector<ActiveTask> tasks;
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::size_t> procs;
      const auto width = static_cast<std::size_t>(rng.uniform_int(1, 4));
      for (std::size_t k = 0; k < width; ++k)
        procs.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cluster.size()) - 1)));
      const double work = rng.uniform(50.0, 5000.0);
      tasks.push_back(task(work, work * rng.uniform(0.8, 4.0),
                           rng.uniform(0.0, 1.0), std::move(procs)));
    }
    return tasks;
  }
};

TEST(MinFeasibleLevel, LooseDeadlineAllowsBottom) {
  Fixture f;
  const ActiveTask t = f.task(1000.0, 1e9);
  EXPECT_EQ(f.floor_of(t, 0.0), 0u);
}

TEST(MinFeasibleLevel, TightDeadlineForcesTop) {
  Fixture f;
  // Work 1000 s at Fmax, deadline in 1000 s: only the top level fits.
  const ActiveTask t = f.task(1000.0, 1000.0);
  EXPECT_EQ(f.floor_of(t, 0.0), f.knowledge.levels() - 1);
}

TEST(MinFeasibleLevel, ImpossibleDeadlineStillTop) {
  Fixture f;
  const ActiveTask t = f.task(1000.0, 10.0);
  EXPECT_EQ(f.floor_of(t, 0.0), f.knowledge.levels() - 1);
}

TEST(MinFeasibleLevel, IntermediateDeadline) {
  Fixture f;
  // gamma=1: level freq 1.375 GHz has slowdown 2/1.375 = 1.4545...
  // 1000 * 1.4545 = 1454 s. Deadline 1500 from now admits level 2.
  const ActiveTask t = f.task(1000.0, 1500.0);
  const std::size_t l = f.floor_of(t, 0.0);
  EXPECT_EQ(l, 2u);
  // Moving "now" later tightens it.
  EXPECT_GT(f.floor_of(t, 400.0), l);
}

TEST(EnergyOptimal, NotTheBottomLevel) {
  // With beta = 65 dominating at low f, crawling wastes static energy:
  // the optimum must sit above the bottom level for a CPU-bound task.
  Fixture f;
  const ActiveTask t = f.task(1000.0, 1e9, 1.0);
  const std::size_t l = f.best_from(t, 0);
  EXPECT_GT(l, 0u);
  EXPECT_LT(l, f.knowledge.levels());
}

TEST(EnergyOptimal, RespectsFloor) {
  Fixture f;
  const ActiveTask t = f.task();
  const std::size_t top = f.knowledge.levels() - 1;
  EXPECT_EQ(f.best_from(t, top), top);
}

TEST(EnergyOptimal, IsActuallyOptimal) {
  Fixture f;
  ActiveTask t = f.task(1000.0, 1e9, 0.8, {3, 4, 5});
  const std::size_t best = f.best_from(t, 0);
  const auto energy = [&](std::size_t l) {
    return f.reference.task_power(t, l).watts() * f.reference.slowdown(t, l);
  };
  for (std::size_t l = 0; l < f.knowledge.levels(); ++l)
    EXPECT_GE(energy(l), energy(best) - 1e-9);
}

TEST(EnergyOptimal, IoBoundPrefersLowerFrequency) {
  // gamma = 0: runtime does not stretch, so the cheapest level is the
  // bottom one (pure power minimization).
  Fixture f;
  const ActiveTask t = f.task(1000.0, 1e9, 0.0);
  EXPECT_EQ(f.best_from(t, 0), 0u);
}

TEST(EnergyOptimal, TiesGoToTheHigherLevel) {
  // At equal energy the higher level wins (the task finishes sooner).
  // Real power rows almost never tie, so this row is made up: gamma = 0
  // makes every slowdown 1, and the energies alternate 40, 50, 40, ...
  // from the top level down, so the top level ties with every second
  // level below it and must win from every floor.
  Fixture f;
  const std::size_t levels = f.knowledge.levels();
  ASSERT_GE(levels, 3u);
  MatcherColumns cols;
  cols.reset(levels, 1);
  cols.append(0, 100.0, 1e9);
  for (std::size_t l = 0; l < levels; ++l)
    cols.power[l] = (levels - 1 - l) % 2 == 0 ? 40.0 : 50.0;
  cols.fill_row(0, 0.0, f.matcher.slowdown_ratio());
  for (std::size_t floor = 0; floor < levels; ++floor)
    EXPECT_EQ(cols.best_from_row(0)[floor], levels - 1) << "floor " << floor;
}

TEST(Match, EmptyTaskListIsZero) {
  Fixture f;
  MatcherColumns cols = f.rows({});
  const MatchResult r = f.match(cols, Watts{1000.0});
  EXPECT_DOUBLE_EQ(r.demand.watts(), 0.0);
  EXPECT_EQ(r.steps, 0u);
}

TEST(Match, NoWindRunsEnergyOptimalBaseline) {
  Fixture f;
  const std::vector<ActiveTask> tasks = {f.task(),
                                         f.task(500.0, 1e9, 0.9, {2, 3})};
  MatcherColumns cols = f.rows(tasks);
  const MatchResult r = f.match(cols, Watts{0.0});
  EXPECT_EQ(r.steps, 0u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t floor = f.reference.min_feasible_level(tasks[i], 0.0);
    EXPECT_EQ(cols.floor[i], floor);
    EXPECT_EQ(cols.level[i],
              f.reference.energy_optimal_level(tasks[i], floor));
  }
}

TEST(Match, AbundantWindKeepsBaseline) {
  Fixture f;
  MatcherColumns cols = f.rows({f.task()});
  const MatchResult r = f.match(cols, Watts{1e9});
  EXPECT_EQ(r.steps, 0u);
  EXPECT_LE(r.demand.watts(), 1e9);
}

TEST(Match, MidWindStepsDownToFit) {
  Fixture f;
  std::vector<ActiveTask> tasks;
  for (int i = 0; i < 4; ++i)
    tasks.push_back(f.task(1000.0, 1e9, 1.0,
                           {static_cast<std::size_t>(2 * i),
                            static_cast<std::size_t>(2 * i + 1)}));
  // Baseline demand:
  MatcherColumns probe = f.rows(tasks);
  const double baseline = f.match(probe, Watts{0.0}).demand.watts();
  // All-floor demand:
  double floor_w = 0.0;
  for (const auto& t : tasks) floor_w += f.reference.task_power(t, 0).watts();
  floor_w *= f.matcher.cooling_factor();
  // A budget between floor and baseline is reachable by stepping down.
  const double budget = 0.5 * (floor_w + baseline);
  MatcherColumns cols = f.rows(tasks);
  const MatchResult r = f.match(cols, Watts{budget});
  EXPECT_GT(r.steps, 0u);
  EXPECT_LE(r.demand.watts(), budget + 1e-9);
}

TEST(Match, UnreachableWindSkipsStretching) {
  // Wind below the all-floors demand: stretching would only defer utility
  // burn, so the matcher keeps the energy-optimal baseline (DESIGN.md /
  // Sec. V-C refinement).
  Fixture f;
  const std::vector<ActiveTask> tasks = {f.task(),
                                         f.task(800.0, 1e9, 1.0, {4, 5})};
  MatcherColumns calm = f.rows(tasks);
  const MatchResult no_wind = f.match(calm, Watts{0.0});
  MatcherColumns breeze = f.rows(tasks);
  const MatchResult tiny_wind = f.match(breeze, Watts{1.0});
  EXPECT_EQ(tiny_wind.steps, 0u);
  EXPECT_DOUBLE_EQ(tiny_wind.demand.watts(), no_wind.demand.watts());
}

TEST(Match, DeadlineFloorsAreRespected) {
  Fixture f;
  // Tight deadline: floor at the top level; wind pressure must not push it
  // below.
  MatcherColumns cols = f.rows({f.task(1000.0, 1000.0)});
  const MatchResult r = f.match(cols, Watts{10.0});
  EXPECT_EQ(cols.level[0], f.knowledge.levels() - 1);
  EXPECT_GT(r.demand.watts(), 10.0);  // utility will supplement
}

TEST(Match, DemandIncludesCoolingFactor) {
  Fixture f;
  MatcherColumns cols = f.rows({f.task()});
  const MatchResult r = f.match(cols, Watts{0.0});
  EXPECT_NEAR(r.demand.watts(), r.compute.watts() * 1.4, 1e-9);
}

TEST(Match, Deterministic) {
  Fixture f;
  const std::vector<ActiveTask> tasks = {f.task(),
                                         f.task(500.0, 5000.0, 0.7, {2, 3})};
  MatcherColumns a = f.rows(tasks);
  MatcherColumns b = f.rows(tasks);
  const MatchResult ra = f.match(a, Watts{300.0});
  const MatchResult rb = f.match(b, Watts{300.0});
  EXPECT_EQ(ra.demand.watts(), rb.demand.watts());
  EXPECT_EQ(a.level[0], b.level[0]);
  EXPECT_EQ(a.level[1], b.level[1]);
}

TEST(Match, AgreesWithReferenceOnRandomRows) {
  // One set of rows per seed across a walk of wind budgets, so later calls
  // run on the outputs and scratch earlier calls left behind; every call
  // must equal the reference oracle's independent solve bit for bit.
  Fixture f;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::vector<ActiveTask> tasks =
        f.random_tasks(rng, static_cast<std::size_t>(rng.uniform_int(1, 8)));
    MatcherColumns cols = f.rows(tasks);
    for (int call = 0; call < 10; ++call) {
      const Watts wind{rng.uniform(0.0, 600.0)};
      const MatchResult r = f.matcher.match(cols, wind, 0.0);
      std::vector<ActiveTask> ref = tasks;
      const MatchResult want = f.reference.match(ref, wind, 0.0);
      ASSERT_EQ(r.compute.watts(), want.compute.watts()) << "call " << call;
      ASSERT_EQ(r.demand.watts(), want.demand.watts()) << "call " << call;
      ASSERT_EQ(r.steps, want.steps) << "call " << call;
      for (std::size_t i = 0; i < tasks.size(); ++i)
        ASSERT_EQ(cols.level[i], ref[i].level) << "call " << call;
    }
  }
}

TEST(MatchKernels, FloorScanAndBestFromAgreeWithReference) {
  // The SoA kernels against the oracle's per-task walks: floor_scan_rows
  // must equal min_feasible_level, and best_from[f] must equal
  // energy_optimal_level(f) for every floor f.
  Fixture f;
  Rng rng(41);
  const std::size_t levels = f.knowledge.levels();
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<ActiveTask> tasks = f.random_tasks(rng, 8);
    const MatcherColumns cols = f.rows(tasks);
    const double now = rng.uniform(0.0, 2000.0);
    std::vector<std::size_t> floor(cols.count);
    soa::floor_scan_rows(cols.slowdown.data(), levels, cols.remaining.data(),
                         cols.deadline.data(), now, cols.count, floor.data());
    for (std::size_t r = 0; r < cols.count; ++r) {
      EXPECT_EQ(floor[r], f.reference.min_feasible_level(tasks[r], now))
          << "row " << r;
      for (std::size_t fl = 0; fl < levels; ++fl)
        EXPECT_EQ(cols.best_from_row(r)[fl],
                  f.reference.energy_optimal_level(tasks[r], fl))
            << "row " << r << " floor " << fl;
    }
  }
}

TEST(Match, TaskPowerSumsProcessors) {
  Fixture f;
  ActiveTask t = f.task(100.0, 1e9, 1.0, {0, 1, 2});
  const std::size_t top = f.knowledge.levels() - 1;
  const double expect = f.knowledge.power(0, top).watts() +
                        f.knowledge.power(1, top).watts() +
                        f.knowledge.power(2, top).watts();
  EXPECT_DOUBLE_EQ(f.reference.task_power(t, top).watts(), expect);
}

TEST(Match, Validation) {
  Fixture f;
  EXPECT_THROW(PowerMatcher(nullptr, 1.4), InvalidArgument);
  EXPECT_THROW(PowerMatcher(&f.knowledge, 0.9), InvalidArgument);
  MatcherColumns cols = f.rows({f.task()});
  EXPECT_THROW(f.matcher.match(cols, Watts{-1.0}, 0.0), InvalidArgument);
}

}  // namespace
}  // namespace iscope
