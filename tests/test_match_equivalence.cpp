// Scheduler-equivalence suite (DESIGN.md Sec. 9).
//
// The production rematch path (SoA columns, PowerMatcher::match's
// one-call solve, bitset placement) must make the reference oracle's
// decisions (reference_scheduler.hpp: a per-task matcher over ActiveTask
// views and vector placement) bit for bit. The unit suites check that
// per call. Here each MatchEquivalence and IncrementalIdentity draw --
// all five schemes, with and without wind, a battery, in-band profiling
// windows, active faults and two shards, on randomized clusters and
// workloads -- runs once and must reproduce its pinned result digest
// (sim_identity.hpp: every SimResult field, trace sample and timeline
// event), taken from a simulator that ran both and found them equal
// (tests/data/golden/equivalence_digests.txt).
// GoldenResults.Matrix pins the full scenario product the same way, and
// the matcher-scope property test walks random wind budgets on reused
// rows against rows rebuilt from the same inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "profiling/scanner.hpp"
#include "sched/power_matcher.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim_identity.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

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

  /// Randomized workload: mixed widths, runtimes, CPU-boundness, and
  /// deadline tightness (some forced starts, some loose waits).
  std::vector<Task> make_tasks(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Task> tasks;
    tasks.reserve(count);
    double submit = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      submit += rng.uniform(0.0, 400.0);
      Task t;
      t.id = static_cast<std::int64_t>(i + 1);
      t.submit_s = submit;
      t.cpus = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(cluster.size() / 2)));
      t.runtime_s = rng.uniform(100.0, 2000.0);
      t.gamma = rng.uniform(0.3, 1.0);
      t.deadline_s = t.submit_s + t.runtime_s * rng.uniform(1.5, 10.0);
      tasks.push_back(t);
    }
    return tasks;
  }

  /// A wind trace whose level crosses the facility's demand regime.
  HybridSupply make_supply(std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<double> watts;
    const std::size_t steps = 200;
    const double peak =
        estimated_peak_power(cluster).watts();
    for (std::size_t i = 0; i < steps; ++i)
      watts.push_back(rng.uniform(0.0, 0.9 * peak));
    return HybridSupply(SupplyTrace(Seconds{600.0}, std::move(watts)));
  }

  static Watts estimated_peak_power(const Cluster& cluster) {
    Watts total;
    const std::size_t top = cluster.levels().freq_ghz.size() - 1;
    for (std::size_t p = 0; p < cluster.size(); ++p)
      total += cluster.power(p, top, Volts{cluster.levels().vdd_nom[top]});
    return total;
  }

  SimResult run(Scheme scheme, const std::vector<Task>& tasks,
                const HybridSupply& supply, SimConfig cfg,
                const std::vector<ProfilingWindow>& profiling = {}) const {
    cfg.record_trace = true;
    cfg.record_timeline = true;
    const Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                              scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks, profiling);
  }

  /// The run's result digest, as the pinned rows store it.
  std::string digest(Scheme scheme, const std::vector<Task>& tasks,
                     const HybridSupply& supply, const SimConfig& cfg,
                     const std::vector<ProfilingWindow>& profiling = {}) const {
    return digest_hex(
        result_digest(run(scheme, tasks, supply, cfg, profiling)));
  }
};

/// Seeds of one scenario draw: cluster, workload, wind trace and fault
/// plan.
struct Draw {
  std::uint64_t cluster;
  std::uint64_t tasks;
  std::uint64_t supply;
  std::uint64_t faults = 0;
};

/// The digests of one test's runs, keyed `<draw>/<scheme>`.
using DrawRows = std::map<std::string, std::string>;

std::string row_key(const Draw& d, Scheme scheme) {
  std::ostringstream key;
  key << "seeds=" << d.cluster << "," << d.tasks << "," << d.supply << ","
      << d.faults << "/" << scheme_name(scheme);
  return key.str();
}

const std::string& pinned_path() {
  static const std::string path =
      std::string(ISCOPE_TEST_DATA_DIR) + "/golden/equivalence_digests.txt";
  return path;
}

/// tests/data/golden/equivalence_digests.txt holds one
/// `<test>/<draw>/<scheme> <digest>` row per run of the suites below. The
/// running test's committed rows must be exactly `produced`: a missing or
/// moved row fails with a ready-to-paste line, a committed row the test no
/// longer runs fails as extra. Nothing regenerates the file.
void expect_pinned(const DrawRows& produced) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test =
      std::string(info->test_suite_name()) + "." + info->name();
  std::map<std::string, std::string> golden = read_golden_rows(pinned_path());
  for (const auto& [key, digest] : produced) {
    const std::string row = test + "/" + key;
    const auto it = golden.find(row);
    if (it == golden.end()) {
      ADD_FAILURE() << "row missing from " << pinned_path()
                    << "; ready to paste:\n"
                    << row << " " << digest;
      continue;
    }
    if (it->second != digest) {
      ADD_FAILURE() << row << ": digest " << digest << " != committed "
                    << it->second << "; ready to paste:\n"
                    << row << " " << digest;
    }
    golden.erase(it);
  }
  for (const auto& [row, digest] : golden)
    if (row.rfind(test + "/", 0) == 0)
      ADD_FAILURE() << "extra row in " << pinned_path() << ": " << row;
}

// Each scenario below is written once and run on two draws, one under
// MatchEquivalence and one under IncrementalIdentity. The second suite's
// name, kept because its rows are pinned under it, dates from a matcher
// cache that is gone: every rematch solves from scratch (DESIGN.md
// Sec. 14).

DrawRows all_schemes_utility_only(const Draw& d) {
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(40, d.tasks);
  DrawRows rows;
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    rows[row_key(d, scheme)] =
        s.digest(scheme, tasks, HybridSupply{}, SimConfig{});
  }
  return rows;
}

DrawRows all_schemes_with_wind(const Draw& d) {
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(40, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  DrawRows rows;
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    rows[row_key(d, scheme)] =
        s.digest(scheme, tasks, supply, SimConfig{});
  }
  return rows;
}

DrawRows with_battery(const Draw& d) {
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(35, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  DrawRows rows;
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    rows[row_key(d, scheme)] = s.digest(scheme, tasks, supply, cfg);
  }
  return rows;
}

DrawRows with_profiling_windows(const Draw& d) {
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 4; ++w) {
    ProfilingWindow win;
    win.start_s = 500.0 + 2500.0 * static_cast<double>(w);
    win.duration_s = 900.0;
    win.proc_ids = {w, w + 4, w + 8};
    windows.push_back(win);
  }
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(35, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  DrawRows rows;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanRan}) {
    SCOPED_TRACE(scheme_name(scheme));
    rows[row_key(d, scheme)] =
        s.digest(scheme, tasks, supply, SimConfig{}, windows);
  }
  return rows;
}

DrawRows with_faults_active(const Draw& d) {
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(40, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  SimConfig cfg;
  cfg.faults.crash_mtbf_s = 6.0 * 3600.0;
  cfg.faults.repair_mean_s = 900.0;
  cfg.faults.misprofile_prob = 0.2;
  cfg.fault_seed = d.faults;
  DrawRows rows;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair,
                              Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    rows[row_key(d, scheme)] = s.digest(scheme, tasks, supply, cfg);
  }
  return rows;
}

TEST(MatchEquivalence, AllSchemesUtilityOnly) {
  expect_pinned(all_schemes_utility_only(Draw{11, 21, 0}));
}

TEST(MatchEquivalence, AllSchemesWithWind) {
  expect_pinned(all_schemes_with_wind(Draw{13, 23, 31}));
}

TEST(MatchEquivalence, RandomizedClustersAndWorkloads) {
  // Several independently-seeded cluster/workload/supply draws; the two
  // schemes with the most scheduling structure (Effi waits, Fair defers).
  DrawRows rows;
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE(seed);
    const Draw d{seed, seed * 3, seed * 5};
    const Scenario s(12, d.cluster);
    const auto tasks = s.make_tasks(30, d.tasks);
    const HybridSupply supply = s.make_supply(d.supply);
    for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair})
      rows[row_key(d, scheme)] =
          s.digest(scheme, tasks, supply, SimConfig{});
  }
  expect_pinned(rows);
}

TEST(MatchEquivalence, WithBattery) {
  expect_pinned(with_battery(Draw{17, 27, 37}));
}

TEST(MatchEquivalence, WithProfilingWindows) {
  expect_pinned(with_profiling_windows(Draw{19, 29, 39}));
}

TEST(MatchEquivalence, FaultsActiveOptimizedMatchesReference) {
  // The pinned results hold while CPUs crash and tasks requeue --
  // requeues remove rows mid-flight.
  expect_pinned(with_faults_active(Draw{51, 59, 71, 13}));
}

TEST(IncrementalIdentity, AllSchemesWithWind) {
  expect_pinned(all_schemes_with_wind(Draw{111, 113, 117}));
}

TEST(IncrementalIdentity, AllSchemesUtilityOnly) {
  // No wind: phase 2's gate never opens, so every rematch is phase 1
  // alone.
  expect_pinned(all_schemes_utility_only(Draw{121, 123, 0}));
}

TEST(IncrementalIdentity, WithBattery) {
  expect_pinned(with_battery(Draw{131, 133, 137}));
}

TEST(IncrementalIdentity, WithProfilingWindows) {
  expect_pinned(with_profiling_windows(Draw{141, 143, 147}));
}

TEST(IncrementalIdentity, WithFaultsActive) {
  // Crashes and requeues remove rows mid-flight; the rows left behind
  // must keep their start order.
  expect_pinned(with_faults_active(Draw{151, 153, 157, 19}));
}

TEST(MatchEquivalence, TwoShards) {
  // Each shard owns its own MatcherColumns; the epoch-barrier wind
  // reconciliation must see the per-shard demand the pinned results were
  // reached with.
  const Draw d{161, 163, 167};
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(40, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 2;
  DrawRows rows;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair}) {
    SCOPED_TRACE(scheme_name(scheme));
    const ProfileDb* db = scheme_uses_scan(scheme) ? &s.db : nullptr;
    ShardedSim sim(s.cluster, scheme, db, supply, cfg);
    rows[row_key(d, scheme)] = digest_hex(result_digest(sim.run(tasks)));
  }
  expect_pinned(rows);
}

TEST(EquivalencePins, EveryRowNamesATest) {
  // expect_pinned catches extra rows under a running test's name; a row
  // whose test does not exist would never be read, so it fails here.
  std::set<std::string> tests;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    for (int j = 0; j < suite.total_test_count(); ++j)
      tests.insert(std::string(suite.name()) + "." +
                   suite.GetTestInfo(j)->name());
  }
  for (const auto& [row, digest] : read_golden_rows(pinned_path()))
    EXPECT_EQ(tests.count(row.substr(0, row.find('/'))), 1u)
        << "row names no test: " << row;
}

// ----------------------------------------------- golden result digests
//
// tests/data/golden/sim_digests.txt pins one result digest
// (sim_identity.hpp) per row of the full scenario product: the five paper
// schemes and ScanTherm x utility-only/wind x battery x profiling windows
// x faults x cooling/sleep mode x flat/2-shard simulator, each taken from
// a simulator that ran the reference oracle beside it and matched. Each
// row runs once and must reach its committed digest.

/// The cooling/sleep axis, written as the row's `thermal=` value: the
/// thermal model with or without the timeout governor, and each sleep
/// policy on the flat Eq-2 cooling path (the *Sleep schemes' setting).
struct CoolingMode {
  const char* name;
  bool thermal;
  SleepPolicy sleep;
};
constexpr std::array<CoolingMode, 6> kCoolingModes = {{
    {"off", false, SleepPolicy::kNone},
    {"on", true, SleepPolicy::kTimeout},
    {"only", true, SleepPolicy::kNone},
    {"off+active-idle", false, SleepPolicy::kActiveIdle},
    {"off+immediate", false, SleepPolicy::kImmediate},
    {"off+timeout", false, SleepPolicy::kTimeout},
}};

struct GoldenAxes {
  bool wind = false;
  bool battery = false;
  bool profiling = false;
  bool faults = false;
  CoolingMode cooling = kCoolingModes[0];
  bool sharded = false;
};

std::string golden_row_name(Scheme scheme, const GoldenAxes& ax) {
  auto on = [](bool b) { return b ? "on" : "off"; };
  std::ostringstream name;
  name << scheme_name(scheme) << "/supply=" << (ax.wind ? "wind" : "utility")
       << "/battery=" << on(ax.battery) << "/profiling=" << on(ax.profiling)
       << "/faults=" << on(ax.faults) << "/thermal=" << ax.cooling.name
       << "/sim=" << (ax.sharded ? "2shard" : "flat");
  return name.str();
}

TEST(GoldenResults, Matrix) {
  // The committed rows: `<row> <digest>` per line, blank lines ignored.
  const std::string path =
      std::string(ISCOPE_TEST_DATA_DIR) + "/golden/sim_digests.txt";
  std::map<std::string, std::string> golden = read_golden_rows(path);

  std::vector<Scheme> schemes(kAllSchemes.begin(), kAllSchemes.end());
  schemes.push_back(Scheme::kScanTherm);

  const Scenario s(16, 211);
  const auto tasks = s.make_tasks(30, 213);
  const HybridSupply windy = s.make_supply(217);
  const HybridSupply utility_only;
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 3; ++w) {
    ProfilingWindow win;
    win.start_s = 600.0 + 2700.0 * static_cast<double>(w);
    win.duration_s = 800.0;
    win.proc_ids = {w, w + 5, w + 11};
    windows.push_back(win);
  }
  const std::vector<ProfilingWindow> no_windows;

  auto run_row = [&](Scheme scheme, const GoldenAxes& ax) {
    SimConfig cfg;
    cfg.record_trace = true;
    cfg.record_timeline = true;
    cfg.topology.cpus_per_rack = 2;
    if (ax.battery)
      cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0,
                                        /*power_kw=*/1.0);
    if (ax.faults) {
      cfg.faults.crash_mtbf_s = 6.0 * 3600.0;
      cfg.faults.repair_mean_s = 900.0;
      cfg.faults.misprofile_prob = 0.2;
      cfg.fault_seed = 29;
    }
    cfg.thermal.enabled = ax.cooling.thermal;
    cfg.sleep.policy = ax.cooling.sleep;
    const HybridSupply& supply = ax.wind ? windy : utility_only;
    const std::vector<ProfilingWindow>& profiling =
        ax.profiling ? windows : no_windows;
    const ProfileDb* db = scheme_uses_scan(scheme) ? &s.db : nullptr;
    if (ax.sharded) {
      cfg.topology.shards = 2;
      ShardedSim sim(s.cluster, scheme, db, supply, cfg);
      return sim.run(tasks, profiling);
    }
    Knowledge knowledge(&s.cluster, scheme_knowledge(scheme), db);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks, profiling);
  };

  std::size_t produced = 0;
  for (const Scheme scheme : schemes) {
    for (const CoolingMode& cooling : kCoolingModes) {
      for (unsigned bits = 0; bits < 32; ++bits) {
        GoldenAxes ax;
        ax.wind = (bits & 1u) != 0;
        ax.battery = (bits & 2u) != 0;
        ax.profiling = (bits & 4u) != 0;
        ax.faults = (bits & 8u) != 0;
        ax.cooling = cooling;
        ax.sharded = (bits & 16u) != 0;
        const std::string row = golden_row_name(scheme, ax);
        ++produced;
        const std::string digest =
            digest_hex(result_digest(run_row(scheme, ax)));
        const auto it = golden.find(row);
        if (it == golden.end()) {
          ADD_FAILURE() << "row missing from " << path << "; ready to paste:\n"
                        << row << " " << digest;
          continue;
        }
        if (digest != it->second) {
          ADD_FAILURE() << row << ": digest " << digest << " != committed "
                        << it->second << "; ready to paste:\n"
                        << row << " " << digest;
        }
        golden.erase(it);
      }
    }
  }
  EXPECT_EQ(produced, 1152u);
  for (const auto& [row, digest] : golden)
    ADD_FAILURE() << "extra row in " << path << ": " << row;
}

// ----------------------------------------------- 50-seed reuse property
//
// Matcher-scope property test: `match` keeps nothing between calls. A walk
// of calls on one set of rows -- random wind budgets, with task progress
// and the clock moving between some of them, which moves deadline floors
// -- must give at every call what the same call gives on rows rebuilt
// from the same inputs: compute, demand, step count, and every per-row
// level, to the bit. The fresh rows are rebuilt, not copied, so nothing
// the reused rows carry from earlier calls (levels, floors, the down-step
// heap) reaches them.

TEST(MatchProperty, ReusedRowsEqualRebuiltRows) {
  ClusterConfig ccfg;
  ccfg.num_processors = 64;
  ccfg.seed = 5;
  const Cluster cluster = build_cluster(ccfg);
  const Knowledge knowledge(&cluster, KnowledgeSource::kBin);
  const PowerMatcher matcher(&knowledge, 1.4);
  const std::size_t levels = knowledge.levels();

  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 1000 + 17);
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<double> remaining(rows);
    std::vector<double> deadline(rows);
    std::vector<double> gamma(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      remaining[r] = rng.uniform(50.0, 5000.0);
      deadline[r] = remaining[r] * rng.uniform(1.2, 12.0);
      gamma[r] = rng.uniform(0.3, 1.0);
    }
    // Row r sums the power of processors 4r .. 4r+3 (mod the cluster).
    const auto build = [&] {
      MatcherColumns cols;
      cols.reset(levels, rows);
      for (std::size_t r = 0; r < rows; ++r) {
        cols.append(r, remaining[r], deadline[r]);
        for (std::size_t l = 0; l < levels; ++l) {
          Watts p;
          for (std::size_t k = 0; k < 4; ++k)
            p += knowledge.power((4 * r + k) % cluster.size(), l);
          cols.power[r * levels + l] = p.raw();
        }
        cols.fill_row(r, gamma[r], matcher.slowdown_ratio());
      }
      return cols;
    };

    MatcherColumns cols = build();
    double now = 0.0;
    // No wind: phase 1 alone, whose demand scales the walk's budgets.
    const double top_demand = matcher.match(cols, Watts{}, now).demand.raw();

    for (int step = 0; step < 40; ++step) {
      if (rng.uniform(0.0, 1.0) < 0.25) {
        now += rng.uniform(0.0, 300.0);
        for (std::size_t r = 0; r < rows; ++r) {
          remaining[r] =
              std::max(0.0, remaining[r] - rng.uniform(0.0, 100.0));
          cols.remaining[r] = remaining[r];
        }
      }
      const Watts wind{rng.uniform(0.0, 1.3 * top_demand)};
      MatcherColumns fresh = build();
      const MatchResult full = matcher.match(fresh, wind, now);
      const MatchResult out = matcher.match(cols, wind, now);
      ASSERT_EQ(out.compute.raw(), full.compute.raw()) << "step " << step;
      ASSERT_EQ(out.demand.raw(), full.demand.raw()) << "step " << step;
      ASSERT_EQ(out.steps, full.steps) << "step " << step;
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(cols.level[r], fresh.level[r])
            << "step " << step << " row " << r;
    }
  }
}

// ----------------------------------------------- zero-fault identity
//
// The fault layer's core contract (src/fault/fault.hpp): a run with the
// default SimConfig (no FaultSpec, no plan) and a run handed an explicitly
// empty FaultPlan must both be bit-identical to each other -- the fault
// machinery may not perturb a single event, draw, or accumulation when it
// has nothing to inject.

TEST(ZeroFaultIdentity, EmptyPlanIsBitIdenticalAllSchemes) {
  const Scenario s(16, 43);
  const auto tasks = s.make_tasks(40, 53);
  const HybridSupply supply = s.make_supply(61);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    SimConfig plain;                   // never heard of faults
    SimConfig with_empty_plan;         // explicit empty plan wired through
    with_empty_plan.fault_plan = std::make_shared<const FaultPlan>();
    const SimResult a = s.run(scheme, tasks, supply, plain);
    const SimResult b = s.run(scheme, tasks, supply, with_empty_plan);
    expect_identical(a, b);
    EXPECT_EQ(b.faults.cpu_failures, 0u);
    EXPECT_EQ(b.faults.task_requeues, 0u);
    EXPECT_EQ(b.faults.tasks_failed, 0u);
    EXPECT_EQ(b.faults.lost_cpu_seconds, 0.0);
  }
}

TEST(ZeroFaultIdentity, WithBatteryAndProfilingWindows) {
  const Scenario s(16, 47);
  const auto tasks = s.make_tasks(35, 57);
  const HybridSupply supply = s.make_supply(67);
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 3; ++w) {
    ProfilingWindow win;
    win.start_s = 800.0 + 3000.0 * static_cast<double>(w);
    win.duration_s = 600.0;
    win.proc_ids = {w, w + 5, w + 10};
    windows.push_back(win);
  }
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kBinRan}) {
    SCOPED_TRACE(scheme_name(scheme));
    SimConfig with_empty_plan = cfg;
    with_empty_plan.fault_plan = std::make_shared<const FaultPlan>();
    const SimResult a = s.run(scheme, tasks, supply, cfg, windows);
    const SimResult b = s.run(scheme, tasks, supply, with_empty_plan,
                              windows);
    expect_identical(a, b);
  }
}

// ----------------------------------------------- telemetry-off identity
//
// The telemetry subsystem's core contract (DESIGN.md Sec. 11): spans,
// counters, and the epoch sampler are pure observers. A run with telemetry
// enabled must produce a bit-identical SimResult to one with it disabled --
// same events, same draws, same accumulations -- because instrumentation
// schedules no events and touches no simulator state.

class TelemetryOffIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(false);
    telemetry::reset_global_telemetry();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset_global_telemetry();
  }
};

TEST_F(TelemetryOffIdentity, EnabledRunIsBitIdenticalAllSchemes) {
  const Scenario s(16, 71);
  const auto tasks = s.make_tasks(40, 73);
  const HybridSupply supply = s.make_supply(79);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    telemetry::set_enabled(false);
    const SimResult off = s.run(scheme, tasks, supply, SimConfig{});
    telemetry::set_enabled(true);
    const SimResult on = s.run(scheme, tasks, supply, SimConfig{});
    telemetry::set_enabled(false);
    expect_identical(off, on);
  }
  // The instrumented runs actually produced telemetry (unless the whole
  // subsystem was compiled out).
#ifndef ISCOPE_TELEMETRY_OFF
  EXPECT_GT(telemetry::SampleLog::global().size(), 0u);
  EXPECT_GT(telemetry::TraceLog::global().total_events(), 0u);
#endif
}

TEST_F(TelemetryOffIdentity, WithBatteryProfilingAndFaults) {
  // The hardest mix: battery arbitration, in-band profiling windows, and
  // an active fault plan all share the event queue the sampler piggybacks
  // on. Telemetry must still not perturb a single draw.
  const Scenario s(16, 83);
  const auto tasks = s.make_tasks(35, 89);
  const HybridSupply supply = s.make_supply(97);
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  cfg.faults.crash_mtbf_s = 6.0 * 3600.0;
  cfg.faults.repair_mean_s = 900.0;
  cfg.faults.misprofile_prob = 0.2;
  cfg.fault_seed = 17;
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 3; ++w) {
    ProfilingWindow win;
    win.start_s = 700.0 + 2800.0 * static_cast<double>(w);
    win.duration_s = 700.0;
    win.proc_ids = {w, w + 4, w + 9};
    windows.push_back(win);
  }
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    telemetry::set_enabled(false);
    const SimResult off = s.run(scheme, tasks, supply, cfg, windows);
    telemetry::set_enabled(true);
    const SimResult on = s.run(scheme, tasks, supply, cfg, windows);
    telemetry::set_enabled(false);
    expect_identical(off, on);
  }
}

TEST(MatchEquivalence, ReusedSimulatorStaysEquivalent) {
  // Back-to-back runs on one simulator (warm scratch buffers) must behave
  // exactly like a fresh one.
  const Scenario s(12, 23);
  const auto tasks = s.make_tasks(25, 33);
  const HybridSupply supply = s.make_supply(43);
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  const Knowledge knowledge(&s.cluster, scheme_knowledge(Scheme::kScanEffi),
                            &s.db);
  DatacenterSim sim(&knowledge, scheme_rule(Scheme::kScanEffi), &supply, cfg);
  const SimResult first = sim.run(tasks);
  const SimResult second = sim.run(tasks);
  expect_identical(first, second);
}

}  // namespace
}  // namespace iscope
