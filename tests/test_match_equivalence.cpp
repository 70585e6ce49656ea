// Scheduler-equivalence suite (DESIGN.md Sec. 9).
//
// The production rematch path (SoA columns, the cached greedy trajectory
// PowerMatcher::match replays when only the wind moved, rank-scan
// placement) must be a pure performance change: the simulator's
// *decisions* have to match the reference oracle (match_reference over
// ActiveTask views plus PlacementPolicy::choose) bit for bit. These tests
// run the same scenario through both paths
// (SimConfig::use_reference_matcher) and compare every SimResult field,
// every trace sample, and every timeline event bitwise (sim_identity.hpp)
// -- across all five schemes, with and without wind, a battery, in-band
// profiling windows, active faults and two shards, on randomized clusters
// and workloads. GoldenResults.Matrix pins both paths to committed
// digests, and the matcher-scope property test walks random wind deltas
// against from-scratch solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <numeric>
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
    // Mutable knowledge so fault-active scenarios can quarantine; with no
    // faults this is behaviorally identical to the const-view constructor.
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks, profiling);
  }

  void check_equivalence(Scheme scheme, const std::vector<Task>& tasks,
                         const HybridSupply& supply, SimConfig cfg,
                         const std::vector<ProfilingWindow>& profiling = {})
      const {
    cfg.use_reference_matcher = false;
    const SimResult optimized = run(scheme, tasks, supply, cfg, profiling);
    cfg.use_reference_matcher = true;
    const SimResult reference = run(scheme, tasks, supply, cfg, profiling);
    expect_identical(optimized, reference);
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

// Each scenario below is written once and run on two draws, one under
// MatchEquivalence and one under IncrementalIdentity. Both hold the
// default path, which replays the cached greedy trajectory whenever only
// the wind moved (DESIGN.md Sec. 14), to the reference.

void all_schemes_utility_only(const Draw& d) {
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(40, d.tasks);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_equivalence(scheme, tasks, HybridSupply{}, SimConfig{});
  }
}

void all_schemes_with_wind(const Draw& d) {
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(40, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_equivalence(scheme, tasks, supply, SimConfig{});
  }
}

void with_battery(const Draw& d) {
  SimConfig cfg;
  cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0, /*power_kw=*/1.0);
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(35, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_equivalence(scheme, tasks, supply, cfg);
  }
}

void with_profiling_windows(const Draw& d) {
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
  s.check_equivalence(Scheme::kScanEffi, tasks, supply, SimConfig{}, windows);
  s.check_equivalence(Scheme::kScanRan, tasks, supply, SimConfig{}, windows);
}

void with_faults_active(const Draw& d) {
  const Scenario s(16, d.cluster);
  const auto tasks = s.make_tasks(40, d.tasks);
  const HybridSupply supply = s.make_supply(d.supply);
  SimConfig cfg;
  cfg.faults.crash_mtbf_s = 6.0 * 3600.0;
  cfg.faults.repair_mean_s = 900.0;
  cfg.faults.misprofile_prob = 0.2;
  cfg.fault_seed = d.faults;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair,
                              Scheme::kBinEffi}) {
    SCOPED_TRACE(scheme_name(scheme));
    s.check_equivalence(scheme, tasks, supply, cfg);
  }
}

TEST(MatchEquivalence, AllSchemesUtilityOnly) {
  all_schemes_utility_only(Draw{11, 21, 0});
}

TEST(MatchEquivalence, AllSchemesWithWind) {
  all_schemes_with_wind(Draw{13, 23, 31});
}

TEST(MatchEquivalence, RandomizedClustersAndWorkloads) {
  // Several independently-seeded cluster/workload/supply draws; the two
  // schemes with the most scheduling structure (Effi waits, Fair defers).
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE(seed);
    const Scenario s(12, seed);
    const auto tasks = s.make_tasks(30, seed * 3);
    const HybridSupply supply = s.make_supply(seed * 5);
    s.check_equivalence(Scheme::kScanEffi, tasks, supply, SimConfig{});
    s.check_equivalence(Scheme::kScanFair, tasks, supply, SimConfig{});
  }
}

TEST(MatchEquivalence, WithBattery) { with_battery(Draw{17, 27, 37}); }

TEST(MatchEquivalence, WithProfilingWindows) {
  with_profiling_windows(Draw{19, 29, 39});
}

TEST(MatchEquivalence, FaultsActiveOptimizedMatchesReference) {
  // The production path must stay bit-equivalent to the reference even
  // while CPUs crash, tasks requeue, and the knowledge view's quarantine
  // generation churns under it -- each of which invalidates the cached
  // trajectory mid-flight.
  with_faults_active(Draw{51, 59, 71, 13});
}

TEST(IncrementalIdentity, AllSchemesWithWind) {
  all_schemes_with_wind(Draw{111, 113, 117});
}

TEST(IncrementalIdentity, AllSchemesUtilityOnly) {
  // No wind: phase 2 never fires and the cached trajectories stay empty,
  // but the replay machinery still runs on every epoch -- it must be
  // inert.
  all_schemes_utility_only(Draw{121, 123, 0});
}

TEST(IncrementalIdentity, WithBattery) { with_battery(Draw{131, 133, 137}); }

TEST(IncrementalIdentity, WithProfilingWindows) {
  with_profiling_windows(Draw{141, 143, 147});
}

TEST(IncrementalIdentity, WithFaultsActive) {
  // Crashes, requeues and quarantine generation bumps all invalidate the
  // cache mid-flight; the fallback full solves must leave no trace.
  with_faults_active(Draw{151, 153, 157, 19});
}

TEST(MatchEquivalence, TwoShards) {
  // Each shard owns its own MatcherColumns and IncrementalMatchState, and
  // ShardedSim copies use_reference_matcher into every shard; the
  // epoch-barrier wind reconciliation must see identical per-shard demand
  // on both paths.
  const Scenario s(16, 161);
  const auto tasks = s.make_tasks(40, 163);
  const HybridSupply supply = s.make_supply(167);
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 2;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair}) {
    SCOPED_TRACE(scheme_name(scheme));
    const ProfileDb* db = scheme_uses_scan(scheme) ? &s.db : nullptr;
    SimConfig reference = cfg;
    reference.use_reference_matcher = true;
    ShardedSim sim_default(s.cluster, scheme, db, supply, cfg);
    ShardedSim sim_reference(s.cluster, scheme, db, supply, reference);
    expect_identical(sim_default.run(tasks), sim_reference.run(tasks));
  }
}

// ----------------------------------------------- golden result digests
//
// tests/data/golden/sim_digests.txt pins one result digest
// (sim_identity.hpp) per row of the full scenario product: the five paper
// schemes and ScanTherm x utility-only/wind x battery x profiling windows
// x faults x cooling/sleep mode x flat/2-shard simulator. Both matcher
// paths must reach the committed digest. The default-vs-reference suites
// above cannot see a change in code both paths share (kRandom placement,
// the Eq-3 slowdown the simulator applies); the pins can.

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
  schemes.push_back(ensure_extended_schemes_registered());

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

  auto run_row = [&](Scheme scheme, const GoldenAxes& ax, bool reference) {
    SimConfig cfg;
    cfg.record_trace = true;
    cfg.record_timeline = true;
    cfg.topology.cpus_per_rack = 2;
    cfg.use_reference_matcher = reference;
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
        const std::string fast =
            digest_hex(result_digest(run_row(scheme, ax, false)));
        const std::string ref =
            digest_hex(result_digest(run_row(scheme, ax, true)));
        EXPECT_EQ(fast, ref) << row << ": default and reference matcher differ";
        const auto it = golden.find(row);
        if (it == golden.end()) {
          ADD_FAILURE() << "row missing from " << path << "; ready to paste:\n"
                        << row << " " << fast;
          continue;
        }
        if (fast != it->second || ref != it->second) {
          ADD_FAILURE() << row << ": digest " << fast << " (reference " << ref
                        << ") != committed " << it->second
                        << "; ready to paste:\n"
                        << row << " " << fast;
        }
        golden.erase(it);
      }
    }
  }
  EXPECT_EQ(produced, 1152u);
  for (const auto& [row, digest] : golden)
    ADD_FAILURE() << "extra row in " << path << ": " << row;
}

// ----------------------------------------------- 50-seed delta property
//
// Matcher-scope property test: whatever wind-budget walk an epoch
// sequence throws at it, a `match` call that replays its cached trajectory
// must reproduce the from-scratch solve (`match` with a fresh state)
// exactly -- compute, demand, step count, and every per-row level, to the
// bit. The walk also perturbs task progress and the clock between epochs;
// when that moves a deadline floor the replay must be *refused* (the call
// re-solves) rather than replay a stale trajectory.

TEST(IncrementalProperty, RandomDeltaWalksAreExact) {
  ClusterConfig ccfg;
  ccfg.num_processors = 64;
  ccfg.seed = 5;
  const Cluster cluster = build_cluster(ccfg);
  const Knowledge knowledge(&cluster, KnowledgeSource::kBin);
  const PowerMatcher matcher(&knowledge, 1.4);
  const std::size_t levels = knowledge.levels();

  std::size_t hits = 0;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 1000 + 17);
    const auto rows =
        static_cast<std::size_t>(rng.uniform_int(1, 40));
    MatcherColumns cols;
    cols.reset(levels, rows);
    std::vector<double> power_row(levels);
    double now = 0.0;
    std::size_t next_proc = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double remaining = rng.uniform(50.0, 5000.0);
      const double deadline = remaining * rng.uniform(1.2, 12.0);
      cols.append(r, remaining, deadline);
      for (std::size_t l = 0; l < levels; ++l) {
        Watts p;
        for (int k = 0; k < 4; ++k)
          p += knowledge.power((next_proc + static_cast<std::size_t>(k)) %
                                   cluster.size(),
                               l);
        power_row[l] = p.raw();
      }
      next_proc += 4;
      cols.fill_row(r, rng.uniform(0.3, 1.0), matcher.slowdown_ratio(),
                    power_row.data());
    }

    IncrementalMatchState inc;
    // Zero-wind solve: phase 2 gated off, so the cache starts with an
    // empty trajectory AND no heap -- the first fitting epoch must take
    // the heap_built escape hatch and re-solve.
    const MatchResult cached = matcher.match(cols, Watts{}, now, inc);
    EXPECT_FALSE(cached.replayed);
    const double top_demand = cached.demand.raw();

    for (int step = 0; step < 40; ++step) {
      // Occasionally let the tasks progress and the clock move: floors
      // that survive keep the cache hot; floors that move must force a
      // refusal, never a stale replay.
      if (rng.uniform(0.0, 1.0) < 0.25) {
        now += rng.uniform(0.0, 300.0);
        for (std::size_t r = 0; r < rows; ++r)
          cols.remaining[r] =
              std::max(0.0, cols.remaining[r] - rng.uniform(0.0, 100.0));
      }
      const Watts wind{rng.uniform(0.0, 1.3 * top_demand)};
      MatcherColumns fresh = cols;
      IncrementalMatchState fresh_state;
      const MatchResult full = matcher.match(fresh, wind, now, fresh_state);
      EXPECT_FALSE(full.replayed);
      const MatchResult out = matcher.match(cols, wind, now, inc);
      ++total;
      if (out.replayed) ++hits;
      ASSERT_EQ(out.compute.raw(), full.compute.raw()) << "step " << step;
      ASSERT_EQ(out.demand.raw(), full.demand.raw()) << "step " << step;
      ASSERT_EQ(out.steps, full.steps) << "step " << step;
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(cols.level[r], fresh.level[r])
            << "step " << step << " row " << r;
    }
  }
  // The walk must actually exercise the replay path, not just fall back.
  EXPECT_GT(hits, total / 4);
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
