// Thermal/CRAC + C-state sleep subsystem contracts (DESIGN.md Sec. 16).
//
//  * ThermalOffIdentity: thermal disabled + sleep kNone is bit-identical
//    to a default-config run even when every inert knob is changed -- the
//    subsystem must be provably absent when off.
//  * Model unit contracts: the COP curve, the recirculation matrix's
//    structure (middle racks recirculate more than end racks), and the
//    CRAC operating-point solve (clamping, derate).
//  * Accounting: thermal billing replaces the flat Eq-2 factor; sleep
//    residency power is metered; counters move only under their policy.
//  * Determinism: a 1-shard ShardedSim with thermal + sleep on is
//    bit-identical to the flat simulator; an N-shard run is independent
//    of shard_workers; step_until() slicing across wake boundaries is
//    bit-identical to one drain (PR 9 clock-fix coverage, sleep edition).
//  * Extended schemes: ScanTherm forces the thermal model on; the *Sleep
//    variants force a sleep policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "profiling/scanner.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim_identity.hpp"
#include "thermal/thermal.hpp"

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

  SimConfig base_config() const {
    SimConfig cfg;
    cfg.record_trace = true;
    cfg.record_timeline = true;
    cfg.topology.cpus_per_rack = 2;
    return cfg;
  }

  SimResult run_flat(Scheme scheme, const std::vector<Task>& tasks,
                     const HybridSupply& supply, const SimConfig& cfg) const {
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks);
  }

  SimResult run_sharded(Scheme scheme, const std::vector<Task>& tasks,
                        const HybridSupply& supply, SimConfig cfg,
                        std::size_t shards, std::size_t workers) const {
    cfg.topology.shards = shards;
    cfg.shard_workers = workers;
    ShardedSim sim(cluster, scheme, scheme_uses_scan(scheme) ? &db : nullptr,
                   supply, cfg);
    return sim.run(tasks);
  }
};

// ------------------------------------------------------------ model units

TEST(ThermalModel, CracCopCurveMatchesMooreEtAl) {
  // COP(T) = 0.0068 T^2 + 0.0008 T + 0.458.
  EXPECT_DOUBLE_EQ(crac_cop(25.0), 0.0068 * 625.0 + 0.0008 * 25.0 + 0.458);
  EXPECT_DOUBLE_EQ(crac_cop(15.0), 0.0068 * 225.0 + 0.0008 * 15.0 + 0.458);
  // Colder supply is strictly less efficient.
  EXPECT_LT(crac_cop(15.0), crac_cop(25.0));
}

TEST(ThermalModel, MatrixMiddleRacksRecirculateMore) {
  ThermalConfig cfg;
  cfg.enabled = true;
  TopologyConfig topo;
  topo.cpus_per_rack = 2;
  topo.racks_per_row = 8;  // one aisle row, ends vs middle well-defined
  const RecirculationMatrix m(cfg, topo, /*racks=*/8);
  ASSERT_EQ(m.racks(), 8u);
  // Rows are normalized, so the diagonal is not the raw self-coupling --
  // but self-coupling still dominates every row, and nothing is negative.
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_GE(m.at(i, j), 0.0);
      if (j != i) {
        EXPECT_GT(m.at(i, i), m.at(i, j)) << i << "," << j;
      }
    }
  }
  // A watt in a mid-row rack raises more total inlet temperature than a
  // watt at the row's end (geedo0's MinHR ranking rationale).
  double max_end = std::max(m.heat_weight(0), m.heat_weight(7));
  double min_mid = std::min(m.heat_weight(3), m.heat_weight(4));
  EXPECT_GT(min_mid, max_end);
}

TEST(ThermalModel, SolveClampsSupplyAndReportsPeak) {
  ThermalConfig cfg;
  cfg.enabled = true;
  TopologyConfig topo;
  topo.cpus_per_rack = 2;
  const ThermalModel model(cfg, topo, 4);

  // No load: no recirculation, the CRAC relaxes to its warmest supply.
  ThermalSolution idle = model.solve({0.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(idle.supply_c, cfg.max_supply_c);
  EXPECT_DOUBLE_EQ(idle.max_rise_c, 0.0);
  EXPECT_DOUBLE_EQ(idle.peak_inlet_c, cfg.max_supply_c);

  // Moderate load: supply drops to hold the hottest inlet at the red line.
  ThermalSolution warm = model.solve({2000.0, 2000.0, 2000.0, 2000.0});
  EXPECT_LT(warm.supply_c, cfg.max_supply_c);
  EXPECT_GE(warm.supply_c, cfg.min_supply_c);
  EXPECT_GT(warm.peak_inlet_c, warm.supply_c);
  EXPECT_LE(warm.peak_inlet_c, cfg.red_line_c + 1e-9);

  // Extreme load: the supply pegs at its floor and the inlets run past
  // the red line -- reported, not hidden.
  ThermalSolution hot = model.solve({9e4, 9e4, 9e4, 9e4});
  EXPECT_DOUBLE_EQ(hot.supply_c, cfg.min_supply_c);
  EXPECT_GT(hot.peak_inlet_c, cfg.red_line_c);

  // A degraded CRAC delivers the same air at a worse COP.
  ThermalSolution derated = model.solve({2000.0, 2000.0, 2000.0, 2000.0}, 0.5);
  EXPECT_DOUBLE_EQ(derated.supply_c, warm.supply_c);
  EXPECT_LT(derated.cop, warm.cop);
}

// solve() returns its last solution when the rack watts and the derate are
// bitwise equal to the last call's. A random walk over exact repeats,
// one-ulp moves, signed zeros, derate-only changes and returns to an
// earlier vector must give, every step, the bits a fresh model gives.
TEST(ThermalModel, MemoizedSolveEqualsFreshSolve) {
  ThermalConfig cfg;
  cfg.enabled = true;
  TopologyConfig topo;
  topo.cpus_per_rack = 2;
  topo.racks_per_row = 4;
  const std::size_t racks = 12;
  const ThermalModel memoized(cfg, topo, racks);

  auto same_bits = [](const ThermalSolution& a, const ThermalSolution& b) {
    return std::bit_cast<std::uint64_t>(a.supply_c) ==
               std::bit_cast<std::uint64_t>(b.supply_c) &&
           std::bit_cast<std::uint64_t>(a.cop) ==
               std::bit_cast<std::uint64_t>(b.cop) &&
           std::bit_cast<std::uint64_t>(a.max_rise_c) ==
               std::bit_cast<std::uint64_t>(b.max_rise_c) &&
           std::bit_cast<std::uint64_t>(a.peak_inlet_c) ==
               std::bit_cast<std::uint64_t>(b.peak_inlet_c);
  };

  Rng rng(163);
  std::vector<double> w(racks, 0.0);
  for (double& x : w) x = rng.uniform(0.0, 3000.0);
  std::vector<double> before = w;
  double derate = 1.0;
  std::size_t derate_moves = 0;
  for (int step = 0; step < 400; ++step) {
    const std::vector<double> previous = w;
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(racks) - 1));
    switch (rng.uniform_int(0, 5)) {
      case 0:  // exact repeat
        break;
      case 1:  // one ulp in one rack
        w[k] = std::nextafter(w[k], rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : 1e9);
        break;
      case 2:  // a signed zero
        w[k] = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
        break;
      case 3: {  // the derate alone
        const double factors[] = {1.0, 0.5, 0.8, std::nextafter(1.0, 0.0)};
        derate = factors[rng.uniform_int(0, 3)];
        ++derate_moves;
        break;
      }
      case 4:  // back to the vector before the last step
        w = before;
        break;
      default:
        w[k] = rng.uniform(0.0, 3000.0);
        break;
    }
    before = previous;
    const ThermalModel fresh(cfg, topo, racks);
    const ThermalSolution want = fresh.solve(w, derate);
    const ThermalSolution got = memoized.solve(w, derate);
    ASSERT_TRUE(same_bits(got, want))
        << "step " << step << ": cop " << got.cop << " vs " << want.cop
        << ", supply " << got.supply_c << " vs " << want.supply_c;
  }
  EXPECT_GT(derate_moves, 20u);
}

// ----------------------------------------------------- off-path identity

TEST(ThermalOffIdentity, DisabledKnobsAreInert) {
  // thermal.enabled=false + sleep kNone must be bit-identical to a config
  // that never mentioned either subsystem, whatever the inert knobs say.
  const Scenario s(16, 101);
  const auto tasks = s.make_tasks(30, 6, 201);
  const HybridSupply supply = s.make_supply(301);
  for (const Scheme scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimResult base = s.run_flat(scheme, tasks, supply, s.base_config());
    SimConfig knobs = s.base_config();
    knobs.thermal.red_line_c = 99.0;
    knobs.thermal.self_coupling_k_per_w = 1.0;
    knobs.thermal.cross_row_coupling = 0.9;
    knobs.sleep.timeout_s = 1.0;
    knobs.sleep.active_idle_frac = 0.99;
    const SimResult tweaked = s.run_flat(scheme, tasks, supply, knobs);
    expect_identical(base, tweaked);
    // And the subsystem's outputs are provably absent.
    EXPECT_EQ(base.cooling_energy.joules(), 0.0);
    EXPECT_EQ(base.idle_energy.joules(), 0.0);
    EXPECT_EQ(base.peak_inlet_c, 0.0);
    EXPECT_EQ(base.sleep_enters, 0u);
    EXPECT_EQ(base.sleep_wakes, 0u);
  }
}

// ---------------------------------------------------------- accounting

TEST(ThermalAccounting, EnabledModelBillsCoolingAndTracksPeakInlet) {
  const Scenario s(16, 103);
  const auto tasks = s.make_tasks(30, 6, 203);
  const HybridSupply supply = s.make_supply(303);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  const SimResult r = s.run_flat(Scheme::kScanEffi, tasks, supply, cfg);
  EXPECT_GT(r.cooling_energy.joules(), 0.0);
  EXPECT_GE(r.peak_inlet_c, cfg.thermal.min_supply_c);
  EXPECT_EQ(r.tasks_completed, tasks.size());
  // The CRAC bill moved: thermal billing is not the flat Eq-2 overhead.
  const SimResult flat =
      s.run_flat(Scheme::kScanEffi, tasks, supply, s.base_config());
  EXPECT_NE(r.cost.raw(), flat.cost.raw());
}

TEST(ThermalAccounting, CracDerateWindowRaisesTheCoolingBill) {
  const Scenario s(16, 107);
  const auto tasks = s.make_tasks(30, 6, 207);
  const HybridSupply supply = s.make_supply(307);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  const SimResult healthy = s.run_flat(Scheme::kScanFair, tasks, supply, cfg);
  cfg.faults = parse_fault_spec("crac=0.5,crac-start=0,crac-duration=20000");
  const SimResult degraded = s.run_flat(Scheme::kScanFair, tasks, supply, cfg);
  EXPECT_GT(degraded.cooling_energy.joules(), healthy.cooling_energy.joules());
}

TEST(SleepAccounting, ActiveIdleBillsResidencyButNeverSleeps) {
  const Scenario s(16, 109);
  const auto tasks = s.make_tasks(25, 6, 209);
  const HybridSupply supply = s.make_supply(309);
  SimConfig cfg = s.base_config();
  cfg.sleep.policy = SleepPolicy::kActiveIdle;
  const SimResult r = s.run_flat(Scheme::kScanEffi, tasks, supply, cfg);
  EXPECT_GT(r.idle_energy.joules(), 0.0);
  EXPECT_EQ(r.sleep_enters, 0u);
  EXPECT_EQ(r.sleep_wakes, 0u);
  EXPECT_EQ(r.tasks_completed, tasks.size());
}

TEST(SleepAccounting, ImmediatePolicySleepsDeepAndDelaysStarts) {
  const Scenario s(16, 113);
  const auto tasks = s.make_tasks(25, 6, 211);
  const HybridSupply supply = s.make_supply(311);
  SimConfig active = s.base_config();
  active.sleep.policy = SleepPolicy::kActiveIdle;
  SimConfig deep = s.base_config();
  deep.sleep.policy = SleepPolicy::kImmediate;
  const SimResult base = s.run_flat(Scheme::kScanEffi, tasks, supply, active);
  const SimResult r = s.run_flat(Scheme::kScanEffi, tasks, supply, deep);
  EXPECT_GT(r.sleep_enters, 0u);
  EXPECT_GT(r.sleep_wakes, 0u);  // cold facility: first starts must wake
  EXPECT_EQ(r.tasks_completed, tasks.size());
  // Sleeping saves residency energy relative to the honest idle baseline...
  EXPECT_LT(r.idle_energy.joules(), base.idle_energy.joules());
  // ...at the price of wake latency on the critical path.
  EXPECT_GE(r.makespan.seconds(), base.makespan.seconds());
}

TEST(SleepAccounting, TimeoutPolicyDescendsAfterResidency) {
  const Scenario s(16, 127);
  const auto tasks = s.make_tasks(20, 6, 213);
  const HybridSupply supply = s.make_supply(313);
  SimConfig cfg = s.base_config();
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 50.0;  // short: idle gaps comfortably exceed it
  const SimResult r = s.run_flat(Scheme::kScanFair, tasks, supply, cfg);
  EXPECT_GT(r.sleep_enters, 0u);
  EXPECT_EQ(r.tasks_completed, tasks.size());
}

// ---------------------------------------------------------- determinism

TEST(ThermalDeterminism, OneShardShardedMatchesFlat) {
  const Scenario s(24, 131);
  const auto tasks = s.make_tasks(30, 8, 217);
  const HybridSupply supply = s.make_supply(317);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 120.0;
  for (const Scheme scheme : {Scheme::kScanEffi, Scheme::kScanFair}) {
    SCOPED_TRACE(scheme_name(scheme));
    const SimResult flat = s.run_flat(scheme, tasks, supply, cfg);
    const SimResult sharded =
        s.run_sharded(scheme, tasks, supply, cfg, /*shards=*/1, /*workers=*/1);
    expect_identical(flat, sharded);
  }
}

TEST(ThermalDeterminism, MultiShardRunIsWorkerCountIndependent) {
  const Scenario s(24, 137);
  const auto tasks = s.make_tasks(30, 6, 219);
  const HybridSupply supply = s.make_supply(319);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kImmediate;
  cfg.topology.shards = 2;
  const SimResult serial =
      s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg, 2, 1);
  const SimResult two =
      s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg, 2, 2);
  const SimResult eight =
      s.run_sharded(Scheme::kScanEffi, tasks, supply, cfg, 2, 8);
  expect_identical(serial, two);
  expect_identical(serial, eight);
  EXPECT_GT(serial.cooling_energy.joules(), 0.0);
}

// tests/data/golden/thermal_shard_digests.txt pins one digest per
// `<scheme>/<shards>/faults=/battery=/sleep=` row: ScanTherm and ScanFair
// with thermal on, flat and at 2, 4 and 8 shards over 8 racks, with or
// without crashes, mis-profiles and a CRAC derate window that opens and
// closes while tasks run. Deadlines are loose, so every run ends in idle
// barrier rounds after its last completion. The red line sits at the
// supply ceiling, so every rise moves the supply and the cooling bill: a
// wrong solve cannot hide under the clamp. Each sharded row is reached
// at 1 and at 4 workers. A missing or moved row prints a ready-to-paste
// line and an extra row fails; nothing regenerates the file.
TEST(ThermalDeterminism, PinnedShardedDigests) {
  const Scenario s(16, 157);
  std::vector<Task> tasks;
  {
    Rng rng(229);
    double submit = 0.0;
    for (std::size_t i = 0; i < 40; ++i) {
      submit += rng.uniform(0.0, 400.0);
      Task t;
      t.id = static_cast<std::int64_t>(i + 1);
      t.submit_s = submit;
      t.cpus = static_cast<std::size_t>(rng.uniform_int(1, 2));
      t.runtime_s = rng.uniform(100.0, 2000.0);
      t.gamma = rng.uniform(0.3, 1.0);
      t.deadline_s = t.submit_s + t.runtime_s * rng.uniform(3.0, 20.0);
      tasks.push_back(t);
    }
  }
  const HybridSupply supply = s.make_supply(329);

  const std::string path =
      std::string(ISCOPE_TEST_DATA_DIR) + "/golden/thermal_shard_digests.txt";
  std::map<std::string, std::string> golden = read_golden_rows(path);
  auto expect_row = [&](const std::string& row, const std::string& digest) {
    const auto it = golden.find(row);
    if (it == golden.end()) {
      ADD_FAILURE() << "row missing from " << path << "; ready to paste:\n"
                    << row << " " << digest;
      return;
    }
    if (digest != it->second)
      ADD_FAILURE() << row << ": digest " << digest << " != committed "
                    << it->second << "; ready to paste:\n"
                    << row << " " << digest;
    golden.erase(it);
  };

  for (const Scheme scheme : {Scheme::kScanTherm, Scheme::kScanFair}) {
    for (unsigned bits = 0; bits < 8; ++bits) {
      const bool faults = (bits & 1u) != 0;
      const bool battery = (bits & 2u) != 0;
      const bool sleep = (bits & 4u) != 0;
      SimConfig cfg = s.base_config();
      cfg.thermal.enabled = true;
      cfg.thermal.red_line_c = cfg.thermal.max_supply_c;
      if (faults) {
        cfg.faults = parse_fault_spec(
            "mtbf=21600,repair=900,misprofile=0.3,misprofile-latency=300,"
            "crac=0.5,crac-start=2000,crac-duration=3000");
        cfg.fault_seed = 31;
      }
      if (battery)
        cfg.battery = BatteryConfig::make(/*capacity_kwh=*/2.0,
                                          /*power_kw=*/1.0);
      if (sleep) cfg.sleep.policy = SleepPolicy::kTimeout;
      const std::string axes = std::string("/faults=") + (faults ? "1" : "0") +
                               "/battery=" + (battery ? "1" : "0") +
                               "/sleep=" + (sleep ? "timeout" : "none");
      const std::string name = scheme_name(scheme);
      const SimResult flat =
          run_scheme(s.cluster, scheme, &s.db, supply, tasks, cfg);
      expect_row(name + "/flat" + axes, digest_hex(result_digest(flat)));
      if (faults) {
        EXPECT_GT(flat.faults.cpu_failures, 0u);
        EXPECT_GT(flat.faults.misprofile_failures, 0u);
      }
      for (const std::size_t shards : {2u, 4u, 8u}) {
        const std::string row =
            name + "/shards=" + std::to_string(shards) + axes;
        SCOPED_TRACE(row);
        SimConfig sharded = cfg;
        sharded.topology.shards = shards;
        std::string digests[2];
        for (const std::size_t workers : {1u, 4u}) {
          sharded.shard_workers = workers;
          ShardedSim sim(s.cluster, scheme, &s.db, supply, sharded);
          sim.prepare(tasks);
          while (!sim.drained()) sim.advance_round();
          const double drained_at = sim.barrier_s();
          const SimResult r = sim.collect();
          // Idle rounds follow the last completion.
          EXPECT_GT(drained_at, r.makespan.seconds() + 10.0 * cfg.epoch_s);
          digests[workers == 1 ? 0 : 1] = digest_hex(result_digest(r));
        }
        EXPECT_EQ(digests[1], digests[0]) << "4 workers moved the result";
        expect_row(row, digests[0]);
      }
    }
  }
  for (const auto& [row, digest] : golden)
    ADD_FAILURE() << "extra row in " << path << ": " << row;
}

// Satellite 1 (sim level): a wake event pending at a slice boundary is
// not skipped when step_until() slices the run -- chunked execution with
// sleep transitions is bit-identical to one uninterrupted drain.
TEST(ThermalDeterminism, SlicedStepUntilCrossesWakeBoundaries) {
  const Scenario s(16, 139);
  const auto tasks = s.make_tasks(25, 6, 221);
  const HybridSupply supply = s.make_supply(321);
  SimConfig cfg = s.base_config();
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kImmediate;  // every start pays a wake

  // Idle power never stops, so the result depends on the final clock
  // position; drive both runs to the same end instant and compare.
  const double t_end = 200000.0;

  Knowledge k1(&s.cluster, KnowledgeSource::kScan, &s.db);
  DatacenterSim whole(&k1, PlacementRule::kEfficiency, &supply, cfg);
  whole.prepare(tasks);
  whole.step_until(t_end);  // one uninterrupted slice
  ASSERT_TRUE(whole.drained());
  const SimResult one = whole.finish();
  ASSERT_GT(one.sleep_wakes, 0u);

  Knowledge k2(&s.cluster, KnowledgeSource::kScan, &s.db);
  DatacenterSim sliced(&k2, PlacementRule::kEfficiency, &supply, cfg);
  sliced.prepare(tasks);
  // 37 s slices land between (not on) event times, so kWake events keep
  // crossing slice boundaries.
  for (double t = 37.0; t < t_end; t += 37.0) sliced.step_until(t);
  sliced.step_until(t_end);
  ASSERT_TRUE(sliced.drained());
  expect_identical(one, sliced.finish());
}

// ------------------------------------------------------ extended schemes

TEST(ExtendedSchemes, ScanThermForcesTheThermalModelOn) {
  const Scenario s(16, 149);
  const auto tasks = s.make_tasks(25, 6, 223);
  const HybridSupply supply = s.make_supply(323);
  const SimResult r = run_scheme(s.cluster, Scheme::kScanTherm, &s.db, supply,
                                 tasks, s.base_config());
  EXPECT_GT(r.cooling_energy.joules(), 0.0);  // thermal billing active
  EXPECT_GT(r.peak_inlet_c, 0.0);
  EXPECT_EQ(r.tasks_completed, tasks.size());
}

TEST(ExtendedSchemes, SleepVariantsForceASleepPolicy) {
  const Scenario s(16, 151);
  const auto tasks = s.make_tasks(20, 6, 227);
  const HybridSupply supply = s.make_supply(327);
  const Scheme scheme = Scheme::kScanEffiSleep;
  const SimResult r =
      run_scheme(s.cluster, scheme, &s.db, supply, tasks, s.base_config());
  EXPECT_GT(r.idle_energy.joules(), 0.0);  // residency power billed
  EXPECT_EQ(r.tasks_completed, tasks.size());
  // The caller's explicit policy wins over the scheme default.
  SimConfig explicit_cfg = s.base_config();
  explicit_cfg.sleep.policy = SleepPolicy::kActiveIdle;
  const SimResult honest =
      run_scheme(s.cluster, scheme, &s.db, supply, tasks, explicit_cfg);
  EXPECT_EQ(honest.sleep_enters, 0u);
}

}  // namespace
}  // namespace iscope
