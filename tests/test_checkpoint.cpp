// Checkpoint/restore contracts (DESIGN.md Sec. 15, service/checkpoint.hpp).
//
//  * Resume determinism: run-to-completion == run / checkpoint / restore /
//    run, compared bitwise on the full SimResult -- across all five
//    schemes, +- battery, +- profiling windows, +- fault injection, and
//    through the sharded coordinator.
//  * Randomized cut points: 50 seeds checkpoint at an arbitrary epoch of an
//    arbitrary scheme's run and must still resume bit-identically.
//  * Rejection: bad magic, version skew (v2 golden blobs included), a
//    checksum mismatch, kind mismatch, identity mismatch and truncation at
//    every prefix length raise CheckpointError -- never a crash, never a
//    silently wrong simulator.
//  * Streamed admission: prepare({}) + admit() in submit order == one batch
//    prepare(tasks) (the daemon's equivalence contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "energy/hybrid_supply.hpp"
#include "profiling/scanner.hpp"
#include "service/checkpoint.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "checkpoint_seal.hpp"
#include "sim_identity.hpp"

namespace iscope {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Small fully-scanned facility (mirrors tests/test_shard.cpp).
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

  SimResult run_batch(Scheme scheme, const std::vector<Task>& tasks,
                      const HybridSupply& supply, const SimConfig& cfg,
                      const std::vector<ProfilingWindow>& profiling = {})
      const {
    Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                        scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, cfg);
    return sim.run(tasks, profiling);
  }

  /// The tentpole invariant: step to `ck_time`, checkpoint, restore into a
  /// freshly constructed simulator, run both to completion -- bitwise
  /// equal SimResults. Saving is non-destructive, so the checkpointed
  /// simulator itself continues as the uninterrupted baseline. When the
  /// cut lands inside the run (ck <= makespan) the baseline is further
  /// required to equal a plain batch run(); past the end the clock parks
  /// at ck and finish() accrues the extra idle interval in both runs
  /// identically -- deterministic, but not a state a batch run visits.
  void check_roundtrip(Scheme scheme, const std::vector<Task>& tasks,
                       const HybridSupply& supply, const SimConfig& cfg,
                       double ck_time,
                       const std::vector<ProfilingWindow>& profiling = {})
      const {
    Knowledge k1(&cluster, scheme_knowledge(scheme),
                 scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim1(&k1, scheme_rule(scheme), &supply, cfg);
    sim1.prepare(tasks, profiling);
    sim1.step_until(ck_time);
    const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

    Knowledge k2(&cluster, scheme_knowledge(scheme),
                 scheme_uses_scan(scheme) ? &db : nullptr);
    DatacenterSim sim2(&k2, scheme_rule(scheme), &supply, cfg);
    sim2.prepare({}, {});
    restore_from_bytes(sim2, blob.data(), blob.size());

    sim1.advance_before(kInf);
    const SimResult uninterrupted = sim1.finish();
    sim2.advance_before(kInf);
    const SimResult resumed = sim2.finish();
    expect_identical(uninterrupted, resumed);

    if (ck_time <= uninterrupted.makespan.seconds()) {
      const SimResult batch =
          run_batch(scheme, tasks, supply, cfg, profiling);
      expect_identical(batch, resumed);
    }
  }
};

std::vector<ProfilingWindow> spread_windows(std::size_t procs) {
  std::vector<ProfilingWindow> windows;
  for (std::size_t w = 0; w < 4; ++w) {
    ProfilingWindow win;
    win.start_s = 500.0 + 2500.0 * static_cast<double>(w);
    win.duration_s = 900.0;
    win.proc_ids = {w, (w + procs / 3) % procs, (w + 2 * procs / 3) % procs};
    windows.push_back(win);
  }
  return windows;
}

SimConfig base_config() {
  SimConfig cfg;
  cfg.record_trace = true;
  cfg.record_timeline = true;
  return cfg;
}

// --- the full scheme x battery x profiling x faults matrix ----------------

TEST(Checkpoint, AllSchemesMidRun) {
  const Scenario sc(24, 11);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 21);
  const HybridSupply supply = sc.make_supply(31);
  for (const Scheme scheme : kAllSchemes)
    sc.check_roundtrip(scheme, tasks, supply, base_config(), 5000.0);
}

TEST(Checkpoint, WithBattery) {
  const Scenario sc(24, 12);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 22);
  const HybridSupply supply = sc.make_supply(32);
  SimConfig cfg = base_config();
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi})
    sc.check_roundtrip(scheme, tasks, supply, cfg, 4000.0);
}

TEST(Checkpoint, WithProfilingWindows) {
  const Scenario sc(24, 13);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 23);
  const HybridSupply supply = sc.make_supply(33);
  const std::vector<ProfilingWindow> windows = spread_windows(24);
  // Cut inside the third window (start 5500, duration 900) so in-flight
  // scan state crosses the checkpoint.
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kScanEffi})
    sc.check_roundtrip(scheme, tasks, supply, base_config(), 5900.0, windows);
}

TEST(Checkpoint, WithFaults) {
  const Scenario sc(24, 14);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 24);
  const HybridSupply supply = sc.make_supply(34);
  SimConfig cfg = base_config();
  cfg.faults.crash_mtbf_s = 40000.0;
  cfg.faults.repair_mean_s = 900.0;
  cfg.faults.misprofile_prob = 0.05;
  cfg.fault_seed = 99;
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kScanRan})
    sc.check_roundtrip(scheme, tasks, supply, cfg, 4500.0);
}

TEST(Checkpoint, EverythingAtOnce) {
  const Scenario sc(24, 15);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 25);
  const HybridSupply supply = sc.make_supply(35);
  SimConfig cfg = base_config();
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  cfg.faults.crash_mtbf_s = 50000.0;
  cfg.faults.repair_mean_s = 1200.0;
  cfg.fault_seed = 7;
  sc.check_roundtrip(Scheme::kScanFair, tasks, supply, cfg, 5200.0,
                     spread_windows(24));
}

// The pending kFault event carries the index of the next crash/repair in
// the plan's merged order; each simulator reads it through a cursor that
// only moves forward unless asked for an index behind it. A simulator that
// ran past the cut and then restores it must rewind, or it resumes with
// the wrong processor's fault.
SimConfig rewind_fault_config() {
  SimConfig cfg = base_config();
  cfg.faults = parse_fault_spec("mtbf=12000,repair=600,misprofile=0.1");
  cfg.fault_seed = 404;
  return cfg;
}

TEST(Checkpoint, FaultCursorRewindsOnRestore) {
  const Scenario sc(24, 45);
  const std::vector<Task> tasks = sc.make_tasks(60, 6, 55);
  const HybridSupply supply = sc.make_supply(65);
  const SimConfig cfg = rewind_fault_config();
  const SimResult uninterrupted =
      sc.run_batch(Scheme::kScanFair, tasks, supply, cfg);
  ASSERT_GT(uninterrupted.faults.cpu_failures, 10u);

  Knowledge k(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  DatacenterSim sim(&k, scheme_rule(Scheme::kScanFair), &supply, cfg);
  sim.prepare(tasks, {});
  sim.step_until(3000.0);
  const std::vector<std::uint8_t> blob = checkpoint_bytes(sim);
  sim.step_until(9000.0);  // the cursor moves well past the cut
  ASSERT_GT(sim.events_processed(), 0u);
  restore_from_bytes(sim, blob.data(), blob.size());
  sim.advance_before(kInf);
  expect_identical(uninterrupted, sim.finish());
}

TEST(Checkpoint, ShardedFaultCursorsRewindOnRestore) {
  const Scenario sc(24, 46);
  const std::vector<Task> tasks = sc.make_tasks(60, 3, 56);
  const HybridSupply supply = sc.make_supply(66);
  SimConfig cfg = rewind_fault_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 4;
  cfg.shard_workers = 2;

  ShardedSim batch(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  const SimResult uninterrupted = batch.run(tasks);
  ASSERT_GT(uninterrupted.faults.cpu_failures, 10u);

  ShardedSim sim(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim.prepare(tasks, {});
  for (int round = 0; round < 5 && !sim.drained(); ++round)
    sim.advance_round();
  const std::vector<std::uint8_t> blob = checkpoint_bytes(sim);
  for (int round = 0; round < 10 && !sim.drained(); ++round)
    sim.advance_round();
  restore_from_bytes(sim, blob.data(), blob.size());
  while (!sim.drained()) sim.advance_round();
  expect_identical(uninterrupted, sim.collect());
}

// --- thermal + sleep state across the checkpoint -------------------------

TEST(Checkpoint, ThermalAndSleepAllSchemesMidRun) {
  // Pending kThermal/kSleepEnter/kWake events, per-processor C-state
  // ladders and the CRAC operating point all cross the cut.
  const Scenario sc(24, 41);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 51);
  const HybridSupply supply = sc.make_supply(61);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 120.0;
  for (const Scheme scheme : kAllSchemes)
    sc.check_roundtrip(scheme, tasks, supply, cfg, 5000.0);
}

TEST(Checkpoint, ThermalSleepWithBatteryAndCracFault) {
  const Scenario sc(24, 42);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 52);
  const HybridSupply supply = sc.make_supply(62);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kImmediate;
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  // Cut inside the degraded-CRAC window so the derated operating point is
  // the one that crosses the checkpoint.
  cfg.faults = parse_fault_spec(
      "mtbf=50000,repair=1200,crac=0.4,crac-start=3000,crac-duration=9000");
  cfg.fault_seed = 7;
  for (const Scheme scheme : {Scheme::kScanFair, Scheme::kBinEffi})
    sc.check_roundtrip(scheme, tasks, supply, cfg, 5200.0);
}

TEST(Checkpoint, ScanThermSchemeRoundtrip) {
  // The kTherm placement rule derives its order from the recirculation
  // matrix; load() must reinstall it before the rank tables rebuild.
  const Scenario sc(24, 43);
  const std::vector<Task> tasks = sc.make_tasks(40, 6, 53);
  const HybridSupply supply = sc.make_supply(63);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;  // run_scheme would set this for ScanTherm
  sc.check_roundtrip(Scheme::kScanTherm, tasks, supply, cfg, 5000.0);
}

TEST(Checkpoint, ShardedThermalRoundtrip) {
  const Scenario sc(24, 44);
  const std::vector<Task> tasks = sc.make_tasks(40, 3, 54);
  const HybridSupply supply = sc.make_supply(64);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 4;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 180.0;

  ShardedSim batch(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  const SimResult expected = batch.run(tasks);
  EXPECT_GT(expected.cooling_energy.joules(), 0.0);

  ShardedSim sim1(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim1.prepare(tasks, {});
  for (int round = 0; round < 8 && !sim1.drained(); ++round)
    sim1.advance_round();
  const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

  ShardedSim sim2(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim2.prepare({}, {});
  restore_from_bytes(sim2, blob.data(), blob.size());
  while (!sim2.drained()) sim2.advance_round();
  expect_identical(expected, sim2.collect());
}

// The coordinator keeps its rack power vector across rounds and re-collects
// only shards marked stale. A restore into a simulator that already ran
// another trace must mark every shard stale, or the first barrier after it
// solves the thermal model over the other trace's racks. The red line sits
// at the supply ceiling, so every rise moves the supply and the cooling
// bill: a wrong solve cannot hide under the clamp.
TEST(Checkpoint, ShardedThermalRestoreAfterAnotherTrace) {
  const Scenario sc(24, 44);
  const std::vector<Task> tasks = sc.make_tasks(40, 3, 54);
  const std::vector<Task> other = sc.make_tasks(25, 3, 55);
  const HybridSupply supply = sc.make_supply(64);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 4;
  cfg.shard_workers = 4;
  cfg.thermal.enabled = true;
  cfg.thermal.red_line_c = cfg.thermal.max_supply_c;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 180.0;

  ShardedSim sim1(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim1.prepare(tasks, {});
  for (int round = 0; round < 8 && !sim1.drained(); ++round)
    sim1.advance_round();
  const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);
  while (!sim1.drained()) sim1.advance_round();
  const SimResult uninterrupted = sim1.collect();

  ShardedSim sim2(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim2.prepare(other, {});
  while (!sim2.drained()) sim2.advance_round();
  restore_from_bytes(sim2, blob.data(), blob.size());
  while (!sim2.drained()) sim2.advance_round();
  expect_identical(uninterrupted, sim2.collect());
}

// --- randomized cut points over 50 seeds ----------------------------------

TEST(Checkpoint, RandomizedEpochsFiftySeeds) {
  const Scenario sc(16, 16);
  const HybridSupply supply = sc.make_supply(36);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 1000 + 17);
    const Scheme scheme = kAllSchemes[seed % kAllSchemes.size()];
    const std::vector<Task> tasks = sc.make_tasks(20, 4, seed + 41);
    SimConfig cfg = base_config();
    // Unaligned cut points exercise mid-epoch, mid-task, pre-first-event
    // and past-the-end positions alike.
    const double ck = rng.uniform(0.0, 15000.0);
    SCOPED_TRACE("seed " + std::to_string(seed) + " scheme " +
                 scheme_name(scheme) + " ck " + std::to_string(ck));
    sc.check_roundtrip(scheme, tasks, supply, cfg, ck);
  }
}

// --- sharded coordinator round-trip ---------------------------------------

TEST(Checkpoint, ShardedRoundtrip) {
  const Scenario sc(24, 18);
  const std::vector<Task> tasks = sc.make_tasks(40, 3, 28);
  const HybridSupply supply = sc.make_supply(38);
  SimConfig cfg = base_config();
  cfg.topology.cpus_per_rack = 2;
  cfg.topology.shards = 4;

  ShardedSim batch(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  const SimResult expected = batch.run(tasks);

  ShardedSim sim1(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim1.prepare(tasks, {});
  for (int round = 0; round < 8 && !sim1.drained(); ++round)
    sim1.advance_round();
  const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

  ShardedSim sim2(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
  sim2.prepare({}, {});
  restore_from_bytes(sim2, blob.data(), blob.size());
  while (!sim2.drained()) sim2.advance_round();
  const SimResult resumed = sim2.collect();

  expect_identical(expected, resumed);
}

// --- streamed admission == batch prepare ----------------------------------

TEST(Checkpoint, StreamedAdmissionMatchesBatch) {
  const Scenario sc(24, 19);
  std::vector<Task> tasks = sc.make_tasks(40, 6, 29);
  const HybridSupply supply = sc.make_supply(39);
  const SimConfig cfg = base_config();

  const SimResult batch =
      sc.run_batch(Scheme::kScanFair, tasks, supply, cfg);

  Knowledge k(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  DatacenterSim sim(&k, scheme_rule(Scheme::kScanFair), &supply, cfg);
  sim.prepare({}, {});
  sort_by_submit(tasks);
  // Interleave admission with clock advances. The first admit happens at
  // clock 0 so the epoch/sample chains start where a batch prepare()
  // starts them, and there is always one admitted not-yet-arrived task, so
  // the chains never die mid-stream (DatacenterSim::admit's equivalence
  // contract).
  sim.admit(tasks.front());
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    sim.step_until(tasks[i - 1].submit_s);
    sim.admit(tasks[i]);
  }
  sim.advance_before(kInf);
  expect_identical(batch, sim.finish());
}

// --- golden blobs: the format pinned across commits -----------------------

std::vector<std::uint8_t> golden_blob(const std::string& name) {
  const std::string path =
      std::string(ISCOPE_TEST_DATA_DIR) + "/checkpoint/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> blob;
  if (f == nullptr) return blob;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f))
    blob.push_back(static_cast<std::uint8_t>(c));
  std::fclose(f);
  return blob;
}

/// Byte equality with the first differing offset in the failure message
/// (EXPECT_EQ would print both multi-kilobyte vectors).
void expect_same_bytes(const std::vector<std::uint8_t>& got,
                       const std::vector<std::uint8_t>& want) {
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin(),
                                  want.end());
  EXPECT_TRUE(got == want)
      << "sizes " << got.size() << " vs " << want.size()
      << ", first difference at byte " << (diff.first - got.begin());
}

/// `blob` is refused, and the refusal names `reason`.
template <class Sim>
void expect_refused(Sim& sim, const std::vector<std::uint8_t>& blob,
                    const std::string& reason) {
  try {
    restore_from_bytes(sim, blob.data(), blob.size());
    ADD_FAILURE() << "restored";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

/// Every subsystem the format carries is live at the golden cut: battery,
/// an in-flight profiling scan, the fault stream with a degraded CRAC and
/// armed mis-profile timers, thermal epochs, timeout sleep descents and a
/// gang still waking -- all thirteen event kinds are pending.
SimConfig golden_config() {
  SimConfig cfg = base_config();
  cfg.battery = BatteryConfig::make(2.0, 1.0);
  cfg.faults = parse_fault_spec(
      "mtbf=40000,repair=900,misprofile=0.4,crac=0.4,crac-start=3000,"
      "crac-duration=9000");
  cfg.fault_seed = 99;
  cfg.topology.cpus_per_rack = 2;
  cfg.thermal.enabled = true;
  cfg.sleep.policy = SleepPolicy::kTimeout;
  cfg.sleep.timeout_s = 120.0;
  return cfg;
}

/// Result digests (sim_identity.hpp) of the two golden scenarios run to
/// the end, taken on the v2 code before format v3 replaced it: a v3 blob
/// must resume into the run the v2 blob did.
constexpr const char* kSingleRunDigest = "3cc7b60a963464ed";
constexpr const char* kShardedRunDigest = "d332d8fff803177c";

/// The single-simulator golden scenario: ScanFair on 24 CPUs cut at
/// t = 3400, inside the second profiling window.
struct GoldenSingle {
  Scenario sc{24, 45};
  std::vector<Task> tasks = sc.make_tasks(40, 6, 55);
  HybridSupply supply = sc.make_supply(65);
  SimConfig cfg = golden_config();
  Knowledge knowledge{&sc.cluster, scheme_knowledge(Scheme::kScanFair),
                      &sc.db};

  std::unique_ptr<DatacenterSim> make() const {
    return std::make_unique<DatacenterSim>(
        &knowledge, scheme_rule(Scheme::kScanFair), &supply, cfg);
  }
  std::unique_ptr<DatacenterSim> cut() const {
    auto sim = make();
    sim->prepare(tasks, spread_windows(24));
    sim->step_until(3400.0);
    return sim;
  }
};

/// The same subsystems over two rack-aligned shards, cut after eight
/// epoch-barrier rounds.
struct GoldenSharded {
  Scenario sc{24, 46};
  std::vector<Task> tasks = sc.make_tasks(40, 3, 56);
  HybridSupply supply = sc.make_supply(66);
  SimConfig cfg = [] {
    SimConfig c = golden_config();
    c.topology.shards = 2;
    return c;
  }();

  std::unique_ptr<ShardedSim> make() const {
    return std::make_unique<ShardedSim>(sc.cluster, Scheme::kScanFair, &sc.db,
                                        supply, cfg);
  }
  std::unique_ptr<ShardedSim> cut() const {
    auto sim = make();
    sim->prepare(tasks, spread_windows(24));
    for (int round = 0; round < 8; ++round) sim->advance_round();
    return sim;
  }
};

TEST(GoldenCheckpoint, SingleSimulatorV3) {
  // tests/data/checkpoint/v3_single.bin: GoldenSingle's cut.
  const GoldenSingle g;
  const std::vector<std::uint8_t> golden = golden_blob("v3_single.bin");
  const auto sim1 = g.cut();
  expect_same_bytes(checkpoint_bytes(*sim1), golden);

  const auto sim2 = g.make();
  sim2->prepare({}, {});
  restore_from_bytes(*sim2, golden.data(), golden.size());
  expect_same_bytes(checkpoint_bytes(*sim2), golden);

  sim1->advance_before(kInf);
  sim2->advance_before(kInf);
  const SimResult resumed = sim2->finish();
  EXPECT_EQ(digest_hex(result_digest(resumed)), kSingleRunDigest);
  expect_identical(sim1->finish(), resumed);
}

TEST(GoldenCheckpoint, ShardedV3) {
  // tests/data/checkpoint/v3_sharded.bin: GoldenSharded's cut.
  const GoldenSharded g;
  const std::vector<std::uint8_t> golden = golden_blob("v3_sharded.bin");
  const auto sim1 = g.cut();
  expect_same_bytes(checkpoint_bytes(*sim1), golden);

  const auto sim2 = g.make();
  sim2->prepare({}, {});
  restore_from_bytes(*sim2, golden.data(), golden.size());
  expect_same_bytes(checkpoint_bytes(*sim2), golden);

  while (!sim1->drained()) sim1->advance_round();
  while (!sim2->drained()) sim2->advance_round();
  const SimResult resumed = sim2->collect();
  EXPECT_EQ(digest_hex(result_digest(resumed)), kShardedRunDigest);
  expect_identical(sim1->collect(), resumed);
}

// The v2 blobs, cut at the same points by the v2 writer, stay as fixtures:
// this build speaks one format, and refuses an older file with the version
// error before reading anything past it.
TEST(GoldenCheckpoint, SingleSimulatorV2) {
  const GoldenSingle g;
  const auto sim = g.make();
  sim->prepare({}, {});
  const std::vector<std::uint8_t> own = checkpoint_bytes(*sim);
  expect_refused(*sim, golden_blob("v2_single.bin"),
                 "format version 2 is not supported");
  EXPECT_EQ(checkpoint_bytes(*sim), own);
}

TEST(GoldenCheckpoint, ShardedV2) {
  const GoldenSharded g;
  const auto sim = g.make();
  sim->prepare({}, {});
  const std::vector<std::uint8_t> own = checkpoint_bytes(*sim);
  expect_refused(*sim, golden_blob("v2_sharded.bin"),
                 "format version 2 is not supported");
  EXPECT_EQ(checkpoint_bytes(*sim), own);
}

// --- a restore needs a prepared simulator ---------------------------------

// Before prepare() the per-processor arrays are empty, so the simulator's
// own bytes -- the undo copy a refused restore reloads -- are not a
// checkpoint of it. Both overloads refuse up front, valid blob or not.
TEST(CheckpointPrepared, UnpreparedSimulatorsRefuseEveryBlob) {
  const Scenario sc(24, 47);
  const std::vector<Task> tasks = sc.make_tasks(30, 3, 57);
  const HybridSupply supply = sc.make_supply(67);
  SimConfig cfg = base_config();
  const auto refuses = [](auto& sim, const std::vector<std::uint8_t>& blob) {
    try {
      restore_from_bytes(sim, blob.data(), blob.size());
      ADD_FAILURE() << "restore into an unprepared simulator was accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "restore needs a prepared simulator"),
                std::string::npos)
          << e.what();
    }
  };
  const auto truncated = [](std::vector<std::uint8_t> blob) {
    blob.resize(blob.size() / 2);
    return blob;
  };

  {
    Knowledge k1(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim1(&k1, scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim1.prepare(tasks, {});
    sim1.step_until(2500.0);
    const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

    Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, cfg);
    refuses(sim2, blob);
    refuses(sim2, truncated(blob));
    sim2.prepare({}, {});
    restore_from_bytes(sim2, blob.data(), blob.size());
    EXPECT_EQ(checkpoint_bytes(sim2), blob);
  }
  {
    cfg.topology.cpus_per_rack = 2;
    cfg.topology.shards = 4;
    ShardedSim sim1(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
    sim1.prepare(tasks, {});
    for (int round = 0; round < 5 && !sim1.drained(); ++round)
      sim1.advance_round();
    const std::vector<std::uint8_t> blob = checkpoint_bytes(sim1);

    ShardedSim sim2(sc.cluster, Scheme::kScanFair, &sc.db, supply, cfg);
    refuses(sim2, blob);
    refuses(sim2, truncated(blob));
    sim2.prepare({}, {});
    restore_from_bytes(sim2, blob.data(), blob.size());
    EXPECT_EQ(checkpoint_bytes(sim2), blob);
  }
}

// --- rejection paths ------------------------------------------------------

struct Rejection : ::testing::Test {
  Rejection() : sc(12, 20), supply(sc.make_supply(40)) {}

  std::vector<std::uint8_t> make_blob(std::uint64_t seed = 2015) {
    cfg = base_config();
    cfg.seed = seed;
    k = std::make_unique<Knowledge>(&sc.cluster,
                                    scheme_knowledge(Scheme::kScanFair),
                                    &sc.db);
    sim = std::make_unique<DatacenterSim>(
        k.get(), scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim->prepare(sc.make_tasks(10, 3, 30), {});
    sim->step_until(2000.0);
    return checkpoint_bytes(*sim);
  }

  void expect_reject(const std::vector<std::uint8_t>& blob,
                     const std::string& reason = "") {
    Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim2.prepare({}, {});
    expect_refused(sim2, blob, reason);
  }

  /// Same staging with the thermal + sleep subsystems live, so their
  /// sections carry real state.
  std::vector<std::uint8_t> make_thermal_blob() {
    cfg = base_config();
    cfg.topology.cpus_per_rack = 2;
    cfg.thermal.enabled = true;
    cfg.sleep.policy = SleepPolicy::kTimeout;
    cfg.sleep.timeout_s = 120.0;
    k = std::make_unique<Knowledge>(&sc.cluster,
                                    scheme_knowledge(Scheme::kScanFair),
                                    &sc.db);
    sim = std::make_unique<DatacenterSim>(
        k.get(), scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim->prepare(sc.make_tasks(10, 3, 30), {});
    sim->step_until(2000.0);
    return checkpoint_bytes(*sim);
  }

  Scenario sc;
  HybridSupply supply;
  SimConfig cfg;
  std::unique_ptr<Knowledge> k;
  std::unique_ptr<DatacenterSim> sim;
};

TEST_F(Rejection, BadMagic) {
  std::vector<std::uint8_t> blob = make_blob();
  blob[0] ^= 0xff;
  expect_reject(blob, "bad magic");
}

TEST_F(Rejection, VersionSkew) {
  std::vector<std::uint8_t> blob = make_blob();
  blob[4] = static_cast<std::uint8_t>(kCheckpointVersion + 1);
  expect_reject(blob, "format version 4 is not supported");
}

TEST_F(Rejection, KindMismatch) {
  std::vector<std::uint8_t> blob = make_blob();
  blob[8] = 1;  // claims a sharded body inside a single-sim envelope
  reseal(blob);
  expect_reject(blob, "simulator kind mismatch");
}

TEST_F(Rejection, ChecksumMismatch) {
  // One flipped payload bit, or a torn write that kept only a prefix:
  // refused before any field past the version is read.
  const std::vector<std::uint8_t> blob = make_blob();
  std::vector<std::uint8_t> flipped = blob;
  flipped[flipped.size() / 2] ^= 0x10;
  expect_reject(flipped, "checksum mismatch");
  expect_reject(std::vector<std::uint8_t>(blob.begin(), blob.end() - 1),
                "checksum mismatch");
  expect_reject(std::vector<std::uint8_t>(blob.begin(), blob.begin() + 11),
                "checksum mismatch");
}

TEST(CheckpointCrc, StandardCheckValueAndEveryTailLength) {
  // The catalogued CRC-32 check value, then every length mod 8 against a
  // bit-at-a-time reference, so both the 8-byte steps and the tail count.
  const std::string check = "123456789";
  EXPECT_EQ(checkpoint_crc32(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size()),
            0xCBF43926u);
  std::vector<std::uint8_t> bytes(40);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= bytes[i];
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    EXPECT_EQ(checkpoint_crc32(bytes.data(), n), ~c) << n;
  }
}

TEST_F(Rejection, IdentityMismatch) {
  const std::vector<std::uint8_t> blob = make_blob(2015);
  // A simulator constructed with a different seed must refuse the blob.
  SimConfig other = cfg;
  other.seed = 2016;
  Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
  DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, other);
  sim2.prepare({}, {});
  EXPECT_THROW(restore_from_bytes(sim2, blob.data(), blob.size()),
               CheckpointError);
}

TEST_F(Rejection, TruncationAtEveryPrefix) {
  const std::vector<std::uint8_t> blob = make_blob();
  // Every strict prefix must reject cleanly: as torn (the CRC refuses it)
  // and re-sealed (the parser meets the end of the payload). Stride keeps
  // the quadratic restore cost bounded; the first 64 lengths are covered
  // exhaustively.
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 97)) {
    SCOPED_TRACE("prefix " + std::to_string(len));
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<std::ptrdiff_t>(len));
    expect_reject(cut);
    reseal(cut);
    expect_reject(cut);
  }
}

TEST_F(Rejection, ThermalConfigIdentityMismatch) {
  const std::vector<std::uint8_t> blob = make_thermal_blob();
  // thermal/sleep knobs are identity: a restore under a different COP
  // curve regime or wake-latency ladder must refuse, not diverge.
  for (const auto tweak : {+[](SimConfig& c) { c.thermal.enabled = false; },
                           +[](SimConfig& c) { c.thermal.red_line_c = 35.0; },
                           +[](SimConfig& c) {
                             c.sleep.policy = SleepPolicy::kImmediate;
                           },
                           +[](SimConfig& c) { c.sleep.timeout_s = 60.0; }}) {
    SimConfig other = cfg;
    tweak(other);
    Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, other);
    sim2.prepare({}, {});
    EXPECT_THROW(restore_from_bytes(sim2, blob.data(), blob.size()),
                 CheckpointError);
  }
}

TEST_F(Rejection, TruncatedThermalSectionAtEveryPrefix) {
  // The blob ends ...thermal/sleep state, RNG string, CRC; cutting anywhere
  // inside those sections must reject cleanly, never restore a sim with
  // half a C-state ladder.
  const std::vector<std::uint8_t> blob = make_thermal_blob();
  for (std::size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 89)) {
    SCOPED_TRACE("prefix " + std::to_string(len));
    std::vector<std::uint8_t> cut(
        blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    expect_reject(cut);
    reseal(cut);
    expect_reject(cut);
  }
  // And corrupt sleep depths (beyond the 3-rung ladder) are rejected even
  // when the frame is well-formed and sealed: flip high bits over the tail
  // of the payload, re-sealing each, until one lands on a depth byte --
  // every outcome must be a clean CheckpointError or a successful restore,
  // never UB (the fuzz corpus pins the same property over random
  // mutations).
  std::size_t rejected = 0;
  for (std::size_t i = blob.size() - 204; i < blob.size() - 4; ++i) {
    std::vector<std::uint8_t> mut = blob;
    mut[i] ^= 0x80;
    reseal(mut);
    Knowledge k2(&sc.cluster, scheme_knowledge(Scheme::kScanFair), &sc.db);
    DatacenterSim sim2(&k2, scheme_rule(Scheme::kScanFair), &supply, cfg);
    sim2.prepare({}, {});
    try {
      restore_from_bytes(sim2, mut.data(), mut.size());
    } catch (const CheckpointError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST_F(Rejection, FileRoundtripAndMissingFile) {
  const std::vector<std::uint8_t> blob = make_blob();
  const std::string path =
      ::testing::TempDir() + "iscope_ckpt_test.bin";
  write_checkpoint(path, blob);
  EXPECT_EQ(read_checkpoint(path), blob);
  std::remove(path.c_str());
  EXPECT_THROW(read_checkpoint(path), CheckpointError);
}

TEST(CheckpointFile, ReadingADirectoryIsACheckpointError) {
  // fopen(dir, "rb") succeeds on Linux, so only the regular-file check
  // keeps a directory from being sized as a (huge) checkpoint.
  const std::string dir = ::testing::TempDir() + "iscope_ckpt_read_dir";
  std::filesystem::create_directories(dir);
  EXPECT_THROW(read_checkpoint(dir), CheckpointError);
  std::filesystem::remove(dir);
}

TEST(CheckpointFile, FailedRenameRemovesTheTempFile) {
  // Renaming a file over a directory fails after the temp file is
  // written; the failed write must not leave `<path>.tmp` behind.
  const std::string dir = ::testing::TempDir() + "iscope_ckpt_write_dir";
  std::filesystem::create_directories(dir);
  EXPECT_THROW(write_checkpoint(dir, {1, 2, 3}), Error);
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  std::filesystem::remove(dir + ".tmp");
  std::filesystem::remove(dir);
}

TEST(CheckpointFile, BareFileNameRoundTrips) {
  // With no directory in the path, the directory fsync'd after the rename
  // is the working directory; deriving it must not fail the write.
  const std::string path = "iscope_ckpt_bare_name.bin";
  const std::vector<std::uint8_t> blob = {4, 5, 6};
  write_checkpoint(path, blob);
  EXPECT_EQ(read_checkpoint(path), blob);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace iscope
