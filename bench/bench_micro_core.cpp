// Microbenchmarks of the hot paths (google-benchmark), plus the DESIGN.md
// ablation of the voltage-extended Eq-1 power model.
#include <benchmark/benchmark.h>

#include <optional>

#include "common/rng.hpp"
#include "energy/forecast.hpp"
#include "energy/wind_model.hpp"
#include "hardware/cluster.hpp"
#include "profiling/scanner.hpp"
#include "sched/power_matcher.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "variation/gaussian_field.hpp"
#include "workload/synthetic.hpp"
#include "workload/urgency.hpp"

namespace {

using namespace iscope;

void BM_EventQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    Rng rng(1);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i)
      q.schedule(rng.uniform(0.0, 1e6),
                 EventDesc{EventDesc::Kind::kCompletion, i, 0});
    q.run([&fired](const EventDesc& e) { fired += e.a; });
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000);

void BM_GaussianFieldSample(benchmark::State& state) {
  const GaussianField field(quad_core_layout(), 0.5);
  Rng rng(2);
  for (auto _ : state) {
    auto s = field.sample(rng);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_GaussianFieldSample);

void BM_ClusterFabrication(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.num_processors = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const Cluster c = build_cluster(cfg);
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_ClusterFabrication)->Arg(64)->Arg(512);

void BM_ScanChip(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.num_processors = 16;
  const Cluster cluster = build_cluster(cfg);
  const Scanner scanner(&cluster, ScanConfig{});
  Rng rng(3);
  std::size_t chip = 0;
  for (auto _ : state) {
    const ChipProfile p = scanner.scan_chip(chip, 0.0, rng);
    benchmark::DoNotOptimize(p.trials);
    chip = (chip + 1) % cluster.size();
  }
}
BENCHMARK(BM_ScanChip);

void BM_WindTraceDay(benchmark::State& state) {
  WindFarmConfig cfg;
  for (auto _ : state) {
    const SupplyTrace t = generate_wind_days(cfg, 1.0);
    benchmark::DoNotOptimize(t.samples());
  }
}
BENCHMARK(BM_WindTraceDay);

// Ablation (DESIGN.md choice #1): the voltage-extended Eq-1 vs the paper's
// literal Eq-1. Measures the energy delta the voltage term captures -- the
// entire Bin-vs-Scan effect -- at a scanned chip's Min Vdd.
void BM_Eq1VoltageAblation(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.num_processors = 128;
  const Cluster cluster = build_cluster(cfg);
  const std::size_t top = cluster.levels().count() - 1;
  double delta_sum = 0.0;
  for (auto _ : state) {
    double eq1 = 0.0, extended = 0.0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const auto& c = cluster.proc(i).coeffs;
      eq1 += cluster.power_model()
                 .power_eq1(c, Gigahertz{cluster.levels().freq_ghz[top]})
                 .watts();
      extended += cluster.power(i, top, cluster.true_vdd(i, top)).watts();
    }
    delta_sum = 1.0 - extended / eq1;
    benchmark::DoNotOptimize(delta_sum);
  }
  state.counters["scan_power_saving_frac"] = delta_sum;
}
BENCHMARK(BM_Eq1VoltageAblation);

void BM_KnowledgeRefresh(benchmark::State& state) {
  ClusterConfig cfg;
  cfg.num_processors = static_cast<std::size_t>(state.range(0));
  const Cluster cluster = build_cluster(cfg);
  Knowledge knowledge(&cluster, KnowledgeSource::kBin);
  for (auto _ : state) {
    knowledge.refresh();
    benchmark::DoNotOptimize(knowledge.efficiency(0));
  }
}
BENCHMARK(BM_KnowledgeRefresh)->Arg(256)->Arg(1024);

void BM_OracleForecast(benchmark::State& state) {
  WindFarmConfig wind;
  const HybridSupply supply(generate_wind_days(wind, 7.0));
  const OracleForecaster oracle(&supply);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.forecast_mean(Seconds{t}, Seconds{6.0 * 3600.0}).watts());
    t += 601.0;
    if (t > 5.0 * 86400.0) t = 0.0;
  }
}
BENCHMARK(BM_OracleForecast);

// --- SoA matcher kernels (DESIGN.md Sec. 14) -----------------------------
//
// Every bench exports a result checksum counter, so two runs of the same
// bench can be checked for identical results as well as compared for
// time.

/// One synthetic running-task population as MatcherColumns rows, sized and
/// distributed like the fig8 steady state (4-CPU tasks, loose-to-tight
/// deadlines), plus the matcher that solves over it.
struct SoaFixture {
  static ClusterConfig config() {
    ClusterConfig cfg;
    cfg.num_processors = 256;
    return cfg;
  }

  explicit SoaFixture(std::size_t rows) : cluster(build_cluster(config())) {
    knowledge.emplace(&cluster, KnowledgeSource::kBin);
    matcher.emplace(&*knowledge, 1.4);
    const std::size_t levels = knowledge->levels();
    cols.reset(levels, rows);
    Rng rng(5);
    std::size_t next_proc = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const double remaining = rng.uniform(100.0, 5000.0);
      const double deadline = remaining * rng.uniform(2.0, 12.0);
      const std::size_t row = cols.append(r, remaining, deadline);
      for (std::size_t l = 0; l < levels; ++l) {
        Watts p;
        for (int k = 0; k < 4; ++k)
          p += knowledge->power((next_proc + static_cast<std::size_t>(k)) %
                                    cluster.size(),
                                l);
        cols.power[row * levels + l] = p.raw();
      }
      next_proc += 4;
      cols.fill_row(row, rng.uniform(0.5, 1.0), matcher->slowdown_ratio());
    }
  }

  /// Mid-range wind budget: phase 2 is live (the budget binds) but
  /// feasible, so solves walk the greedy loop part way -- the regime the
  /// per-epoch rematch lives in.
  Watts binding_wind() {
    const MatchResult top = matcher->match(cols, Watts{}, 0.0);
    const std::size_t levels = cols.levels;
    Watts floor_compute;
    for (std::size_t r = 0; r < cols.count; ++r)
      floor_compute += Watts{cols.power[r * levels + cols.floor[r]]};
    return (top.demand + floor_compute * matcher->cooling_factor()) * 0.5;
  }

  Cluster cluster;
  std::optional<Knowledge> knowledge;
  std::optional<PowerMatcher> matcher;
  MatcherColumns cols;
};

void BM_FloorScanRows(benchmark::State& state) {
  SoaFixture fx(static_cast<std::size_t>(state.range(0)));
  const MatcherColumns& c = fx.cols;
  std::vector<std::size_t> floor(c.count);
  std::size_t checksum = 0;
  for (auto _ : state) {
    soa::floor_scan_rows(c.slowdown.data(), c.levels, c.remaining.data(),
                         c.deadline.data(), 0.0, c.count, floor.data());
    checksum = 0;
    for (const std::size_t f : floor) checksum += f;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["floor_checksum"] = static_cast<double>(checksum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FloorScanRows)->Arg(64)->Arg(512);

void BM_BestFromFill(benchmark::State& state) {
  SoaFixture fx(static_cast<std::size_t>(state.range(0)));
  MatcherColumns& c = fx.cols;
  std::uint8_t best[256];  // levels <= 255 by MatcherColumns::reset
  const std::size_t levels = c.levels;
  if (levels == 0 || levels > 255) return;  // unreachable; bounds the
                                            // write for flow analysis
  std::size_t checksum = 0;
  for (auto _ : state) {
    checksum = 0;
    for (std::size_t r = 0; r < c.count; ++r) {
      soa::best_from_fill(c.power.data() + r * levels,
                          c.slowdown.data() + r * levels, levels, best);
      for (std::size_t l = 0; l < levels; ++l) checksum += best[l];
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["best_from_checksum"] = static_cast<double>(checksum);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BestFromFill)->Arg(64)->Arg(512);

// One matcher call per epoch over a walk of wind budgets. Arg is the
// per-epoch wind delta in percent of the binding budget; the demand
// checksum pins the solve's output at bench scope.
std::vector<Watts> wind_walk(Watts base, double delta_pct) {
  Rng rng(6);
  std::vector<Watts> winds;
  for (int i = 0; i < 64; ++i)
    winds.push_back(base * (1.0 + rng.uniform(-delta_pct, delta_pct) / 100.0));
  return winds;
}

void BM_RematchFull(benchmark::State& state) {
  SoaFixture fx(128);
  const std::vector<Watts> winds =
      wind_walk(fx.binding_wind(), static_cast<double>(state.range(0)));
  double checksum = 0.0;
  for (auto _ : state) {
    checksum = 0.0;
    for (const Watts wind : winds)
      checksum += fx.matcher->match(fx.cols, wind, 0.0).demand.raw();
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["demand_checksum"] = checksum;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(winds.size()));
}
BENCHMARK(BM_RematchFull)->Arg(1)->Arg(10)->Arg(50);

void BM_FullSimulation(benchmark::State& state) {
  // End-to-end throughput of the datacenter simulator: one scheme over a
  // synthetic day on a small facility.
  ClusterConfig cfg;
  cfg.num_processors = 64;
  const Cluster cluster = build_cluster(cfg);
  const Knowledge knowledge(&cluster, KnowledgeSource::kBin);
  const HybridSupply supply(generate_wind_days(WindFarmConfig{}, 2.0));
  SyntheticWorkloadConfig wl;
  wl.num_jobs = static_cast<std::size_t>(state.range(0));
  wl.max_cpus = 16;
  wl.mean_interarrival_s = 200.0;
  std::vector<Task> tasks = generate_workload(wl);
  UrgencyConfig urgency;
  assign_deadlines(tasks, urgency);
  for (auto _ : state) {
    DatacenterSim sim(&knowledge, PlacementRule::kFair, &supply, SimConfig{});
    const SimResult r = sim.run(tasks);
    benchmark::DoNotOptimize(r.energy.total().joules());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FullSimulation)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
