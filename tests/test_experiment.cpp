// Cross-module integration: the experiment layer reproduces the paper's
// qualitative shapes on a miniature facility.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/error.hpp"

namespace iscope {
namespace {

// One small shared context for the whole suite (construction scans the
// cluster, so reuse it).
const ExperimentContext& ctx() {
  static const ExperimentContext* instance = [] {
    ExperimentConfig cfg = ExperimentConfig::paper_small().scaled(0.25);
    return new ExperimentContext(cfg);
  }();
  return *instance;
}

double result_for(const std::vector<SweepPoint>& points, Scheme s, double x,
                  double (*metric)(const SimResult&)) {
  for (const auto& p : points)
    if (p.scheme == s && p.x == x) return metric(p.result);
  throw InternalError("sweep point not found");
}

TEST(ExperimentConfig, Validation) {
  ExperimentConfig cfg = ExperimentConfig::paper_small();
  EXPECT_NO_THROW(cfg.validate());
  cfg.wind_mean_fraction_of_peak = -1.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

TEST(ExperimentConfig, ScaledKeepsProportions) {
  const ExperimentConfig base = ExperimentConfig::paper_small();
  const ExperimentConfig big = base.scaled(2.0);
  EXPECT_EQ(big.cluster.num_processors, 2 * base.cluster.num_processors);
  EXPECT_EQ(big.workload.num_jobs, 2 * base.workload.num_jobs);
  EXPECT_DOUBLE_EQ(big.workload.mean_interarrival_s,
                   base.workload.mean_interarrival_s / 2.0);
  EXPECT_THROW(base.scaled(0.0), InvalidArgument);
}

TEST(ExperimentConfig, FullScaleIsPaperSize) {
  EXPECT_EQ(ExperimentConfig::paper_full().cluster.num_processors, 4800u);
}

TEST(ExperimentConfig, PeakDemandEstimate) {
  // 125 W per CPU x N x 1.4 cooling.
  ClusterConfig cluster;
  cluster.num_processors = 100;
  EXPECT_NEAR(estimated_peak_demand(cluster, 2.5).watts(), 125.0 * 100.0 * 1.4,
              1e-6);
}

TEST(ExperimentContext, BuildsScannedCluster) {
  EXPECT_EQ(ctx().profile_db().profiled_count(), ctx().cluster().size());
  EXPECT_GT(ctx().wind_trace().mean_power().watts(), 0.0);
}

TEST(ExperimentContext, TasksRespectHuFraction) {
  const auto lo = ctx().make_tasks(0.0);
  const auto hi = ctx().make_tasks(1.0);
  EXPECT_DOUBLE_EQ(hu_fraction(lo), 0.0);
  EXPECT_DOUBLE_EQ(hu_fraction(hi), 1.0);
}

TEST(ExperimentContext, ArrivalRateCompressesSubmits) {
  const auto slow = ctx().make_tasks(0.3, 1.0);
  const auto fast = ctx().make_tasks(0.3, 4.0);
  EXPECT_NEAR(fast.back().submit_s, slow.back().submit_s / 4.0, 1e-6);
}

TEST(ExperimentContext, SupplyKinds) {
  EXPECT_FALSE(ctx().make_supply(false).has_wind());
  EXPECT_TRUE(ctx().make_supply(true).has_wind());
  EXPECT_DOUBLE_EQ(ctx().make_supply(true, 1.8).wind_available(Seconds{0.0}).watts(),
                   1.8 * ctx().make_supply(true, 1.0).wind_available(Seconds{0.0}).watts());
}

// ------------------------------------------------ paper-shape assertions

TEST(PaperShapes, EffiBeatsRanOnUtilityEnergy) {
  const auto tasks = ctx().make_tasks(0.3);
  const auto supply = ctx().make_supply(false);
  const double ran =
      ctx().run(Scheme::kBinRan, tasks, supply).energy.utility_kwh();
  const double effi =
      ctx().run(Scheme::kBinEffi, tasks, supply).energy.utility_kwh();
  EXPECT_LT(effi, ran);
}

TEST(PaperShapes, ScanBeatsBinOnUtilityEnergy) {
  const auto tasks = ctx().make_tasks(0.3);
  const auto supply = ctx().make_supply(false);
  const double bin =
      ctx().run(Scheme::kBinEffi, tasks, supply).energy.utility_kwh();
  const double scan =
      ctx().run(Scheme::kScanEffi, tasks, supply).energy.utility_kwh();
  EXPECT_LT(scan, bin);
  const double bin_ran =
      ctx().run(Scheme::kBinRan, tasks, supply).energy.utility_kwh();
  const double scan_ran =
      ctx().run(Scheme::kScanRan, tasks, supply).energy.utility_kwh();
  EXPECT_LT(scan_ran, bin_ran);
}

TEST(PaperShapes, ScanFairCheapestWithWind) {
  const auto rows = energy_costs(ctx());
  double binran = 0.0, scanfair = 0.0, scaneffi = 0.0;
  for (const CostRow& r : rows) {
    if (!r.with_wind) continue;
    if (r.scheme == Scheme::kBinRan) binran = r.cost.dollars();
    if (r.scheme == Scheme::kScanFair) scanfair = r.cost.dollars();
    if (r.scheme == Scheme::kScanEffi) scaneffi = r.cost.dollars();
  }
  EXPECT_LT(scanfair, binran);
  EXPECT_LT(scaneffi, binran);
}

TEST(PaperShapes, FairBalancesBetterThanEffi) {
  const auto points = sweep_wind_strength(ctx(), {1.4});
  const auto var = [](const SimResult& r) { return r.busy_variance_h2; };
  const double effi = result_for(points, Scheme::kScanEffi, 1.4, var);
  const double fair = result_for(points, Scheme::kScanFair, 1.4, var);
  const double ran = result_for(points, Scheme::kScanRan, 1.4, var);
  // Paper Fig. 9 ordering: Effi by far the worst; Ran and Fair both low
  // (Fair balances *actively*, so at small scale it can even beat Ran).
  EXPECT_LT(fair, effi);
  EXPECT_LT(ran, effi);
  EXPECT_LT(fair, 3.0 * ran + 1.0);
}

TEST(PaperShapes, ScanFairUsesMostWind) {
  const auto tasks = ctx().make_tasks(0.3);
  const auto supply = ctx().make_supply(true);
  const double fair_wind =
      ctx().run(Scheme::kScanFair, tasks, supply).energy.wind_kwh();
  const double ran_wind =
      ctx().run(Scheme::kScanRan, tasks, supply).energy.wind_kwh();
  EXPECT_GT(fair_wind, ran_wind);
}

TEST(PaperShapes, SweepsCoverAllSchemesAndPoints) {
  const auto points = sweep_hu(ctx(), {0.0, 0.5}, false);
  EXPECT_EQ(points.size(), 2u * kAllSchemes.size());
  const auto rates = sweep_arrival(ctx(), {1.0, 3.0}, false);
  EXPECT_EQ(rates.size(), 2u * kAllSchemes.size());
}

TEST(PaperShapes, PowerTracesRecorded) {
  const auto traces = power_traces(ctx());
  ASSERT_EQ(traces.size(), 3u);  // the three Scan schemes
  for (const auto& p : traces) {
    EXPECT_GT(p.result.trace.size(), 10u);
    EXPECT_TRUE(scheme_uses_scan(p.scheme));
  }
}

TEST(PaperShapes, EnergyCostsCoverBothSupplies) {
  const auto rows = energy_costs(ctx());
  EXPECT_EQ(rows.size(), 2u * kAllSchemes.size());
  for (const CostRow& r : rows) {
    EXPECT_GT(r.cost.dollars(), 0.0);
    if (!r.with_wind) {
      EXPECT_DOUBLE_EQ(r.wind.kwh(), 0.0);
    }
  }
}

// Sets `name` to `value` for the scope (nullptr = unset), then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value == nullptr)
      ::unsetenv(name);
    else
      ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// `read()` with `name` set to `value` (nullptr = unset).
template <typename Reader>
auto read_with(const char* name, const char* value, Reader read) {
  const ScopedEnv env(name, value);
  return read();
}

// A malformed knob must throw InvalidArgument naming the variable.
template <typename Reader>
void expect_rejected(const char* name, const char* value, Reader read) {
  try {
    read_with(name, value, read);
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << e.what();
  }
}

TEST(EnvScale, DefaultsToOne) {
  EXPECT_EQ(read_with("ISCOPE_SCALE", nullptr, env_scale), 1.0);
  EXPECT_EQ(read_with("ISCOPE_SCALE", "", env_scale), 1.0);
  EXPECT_EQ(read_with("ISCOPE_SCALE", "0.5", env_scale), 0.5);
  // The documented clamp to [0.1, 20] stays for valid input.
  EXPECT_EQ(read_with("ISCOPE_SCALE", "100", env_scale), 20.0);
  EXPECT_EQ(read_with("ISCOPE_SCALE", "0.01", env_scale), 0.1);
  EXPECT_EQ(read_with("ISCOPE_SHARDS", "16", env_shards), 16u);
  EXPECT_EQ(read_with("ISCOPE_SHARD_WORKERS", nullptr, env_shard_workers), 1u);
  EXPECT_EQ(read_with("ISCOPE_SHARD_WORKERS", "0", env_shard_workers), 0u);
  EXPECT_EQ(read_with("ISCOPE_PARALLEL", "3", env_parallelism), 3u);
  EXPECT_EQ(read_with("ISCOPE_FAULT_SEED", "18446744073709551615",
                      env_fault_seed),
            18446744073709551615ull);

  expect_rejected("ISCOPE_SHARD_WORKERS", "abc", env_shard_workers);
  expect_rejected("ISCOPE_SHARD_WORKERS", "-1", env_shard_workers);
  expect_rejected("ISCOPE_SHARDS", "16x", env_shards);
  expect_rejected("ISCOPE_SHARDS", "abc", env_shards);
  expect_rejected("ISCOPE_SHARDS", "0", env_shards);
  expect_rejected("ISCOPE_SHARDS", "+4", env_shards);
  expect_rejected("ISCOPE_PARALLEL", "-2", env_parallelism);
  expect_rejected("ISCOPE_PARALLEL", " 2", env_parallelism);
  expect_rejected("ISCOPE_FAULT_SEED", "-1", env_fault_seed);
  expect_rejected("ISCOPE_FAULT_SEED", "18446744073709551616", env_fault_seed);
  expect_rejected("ISCOPE_SCALE", "abc", env_scale);
  expect_rejected("ISCOPE_SCALE", "nan", env_scale);
  expect_rejected("ISCOPE_SCALE", "inf", env_scale);
  expect_rejected("ISCOPE_SCALE", "0", env_scale);
  expect_rejected("ISCOPE_SCALE", "-2", env_scale);
  expect_rejected("ISCOPE_SCALE", "1.5x", env_scale);
  expect_rejected("ISCOPE_HYPERSCALE_PROCS", "4k", [] {
    return env_number<std::uint64_t>("ISCOPE_HYPERSCALE_PROCS");
  });
}

}  // namespace
}  // namespace iscope
