// Experiment runners: one entry point per paper figure/table.
//
// `ExperimentContext` builds the expensive shared state once -- cluster
// fabrication, the full in-cloud scan, the wind trace -- and the per-figure
// functions are thin ScenarioSpec builders over the sweep engine
// (core/sweep.hpp), which fans the (scheme x parameter) grid out over a
// thread pool sized by `ExperimentConfig::parallelism`. The bench binaries
// are thin formatting wrappers around these.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/sweep.hpp"
#include "energy/hybrid_supply.hpp"
#include "profiling/profile_db.hpp"
#include "sched/scheme.hpp"
#include "sim/metrics.hpp"
#include "workload/task.hpp"

namespace iscope {

class ExperimentContext {
 public:
  explicit ExperimentContext(const ExperimentConfig& config);

  const ExperimentConfig& config() const { return config_; }
  const Cluster& cluster() const { return *cluster_; }
  const ProfileDb& profile_db() const { return *db_; }
  const SupplyTrace& wind_trace() const { return wind_trace_; }

  /// Base task set: synthetic Thunder-like jobs, widths clamped to the
  /// cluster, deadlines assigned with `hu_fraction`.
  std::vector<Task> make_tasks(double hu_fraction,
                               double arrival_rate = 1.0) const;

  /// Hybrid supply at a given SWP strength; `with_wind=false` gives the
  /// utility-only facility.
  HybridSupply make_supply(bool with_wind, double strength = 1.0) const;

  /// Run one scheme over one task set and supply, in the caller's thread
  /// (a single-spec convenience over `SweepRunner::run_one`).
  SimResult run(Scheme scheme, const std::vector<Task>& tasks,
                const HybridSupply& supply, bool record_trace = false) const;

 private:
  ExperimentConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<ProfileDb> db_;
  SupplyTrace wind_trace_;
};

/// Fig. 5(A) / 6(A,C): utility (and wind) energy vs %HU for all 5 schemes.
std::vector<SweepPoint> sweep_hu(const ExperimentContext& ctx,
                                 const std::vector<double>& hu_fractions,
                                 bool with_wind);

/// Fig. 5(B) / 6(B,D): energy vs job arrival rate for all 5 schemes.
std::vector<SweepPoint> sweep_arrival(const ExperimentContext& ctx,
                                      const std::vector<double>& rates,
                                      bool with_wind);

/// Fig. 9: per-CPU utilization-time variance vs SWP strength.
std::vector<SweepPoint> sweep_wind_strength(const ExperimentContext& ctx,
                                            const std::vector<double>& factors);

/// Fig. 7: power traces of the three Scan schemes (records PowerSamples).
std::vector<SweepPoint> power_traces(const ExperimentContext& ctx);

/// Fig. 8: energy cost of all schemes, with and without wind.
struct CostRow {
  Scheme scheme;
  bool with_wind = false;
  Usd cost;
  Joules utility;
  Joules wind;
};
std::vector<CostRow> energy_costs(const ExperimentContext& ctx);

}  // namespace iscope
