#include "core/experiment.hpp"

#include <numeric>
#include <sstream>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "profiling/scanner.hpp"
#include "sim/simulator.hpp"
#include "workload/urgency.hpp"

namespace iscope {

namespace {

std::string spec_label(Scheme scheme, const char* param, double x) {
  std::ostringstream os;
  os << scheme_name(scheme) << ' ' << param << '=' << x;
  return os.str();
}

}  // namespace

ExperimentContext::ExperimentContext(const ExperimentConfig& config)
    : config_(config) {
  config_.validate();

  // Fabricate the cluster.
  cluster_ = std::make_unique<Cluster>(build_cluster(config_.cluster));

  // Full in-cloud scan (the Scan schemes' knowledge). The overhead of this
  // campaign is analyzed separately (Sec. VI-E / bench_overhead_profiling).
  db_ = std::make_unique<ProfileDb>(cluster_->size());
  const Scanner scanner(cluster_.get(), config_.scan);
  Rng scan_rng = Rng(config_.seed).fork("scan");
  std::vector<std::size_t> all(cluster_->size());
  std::iota(all.begin(), all.end(), 0);
  scanner.scan_domain(all, 0.0, scan_rng, *db_);
  ISCOPE_INFO("scanned " << db_->profiled_count() << " processors, "
                         << db_->total_trials() << " trials");

  // Wind trace, scaled relative to facility peak demand (the paper's 3.5%
  // NREL down-scaling plays the same role).
  WindFarmConfig wind = config_.wind;
  wind.seed = Rng(config_.seed).fork("wind").seed();
  SupplyTrace raw = generate_wind_days(wind, 7.0);
  const Watts peak =
      estimated_peak_demand(config_.cluster, config_.sim.cooling_cop);
  wind_trace_ = raw.scaled_to_mean(config_.wind_mean_fraction_of_peak * peak);
}

std::vector<Task> ExperimentContext::make_tasks(double hu_fraction,
                                                double arrival_rate) const {
  SyntheticWorkloadConfig wl = config_.workload;
  wl.max_cpus = std::min(wl.max_cpus, cluster_->size());
  std::vector<Task> tasks = generate_workload(wl);
  UrgencyConfig urgency = config_.urgency;
  urgency.hu_fraction = hu_fraction;
  assign_deadlines(tasks, urgency);
  if (arrival_rate != 1.0)
    tasks = scale_arrival_rate(std::move(tasks), arrival_rate);
  return tasks;
}

HybridSupply ExperimentContext::make_supply(bool with_wind,
                                            double strength) const {
  if (!with_wind) return HybridSupply();
  // Supply-trace dropouts are injected here, at the feed, so the simulator
  // and every forecaster see the same faulted trace. The dropout windows
  // are drawn from their own RNG fork, so they are identical to the ones
  // the simulator's own plan (same spec + seed) would carry.
  if (config_.sim.fault_plan != nullptr)
    return HybridSupply(config_.sim.fault_plan->apply_dropouts(wind_trace_),
                        strength);
  if (config_.sim.faults.dropouts_per_day > 0.0)
    return HybridSupply(
        FaultPlan::build(config_.sim.faults, config_.sim.fault_seed, 0)
            .apply_dropouts(wind_trace_),
        strength);
  return HybridSupply(wind_trace_, strength);
}

SimResult ExperimentContext::run(Scheme scheme, const std::vector<Task>& tasks,
                                 const HybridSupply& supply,
                                 bool record_trace) const {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.tasks = borrow(tasks);
  spec.supply = borrow(supply);
  spec.record_trace = record_trace;
  return SweepRunner(*this, 1).run_one(spec);
}

std::vector<SweepPoint> sweep_hu(const ExperimentContext& ctx,
                                 const std::vector<double>& hu_fractions,
                                 bool with_wind) {
  const auto supply =
      std::make_shared<const HybridSupply>(ctx.make_supply(with_wind));
  std::vector<ScenarioSpec> specs;
  specs.reserve(hu_fractions.size() * kAllSchemes.size());
  for (const double hu : hu_fractions) {
    const auto tasks =
        std::make_shared<const std::vector<Task>>(ctx.make_tasks(hu));
    for (const Scheme scheme : kAllSchemes) {
      ScenarioSpec s;
      s.scheme = scheme;
      s.tasks = tasks;
      s.supply = supply;
      s.x = hu;
      s.label = spec_label(scheme, "hu", hu);
      specs.push_back(std::move(s));
    }
  }
  return SweepRunner(ctx).run_points(specs);
}

std::vector<SweepPoint> sweep_arrival(const ExperimentContext& ctx,
                                      const std::vector<double>& rates,
                                      bool with_wind) {
  const auto supply =
      std::make_shared<const HybridSupply>(ctx.make_supply(with_wind));
  const double hu = ctx.config().urgency.hu_fraction;
  std::vector<ScenarioSpec> specs;
  specs.reserve(rates.size() * kAllSchemes.size());
  for (const double rate : rates) {
    const auto tasks =
        std::make_shared<const std::vector<Task>>(ctx.make_tasks(hu, rate));
    for (const Scheme scheme : kAllSchemes) {
      ScenarioSpec s;
      s.scheme = scheme;
      s.tasks = tasks;
      s.supply = supply;
      s.x = rate;
      s.label = spec_label(scheme, "rate", rate);
      specs.push_back(std::move(s));
    }
  }
  return SweepRunner(ctx).run_points(specs);
}

std::vector<SweepPoint> sweep_wind_strength(
    const ExperimentContext& ctx, const std::vector<double>& factors) {
  const double hu = ctx.config().urgency.hu_fraction;
  const auto tasks =
      std::make_shared<const std::vector<Task>>(ctx.make_tasks(hu));
  std::vector<ScenarioSpec> specs;
  specs.reserve(factors.size() * kAllSchemes.size());
  for (const double f : factors) {
    const auto supply =
        std::make_shared<const HybridSupply>(ctx.make_supply(true, f));
    for (const Scheme scheme : kAllSchemes) {
      ScenarioSpec s;
      s.scheme = scheme;
      s.tasks = tasks;
      s.supply = supply;
      s.x = f;
      s.label = spec_label(scheme, "swp", f);
      specs.push_back(std::move(s));
    }
  }
  return SweepRunner(ctx).run_points(specs);
}

std::vector<SweepPoint> power_traces(const ExperimentContext& ctx) {
  const std::array<Scheme, 3> scan_schemes = {
      Scheme::kScanRan, Scheme::kScanEffi, Scheme::kScanFair};
  const double hu = ctx.config().urgency.hu_fraction;
  const auto tasks =
      std::make_shared<const std::vector<Task>>(ctx.make_tasks(hu));
  const auto supply = std::make_shared<const HybridSupply>(ctx.make_supply(true));
  std::vector<ScenarioSpec> specs;
  specs.reserve(scan_schemes.size());
  for (const Scheme scheme : scan_schemes) {
    ScenarioSpec s;
    s.scheme = scheme;
    s.tasks = tasks;
    s.supply = supply;
    s.record_trace = true;
    s.label = spec_label(scheme, "trace", 1.0);
    specs.push_back(std::move(s));
  }
  return SweepRunner(ctx).run_points(specs);
}

std::vector<CostRow> energy_costs(const ExperimentContext& ctx) {
  const double hu = ctx.config().urgency.hu_fraction;
  const auto tasks =
      std::make_shared<const std::vector<Task>>(ctx.make_tasks(hu));
  // Thermal runs add the heat-aware sixth scheme, so fig8 under
  // ISCOPE_THERMAL=1 puts ScanTherm's cooling payoff next to the paper five.
  std::vector<Scheme> schemes(kAllSchemes.begin(), kAllSchemes.end());
  if (ctx.config().sim.thermal.enabled)
    schemes.push_back(Scheme::kScanTherm);
  std::vector<ScenarioSpec> specs;
  specs.reserve(2 * schemes.size());
  for (const bool with_wind : {false, true}) {
    const auto supply =
        std::make_shared<const HybridSupply>(ctx.make_supply(with_wind));
    for (const Scheme scheme : schemes) {
      ScenarioSpec s;
      s.scheme = scheme;
      s.tasks = tasks;
      s.supply = supply;
      s.x = with_wind ? 1.0 : 0.0;
      s.label = spec_label(scheme, "wind", s.x);
      specs.push_back(std::move(s));
    }
  }
  const std::vector<SimResult> results = SweepRunner(ctx).run(specs);

  std::vector<CostRow> rows;
  rows.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SimResult& r = results[i];
    CostRow row;
    row.scheme = specs[i].scheme;
    row.with_wind = specs[i].x != 0.0;
    row.cost = r.cost;
    row.utility = r.energy.utility;
    row.wind = r.energy.wind;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace iscope
