#include "core/iscope.hpp"

#include <utility>

#include "common/error.hpp"

namespace iscope {

IScope::Options::Options() {
  // One full V/F sweep per processor at the configured scanner settings.
  opportunistic.scan_time_per_proc_s =
      test_duration_s(scan.kind) * static_cast<double>(scan.voltage_points);
}

IScope::IScope(const Options& options)
    : options_(options),
      cluster_(std::make_unique<Cluster>(build_cluster(options.cluster))),
      db_(cluster_->size()),
      scan_rng_(Rng(options.seed).fork("iscope-scan")),
      cumulative_wear_s_(cluster_->size(), 0.0) {
  ISCOPE_CHECK_ARG(options.rescan_period_s > 0.0,
                   "IScope: rescan period must be > 0");
  options_.aging.validate();
  // Make the per-processor scan time consistent with the scan config and
  // the actual number of frequency levels.
  options_.opportunistic.scan_time_per_proc_s =
      test_duration_s(options_.scan.kind) *
      static_cast<double>(options_.scan.voltage_points) *
      static_cast<double>(cluster_->levels().count());
}

std::vector<std::size_t> IScope::stale_processors(double now_s) const {
  return db_.stale(now_s - options_.rescan_period_s);
}

ProfilingPlan IScope::plan_scans(const std::vector<double>& demand_fraction,
                                 const HybridSupply& supply,
                                 double now_s) const {
  return plan_profiling(demand_fraction, supply, stale_processors(now_s),
                        options_.opportunistic);
}

void IScope::execute_plan(const ProfilingPlan& plan) {
  const Scanner scanner(cluster_.get(), options_.scan);
  for (const ProfilingWindow& w : plan.windows)
    scanner.scan_domain(w.proc_ids, w.start_s, scan_rng_, db_);
}

void IScope::scan_all(double now_s) {
  const Scanner scanner(cluster_.get(), options_.scan);
  std::vector<std::size_t> all(cluster_->size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  scanner.scan_domain(all, now_s, scan_rng_, db_);
}

void IScope::apply_wear(const std::vector<double>& busy_time_s) {
  ISCOPE_CHECK_ARG(busy_time_s.size() == cluster_->size(),
                   "IScope: one wear entry per processor required");
  for (std::size_t i = 0; i < busy_time_s.size(); ++i) {
    ISCOPE_CHECK_ARG(busy_time_s[i] >= 0.0, "IScope: negative wear");
    cumulative_wear_s_[i] += busy_time_s[i];
  }
  // Rebuild the physical truth from the *pristine* fabrication state aged
  // by the cumulative stress (the power law is over total stress time).
  const Cluster pristine = build_cluster(options_.cluster);
  *cluster_ = aged_cluster(pristine, cumulative_wear_s_, options_.aging);
}

std::size_t IScope::undervolt_violations() const {
  // The same map the Scan schemes would apply: latest scan where present,
  // factory bin spec otherwise.
  std::vector<std::vector<double>> applied(cluster_->size());
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    const ChipProfile* p = db_.find(i);
    for (std::size_t l = 0; l < cluster_->levels().count(); ++l) {
      applied[i].push_back(p != nullptr ? p->chip_vdd.vdd(l)
                                        : cluster_->bin_vdd(i, l).volts());
    }
  }
  return count_undervolt_violations(*cluster_, applied);
}

SimResult IScope::schedule(Scheme scheme, const std::vector<Task>& tasks,
                           const HybridSupply& supply,
                           const WindForecaster* forecaster) const {
  const Knowledge knowledge(cluster_.get(), scheme_knowledge(scheme),
                            scheme_uses_scan(scheme) ? &db_ : nullptr);
  DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply,
                    apply_scheme_requests(scheme, options_.sim), forecaster);
  return sim.run(tasks);
}

SimResult IScope::schedule_with_profiling(Scheme scheme,
                                          const std::vector<Task>& tasks,
                                          const HybridSupply& supply,
                                          const ProfilingPlan& plan) const {
  const Knowledge knowledge(cluster_.get(), scheme_knowledge(scheme),
                            scheme_uses_scan(scheme) ? &db_ : nullptr);
  DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply,
                    apply_scheme_requests(scheme, options_.sim));
  return sim.run(tasks, plan.windows);
}

double IScope::total_wear_s(std::size_t proc) const {
  ISCOPE_CHECK_ARG(proc < cumulative_wear_s_.size(),
                   "IScope: processor out of range");
  return cumulative_wear_s_[proc];
}

}  // namespace iscope
