#include "hardware/aging.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace iscope {

void AgingParams::validate() const {
  ISCOPE_CHECK_ARG(prefactor >= 0.0, "aging: prefactor must be >= 0");
  ISCOPE_CHECK_ARG(reference_hours > 0.0, "aging: reference must be > 0");
  ISCOPE_CHECK_ARG(exponent > 0.0 && exponent < 1.0,
                   "aging: exponent must be in (0,1)");
}

double AgingParams::delta_vth(double stress_s, double vth_nominal) const {
  validate();
  ISCOPE_CHECK_ARG(stress_s >= 0.0, "aging: negative stress time");
  if (stress_s == 0.0) return 0.0;
  const double hours = stress_s / units::kSecondsPerHour;
  return vth_nominal * prefactor *
         std::pow(hours / reference_hours, exponent);
}

CoreVariation age_core(const CoreVariation& core, double stress_s,
                       const AgingParams& params,
                       const VariusParams& varius) {
  CoreVariation aged = core;
  const double dvth = params.delta_vth(stress_s, varius.vth_nominal);
  aged.vth += dvth;
  // Subthreshold leakage falls exponentially as Vth rises.
  aged.leak_scale *=
      std::exp(-dvth * std::log(10.0) / varius.subthreshold_slope);
  return aged;
}

Cluster aged_cluster(const Cluster& cluster,
                     const std::vector<double>& stress_s,
                     const AgingParams& params) {
  ISCOPE_CHECK_ARG(stress_s.size() == cluster.size(),
                   "aged_cluster: one stress time per processor required");
  params.validate();

  const VariusModel& varius = cluster.varius();
  std::vector<Processor> procs = cluster.processors();  // keeps coeffs, id, bin
  for (std::size_t i = 0; i < procs.size(); ++i)
    for (auto& core : procs[i].variation.cores)
      core = age_core(core, stress_s[i], params, varius.params());
  derive_truth_curves(procs, varius, cluster.config());

  // Factory bins are stamped on the package; they do not follow the drift.
  return Cluster(cluster.config(), std::move(procs), cluster.binning(), varius,
                 cluster.power_model());
}

std::size_t count_undervolt_violations(
    const Cluster& cluster,
    const std::vector<std::vector<double>>& applied_vdd) {
  ISCOPE_CHECK_ARG(applied_vdd.size() == cluster.size(),
                   "violations: one voltage row per processor required");
  std::size_t count = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ISCOPE_CHECK_ARG(applied_vdd[i].size() == cluster.levels().count(),
                     "violations: one voltage per level required");
    for (std::size_t l = 0; l < applied_vdd[i].size(); ++l)
      if (Volts{applied_vdd[i][l]} < cluster.true_vdd(i, l)) ++count;
  }
  return count;
}

}  // namespace iscope
