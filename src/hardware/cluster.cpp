#include "hardware/cluster.hpp"

#include <algorithm>
#include <future>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace iscope {

void ClusterConfig::validate() const {
  ISCOPE_CHECK_ARG(num_processors > 0, "ClusterConfig: empty cluster");
  ISCOPE_CHECK_ARG(num_bins >= 1, "ClusterConfig: need at least one bin");
  ISCOPE_CHECK_ARG(intrinsic_guardband >= 0.0,
                   "ClusterConfig: negative guardband");
  layout.validate();
  varius.validate();
  power.validate();
  levels.validate();
}

Cluster::Cluster(ClusterConfig config, std::vector<Processor> procs,
                 BinningResult binning, VariusModel varius, CpuPowerModel power)
    : config_(std::move(config)),
      procs_(std::move(procs)),
      binning_(std::move(binning)),
      varius_(std::move(varius)),
      power_(std::move(power)) {}

const Processor& Cluster::proc(std::size_t i) const {
  ISCOPE_CHECK_ARG(i < procs_.size(), "Cluster: processor index out of range");
  return procs_[i];
}

Watts Cluster::power(std::size_t i, std::size_t level, Volts vdd) const {
  const Processor& p = proc(i);
  ISCOPE_CHECK_ARG(level < config_.levels.count(),
                   "Cluster: level out of range");
  return power_.power(p.coeffs, Gigahertz{config_.levels.freq_ghz[level]},
                      vdd, Volts{config_.levels.vdd_nom[level]},
                      Volts{config_.levels.vdd_nom.back()});
}

Volts Cluster::bin_vdd(std::size_t i, std::size_t level) const {
  const Processor& p = proc(i);
  ISCOPE_CHECK(p.bin >= 0 && p.bin < binning_.bins(),
               "Cluster: processor has no valid bin");
  return Volts{binning_.bin_curve[static_cast<std::size_t>(p.bin)].vdd(level)};
}

Volts Cluster::true_vdd(std::size_t i, std::size_t level) const {
  return Volts{proc(i).chip_truth.vdd(level)};
}

Watts Cluster::power_per_core_domains(std::size_t i,
                                      std::size_t level) const {
  const Processor& p = proc(i);
  ISCOPE_CHECK_ARG(level < config_.levels.count(),
                   "Cluster: level out of range");
  const double n = static_cast<double>(p.core_count());
  // Split the chip's Eq-1 coefficients evenly across cores and evaluate
  // each core at its own Min Vdd.
  const PowerCoefficients per_core{p.coeffs.alpha / n, p.coeffs.beta / n};
  Watts total;
  for (const MinVddCurve& core : p.core_truth) {
    total += power_.power(per_core, Gigahertz{config_.levels.freq_ghz[level]},
                          Volts{core.vdd(level)},
                          Volts{config_.levels.vdd_nom[level]},
                          Volts{config_.levels.vdd_nom.back()});
  }
  return total;
}

void derive_truth_curves(std::vector<Processor>& procs,
                         const VariusModel& varius,
                         const ClusterConfig& config) {
  const auto derive = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Processor& p = procs[i];
      p.core_truth.clear();
      p.core_truth.reserve(p.variation.cores.size());
      for (const auto& core : p.variation.cores)
        p.core_truth.push_back(build_core_curve(varius, core, config.levels,
                                                config.intrinsic_guardband));
      p.chip_truth = MinVddCurve::chip_worst_case(p.core_truth);
    }
  };
  // One contiguous range per hardware thread, each of at least 256 chips,
  // so small clusters stay on the calling thread.
  const std::size_t n = procs.size();
  const std::size_t ranges = std::clamp<std::size_t>(
      n / 256, 1, std::max(1u, std::thread::hardware_concurrency()));
  const auto bound = [&](std::size_t r) { return n * r / ranges; };
  // The calling thread takes the first range. The rest are joined in range
  // order, so the first failing chip in index order is the one that
  // throws; unwinding joins every range before `procs` can go away.
  std::vector<std::future<void>> rest;
  for (std::size_t r = 1; r < ranges; ++r)
    rest.push_back(
        std::async(std::launch::async, derive, bound(r), bound(r + 1)));
  derive(0, bound(1));
  for (auto& range : rest) range.get();
}

Cluster build_cluster(const ClusterConfig& config) {
  config.validate();
  Rng rng(config.seed);
  Rng chip_rng = rng.fork("chips");
  Rng power_rng = rng.fork("power");

  const VariusModel varius(config.varius, config.layout);
  const CpuPowerModel power(config.power);

  // Every random draw is made here, serially in chip order, so the
  // threaded derivation below draws nothing.
  std::vector<Processor> procs(config.num_processors);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i].id = i;
    procs[i].variation = varius.sample_chip(chip_rng);
    procs[i].coeffs = power.sample(power_rng);
  }
  derive_truth_curves(procs, varius, config);

  std::vector<MinVddCurve> chip_curves;
  chip_curves.reserve(procs.size());
  for (const Processor& p : procs) chip_curves.push_back(p.chip_truth);
  BinningResult binning = speed_bin(chip_curves, config.num_bins);
  for (std::size_t i = 0; i < procs.size(); ++i)
    procs[i].bin = binning.bin_of_chip[i];

  return Cluster(config, std::move(procs), std::move(binning), varius, power);
}

}  // namespace iscope
