// The datacenter's processor population.
//
// `build_cluster` fabricates N processors through the variation and power
// models, derives every chip's ground-truth Min Vdd curves, and runs the
// factory speed-binning (3 bins by default, mirroring the AMD Opteron 6300
// line-up in the paper's Table 1). Every random draw is made serially in
// chip order; the curve derivation after it is pure per chip and runs in
// contiguous chip ranges on hardware threads. The result does not depend
// on the thread count: tests/data/golden/cluster_digests.txt pins it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hardware/processor.hpp"
#include "power/cpu_power.hpp"
#include "variation/binning.hpp"
#include "variation/die_layout.hpp"
#include "variation/varius.hpp"
#include "variation/vdd_model.hpp"

namespace iscope {

struct ClusterConfig {
  std::size_t num_processors = 4800;  ///< paper Sec. V-C: 4800 CPUs
  DieLayout layout = quad_core_layout();
  VariusParams varius;                ///< datacenter CPU defaults
  PowerModelParams power;             ///< Eq-1 coefficient distributions
  FreqLevels levels = FreqLevels::paper_default();
  int num_bins = 3;
  double intrinsic_guardband = 0.01;  ///< chip's own safety margin on MinVdd
  std::uint64_t seed = 1;

  void validate() const;
};

class Cluster {
 public:
  Cluster(ClusterConfig config, std::vector<Processor> procs,
          BinningResult binning, VariusModel varius, CpuPowerModel power);

  std::size_t size() const { return procs_.size(); }
  const Processor& proc(std::size_t i) const;
  const std::vector<Processor>& processors() const { return procs_; }

  const FreqLevels& levels() const { return config_.levels; }
  const BinningResult& binning() const { return binning_; }
  const VariusModel& varius() const { return varius_; }
  const CpuPowerModel& power_model() const { return power_; }
  const ClusterConfig& config() const { return config_; }

  /// Chip power of processor `i` at `level` when supplied `vdd`.
  Watts power(std::size_t i, std::size_t level, Volts vdd) const;

  /// The factory-bin worst-case voltage of processor `i` at `level` --
  /// what a Bin-scheme datacenter must apply.
  Volts bin_vdd(std::size_t i, std::size_t level) const;

  /// The ground-truth chip Min Vdd of processor `i` at `level` -- what a
  /// perfect scanner would discover.
  Volts true_vdd(std::size_t i, std::size_t level) const;

  /// Chip power under *per-core* voltage domains (paper Sec. III-B:
  /// on-chip LDO regulators per core): every core runs at its own true
  /// Min Vdd instead of the shared-domain worst case. Used by the
  /// voltage-domain ablation (DESIGN.md choice #2).
  Watts power_per_core_domains(std::size_t i, std::size_t level) const;

 private:
  ClusterConfig config_;
  std::vector<Processor> procs_;
  BinningResult binning_;
  VariusModel varius_;
  CpuPowerModel power_;
};

/// Fabricate the population deterministically from `config.seed`.
Cluster build_cluster(const ClusterConfig& config);

/// Derive each chip's ground-truth curves (`core_truth`, `chip_truth`)
/// from its sampled variation, in place. Pure per chip: contiguous chip
/// ranges run on hardware threads, and the result is bit-identical at any
/// thread count. A level some core cannot reach below min_vdd's 2 V
/// ceiling throws that solve's InvalidArgument, from the first such chip
/// in index order.
void derive_truth_curves(std::vector<Processor>& procs,
                         const VariusModel& varius,
                         const ClusterConfig& config);

}  // namespace iscope
