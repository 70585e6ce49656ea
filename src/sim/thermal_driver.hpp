// ThermalDriver: the simulator's side of the thermal/CRAC model
// (thermal/thermal.hpp). A flat run owns its ThermalModel and solves it at
// every kThermal event against the rack power the core collects. A shard
// of a sharded run is fed by the coordinator instead, which solves one
// facility-wide model at each epoch barrier and stages the solution here
// for the shard's kThermal event. Both paths end in the same apply step.
// Either way ThermalModel::solve is memoized on its exact inputs, so an
// epoch that repeats the last one's rack watts and derate reuses it.
// The driver also owns the CRAC operating point (COP and supply
// temperature) and the hottest inlet seen so far.
// Disabled, it builds no model and the core schedules no kThermal event,
// so demand keeps the Eq-2 composition (ThermalOffIdentity pins this).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "hardware/topology.hpp"
#include "thermal/thermal.hpp"

namespace iscope {

class ThermalDriver {
 public:
  ThermalDriver(const ThermalConfig& config, const TopologyConfig& topology)
      : config_(config), topology_(topology) {}

  bool enabled() const { return config_.enabled; }
  /// prepare(): an idle facility has no rack rise, so the CRAC starts at
  /// its warmest, most efficient supply.
  void reset() {
    cop_ = crac_cop(config_.max_supply_c);
    supply_c_ = config_.max_supply_c;
    peak_inlet_c_ = 0.0;
    staged_ = false;
    staged_cop_ = 0.0;
    staged_supply_c_ = 0.0;
    staged_peak_c_ = 0.0;
  }
  /// Mark this simulator as a shard the coordinator feeds: it never builds
  /// or solves a model of its own.
  void feed_from_coordinator() { fed_ = true; }
  bool fed_from_coordinator() const { return fed_; }
  /// Build a flat run's own model over `nprocs` processors, once. Returns
  /// the model when this call built it, null otherwise.
  const ThermalModel* build_model(std::size_t nprocs) {
    if (!config_.enabled || fed_ || model_ != nullptr) return nullptr;
    const std::size_t racks =
        (nprocs + topology_.cpus_per_rack - 1) / topology_.cpus_per_rack;
    model_ = std::make_unique<ThermalModel>(config_, topology_, racks);
    return model_.get();
  }
  std::size_t racks() const { return model_->matrix().racks(); }

  /// Flat runs: solve the own model for per-rack IT watts.
  void solve(const std::vector<double>& rack_w, double derate) {
    const ThermalSolution s = model_->solve(rack_w, derate);
    apply(s.cop, s.supply_c, s.peak_inlet_c);
  }
  /// Coordinator: stage a barrier's solution for the next kThermal event.
  void stage(const ThermalSolution& s) {
    staged_ = true;
    staged_cop_ = s.cop;
    staged_supply_c_ = s.supply_c;
    staged_peak_c_ = s.peak_inlet_c;
  }
  /// Shards: apply the staged solution, if one is waiting.
  void apply_staged() {
    if (!staged_) return;
    apply(staged_cop_, staged_supply_c_, staged_peak_c_);
    staged_ = false;
  }

  double cop() const { return cop_; }
  double supply_c() const { return supply_c_; }
  double peak_inlet_c() const { return peak_inlet_c_; }

  /// This type's slice of the checkpoint (service/checkpoint.hpp).
  template <class Io>
  void io(Io& io) {
    io(cop_);
    io(supply_c_);
    io(peak_inlet_c_);
    io(staged_);
    io(staged_cop_);
    io(staged_supply_c_);
    io(staged_peak_c_);
  }

 private:
  void apply(double cop, double supply_c, double peak_inlet_c) {
    cop_ = cop;
    supply_c_ = supply_c;
    peak_inlet_c_ = std::max(peak_inlet_c_, peak_inlet_c);
  }

  ThermalConfig config_;
  TopologyConfig topology_;
  bool fed_ = false;
  std::unique_ptr<ThermalModel> model_;  ///< flat runs only
  double cop_ = 0.0;
  double supply_c_ = 0.0;
  double peak_inlet_c_ = 0.0;
  /// The coordinator's staging slot. Flat runs never write it, but its
  /// four fields travel in every checkpoint.
  bool staged_ = false;
  double staged_cop_ = 0.0;
  double staged_supply_c_ = 0.0;
  double staged_peak_c_ = 0.0;
};

}  // namespace iscope
