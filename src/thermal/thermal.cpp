#include "thermal/thermal.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/audit.hpp"
#include "common/error.hpp"

namespace iscope {

void ThermalConfig::validate() const {
  ISCOPE_CHECK_ARG(min_supply_c < max_supply_c,
                   "Thermal: min_supply_c must be below max_supply_c");
  ISCOPE_CHECK_ARG(red_line_c >= max_supply_c,
                   "Thermal: red_line_c must be at or above max_supply_c");
  ISCOPE_CHECK_ARG(self_coupling_k_per_w >= 0.0,
                   "Thermal: self_coupling_k_per_w must be >= 0");
  ISCOPE_CHECK_ARG(row_decay_racks > 0.0,
                   "Thermal: row_decay_racks must be > 0");
  ISCOPE_CHECK_ARG(cross_row_coupling >= 0.0 && cross_row_coupling <= 1.0,
                   "Thermal: cross_row_coupling must be in [0, 1]");
  ISCOPE_CHECK_ARG(cross_row_decay_rows > 0.0,
                   "Thermal: cross_row_decay_rows must be > 0");
}

double crac_cop(double supply_c) {
  return 0.0068 * supply_c * supply_c + 0.0008 * supply_c + 0.458;
}

RecirculationMatrix::RecirculationMatrix(const ThermalConfig& config,
                                         const TopologyConfig& topo,
                                         std::size_t racks)
    : racks_(racks) {
  config.validate();
  topo.validate();
  ISCOPE_CHECK_ARG(racks > 0, "RecirculationMatrix: empty facility");
  cells_.assign(racks_ * racks_, 0.0);
  weights_.assign(racks_, 0.0);
  const double per_row = static_cast<double>(topo.racks_per_row);
  for (std::size_t i = 0; i < racks_; ++i) {
    const std::size_t row_i = i / topo.racks_per_row;
    const double pos_i = static_cast<double>(i % topo.racks_per_row);
    for (std::size_t j = 0; j < racks_; ++j) {
      const std::size_t row_j = j / topo.racks_per_row;
      const double pos_j = static_cast<double>(j % topo.racks_per_row);
      // Same-row coupling decays with rack distance along the aisle;
      // cross-row coupling is weaker and decays with row distance, with
      // the rack positions still mattering (exhaust plumes stay local).
      const double rack_dist = std::abs(pos_i - pos_j);
      const double row_dist = static_cast<double>(
          row_i > row_j ? row_i - row_j : row_j - row_i);
      double coupling =
          std::exp(-rack_dist / config.row_decay_racks);
      if (row_dist > 0.0)
        coupling *= config.cross_row_coupling *
                    std::exp(-(row_dist - 1.0) / config.cross_row_decay_rows);
      cells_[i * racks_ + j] = config.self_coupling_k_per_w * coupling;
    }
    // Normalize each row so the facility-average column weight is
    // independent of row width: long rows would otherwise accumulate
    // more neighbour terms than short ones and run structurally hotter.
    double row_sum = 0.0;
    for (std::size_t j = 0; j < racks_; ++j) row_sum += cells_[i * racks_ + j];
    if (row_sum > 0.0) {
      const double scale =
          config.self_coupling_k_per_w * std::min(per_row, 4.0) / row_sum;
      for (std::size_t j = 0; j < racks_; ++j) cells_[i * racks_ + j] *= scale;
    }
  }
  for (std::size_t j = 0; j < racks_; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < racks_; ++i) col += cells_[i * racks_ + j];
    weights_[j] = col;
  }
}

ThermalModel::ThermalModel(const ThermalConfig& config,
                           const TopologyConfig& topo, std::size_t racks)
    : config_(config), matrix_(config, topo, racks) {}

ThermalSolution ThermalModel::solve(const std::vector<double>& rack_w,
                                    double derate_factor) const {
  ISCOPE_CHECK_ARG(rack_w.size() == matrix_.racks(),
                   "ThermalModel: rack power vector size mismatch");
  ISCOPE_CHECK_ARG(derate_factor > 0.0 && derate_factor <= 1.0,
                   "ThermalModel: derate_factor must be in (0, 1]");
  // Compared as bits, not as doubles: a -0.0 never matches a +0.0, and a
  // NaN matches only the same NaN, so a hit has the inputs compute() saw.
  if (memo_w_.size() == rack_w.size() &&
      std::memcmp(&memo_derate_, &derate_factor, sizeof derate_factor) == 0 &&
      std::memcmp(memo_w_.data(), rack_w.data(),
                  rack_w.size() * sizeof(double)) == 0) {
#if ISCOPE_AUDIT_ENABLED
    const ThermalSolution fresh = compute(rack_w, derate_factor);
    ISCOPE_AUDIT_CHECK(std::memcmp(&fresh, &memo_, sizeof fresh) == 0,
                       "ThermalModel: memoized solve differs from a fresh one");
#endif
    return memo_;
  }
  memo_ = compute(rack_w, derate_factor);
  memo_w_ = rack_w;
  memo_derate_ = derate_factor;
  return memo_;
}

ThermalSolution ThermalModel::compute(const std::vector<double>& rack_w,
                                      double derate_factor) const {
  const std::size_t n = matrix_.racks();
  double max_rise = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double r = 0.0;
    for (std::size_t j = 0; j < n; ++j) r += matrix_.at(i, j) * rack_w[j];
    max_rise = std::max(max_rise, r);
  }
  ThermalSolution out;
  out.max_rise_c = max_rise;
  out.supply_c = std::clamp(config_.red_line_c - max_rise,
                            config_.min_supply_c, config_.max_supply_c);
  out.peak_inlet_c = out.supply_c + max_rise;
  // A degraded CRAC removes less heat per watt of chiller input; floor
  // the effective COP so cooling power stays finite even under extreme
  // derating.
  out.cop = std::max(0.2, crac_cop(out.supply_c) * derate_factor);
  return out;
}

}  // namespace iscope
