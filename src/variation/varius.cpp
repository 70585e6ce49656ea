#include "variation/varius.hpp"

#include <cmath>

#include "common/error.hpp"

namespace iscope {

void VariusParams::validate() const {
  ISCOPE_CHECK_ARG(vth_nominal > 0.0, "vth_nominal must be > 0");
  ISCOPE_CHECK_ARG(sigma_d2d >= 0.0 && sigma_wid >= 0.0 && speed_sigma >= 0.0,
                   "sigmas must be >= 0");
  ISCOPE_CHECK_ARG(phi > 0.0, "phi must be > 0");
  ISCOPE_CHECK_ARG(alpha_power >= 1.0, "alpha_power must be >= 1");
  ISCOPE_CHECK_ARG(f_nominal_ghz > 0.0, "f_nominal_ghz must be > 0");
  ISCOPE_CHECK_ARG(v_nominal > vth_nominal,
                   "v_nominal must exceed vth_nominal");
  ISCOPE_CHECK_ARG(vdd_margin > 0.0 && vdd_margin < 0.5,
                   "vdd_margin must be in (0, 0.5)");
  ISCOPE_CHECK_ARG(v_floor >= 0.0 && v_floor < v_nominal,
                   "v_floor must be in [0, v_nominal)");
  ISCOPE_CHECK_ARG(v_nominal * (1.0 - vdd_margin) > vth_nominal,
                   "calibration anchor voltage must exceed vth_nominal");
  ISCOPE_CHECK_ARG(subthreshold_slope > 0.0, "subthreshold_slope must be > 0");
}

VariusParams a10_params() {
  VariusParams p;
  p.vth_nominal = 0.35;
  p.f_nominal_ghz = 3.8;
  p.v_nominal = 1.375;
  // Nominal core MinVdd anchored at 1.219 V (Fig. 4A mean): 1 - 1.219/1.375.
  p.vdd_margin = 1.0 - 1.219 / 1.375;
  // Fig. 4A spread: Min Vdd in [1.19, 1.25] over 16 cores -> ~+-1.2% around
  // the mean, driven mostly by cross-chip (D2D) differences.
  p.sigma_d2d = 0.012;
  p.sigma_wid = 0.008;
  p.speed_sigma = 0.01;
  p.v_floor = 0.9;
  return p;
}

VariusModel::VariusModel(const VariusParams& params, const DieLayout& layout)
    : params_(params),
      layout_(layout),
      vth_field_(layout, params.phi),
      speed_field_(layout, params.phi) {
  params_.validate();
  // Calibrate k0 so the exactly-nominal core reaches f_nominal at the anchor
  // voltage v_nominal * (1 - vdd_margin):  f = k (V - Vth)^a / V.
  const double v_anchor = params_.v_nominal * (1.0 - params_.vdd_margin);
  k0_ = params_.f_nominal_ghz * v_anchor /
        std::pow(v_anchor - params_.vth_nominal, params_.alpha_power);
}

ChipVariation VariusModel::sample_chip(Rng& rng) const {
  ChipVariation chip;
  chip.d2d_offset = rng.normal(0.0, params_.sigma_d2d);
  const auto vth_wid = vth_field_.core_means(vth_field_.sample(rng));
  const auto speed_wid = speed_field_.core_means(speed_field_.sample(rng));

  chip.cores.resize(layout_.core_count());
  const double ln10_over_slope = std::log(10.0) / params_.subthreshold_slope;
  for (std::size_t c = 0; c < chip.cores.size(); ++c) {
    CoreVariation& core = chip.cores[c];
    const double rel =
        1.0 + chip.d2d_offset + params_.sigma_wid * vth_wid[c];
    core.vth = params_.vth_nominal * rel;
    core.speed_k = k0_ * (1.0 + params_.speed_sigma * speed_wid[c]);
    // Lower Vth -> exponentially more leakage (subthreshold conduction).
    core.leak_scale = std::exp(-(core.vth - params_.vth_nominal) *
                               ln10_over_slope);
  }
  return chip;
}

double VariusModel::fmax_ghz(const CoreVariation& core, double vdd) const {
  ISCOPE_CHECK_ARG(vdd > 0.0, "fmax_ghz: vdd must be > 0");
  if (vdd <= core.vth) return 0.0;
  return core.speed_k *
         std::pow(vdd - core.vth, params_.alpha_power) / vdd;
}

double VariusModel::min_vdd(const CoreVariation& core, double f_ghz,
                            double v_ceiling) const {
  ISCOPE_CHECK_ARG(f_ghz > 0.0, "min_vdd: frequency must be > 0");
  ISCOPE_CHECK_ARG(v_ceiling > core.vth, "min_vdd: ceiling below Vth");
  if (fmax_ghz(core, v_ceiling) < f_ghz)
    throw InvalidArgument("min_vdd: frequency unreachable below ceiling");
  // fmax is monotone increasing in V for alpha >= 1, so bisect. A step is
  // a pure function of (lo, hi): once one leaves both unchanged, every
  // later step would too, so stopping there returns the 80-step answer.
  double lo = core.vth + 1e-6;
  double hi = v_ceiling;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    double& side = fmax_ghz(core, mid) >= f_ghz ? hi : lo;
    if (side == mid) break;
    side = mid;
  }
  return std::max(hi, params_.v_floor);
}

double VariusModel::leakage_rel(const CoreVariation& core, double vdd) const {
  ISCOPE_CHECK_ARG(vdd > 0.0, "leakage_rel: vdd must be > 0");
  return core.leak_scale * (vdd / params_.v_nominal);
}

}  // namespace iscope
