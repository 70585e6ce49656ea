#include "variation/varius.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "variation/vdd_model.hpp"

namespace iscope {
namespace {

VariusModel default_model() {
  return VariusModel(VariusParams{}, quad_core_layout());
}

CoreVariation nominal_core(const VariusModel& m) {
  CoreVariation c;
  c.vth = m.params().vth_nominal;
  c.speed_k = m.nominal_speed_k();
  c.leak_scale = 1.0;
  return c;
}

TEST(VariusParams, ValidationCatchesBadValues) {
  VariusParams p;
  p.vth_nominal = -0.1;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.alpha_power = 0.9;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.v_nominal = 0.2;  // below vth
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.vdd_margin = 0.6;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = VariusParams{};
  p.v_floor = 2.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(VariusModel, CalibrationAnchor) {
  // The exactly-nominal core's fmax at the anchor voltage equals f_nominal.
  const VariusModel m = default_model();
  const VariusParams& p = m.params();
  const double v_anchor = p.v_nominal * (1.0 - p.vdd_margin);
  const CoreVariation core = nominal_core(m);
  EXPECT_NEAR(m.fmax_ghz(core, v_anchor), p.f_nominal_ghz, 1e-9);
}

TEST(VariusModel, FmaxMonotoneInVoltage) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  double prev = 0.0;
  for (double v = 0.5; v <= 1.6; v += 0.05) {
    const double f = m.fmax_ghz(core, v);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(VariusModel, FmaxZeroBelowThreshold) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_EQ(m.fmax_ghz(core, core.vth * 0.9), 0.0);
}

TEST(VariusModel, MinVddInvertsAlphaPowerLaw) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  for (const double f : {0.75, 1.0, 1.5, 2.0}) {
    const double v = m.min_vdd(core, f);
    if (v > m.params().v_floor) {
      EXPECT_NEAR(m.fmax_ghz(core, v), f, 1e-6);
    } else {
      // Floor binds: the core can actually go faster at the floor voltage.
      EXPECT_GE(m.fmax_ghz(core, v), f);
    }
  }
}

TEST(VariusModel, MinVddMonotoneInFrequency) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  double prev = 0.0;
  for (double f = 0.5; f <= 2.0; f += 0.25) {
    const double v = m.min_vdd(core, f);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(VariusModel, MinVddRespectsFloor) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_GE(m.min_vdd(core, 0.1), m.params().v_floor);
}

TEST(VariusModel, MinVddUnreachableThrows) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_THROW(m.min_vdd(core, 100.0), InvalidArgument);
  EXPECT_THROW(m.min_vdd(core, 1.0, core.vth * 0.5), InvalidArgument);
}

// min_vdd as a plain 80-step bisection: the oracle its early stop must
// reproduce bit for bit. Unreachable targets come back empty.
std::optional<double> eighty_step_min_vdd(const VariusModel& m,
                                          const CoreVariation& core,
                                          double f_ghz, double v_ceiling) {
  if (m.fmax_ghz(core, v_ceiling) < f_ghz) return std::nullopt;
  double lo = core.vth + 1e-6;
  double hi = v_ceiling;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (m.fmax_ghz(core, mid) >= f_ghz) hi = mid;
    else lo = mid;
  }
  return std::max(hi, m.params().v_floor);
}

std::optional<double> checked_min_vdd(const VariusModel& m,
                                      const CoreVariation& core, double f_ghz,
                                      double v_ceiling) {
  try {
    return m.min_vdd(core, f_ghz, v_ceiling);
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

TEST(VariusModel, MinVddEqualsEightyStepBisection) {
  // 20 000 sampled cores: 2 500 quad-core chips under each parameter set,
  // at every paper DVFS level (plus the A10's 3.8 GHz), under the 2 V
  // ceiling build_core_curve uses and the 3 V one population_stats uses.
  // Three edge targets per core: exactly fmax at the ceiling; one ulp
  // below fmax at vth + 2 uV; and fmax at vth + 1 uV, the bisection's
  // lower end, which the loop never evaluates. The edge targets also run
  // with the retention floor at 0 V, so a slip at the low end is not
  // hidden under the floor.
  const std::vector<double> paper = FreqLevels::paper_default().freq_ghz;
  std::vector<double> a10 = paper;
  a10.push_back(3.8);
  const struct {
    VariusParams params;
    std::vector<double> levels;
  } sets[] = {{VariusParams{}, paper}, {a10_params(), a10}};

  std::size_t cores = 0;
  std::size_t solves = 0;
  std::size_t differing = 0;
  for (const auto& set : sets) {
    VariusParams floorless = set.params;
    floorless.v_floor = 0.0;
    const VariusModel models[] = {VariusModel(set.params, quad_core_layout()),
                                  VariusModel(floorless, quad_core_layout())};
    Rng rng(23);
    for (int c = 0; c < 2500; ++c) {
      for (const CoreVariation& core : models[0].sample_chip(rng).cores) {
        ++cores;
        for (const double ceiling : {2.0, 3.0}) {
          const std::vector<double> edges = {
              models[0].fmax_ghz(core, ceiling),
              std::nextafter(models[0].fmax_ghz(core, core.vth + 2e-6), 0.0),
              models[0].fmax_ghz(core, core.vth + 1e-6)};
          std::vector<double> targets = set.levels;
          targets.insert(targets.end(), edges.begin(), edges.end());
          for (const VariusModel& m : models) {
            for (const double f : &m == &models[0] ? targets : edges) {
              ++solves;
              const auto want = eighty_step_min_vdd(m, core, f, ceiling);
              const auto got = checked_min_vdd(m, core, f, ceiling);
              const bool same =
                  want.has_value() == got.has_value() &&
                  (!want || std::bit_cast<std::uint64_t>(*want) ==
                                std::bit_cast<std::uint64_t>(*got));
              if (!same && ++differing <= 10)
                ADD_FAILURE() << "min_vdd(f=" << f << ", ceiling=" << ceiling
                              << ", v_floor=" << m.params().v_floor
                              << ") = " << got.value_or(-1.0)
                              << ", 80-step bisection = "
                              << want.value_or(-1.0);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cores, 20000u);
  EXPECT_EQ(differing, 0u) << "of " << solves << " solves";
}

TEST(VariusModel, SlowerCoreNeedsHigherVoltage) {
  const VariusModel m = default_model();
  CoreVariation fast = nominal_core(m);
  CoreVariation slow = fast;
  slow.vth *= 1.1;  // higher threshold -> slower
  EXPECT_GT(m.min_vdd(slow, 2.0), m.min_vdd(fast, 2.0));
}

TEST(VariusModel, LeakageFallsWithVth) {
  const VariusModel m = default_model();
  Rng rng(1);
  const ChipVariation chip = m.sample_chip(rng);
  // Across sampled cores, higher vth must mean lower leak_scale.
  for (std::size_t i = 0; i < chip.cores.size(); ++i)
    for (std::size_t j = 0; j < chip.cores.size(); ++j)
      if (chip.cores[i].vth > chip.cores[j].vth) {
        EXPECT_LT(chip.cores[i].leak_scale, chip.cores[j].leak_scale);
      }
}

TEST(VariusModel, LeakageScalesWithVoltage) {
  const VariusModel m = default_model();
  const CoreVariation core = nominal_core(m);
  EXPECT_GT(m.leakage_rel(core, 1.3), m.leakage_rel(core, 1.0));
  EXPECT_NEAR(m.leakage_rel(core, m.params().v_nominal), 1.0, 1e-12);
}

TEST(VariusModel, SampleChipDeterministic) {
  const VariusModel m = default_model();
  Rng a(5), b(5);
  const ChipVariation c1 = m.sample_chip(a);
  const ChipVariation c2 = m.sample_chip(b);
  ASSERT_EQ(c1.cores.size(), c2.cores.size());
  for (std::size_t i = 0; i < c1.cores.size(); ++i) {
    EXPECT_EQ(c1.cores[i].vth, c2.cores[i].vth);
    EXPECT_EQ(c1.cores[i].speed_k, c2.cores[i].speed_k);
  }
}

TEST(VariusModel, PopulationStatistics) {
  const VariusModel m = default_model();
  Rng rng(9);
  RunningStats vth;
  for (int i = 0; i < 500; ++i) {
    const ChipVariation chip = m.sample_chip(rng);
    for (const auto& core : chip.cores) vth.add(core.vth);
  }
  const VariusParams& p = m.params();
  EXPECT_NEAR(vth.mean(), p.vth_nominal, 0.01);
  // Core-averaged WID variance is damped; D2D passes through fully, so the
  // observed sigma lies between sigma_d2d and the combined value.
  const double rel_sigma = vth.stddev() / p.vth_nominal;
  EXPECT_GT(rel_sigma, p.sigma_d2d * 0.8);
  EXPECT_LT(rel_sigma,
            std::sqrt(p.sigma_d2d * p.sigma_d2d + p.sigma_wid * p.sigma_wid) *
                1.2);
}

TEST(VariusModel, LeakageSpreadIsLarge) {
  // The paper cites up to 20x chip leakage spread [14]; with default sigmas
  // the population min/max leak ratio should span at least several-fold.
  const VariusModel m = default_model();
  Rng rng(10);
  double lo = 1e18, hi = 0.0;
  for (int i = 0; i < 500; ++i) {
    const ChipVariation chip = m.sample_chip(rng);
    for (const auto& core : chip.cores) {
      lo = std::min(lo, core.leak_scale);
      hi = std::max(hi, core.leak_scale);
    }
  }
  EXPECT_GT(hi / lo, 4.0);
}

TEST(A10Params, CalibratedToFigure4) {
  // Fabricate many A10-like cores; Min Vdd at 3.8 GHz should center near
  // the paper's 1.219 V mean and stay within a plausible band of the
  // reported [1.19, 1.25] range.
  const VariusParams p = a10_params();
  const VariusModel m(p, quad_core_layout());
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200; ++i) {
    const ChipVariation chip = m.sample_chip(rng);
    for (const auto& core : chip.cores)
      stats.add(m.min_vdd(core, 3.8));
  }
  EXPECT_NEAR(stats.mean(), 1.219, 0.015);
  EXPECT_GT(stats.min(), 1.13);
  EXPECT_LT(stats.max(), 1.31);
  // Everything runs below the 1.375 V nominal (the ~9% margin claim).
  EXPECT_LT(stats.max(), 1.375);
}

}  // namespace
}  // namespace iscope
