#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "hardware/aging.hpp"
#include "hardware/cluster.hpp"
#include "sim_identity.hpp"

namespace iscope {
namespace {

ClusterConfig small_config(std::size_t n = 32, std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.num_processors = n;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------- Cluster

TEST(Cluster, BuildAssignsIdsAndBins) {
  const Cluster c = build_cluster(small_config());
  EXPECT_EQ(c.size(), 32u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.proc(i).id, i);
    EXPECT_GE(c.proc(i).bin, 0);
    EXPECT_LT(c.proc(i).bin, 3);
    EXPECT_EQ(c.proc(i).core_count(), 4u);  // quad-core layout
  }
}

TEST(Cluster, TruthCurvesConsistent) {
  const Cluster c = build_cluster(small_config());
  const std::size_t levels = c.levels().count();
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Processor& p = c.proc(i);
    for (std::size_t l = 0; l < levels; ++l) {
      // Chip truth is the max over cores.
      double max_core = 0.0;
      for (const auto& core : p.core_truth)
        max_core = std::max(max_core, core.vdd(l));
      EXPECT_DOUBLE_EQ(p.chip_truth.vdd(l), max_core);
      EXPECT_DOUBLE_EQ(c.true_vdd(i, l).volts(), p.chip_truth.vdd(l));
    }
  }
}

TEST(Cluster, BinVoltageDominatesTruth) {
  const Cluster c = build_cluster(small_config(64, 3));
  for (std::size_t i = 0; i < c.size(); ++i)
    for (std::size_t l = 0; l < c.levels().count(); ++l)
      EXPECT_GE(c.bin_vdd(i, l), c.true_vdd(i, l));
}

TEST(Cluster, DeterministicAcrossBuilds) {
  const Cluster a = build_cluster(small_config(16, 42));
  const Cluster b = build_cluster(small_config(16, 42));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.proc(i).coeffs.alpha, b.proc(i).coeffs.alpha);
    EXPECT_EQ(a.proc(i).coeffs.beta, b.proc(i).coeffs.beta);
    EXPECT_EQ(a.proc(i).chip_truth.vdds(), b.proc(i).chip_truth.vdds());
    EXPECT_EQ(a.proc(i).bin, b.proc(i).bin);
  }
}

TEST(Cluster, SeedsChangePopulation) {
  const Cluster a = build_cluster(small_config(16, 1));
  const Cluster b = build_cluster(small_config(16, 2));
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.proc(i).chip_truth.vdds() != b.proc(i).chip_truth.vdds())
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Cluster, PowerMatchesModel) {
  const Cluster c = build_cluster(small_config());
  const std::size_t top = c.levels().count() - 1;
  const Processor& p = c.proc(0);
  const double v = c.levels().vdd_nom[top];
  EXPECT_DOUBLE_EQ(
      c.power(0, top, Volts{v}).watts(),
      c.power_model()
          .power_eq1(p.coeffs, Gigahertz{c.levels().freq_ghz[top]})
          .watts());
}

TEST(Cluster, ScanVoltageCheaperThanBin) {
  const Cluster c = build_cluster(small_config(64, 7));
  const std::size_t top = c.levels().count() - 1;
  double scan_total = 0.0, bin_total = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    scan_total += c.power(i, top, c.true_vdd(i, top)).watts();
    bin_total += c.power(i, top, c.bin_vdd(i, top)).watts();
  }
  EXPECT_LT(scan_total, bin_total);
}

TEST(Cluster, Validation) {
  ClusterConfig cfg = small_config();
  cfg.num_processors = 0;
  EXPECT_THROW(build_cluster(cfg), InvalidArgument);
  cfg = small_config();
  cfg.num_bins = 0;
  EXPECT_THROW(build_cluster(cfg), InvalidArgument);
  const Cluster c = build_cluster(small_config());
  EXPECT_THROW(c.proc(999), InvalidArgument);
  EXPECT_THROW(c.power(0, 99, Volts{1.0}), InvalidArgument);
}

TEST(Cluster, BinPopulationsBalanced) {
  const Cluster c = build_cluster(small_config(90, 5));
  const auto& sizes = c.binning().bin_sizes;
  ASSERT_EQ(sizes.size(), 3u);
  for (const std::size_t s : sizes) EXPECT_EQ(s, 30u);
}

// ------------------------------------------------- cluster bit-identity
//
// A fabricated population flattens to one field list: per chip its id,
// bin, D2D offset, every core's variation, the Eq-1 coefficients, every
// core curve and the chip curve (frequencies and voltages); then the
// binning's per-chip bins, bin curves and bin sizes. Every sequence is
// preceded by its length, and doubles are kept as IEEE bits, so "equal"
// means bit-identical. A scan's ProfileDb flattens the same way.

struct ClusterField {
  const char* name;
  std::size_t index;  ///< the chip (or bin) the value belongs to
  std::uint64_t bits;
};

class FieldList {
 public:
  void real(const char* name, std::size_t i, double v) {
    fields_.push_back({name, i, std::bit_cast<std::uint64_t>(v)});
  }
  void count(const char* name, std::size_t i, std::uint64_t v) {
    fields_.push_back({name, i, v});
  }
  void curve(const char* name, std::size_t i, const MinVddCurve& c) {
    count(name, i, c.levels());
    for (std::size_t l = 0; l < c.levels(); ++l) {
      real(name, i, c.freq(l));
      real(name, i, c.vdd(l));
    }
  }
  std::vector<ClusterField> take() { return std::move(fields_); }

 private:
  std::vector<ClusterField> fields_;
};

std::vector<ClusterField> flatten_cluster(const Cluster& c) {
  FieldList f;
  f.count("chips", 0, c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Processor& p = c.proc(i);
    f.count("id", i, p.id);
    f.count("bin", i, static_cast<std::uint64_t>(p.bin));
    f.real("d2d_offset", i, p.variation.d2d_offset);
    f.count("cores", i, p.core_count());
    for (const CoreVariation& core : p.variation.cores) {
      f.real("core.vth", i, core.vth);
      f.real("core.speed_k", i, core.speed_k);
      f.real("core.leak_scale", i, core.leak_scale);
    }
    f.real("coeffs.alpha", i, p.coeffs.alpha.raw());
    f.real("coeffs.beta", i, p.coeffs.beta.watts());
    f.count("core_truth", i, p.core_truth.size());
    for (const MinVddCurve& curve : p.core_truth)
      f.curve("core_truth", i, curve);
    f.curve("chip_truth", i, p.chip_truth);
  }
  const BinningResult& b = c.binning();
  f.count("bin_of_chip", 0, b.bin_of_chip.size());
  for (std::size_t i = 0; i < b.bin_of_chip.size(); ++i)
    f.count("bin_of_chip", i, static_cast<std::uint64_t>(b.bin_of_chip[i]));
  f.count("bin_curve", 0, b.bin_curve.size());
  for (std::size_t k = 0; k < b.bin_curve.size(); ++k)
    f.curve("bin_curve", k, b.bin_curve[k]);
  f.count("bin_sizes", 0, b.bin_sizes.size());
  for (std::size_t k = 0; k < b.bin_sizes.size(); ++k)
    f.count("bin_sizes", k, b.bin_sizes[k]);
  return f.take();
}

std::vector<ClusterField> flatten_profiles(const ProfileDb& db) {
  FieldList f;
  f.count("procs", 0, db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    const ChipProfile* p = db.find(i);
    f.count("profiled", i, p != nullptr);
    if (p == nullptr) continue;
    f.count("proc_id", i, p->proc_id);
    f.count("core_vdd", i, p->core_vdd.size());
    for (const MinVddCurve& curve : p->core_vdd) f.curve("core_vdd", i, curve);
    f.curve("chip_vdd", i, p->chip_vdd);
    f.real("profiled_at_s", i, p->profiled_at_s);
    f.count("trials", i, p->trials);
    f.real("scan_time_s", i, p->scan_time_s);
    f.real("scan_energy_j", i, p->scan_energy_j);
  }
  return f.take();
}

std::string fields_digest(const std::vector<ClusterField>& fields) {
  std::uint64_t h = kFnv1aBasis;
  for (const ClusterField& f : fields) h = fnv1a_mix(h, f.bits);
  return digest_hex(h);
}

void expect_same_fields(const std::vector<ClusterField>& a,
                        const std::vector<ClusterField>& b) {
  ASSERT_EQ(a.size(), b.size()) << "field lists differ in length";
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bits == b[i].bits) continue;
    if (++differing <= 10)
      ADD_FAILURE() << a[i].name << " of chip " << a[i].index
                    << " differs: bits " << std::hex << a[i].bits << " vs "
                    << b[i].bits << std::dec;
  }
  EXPECT_EQ(differing, 0u) << "fields differ between the two clusters";
}

// build_cluster as one serial loop that draws and derives chip by chip:
// the oracle the threaded build must equal.
Cluster serial_reference_build(const ClusterConfig& config) {
  Rng rng(config.seed);
  Rng chip_rng = rng.fork("chips");
  Rng power_rng = rng.fork("power");
  const VariusModel varius(config.varius, config.layout);
  const CpuPowerModel power(config.power);
  std::vector<Processor> procs;
  std::vector<MinVddCurve> chip_curves;
  for (std::size_t i = 0; i < config.num_processors; ++i) {
    Processor p;
    p.id = i;
    p.variation = varius.sample_chip(chip_rng);
    p.coeffs = power.sample(power_rng);
    for (const auto& core : p.variation.cores)
      p.core_truth.push_back(build_core_curve(varius, core, config.levels,
                                              config.intrinsic_guardband));
    p.chip_truth = MinVddCurve::chip_worst_case(p.core_truth);
    chip_curves.push_back(p.chip_truth);
    procs.push_back(std::move(p));
  }
  BinningResult binning = speed_bin(chip_curves, config.num_bins);
  for (std::size_t i = 0; i < procs.size(); ++i)
    procs[i].bin = binning.bin_of_chip[i];
  return Cluster(config, std::move(procs), std::move(binning), varius, power);
}

TEST(Cluster, ParallelBuildEqualsSerialReference) {
  // 4 096 chips span several chip ranges on any multi-core host.
  const ClusterConfig cfg = small_config(4096, 11);
  expect_same_fields(flatten_cluster(build_cluster(cfg)),
                     flatten_cluster(serial_reference_build(cfg)));
}

// The build must throw min_vdd's own error, not a later one from binning
// half-derived curves.
void expect_unreachable_level(const ClusterConfig& cfg) {
  try {
    build_cluster(cfg);
    ADD_FAILURE() << "build_cluster did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unreachable below ceiling"),
              std::string::npos)
        << e.what();
  }
}

std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(Cluster, UnreachableLevelThrowsFromAnyChipRange) {
  // No chip reaches 50 GHz below the 2 V ceiling: every range throws.
  ClusterConfig none = small_config(4096, 11);
  none.levels.freq_ghz.back() = 50.0;

  // Only the weakest chip misses a top level set just above its reach.
  // That chip lies in the back half of the population, past the calling
  // thread's range on any host with two or more hardware threads, so its
  // exception crosses a future.
  ClusterConfig one = small_config(4096, 11);
  const VariusModel varius(one.varius, one.layout);
  Rng chip_rng = Rng(one.seed).fork("chips");
  std::vector<double> reach;  // per chip: the slowest core's fmax at 2 V
  for (std::size_t i = 0; i < one.num_processors; ++i) {
    double r = std::numeric_limits<double>::infinity();
    for (const CoreVariation& core : varius.sample_chip(chip_rng).cores)
      r = std::min(r, varius.fmax_ghz(core, 2.0));
    reach.push_back(r);
  }
  const auto weakest = std::min_element(reach.begin(), reach.end());
  ASSERT_GE(static_cast<std::size_t>(weakest - reach.begin()),
            one.num_processors / 2);
  double second = std::numeric_limits<double>::infinity();
  for (auto it = reach.begin(); it != reach.end(); ++it)
    if (it != weakest) second = std::min(second, *it);
  ASSERT_LT(*weakest, second);
  one.levels.freq_ghz.back() = 0.5 * (*weakest + second);

  const bool proc_fs = std::filesystem::exists("/proc/self/task");
  const std::size_t threads_before = proc_fs ? live_threads() : 0;
  expect_unreachable_level(none);
  expect_unreachable_level(one);
  if (proc_fs) {
    EXPECT_EQ(live_threads(), threads_before)
        << "a chip-range thread outlived the failed build";
  }
}

// tests/data/golden/cluster_digests.txt pins one digest per fabricated
// population: the 480-CPU paper_small cluster (one chip range), the
// 4 096-CPU hyperscale cluster (several ranges on a multi-core host), that
// context's full-scan ProfileDb, and the same cluster aged under a fixed
// per-chip stress vector. As in GoldenResults.Matrix, a moved or missing
// row prints a ready-to-paste line and an extra row fails.
TEST(GoldenCluster, Digests) {
  const std::string path =
      std::string(ISCOPE_TEST_DATA_DIR) + "/golden/cluster_digests.txt";
  std::map<std::string, std::string> golden = read_golden_rows(path);

  std::vector<std::pair<std::string, std::string>> rows;
  rows.emplace_back("paper_small",
                    fields_digest(flatten_cluster(build_cluster(
                        ExperimentConfig::paper_small().cluster))));
  const ExperimentContext ctx(ExperimentConfig::hyperscale(4096));
  rows.emplace_back("hyperscale4096",
                    fields_digest(flatten_cluster(ctx.cluster())));
  rows.emplace_back("hyperscale4096.scan",
                    fields_digest(flatten_profiles(ctx.profile_db())));
  // 0 to 999 hours of stress, scattered over the chips.
  std::vector<double> stress_s(ctx.cluster().size());
  for (std::size_t i = 0; i < stress_s.size(); ++i)
    stress_s[i] = 3600.0 * static_cast<double>((i * 37) % 1000);
  rows.emplace_back("aged4096", fields_digest(flatten_cluster(
                                    aged_cluster(ctx.cluster(), stress_s))));

  for (const auto& [row, digest] : rows) {
    const auto it = golden.find(row);
    if (it == golden.end()) {
      ADD_FAILURE() << "row missing from " << path << "; ready to paste:\n"
                    << row << " " << digest;
      continue;
    }
    if (digest != it->second)
      ADD_FAILURE() << row << ": digest " << digest << " != committed "
                    << it->second << "; ready to paste:\n"
                    << row << " " << digest;
    golden.erase(it);
  }
  for (const auto& [row, digest] : golden)
    ADD_FAILURE() << "extra row in " << path << ": " << row;
}

}  // namespace
}  // namespace iscope
