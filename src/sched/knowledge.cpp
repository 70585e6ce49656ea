#include "sched/knowledge.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace iscope {

Knowledge::Knowledge(const Cluster* cluster, KnowledgeSource source,
                     const ProfileDb* db)
    : Knowledge(cluster, source, db, 0,
                cluster != nullptr ? cluster->size() : 0) {}

Knowledge::Knowledge(const Cluster* cluster, KnowledgeSource source,
                     const ProfileDb* db, std::size_t proc_lo,
                     std::size_t proc_count)
    : cluster_(cluster),
      source_(source),
      db_(db),
      proc_lo_(proc_lo),
      proc_count_(proc_count) {
  ISCOPE_CHECK_ARG(cluster != nullptr, "Knowledge: null cluster");
  if (source == KnowledgeSource::kScan)
    ISCOPE_CHECK_ARG(db != nullptr, "Knowledge: Scan view needs a ProfileDb");
  ISCOPE_CHECK_ARG(proc_count > 0 && proc_lo + proc_count <= cluster->size(),
                   "Knowledge: slice outside the cluster");
  refresh();
}

std::size_t Knowledge::levels() const { return cluster_->levels().count(); }

void Knowledge::refresh() {
  const std::size_t n = proc_count_;
  const std::size_t nl = levels();
  vdd_.assign(n, std::vector<double>(nl, 0.0));
  power_.assign(n, std::vector<double>(nl, 0.0));
  efficiency_.assign(n, 0.0);
  scanned_.assign(n, 0);

  const Gigahertz f_top{cluster_->levels().freq_ghz[nl - 1]};
  // Bin-specified power: the population-mean Eq-1 chip at the bin voltage.
  const PowerCoefficients spec{
      WattsPerCubicGigahertz{cluster_->power_model().params().alpha_mean},
      Watts{cluster_->power_model().params().beta_mean}};
  for (std::size_t i = 0; i < n; ++i) {
    // Local index -> cluster id (identity for a full view, so the tables a
    // full slice builds are bit-identical to the historical ones).
    const std::size_t g = proc_lo_ + i;
    const ChipProfile* profile =
        (source_ == KnowledgeSource::kScan && db_ != nullptr) ? db_->find(g)
                                                              : nullptr;
    scanned_[i] = profile != nullptr ? 1 : 0;
    for (std::size_t l = 0; l < nl; ++l) {
      // The latest scan is the only *currently validated* safe bound: the
      // factory bin spec was validated at t=0 and silicon drifts past it
      // with age, so a discovered voltage above the bin spec must be
      // trusted, not capped. (Grid quantization can leave the discovered
      // value up to one grid step above the true minimum; keep the scan
      // grid fine -- see ScanConfig -- rather than second-guessing it.)
      const Volts v = profile != nullptr ? Volts{profile->chip_vdd.vdd(l)}
                                         : cluster_->bin_vdd(g, l);
      vdd_[i][l] = v.volts();
      // True chip power at the applied voltage (what the meter sees).
      power_[i][l] = cluster_->power(g, l, v).watts();
    }
    if (profile != nullptr) {
      // Scanned chip: measured power profile ranks it individually.
      efficiency_[i] = (Watts{power_[i][nl - 1]} / f_top).watts_per_ghz();
    } else {
      // Binned chip: only the bin's specified efficiency is known.
      efficiency_[i] =
          (cluster_->power_model().power(
               spec, f_top, cluster_->bin_vdd(g, nl - 1),
               Volts{cluster_->levels().vdd_nom[nl - 1]}) /
           f_top)
              .watts_per_ghz();
    }
  }

  efficiency_order_.resize(n);
  std::iota(efficiency_order_.begin(), efficiency_order_.end(), 0);
  std::sort(efficiency_order_.begin(), efficiency_order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (efficiency_[a] != efficiency_[b])
                return efficiency_[a] < efficiency_[b];
              return a < b;
            });
}

Volts Knowledge::vdd(std::size_t i, std::size_t level) const {
  ISCOPE_CHECK_ARG(i < vdd_.size(), "Knowledge: proc out of range");
  ISCOPE_CHECK_ARG(level < vdd_[i].size(), "Knowledge: level out of range");
  return Volts{vdd_[i][level]};
}

Watts Knowledge::power(std::size_t i, std::size_t level) const {
  ISCOPE_CHECK_ARG(i < power_.size(), "Knowledge: proc out of range");
  ISCOPE_CHECK_ARG(level < power_[i].size(), "Knowledge: level out of range");
  return Watts{power_[i][level]};
}

WattsPerGigahertz Knowledge::efficiency(std::size_t i) const {
  ISCOPE_CHECK_ARG(i < efficiency_.size(), "Knowledge: proc out of range");
  return WattsPerGigahertz{efficiency_[i]};
}

}  // namespace iscope
