// Scheduler knowledge views (paper Table 2, the Bin/Scan axis).
//
// The physical cluster has ground-truth Min Vdd curves, but a scheduler can
// only apply what it *knows*:
//
//  * kBin  -- factory binning only. Every chip runs each frequency level at
//             its bin's worst-case voltage, and chips inside a bin are
//             indistinguishable to the scheduler: the *believed* efficiency
//             of a chip is its bin's specified (population-mean) power, so
//             BinEffi can prefer better bins but cannot cherry-pick inside
//             one ("the scheduler cannot leverage the fine-grained
//             efficiency difference between processors in the same bin" --
//             paper Sec. IV-B).
//  * kScan -- in-cloud profiling. Each scanned chip runs at its own
//             discovered Min Vdd, and its measured power profile ranks it
//             individually; unscanned chips fall back to the bin view.
//
// `power` is always the chip's *true* power at the applied voltage --
// that is what the facility's power sensors meter and what the supply-
// demand matcher reacts to, whichever scheme is running. `efficiency` is
// the scheduler's belief and differs between the views.
//
// The view precomputes per-(processor, level) applied power and the
// efficiency score, since these are the scheduler's hot path. A simulator
// holds it const: which processors are down is the simulator's fault state
// (sim/fault_driver.hpp), which keeps them out of the idle pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hardware/cluster.hpp"
#include "profiling/profile_db.hpp"

namespace iscope {

enum class KnowledgeSource : std::uint8_t { kBin, kScan };

class Knowledge {
 public:
  /// Factory-binning view. `db` may be null.
  Knowledge(const Cluster* cluster, KnowledgeSource source,
            const ProfileDb* db = nullptr);

  /// Slice view over processors [proc_lo, proc_lo + proc_count): the
  /// scheduler sees `proc_count` local processors 0..count-1, mapped onto
  /// the cluster's global ids by `global_proc`. A full slice (lo=0,
  /// count=cluster size) builds tables bit-identical to the whole-cluster
  /// constructor; the sharded simulator (sim/sharded.hpp) gives each shard
  /// a slice over its rack range.
  Knowledge(const Cluster* cluster, KnowledgeSource source,
            const ProfileDb* db, std::size_t proc_lo, std::size_t proc_count);

  KnowledgeSource source() const { return source_; }
  std::size_t procs() const { return power_.size(); }
  std::size_t levels() const;

  /// Cluster id of local processor `i` (identity for a full view).
  std::size_t global_proc(std::size_t i) const { return proc_lo_ + i; }
  /// First cluster id of this view's slice (0 for a full view).
  std::size_t proc_lo() const { return proc_lo_; }

  /// Voltage the datacenter applies to processor `i` at `level`.
  Volts vdd(std::size_t i, std::size_t level) const;

  /// Chip power of processor `i` at `level` under the applied voltage.
  Watts power(std::size_t i, std::size_t level) const;

  /// Believed efficiency score: W/GHz at the top level; lower is better.
  /// The Effi and Fair schedulers rank processors by this. Under kBin all
  /// chips of a bin share the score (specified, not measured, power).
  WattsPerGigahertz efficiency(std::size_t i) const;

  /// Processor ids sorted by ascending efficiency score (best first).
  const std::vector<std::size_t>& efficiency_order() const {
    return efficiency_order_;
  }

  const Cluster& cluster() const { return *cluster_; }

  /// Rebuild the cached tables (call after the ProfileDb gained profiles).
  /// Not for a view a running simulator holds: it sums a task's per-level
  /// power row once, when the task starts, and keeps it while the task
  /// runs.
  void refresh();

  /// True when processor `i` runs at an individually scanned operating
  /// point (kScan view and the ProfileDb has its profile). Only such
  /// chips sit at the Min-Vdd margin, so only they can be mis-profiled
  /// (fault layer).
  bool scanned(std::size_t i) const {
    return i < scanned_.size() && scanned_[i] != 0;
  }

 private:
  const Cluster* cluster_;   // non-owning
  KnowledgeSource source_;
  const ProfileDb* db_;      // non-owning; may be null
  std::size_t proc_lo_ = 0;     ///< slice start (global id of local 0)
  std::size_t proc_count_ = 0;  ///< slice width (cluster size when full)
  // Hot-path caches stay raw doubles (volts / watts / W-per-GHz); the
  // typed accessors wrap them at the boundary.
  std::vector<std::vector<double>> vdd_;    // [proc][level]
  std::vector<std::vector<double>> power_;  // [proc][level]
  std::vector<double> efficiency_;
  std::vector<std::size_t> efficiency_order_;
  std::vector<std::uint8_t> scanned_;
};

}  // namespace iscope
