// Traced-run support: turns on the program's telemetry with rings large
// enough that no span drops, and folds the buffered spans -- the
// program's own (`match`, `start_task`, `rematch`, `pool_job`,
// `scan_domain`, ...) and the benchmark's `bench.*` spans around its calls
// into each layer -- into per-name totals, self times and durations.
//
// Self time is computed per thread by interval containment: a span's self
// time is its duration minus the durations of the spans directly nested
// in it on the same thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "core/experiment.hpp"
#include "layers.hpp"
#include "report.hpp"

namespace perfbench {

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  Samples durations_s;  ///< kept for `bench.*` and `pool_job` spans only
};

/// Time the facility set-up's layers through direct calls, as the
/// ExperimentContext constructor makes them: build_cluster (variation) and
/// Scanner::scan_domain (profiling), under `bench.build_cluster` and
/// `bench.scan_domain` spans. Checks both against `ctx`, which was built
/// from the same config, and returns the scan's stability-trial count.
std::size_t trace_setup_layers(const iscope::ExperimentConfig& cfg,
                               const iscope::ExperimentContext& ctx,
                               Report& report);

class SpanHarvest {
 public:
  /// `slice_names`: the spans whose time the scheduler's self time and the
  /// unattributed remainder must account for (`sim.unattributed_s`).
  explicit SpanHarvest(std::set<std::string> slice_names)
      : slice_names_(std::move(slice_names)) {}

  /// Enable telemetry with unbounded-in-practice rings and zeroed
  /// metrics. Call before the first traced call: ring capacity only
  /// applies to rings created afterwards.
  static void enable();
  static void disable();

  /// Fold every buffered span into the totals under `group`, then clear
  /// the rings (so memory stays bounded by one harvest interval). Call
  /// only while no other thread is recording.
  void harvest(const std::string& group = "");

  /// Totals of one span name in one group, or summed over all groups.
  const SpanTotals& get(const std::string& name,
                        const std::string& group) const;
  SpanTotals all(const std::string& name) const;

  std::uint64_t dropped() const { return dropped_; }
  /// Scheduler spans not nested in any benchmark span or pool job.
  std::size_t orphans() const { return orphans_; }
  /// Total time of the slice spans, and the scheduler self time inside
  /// them.
  double slice_s() const { return slice_s_; }
  double sched_in_slices_s() const { return sched_in_slices_s_; }

 private:
  std::set<std::string> slice_names_;
  std::map<std::pair<std::string, std::string>, SpanTotals> totals_;
  std::uint64_t dropped_ = 0;
  std::size_t orphans_ = 0;
  double slice_s_ = 0.0;
  double sched_in_slices_s_ = 0.0;
};

/// Totals of one traced run that every workload reports alike.
struct TracedTotals {
  std::size_t trials = 0;  ///< the set-up scan's stability trials
  double events = 0.0;     ///< simulated events of the traced work
  double rematches = 0.0;
  double untraced_run_s = 0.0;  ///< the same work with tracing off
  double traced_run_s = 0.0;
};

/// Check the trace's health -- nothing dropped, every scheduler span inside
/// one of the benchmark's simulation calls or a pool job, the scheduler's
/// self time within its slices -- and set the layers every workload
/// reports the same way: set-up, event loop, scheduler self time and the
/// cost of tracing. The wind/no-wind split of `rematch` is the caller's.
void set_shared_layers(const SpanHarvest& harvest, const TracedTotals& t,
                       Report& report, Layers& layers);

}  // namespace perfbench
