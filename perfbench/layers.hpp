// The per-layer metrics of the traced run. Every workload prints all of
// them; a layer a workload does not exercise reads 0 there (README.md maps
// each metric to the end-to-end metric it should move and the workload
// where it does most work).
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "report.hpp"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

inline constexpr LayerMetric kLayerMetrics[] = {
    {"variation.build_cluster_s", "s"},
    {"profiling.scan_s", "s"},
    {"profiling.trials", "count"},
    {"workload.make_tasks_s", "s"},
    {"sweep.scenarios", "count"},
    {"sweep.scenario_p50_s", "s"},
    {"sweep.scenario_max_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.slice_p50_us", "us"},
    {"sim.slice_p99_us", "us"},
    {"sim.unattributed_s", "s"},
    {"sched.placement_self_s", "s"},
    {"sched.start_task_self_s", "s"},
    {"sched.rematch_self_s", "s"},
    {"sched.rematch_self_s.wind", "s"},
    {"sched.rematch_self_s.nowind", "s"},
    {"sched.rematches", "count"},
    {"sched.rematch_per_event", "ratio"},
    {"shard.prepare_s", "s"},
    {"shard.rounds", "count"},
    {"shard.round_p50_us", "us"},
    {"shard.round_p99_us", "us"},
    {"pool.job_s", "s"},
    {"pool.parallel_eff", "ratio"},
    {"pool.queue_wait_p99_us", "us"},
    {"thermal.cooling_kwh", "kWh"},
    {"thermal.peak_inlet_c", "C"},
    {"fault.requeues", "count"},
    {"fault.tasks_failed", "count"},
    {"sleep.enters", "count"},
    {"sleep.wakes", "count"},
    {"service.decisions", "count"},
    {"service.busy_replies", "count"},
    {"service.decision_p50_ms", "ms"},
    {"service.decision_p99_ms", "ms"},
    {"service.share_p50_ms", "ms"},
    {"service.admit_p50_us", "us"},
    {"service.admit_p99_us", "us"},
    {"wire.decode_s", "s"},
    {"client.late_p99_ms", "ms"},
    {"checkpoint.pause_p50_ms", "ms"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.encode_ms", "ms"},
    {"checkpoint.write_ms", "ms"},
    {"checkpoint.restore_ms", "ms"},
    {"telemetry.overhead_frac", "ratio"},
    {"telemetry.spans_dropped", "count"},
};

/// Per-layer values of one traced run; unset layers print as 0.
class Layers {
 public:
  void set(const std::string& name, double value) {
    for (const LayerMetric& m : kLayerMetrics)
      if (name == m.name) {
        values_[name] = value;
        return;
      }
    throw std::logic_error("unknown layer metric " + name);
  }
  void emit(Report& report) const {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = values_.find(m.name);
      report.metric(m.name, it == values_.end() ? 0.0 : it->second, m.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
