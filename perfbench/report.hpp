// Shared pieces of the benchmark: options, sample statistics, the
// seeded task traces, SimResult digests, readings of a process's memory
// and CPU time, and the result report (human-readable lines plus the final
// JSON line).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <sys/types.h>
#include <vector>

#include "core/config.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measuring budget of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  std::string serve_bin;  ///< path to the iscope_serve daemon
  std::string work_dir;   ///< scratch directory (sockets, checkpoints)
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A set of measurements with order statistics (linear interpolation
/// between closest ranks, as numpy's default percentile).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void add_all(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double max() const;

 private:
  std::vector<double> v_;
};

/// The fault plan's seed (SimConfig::fault_seed) for a benchmark seed. The
/// facility (cluster fabrication, scan, wind trace) keeps the
/// configuration's own seed, so every seed runs on the same hardware.
std::uint64_t fault_seed(std::uint64_t seed);

/// The task trace of one benchmark seed, as ExperimentContext::make_tasks
/// builds it plus one step: the synthetic generator's job population
/// (widths, runtimes, CPU-boundness) is fixed, and `seed` deals those jobs
/// to the generator's arrival instants in a shuffled order and draws the
/// urgency classes and deadlines. Every seed thus offers the same total
/// work, so metrics move with the system rather than with the sample's
/// size: a few wide, long jobs carry much of a trace's work, and two seeds
/// of the generator itself priced paper_sweep a third apart.
std::vector<iscope::Task> make_tasks(const iscope::ExperimentConfig& cfg,
                                     std::size_t procs, std::uint64_t seed,
                                     double hu_fraction,
                                     double arrival_rate = 1.0);

/// Order-sensitive FNV-1a digest over every scalar and vector of a
/// SimResult (energy split, cost, battery, thermal and sleep figures, task
/// outcomes, per-processor busy time, power trace, timeline, profiling and
/// fault counters, work counters).
std::uint64_t digest(const iscope::SimResult& r);

/// Deadline misses plus tasks abandoned after their fault retries.
inline std::size_t missed_tasks(const iscope::SimResult& r) {
  return r.deadline_misses + r.faults.tasks_failed;
}

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
double vm_hwm_mb(pid_t pid);
/// Resets this process's VmHWM to its current resident set; false when the
/// kernel refuses.
bool reset_vm_hwm();
/// Time a process has spent on a CPU (/proc/<pid>/schedstat), in seconds;
/// negative when unreadable.
double cpu_seconds(pid_t pid);

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// A metric of the JSON result (end-to-end or per-layer, by run mode).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A figure printed for people only; not part of the JSON result.
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& comment = "");
  void text(const std::string& line);

  /// Count operations (simulations, frames) attempted.
  void attempt(std::size_t ops) { attempted_ += ops; }
  /// An output check; a failure marks `ops` (at least one) operations as
  /// failed.
  void check(bool ok, const std::string& what, std::size_t ops = 1);

  bool correct() const { return failed_ == 0; }

  /// Human-readable lines, then the one-line JSON result last.
  void print(std::ostream& out) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Entry> metrics_;
  std::vector<std::string> lines_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
