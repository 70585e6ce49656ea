// Task model (paper Sec. IV-A).
//
// A task arrives dynamically with: requested number of CPUs, CPU-boundness
// gamma, nominal execution time at the top frequency, and a deadline. Its
// execution time at frequency f follows Hsu et al. [33] (the paper's Eq-3):
//
//   T(f) = T(Fmax) * ( gamma * (Fmax/f - 1) + 1 )
//
// For scheduling under DVFS we track *work* in units of "seconds at Fmax":
// a task running at frequency f makes progress at rate 1 / slowdown(f).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace iscope {

enum class Urgency : std::uint8_t {
  kHigh,  ///< HU: deadline ~ Normal(4x, var 2) of nominal runtime
  kLow,   ///< LU: deadline ~ Normal(12x, var 2)
};

struct Task {
  std::int64_t id = 0;
  double submit_s = 0.0;    ///< arrival time
  std::size_t cpus = 1;     ///< requested number of CPUs (processors)
  double runtime_s = 0.0;   ///< nominal execution time at Fmax
  double gamma = 1.0;       ///< CPU-boundness in [0,1] (1 = fully CPU-bound)
  double deadline_s = 0.0;  ///< absolute completion deadline
  Urgency urgency = Urgency::kLow;

  /// Eq-3 slowdown factor at frequency `f_ghz` given top frequency
  /// `fmax_ghz`: execution takes `runtime_s * slowdown`.
  double slowdown(double f_ghz, double fmax_ghz) const;

  /// Execution time at frequency `f_ghz` (Eq-3).
  double exec_time_s(double f_ghz, double fmax_ghz) const;

  /// Latest start time (at frequency f) that still meets the deadline.
  double latest_start_s(double f_ghz, double fmax_ghz) const;
};

/// The spec's fields in wire order, for a serial.hpp adapter (`T` is Task,
/// or const Task when a writer runs it): the checkpoint's task list and
/// the daemon's ADMIT payload are this one list. A load refuses non-finite
/// times and a bad urgency here; every other rule is validate_task's.
template <class Io, class T>
void task_fields(Io& io, T& t) {
  io(t.id);
  io.finite(t.submit_s, "submit time");
  io(t.cpus);
  io.finite(t.runtime_s, "runtime");
  io(t.gamma);
  io.finite(t.deadline_s, "deadline");
  io.in(t.urgency, Urgency::kHigh, Urgency::kLow, "task urgency");
}

/// Sanity-check one task for a cluster of `max_cpus` processors: finite
/// times, positive runtime, width in [1, max_cpus], non-negative submit
/// time, deadline after submission, gamma in [0,1]. Throws InvalidArgument.
void validate_task(const Task& t, std::size_t max_cpus);

/// validate_task over a task list; submit order is not required.
void validate_tasks(
    const std::vector<Task>& tasks,
    std::size_t max_cpus = std::numeric_limits<std::size_t>::max());

/// Sort by submit time (stable; ties keep input order).
void sort_by_submit(std::vector<Task>& tasks);

/// Scale the arrival rate: rate 5 means each submit time becomes 1/5 of the
/// original ("an arrival rate of 5X indicates the adjusted task submit time
/// is 20% of the origin setting" -- paper Sec. V-D). Deadlines shift with
/// their submit times, keeping the same slack after arrival.
std::vector<Task> scale_arrival_rate(std::vector<Task> tasks, double rate);

/// Clamp task widths to `max_cpus` (replaying a 4096-CPU archive trace on a
/// smaller simulated cluster).
std::vector<Task> clamp_widths(std::vector<Task> tasks, std::size_t max_cpus);

}  // namespace iscope
