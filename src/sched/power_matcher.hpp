// Supply-demand power matching (paper Sec. V-C).
//
// "Our experiments try to maximally utilize the renewable energy. If the
//  renewable power is not enough to run all the required processors at full
//  speed, DVFS is applied to reduce the frequency and power demand. We stop
//  lowering the frequency when some tasks are facing violation of their
//  deadlines. If the renewable power is still not enough at that time, we
//  will supplement utility power."
//
// The matcher re-decides every running task's DVFS level at each supply
// epoch and on task start/completion, in two phases:
//
//  1. Baseline: each task gets its *energy-optimal deadline-feasible* level
//     -- argmin over levels of  P(level) * slowdown(level)  (the energy to
//     finish the remaining work). Static power (beta in Eq-1) makes
//     crawling wasteful, so this is usually near, not at, the top level.
//  2. Wind fitting: while facility demand exceeds the available wind power
//     and wind is present at all, greedily take the DVFS down-step with the
//     largest power saving among tasks still above their deadline floor.
//     Any remaining gap is supplemented from the utility grid.
//
// With no wind at all (the paper's utility-only study) phase 2 is a no-op:
// there is no budget to fit under, and stretching execution would only burn
// more (expensive) static energy.
//
// The one entry point is `match`, over the simulator's SoA rows
// (matcher_columns.hpp). Every call solves from scratch: phase 1, then the
// phase-2 descent when the wind gate opens. No state survives from one
// call to the next (DESIGN.md Sec. 14). The unit suites hold it to an
// independent oracle kept with the tests (tests/reference_scheduler.hpp:
// O(procs) power sums, its own priority_queue descent), and committed
// golden digests pin the simulations it drives.
#pragma once

#include <cstddef>
#include <vector>

#include "sched/knowledge.hpp"
#include "sched/matcher_columns.hpp"

namespace iscope {

struct MatchResult {
  Watts compute;           ///< IT power after matching
  Watts demand;            ///< facility power (IT * cooling factor)
  std::size_t steps = 0;   ///< phase-2 DVFS down-steps taken
};

class PowerMatcher {
 public:
  /// `cooling_factor` is (1 + 1/COP) from Eq-2.
  PowerMatcher(const Knowledge* knowledge, double cooling_factor);

  /// Assign levels to every MatcherColumns row (fills cols.floor and
  /// cols.level, using cols.heap as scratch); see the file comment for the
  /// algorithm. Rows must be in start order (ordered FP sums and
  /// equal-saving tiebreaks; see matcher_columns.hpp). The result depends
  /// only on the rows, the wind and the clock, and the call allocates
  /// nothing within the capacity `cols.reset` reserved.
  MatchResult match(MatcherColumns& cols, Watts wind_avail,
                    double now_s) const;

  /// Eq-3 slowdown of a task with CPU-boundness `gamma` at a level.
  double slowdown(double gamma, std::size_t level) const {
    return gamma * slowdown_ratio_[level] + 1.0;
  }
  /// (fmax / f_l - 1) per level, the table behind slowdown(); feeds
  /// MatcherColumns::fill_row.
  const double* slowdown_ratio() const { return slowdown_ratio_.data(); }

  double cooling_factor() const { return cooling_factor_; }

 private:
  double cooling_factor_;
  /// Precomputed (fmax / f_l - 1.0) per level; slowdown() is then one
  /// multiply-add instead of a division (bit-identical: same operation
  /// sequence, the division is just hoisted to construction).
  std::vector<double> slowdown_ratio_;
};

}  // namespace iscope
