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
// (matcher_columns.hpp): it replays the cached greedy trajectory when only
// the wind budget moved since the last solve, and otherwise solves from
// scratch and re-caches (DESIGN.md Sec. 14). The unit suites hold it to an
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
  bool replayed = false;   ///< `match` reused the cached trajectory
};

/// One phase-2 candidate: step `task` down to `to_level`, releasing
/// `saving` of IT power.
struct DownStep {
  Watts saving;
  std::size_t task;
  std::size_t to_level;
};

/// What `match` keeps between calls: the cached greedy trajectory and the
/// solve's reusable buffers (DESIGN.md Sec. 14). Key fact: phase 2's
/// pop/push/stale-skip sequence never reads the wind budget -- the budget
/// only decides where along that canonical sequence the greedy STOPS. So
/// one solve caches the whole trajectory (`log`, with the running compute
/// after each applied step), and a later call whose only change is the
/// wind budget re-positions a cursor on it instead of re-solving: binary
/// search for the stop prefix (the fit predicate is monotone along the
/// log), rewind or replay the touched rows, done. The replay is *exact* --
/// bit-equal levels and compute to a from-scratch solve -- because every
/// stored value was produced by the identical operation sequence a fresh
/// solve would run.
///
/// Validity: the cache assumes the row set, the per-row power/slowdown
/// tables and the deadline floors are those of the cached solve. The
/// simulator invalidates on task start/completion/requeue and rush-mode
/// flips (a row's tables are fixed while its task runs); `match` re-checks
/// the floors itself and re-solves when they moved. A fresh state always
/// solves.
struct IncrementalMatchState {
  struct AppliedStep {
    Watts compute_after;  ///< running compute after applying it
    std::size_t task;     ///< column row index
    std::size_t to_level; ///< level the task stepped down to
  };
  bool valid = false;
  /// Whether the caching solve built the down-step heap. A gated-off
  /// phase 2 (no wind, or floors alone over budget) skips heap
  /// construction entirely -- most structural rematches never see a
  /// fitting epoch before the next invalidation, so building the heap
  /// eagerly would be pure waste. A later call that *does* need to extend
  /// past the (empty) log with no heap re-solves, which then caches with
  /// a real heap.
  bool heap_built = false;
  Watts compute0;       ///< phase-1 compute (the cursor-0 state)
  Watts floor_compute;  ///< all-floors compute (the phase-2 gate)
  std::vector<AppliedStep> log;  ///< applied down-steps, in greedy order
  std::size_t cursor = 0;        ///< applied prefix length = current state
  /// Down-step heap as of state log.size(); extending the trajectory past
  /// the deepest materialized point keeps popping from here.
  std::vector<DownStep> heap;
  /// Floor-scan buffer for the replay's frontier check.
  std::vector<std::size_t> floor;

  void invalidate() {
    valid = false;
    heap_built = false;
    cursor = 0;
    log.clear();  // clear(), not reassign: keeps warmed-up capacity
    heap.clear();
  }
};

class PowerMatcher {
 public:
  /// `cooling_factor` is (1 + 1/COP) from Eq-2.
  PowerMatcher(const Knowledge* knowledge, double cooling_factor);

  /// Assign levels to every MatcherColumns row (fills cols.floor and
  /// cols.level); see the file comment for the algorithm. Rows must be in
  /// start order (ordered FP sums and equal-saving tiebreaks; see
  /// matcher_columns.hpp). Replays `state`'s cached trajectory when only
  /// the wind budget moved since the solve that filled it, otherwise
  /// solves from scratch and re-caches. Allocation-free once `state` has
  /// warmed up.
  MatchResult match(MatcherColumns& cols, Watts wind_avail, double now_s,
                    IncrementalMatchState& state) const;

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
