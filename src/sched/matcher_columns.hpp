// Structure-of-arrays state for the matcher hot path (DESIGN.md Sec. 14).
//
// One row per running task, in *start order*: each task's remaining work,
// deadline and per-level tables sit in contiguous columns instead of behind
// a pointer chase. The rows are the simulator's running set and own its
// remaining work, progress time and levels; nothing else holds them. The
// matcher's floating-point sums and equal-saving heap
// tiebreaks are order-sensitive, so keeping the rows in start order is what
// keeps PowerMatcher::match bit-identical to a per-task oracle walking the
// tasks in start order (tests/reference_scheduler.hpp).
//
// Row lifecycle: `append` at task start, compacting order-preserving
// `remove` at completion/requeue. Derived per-row tables, all fixed for the
// task's residency:
//
//  * slowdown[row][l]  -- Eq-3 slowdown, gamma * (fmax/f_l - 1) + 1.0;
//  * power[row][l]     -- the task's IT power per level, summed over its
//    processors by the simulator when the task starts;
//  * best_from[row][f] -- the energy-optimal level for every possible
//    deadline floor f, precomputed by suffix scan (soa_kernels.hpp). The
//    per-rematch "energy argmin over levels" collapses to one table read.
//
// Beside the rows sit the matcher's per-call outputs and scratch: the
// deadline floors, the assigned levels and the phase-2 down-step heap.
// PowerMatcher::match rewrites all three on every call, so nothing in them
// outlives a call. All storage is reserved up front (`reset(levels,
// max_rows)`), and append/remove only shift within reserved capacity, so
// steady-state maintenance and matching are allocation-free
// (tests/test_rematch_alloc.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/quantity.hpp"
#include "sched/soa_kernels.hpp"

namespace iscope {

/// One phase-2 candidate: step row `task` down to `to_level`, releasing
/// `saving` of IT power.
struct DownStep {
  Watts saving;
  std::size_t task;
  std::size_t to_level;
};

struct MatcherColumns {
  std::size_t levels = 0;  ///< DVFS level count (row stride)
  std::size_t count = 0;   ///< live rows
  double progress_s = 0.0;  ///< every row's `remaining` is as of this time

  // Per-row scalars (index = row).
  std::vector<std::size_t> task;   ///< owning simulator task index
  std::vector<double> remaining;   ///< work left, seconds-at-Fmax
  std::vector<double> deadline;    ///< absolute deadline [s]
  std::vector<std::size_t> floor;  ///< matcher scratch: deadline floor
  std::vector<std::size_t> level;  ///< matcher output: assigned level
  /// The level the task runs at (its completion is timed for it); `levels`
  /// from append until the first one is applied.
  std::vector<std::size_t> applied;

  // Per-row level-indexed blocks (index = row * levels + l).
  std::vector<double> slowdown;        ///< Eq-3 slowdown per level
  std::vector<double> power;           ///< IT power per level, raw watts
  std::vector<std::uint8_t> best_from; ///< energy-optimal level per floor

  /// Matcher scratch: the phase-2 down-step heap. It holds at most one
  /// entry per row, so the `max_rows` reservation covers every call.
  std::vector<DownStep> heap;

  /// Reset to empty and reserve for `max_rows` rows so steady-state
  /// append/remove stays allocation-free. Keeps existing capacity.
  void reset(std::size_t level_count, std::size_t max_rows) {
    ISCOPE_CHECK_ARG(level_count > 0 && level_count <= 255,
                     "MatcherColumns: level count must fit the uint8 "
                     "best_from table");
    levels = level_count;
    count = 0;
    progress_s = 0.0;
    const auto empty = [](auto& v, std::size_t n) { v.clear(); v.reserve(n); };
    for (auto* v : {&task, &floor, &level, &applied}) empty(*v, max_rows);
    for (auto* v : {&remaining, &deadline}) empty(*v, max_rows);
    for (auto* v : {&slowdown, &power}) empty(*v, max_rows * levels);
    empty(best_from, max_rows * levels);
    empty(heap, max_rows);
  }

  /// Append a row at the end (start order), with no level applied. The
  /// caller sums the row's power block and then derives the rest via
  /// `fill_row`. Returns the row index.
  std::size_t append(std::size_t task_idx, double remaining_s,
                     double deadline_s) {
    task.push_back(task_idx);
    remaining.push_back(remaining_s);
    deadline.push_back(deadline_s);
    floor.push_back(0);
    level.push_back(0);
    applied.push_back(levels);
    slowdown.resize(slowdown.size() + levels, 0.0);
    power.resize(power.size() + levels, 0.0);
    best_from.resize(best_from.size() + levels, 0);
    return count++;
  }

  /// Compute the derived blocks of one row whose power block is already
  /// summed: the Eq-3 slowdown per level (identical expression to
  /// PowerMatcher::slowdown, over its slowdown_ratio() table) and the
  /// energy-optimal-per-floor table.
  void fill_row(std::size_t row, double gamma, const double* slowdown_ratio) {
    double* srow = slowdown.data() + row * levels;
    for (std::size_t l = 0; l < levels; ++l)
      srow[l] = gamma * slowdown_ratio[l] + 1.0;
    soa::best_from_fill(power_row(row), srow, levels,
                        best_from.data() + row * levels);
  }

  /// Order-preserving removal: rows after `row` shift down one slot. O(rows)
  /// moves, no allocation. Callers must re-point their row handles for every
  /// shifted task (the returned row indices of `task[row..]` moved by -1).
  void remove(std::size_t row) {
    const auto r = static_cast<std::ptrdiff_t>(row);
    for (auto* v : {&task, &floor, &level, &applied}) v->erase(v->begin() + r);
    for (auto* v : {&remaining, &deadline}) v->erase(v->begin() + r);
    const auto b = static_cast<std::ptrdiff_t>(row * levels);
    const auto e = static_cast<std::ptrdiff_t>((row + 1) * levels);
    for (auto* v : {&slowdown, &power})
      v->erase(v->begin() + b, v->begin() + e);
    best_from.erase(best_from.begin() + b, best_from.begin() + e);
    --count;
  }

  const double* slowdown_row(std::size_t row) const {
    return slowdown.data() + row * levels;
  }
  const double* power_row(std::size_t row) const {
    return power.data() + row * levels;
  }
  const std::uint8_t* best_from_row(std::size_t row) const {
    return best_from.data() + row * levels;
  }
};

}  // namespace iscope
