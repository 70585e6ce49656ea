#include "sched/power_matcher.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace iscope {

PowerMatcher::PowerMatcher(const Knowledge* knowledge, double cooling_factor)
    : cooling_factor_(cooling_factor) {
  ISCOPE_CHECK_ARG(knowledge != nullptr, "PowerMatcher: null knowledge");
  ISCOPE_CHECK_ARG(cooling_factor >= 1.0,
                   "PowerMatcher: cooling factor must be >= 1");
  const FreqLevels& levels = knowledge->cluster().levels();
  const double fmax = levels.freq_ghz.back();
  slowdown_ratio_.reserve(levels.freq_ghz.size());
  for (const double f : levels.freq_ghz)
    slowdown_ratio_.push_back(fmax / f - 1.0);
}

namespace {

// Heap order for phase-2 down-steps: largest saving on top, smaller task
// index winning ties.
struct StepLess {
  bool operator()(const DownStep& a, const DownStep& b) const {
    if (a.saving != b.saving) return a.saving < b.saving;
    return a.task > b.task;  // deterministic tiebreak
  }
};

// Push row r's next down-step, if it is still above its deadline floor.
// The vector driven by push_heap/pop_heap replicates std::priority_queue's
// exact call sequence, so equal-saving pops come in the order a
// priority_queue descent would produce.
void push_down_step(MatcherColumns& cols, std::size_t r) {
  const std::size_t l = cols.level[r];
  if (l == 0 || l <= cols.floor[r]) return;
  const double* power = cols.power_row(r);
  cols.heap.push_back(
      DownStep{Watts{power[l]} - Watts{power[l - 1]}, r, l - 1});
  std::push_heap(cols.heap.begin(), cols.heap.end(), StepLess{});
}

// IT power with every row at its deadline floor: phase 2's gate.
Watts floor_compute(const MatcherColumns& cols) {
  Watts sum;
  for (std::size_t r = 0; r < cols.count; ++r)
    sum += Watts{cols.power[r * cols.levels + cols.floor[r]]};
  return sum;
}

}  // namespace

MatchResult PowerMatcher::match(MatcherColumns& cols, Watts wind_avail,
                                double now_s) const {
  ISCOPE_CHECK_ARG(wind_avail.raw() >= 0.0, "PowerMatcher: negative wind");
  // Phase 1: one floor scan plus one best_from read per row. Sums stay in
  // row order -- reordering them would change the rounding.
  const std::size_t levels = cols.levels;
  soa::floor_scan_rows(cols.slowdown.data(), levels, cols.remaining.data(),
                       cols.deadline.data(), now_s, cols.count,
                       cols.floor.data());
  Watts compute;
  for (std::size_t r = 0; r < cols.count; ++r) {
    const std::size_t l = cols.best_from[r * levels + cols.floor[r]];
    cols.level[r] = l;
    compute += Watts{cols.power[r * levels + l]};
  }
  MatchResult result;
  // Phase 2. Stretching only pays when the budget is actually reachable:
  // if even the all-floors demand exceeds the wind, slowing down just
  // moves the same (utility-supplied) work later -- run the
  // energy-optimal baseline instead and wait for wind.
  if (wind_avail.raw() > 0.0 &&
      wind_avail >= floor_compute(cols) * cooling_factor_) {
    // Pop the largest saving, apply it, push the row's next step, until
    // the demand fits under the wind or no row can step down. The heap
    // starts empty and holds one entry per row still above its floor, so
    // every popped entry is live.
    std::vector<DownStep>& heap = cols.heap;
    heap.clear();
    for (std::size_t r = 0; r < cols.count; ++r) push_down_step(cols, r);
    while (compute * cooling_factor_ > wind_avail && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), StepLess{});
      const DownStep step = heap.back();
      heap.pop_back();
      cols.level[step.task] = step.to_level;
      compute -= step.saving;
      ++result.steps;
      push_down_step(cols, step.task);
    }
  }
  result.compute = compute;
  result.demand = compute * cooling_factor_;
  return result;
}

}  // namespace iscope
