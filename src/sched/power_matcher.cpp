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
void push_down_step(const MatcherColumns& cols, std::size_t r,
                    std::vector<DownStep>& heap) {
  const std::size_t l = cols.level[r];
  if (l == 0 || l <= cols.floor[r]) return;
  const double* power = cols.power_row(r);
  heap.push_back(DownStep{Watts{power[l]} - Watts{power[l - 1]}, r, l - 1});
  std::push_heap(heap.begin(), heap.end(), StepLess{});
}

// Phase 2's greedy descent from the deepest materialized state: pop the
// largest saving, skip stale entries, apply and log the step, push the
// row's next one -- until the demand fits under the wind or the heap runs
// dry. The pop/push sequence never reads the wind, which is what makes
// the log a replayable trajectory. Returns the compute it stopped at.
Watts descend(MatcherColumns& cols, Watts wind_avail, double cooling_factor,
              Watts compute, IncrementalMatchState& state) {
  std::vector<DownStep>& heap = state.heap;
  while (compute * cooling_factor > wind_avail && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), StepLess{});
    const DownStep step = heap.back();
    heap.pop_back();
    // At most one live entry per row (re-pushed after applying), so a
    // level mismatch marks a stale entry.
    if (cols.level[step.task] != step.to_level + 1) continue;
    cols.level[step.task] = step.to_level;
    compute -= step.saving;
    state.log.push_back(
        IncrementalMatchState::AppliedStep{compute, step.task, step.to_level});
    push_down_step(cols, step.task, heap);
  }
  state.cursor = state.log.size();
  return compute;
}

// Full solve, caching the greedy trajectory in `state`. Phase 1 is one
// floor scan plus one best_from read per row; sums stay in row order --
// reordering them would change the rounding.
Watts solve(MatcherColumns& cols, Watts wind_avail, double now_s,
            double cooling_factor, IncrementalMatchState& state) {
  state.invalidate();
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
  Watts floor_compute;
  for (std::size_t r = 0; r < cols.count; ++r)
    floor_compute += Watts{cols.power[r * levels + cols.floor[r]]};
  state.valid = true;
  state.compute0 = compute;
  state.floor_compute = floor_compute;

  // Stretching only pays when the budget is actually reachable: if even
  // the all-floors demand exceeds the wind, slowing down just moves the
  // same (utility-supplied) work later -- run the energy-optimal baseline
  // instead and wait for wind. A gated-off phase 2 builds no heap at all.
  state.heap_built =
      wind_avail.raw() > 0.0 && wind_avail >= floor_compute * cooling_factor;
  if (!state.heap_built) return compute;
  for (std::size_t r = 0; r < cols.count; ++r)
    push_down_step(cols, r, state.heap);
  return descend(cols, wind_avail, cooling_factor, compute, state);
}

// Replay: re-position the cached trajectory's cursor for a new wind
// budget. Returns false -- the caller must solve -- when the cache is
// invalid, a deadline floor moved, or the budget needs steps past a
// trajectory whose solve built no heap. On true, `compute` and cols.level
// are bit-identical to what a full solve would produce.
bool replay(MatcherColumns& cols, Watts wind_avail, double now_s,
            double cooling_factor, IncrementalMatchState& state,
            Watts& compute) {
  if (!state.valid || cols.count == 0) return false;

  // Frontier check: the cached trajectory was built on cols.floor.
  // Progress shrinks remaining work and slack together, so floors are
  // usually stable between supply epochs; any movement means phase 1
  // itself would differ.
  state.floor.resize(cols.count);
  soa::floor_scan_rows(cols.slowdown.data(), cols.levels,
                       cols.remaining.data(), cols.deadline.data(), now_s,
                       cols.count, state.floor.data());
  for (std::size_t r = 0; r < cols.count; ++r)
    if (state.floor[r] != cols.floor[r]) return false;

  // Where along the canonical trajectory does this budget stop? A fresh
  // solve stops at the first state whose demand fits under the wind (or
  // when the heap runs dry). compute is non-increasing along the log and
  // rounding is monotone, so "fits" is monotone in the state index:
  // binary search replaces the walk.
  const std::vector<IncrementalMatchState::AppliedStep>& log = state.log;
  std::size_t target = 0;
  bool extend = false;
  if (wind_avail.raw() > 0.0 &&
      wind_avail >= state.floor_compute * cooling_factor &&
      state.compute0 * cooling_factor > wind_avail) {
    std::size_t lo = 0;
    std::size_t hi = log.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (log[mid].compute_after * cooling_factor <= wind_avail)
        hi = mid;
      else
        lo = mid + 1;
    }
    if (lo < log.size()) {
      target = lo + 1;
    } else {
      // Even the deepest materialized state is over budget: replay to
      // the end, then keep descending from the preserved heap -- unless
      // the caching solve never built one.
      if (!state.heap_built) return false;
      target = log.size();
      extend = true;
    }
  }

  // Re-position the cursor: undo in reverse order, redo in log order (a
  // row stepped several times restores through the same intermediate
  // levels a fresh solve would assign).
  while (state.cursor > target) {
    const IncrementalMatchState::AppliedStep& s = log[--state.cursor];
    cols.level[s.task] = s.to_level + 1;
  }
  while (state.cursor < target) {
    const IncrementalMatchState::AppliedStep& s = log[state.cursor++];
    cols.level[s.task] = s.to_level;
  }
  compute = (target == 0) ? state.compute0 : log[target - 1].compute_after;
  // The heap is the down-step heap as of state log.size() -- exactly what
  // a fresh solve holds there, since the sequence up to any state is
  // wind-independent. Descending appends the deeper states to the log.
  if (extend)
    compute = descend(cols, wind_avail, cooling_factor, compute, state);
  return true;
}

}  // namespace

MatchResult PowerMatcher::match(MatcherColumns& cols, Watts wind_avail,
                                double now_s,
                                IncrementalMatchState& state) const {
  ISCOPE_CHECK_ARG(wind_avail.raw() >= 0.0, "PowerMatcher: negative wind");
  MatchResult result;
  Watts compute;
  result.replayed =
      replay(cols, wind_avail, now_s, cooling_factor_, state, compute);
  if (!result.replayed)
    compute = solve(cols, wind_avail, now_s, cooling_factor_, state);
  result.compute = compute;
  result.demand = compute * cooling_factor_;
  result.steps = state.cursor;
  return result;
}

}  // namespace iscope
