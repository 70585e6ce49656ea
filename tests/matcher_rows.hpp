// MatcherColumns rows built from reference ActiveTask views, so a matcher
// test states its tasks once and can run them through PowerMatcher::match
// and the production kernels, and check the result with the reference
// oracle (reference_scheduler.hpp).
#pragma once

#include <vector>

#include "reference_scheduler.hpp"
#include "sched/knowledge.hpp"
#include "sched/power_matcher.hpp"

namespace iscope {

/// One row per task, in order: the task's remaining work, deadline and
/// gamma, and each level's power summed over its processors exactly as
/// ReferenceMatcher::task_power sums it (the simulator sums a starting
/// task's row the same way).
inline MatcherColumns matcher_rows(const Knowledge& knowledge,
                                   const PowerMatcher& matcher,
                                   const std::vector<ActiveTask>& tasks) {
  const ReferenceMatcher reference{knowledge, matcher};
  const std::size_t levels = knowledge.levels();
  MatcherColumns cols;
  cols.reset(levels, tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const ActiveTask& t = tasks[i];
    const std::size_t row = cols.append(i, t.remaining_work_s, t.deadline_s);
    for (std::size_t l = 0; l < levels; ++l)
      cols.power[row * levels + l] = reference.task_power(t, l).raw();
    cols.fill_row(row, t.gamma, matcher.slowdown_ratio());
  }
  return cols;
}

}  // namespace iscope
