// The reference scheduler: the paper's two-phase supply-demand matcher
// (Sec. V-C) and its placement rules (Table 2), written the direct way.
//
//  * ReferenceMatcher works over ActiveTask views: O(procs) power sums per
//    call, a per-task floor and energy argmin, and its own
//    std::priority_queue descent for phase 2.
//  * ReferencePlacement picks from an idle *vector*: partial_sort by
//    placement rank for Effi, Fair and Therm, partial_sort by (busy time,
//    id) for Fair under abundant wind, and partial Fisher-Yates for Ran
//    with a caller-supplied Rng.
//  * ReferencePass is one scheduling pass the linear way: it offers every
//    waiting task, in arrival order, to ReferencePlacement.
//
// None shares code with the production scheduler (PowerMatcher::match
// over SoA rows, PlacementPolicy::choose over the rank-indexed idle bitset
// with Ran's virtual draw pool, placement_pass over the indexed
// WaitingQueue), so the unit suites hold the production kernels to these
// oracles bit for bit. At simulation scope, tests/data/golden/ pins the
// results both used to reach.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "energy/forecast.hpp"
#include "sched/knowledge.hpp"
#include "sched/policy.hpp"
#include "sched/power_matcher.hpp"

namespace iscope {

/// A running task as the reference matcher sees it.
struct ActiveTask {
  double remaining_work_s = 0.0;  ///< work left, in seconds-at-Fmax
  double deadline_s = 0.0;
  double gamma = 1.0;             ///< CPU-boundness (Eq-3)
  std::vector<std::size_t> procs; ///< processors it occupies
  std::size_t level = 0;          ///< matcher output: assigned DVFS level
};

/// The two-phase matcher over one knowledge view. `matcher` supplies only
/// the Eq-3 slowdown table and the cooling factor.
struct ReferenceMatcher {
  const Knowledge& knowledge;
  const PowerMatcher& matcher;

  /// IT power of one task at one level: the sum over its processors.
  Watts task_power(const ActiveTask& task, std::size_t level) const {
    Watts p;
    for (const std::size_t id : task.procs) p += knowledge.power(id, level);
    return p;
  }

  double slowdown(const ActiveTask& task, std::size_t level) const {
    return matcher.slowdown(task.gamma, level);
  }

  /// Lowest level at which `task` still meets its deadline starting
  /// `now_s`; the top level if even that misses.
  std::size_t min_feasible_level(const ActiveTask& task, double now_s) const {
    const std::size_t count = knowledge.levels();
    const double slack = task.deadline_s - now_s;
    for (std::size_t l = 0; l < count; ++l) {
      if (task.remaining_work_s * slowdown(task, l) <= slack) return l;
    }
    return count - 1;
  }

  /// Energy-optimal level in [floor, top]: minimizes P(l) * slowdown(l),
  /// preferring the higher level on ties.
  std::size_t energy_optimal_level(const ActiveTask& task,
                                   std::size_t floor) const {
    const std::size_t top = knowledge.levels() - 1;
    std::size_t best = top;
    Watts best_energy = task_power(task, top) * slowdown(task, top);
    for (std::size_t l = top; l-- > floor;) {
      const Watts e = task_power(task, l) * slowdown(task, l);
      if (e < best_energy) {
        best_energy = e;
        best = l;
      }
    }
    return best;
  }

  /// Both phases; fills each task's `level`.
  MatchResult match(std::vector<ActiveTask>& tasks, Watts wind_avail,
                    double now_s) const {
    MatchResult result;
    if (tasks.empty()) return result;
    const double cooling = matcher.cooling_factor();

    // Phase 1: energy-optimal deadline-feasible baseline.
    std::vector<std::size_t> floor(tasks.size());
    Watts compute;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      floor[i] = min_feasible_level(tasks[i], now_s);
      tasks[i].level = energy_optimal_level(tasks[i], floor[i]);
      compute += task_power(tasks[i], tasks[i].level);
    }

    // Phase 2: fit under the wind budget with greedy best-saving
    // down-steps, largest saving first, the smaller task index on ties.
    Watts floor_compute;
    for (std::size_t i = 0; i < tasks.size(); ++i)
      floor_compute += task_power(tasks[i], floor[i]);
    if (wind_avail.raw() > 0.0 && wind_avail >= floor_compute * cooling) {
      const auto less = [](const DownStep& a, const DownStep& b) {
        if (a.saving != b.saving) return a.saving < b.saving;
        return a.task > b.task;
      };
      std::priority_queue<DownStep, std::vector<DownStep>, decltype(less)>
          heap(less);
      auto push_step = [&](std::size_t i) {
        const std::size_t l = tasks[i].level;
        if (l == 0 || l <= floor[i]) return;
        const Watts saving =
            task_power(tasks[i], l) - task_power(tasks[i], l - 1);
        heap.push(DownStep{saving, i, l - 1});
      };
      for (std::size_t i = 0; i < tasks.size(); ++i) push_step(i);

      while (compute * cooling > wind_avail && !heap.empty()) {
        const DownStep step = heap.top();
        heap.pop();
        if (tasks[step.task].level != step.to_level + 1) continue;
        tasks[step.task].level = step.to_level;
        compute -= step.saving;
        ++result.steps;
        push_step(step.task);
      }
    }

    result.compute = compute;
    result.demand = compute * cooling;
    return result;
  }
};

/// The placement rules over an idle vector. Holds what the production
/// policy keeps as state: its rule, its placement ranks and its
/// efficient-pool size.
struct ReferencePlacement {
  PlacementRule rule;
  std::vector<std::size_t> rank_of_proc;  ///< placement rank per processor
  std::size_t pool_limit;  ///< ranks below this are "efficient enough"

  /// Choose `n` of `idle`, or nullopt to keep the task waiting. `idle` is
  /// reordered so that a pick is its first n entries; the caller erases
  /// them. Ran draws from `rng`; `busy` is the per-processor busy time
  /// Fair balances under abundant wind.
  std::optional<std::vector<std::size_t>> choose(
      std::size_t n, std::vector<std::size_t>& idle,
      const PlacementContext& ctx, const std::vector<double>& busy,
      Rng& rng) const {
    if (idle.size() < n) return std::nullopt;
    const auto first_n = [&] {
      return std::vector<std::size_t>(
          idle.begin(), idle.begin() + static_cast<std::ptrdiff_t>(n));
    };
    switch (rule) {
      case PlacementRule::kRandom:
        for (std::size_t i = 0; i < n; ++i) {
          const auto j = static_cast<std::size_t>(rng.uniform_int(
              static_cast<std::int64_t>(i),
              static_cast<std::int64_t>(idle.size()) - 1));
          std::swap(idle[i], idle[j]);
        }
        return first_n();
      case PlacementRule::kEfficiency:
        return efficient(n, idle, ctx.forced);
      case PlacementRule::kTherm:
        if (!ctx.has_wind) return efficient(n, idle, ctx.forced);
        if (!ctx.wind_abundant && defers(ctx)) return std::nullopt;
        return efficient(n, idle, /*forced=*/true);
      case PlacementRule::kFair:
        if (!ctx.has_wind) return efficient(n, idle, ctx.forced);
        if (!ctx.wind_abundant) {
          if (defers(ctx)) return std::nullopt;
          return efficient(n, idle, /*forced=*/true);
        }
        std::partial_sort(idle.begin(),
                          idle.begin() + static_cast<std::ptrdiff_t>(n),
                          idle.end(), [&](std::size_t a, std::size_t b) {
                            if (busy[a] != busy[b]) return busy[a] < busy[b];
                            return a < b;
                          });
        return first_n();
    }
    return std::nullopt;
  }

 private:
  std::optional<std::vector<std::size_t>> efficient(
      std::size_t n, std::vector<std::size_t>& idle, bool forced) const {
    const std::size_t* rank = rank_of_proc.data();
    std::partial_sort(idle.begin(),
                      idle.begin() + static_cast<std::ptrdiff_t>(n),
                      idle.end(), [rank](std::size_t a, std::size_t b) {
                        return rank[a] < rank[b];
                      });
    if (!forced && rank[idle[n - 1]] >= pool_limit) return std::nullopt;
    return std::vector<std::size_t>(
        idle.begin(), idle.begin() + static_cast<std::ptrdiff_t>(n));
  }

  static bool defers(const PlacementContext& ctx) {
    const bool forecast_promises_wind =
        ctx.forecast_mean >=
        kDeferForecastFraction * std::max(ctx.current_demand, Watts{1.0});
    return !ctx.forced && ctx.slack_s > kMinDeferSlackS &&
           ctx.queue_pressure < kMaxDeferBacklog && forecast_promises_wind;
  }
};

/// A waiting task as the reference pass reads it.
struct ReferenceWaiting {
  std::size_t task = 0;
  std::size_t cpus = 0;
  double latest_start_s = 0.0;
};

/// One scheduling pass the linear way, as the simulator ran it before its
/// waiting queue was indexed: every waiting task in arrival order. A
/// forced task (now >= latest start - patience) that does not fit the
/// idle set blocks the pass; a task that does not fit otherwise keeps
/// waiting; every other task is offered to the placement, with wind
/// abundance re-tested against the demand after each start. Holds the
/// pass's fixed inputs.
struct ReferencePass {
  const ReferencePlacement& placement;
  double now_s = 0.0;
  double patience_s = 0.0;
  bool has_wind = false;
  Watts wind;
  double queue_pressure = 0.0;
  const WindForecaster* forecaster = nullptr;

  struct Start {
    std::size_t task;
    std::vector<std::size_t> procs;
    bool operator==(const Start&) const = default;
  };

  /// Run the pass: started tasks leave `waiting` and their processors
  /// leave `idle` (Ran's pool: it is sorted first, and its remainder stays
  /// permuted), in `started`'s order. `demand(k)` is the facility demand
  /// after k starts. Returns true when a forced task blocked the pass.
  template <class Demand>
  bool run(std::vector<ReferenceWaiting>& waiting,
           std::vector<std::size_t>& idle, const std::vector<double>& busy,
           Rng& rng, Demand demand, std::vector<Start>& started) const {
    std::sort(idle.begin(), idle.end());
    std::vector<ReferenceWaiting> kept;
    bool blocked = false;
    std::size_t i = 0;
    for (; i < waiting.size(); ++i) {
      const ReferenceWaiting& w = waiting[i];
      PlacementContext ctx;
      ctx.has_wind = has_wind;
      ctx.queue_pressure = queue_pressure;
      ctx.forced = now_s >= w.latest_start_s - patience_s;
      if (w.cpus > idle.size()) {
        if (ctx.forced) {
          blocked = true;
          break;
        }
        kept.push_back(w);
        continue;
      }
      ctx.slack_s = w.latest_start_s - now_s;
      ctx.current_demand = demand(started.size());
      ctx.wind_abundant = wind.raw() > 0.0 &&
                          wind.raw() > ctx.current_demand.raw() *
                                           kWindAbundanceHeadroom;
      if (forecaster != nullptr && ctx.slack_s > 0.0)
        ctx.forecast_mean =
            forecaster->forecast_mean(Seconds{now_s}, Seconds{ctx.slack_s});
      const auto pick = placement.choose(w.cpus, idle, ctx, busy, rng);
      if (!pick.has_value()) {
        kept.push_back(w);
        continue;
      }
      idle.erase(idle.begin(), idle.begin() + static_cast<std::ptrdiff_t>(w.cpus));
      started.push_back(Start{w.task, *pick});
    }
    kept.insert(kept.end(), waiting.begin() + static_cast<std::ptrdiff_t>(i),
                waiting.end());
    waiting = std::move(kept);
    return blocked;
  }
};

}  // namespace iscope
