// The scheduler's waiting queue, indexed so a scheduling pass visits only
// the waiting tasks that can act.
//
// Tasks wait in arrival order. A pass walks them in that order and starts
// the ones the placement rule accepts, backfilling past the ones it keeps
// waiting, and stops at a deadline-forced task that cannot fit (paper
// Sec. VI-B: Effi queues work for the efficient pool, Fair and Therm defer
// it for wind, so the queue is long by design). Most of the queue cannot
// act at a given moment: a non-forced task acts only inside the rule's
// StartBound (PlacementPolicy::start_bound) -- no wider than the idle
// processors it may use, and for Fair and Therm under scarce wind no
// slacker than kMinDeferSlackS. WaitingQueue keeps the entries packed in
// arrival order, 16 bytes each, with a hole where a task started, under a
// min-tree of their widths and latest starts whose leaves are buckets of
// kBucket slots, so first() jumps to the next entry that is forced or
// inside the bound in O(log n) per subtree it enters plus one bucket scan
// per leaf. Slots stay put during a pass; compact_if_sparse() squeezes the
// holes out after it.
//
// placement_pass() is the pass itself, the one loop every placement rule
// runs; the simulator hosts it (sim/simulator.cpp), and the unit suites
// host it over hand-built facilities against the linear pass in
// tests/reference_scheduler.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "energy/forecast.hpp"
#include "sched/policy.hpp"

namespace iscope {

/// One waiting task as the pass reads it.
struct WaitingEntry {
  std::size_t task = 0;         ///< the caller's task index
  std::size_t cpus = 0;         ///< gang width
  double latest_start_s = 0.0;  ///< last deadline-feasible start
};

class WaitingQueue {
 public:
  static constexpr std::size_t kEnd = static_cast<std::size_t>(-1);

  /// `patience_s`: how long before its latest start a task is forced.
  explicit WaitingQueue(double patience_s = 0.0);

  /// Live entries (holes excluded) and their total width.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  std::size_t cpus() const { return live_cpus_; }
  /// Slots in use, holes included: first() answers in [0, slots()).
  std::size_t slots() const { return slots_.size(); }
  bool live(std::size_t slot) const { return slots_[slot].task != kHoleTask; }
  WaitingEntry entry(std::size_t slot) const {
    const Slot& e = slots_[slot];
    return WaitingEntry{e.task, e.cpus, e.latest_start_s};
  }
  /// True when `e` can no longer wait at `now_s` (its latest start less
  /// the patience has come): it starts on whatever is idle.
  bool forced(const WaitingEntry& e, double now_s) const {
    return now_s >= e.latest_start_s - patience_s_;
  }

  /// Drop every entry; capacity is kept.
  void clear();
  /// Append a task at the back (arrival order). Task indices and widths
  /// are packed into 32 bits each.
  void push(const WaitingEntry& e);
  /// Turn a live slot into a hole (its task started); no slot moves.
  void remove(std::size_t slot);
  /// Squeeze the holes out, keeping arrival order, and size the tree to
  /// the next power of two of the buckets left.
  void compact();
  /// compact() once holes outnumber half the live entries.
  void compact_if_sparse() {
    if (2 * (slots_.size() - live_) > live_) compact();
  }

  /// The first live slot at or after `from` whose task is forced at
  /// `now_s` or inside `bound` (width <= bound.cpus and latest start -
  /// now_s <= bound.slack_s), or kEnd.
  std::size_t first(std::size_t from, double now_s,
                    const StartBound& bound) const;

  /// The live tasks in arrival order, and a queue holding exactly those
  /// (their widths and latest starts are left for rederive()).
  std::vector<std::size_t> tasks() const;
  void assign(const std::vector<std::size_t>& tasks);
  /// Refill every live entry from `refill(entry)` (which sets its width
  /// and latest start from its task), compact and rebuild the tree.
  template <class Refill>
  void rederive(Refill refill) {
    for (Slot& s : slots_) {
      if (s.task == kHoleTask) continue;
      WaitingEntry e{s.task, 0, 0.0};
      refill(e);
      s = pack(e);
    }
    compact();
  }

  /// True when the live count, the width sum and the tree equal their
  /// derivation from the entries (audit builds check it).
  bool consistent() const;

 private:
  /// Slots per tree leaf: a bucket's slots are scanned in a row.
  static constexpr std::size_t kBucket = 8;
  static constexpr std::uint32_t kHoleTask = 0xFFFFFFFFU;
  /// A slot: a waiting task, or a hole (task, width and latest start all
  /// at their maximum, so no bound and no clock admits it).
  struct Slot {
    std::uint32_t task;
    std::uint32_t cpus;
    double latest_start_s;
  };
  /// A tree node: the minimum width and latest start under it.
  struct Key {
    std::uint32_t cpus;
    double latest_start_s;
  };
  static constexpr Slot kHoleSlot{kHoleTask, 0xFFFFFFFFU,
                                  std::numeric_limits<double>::infinity()};
  static constexpr Key kHoleKey{kHoleSlot.cpus, kHoleSlot.latest_start_s};

  static Slot pack(const WaitingEntry& e);
  /// Recompute the leaf of `slot`'s bucket and the nodes above it.
  void update(std::size_t slot);
  Key bucket_key(std::size_t bucket) const;
  /// Size the tree to the buckets and recompute every node.
  void rebuild();

  double patience_s_;
  /// Arrival order, holes included.
  std::vector<Slot> slots_;
  /// A complete tree over the buckets: node 1 is the root, nodes cap_ ..
  /// 2 cap_-1 the buckets' minima (past the last bucket, a hole's key).
  std::vector<Key> tree_;
  std::size_t cap_ = 1;
  std::size_t live_ = 0;
  std::size_t live_cpus_ = 0;
};

/// What one scheduling pass reads of the facility; fixed for the pass.
struct PassInputs {
  double now_s = 0.0;
  bool has_wind = false;
  /// Wind available at now_s (abundance is re-tested as demand grows).
  Watts wind;
  /// Waiting width over cluster size when the pass starts.
  double queue_pressure = 0.0;
  /// Informs Fair's and Therm's deferral, per task; null assumes the wind
  /// returns within any slack.
  const WindForecaster* forecaster = nullptr;
};

/// Fair's abundance test: wind exceeds demand with headroom.
inline bool wind_abundant(Watts wind, Watts demand) {
  return wind > Watts{} && wind > demand * kWindAbundanceHeadroom;
}

/// One scheduling pass over `waiting`, in arrival order: each entry that
/// is forced or inside the rule's bound is offered to policy.choose(); an
/// accepted one leaves the queue and starts through `host`. The bound is
/// recomputed after every start. Returns true when a forced task that
/// cannot fit blocked the pass (the freed processors are reserved for
/// it). `host` is the facility the pass places on:
///   std::size_t idle_count(); const std::uint64_t* idle_rank_bits();
///   const std::vector<std::size_t>& idle_by_busy(); Watts demand();
///   void start(std::size_t task, const std::vector<std::size_t>& procs);
/// where start() takes the picked processors out of the idle views.
/// `picks` is choose()'s output buffer.
template <class Host>
bool placement_pass(WaitingQueue& waiting, PlacementPolicy& policy,
                    const PassInputs& in, Host& host,
                    std::vector<std::size_t>& picks) {
  policy.begin_pass();
  // Only Fair and Therm read the supply-side context (both defer on wind
  // scarcity); forecast_mean is a pure function of its arguments, so
  // skipping it for Ran and Effi changes nothing.
  const bool supply_rule = policy.rule() == PlacementRule::kFair ||
                           policy.rule() == PlacementRule::kTherm;
  PlacementContext ctx;
  ctx.has_wind = in.has_wind;
  ctx.queue_pressure = in.queue_pressure;
  // Demand moves only when a task starts, so abundance and the bound are
  // re-read exactly then.
  const auto bound_now = [&] {
    ctx.current_demand = host.demand();
    ctx.wind_abundant = wind_abundant(in.wind, ctx.current_demand);
    return policy.start_bound(host.idle_count(), host.idle_rank_bits(), ctx,
                              in.forecaster != nullptr);
  };
  StartBound bound = bound_now();
  bool blocked = false;
  for (std::size_t slot = waiting.first(0, in.now_s, bound);
       slot != WaitingQueue::kEnd;
       slot = waiting.first(slot + 1, in.now_s, bound)) {
    const WaitingEntry e = waiting.entry(slot);
    ctx.forced = waiting.forced(e, in.now_s);
    if (e.cpus > host.idle_count()) {
      // Every bound is within the idle count, so this task is forced: it
      // reserves the freed CPUs, and the pass stops so backfill cannot
      // starve it.
      blocked = true;
      break;
    }
    ctx.slack_s = e.latest_start_s - in.now_s;
    if (supply_rule)
      ctx.forecast_mean =
          (in.forecaster != nullptr && ctx.slack_s > 0.0)
              ? in.forecaster->forecast_mean(Seconds{in.now_s},
                                             Seconds{ctx.slack_s})
              : Watts{std::numeric_limits<double>::infinity()};
    if (!policy.choose(e.cpus, host.idle_rank_bits(), host.idle_by_busy(),
                       ctx, picks))
      continue;  // voluntarily waiting; backfill continues
    waiting.remove(slot);
    host.start(e.task, picks);
    bound = bound_now();
  }
  waiting.compact_if_sparse();
  return blocked;
}

}  // namespace iscope
