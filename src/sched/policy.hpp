// Placement policies (paper Table 2, the Ran/Effi/Fair axis).
//
//  * Ran  -- workloads are assigned to idle CPUs uniformly at random and
//            start as soon as enough CPUs are free.
//  * Effi -- workloads always go to the CPUs with the best energy
//            efficiency. A task *waits* for members of the efficient pool
//            to free up while its deadline slack permits ("tasks can be
//            queued up at the energy-efficient processors as long as the
//            deadlines are not violated" -- paper Sec. VI-B); only deadline
//            pressure forces it onto less efficient chips.
//  * Fair -- ScanFair's rule: when wind is abundant, start immediately on
//            the historically least-used CPUs, trading cheap wind energy
//            for balanced processor lifetime. When wind is scarce, *defer*
//            deferrable work (wind may return before the deadline) and run
//            only deadline-forced tasks, on the most efficient idle CPUs,
//            to save expensive utility energy. In a utility-only facility
//            Fair degenerates to Effi (there is no wind to wait for).
//  * Therm -- Effi's waiting discipline over a *cooling-aware* rank: the
//            simulator injects a placement order that weighs each chip's
//            stock power by its rack's heat-recirculation contribution
//            (override_order), so the pool prefers chips whose watts the
//            CRAC removes cheapest. With no injected order (thermal model
//            off) Therm is Effi by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "sched/knowledge.hpp"

namespace iscope {

enum class PlacementRule : std::uint8_t { kRandom, kEfficiency, kFair, kTherm };

const char* placement_rule_name(PlacementRule rule);

/// Datacenter state the policy consults when placing one task.
struct PlacementContext {
  /// True when the facility has a wind supply at all (Fair's deferral only
  /// makes sense in a green datacenter).
  bool has_wind = false;
  /// True when wind generation exceeds current demand with headroom.
  bool wind_abundant = false;
  /// True when the task can no longer afford to wait for better CPUs.
  bool forced = false;
  /// Sum of waiting task widths over cluster size. Fair stops deferring
  /// when the backlog would swamp the cluster at wind-return (the deferred
  /// burst must still be serviceable within the deadlines).
  double queue_pressure = 0.0;
  /// Time until this task's last deadline-feasible start [s].
  double slack_s = 0.0;
  /// Expected mean wind power over this task's slack window. Infinity
  /// when no forecaster is attached ("assume the wind will come back" --
  /// the unconditioned deferral of the base design).
  Watts forecast_mean{std::numeric_limits<double>::infinity()};
  /// Current facility demand (forecast deferral compares against it).
  Watts current_demand;
};

/// Backlog (waiting width / cluster size) beyond which Fair stops
/// deferring work for wind.
inline constexpr double kMaxDeferBacklog = 2.0;

/// Fair defers a task for wind only when it can afford to wait at least
/// this long -- tight (HU-style) tasks start immediately instead of
/// gambling on the weather.
inline constexpr double kMinDeferSlackS = 2.0 * 3600.0;

/// With a forecaster attached, Fair defers only when the expected wind
/// over the slack window is at least this fraction of current demand
/// (below that, waiting just postpones the same utility burn).
inline constexpr double kDeferForecastFraction = 0.3;

/// Fair considers wind "abundant" when available wind exceeds current
/// demand by this factor.
inline constexpr double kWindAbundanceHeadroom = 1.1;

/// The widest task, and the largest slack, that a non-forced start can
/// have under a placement rule at one moment (PlacementPolicy::start_bound).
/// A waiting task that is not forced and lies outside it keeps waiting,
/// whatever choose() would be asked, so a scheduling pass need not visit it.
struct StartBound {
  std::size_t cpus = 0;
  double slack_s = std::numeric_limits<double>::infinity();
};

class PlacementPolicy {
 public:
  /// `efficient_pool_fraction`: the share of the cluster (by efficiency
  /// rank) Effi considers "good enough" to start on without deadline
  /// pressure.
  PlacementPolicy(const Knowledge* knowledge, PlacementRule rule,
                  std::uint64_t seed, double efficient_pool_fraction = 0.35);

  PlacementRule rule() const { return rule_; }

  /// Start a scheduling pass. Ran's next draw snapshots the idle set, and
  /// its draws until the next begin_pass() permute and consume that
  /// snapshot; between the two calls the idle set may change only by the
  /// picks choose() returns.
  void begin_pass() { draw_live_ = false; }

  /// Choose `n` idle processors for a task into `out` and return true, or
  /// return false to keep the task waiting (Effi-style placements wait for
  /// the efficient pool unless forced, and Fair and Therm defer for wind).
  /// A false return changes nothing. The caller guarantees at least `n`
  /// processors are idle and hands the idle set over in the forms the
  /// rules read:
  ///  * `idle_rank_bits` -- bit r (word r/64, bit r%64) set means the
  ///    processor at placement rank r is idle. Effi, Fair and Therm pop
  ///    their best-rank-first pick off it with a ctz scan. Ran draws by a
  ///    partial Fisher-Yates over the idle set in processor-id order as
  ///    the pass's first draw found it, minus the pass's earlier picks: a
  ///    pick permutes that pool and leaves it, so later draws in the pass
  ///    consume the RNG against the permuted remainder, whose layout is
  ///    part of the result. The pool is virtual: its slots are read off a
  ///    snapshot of the bitset, and the slots a swap moved are kept in an
  ///    override table that the next pass's snapshot clears.
  ///  * `idle_by_busy` -- the idle set ordered by (busy time, id), read
  ///    only by Fair under abundant wind.
  bool choose(std::size_t n, const std::uint64_t* idle_rank_bits,
              const std::vector<std::size_t>& idle_by_busy,
              const PlacementContext& ctx, std::vector<std::size_t>& out);

  /// The bound every non-forced start choose() can accept right now obeys
  /// (`idle_count` processors idle, `ctx`'s has_wind, wind_abundant and
  /// queue_pressure; `forecasting` when a forecaster sets forecast_mean):
  ///  * Effi, and Fair and Therm without wind: as wide as the idle
  ///    processors ranked inside the efficient pool, any slack;
  ///  * Ran, and Fair and Therm with abundant wind, a backlog of at least
  ///    kMaxDeferBacklog or a forecaster: as wide as the idle set, any
  ///    slack (the forecast is per task, so it bounds nothing);
  ///  * Fair and Therm otherwise: as wide as the idle set, slack at most
  ///    kMinDeferSlackS.
  /// Tight wherever no forecaster is attached: a task inside it that fits
  /// is accepted.
  StartBound start_bound(std::size_t idle_count,
                         const std::uint64_t* idle_rank_bits,
                         const PlacementContext& ctx, bool forecasting) const;

  /// Rank of a processor in the placement order (0 = placed first): the
  /// efficiency rank for Effi and Fair, the installed order for Therm, the
  /// processor id for Ran.
  std::size_t placement_rank(std::size_t proc) const;

  /// Replace the placement order (rank 0 first) with a caller-computed
  /// permutation of the processor ids -- the hook ScanTherm uses to rank
  /// chips by marginal compute + cooling power instead of raw efficiency.
  /// Must be called before the scheduler builds its rank-indexed idle
  /// structures; the order is fixed for the whole run (like the
  /// efficiency order it replaces).
  void override_order(std::vector<std::size_t> order);

  /// Checkpoint access to the placement stream (consumed only by kRandom;
  /// Effi/Fair never draw, so their saved state is the seed position).
  std::string rng_state() const { return rng_.save_state(); }
  void set_rng_state(const std::string& state) { rng_.load_state(state); }

 private:
  bool choose_efficient_bits(std::size_t n, const std::uint64_t* idle_rank_bits,
                             bool forced, std::vector<std::size_t>& out) const;
  /// Fair's wind-scarce deferral predicate (Therm defers on it too).
  bool fair_defers(const PlacementContext& ctx) const;
  /// Ran's pick: n draws of the pass's virtual partial Fisher-Yates.
  bool draw_random(std::size_t n, const std::uint64_t* idle_rank_bits,
                   std::vector<std::size_t>& out);
  /// Slot `k` of the virtual draw pool: its override, or else the
  /// processor at the k-th idle rank of the snapshot.
  std::size_t draw_slot(std::size_t k) const;
  bool draw_moved(std::size_t k) const {
    return ((draw_moved_[k / 64] >> (k % 64)) & 1U) != 0;
  }

  const Knowledge* knowledge_;  // non-owning
  PlacementRule rule_;
  Rng rng_;
  double pool_fraction_;
  std::size_t pool_limit_;  ///< ranks below this are "efficient enough"
  /// Placement order, rank 0 first. The identity for Ran; otherwise a copy
  /// of the knowledge's efficiency order unless override_order() installed
  /// a thermal-aware permutation (the efficiency order is built once and
  /// never reordered, so the copy cannot go stale).
  std::vector<std::size_t> order_;
  std::vector<std::size_t> rank_of_proc_;

  /// --- Ran's virtual draw pool (sized at construction, Ran only) ---------
  /// Slot k of the pass's pool is the k-th set bit of `draw_bits_`, the
  /// idle bitset as the pass's first draw found it, unless a swap moved
  /// another processor there: then bit k of `draw_moved_` is set and
  /// `draw_swaps_[k]` holds it. The snapshot clears `draw_moved_`, so a new
  /// pass starts with no override. `draw_prefix_[w]` counts the set bits
  /// of the words before w. Slots below `draw_taken_` were picked this
  /// pass.
  bool draw_live_ = false;
  std::size_t draw_taken_ = 0;
  std::size_t draw_count_ = 0;  ///< idle processors in the snapshot
  /// The pool's front slot (draw_taken_ during a draw, the i-th draw's
  /// slot i) only moves forward: its snapshot processor is the lowest bit
  /// of `draw_front_bits_`, what is left of word `draw_front_word_`.
  std::size_t draw_front_word_ = 0;
  std::uint64_t draw_front_bits_ = 0;
  std::vector<std::uint64_t> draw_bits_;
  std::vector<std::size_t> draw_prefix_;
  std::vector<std::uint64_t> draw_moved_;
  std::vector<std::uint32_t> draw_swaps_;
};

}  // namespace iscope
