// The indexed waiting queue and the scheduling pass over it
// (sched/waiting_queue.hpp), held to linear oracles: every first() query
// against a scan of the slots, and every pass against the linear pass in
// reference_scheduler.hpp, which offers each waiting task in turn to the
// vector placement.
//
// Bugs each suite was seen to catch when planted in the production code:
//  * a tree minimum left stale when a slot becomes a hole (answers stay
//    right, only the pruning is lost): both randomized tests, through
//    consistent(), which audit builds also check at every epoch;
//  * the slack test `<` instead of `<=` in first():
//    FirstEqualsALinearScanUnderRandomEdits and
//    MatchesTheLinearReferencePass (no golden row has a task at exactly
//    kMinDeferSlackS);
//  * a bound not recomputed after a start: MatchesTheLinearReferencePass;
//  * the efficient-pool count off by one at pool_limit_, either way:
//    Policy.StartBoundIsTheWidestNonForcedStart (test_policy), and in the
//    tightening direction MatchesTheLinearReferencePass.
#include "sched/waiting_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hardware/cluster.hpp"
#include "reference_scheduler.hpp"

namespace iscope {
namespace {

constexpr double kPatience = 1200.0;
constexpr double kGrid = 600.0;  // latest starts and clocks on one grid
constexpr double kInf = std::numeric_limits<double>::infinity();

/// What first() must answer: the first live slot at or after `from` that
/// is forced or inside the bound, by a scan.
std::size_t linear_first(const std::vector<WaitingEntry>& slots,
                         std::size_t from, double now,
                         const StartBound& bound) {
  for (std::size_t s = from; s < slots.size(); ++s) {
    const WaitingEntry& e = slots[s];
    if (e.task == WaitingQueue::kEnd) continue;
    const bool forced = now >= e.latest_start_s - kPatience;
    const bool inside =
        e.cpus <= bound.cpus && e.latest_start_s - now <= bound.slack_s;
    if (forced || inside) return s;
  }
  return WaitingQueue::kEnd;
}

TEST(WaitingQueue, FirstEqualsALinearScanUnderRandomEdits) {
  // Phases alternate between growing the queue (capacity doublings) and
  // draining it (holes, compactions that shrink the tree). Latest starts,
  // clocks and slack bounds share a 600 s grid, so the forced edge
  // (latest start - patience == now) and the slack edge (slack ==
  // kMinDeferSlackS) come up exactly.
  Rng rng(24);
  WaitingQueue q(kPatience);
  std::vector<WaitingEntry> model;  // slots, holes included
  std::size_t next_task = 0;
  std::size_t queries = 0;
  std::size_t hits = 0;
  std::size_t growths = 0;
  std::size_t compactions = 0;
  std::size_t clears = 0;
  for (int step = 0; step < 12000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const bool growing = (step / 1500) % 2 == 0;
    const double u = step == 4499 ? 0.99 : rng.uniform();
    std::size_t live = 0;
    for (const WaitingEntry& e : model)
      if (e.task != WaitingQueue::kEnd) ++live;
    if (u < (growing ? 0.45 : 0.15) || model.empty()) {
      WaitingEntry e;
      e.task = next_task++;
      e.cpus = static_cast<std::size_t>(rng.uniform_int(1, 16));
      e.latest_start_s =
          kGrid * static_cast<double>(rng.uniform_int(90, 240)) +
          (rng.uniform() < 0.2 ? rng.uniform(0.0, kGrid) : 0.0);
      if (std::has_single_bit(model.size())) ++growths;
      q.push(e);
      model.push_back(e);
    } else if (u < 0.6 - (growing ? 0.0 : 0.05)) {
      if (live > 0) {
        auto k = rng.uniform_int(0, static_cast<std::int64_t>(live) - 1);
        for (std::size_t s = 0; s < model.size(); ++s) {
          if (model[s].task == WaitingQueue::kEnd || k-- > 0) continue;
          q.remove(s);
          model[s] = WaitingEntry{WaitingQueue::kEnd,
                                  WaitingQueue::kEnd, kInf};
          break;
        }
      }
    } else if (u < (growing ? 0.605 : 0.6)) {
      q.compact();
      std::erase_if(model, [](const WaitingEntry& e) {
        return e.task == WaitingQueue::kEnd;
      });
      ++compactions;
    } else if (u < (growing ? 0.625 : 0.66)) {
      const std::size_t before = q.slots();
      q.compact_if_sparse();
      if (q.slots() != before) {
        std::erase_if(model, [](const WaitingEntry& e) {
          return e.task == WaitingQueue::kEnd;
        });
        ++compactions;
      }
    } else if (step == 4499) {  // the end of a growing phase
      q.clear();
      model.clear();
      ++clears;
    } else {
      // A pass-like walk: from a random slot, follow the answers to the end.
      const double now = kGrid * static_cast<double>(rng.uniform_int(100, 200)) +
                         (rng.uniform() < 0.2 ? rng.uniform(0.0, kGrid) : 0.0);
      StartBound bound;
      bound.cpus = static_cast<std::size_t>(rng.uniform_int(0, 16));
      const double pick = rng.uniform();
      bound.slack_s = pick < 0.3   ? kInf
                      : pick < 0.6 ? kMinDeferSlackS
                      : pick < 0.9 ? kGrid * static_cast<double>(
                                                 rng.uniform_int(0, 30))
                                   : rng.uniform(-kGrid, 30 * kGrid);
      std::size_t from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(model.size()) + 1));
      for (;;) {
        const std::size_t got = q.first(from, now, bound);
        ASSERT_EQ(got, linear_first(model, from, now, bound))
            << "from " << from << " now " << now << " bound " << bound.cpus
            << "/" << bound.slack_s;
        ++queries;
        if (got == WaitingQueue::kEnd) break;
        ++hits;
        from = got + 1;
      }
    }
    ASSERT_TRUE(q.consistent());
    ASSERT_EQ(q.slots(), model.size());
    std::size_t cpus = 0;
    live = 0;
    for (std::size_t s = 0; s < model.size(); ++s) {
      ASSERT_EQ(q.live(s), model[s].task != WaitingQueue::kEnd);
      if (!q.live(s)) continue;
      ++live;
      cpus += model[s].cpus;
      ASSERT_EQ(q.entry(s).task, model[s].task);
    }
    ASSERT_EQ(q.size(), live);
    ASSERT_EQ(q.cpus(), cpus);
  }
  EXPECT_GT(queries, 10000u);
  EXPECT_GT(hits, 10000u);
  EXPECT_GT(growths, 40u);
  EXPECT_GT(compactions, 200u);
  EXPECT_GT(clears, 0u);
}

TEST(WaitingQueue, TaskOrderRoundTripsThroughAssignAndRederive) {
  // The checkpoint carries the live tasks in order; a load assigns them
  // and rederive() refills each entry from its task and rebuilds the tree.
  WaitingQueue q(kPatience);
  for (std::size_t t = 0; t < 40; ++t)
    q.push(WaitingEntry{t, 1 + t % 7, kGrid * static_cast<double>(t)});
  for (std::size_t s = 0; s < 40; s += 3) q.remove(s);
  const std::vector<std::size_t> tasks = q.tasks();
  ASSERT_EQ(tasks.size(), q.size());

  WaitingQueue loaded(kPatience);
  loaded.assign(tasks);
  loaded.rederive([](WaitingEntry& e) {
    e.cpus = 1 + e.task % 7;
    e.latest_start_s = kGrid * static_cast<double>(e.task);
  });
  EXPECT_TRUE(loaded.consistent());
  EXPECT_EQ(loaded.tasks(), tasks);
  EXPECT_EQ(loaded.cpus(), q.cpus());
  EXPECT_EQ(loaded.slots(), tasks.size());  // holes do not travel
  const StartBound bound{3, kMinDeferSlackS};
  for (const double now : {0.0, 6000.0, 12000.0}) {
    std::size_t a = q.first(0, now, bound);
    std::size_t b = loaded.first(0, now, bound);
    while (a != WaitingQueue::kEnd && b != WaitingQueue::kEnd) {
      EXPECT_EQ(q.entry(a).task, loaded.entry(b).task);
      a = q.first(a + 1, now, bound);
      b = loaded.first(b + 1, now, bound);
    }
    EXPECT_EQ(a, WaitingQueue::kEnd);
    EXPECT_EQ(b, WaitingQueue::kEnd);
  }
}

/// A forecaster that, like every production one, is a pure function of its
/// arguments.
class WavyForecaster final : public WindForecaster {
 public:
  Watts forecast_mean(Seconds now, Seconds horizon) const override {
    return Watts{500.0 + 450.0 * std::sin(now.raw() / 5000.0 +
                                          horizon.raw() / 1700.0)};
  }
};

/// The facility a production pass places on, kept the way the simulator
/// keeps it: the rank bitset and the (busy time, id)-ordered idle list.
/// Demand after k starts comes from a script both passes share.
struct Facility {
  const PlacementPolicy& policy;
  const std::vector<double>& busy;
  const std::vector<double>& demand_script;
  std::vector<std::uint64_t> bits;
  std::vector<std::size_t> by_busy;
  std::size_t idle = 0;
  std::vector<ReferencePass::Start> started;

  Facility(const PlacementPolicy& p, std::size_t procs,
           const std::vector<std::size_t>& idle_set,
           const std::vector<double>& busy_s,
           const std::vector<double>& script)
      : policy(p),
        busy(busy_s),
        demand_script(script),
        bits((procs + 63) / 64, 0),
        by_busy(idle_set),
        idle(idle_set.size()) {
    for (const std::size_t proc : idle_set) {
      const std::size_t r = policy.placement_rank(proc);
      bits[r / 64] |= std::uint64_t{1} << (r % 64);
    }
    std::sort(by_busy.begin(), by_busy.end(),
              [&](std::size_t a, std::size_t b) {
                if (busy[a] != busy[b]) return busy[a] < busy[b];
                return a < b;
              });
  }

  std::size_t idle_count() const { return idle; }
  const std::uint64_t* idle_rank_bits() const { return bits.data(); }
  const std::vector<std::size_t>& idle_by_busy() const { return by_busy; }
  Watts demand() const {
    return Watts{demand_script[started.size() % demand_script.size()]};
  }
  void start(std::size_t task, const std::vector<std::size_t>& procs) {
    for (const std::size_t proc : procs) {
      const std::size_t r = policy.placement_rank(proc);
      EXPECT_NE(bits[r / 64] & (std::uint64_t{1} << (r % 64)), 0u)
          << "started on busy processor " << proc;
      bits[r / 64] &= ~(std::uint64_t{1} << (r % 64));
      by_busy.erase(std::find(by_busy.begin(), by_busy.end(), proc));
    }
    idle -= procs.size();
    started.push_back(ReferencePass::Start{task, procs});
  }
};

TEST(PlacementPass, MatchesTheLinearReferencePass) {
  // Random facilities and waiting lists on 20-, 64-, 65- and 130-CPU
  // clusters, all four rules, wind on and off, abundance flipping both
  // ways as demand moves with each start, backlogs at and above
  // kMaxDeferBacklog, and a forecaster on and off. Three passes per draw
  // share one queue, so later passes run over holes and compacted slots.
  // The started tasks, their order, their processors, the rush flag, the
  // tasks left waiting and Ran's RNG position must all match.
  constexpr std::array<std::size_t, 4> kSizes = {20, 64, 65, 130};
  std::vector<Cluster> clusters;
  for (const std::size_t n : kSizes) {
    ClusterConfig cfg;
    cfg.num_processors = n;
    cfg.seed = 3 + n;
    clusters.push_back(build_cluster(cfg));
  }
  const WavyForecaster forecaster;
  Rng rng(2211);
  std::size_t starts = 0;
  std::size_t blocked = 0;
  std::size_t passes = 0;
  std::array<std::size_t, 4> rule_starts{};
  for (std::size_t draw = 0; draw < 320; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const Cluster& cluster = clusters[draw % kSizes.size()];
    const std::size_t n = cluster.size();
    const Knowledge knowledge(&cluster, KnowledgeSource::kBin);
    const auto rule = static_cast<PlacementRule>(rng.uniform_int(0, 3));
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    const double fraction = rng.uniform(0.05, 1.0);
    PlacementPolicy policy(&knowledge, rule, seed, fraction);
    std::vector<std::size_t> order = knowledge.efficiency_order();
    if (rule == PlacementRule::kTherm) {
      rng.shuffle(order);
      policy.override_order(order);
    }
    ReferencePlacement oracle{rule, std::vector<std::size_t>(n),
                              static_cast<std::size_t>(
                                  fraction * static_cast<double>(n))};
    for (std::size_t r = 0; r < n; ++r) oracle.rank_of_proc[order[r]] = r;
    Rng oracle_rng(seed);

    std::vector<double> busy(n);
    for (double& b : busy)
      b = 100.0 * static_cast<double>(rng.uniform_int(0, 4));
    std::vector<std::size_t> idle;
    const double idle_share = rng.uniform(0.1, 1.0);
    for (std::size_t p = 0; p < n; ++p)
      if (rng.uniform() < idle_share) idle.push_back(p);

    PassInputs in;
    in.has_wind = rng.uniform() < 0.7;
    in.wind = Watts{in.has_wind && rng.uniform() < 0.9
                        ? rng.uniform(0.0, 3000.0)
                        : 0.0};
    const double backlog = rng.uniform();
    in.queue_pressure = backlog < 0.15   ? kMaxDeferBacklog
                        : backlog < 0.3 ? rng.uniform(kMaxDeferBacklog, 4.0)
                                        : rng.uniform(0.0, kMaxDeferBacklog);
    in.forecaster = rng.uniform() < 0.3 ? &forecaster : nullptr;
    std::vector<double> script(static_cast<std::size_t>(rng.uniform_int(1, 9)));
    for (double& w : script) w = rng.uniform(0.0, 3000.0);

    WaitingQueue queue(kPatience);
    std::vector<ReferenceWaiting> ref_waiting;
    std::size_t next_task = 0;
    double now = kGrid * static_cast<double>(rng.uniform_int(200, 400));
    std::vector<std::size_t> picks;
    for (int pass = 0; pass < 3; ++pass) {
      SCOPED_TRACE("pass " + std::to_string(pass));
      const auto arrivals = rng.uniform() < 0.1 ? rng.uniform_int(50, 200)
                                                : rng.uniform_int(0, 40);
      for (std::int64_t a = 0; a < arrivals; ++a) {
        WaitingEntry e;
        e.task = next_task++;
        e.cpus = static_cast<std::size_t>(
            rng.uniform() < 0.85
                ? rng.uniform_int(1, std::min<std::int64_t>(
                                         8, static_cast<std::int64_t>(n)))
                : rng.uniform_int(1, static_cast<std::int64_t>(n)));
        e.latest_start_s =
            now + kGrid * static_cast<double>(rng.uniform_int(0, 80)) +
            (rng.uniform() < 0.2 ? rng.uniform(0.0, kGrid) : 0.0);
        queue.push(e);
        ref_waiting.push_back(
            ReferenceWaiting{e.task, e.cpus, e.latest_start_s});
      }
      in.now_s = now;

      Facility facility(policy, n, idle, busy, script);
      const bool got_blocked =
          placement_pass(queue, policy, in, facility, picks);

      std::vector<std::size_t> ref_idle = idle;
      std::vector<ReferencePass::Start> ref_started;
      const ReferencePass reference{oracle,  now,
                                    kPatience, in.has_wind,
                                    in.wind, in.queue_pressure,
                                    in.forecaster};
      const bool want_blocked = reference.run(
          ref_waiting, ref_idle, busy, oracle_rng,
          [&](std::size_t k) { return Watts{script[k % script.size()]}; },
          ref_started);

      ASSERT_EQ(facility.started.size(), ref_started.size());
      for (std::size_t k = 0; k < ref_started.size(); ++k) {
        ASSERT_EQ(facility.started[k].task, ref_started[k].task)
            << "start " << k;
        ASSERT_EQ(facility.started[k].procs, ref_started[k].procs)
            << "start " << k << " task " << ref_started[k].task;
      }
      ASSERT_EQ(got_blocked, want_blocked);
      std::vector<std::size_t> ref_tasks;
      for (const ReferenceWaiting& w : ref_waiting) ref_tasks.push_back(w.task);
      ASSERT_EQ(queue.tasks(), ref_tasks);
      ASSERT_TRUE(queue.consistent());
      if (rule == PlacementRule::kRandom) {
        ASSERT_EQ(policy.rng_state(), oracle_rng.save_state());
      }
      ++passes;
      starts += ref_started.size();
      rule_starts[static_cast<std::size_t>(rule)] += ref_started.size();
      if (want_blocked) ++blocked;

      // Between passes time moves on (or not), some busy processors free
      // up after running a while, and demand takes a new script.
      std::sort(ref_idle.begin(), ref_idle.end());
      idle = ref_idle;
      for (std::size_t p = 0; p < n; ++p) {
        if (std::binary_search(ref_idle.begin(), ref_idle.end(), p) ||
            rng.uniform() < 0.5)
          continue;
        busy[p] += 100.0 * static_cast<double>(rng.uniform_int(0, 2));
        idle.push_back(p);
      }
      std::sort(idle.begin(), idle.end());
      now += kGrid * static_cast<double>(rng.uniform_int(0, 3));
      for (double& w : script) w = rng.uniform(0.0, 3000.0);
    }
  }
  EXPECT_EQ(passes, 960u);
  EXPECT_GT(starts, 3000u);
  EXPECT_GT(blocked, 100u);
  for (const std::size_t s : rule_starts) EXPECT_GT(s, 500u);
}

}  // namespace
}  // namespace iscope
