#include "sched/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hardware/cluster.hpp"
#include "reference_scheduler.hpp"

namespace iscope {
namespace {

/// The idle set in the two forms PlacementPolicy::choose reads, kept the
/// way the simulator keeps them: the rank-indexed bitset and the
/// (busy time, id)-ordered list follow the idle set. Building the views
/// starts a scheduling pass, so Ran's draws run against the idle set as
/// it is now.
struct IdleViews {
  std::vector<std::uint64_t> rank_bits;
  std::vector<std::size_t> by_busy;

  IdleViews(PlacementPolicy& policy, std::size_t procs,
            const std::vector<std::size_t>& idle,
            const std::vector<double>& busy)
      : rank_bits((procs + 63) / 64, 0), by_busy(idle) {
    for (const std::size_t p : idle) {
      const std::size_t r = policy.placement_rank(p);
      rank_bits[r / 64] |= std::uint64_t{1} << (r % 64);
    }
    std::sort(by_busy.begin(), by_busy.end(),
              [&](std::size_t a, std::size_t b) {
                if (busy[a] != busy[b]) return busy[a] < busy[b];
                return a < b;
              });
    policy.begin_pass();
  }

  /// The production pick. A started task's processors leave the idle set.
  std::optional<std::vector<std::size_t>> choose(PlacementPolicy& policy,
                                                 std::size_t n,
                                                 const PlacementContext& ctx) {
    std::vector<std::size_t> out;
    if (!policy.choose(n, rank_bits.data(), by_busy, ctx, out))
      return std::nullopt;
    for (const std::size_t p : out) {
      const std::size_t r = policy.placement_rank(p);
      EXPECT_NE(rank_bits[r / 64] & (std::uint64_t{1} << (r % 64)), 0u)
          << "picked processor " << p << " is not idle";
      rank_bits[r / 64] &= ~(std::uint64_t{1} << (r % 64));
      const auto it = std::find(by_busy.begin(), by_busy.end(), p);
      if (it != by_busy.end()) by_busy.erase(it);
    }
    return out;
  }
};

struct Fixture {
  Cluster cluster;
  Knowledge knowledge;
  std::vector<double> busy;

  explicit Fixture(std::size_t n = 20)
      : cluster(build_cluster([&] {
          ClusterConfig cfg;
          cfg.num_processors = n;
          cfg.seed = 3;
          return cfg;
        }())),
        knowledge(&cluster, KnowledgeSource::kBin),
        busy(n, 0.0) {}

  PlacementContext ctx(bool wind_abundant = false, bool forced = false,
                       bool has_wind = false,
                       double slack_s = 10.0 * 3600.0) {
    PlacementContext c;
    c.has_wind = has_wind;
    c.wind_abundant = wind_abundant;
    c.forced = forced;
    c.slack_s = slack_s;  // generous by default: deferral allowed
    return c;
  }

  std::vector<std::size_t> all_idle() {
    std::vector<std::size_t> idle(cluster.size());
    std::iota(idle.begin(), idle.end(), 0);
    return idle;
  }

  /// `p`'s pick of `n` out of `idle` as the first pick of a pass.
  std::optional<std::vector<std::size_t>> pick(
      PlacementPolicy& p, std::size_t n, const std::vector<std::size_t>& idle,
      const PlacementContext& c) {
    IdleViews views(p, cluster.size(), idle, busy);
    return views.choose(p, n, c);
  }
};

TEST(PolicyNames, Strings) {
  EXPECT_STREQ(placement_rule_name(PlacementRule::kRandom), "Ran");
  EXPECT_STREQ(placement_rule_name(PlacementRule::kEfficiency), "Effi");
  EXPECT_STREQ(placement_rule_name(PlacementRule::kFair), "Fair");
}

TEST(RandomPolicy, PicksDistinctIdleProcs) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 1);
  const auto idle = f.all_idle();
  const auto ctx = f.ctx();
  for (int round = 0; round < 20; ++round) {
    auto pick = f.pick(p, 5, idle, ctx);
    ASSERT_TRUE(pick.has_value());
    std::set<std::size_t> uniq(pick->begin(), pick->end());
    EXPECT_EQ(uniq.size(), 5u);
    for (const std::size_t id : *pick) EXPECT_LT(id, f.cluster.size());
  }
}

TEST(RandomPolicy, NeverWaitsVoluntarily) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 2);
  EXPECT_TRUE(f.pick(p, 1, f.all_idle(), f.ctx(false, false)).has_value());
}

TEST(RandomPolicy, DifferentSeedsDifferentPicks) {
  Fixture f;
  PlacementPolicy a(&f.knowledge, PlacementRule::kRandom, 1);
  PlacementPolicy b(&f.knowledge, PlacementRule::kRandom, 99);
  const auto ctx = f.ctx();
  EXPECT_NE(*f.pick(a, 8, f.all_idle(), ctx),
            *f.pick(b, 8, f.all_idle(), ctx));
}

TEST(AnyPolicy, InsufficientIdleMeansWait) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 3);
  EXPECT_FALSE(f.pick(p, 3, {0, 1}, f.ctx()).has_value());
}

TEST(EffiPolicy, PicksMostEfficientIdle) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 4);
  auto pick = f.pick(p, 3, f.all_idle(), f.ctx());
  ASSERT_TRUE(pick.has_value());
  // The picked three are exactly the three best-ranked processors.
  std::set<std::size_t> expect(f.knowledge.efficiency_order().begin(),
                               f.knowledge.efficiency_order().begin() + 3);
  std::set<std::size_t> got(pick->begin(), pick->end());
  EXPECT_EQ(got, expect);
}

TEST(EffiPolicy, WaitsWhenPoolBusy) {
  Fixture f(20);
  // Pool = 35% of 20 = 7 best processors. Make them unavailable.
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 5, 0.35);
  std::vector<std::size_t> idle(
      f.knowledge.efficiency_order().begin() + 7,
      f.knowledge.efficiency_order().end());
  EXPECT_FALSE(f.pick(p, 2, idle, f.ctx(false, false)).has_value());
}

TEST(EffiPolicy, ForcedStartsAnywhere) {
  Fixture f(20);
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 6, 0.35);
  std::vector<std::size_t> idle(
      f.knowledge.efficiency_order().begin() + 7,
      f.knowledge.efficiency_order().end());
  EXPECT_TRUE(f.pick(p, 2, idle, f.ctx(false, true)).has_value());
}

TEST(EffiPolicy, PartialPoolOverlapStillWaits) {
  // If the n-th chosen falls outside the pool, the task waits even though
  // the first choices are inside.
  Fixture f(20);
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 7, 0.35);
  const auto& order = f.knowledge.efficiency_order();
  const std::vector<std::size_t> idle = {order[0], order[10], order[15]};
  EXPECT_FALSE(f.pick(p, 2, idle, f.ctx()).has_value());
  EXPECT_TRUE(f.pick(p, 1, idle, f.ctx()).has_value());
}

TEST(FairPolicy, NoWindDegeneratesToEffi) {
  Fixture f;
  PlacementPolicy fair(&f.knowledge, PlacementRule::kFair, 8);
  PlacementPolicy effi(&f.knowledge, PlacementRule::kEfficiency, 8);
  const auto ctx = f.ctx(false, false, /*has_wind=*/false);
  EXPECT_EQ(*f.pick(fair, 3, f.all_idle(), ctx),
            *f.pick(effi, 3, f.all_idle(), ctx));
}

TEST(FairPolicy, DefersWhenWindScarce) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 9);
  // Wind exists but is scarce; task not forced and has slack -> defer.
  EXPECT_FALSE(
      f.pick(p, 2, f.all_idle(), f.ctx(false, false, true)).has_value());
}

TEST(FairPolicy, TightSlackStartsInsteadOfDeferring) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 9);
  // Below the deferral slack threshold the task starts immediately.
  EXPECT_TRUE(f.pick(p, 2, f.all_idle(), f.ctx(false, false, true, 600.0))
                  .has_value());
}

TEST(FairPolicy, HeavyBacklogStopsDeferral) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 9);
  auto c = f.ctx(false, false, true);
  c.queue_pressure = kMaxDeferBacklog + 0.1;
  EXPECT_TRUE(f.pick(p, 2, f.all_idle(), c).has_value());
}

TEST(FairPolicy, ScarceButForcedUsesEfficient) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 10);
  auto pick = f.pick(p, 2, f.all_idle(), f.ctx(false, true, true));
  ASSERT_TRUE(pick.has_value());
  std::set<std::size_t> expect(f.knowledge.efficiency_order().begin(),
                               f.knowledge.efficiency_order().begin() + 2);
  EXPECT_EQ(std::set<std::size_t>(pick->begin(), pick->end()), expect);
}

TEST(FairPolicy, AbundantPicksLeastUsed) {
  Fixture f;
  for (std::size_t i = 0; i < f.busy.size(); ++i)
    f.busy[i] = static_cast<double>(i);  // proc 0 least used
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 11);
  auto pick = f.pick(p, 3, f.all_idle(), f.ctx(true, false, true));
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(std::set<std::size_t>(pick->begin(), pick->end()),
            (std::set<std::size_t>{0, 1, 2}));
}

TEST(FairPolicy, AbundantStartsEvenUnforced) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kFair, 12);
  EXPECT_TRUE(f.pick(p, 1, f.all_idle(), f.ctx(true, false, true)).has_value());
}

TEST(Policy, ChosenAreFirstNOfIdle) {
  // The simulator hands a pick straight to the task and drops it from the
  // idle set: it must be n distinct idle processors. A second pick in the
  // same pass as wide as the rest takes exactly the rest, so under Ran the
  // picks are what leaves the draw pool and the pass's later draws see
  // the remainder. Ran's pool starts as the idle set in ascending id
  // order: both picks are the vector partial Fisher-Yates over it.
  Fixture f;
  for (const PlacementRule rule :
       {PlacementRule::kRandom, PlacementRule::kEfficiency,
        PlacementRule::kFair, PlacementRule::kTherm}) {
    SCOPED_TRACE(placement_rule_name(rule));
    PlacementPolicy p(&f.knowledge, rule, 13);
    const std::vector<std::size_t> idle = {1, 2, 3, 5, 8, 13, 17, 19};
    IdleViews views(p, f.cluster.size(), idle, f.busy);
    const PlacementContext ctx = f.ctx(true, true, true);
    auto pick = views.choose(p, 4, ctx);
    ASSERT_TRUE(pick.has_value());
    const std::set<std::size_t> uniq(pick->begin(), pick->end());
    EXPECT_EQ(uniq.size(), 4u);
    for (const std::size_t id : *pick)
      EXPECT_TRUE(std::binary_search(idle.begin(), idle.end(), id)) << id;
    auto rest = views.choose(p, idle.size() - 4, ctx);
    ASSERT_TRUE(rest.has_value());
    std::multiset<std::size_t> both(rest->begin(), rest->end());
    both.insert(pick->begin(), pick->end());
    EXPECT_EQ(both, std::multiset<std::size_t>(idle.begin(), idle.end()));
    if (rule == PlacementRule::kRandom) {
      ReferencePlacement oracle{rule, std::vector<std::size_t>(f.cluster.size()),
                                0};
      std::iota(oracle.rank_of_proc.begin(), oracle.rank_of_proc.end(),
                std::size_t{0});
      Rng oracle_rng(13);
      std::vector<std::size_t> pool = idle;
      EXPECT_EQ(*pick, *oracle.choose(4, pool, ctx, f.busy, oracle_rng));
      pool.erase(pool.begin(), pool.begin() + 4);
      EXPECT_EQ(*rest,
                *oracle.choose(pool.size(), pool, ctx, f.busy, oracle_rng));
      EXPECT_EQ(p.rng_state(), oracle_rng.save_state());
    }
  }
}

TEST(Policy, EfficiencyRankInverse) {
  Fixture f;
  PlacementPolicy p(&f.knowledge, PlacementRule::kEfficiency, 14);
  const auto& order = f.knowledge.efficiency_order();
  for (std::size_t rank = 0; rank < order.size(); ++rank)
    EXPECT_EQ(p.placement_rank(order[rank]), rank);
  // Ran places in processor-id order.
  PlacementPolicy ran(&f.knowledge, PlacementRule::kRandom, 14);
  for (std::size_t id = 0; id < f.cluster.size(); ++id)
    EXPECT_EQ(ran.placement_rank(id), id);
}

TEST(Policy, MatchesReferenceOnRandomPasses) {
  // The production picks against the vector oracle
  // (reference_scheduler.hpp) on random idle sets, widths, busy times and
  // contexts, several picks per pass and several passes per draw. Cluster
  // sizes straddle the bitset's 64-bit words and end in partial ones.
  // Every pick and every keep-waiting answer must match in order; under
  // Ran so must the placement RNG's position after each pass.
  constexpr std::array<std::size_t, 4> kSizes = {20, 64, 65, 130};
  std::vector<Cluster> clusters;
  for (const std::size_t n : kSizes) {
    ClusterConfig cfg;
    cfg.num_processors = n;
    cfg.seed = 3 + n;
    clusters.push_back(build_cluster(cfg));
  }
  Rng rng(2015);
  std::size_t picks = 0;
  std::size_t waits = 0;
  for (std::size_t draw = 0; draw < 240; ++draw) {
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

    // Integer busy times, so the (busy time, id) order has ties.
    std::vector<double> busy(n);
    for (double& b : busy)
      b = 100.0 * static_cast<double>(rng.uniform_int(0, 4));
    const double idle_share = rng.uniform(0.2, 1.0);
    std::vector<std::size_t> idle;
    for (std::size_t p = 0; p < n; ++p)
      if (rng.uniform(0.0, 1.0) < idle_share) idle.push_back(p);

    for (int pass = 0; pass < 3; ++pass) {
      IdleViews views(policy, n, idle, busy);
      std::vector<std::size_t> scratch = idle;  // ascending ids
      const auto tries = rng.uniform_int(1, 6);
      for (std::int64_t k = 0; k < tries && !scratch.empty(); ++k) {
        const auto avail = static_cast<std::int64_t>(scratch.size());
        const std::int64_t max_width = rng.uniform(0.0, 1.0) < 0.2
                                           ? avail
                                           : std::min<std::int64_t>(avail, 8);
        const auto width =
            static_cast<std::size_t>(rng.uniform_int(1, max_width));
        PlacementContext ctx;
        ctx.has_wind = rng.uniform(0.0, 1.0) < 0.7;
        ctx.wind_abundant = rng.uniform(0.0, 1.0) < 0.4;
        ctx.forced = rng.uniform(0.0, 1.0) < 0.3;
        ctx.queue_pressure = rng.uniform(0.0, 2.0 * kMaxDeferBacklog);
        ctx.slack_s = rng.uniform(0.0, 4.0 * kMinDeferSlackS);
        ctx.current_demand = Watts{rng.uniform(0.0, 2000.0)};
        if (rng.uniform(0.0, 1.0) < 0.7)
          ctx.forecast_mean = Watts{rng.uniform(0.0, 1000.0)};

        const auto got = views.choose(policy, width, ctx);
        const auto want = oracle.choose(width, scratch, ctx, busy, oracle_rng);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "pass " << pass << " pick " << k << " width " << width;
        if (!want.has_value()) {
          ++waits;
          continue;
        }
        ++picks;
        ASSERT_EQ(*got, *want) << "pass " << pass << " pick " << k;
        scratch.erase(scratch.begin(),
                      scratch.begin() + static_cast<std::ptrdiff_t>(width));
      }
      if (rule == PlacementRule::kRandom && !scratch.empty()) {
        // The permuted remainder the pass leaves: on copies, a task as wide
        // as the rest takes it in the oracle's order.
        PlacementPolicy rest_policy = policy;
        IdleViews rest_views = views;
        Rng rest_rng = oracle_rng;
        std::vector<std::size_t> rest = scratch;
        const PlacementContext any;
        const auto got = rest_views.choose(rest_policy, rest.size(), any);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(*got, *oracle.choose(rest.size(), rest, any, busy, rest_rng))
            << "pass " << pass << " remainder";
        ASSERT_EQ(rest_policy.rng_state(), rest_rng.save_state());
      }
      if (rule == PlacementRule::kRandom) {
        ASSERT_EQ(policy.rng_state(), oracle_rng.save_state())
            << "pass " << pass;
      }

      // Between passes some busy processors finish, having run a while.
      std::sort(scratch.begin(), scratch.end());
      idle = scratch;
      for (std::size_t p = 0; p < n; ++p) {
        if (std::binary_search(scratch.begin(), scratch.end(), p) ||
            rng.uniform(0.0, 1.0) < 0.5)
          continue;
        busy[p] += 100.0 * static_cast<double>(rng.uniform_int(0, 2));
        idle.push_back(p);
      }
      std::sort(idle.begin(), idle.end());
    }
  }
  EXPECT_GT(picks, 500u);
  EXPECT_GT(waits, 100u);
}

TEST(RandomPolicy, TaskAsWideAsTheIdleSetDrawsTheOraclePermutation) {
  // The widest draw there is: a pass's first task takes every idle
  // processor, so the whole virtual pool is permuted and read back,
  // overridden slot by overridden slot. It must be the vector partial
  // Fisher-Yates, on clusters that end in full and in partial words.
  Rng rng(7);
  for (const std::size_t n : {20u, 64u, 65u, 130u}) {
    SCOPED_TRACE("procs " + std::to_string(n));
    ClusterConfig cfg;
    cfg.num_processors = n;
    cfg.seed = 3 + n;
    const Cluster cluster = build_cluster(cfg);
    const Knowledge knowledge(&cluster, KnowledgeSource::kBin);
    for (int draw = 0; draw < 4; ++draw) {
      const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      PlacementPolicy policy(&knowledge, PlacementRule::kRandom, seed);
      ReferencePlacement oracle{PlacementRule::kRandom,
                                std::vector<std::size_t>(n), 0};
      std::iota(oracle.rank_of_proc.begin(), oracle.rank_of_proc.end(),
                std::size_t{0});
      Rng oracle_rng(seed);
      std::vector<std::size_t> idle;
      for (std::size_t p = 0; p < n; ++p)
        if (draw == 0 || rng.uniform(0.0, 1.0) < 0.6) idle.push_back(p);
      const std::vector<double> busy(n, 0.0);
      IdleViews views(policy, n, idle, busy);
      const PlacementContext ctx;
      const auto got = views.choose(policy, idle.size(), ctx);
      std::vector<std::size_t> pool = idle;
      const auto want = oracle.choose(idle.size(), pool, ctx, busy, oracle_rng);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(*got, *want);
      EXPECT_EQ(policy.rng_state(), oracle_rng.save_state());
      // Nothing is left to draw in this pass.
      EXPECT_FALSE(views.choose(policy, 1, ctx).has_value());
    }
  }
}

TEST(Policy, StartBoundIsTheWidestNonForcedStart) {
  // start_bound against the vector oracle on random idle sets and
  // contexts: every non-forced start the oracle accepts lies inside the
  // bound (a pass that skips the tasks outside it skips no start), and
  // without a forecaster every task inside the bound that fits is
  // accepted (the bound is tight, so the pass visits no task that only
  // waits). Slack and width probes sit on the bound's edges: kMinDeferSlackS
  // itself and the next double up, and the efficient pool's last rank.
  constexpr std::array<std::size_t, 4> kSizes = {20, 64, 65, 130};
  std::vector<Cluster> clusters;
  for (const std::size_t n : kSizes) {
    ClusterConfig cfg;
    cfg.num_processors = n;
    cfg.seed = 3 + n;
    clusters.push_back(build_cluster(cfg));
  }
  const double s = kMinDeferSlackS;
  const std::array<double, 7> slacks = {
      -60.0, 0.0, s / 2, std::nextafter(s, 0.0), s,
      std::nextafter(s, 2 * s), 3 * s};
  Rng rng(1404);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (std::size_t draw = 0; draw < 400; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const Cluster& cluster = clusters[draw % kSizes.size()];
    const std::size_t n = cluster.size();
    const Knowledge knowledge(&cluster, KnowledgeSource::kBin);
    const auto rule = static_cast<PlacementRule>(rng.uniform_int(0, 3));
    const double fraction = rng.uniform(0.05, 1.0);
    PlacementPolicy policy(&knowledge, rule, 5, fraction);
    std::vector<std::size_t> order = knowledge.efficiency_order();
    if (rule == PlacementRule::kTherm) {
      rng.shuffle(order);
      policy.override_order(order);
    }
    const auto pool_limit =
        static_cast<std::size_t>(fraction * static_cast<double>(n));
    ReferencePlacement oracle{rule, std::vector<std::size_t>(n), pool_limit};
    for (std::size_t r = 0; r < n; ++r) oracle.rank_of_proc[order[r]] = r;

    // Idle sets often end right at the pool's edge: the rank just inside
    // or just outside it idle, the other busy.
    std::vector<std::size_t> idle;
    const double idle_share = rng.uniform(0.0, 1.0);
    for (std::size_t r = 0; r < n; ++r) {
      const bool edge = r + 1 == pool_limit || r == pool_limit;
      if (edge ? rng.uniform(0.0, 1.0) < 0.5
               : rng.uniform(0.0, 1.0) < idle_share)
        idle.push_back(order[r]);
    }
    std::sort(idle.begin(), idle.end());
    const std::vector<double> busy(n, 0.0);
    IdleViews views(policy, n, idle, busy);

    PlacementContext ctx;
    ctx.has_wind = rng.uniform(0.0, 1.0) < 0.7;
    ctx.wind_abundant = rng.uniform(0.0, 1.0) < 0.3;
    ctx.queue_pressure = rng.uniform(0.0, 1.0) < 0.2
                             ? kMaxDeferBacklog
                             : rng.uniform(0.0, 2.0 * kMaxDeferBacklog);
    ctx.current_demand = Watts{rng.uniform(0.0, 2000.0)};
    const bool forecasting = rng.uniform(0.0, 1.0) < 0.3;
    const StartBound bound = policy.start_bound(
        idle.size(), views.rank_bits.data(), ctx, forecasting);
    ASSERT_LE(bound.cpus, idle.size());

    for (std::size_t width = 1; width <= idle.size(); ++width) {
      for (const double slack : slacks) {
        ctx.slack_s = slack;
        ctx.forecast_mean = forecasting
                                ? Watts{rng.uniform(0.0, 1000.0)}
                                : Watts{std::numeric_limits<double>::infinity()};
        std::vector<std::size_t> scratch = idle;
        Rng draws(1);
        const bool starts =
            oracle.choose(width, scratch, ctx, busy, draws).has_value();
        const bool inside = width <= bound.cpus && slack <= bound.slack_s;
        if (starts) {
          ++accepted;
          ASSERT_TRUE(inside) << "width " << width << " slack " << slack
                              << " outside bound " << bound.cpus << "/"
                              << bound.slack_s;
        } else {
          ++refused;
          if (!forecasting) {
            ASSERT_FALSE(inside) << "width " << width << " slack " << slack
                                 << " inside bound " << bound.cpus << "/"
                                 << bound.slack_s << " but refused";
          }
        }
      }
    }
  }
  EXPECT_GT(accepted, 10000u);
  EXPECT_GT(refused, 10000u);
}

TEST(Policy, Validation) {
  Fixture f;
  EXPECT_THROW(PlacementPolicy(nullptr, PlacementRule::kRandom, 1),
               InvalidArgument);
  EXPECT_THROW(PlacementPolicy(&f.knowledge, PlacementRule::kRandom, 1, 0.0),
               InvalidArgument);
  PlacementPolicy p(&f.knowledge, PlacementRule::kRandom, 1);
  EXPECT_THROW(f.pick(p, 0, f.all_idle(), f.ctx()), InvalidArgument);
}

}  // namespace
}  // namespace iscope
