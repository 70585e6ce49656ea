#include "sched/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hardware/cluster.hpp"
#include "reference_scheduler.hpp"

namespace iscope {
namespace {

/// The idle set in the three forms PlacementPolicy::choose reads, kept the
/// way the simulator keeps them: the rank-indexed bitset and the
/// (busy time, id)-ordered list follow the idle set, and Ran's pool is
/// read off the bitset when the pass starts.
struct IdleViews {
  std::vector<std::uint64_t> rank_bits;
  std::vector<std::size_t> by_busy;
  std::vector<std::size_t> random_pool;

  IdleViews(const PlacementPolicy& policy, std::size_t procs,
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
    policy.idle_in_order(idle.size(), rank_bits.data(), random_pool);
  }

  /// The production pick. A started task's processors leave the idle set.
  std::optional<std::vector<std::size_t>> choose(PlacementPolicy& policy,
                                                 std::size_t n,
                                                 const PlacementContext& ctx) {
    std::vector<std::size_t> out;
    if (!policy.choose(n, rank_bits.data(), by_busy, random_pool, ctx, out))
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
  // idle set: it must be n distinct idle processors, and Ran's picks are
  // exactly what leaves its draw pool (the pass's later draws see the
  // rest).
  Fixture f;
  for (const PlacementRule rule :
       {PlacementRule::kRandom, PlacementRule::kEfficiency,
        PlacementRule::kFair, PlacementRule::kTherm}) {
    SCOPED_TRACE(placement_rule_name(rule));
    PlacementPolicy p(&f.knowledge, rule, 13);
    const std::vector<std::size_t> idle = {1, 2, 3, 5, 8, 13, 17, 19};
    IdleViews views(p, f.cluster.size(), idle, f.busy);
    const std::vector<std::size_t> pool = views.random_pool;
    auto pick = views.choose(p, 4, f.ctx(true, true, true));
    ASSERT_TRUE(pick.has_value());
    const std::set<std::size_t> uniq(pick->begin(), pick->end());
    EXPECT_EQ(uniq.size(), 4u);
    for (const std::size_t id : *pick)
      EXPECT_TRUE(std::binary_search(idle.begin(), idle.end(), id)) << id;
    if (rule == PlacementRule::kRandom) {
      EXPECT_EQ(pool, idle);  // the pass starts from the sorted idle set
      std::multiset<std::size_t> rest(views.random_pool.begin(),
                                      views.random_pool.end());
      rest.insert(pick->begin(), pick->end());
      EXPECT_EQ(rest, std::multiset<std::size_t>(pool.begin(), pool.end()));
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
      if (rule == PlacementRule::kRandom) {
        ASSERT_EQ(views.random_pool, scratch);
      }
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
