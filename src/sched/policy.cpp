#include "sched/policy.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace iscope {

const char* placement_rule_name(PlacementRule rule) {
  switch (rule) {
    case PlacementRule::kRandom: return "Ran";
    case PlacementRule::kEfficiency: return "Effi";
    case PlacementRule::kFair: return "Fair";
    case PlacementRule::kTherm: return "Therm";
  }
  return "?";
}

PlacementPolicy::PlacementPolicy(const Knowledge* knowledge,
                                 PlacementRule rule, std::uint64_t seed,
                                 double efficient_pool_fraction)
    : knowledge_(knowledge),
      rule_(rule),
      rng_(seed),
      pool_fraction_(efficient_pool_fraction) {
  ISCOPE_CHECK_ARG(knowledge != nullptr, "PlacementPolicy: null knowledge");
  ISCOPE_CHECK_ARG(efficient_pool_fraction > 0.0 &&
                       efficient_pool_fraction <= 1.0,
                   "PlacementPolicy: pool fraction must be in (0,1]");
  rank_of_proc_.resize(knowledge->procs());
  if (rule == PlacementRule::kRandom) {
    order_.resize(knowledge->procs());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  } else {
    order_ = knowledge->efficiency_order();
  }
  for (std::size_t rank = 0; rank < order_.size(); ++rank)
    rank_of_proc_[order_[rank]] = rank;
  pool_limit_ = static_cast<std::size_t>(
      pool_fraction_ * static_cast<double>(knowledge->procs()));
}

void PlacementPolicy::override_order(std::vector<std::size_t> order) {
  ISCOPE_CHECK_ARG(order.size() == knowledge_->procs(),
                   "PlacementPolicy: order must cover every processor");
  std::vector<std::uint8_t> seen(order.size(), 0);
  for (std::size_t p : order) {
    ISCOPE_CHECK_ARG(p < order.size() && seen[p] == 0,
                     "PlacementPolicy: order must be a permutation");
    seen[p] = 1;
  }
  order_ = std::move(order);
  for (std::size_t rank = 0; rank < order_.size(); ++rank)
    rank_of_proc_[order_[rank]] = rank;
}

std::size_t PlacementPolicy::placement_rank(std::size_t proc) const {
  ISCOPE_CHECK_ARG(proc < rank_of_proc_.size(),
                   "PlacementPolicy: proc out of range");
  return rank_of_proc_[proc];
}

bool PlacementPolicy::choose_efficient_bits(
    std::size_t n, const std::uint64_t* idle_rank_bits, bool forced,
    std::vector<std::size_t>& out) const {
  // Pop idle ranks best-first out of the bitset: the first n are the n
  // best-ranked idle processors (ranks are a strict total order), in
  // ascending-rank order. Non-forced placements only look inside the
  // efficient pool: hitting a rank at or past pool_limit_ before
  // collecting n means the n-th best idle processor lies outside it.
  const std::vector<std::size_t>& order = order_;
  const std::size_t limit = forced ? order.size() : pool_limit_;
  const std::size_t words = (order.size() + 63) / 64;
  out.clear();
  for (std::size_t w = 0; w < words && w * 64 < limit; ++w) {
    std::uint64_t bits = idle_rank_bits[w];
    while (bits != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      if (r >= limit) return false;
      bits &= bits - 1;
      out.push_back(order[r]);
      if (out.size() == n) return true;
    }
  }
  return false;
}

bool PlacementPolicy::fair_defers(const PlacementContext& ctx) const {
  // Wind scarce: defer deferrable work until wind returns. Stop deferring
  // once the backlog itself threatens deadlines, or when the forecast says
  // the wind will not come back in time.
  const bool forecast_promises_wind =
      ctx.forecast_mean >=
      kDeferForecastFraction * std::max(ctx.current_demand, Watts{1.0});
  return !ctx.forced && ctx.slack_s > kMinDeferSlackS &&
         ctx.queue_pressure < kMaxDeferBacklog && forecast_promises_wind;
}

void PlacementPolicy::idle_in_order(std::size_t count,
                                    const std::uint64_t* idle_rank_bits,
                                    std::vector<std::size_t>& out) const {
  choose_efficient_bits(count, idle_rank_bits, /*forced=*/true, out);
}

bool PlacementPolicy::choose(std::size_t n, const std::uint64_t* idle_rank_bits,
                             const std::vector<std::size_t>& idle_by_busy,
                             std::vector<std::size_t>& random_pool,
                             const PlacementContext& ctx,
                             std::vector<std::size_t>& out) {
  ISCOPE_CHECK_ARG(n > 0, "PlacementPolicy: task needs at least one CPU");
  switch (rule_) {
    case PlacementRule::kRandom: {
      // Partial Fisher-Yates: the pool's first n slots become a uniform
      // sample, which leaves the pool.
      if (random_pool.size() < n) return false;
      for (std::size_t i = 0; i < n; ++i) {
        const auto j = static_cast<std::size_t>(rng_.uniform_int(
            static_cast<std::int64_t>(i),
            static_cast<std::int64_t>(random_pool.size()) - 1));
        std::swap(random_pool[i], random_pool[j]);
      }
      const auto picked = random_pool.begin() + static_cast<std::ptrdiff_t>(n);
      out.assign(random_pool.begin(), picked);
      random_pool.erase(random_pool.begin(), picked);
      return true;
    }
    case PlacementRule::kEfficiency:
      return choose_efficient_bits(n, idle_rank_bits, ctx.forced, out);
    case PlacementRule::kTherm: {
      // Same supply-side deferral as Fair (compute deferred to windy
      // hours is free compute), but placement stays on the thermal
      // order: wind pays for the CPUs, not for the CRAC, so the
      // recirculation stripe matters under abundant wind too.
      if (!ctx.has_wind)
        return choose_efficient_bits(n, idle_rank_bits, ctx.forced, out);
      if (!ctx.wind_abundant && fair_defers(ctx)) return false;
      return choose_efficient_bits(n, idle_rank_bits, /*forced=*/true, out);
    }
    case PlacementRule::kFair: {
      if (!ctx.has_wind)
        return choose_efficient_bits(n, idle_rank_bits, ctx.forced, out);
      if (!ctx.wind_abundant) {
        if (fair_defers(ctx)) return false;
        return choose_efficient_bits(n, idle_rank_bits, /*forced=*/true, out);
      }
      // Abundant wind: the least-used idle CPUs are the maintained list's
      // prefix (busy time is frozen while a processor sits idle).
      ISCOPE_CHECK_ARG(idle_by_busy.size() >= n,
                       "PlacementPolicy: Fair needs the busy-ordered idle "
                       "list");
      out.assign(idle_by_busy.begin(),
                 idle_by_busy.begin() + static_cast<std::ptrdiff_t>(n));
      return true;
    }
  }
  throw InvalidArgument("unknown placement rule");
}

}  // namespace iscope
