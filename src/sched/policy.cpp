#include "sched/policy.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
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
  if (rule == PlacementRule::kRandom) {
    ISCOPE_CHECK_ARG(order_.size() <= std::numeric_limits<std::uint32_t>::max(),
                     "PlacementPolicy: too many processors for Ran's draw");
    const std::size_t words = (order_.size() + 63) / 64;
    draw_bits_.resize(words);
    draw_prefix_.resize(words + 1);
    draw_moved_.resize(words);
    draw_swaps_.resize(order_.size());
  }
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

StartBound PlacementPolicy::start_bound(std::size_t idle_count,
                                        const std::uint64_t* idle_rank_bits,
                                        const PlacementContext& ctx,
                                        bool forecasting) const {
  const StartBound any{idle_count, std::numeric_limits<double>::infinity()};
  const bool pool_rule =
      rule_ == PlacementRule::kEfficiency ||
      ((rule_ == PlacementRule::kFair || rule_ == PlacementRule::kTherm) &&
       !ctx.has_wind);
  if (pool_rule) {
    // choose_efficient_bits accepts a non-forced n exactly when n idle
    // ranks lie below pool_limit_.
    std::size_t in_pool = 0;
    const std::size_t full = pool_limit_ / 64;
    for (std::size_t w = 0; w < full; ++w)
      in_pool += static_cast<std::size_t>(std::popcount(idle_rank_bits[w]));
    if (const std::size_t tail = pool_limit_ % 64; tail != 0)
      in_pool += static_cast<std::size_t>(std::popcount(
          idle_rank_bits[full] & ((std::uint64_t{1} << tail) - 1)));
    return {in_pool, any.slack_s};
  }
  if (rule_ == PlacementRule::kRandom || ctx.wind_abundant ||
      ctx.queue_pressure >= kMaxDeferBacklog || forecasting)
    return any;
  // Without a forecaster forecast_mean is infinite and always promises
  // wind, so fair_defers turns on the slack alone.
  return {idle_count, kMinDeferSlackS};
}

namespace {

/// kSelectInByte[b][k]: the position of the k-th set bit of byte b.
constexpr auto kSelectInByte = [] {
  std::array<std::array<std::uint8_t, 8>, 256> table{};
  for (unsigned b = 0; b < 256; ++b)
    for (unsigned i = 0, k = 0; i < 8; ++i)
      if (((b >> i) & 1U) != 0) table[b][k++] = static_cast<std::uint8_t>(i);
  return table;
}();

/// Position of the k-th set bit (k < popcount(x)) of a word, without a
/// data-dependent branch: byte-wise popcounts summed into running counts
/// by one multiply, the byte holding the bit found by comparing every
/// running count with k at once, and the bit inside it by table.
unsigned select_in_word(std::uint64_t x, unsigned k) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
  std::uint64_t c = x - ((x >> 1) & 0x5555555555555555ULL);
  c = (c & 0x3333333333333333ULL) + ((c >> 2) & 0x3333333333333333ULL);
  c = ((c + (c >> 4)) & 0x0F0F0F0F0F0F0F0FULL) * kOnes;  // byte i: bits 0..8i+7
  // A byte's high bit survives when its running count is <= k: the bytes
  // wholly before the one holding the bit.
  const auto byte = static_cast<unsigned>(
      std::popcount((((k * kOnes) | kHighs) - c) & kHighs));
  const auto before =
      static_cast<unsigned>((c << 8) >> (8 * byte)) & 0xFFU;
  return 8 * byte + kSelectInByte[(x >> (8 * byte)) & 0xFFU][k - before];
}

}  // namespace

std::size_t PlacementPolicy::draw_slot(std::size_t k) const {
  if (draw_moved(k)) return draw_swaps_[k];
  // The last word whose prefix count is <= k holds the k-th set bit.
  std::size_t word = 0;
  for (std::size_t span = draw_prefix_.size(); span > 1;) {
    const std::size_t half = span / 2;
    word = draw_prefix_[word + half] <= k ? word + half : word;
    span -= half;
  }
  return order_[word * 64 + select_in_word(draw_bits_[word],
                                           static_cast<unsigned>(
                                               k - draw_prefix_[word]))];
}

bool PlacementPolicy::draw_random(std::size_t n,
                                  const std::uint64_t* idle_rank_bits,
                                  std::vector<std::size_t>& out) {
  if (!draw_live_) {
    // The pass's first draw: snapshot the idle set and drop last pass's
    // overrides.
    draw_live_ = true;
    draw_taken_ = 0;
    std::fill(draw_moved_.begin(), draw_moved_.end(), std::uint64_t{0});
    std::copy_n(idle_rank_bits, draw_bits_.size(), draw_bits_.begin());
    for (std::size_t w = 0; w < draw_bits_.size(); ++w)
      draw_prefix_[w + 1] =
          draw_prefix_[w] + static_cast<std::size_t>(std::popcount(draw_bits_[w]));
    draw_count_ = draw_prefix_.back();
    draw_front_word_ = 0;
    draw_front_bits_ = draw_bits_.empty() ? 0 : draw_bits_[0];
  }
  // Partial Fisher-Yates over the pool's remaining slots: the i-th draw
  // swaps slot i with a uniform slot j >= i and takes what lands in i.
  // Slot i is the pool's front, which only moves forward, so its snapshot
  // occupant comes off a cursor over the set bits; slot i is never read
  // again, so only slot j's new occupant is kept.
  const std::size_t left = draw_count_ - draw_taken_;
  if (left < n) return false;
  out.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(static_cast<std::int64_t>(i),
                         static_cast<std::int64_t>(left) - 1));
    const std::size_t at_i = draw_taken_ + i;
    while (draw_front_bits_ == 0) draw_front_bits_ = draw_bits_[++draw_front_word_];
    const std::size_t front =
        draw_moved(at_i)
            ? draw_swaps_[at_i]
            : order_[draw_front_word_ * 64 +
                     static_cast<std::size_t>(std::countr_zero(draw_front_bits_))];
    draw_front_bits_ &= draw_front_bits_ - 1;
    if (j == i) {
      out.push_back(front);
      continue;
    }
    const std::size_t at_j = draw_taken_ + j;
    out.push_back(draw_slot(at_j));
    draw_moved_[at_j / 64] |= std::uint64_t{1} << (at_j % 64);
    draw_swaps_[at_j] = static_cast<std::uint32_t>(front);
  }
  draw_taken_ += n;
  return true;
}

bool PlacementPolicy::choose(std::size_t n, const std::uint64_t* idle_rank_bits,
                             const std::vector<std::size_t>& idle_by_busy,
                             const PlacementContext& ctx,
                             std::vector<std::size_t>& out) {
  ISCOPE_CHECK_ARG(n > 0, "PlacementPolicy: task needs at least one CPU");
  switch (rule_) {
    case PlacementRule::kRandom:
      return draw_random(n, idle_rank_bits, out);
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
