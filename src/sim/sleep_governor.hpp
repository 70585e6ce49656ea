// SleepGovernor: the C-state ladder of the simulator's idle processors
// (hardware/sleep.hpp). It owns each processor's depth and descent token,
// the idle-residency watts and joules, and the enter/wake counters, and it
// decides what a processor does when it joins or leaves the idle pool and
// when a timeout descent fires. The simulator core schedules the events
// these answers call for and composes the residency watts into demand. How
// many processors sleep is read off the idle processors' depths, not kept.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hardware/sleep.hpp"

namespace iscope {

class SleepGovernor {
 public:
  SleepGovernor(const SleepConfig& config, std::size_t nprocs)
      : config_(config), nprocs_(nprocs) {}

  bool active() const { return config_.enabled(); }
  void reset() {
    depth_.assign(nprocs_, 0);
    token_.assign(nprocs_, 0);
    idle_power_w_ = 0.0;
    idle_joules_ = 0.0;
    enters_ = 0;
    wakes_ = 0;
  }

  /// Residency power at `depth` as a fraction of stock power (depth 0 is
  /// active idle, d > 0 is config.states[d - 1]).
  double frac(std::size_t depth) const {
    return depth == 0 ? config_.active_idle_frac
                      : config_.states[depth - 1].idle_frac;
  }
  double idle_w(std::size_t p, double stock_w) const {
    return frac(depth_[p]) * stock_w;
  }
  /// The idle pool's residency watts, clamped at zero.
  double idle_power_w() const { return std::max(0.0, idle_power_w_); }

  /// `p` joined the idle pool: it settles at active idle or, under
  /// kImmediate, drops straight to the deepest rung (maximum savings,
  /// maximum wake latency). Returns the depth it entered.
  std::size_t on_idle(std::size_t p, double stock_w) {
    std::size_t depth = 0;
    if (config_.policy == SleepPolicy::kImmediate) {
      depth = config_.states.size();
      ++enters_;
    }
    depth_[p] = static_cast<std::uint8_t>(depth);
    idle_power_w_ += frac(depth) * stock_w;
    return depth;
  }
  /// `p` left the idle pool. Its depth survives for wake_s(); its token
  /// moves on, which stales any descent pending from this idle stint.
  void on_claim(std::size_t p, double stock_w) {
    idle_power_w_ -= idle_w(p, stock_w);
    ++token_[p];
  }
  /// True when the timeout governor schedules a descent from `depth`.
  bool descends_from(std::size_t depth) const {
    return config_.policy == SleepPolicy::kTimeout &&
           depth < config_.states.size();
  }
  /// True when a descent carrying `token` is current and a rung is left.
  bool can_descend(std::size_t p, std::uint64_t token) const {
    return token_[p] == token && depth_[p] < config_.states.size();
  }
  /// Take `p` one rung down; returns its new depth.
  std::size_t descend(std::size_t p, double stock_w) {
    const std::size_t depth = depth_[p];
    idle_power_w_ += (frac(depth + 1) - frac(depth)) * stock_w;
    depth_[p] = static_cast<std::uint8_t>(depth + 1);
    ++enters_;
    return depth + 1;
  }
  std::uint64_t token(std::size_t p) const { return token_[p]; }
  double timeout_s() const { return config_.timeout_s; }
  /// Latency for claimed processor `p` to wake from its depth (0 awake).
  double wake_s(std::size_t p) const {
    return depth_[p] == 0 ? 0.0 : config_.states[depth_[p] - 1].wake_s;
  }
  void count_wake() { ++wakes_; }
  void accrue(double dt) { idle_joules_ += idle_power_w() * dt; }

  /// Processors the `idle` flags name that sit deeper than active idle.
  std::size_t sleeping(const std::vector<std::uint8_t>& idle) const {
    std::size_t n = 0;
    for (std::size_t p = 0; p < idle.size(); ++p)
      if (idle[p] != 0 && depth_[p] > 0) ++n;
    return n;
  }
  std::size_t enters() const { return enters_; }
  std::size_t wakes() const { return wakes_; }
  double idle_joules() const { return idle_joules_; }

  /// This type's slice of the checkpoint (service/checkpoint.hpp).
  template <class Io>
  void io(Io& io) {
    io(idle_joules_);
    io(idle_power_w_);
    const auto ladder = static_cast<std::uint8_t>(config_.states.size());
    io.fixed(depth_, nprocs_, [&](auto& depth) {
      io.in(depth, std::uint8_t{0}, ladder, "sleep depth");
    });
    io.fixed(token_, nprocs_, io);
    io(enters_);
    io(wakes_);
  }

 private:
  SleepConfig config_;
  std::size_t nprocs_;
  /// Depth of each idle processor; stale while it runs (start_task reads
  /// it right after the claim to derive the gang's wake latency).
  std::vector<std::uint8_t> depth_;
  std::vector<std::uint64_t> token_;
  /// Raw accumulator: additions and removals replay exactly, so its FP
  /// history is deterministic; clamped where it feeds demand.
  double idle_power_w_ = 0.0;
  double idle_joules_ = 0.0;
  std::size_t enters_ = 0;    ///< C-state descents taken
  std::size_t wakes_ = 0;     ///< task starts delayed by a wake
};

}  // namespace iscope
