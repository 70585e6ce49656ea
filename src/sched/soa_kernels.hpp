// Kernels over MatcherColumns rows (DESIGN.md Sec. 14).
//
// Two primitives cover the matcher's per-level work:
//
//  * floor_scan_rows -- per row, the first level l with
//    remaining * slowdown[l] <= slack (the task's deadline floor);
//  * best_from_fill  -- the energy-optimal level for every possible
//    deadline floor, by one suffix scan over power[l] * slowdown[l].
//
// Both are plain scalar loops of independent multiplies and ordered
// compares, so each reproduces the per-task oracle's level-by-level walk
// bit for bit (tests/test_power_matcher.cpp checks both on randomized rows
// against tests/reference_scheduler.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace iscope::soa {

/// First level whose slowed-down remaining work still meets the slack;
/// top level (levels - 1) when even that misses (run flat out, QoS best
/// effort).
inline std::size_t floor_scan(const double* slowdown_row, std::size_t levels,
                              double remaining, double slack) {
  for (std::size_t l = 0; l < levels; ++l) {
    if (remaining * slowdown_row[l] <= slack) return l;
  }
  return levels - 1;
}

/// Batched deadline-floor scan over all rows: the hot per-rematch kernel.
/// `slowdown` is row-major [rows * levels]; slack is deadline[r] - now_s.
inline void floor_scan_rows(const double* slowdown, std::size_t levels,
                            const double* remaining, const double* deadline,
                            double now_s, std::size_t rows,
                            std::size_t* out_floor) {
  for (std::size_t r = 0; r < rows; ++r) {
    out_floor[r] = floor_scan(slowdown + r * levels, levels, remaining[r],
                              deadline[r] - now_s);
  }
}

/// Energy-optimal level for every possible deadline floor f, by one
/// descending pass: out[f] = argmin over l in [f, top] of
/// power[l] * slowdown[l], ties to the higher level (finish sooner at
/// equal energy). The running best accumulates exactly the strict `<`
/// comparisons a descending walk from the top down to floor f performs.
/// `levels` must fit the uint8 row (checked by MatcherColumns::reset).
inline void best_from_fill(const double* power_row, const double* slowdown_row,
                           std::size_t levels, std::uint8_t* out) {
  std::size_t best = levels - 1;
  double best_energy = power_row[best] * slowdown_row[best];
  out[best] = static_cast<std::uint8_t>(best);
  for (std::size_t l = levels - 1; l-- > 0;) {
    const double energy = power_row[l] * slowdown_row[l];
    if (energy < best_energy) {
      best_energy = energy;
      best = l;
    }
    out[l] = static_cast<std::uint8_t>(best);
  }
}

}  // namespace iscope::soa
