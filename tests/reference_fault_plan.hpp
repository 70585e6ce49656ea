// The crash/repair schedule as one globally sorted vector, the layout a
// FaultPlan had before it stored per-processor streams: every processor's
// events drawn exactly as FaultPlan::build draws them, then one sort of the
// whole plan by (time, proc, kind); scripted plans stable-sorted by
// (time, proc); a slice copied out of the sorted vector. test_fault.cpp
// drains FaultCursor against it event for event.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"

namespace iscope::reference {

/// FaultPlan::build's crash/repair events over `procs` processors, sorted
/// by (time, proc, kind).
inline std::vector<FaultEvent> build_events(const FaultSpec& spec,
                                            std::uint64_t seed,
                                            std::size_t procs) {
  std::vector<FaultEvent> events;
  if (spec.crash_mtbf_s <= 0.0 || procs == 0) return events;
  const Rng root(seed);
  for (std::size_t p = 0; p < procs; ++p) {
    Rng rng = root.fork("crash/" + std::to_string(p));
    double t = rng.exponential(1.0 / spec.crash_mtbf_s);
    while (t < spec.horizon_s) {
      const double repair = rng.exponential(1.0 / spec.repair_mean_s);
      events.push_back({t, FaultKind::kCrash, p});
      events.push_back({t + repair, FaultKind::kRepair, p});
      t += repair + rng.exponential(1.0 / spec.crash_mtbf_s);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              if (a.proc != b.proc) return a.proc < b.proc;
              return a.kind < b.kind;
            });
  return events;
}

/// FaultPlan::scripted's order: stable by (time, proc).
inline std::vector<FaultEvent> scripted_events(std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     return a.proc < b.proc;
                   });
  return events;
}

/// FaultPlan::slice over the sorted vector: the events of processors
/// [lo, lo + count), renumbered to local ids, in their global order.
inline std::vector<FaultEvent> slice_events(
    const std::vector<FaultEvent>& events, std::size_t lo, std::size_t count) {
  std::vector<FaultEvent> out;
  for (const FaultEvent& e : events) {
    if (e.proc < lo || e.proc >= lo + count) continue;
    FaultEvent local = e;
    local.proc = e.proc - lo;
    out.push_back(local);
  }
  return out;
}

}  // namespace iscope::reference
