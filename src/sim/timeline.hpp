// Structured simulation timeline.
//
// When enabled (SimConfig::record_timeline) the simulator logs every
// schedulable moment -- arrivals, gang starts, completions, misses, rush
// transitions, profiling windows -- as typed events. The log is the
// debugging surface for scheduling behaviour ("why did this task wait?")
// and exports to CSV for external analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iscope {

enum class TimelineKind : std::uint8_t {
  kArrival,
  kStart,
  kCompletion,
  kDeadlineMiss,
  kRushEnter,
  kRushLeave,
  kProfilingBegin,
  kProfilingEnd,
  kCpuFail,      ///< processor fail-stopped (fault injection)
  kCpuRepair,    ///< processor returned to service
  kTaskRequeue,  ///< running task killed by a CPU failure, requeued
  kTaskAbandon,  ///< task exceeded its retry budget, terminally failed
  kSleepEnter,   ///< processor descended one C-state (value = new depth)
  kTaskWaking,   ///< gang claimed sleeping CPUs, start delayed by wake
};

const char* timeline_kind_name(TimelineKind kind);

struct TimelineEvent {
  double time_s = 0.0;
  TimelineKind kind = TimelineKind::kArrival;
  std::int64_t task_id = -1;  ///< -1 for non-task events
  double value = 0.0;         ///< kind-specific (width, wait, count...)
};

/// The event's fields in wire order, for a serial.hpp adapter (`T` is
/// TimelineEvent, or const TimelineEvent when a writer runs it): the
/// checkpoint's timeline and the daemon's DECISION payload are this list.
template <class Io, class T>
void timeline_fields(Io& io, T& e) {
  io.finite(e.time_s, "event time");
  io.in(e.kind, TimelineKind::kArrival, TimelineKind::kTaskWaking,
        "timeline kind");
  io(e.task_id);
  io.finite(e.value, "event value");
}

/// Write events as CSV: time_s,kind,task_id,value.
void save_timeline_csv(const std::string& path,
                       const std::vector<TimelineEvent>& events);

}  // namespace iscope
