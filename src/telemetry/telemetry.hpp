// Telemetry master switch and instrumentation macros (DESIGN.md Sec. 11).
//
// Two independent off-switches, mirroring the fault layer's zero-cost
// contract:
//
//  * Runtime: telemetry is DISABLED by default. Every instrumentation site
//    is gated on `enabled()` -- one relaxed atomic load and a predictable
//    branch -- so a disabled run is bit-identical in SimResult (telemetry
//    never feeds back into simulation state by construction) and adds no
//    measurable wall time (measured when the subsystem landed; perfbench's
//    traced runs report the on-path cost as `telemetry.overhead_frac`).
//  * Compile time: building with -DISCOPE_TELEMETRY_OFF hard-disables the
//    subsystem: `enabled()` is constexpr false (dead-code-eliminating every
//    `if (telemetry::enabled())` block) and the span macros expand to
//    nothing. The registry/trace classes stay compiled so direct-API tests
//    and tools keep building.
//
// Instrumentation idiom:
//
//   if (telemetry::enabled()) { ...update counters/gauges... }
//   ISCOPE_SPAN("rematch");                 // host clock only
//   ISCOPE_SPAN_SIM("rematch", queue_.now());  // host + simulated clock
#pragma once

#include <atomic>

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace iscope::telemetry {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

#if defined(ISCOPE_TELEMETRY_OFF)
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
#endif

}  // namespace iscope::telemetry

#if defined(ISCOPE_TELEMETRY_OFF)

#define ISCOPE_SPAN(name)
#define ISCOPE_SPAN_SIM(name, sim_s)

#else

#define ISCOPE_SPAN_CAT2(a, b) a##b
#define ISCOPE_SPAN_CAT(a, b) ISCOPE_SPAN_CAT2(a, b)

/// RAII span over the rest of the enclosing scope; `name` must be a
/// string literal (stored by pointer in the ring buffer).
#define ISCOPE_SPAN(name)                                      \
  ::iscope::telemetry::ScopedSpan ISCOPE_SPAN_CAT(             \
      iscope_span_, __LINE__)(name, -1.0,                      \
                              ::iscope::telemetry::enabled())

/// Span carrying the simulated clock alongside the host clock.
#define ISCOPE_SPAN_SIM(name, sim_s)                           \
  ::iscope::telemetry::ScopedSpan ISCOPE_SPAN_CAT(             \
      iscope_span_, __LINE__)(name, (sim_s),                   \
                              ::iscope::telemetry::enabled())

#endif
