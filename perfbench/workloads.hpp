// The benchmark's three workloads. Each runs the program only through its
// public entry points and fills the report: end-to-end metrics in the
// untraced run, per-layer metrics in the traced run (opts.trace). Why each
// workload exists is in README.md beside this file.
#pragma once

#include <string>

#include "report.hpp"

namespace perfbench {

/// Figs. 5, 6 and 8 grids at ISCOPE_SCALE=5, serially: ~120 simulations.
void run_paper_sweep(const Options& opts, Report& report);

/// hyperscale(25600) under ScanTherm: 16 shards on 4 workers, thermal on,
/// CPU faults injected.
void run_hyperscale_shards(const Options& opts, Report& report);

/// One open-loop client driving the real iscope_serve daemon over its
/// socket, checked against an in-process twin.
void run_serve_stream(const Options& opts, Report& report);

/// Shared metric names reported by every workload.
namespace metric {
inline const std::string kSetup = "setup_s";
/// The run's host time, printed for people; the bounded metric is
/// kRunVsRef, the same time over one reference unit's (reference.hpp).
inline const std::string kRun = "run_s";
inline const std::string kRunVsRef = "run_vs_ref";
inline const std::string kRss = "peak_rss_mb";
inline const std::string kCost = "cost_usd";
}  // namespace metric

}  // namespace perfbench
