// Deterministic fault injection (the resilience layer).
//
// The paper's iScope scanner deliberately operates chips near the
// process-variation Min-Vdd margin, so a credible evaluation must show what
// the schedulers do when the perfect-world assumptions break:
//
//  (a) scan mis-profiling -- the in-cloud scan underestimated a chip's
//      Min Vdd, so running it at the discovered (unsafe) point eventually
//      fail-stops the processor;
//  (b) transient CPU crashes -- exponential inter-arrival and repair times
//      per processor, independent of the voltage margin story;
//  (c) wind-forecast error -- multiplicative noise on forecaster outputs
//      (see fault/noisy_forecast.hpp);
//  (d) supply-trace dropouts -- sensor/feed gaps treated as zero wind.
//
// Everything is seeded and replayable: a `FaultPlan` is a pure function of
// (FaultSpec, seed, processor count). Same seed => identical fault
// schedule, counters, and report, regardless of what the scheduler does in
// between (crash/repair times are precomputed; mis-profile latencies are
// per-processor constants; forecast noise is a hash of the query time, not
// a consumed stream). A default-constructed (empty) `FaultPlan` is the
// contract for "injection disabled": the simulator must produce
// bit-identical results to a build that never heard of faults
// (tests/test_match_equivalence.cpp enforces this).
//
// Crash/repair events are stored per processor, never as one sorted list:
// each processor's stream sits in one flat array shared by the plan and
// every slice of it, and each simulator merges the streams on demand with
// its own `FaultCursor`, reading only as far as its run gets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "energy/supply_trace.hpp"

namespace iscope {

/// Stochastic fault model parameters. All rates default to 0 / disabled, so
/// `FaultSpec{}` describes the perfect world.
struct FaultSpec {
  /// (a) Probability that a scanned chip's Min Vdd was underestimated by
  /// the profiling guardband. Only Scan-knowledge schemes exercise the
  /// unsafe point, so only they can trigger these fail-stops (a binned chip
  /// runs at the bin's worst-case voltage, safely above its true minimum).
  double misprofile_prob = 0.0;
  /// Mean (exponential) latency from first running at the unsafe point to
  /// the fail-stop, per mis-profiled chip.
  double misprofile_latency_mean_s = 1800.0;

  /// (b) Per-processor mean time between transient crashes (exponential
  /// inter-arrival). 0 disables crash injection.
  double crash_mtbf_s = 0.0;
  /// Mean (exponential) repair time; applies to crashes and to
  /// mis-profiling fail-stops (repair includes a corrective re-profile, so
  /// a repaired chip does not fail-stop from the same mis-profile again).
  double repair_mean_s = 1800.0;

  /// (c) Multiplicative wind-forecast noise half-width: a forecast is
  /// scaled by a deterministic pseudo-random factor in [1-e, 1+e].
  double forecast_error = 0.0;

  /// (d) Supply-trace dropouts: expected dropouts per day of trace, each
  /// with an exponential duration of mean `dropout_mean_s`. Samples inside
  /// a dropout window read as zero wind.
  double dropouts_per_day = 0.0;
  double dropout_mean_s = 1800.0;

  /// (e) CRAC degradation window: for `crac_duration_s` starting at
  /// `crac_start_s`, the chiller COP is scaled by (1 - crac_derate) --
  /// a partial cooling outage (failed compressor stage, condenser
  /// fouling). Facility-wide; only affects runs with the thermal model
  /// enabled (cooling power is not simulated otherwise).
  double crac_derate = 0.0;  ///< in [0, 1); 0 disables the window
  double crac_start_s = 0.0;
  double crac_duration_s = 0.0;

  /// Crash/repair schedules are generated out to this horizon.
  double horizon_s = 60.0 * 86400.0;
  /// How many times a task killed by a failing CPU is requeued before it is
  /// abandoned (counted as terminally failed, never silently lost).
  std::size_t max_retries = 3;

  /// True when any injection channel is active.
  bool any() const;
  void validate() const;
};

/// Parse a `key=value,key=value` spec string (the CLI `--faults` format).
/// Keys: mtbf, repair, misprofile, misprofile-latency, forecast, dropouts,
/// dropout-mean, retries, horizon, crac, crac-start, crac-duration.
/// Durations are seconds. Unknown keys throw InvalidArgument.
FaultSpec parse_fault_spec(const std::string& text);

enum class FaultKind : std::uint8_t {
  kCrash,   ///< processor fail-stops (transient)
  kRepair,  ///< processor returns to service
};

/// One scheduled processor fault. Scripted plans are a list of these, and
/// a FaultCursor hands them out in the plan's merged order.
struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kCrash;
  std::size_t proc = 0;
};

/// One event of a processor's stream; the processor is the stream's.
struct StreamEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kCrash;
};

/// A wind-supply outage [start, end).
struct DropoutWindow {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// A fully materialized, deterministic fault schedule. Built once from a
/// `FaultSpec` and a seed (or scripted explicitly), then read-only: the
/// simulator consumes it without drawing any randomness of its own.
class FaultPlan {
 public:
  /// The empty plan: injection disabled, bit-identical simulation results.
  FaultPlan() = default;

  /// Materialize `spec` for a `procs`-processor facility. Pure function of
  /// its arguments. Every generated crash carries a matching repair (repair
  /// may land past the horizon), so no processor is lost forever. Each
  /// processor's stream is ordered by (time, kind): a crash sorts before a
  /// repair at the same instant.
  static FaultPlan build(const FaultSpec& spec, std::uint64_t seed,
                         std::size_t procs);

  /// Explicit scripted schedule (tests, replaying a production incident).
  /// Each processor's events are ordered by time, same-instant events in
  /// the order given, and must alternate crash/repair starting with a
  /// crash.
  static FaultPlan scripted(std::vector<FaultEvent> events,
                            std::size_t max_retries = 3);

  /// True when the plan injects nothing into the simulator (no crash
  /// events and no mis-profiled chips). Dropouts/forecast noise act on the
  /// supply/forecast objects outside the event loop, and the CRAC window
  /// only modulates the thermal solve, so none of them count -- a
  /// CRAC-only plan keeps the simulator's fault machinery (failed flags,
  /// requeues, retry bookkeeping) entirely disengaged.
  bool sim_empty() const {
    return event_count_ == 0 && misprofile_count_ == 0;
  }
  /// True when the plan carries no faults of any kind.
  bool empty() const {
    return sim_empty() && dropouts_.empty() && forecast_error_ == 0.0 &&
           crac_derate_ == 0.0;
  }

  /// Crash/repair events over all processors.
  std::size_t event_count() const { return event_count_; }
  /// Processors with a stream (local ids 0 .. stream_count()-1; a processor
  /// past the end has no crash or repair).
  std::size_t stream_count() const { return stream_count_; }
  /// Processor `p`'s crash/repair events in the order they apply.
  std::span<const StreamEvent> stream(std::size_t p) const {
    const std::vector<std::size_t>& at = streams_->offsets;
    return {streams_->events.data() + at[stream_lo_ + p],
            at[stream_lo_ + p + 1] - at[stream_lo_ + p]};
  }

  bool misprofiled(std::size_t proc) const {
    return proc < misprofile_latency_s_.size() &&
           misprofile_latency_s_[proc] >= 0.0;
  }
  /// Exercise-to-fail-stop latency of a mis-profiled chip (>= 0); chips
  /// that were profiled correctly return -1.
  double misprofile_latency_s(std::size_t proc) const {
    return misprofiled(proc) ? misprofile_latency_s_[proc] : -1.0;
  }
  std::size_t misprofile_count() const { return misprofile_count_; }
  /// Repair duration after a mis-profile fail-stop (the repair includes a
  /// corrective re-profile, so the chip cannot fail from the same
  /// mis-profile again). Pre-drawn per processor for determinism.
  double misprofile_repair_s(std::size_t proc) const {
    return proc < misprofile_repair_s_.size() ? misprofile_repair_s_[proc]
                                              : 0.0;
  }

  std::size_t max_retries() const { return max_retries_; }

  const std::vector<DropoutWindow>& dropouts() const { return dropouts_; }
  /// Zero every sample of `trace` that falls inside a dropout window.
  SupplyTrace apply_dropouts(const SupplyTrace& trace) const;

  /// Forecast-noise parameters (consumed by NoisyForecaster).
  double forecast_error() const { return forecast_error_; }
  std::uint64_t forecast_seed() const { return forecast_seed_; }

  /// CRAC chiller derate factor at time `t`: 1.0 outside the degradation
  /// window, (1 - crac_derate) inside [crac_start, crac_start + duration).
  /// Facility-wide; consumed by the thermal epoch solve.
  double crac_factor(double t) const {
    if (crac_derate_ == 0.0) return 1.0;
    return (t >= crac_start_s_ && t < crac_start_s_ + crac_duration_s_)
               ? 1.0 - crac_derate_
               : 1.0;
  }
  double crac_derate() const { return crac_derate_; }

  /// Largest processor id referenced by events or mis-profiles, +1; 0 when
  /// none. The simulator checks this against its cluster size.
  std::size_t procs_referenced() const;

  /// Restrict the plan to processors [proc_lo, proc_lo + proc_count),
  /// renumbered to local ids 0..count-1. Crash/repair events and
  /// mis-profile entries outside the slice are dropped; dropouts, forecast
  /// noise and the retry budget are facility-wide and carry over
  /// unchanged. Slicing one global plan per shard keeps the physical fault
  /// schedule independent of the shard count (sim/sharded.hpp); the full
  /// slice (lo=0, count=procs_referenced() or more) reproduces the plan
  /// exactly. The slice is a view: it shares the plan's streams, so it
  /// costs O(proc_count), not O(events).
  FaultPlan slice(std::size_t proc_lo, std::size_t proc_count) const;

 private:
  /// Every processor's stream back to back: processor p's is
  /// events[offsets[p], offsets[p + 1]). Immutable once built, so plans,
  /// slices and the cursors of concurrent simulators share it unlocked.
  struct Streams {
    std::vector<StreamEvent> events;
    std::vector<std::size_t> offsets;
  };
  std::shared_ptr<const Streams> streams_;  ///< null when no crash stream
  std::size_t stream_lo_ = 0;     ///< this plan's processor 0 in streams_
  std::size_t stream_count_ = 0;  ///< processors this plan's view covers
  std::size_t event_count_ = 0;   ///< events in those processors' streams
  /// Per-processor latency; -1 = profiled correctly. Empty = none at all.
  std::vector<double> misprofile_latency_s_;
  std::vector<double> misprofile_repair_s_;
  std::size_t misprofile_count_ = 0;
  std::vector<DropoutWindow> dropouts_;
  double forecast_error_ = 0.0;
  std::uint64_t forecast_seed_ = 0;
  double crac_derate_ = 0.0;
  double crac_start_s_ = 0.0;
  double crac_duration_s_ = 0.0;
  std::size_t max_retries_ = 3;
};

/// Reads a plan's crash/repair events in one merged order -- by (time,
/// proc), each processor's stream in its own order -- by index. The merge
/// is a heap of processor heads, so reading event i+1 after event i costs
/// O(log procs), and nothing past the last index read is ever merged.
/// Asking for an index behind the current one rewinds to the start (a
/// restored checkpoint). One cursor per simulator; the plan must outlive
/// it.
class FaultCursor {
 public:
  explicit FaultCursor(const FaultPlan& plan);

  /// Events in the plan.
  std::size_t size() const { return plan_->event_count(); }
  /// Event `i` of the merged order, with its plan-local processor.
  /// Requires i < size().
  FaultEvent event(std::size_t i);

 private:
  /// A processor's earliest unmerged event: its time, and its index in
  /// the processor's stream.
  struct Head {
    double time_s;
    std::size_t proc;
    std::size_t next;
  };
  void rewind();

  const FaultPlan* plan_;
  std::vector<Head> heap_;  ///< min-heap on (time, proc)
  std::size_t pos_ = 0;     ///< merged index of heap_.front()
};

/// Fault-injection outcome counters, reported in `SimResult::faults`. All
/// zero when injection is disabled.
struct FaultCounters {
  std::size_t cpu_failures = 0;     ///< fail-stops (crashes + mis-profiles)
  std::size_t cpu_repairs = 0;      ///< processors returned to service
  std::size_t misprofile_failures = 0;  ///< fail-stops caused by (a)
  std::size_t task_requeues = 0;    ///< task restarts forced by failures
  std::size_t tasks_failed = 0;     ///< abandoned after max_retries
  double lost_cpu_seconds = 0.0;    ///< processor-seconds of discarded work
  /// Deadline misses of tasks that had been requeued at least once (the
  /// misses attributable to fault recovery rather than to scheduling).
  std::size_t fault_deadline_misses = 0;
};

}  // namespace iscope
