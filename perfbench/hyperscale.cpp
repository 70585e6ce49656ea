// hyperscale_shards: ExperimentConfig::hyperscale(25600) (42 666 jobs)
// under ScanTherm, partitioned into 16 shards advanced by 4 shard workers,
// with the thermal model on and CPU faults injected. It is the workload
// where set-up (cluster fabrication and the full scan) dominates, and the
// only one that runs the barrier coordinator and thread pool, wind
// reconciliation, the coordinator's thermal solve and kTherm placement.
// CPU faults bump the knowledge generation, so the scheduler's power
// tables and incremental cache are invalidated far more often than in
// paper_sweep.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "sched/policy.hpp"
#include "sim/sharded.hpp"
#include "spans.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace iscope;

constexpr std::size_t kProcs = 25'600;
constexpr std::size_t kShards = 16;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSetups = 3;
/// Traces the runs cycle through. A seed's own trace and fault plan alone
/// moved the run's on-CPU time by up to a tenth from seed to seed (faults
/// invalidate the scheduler's tables), so a run averages over four.
constexpr std::size_t kTraces = 4;
/// Reference units after each run: the runs take a second or more each,
/// and the yardstick needs to see the host through all of them.
constexpr std::size_t kRefUnitsPerRun = 16;
const char* const kFaultSpec = "mtbf=180000,repair=1800,misprofile=0.02";

/// One dealt trace: its tasks and the seed of its fault plan.
struct Trace {
  std::vector<Task> tasks;
  std::uint64_t fault_seed = 0;
};

struct Setup {
  std::unique_ptr<ExperimentContext> ctx;
  std::vector<Trace> traces;  ///< the first is the benchmark seed's own
  std::unique_ptr<HybridSupply> supply;
};

struct Run {
  SimResult result;
  std::uint64_t digest = 0;
  double run_s = 0.0;  ///< wall time
  /// On-CPU time of the whole process (all shard workers) in each step:
  /// construct + prepare, every round, collect.
  std::vector<double> steps_cpu_s;
};

/// On-CPU seconds of every thread of this process so far.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

ExperimentConfig make_config() {
  ExperimentConfig cfg = ExperimentConfig::hyperscale(kProcs);
  cfg.parallelism = 1;
  cfg.sim.topology.shards = kShards;
  cfg.sim.shard_workers = kWorkers;
  cfg.sim.thermal.enabled = true;
  cfg.sim.faults = parse_fault_spec(kFaultSpec);
  return cfg;
}

/// The context plus `traces` traces: the seed's own, then ones dealt from
/// seeds forked off it.
Setup make_setup(const ExperimentConfig& cfg, std::uint64_t seed,
                 std::size_t traces) {
  Setup s;
  s.ctx = std::make_unique<ExperimentContext>(cfg);
  {
    ISCOPE_SPAN("bench.make_tasks");
    for (std::size_t k = 0; k < traces; ++k) {
      const std::uint64_t t =
          k == 0 ? seed : Rng(seed).fork("trace " + std::to_string(k)).seed();
      s.traces.push_back(Trace{
          make_tasks(cfg, s.ctx->cluster().size(), t, cfg.urgency.hu_fraction),
          fault_seed(t)});
    }
  }
  s.supply = std::make_unique<HybridSupply>(s.ctx->make_supply(true));
  return s;
}

/// run_scheme()'s sharded path through ShardedSim's round API.
Run run_sharded(const Setup& s, const Trace& trace, std::size_t workers) {
  const Scheme scheme = ensure_extended_schemes_registered();  // ScanTherm
  const ExperimentContext& ctx = *s.ctx;
  SimConfig config = ctx.config().sim;
  config.seed = Rng(ctx.config().seed)
                    .fork(placement_rule_name(scheme_rule(scheme)))
                    .seed();
  config.telemetry_label = scheme_name(scheme);
  config.shard_workers = workers;
  config.fault_seed = trace.fault_seed;
  Run run;
  const Clock::time_point t0 = Clock::now();
  double cpu0 = process_cpu_s();
  auto step_done = [&] {
    const double cpu = process_cpu_s();
    run.steps_cpu_s.push_back(cpu - cpu0);
    cpu0 = cpu;
  };
  {
    ShardedSim sim(ctx.cluster(), scheme, &ctx.profile_db(), *s.supply, config);
    {
      ISCOPE_SPAN("bench.shard_prepare");
      sim.prepare(trace.tasks);
    }
    step_done();
    while (!sim.drained()) {
      {
        ISCOPE_SPAN("bench.round");
        sim.advance_round();
      }
      step_done();
    }
    ISCOPE_SPAN("bench.collect");
    run.result = sim.collect();
  }
  step_done();
  run.run_s = seconds_since(t0);
  run.digest = digest(run.result);
  return run;
}

void check_run(const Trace& trace, const Run& run, const Run* reference,
               const std::string& label, Report& report) {
  const SimResult& r = run.result;
  report.check(r.tasks_completed + r.faults.tasks_failed == trace.tasks.size(),
               label + ": completed + abandoned != submitted");
  if (reference != nullptr)
    report.check(run.digest == reference->digest,
                 label + ": SimResult digest differs from the trace's first " +
                     std::to_string(kWorkers) + "-worker run");
}

/// One guarded run: a throw counts as a failed simulation.
bool try_run(const Setup& s, const Trace& trace, std::size_t workers, Run& out,
             Report& report) {
  report.attempt(1);
  try {
    out = run_sharded(s, trace, workers);
    return true;
  } catch (const std::exception& e) {
    report.check(false, std::string("sharded run threw: ") + e.what());
    return false;
  }
}

/// p99 of the thread pool's queue-wait histogram (bucket upper bound).
double queue_wait_p99_s() {
  for (const telemetry::SnapshotFamily& f :
       telemetry::Registry::global().snapshot()) {
    if (f.name != "iscope_pool_queue_wait_seconds" || f.cells.empty()) continue;
    const telemetry::SnapshotCell& c = f.cells.front();
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < c.bucket_counts.size(); ++i) {
      seen += c.bucket_counts[i];
      if (static_cast<double>(seen) >= 0.99 * static_cast<double>(c.count))
        return i < f.bucket_bounds.size() ? f.bucket_bounds[i]
                                          : f.bucket_bounds.back();
    }
  }
  return 0.0;
}

void end_to_end(const Options& opts, const ExperimentConfig& cfg,
                Report& report) {
  Samples setup_s;
  Setup s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    s = Setup{};
    const Clock::time_point t0 = Clock::now();
    s = make_setup(cfg, opts.seed, kTraces);
    setup_s.add(seconds_since(t0));
  }

  // peak_rss_mb is set-up's peak or a typical run's, whichever is higher:
  // the peak is reset before each run, because the allocator's free lists
  // keep growing over repeated runs and the process-wide peak would follow
  // the number of runs the budget allowed.
  ReferenceKernel ref(kWorkers);
  const double setup_peak_mb = vm_hwm_mb(::getpid());
  const bool per_run_peak = reset_vm_hwm();
  Samples run_peak_mb, wall_s;
  // Runs cycle through the traces until the budget is spent, at least two
  // of each, so every trace's digest check has a repeat to compare.
  std::vector<std::vector<Run>> runs(kTraces);
  double last_wall_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0;
       n < 2 * kTraces || seconds_since(start) + last_wall_s <= opts.seconds; ++n) {
    const std::size_t k = n % kTraces;
    Run run;
    if (!try_run(s, s.traces[k], kWorkers, run, report)) return;
    run_peak_mb.add(vm_hwm_mb(::getpid()));
    reset_vm_hwm();
    ref.sample(kRefUnitsPerRun);
    last_wall_s = run.run_s;
    wall_s.add(run.run_s);
    check_run(s.traces[k], run, runs[k].empty() ? nullptr : &runs[k].front(),
              "trace " + std::to_string(k) + " run " + std::to_string(runs[k].size()),
              report);
    if (!runs[k].empty()) run.result = {};  // keep peak_rss_mb the program's
    runs[k].push_back(std::move(run));
  }
  // The sharded result must not depend on how many workers advance the
  // shards (the coordinator does all cross-shard math in shard order).
  Run serial;
  if (try_run(s, s.traces[0], 1, serial, report))
    check_run(s.traces[0], serial, &runs[0].front(), "1-worker run", report);

  // run_s is a run's on-CPU time over all threads, not its wall time:
  // how much of 4 workers' parallelism the shared vCPUs grant swings by 2x
  // from minute to minute, and the spread of the wall time went past any
  // bound. Per trace it sums each step's median over the trace's runs
  // (they take the same steps: the digests match), so a burst of host load
  // during one run moves it by one rank per step hit; run_s is the mean
  // over the traces. The bounded metric divides it by the reference unit's
  // median on-CPU time, sampled between the runs on as many lanes as there
  // are workers, so the unit meets the contention the workers meet.
  double run_s = 0.0, cost = 0.0, events = 0.0, abandoned = 0.0, missed = 0.0,
         waited = 0.0, submitted = 0.0;
  std::size_t run_count = 0;
  for (std::size_t k = 0; k < kTraces; ++k) {
    const std::vector<Run>& trace_runs = runs[k];
    bool same_steps = true;
    for (const Run& r : trace_runs)
      same_steps &= r.steps_cpu_s.size() == trace_runs.front().steps_cpu_s.size();
    report.check(same_steps, "trace " + std::to_string(k) +
                                 ": runs took different numbers of barrier rounds");
    for (std::size_t j = 0; same_steps && j < trace_runs.front().steps_cpu_s.size(); ++j) {
      Samples t;
      for (const Run& r : trace_runs) t.add(r.steps_cpu_s[j]);
      run_s += t.median() / static_cast<double>(kTraces);
    }
    const SimResult& r = trace_runs.front().result;
    const double tasks = static_cast<double>(s.traces[k].tasks.size());
    cost += r.cost.dollars() / static_cast<double>(kTraces);
    events += static_cast<double>(r.events_processed);
    abandoned += static_cast<double>(r.faults.tasks_failed);
    missed += static_cast<double>(missed_tasks(r));
    waited += r.mean_wait.seconds() * tasks;
    submitted += tasks;
    run_count += trace_runs.size();
  }
  report.note(metric::kRun, run_s, "s", "on-CPU time of a 4-worker run");
  report.note("reference_unit_ms", ref.unit_cpu_s() * 1e3, "ms",
              "on-CPU, median of " + std::to_string(ref.samples()) + " units on " +
                  std::to_string(kWorkers) + " lanes");
  report.note("runs", static_cast<double>(run_count), "count",
              "over " + std::to_string(kTraces) + " traces");
  report.note("run_wall_s", wall_s.median(), "s", "median over the 4-worker runs");
  report.note("run_wall_s_1_worker", serial.run_s, "s");
  report.note("events", events / static_cast<double>(kTraces), "count", "mean over traces");
  report.note("tasks_submitted", static_cast<double>(s.traces[0].tasks.size()), "count");
  report.note("tasks_abandoned", abandoned / static_cast<double>(kTraces), "count",
              "mean over traces");
  report.note("mean_wait_s", waited / submitted, "s", "simulated submit -> start");
  report.note("deadline_miss_frac", missed / submitted, "ratio",
              "misses + abandoned over submitted (simulated)");

  report.metric(metric::kSetup, setup_s.median(), "s");
  report.metric(metric::kRunVsRef, run_s / ref.unit_cpu_s(), "ratio");
  report.metric(metric::kRss,
                per_run_peak ? std::max(setup_peak_mb, run_peak_mb.median())
                             : vm_hwm_mb(::getpid()),
                "MB");
  report.metric(metric::kCost, cost, "USD");
}

void traced(const ExperimentConfig& cfg, std::uint64_t seed, Report& report) {
  SpanHarvest harvest({"pool_job"});
  SpanHarvest::enable();
  const Setup s = make_setup(cfg, seed, 1);
  const Trace& trace = s.traces.front();
  const std::size_t trials = trace_setup_layers(cfg, *s.ctx, report);
  harvest.harvest("setup");

  SpanHarvest::disable();
  Run plain, traced_run;
  if (!try_run(s, trace, kWorkers, plain, report)) return;
  telemetry::set_enabled(true);
  const bool ok = try_run(s, trace, kWorkers, traced_run, report);
  harvest.harvest("run");
  SpanHarvest::disable();
  if (!ok) return;

  check_run(trace, plain, nullptr, "untraced run", report);
  check_run(trace, traced_run, &plain, "traced run", report);

  const SimResult& r = traced_run.result;
  TracedTotals t;
  t.trials = trials;
  t.events = static_cast<double>(r.events_processed);
  t.rematches = static_cast<double>(r.dvfs_rematch_count);
  t.untraced_run_s = plain.run_s;
  t.traced_run_s = traced_run.run_s;
  const SpanTotals jobs = harvest.get("pool_job", "run");
  const SpanTotals rounds = harvest.get("bench.round", "run");
  Layers l;
  set_shared_layers(harvest, t, report, l);
  l.set("sim.slice_p50_us", jobs.durations_s.median() * 1e6);
  l.set("sim.slice_p99_us", jobs.durations_s.quantile(0.99) * 1e6);
  l.set("sched.rematch_self_s.wind", harvest.all("rematch").self_s);
  l.set("shard.prepare_s", harvest.get("bench.shard_prepare", "run").total_s);
  l.set("shard.rounds", static_cast<double>(rounds.count));
  l.set("shard.round_p50_us", rounds.durations_s.median() * 1e6);
  l.set("shard.round_p99_us", rounds.durations_s.quantile(0.99) * 1e6);
  l.set("pool.job_s", jobs.total_s);
  l.set("pool.parallel_eff",
        jobs.total_s / (static_cast<double>(kWorkers) * rounds.total_s));
  l.set("pool.queue_wait_p99_us", queue_wait_p99_s() * 1e6);
  l.set("thermal.cooling_kwh", r.cooling_energy.kwh());
  l.set("thermal.peak_inlet_c", r.peak_inlet_c);
  l.set("fault.requeues", static_cast<double>(r.faults.task_requeues));
  l.set("fault.tasks_failed", static_cast<double>(r.faults.tasks_failed));
  l.emit(report);
}

}  // namespace

void run_hyperscale_shards(const Options& opts, Report& report) {
  const ExperimentConfig cfg = make_config();
  if (opts.trace)
    traced(cfg, opts.seed, report);
  else
    end_to_end(opts, cfg, report);
}

}  // namespace perfbench
