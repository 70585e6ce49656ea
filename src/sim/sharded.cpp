#include "sim/sharded.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/audit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "energy/reconcile.hpp"
#include "telemetry/telemetry.hpp"

namespace iscope {

std::vector<std::vector<Task>> partition_tasks(const std::vector<Task>& tasks,
                                               const Topology& topology) {
  const std::size_t n = topology.shards();
  std::vector<std::vector<Task>> parts(n);
  if (n == 1) {
    parts[0] = tasks;
    return parts;
  }

  // Submit order first: the partition must not depend on the caller's
  // incidental task ordering (DatacenterSim::prepare sorts anyway).
  std::vector<Task> sorted = tasks;
  sort_by_submit(sorted);

  // Greedy load balancing: CPU-seconds assigned so far, normalized by the
  // slice's capacity so unequal shards fill at the same relative rate.
  std::vector<double> load(n, 0.0);
  for (const Task& t : sorted) {
    std::size_t best = SIZE_MAX;
    for (std::size_t s = 0; s < n; ++s) {
      if (t.cpus > topology.slice(s).proc_count) continue;  // cannot fit
      if (best == SIZE_MAX || load[s] < load[best]) best = s;  // ties: lowest
    }
    ISCOPE_CHECK_ARG(best != SIZE_MAX,
                     "partition_tasks: task wider than every shard slice");
    const ShardSlice& slice = topology.slice(best);
    load[best] += static_cast<double>(t.cpus) * t.runtime_s /
                  static_cast<double>(slice.proc_count);
    parts[best].push_back(t);
  }
  return parts;
}

std::vector<std::vector<ProfilingWindow>> partition_windows(
    const std::vector<ProfilingWindow>& profiling, const Topology& topology) {
  const std::size_t n = topology.shards();
  std::vector<std::vector<ProfilingWindow>> parts(n);
  if (n == 1) {
    parts[0] = profiling;
    return parts;
  }
  for (const ProfilingWindow& w : profiling) {
    for (std::size_t s = 0; s < n; ++s) {
      const ShardSlice& slice = topology.slice(s);
      ProfilingWindow local;
      for (std::size_t g : w.proc_ids)
        if (g >= slice.proc_lo && g < slice.proc_lo + slice.proc_count)
          local.proc_ids.push_back(g - slice.proc_lo);
      if (local.proc_ids.empty()) continue;
      local.start_s = w.start_s;
      local.duration_s = w.duration_s;
      parts[s].push_back(std::move(local));
    }
  }
  return parts;
}

ShardedSim::ShardedSim(const Cluster& cluster, Scheme scheme,
                       const ProfileDb* db, const HybridSupply& supply,
                       const SimConfig& config)
    : cluster_(&cluster),
      global_supply_(&supply),
      config_(config),
      topology_(config.topology, cluster.size()) {
  config_.validate();
  if (scheme_uses_scan(scheme))
    ISCOPE_CHECK_ARG(db != nullptr, "ShardedSim: Scan scheme needs a ProfileDb");

  const std::size_t n = topology_.shards();
  const double total = static_cast<double>(cluster.size());

  // Resolve the physical fault schedule ONCE, over the whole facility, so
  // it is a function of (spec, seed, facility size) alone -- independent of
  // the shard count -- then hand each shard its slice: a view over the
  // plan's per-processor streams, not a copy of them.
  std::shared_ptr<const FaultPlan> global_plan = config_.fault_plan;
  if (global_plan == nullptr && config_.faults.any())
    global_plan = std::make_shared<const FaultPlan>(
        FaultPlan::build(config_.faults, config_.fault_seed, cluster.size()));
  global_plan_ = global_plan;

  if (config_.thermal.enabled) {
    thermal_model_ = std::make_unique<ThermalModel>(
        config_.thermal, config_.topology, topology_.racks());
    rack_w_.assign(topology_.racks(), 0.0);
  }

  capacity_share_.reserve(n);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    const ShardSlice& slice = topology_.slice(s);
    capacity_share_.push_back(static_cast<double>(slice.proc_count) / total);

    Shard shard;
    shard.knowledge = std::make_unique<const Knowledge>(
        &cluster, scheme_knowledge(scheme),
        scheme_uses_scan(scheme) ? db : nullptr, slice.proc_lo,
        slice.proc_count);
    // Fraction starts at 1.0; the first barrier (t = 0) reconciles before
    // any event runs. For a single shard it is re-set to exactly 1.0 every
    // epoch, so the supply view stays bit-identical to the global one.
    shard.supply = std::make_unique<HybridSupply>(supply);

    SimConfig sc = config_;
    sc.topology.shards = 1;  // shards do not re-shard
    sc.shard_workers = 1;
    // Shard 0 keeps the base seed (1-shard identity); the rest fork
    // deterministic per-shard streams.
    if (s > 0) sc.seed = Rng(config_.seed).fork("shard" + std::to_string(s)).seed();
    // The battery bank splits by capacity share (x 1.0 is exact for one
    // shard), charge/discharge limits included.
    sc.battery.capacity = config_.battery.capacity * capacity_share_[s];
    sc.battery.max_charge = config_.battery.max_charge * capacity_share_[s];
    sc.battery.max_discharge =
        config_.battery.max_discharge * capacity_share_[s];
    if (global_plan != nullptr)
      sc.fault_plan = std::make_shared<const FaultPlan>(
          global_plan->slice(slice.proc_lo, slice.proc_count));
    if (n > 1 && !sc.telemetry_label.empty())
      sc.telemetry_label += "/shard" + std::to_string(s);
    shard.config = std::move(sc);

    shard.sim = std::make_unique<DatacenterSim>(
        shard.knowledge.get(), scheme_rule(scheme), shard.supply.get(),
        shard.config);
    // Shards never solve the thermal model themselves: the coordinator
    // resolves it at every barrier and stages the solution.
    if (config_.thermal.enabled)
      shard.sim->feed_thermal_from_coordinator(thermal_model_->matrix());
    shards_.push_back(std::move(shard));
  }
}

ShardedSim::~ShardedSim() = default;

void ShardedSim::ensure_pool() {
  std::size_t workers = config_.shard_workers;
  if (workers == 0)
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, shards_.size());
  if (workers > 1 && pool_ == nullptr)
    pool_ = std::make_unique<ThreadPool>(workers);
}

void ShardedSim::prepare(const std::vector<Task>& tasks,
                         const std::vector<ProfilingWindow>& profiling) {
  const std::size_t n = shards_.size();
  ProfilingDriver::validate(profiling, cluster_->size());
  std::vector<std::vector<Task>> parts = partition_tasks(tasks, topology_);
  std::vector<std::vector<ProfilingWindow>> windows =
      partition_windows(profiling, topology_);
  for (std::size_t s = 0; s < n; ++s) {
    shards_[s].sim->prepare(std::move(parts[s]), windows[s]);
    shards_[s].racks_stale = true;
  }
  barrier_ = 0.0;
  ensure_pool();
}

bool ShardedSim::prepared() const {
  for (const Shard& sh : shards_)
    if (!sh.sim->prepared()) return false;
  return true;
}

bool ShardedSim::drained() const {
  for (const Shard& sh : shards_)
    if (!sh.sim->drained()) return false;
  return true;
}

std::size_t ShardedSim::advance_round() {
  // One epoch-barrier round: (1) collect demands, (2) reconcile the global
  // wind budget in fixed shard order (single-threaded), (3) advance every
  // shard through events strictly before the next barrier. An epoch event
  // at exactly t = k*epoch_s runs in round k+1, under the fraction
  // reconciled at that barrier.
  const std::size_t n = shards_.size();
  std::vector<Watts> demand(n, Watts{});
  for (std::size_t s = 0; s < n; ++s)
    demand[s] = shards_[s].sim->demand_now();
  const Watts wind = global_supply_->wind_available(Seconds{barrier_});
  const WindAllocation alloc =
      reconcile_wind(std::max(wind, Watts{}), demand, capacity_share_);
  for (std::size_t s = 0; s < n; ++s)
    shards_[s].supply->set_fraction(alloc.fraction[s]);

  if (config_.thermal.enabled) {
    // Re-collect only stale shards' racks: racks never straddle shards and
    // collect_rack_power sums each rack in processor order from 0.0, so a
    // zeroed and re-collected range equals a full collection (and a flat
    // run's sums) bit for bit. Then solve once and stage for every shard.
    for (std::size_t s = 0; s < n; ++s) {
      if (!shards_[s].racks_stale) continue;
      const ShardSlice& slice = topology_.slice(s);
      std::fill_n(rack_w_.begin() + static_cast<std::ptrdiff_t>(slice.rack_lo),
                  slice.rack_count, 0.0);
      shards_[s].sim->collect_rack_power(rack_w_);
      shards_[s].racks_stale = false;
    }
#if ISCOPE_AUDIT_ENABLED
    std::vector<double> full(rack_w_.size(), 0.0);
    for (const Shard& sh : shards_) sh.sim->collect_rack_power(full);
    ISCOPE_AUDIT_CHECK(
        std::memcmp(full.data(), rack_w_.data(),
                    full.size() * sizeof(double)) == 0,
        "ShardedSim: kept rack power differs from a full collection");
#endif
    const double derate =
        global_plan_ != nullptr ? global_plan_->crac_factor(barrier_) : 1.0;
    const ThermalSolution sol = thermal_model_->solve(rack_w_, derate);
    for (Shard& sh : shards_) sh.sim->stage_thermal(sol);
  }

  // Advance only shards with an event before the next barrier: the rest
  // would pop nothing, and the event-budget check reads counters only
  // events move. With a pool every advance is a pool job, even a lone one.
  const double next = barrier_ + config_.epoch_s;
  std::size_t events = 0;
  std::vector<std::future<std::size_t>> pending;
  for (Shard& sh : shards_) {
    if (!sh.sim->has_event_before(next)) continue;
    sh.racks_stale = true;
    if (pool_ != nullptr)
      pending.push_back(pool_->submit(
          [&sim = *sh.sim, next] { return sim.advance_before(next); }));
    else
      events += sh.sim->advance_before(next);
  }
  // Sum in fixed shard order (a size_t sum is order-independent anyway).
  for (std::future<std::size_t>& f : pending) events += f.get();
  barrier_ = next;
  return events;
}

SimResult ShardedSim::collect() {
  // Collect in fixed shard order; every cross-shard sum below is likewise
  // fixed-order, so the result is independent of the worker count.
  std::vector<SimResult> results;
  results.reserve(shards_.size());
  for (Shard& sh : shards_) results.push_back(sh.sim->finish());
  if (shards_.size() == 1) return std::move(results[0]);
  return aggregate(std::move(results));
}

SimResult ShardedSim::run(const std::vector<Task>& tasks,
                          const std::vector<ProfilingWindow>& profiling) {
  ISCOPE_SPAN("sharded_run");
  prepare(tasks, profiling);
  while (!drained()) advance_round();
  return collect();
}

SimResult ShardedSim::aggregate(std::vector<SimResult> results) const {
  SimResult agg;
  agg.busy_time_s.assign(cluster_->size(), 0.0);
  double total_wait_s = 0.0;
  std::size_t total_tasks = 0;
  // Power traces are sampled on the same global grid in every shard; merge
  // samples by exact timestamp, summing in shard order.
  std::map<double, PowerSample> trace;

  for (std::size_t s = 0; s < results.size(); ++s) {
    const SimResult& r = results[s];
    agg.energy += r.energy;
    agg.wind_curtailed += r.wind_curtailed;
    agg.battery_delivered += r.battery_delivered;
    agg.battery_losses += r.battery_losses;
    agg.tasks_completed += r.tasks_completed;
    agg.deadline_misses += r.deadline_misses;
    const std::size_t n = shards_[s].sim->decision_snapshot().tasks_admitted;
    total_wait_s += r.mean_wait.raw() * static_cast<double>(n);
    total_tasks += n;
    agg.makespan = std::max(agg.makespan, r.makespan);

    const ShardSlice& slice = topology_.slice(s);
    std::copy(r.busy_time_s.begin(), r.busy_time_s.end(),
              agg.busy_time_s.begin() + static_cast<std::ptrdiff_t>(slice.proc_lo));

    for (const PowerSample& p : r.trace) {
      PowerSample& acc = trace[p.time.raw()];
      acc.time = p.time;
      acc.demand += p.demand;
      acc.wind += p.wind;
      acc.utility += p.utility;
      acc.wind_avail += p.wind_avail;
      acc.battery += p.battery;
    }
    agg.timeline.insert(agg.timeline.end(), r.timeline.begin(),
                        r.timeline.end());

    agg.profiling_procs_scanned += r.profiling_procs_scanned;
    agg.profiling_procs_skipped += r.profiling_procs_skipped;
    agg.profiling_proc_seconds += r.profiling_proc_seconds;

    agg.faults.cpu_failures += r.faults.cpu_failures;
    agg.faults.cpu_repairs += r.faults.cpu_repairs;
    agg.faults.misprofile_failures += r.faults.misprofile_failures;
    agg.faults.task_requeues += r.faults.task_requeues;
    agg.faults.tasks_failed += r.faults.tasks_failed;
    agg.faults.lost_cpu_seconds += r.faults.lost_cpu_seconds;
    agg.faults.fault_deadline_misses += r.faults.fault_deadline_misses;

    agg.cooling_energy += r.cooling_energy;
    agg.idle_energy += r.idle_energy;
    agg.peak_inlet_c = std::max(agg.peak_inlet_c, r.peak_inlet_c);
    agg.sleep_enters += r.sleep_enters;
    agg.sleep_wakes += r.sleep_wakes;

    agg.dvfs_rematch_count += r.dvfs_rematch_count;
    agg.events_processed += r.events_processed;
  }

  agg.mean_wait = Seconds{total_tasks == 0
                              ? 0.0
                              : total_wait_s / static_cast<double>(total_tasks)};
  agg.cost = config_.prices.cost(agg.energy);
  agg.finalize_busy_stats();

  agg.trace.reserve(trace.size());
  for (const auto& [t, p] : trace) agg.trace.push_back(p);
  // Shard timelines are each time-sorted; a stable sort by time merges them
  // while keeping shard order among simultaneous events deterministic.
  std::stable_sort(
      agg.timeline.begin(), agg.timeline.end(),
      [](const TimelineEvent& a, const TimelineEvent& b) {
        return a.time_s < b.time_s;
      });
  return agg;
}

}  // namespace iscope
