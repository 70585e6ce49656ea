#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/audit.hpp"
#include "sim/sharded.hpp"
#include "common/error.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace iscope {

void SimConfig::validate() const {
  ISCOPE_CHECK_ARG(cooling_cop > 0.0, "SimConfig: COP must be > 0");
  ISCOPE_CHECK_ARG(epoch_s > 0.0, "SimConfig: epoch must be > 0");
  ISCOPE_CHECK_ARG(sample_interval_s > 0.0, "SimConfig: sample interval > 0");
  ISCOPE_CHECK_ARG(efficient_pool_fraction > 0.0 &&
                       efficient_pool_fraction <= 1.0,
                   "SimConfig: pool fraction must be in (0,1]");
  ISCOPE_CHECK_ARG(deadline_patience_s >= 0.0,
                   "SimConfig: negative deadline patience");
  ISCOPE_CHECK_ARG(max_events > 0, "SimConfig: max_events must be > 0");
  battery.validate();
  faults.validate();
  topology.validate();
  thermal.validate();
  sleep.validate();
}

void (*DatacenterSim::alloc_probe)(bool) = nullptr;

DatacenterSim::DatacenterSim(const Knowledge* knowledge, PlacementRule rule,
                             const HybridSupply* supply,
                             const SimConfig& config,
                             const WindForecaster* forecaster)
    : knowledge_(knowledge),
      supply_(supply),
      config_(config),
      policy_(knowledge, rule, config.seed, config.efficient_pool_fraction),
      matcher_(knowledge, CoolingModel(config.cooling_cop).overhead_factor()),
      waiting_(config.deadline_patience_s),
      extras_active_(config.thermal.enabled || config.sleep.enabled()),
      fault_(config.fault_plan, config.faults, config.fault_seed, *knowledge,
             forecaster),
      profiling_(knowledge->procs()),
      thermal_(config.thermal, config.topology),
      sleep_(config.sleep, knowledge->procs()) {
  ISCOPE_CHECK_ARG(knowledge != nullptr, "DatacenterSim: null knowledge");
  ISCOPE_CHECK_ARG(supply != nullptr, "DatacenterSim: null supply");
  config_.validate();
  // The cluster speaks global ids; `p` is view-local (identity for a full
  // view, shard-relative under a slice).
  const std::size_t top = knowledge_->levels() - 1;
  const Volts vdd{knowledge_->cluster().levels().vdd_nom[top]};
  stock_w_.reserve(knowledge_->procs());
  for (std::size_t p = 0; p < knowledge_->procs(); ++p)
    stock_w_.push_back(knowledge_->cluster()
                           .power(knowledge_->global_proc(p), top, vdd)
                           .raw());
}

double DatacenterSim::fmax_ghz() const {
  return knowledge_->cluster().levels().freq_ghz.back();
}

void DatacenterSim::idle_insert(std::size_t p) {
  idle_flags_[p] = 1;
  ++idle_count_;
  if (sleep_.active()) sleep_on_idle(p);
  const std::size_t r = rank_of_proc_[p];
  idle_rank_bits_[r >> 6] |= std::uint64_t{1} << (r & 63);
  if (maintain_idle_by_busy_) {
    // Order by (busy time, id) -- the sort key of Fair's abundant-wind
    // partial_sort. Busy time only moves while a processor is running, so
    // entries keep their relative order for their whole idle stay.
    const double busy = busy_time_s_[p];
    const double* busy_all = busy_time_s_.data();
    const auto it = std::lower_bound(
        idle_by_busy_.begin(), idle_by_busy_.end(), p,
        [busy, busy_all](std::size_t a, std::size_t value) {
          if (busy_all[a] != busy) return busy_all[a] < busy;
          return a < value;
        });
    idle_by_busy_.insert(it, p);
  }
}

void DatacenterSim::idle_remove(std::size_t p) {
  ISCOPE_CHECK(idle_flags_[p] != 0, "idle_remove: processor not idle");
  idle_flags_[p] = 0;
  --idle_count_;
  if (sleep_.active()) sleep_.on_claim(p, stock_w_[p]);
  const std::size_t r = rank_of_proc_[p];
  idle_rank_bits_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
  if (maintain_idle_by_busy_) {
    const double busy = busy_time_s_[p];
    const double* busy_all = busy_time_s_.data();
    auto it = std::lower_bound(
        idle_by_busy_.begin(), idle_by_busy_.end(), p,
        [busy, busy_all](std::size_t a, std::size_t value) {
          if (busy_all[a] != busy) return busy_all[a] < busy;
          return a < value;
        });
    ISCOPE_CHECK(it != idle_by_busy_.end() && *it == p,
                 "idle_remove: processor not in the busy-ordered list");
    idle_by_busy_.erase(it);
  }
}

void DatacenterSim::cols_append(std::size_t idx) {
  SimTask& t = tasks_[idx];
  t.col = cols_.append(idx, t.spec.runtime_s, t.spec.deadline_s);
  derive_row(t.col);
}

void DatacenterSim::derive_row(std::size_t row) {
  const SimTask& t = tasks_[cols_.task[row]];
  double* power = cols_.power.data() + row * cols_.levels;
  for (std::size_t l = 0; l < cols_.levels; ++l) {
    Watts p;
    for (const std::size_t id : t.procs) p += knowledge_->power(id, l);
    power[l] = p.raw();
  }
  cols_.fill_row(row, t.spec.gamma, matcher_.slowdown_ratio());
}

void DatacenterSim::cols_remove(std::size_t idx) {
  SimTask& t = tasks_[idx];
  const std::size_t row = t.col;
  ISCOPE_CHECK(row != kNone && row < cols_.count && cols_.task[row] == idx,
               "cols_remove: stale column row");
  cols_.remove(row);
  t.col = kNone;
  for (std::size_t r = row; r < cols_.count; ++r) tasks_[cols_.task[r]].col = r;
}

void DatacenterSim::accrue_to_now() {
  const double now = queue_.now();
  const Seconds dt{now - last_accrual_s_};
  if (dt.raw() > 0.0) {
    if (extras_active_) {
      // Breakdown accumulators (already inside demand_, so the meter's
      // totals are untouched): CRAC draw and idle/sleep residency burn.
      cooling_joules_ += cooling_power_.raw() * dt.raw();
      sleep_.accrue(dt.raw());
    }
    if (!battery_.present()) {
      meter_.accrue(demand_, segment_wind_, dt);
    } else {
      // Wind first; surplus charges the battery; deficits discharge it
      // before the utility steps in. Wind is paid at absorption (so the
      // round-trip losses land on the wind bill).
      const Watts wind_used = std::min(demand_, segment_wind_);
      const Watts surplus = segment_wind_ - wind_used;
      const Watts deficit = demand_ - wind_used;
      const Watts charged = battery_.charge(surplus, dt);
      const Watts delivered = battery_.discharge(deficit, dt);
      EnergySplit step;
      step.wind = (wind_used + charged) * dt;
      // max() guards the 1-ulp case where the battery's efficiency
      // round-trip delivers epsilon more than requested.
      step.utility = std::max(Joules{}, (deficit - delivered) * dt);
      // Conservation at the meter boundary: what the facility demanded is
      // what wind + battery + utility jointly supplied.
      ISCOPE_AUDIT_CHECK(
          audit::close(
              (wind_used * dt + delivered * dt + step.utility).joules(),
              (demand_ * dt).joules()),
          "battery accrual must conserve demanded energy");
      meter_.add_split(step, std::max(Joules{}, (surplus - charged) * dt));
    }
  }
  last_accrual_s_ = now;
  segment_wind_ = supply_->wind_available(Seconds{now});
}

void DatacenterSim::rematch() {
  ISCOPE_SPAN_SIM("rematch", queue_.now());
  if (alloc_probe != nullptr) alloc_probe(true);
  accrue_to_now();
  const double now = queue_.now();
  ++rematch_count_;

  // Integrate progress of running tasks up to now at their applied levels.
  // A row appended at this instant has no level yet, and no progress.
  const double dt = now - cols_.progress_s;
  for (std::size_t r = 0; r < cols_.count; ++r) {
    if (dt > 0.0 && cols_.applied[r] < cols_.levels) {
      const double slowdown = cols_.slowdown_row(r)[cols_.applied[r]];
      cols_.remaining[r] = std::max(0.0, cols_.remaining[r] - dt / slowdown);
    }
  }
  cols_.progress_s = now;

  // accrue_to_now() above refreshed segment_wind_ at this exact instant;
  // reuse it rather than querying the supply a second time.
  const Watts wind = segment_wind_;

  MatchResult match;
  if (rush_mode_) {
    // A deadline-forced task is starving for processors: run everything
    // at the top level to free CPUs as soon as possible, whatever the
    // wind.
    const std::size_t top = cols_.levels - 1;
    Watts compute;
    for (std::size_t r = 0; r < cols_.count; ++r) {
      cols_.level[r] = top;
      compute += Watts{cols_.power[r * cols_.levels + top]};
    }
    match.compute = compute;
    match.demand = compute * matcher_.cooling_factor();
  } else {
    match = matcher_.match(cols_, wind, now);
  }
  // Active profiling scans draw power (and cooling) like any other load.
  last_compute_ = match.compute;
  if (extras_active_)
    recompute_demand();  // thermal COP billing and/or idle residency
  else
    demand_ = match.demand + profiling_.power() * matcher_.cooling_factor();

  // Apply levels; reschedule completion events where the level changed or
  // a new row has none yet (completion time is invariant otherwise).
  for (std::size_t r = 0; r < cols_.count; ++r) {
    const std::size_t level = cols_.level[r];
    if (level == cols_.applied[r]) continue;
    cols_.applied[r] = level;
    const std::size_t idx = cols_.task[r];
    const std::uint64_t version = ++tasks_[idx].version;
    const double completion =
        now + cols_.remaining[r] * cols_.slowdown_row(r)[level];
    queue_.schedule(completion,
                    EventDesc{EventDesc::Kind::kCompletion, idx, version});
  }
  if (alloc_probe != nullptr) alloc_probe(false);
}

void DatacenterSim::on_arrival(std::size_t idx) {
  SimTask& t = tasks_[idx];
  t.state = TaskState::kWaiting;
  waiting_.push(WaitingEntry{idx, t.spec.cpus, t.latest_start_s});
  log_event(TimelineKind::kArrival, t.spec.id,
            static_cast<double>(t.spec.cpus));
  // Wake up when deadline pressure forces this task onto whatever is idle.
  const double force_at =
      std::max(queue_.now(), t.latest_start_s - config_.deadline_patience_s);
  queue_.schedule(force_at, EventDesc{EventDesc::Kind::kPass});
  schedule_pass();
}

void DatacenterSim::schedule_pass() {
  if (in_pass_ || waiting_.empty()) return;
  ISCOPE_SPAN_SIM("match", queue_.now());
  in_pass_ = true;

  // The facility as the pass sees it: the idle views, the demand the last
  // rematch decided, and start_task, which takes a pick out of the views
  // and re-decides demand.
  struct Host {
    DatacenterSim& sim;
    std::size_t idle_count() const { return sim.idle_count_; }
    const std::uint64_t* idle_rank_bits() const {
      return sim.idle_rank_bits_.data();
    }
    const std::vector<std::size_t>& idle_by_busy() const {
      return sim.idle_by_busy_;
    }
    Watts demand() const { return sim.demand_; }
    void start(std::size_t task, const std::vector<std::size_t>& procs) {
      if (alloc_probe != nullptr) alloc_probe(false);
      sim.start_task(task, procs);  // start_task copies; scratch reused
      if (alloc_probe != nullptr) alloc_probe(true);
    }
  } host{*this};

  const double now = queue_.now();
  PassInputs in;
  in.now_s = now;
  in.has_wind = supply_->has_wind();
  // One supply lookup per pass: wind_available is a pure function of `now`.
  in.wind = supply_->wind_available(Seconds{now});
  in.queue_pressure = static_cast<double>(waiting_.cpus()) /
                      static_cast<double>(proc_running_.size());
  in.forecaster = fault_.forecaster();
  if (alloc_probe != nullptr) alloc_probe(true);
  const bool forced_blocked =
      placement_pass(waiting_, policy_, in, host, pick_scratch_);
  if (alloc_probe != nullptr) alloc_probe(false);
  in_pass_ = false;
  if (forced_blocked != rush_mode_) {
    rush_mode_ = forced_blocked;
    log_event(rush_mode_ ? TimelineKind::kRushEnter : TimelineKind::kRushLeave,
              -1, static_cast<double>(cols_.count));
    rematch();  // enter/leave rush: re-decide all DVFS levels
  }
}

void DatacenterSim::start_task(std::size_t idx, std::vector<std::size_t> procs) {
  ISCOPE_SPAN_SIM("start_task", queue_.now());
  SimTask& t = tasks_[idx];
  ISCOPE_CHECK(t.state == TaskState::kWaiting, "start_task: bad state");
  const double now = queue_.now();
  t.procs = std::move(procs);
  // Claim the gang. With sleep management on, the deepest claimed
  // processor's C-state transition delays the whole gang's activation.
  double wake_s = 0.0;
  for (const std::size_t p : t.procs) {
    ISCOPE_CHECK(proc_running_[p] == kNone, "start_task: processor busy");
    proc_running_[p] = idx;
    if (sleep_.active()) wake_s = std::max(wake_s, sleep_.wake_s(p));
    idle_remove(p);
  }
  if (wake_s > 0.0) {
    // Park the task until the slowest processor finishes waking. Demand
    // still moves now -- the gang left the idle pool -- but compute power
    // waits for activation.
    t.state = TaskState::kWaking;
    const std::uint64_t version = ++t.version;
    sleep_.count_wake();
    log_event(TimelineKind::kTaskWaking, t.spec.id, wake_s);
    queue_.schedule(now + wake_s,
                    EventDesc{EventDesc::Kind::kWake, idx, version});
    accrue_to_now();
    recompute_demand();
    return;
  }
  activate_task(idx);
}

void DatacenterSim::on_wake(std::size_t idx, std::uint64_t version) {
  const SimTask& t = tasks_[idx];
  if (t.state != TaskState::kWaking || t.version != version) return;  // stale
  activate_task(idx);
}

void DatacenterSim::activate_task(std::size_t idx) {
  SimTask& t = tasks_[idx];
  const double now = queue_.now();
  t.state = TaskState::kRunning;
  t.start_s = now;
  // Deliberately NOT resetting t.version: a requeued task's cancelled
  // completion event is only stale while the version keeps moving forward.
  // A requeued task already waited once; count only the first wait so the
  // mean keeps its submit->first-start meaning under injection.
  if (t.retries == 0) total_wait_s_ += now - t.spec.submit_s;
  log_event(TimelineKind::kStart, t.spec.id, now - t.spec.submit_s);
  if (fault_.active()) {
    // Arm latent mis-profile fail-stops: the chip must run continuously at
    // its (unsafe) scan point for the plan's latency before it fail-stops.
    for (const std::size_t p : t.procs) {
      if (!fault_.armed(p)) continue;
      const std::uint64_t token = fault_.next_token(p);
      queue_.schedule(now + fault_.plan().misprofile_latency_s(p),
                      EventDesc{EventDesc::Kind::kMisprofileTimer, p, token});
    }
  }
  cols_append(idx);
  rematch();
}

void DatacenterSim::on_completion(std::size_t idx, std::uint64_t version) {
  SimTask& t = tasks_[idx];
  if (t.state != TaskState::kRunning || t.version != version) return;  // stale

  const double now = queue_.now();
  t.state = TaskState::kDone;
  ++done_count_;
  makespan_s_ = std::max(makespan_s_, now);
  log_event(TimelineKind::kCompletion, t.spec.id, now - t.start_s);
  if (now > t.spec.deadline_s + 1e-6) {
    ++miss_count_;
    // A miss of a task that had to restart is attributed to fault
    // recovery, not to the scheduling policy.
    if (t.retries > 0) ++fault_.counters().fault_deadline_misses;
    log_event(TimelineKind::kDeadlineMiss, t.spec.id,
              now - t.spec.deadline_s);
  }

  for (const std::size_t p : t.procs) {
    ISCOPE_CHECK(proc_running_[p] == idx, "completion: processor mismatch");
    proc_running_[p] = kNone;
    busy_time_s_[p] += now - t.start_s;
    if (fault_.active()) fault_.next_token(p);  // stale any armed timer
    if (!profiling_.reserved(p)) idle_insert(p);
  }
  std::vector<std::size_t>().swap(t.procs);  // it holds none from now on
  cols_remove(idx);

  rematch();
  schedule_pass();
}

void DatacenterSim::begin_profiling_window(std::size_t window_idx) {
  const ProfilingWindow& window = profiling_.windows()[window_idx];
  // Isolate only processors that are idle right now: QoS comes first
  // (paper Sec. III-C), busy chips are skipped and left for a later pass.
  std::vector<std::size_t> taken;
  for (const std::size_t p : window.proc_ids) {
    if (proc_running_[p] != kNone || profiling_.reserved(p) ||
        fault_.failed(p)) {
      profiling_.skip();
      continue;
    }
    profiling_.reserve(p, Watts{stock_w_[p]});
    idle_remove(p);
    taken.push_back(p);
  }
  log_event(TimelineKind::kProfilingBegin, -1,
            static_cast<double>(taken.size()));
  if (!taken.empty()) {
    rematch();  // demand changed
    const double started = queue_.now();
    const std::size_t slot = profiling_.open(std::move(taken), started);
    queue_.schedule(started + window.duration_s,
                    EventDesc{EventDesc::Kind::kProfilingEnd, slot});
  }
}

void DatacenterSim::end_profiling_window(std::size_t slot) {
  const std::vector<std::size_t> freed =
      profiling_.close(slot, queue_.now(), stock_w_);
  for (const std::size_t p : freed)
    if (proc_running_[p] == kNone && !fault_.failed(p)) idle_insert(p);
  log_event(TimelineKind::kProfilingEnd, -1,
            static_cast<double>(freed.size()));
  rematch();
  schedule_pass();  // the freed processors may admit waiting tasks
}

void DatacenterSim::schedule_fault_event(std::size_t i) {
  if (i >= fault_.event_count()) return;
  queue_.schedule(fault_.event(i).time_s,
                  EventDesc{EventDesc::Kind::kFault, i});
}

void DatacenterSim::on_fault_event(std::size_t i) {
  // The plan's crash/repair stream runs as one lazily-chained event, so an
  // all-but-infinite horizon costs nothing once the workload has drained.
  if (all_done()) return;
  const FaultEvent e = fault_.event(i);
  if (e.kind == FaultKind::kCrash)
    fail_proc(e.proc, /*misprofile=*/false);
  else
    repair_proc(e.proc);
  schedule_fault_event(i + 1);
}

void DatacenterSim::fail_proc(std::size_t p, bool misprofile) {
  if (!fault_.fail(p, misprofile)) return;  // double fault while down
  log_event(TimelineKind::kCpuFail, -1, static_cast<double>(p));
  const std::size_t idx = proc_running_[p];
  if (idx != kNone) {
    requeue_task(idx);
    rematch();  // the victim's load vanished; re-decide DVFS levels
    schedule_pass();
  } else if (!profiling_.reserved(p)) {
    idle_remove(p);
    if (sleep_.active()) {
      // No rematch follows on this branch, but the idle residency power
      // just changed; re-derive demand at this instant.
      accrue_to_now();
      recompute_demand();
    }
  }
}

void DatacenterSim::repair_proc(std::size_t p) {
  if (!fault_.repair(p)) return;  // already repaired (overlapping faults)
  log_event(TimelineKind::kCpuRepair, -1, static_cast<double>(p));
  if (proc_running_[p] == kNone && !profiling_.reserved(p)) {
    idle_insert(p);
    if (sleep_.active()) {
      // schedule_pass may start nothing; demand must still absorb the
      // repaired processor's idle residency now.
      accrue_to_now();
      recompute_demand();
    }
  }
  schedule_pass();  // restored capacity may admit waiting tasks
}

void DatacenterSim::requeue_task(std::size_t idx) {
  SimTask& t = tasks_[idx];
  // A gang still waking from a C-state can lose a processor too; it made
  // no progress, so only running victims charge lost seconds / busy time.
  const bool was_running = t.state == TaskState::kRunning;
  ISCOPE_CHECK(was_running || t.state == TaskState::kWaking,
               "requeue_task: bad state");
  const double now = queue_.now();
  // All progress on the gang is discarded; the task restarts from scratch.
  if (was_running)
    fault_.counters().lost_cpu_seconds +=
        static_cast<double>(t.spec.cpus) * (now - t.start_s);
  for (const std::size_t p : t.procs) {
    ISCOPE_CHECK(proc_running_[p] == idx, "requeue_task: processor mismatch");
    proc_running_[p] = kNone;
    if (was_running) busy_time_s_[p] += now - t.start_s;
    fault_.next_token(p);
    if (!profiling_.reserved(p) && !fault_.failed(p)) idle_insert(p);
  }
  t.procs.clear();
  if (was_running) cols_remove(idx);
  ++t.version;  // cancel the pending completion (or wake) event
  if (t.retries >= fault_.plan().max_retries()) {
    t.state = TaskState::kFailed;
    fault_.abandon();
    makespan_s_ = std::max(makespan_s_, now);
    log_event(TimelineKind::kTaskAbandon, t.spec.id,
              static_cast<double>(t.retries));
    return;
  }
  ++t.retries;
  ++fault_.counters().task_requeues;
  t.state = TaskState::kWaiting;
  waiting_.push(WaitingEntry{idx, t.spec.cpus, t.latest_start_s});
  log_event(TimelineKind::kTaskRequeue, t.spec.id,
            static_cast<double>(t.retries));
  // Same deadline-pressure wakeup an arrival gets (likely already due).
  const double force_at =
      std::max(now, t.latest_start_s - config_.deadline_patience_s);
  queue_.schedule(force_at, EventDesc{EventDesc::Kind::kPass});
}

void DatacenterSim::on_misprofile_timer(std::size_t p, std::uint64_t token) {
  // A stale token means the occupancy that armed the timer has ended.
  if (proc_running_[p] == kNone || !fault_.misprofile_fires(p, token)) return;
  fail_proc(p, /*misprofile=*/true);
  const double repair_at = queue_.now() + fault_.plan().misprofile_repair_s(p);
  queue_.schedule(repair_at, EventDesc{EventDesc::Kind::kMisprofileRepair, p});
}

void DatacenterSim::sleep_on_idle(std::size_t p) {
  const std::size_t depth = sleep_.on_idle(p, stock_w_[p]);
  if (depth > 0)
    log_event(TimelineKind::kSleepEnter, -1, static_cast<double>(depth));
  if (sleep_.descends_from(depth))
    queue_.schedule(queue_.now() + sleep_.timeout_s(),
                    EventDesc{EventDesc::Kind::kSleepEnter, p, sleep_.token(p)});
}

void DatacenterSim::on_sleep_enter(std::size_t p, std::uint64_t token) {
  if (idle_flags_[p] == 0 || !sleep_.can_descend(p, token)) return;  // stale
  accrue_to_now();
  const std::size_t depth = sleep_.descend(p, stock_w_[p]);
  log_event(TimelineKind::kSleepEnter, -1, static_cast<double>(depth));
  recompute_demand();
  if (sleep_.descends_from(depth))
    queue_.schedule(queue_.now() + sleep_.timeout_s(),
                    EventDesc{EventDesc::Kind::kSleepEnter, p, token});
}

void DatacenterSim::recompute_demand() {
  // IT power: matched compute + active scans + idle/sleep residency. Only
  // ever called with thermal or sleep active; the off path keeps the
  // legacy Eq-2 composition in rematch() verbatim.
  const Watts it =
      last_compute_ + profiling_.power() + Watts{sleep_.idle_power_w()};
  if (thermal_.enabled()) {
    // CRAC billing at the operating COP the thermal epochs resolve against
    // the recirculation model (heat removed == IT heat dissipated).
    cooling_power_ = Watts{it.raw() / thermal_.cop()};
  } else {
    // Sleep-only runs keep the paper's flat Eq-2 cooling overhead.
    cooling_power_ = it * (matcher_.cooling_factor() - 1.0);
  }
  demand_ = it + cooling_power_;
}

void DatacenterSim::schedule_thermal(double t) {
  thermal_chain_live_ = true;
  queue_.schedule(t, EventDesc{EventDesc::Kind::kThermal, 0, 0, t});
}

void DatacenterSim::on_thermal(double t) {
  accrue_to_now();
  if (thermal_.fed_from_coordinator()) {
    // Sharded run: apply the solution the coordinator resolved at this
    // barrier over every shard's rack power (reconcile_wind's pattern).
    thermal_.apply_staged();
  } else {
    rack_w_scratch_.assign(thermal_.racks(), 0.0);
    collect_rack_power(rack_w_scratch_);
    thermal_.solve(rack_w_scratch_, fault_.plan().crac_factor(t));
  }
  recompute_demand();
  if (!all_done())
    schedule_thermal(t + config_.epoch_s);
  else
    thermal_chain_live_ = false;
}

void DatacenterSim::collect_rack_power(std::vector<double>& rack_w) const {
  // One ascending-p pass. Per-rack sums are ordered by processor id and
  // racks never straddle shards, so any rack-aligned partition of the
  // facility produces bit-equal sums (the sharded coordinator relies on
  // this when it merges shard contributions).
  const std::size_t nprocs = knowledge_->procs();
  const std::size_t per_rack = config_.topology.cpus_per_rack;
  for (std::size_t p = 0; p < nprocs; ++p) {
    double w = 0.0;
    const std::size_t idx = proc_running_[p];
    if (idx != kNone) {
      // Waking gangs draw nothing until activation.
      if (tasks_[idx].state == TaskState::kRunning)
        w = knowledge_->power(p, cols_.applied[tasks_[idx].col]).raw();
    } else if (profiling_.reserved(p)) {
      w = stock_w_[p];
    } else if (sleep_.active() && idle_flags_[p] != 0) {
      w = sleep_.idle_w(p, stock_w_[p]);
    }
    if (w != 0.0) rack_w[knowledge_->global_proc(p) / per_rack] += w;
  }
}

void DatacenterSim::feed_thermal_from_coordinator(
    const RecirculationMatrix& matrix) {
  thermal_.feed_from_coordinator();
  if (policy_.rule() == PlacementRule::kTherm) install_thermal_order(matrix);
}

void DatacenterSim::install_thermal_order(const RecirculationMatrix& matrix) {
  // The key is a pure function of the knowledge and the topology, so
  // every shard derives the same global order restricted to its slice.
  const std::size_t nprocs = knowledge_->procs();
  const std::size_t per_rack = config_.topology.cpus_per_rack;
  // The CRAC bill is governed by the *hottest* inlet (solve() subtracts
  // max_rise from the red line), and the matrix's diagonal dominates, so
  // packing work into any one rack -- even a low-heat-weight one --
  // concentrates rise and drags the supply colder. The min-max order is a
  // stripe: racks sorted by ascending heat weight, chips within a rack by
  // ascending believed efficiency (profiled where scanned, bin spec
  // otherwise), emitted round-robin one chip per rack. At partial
  // utilization that loads each rack's best silicon about evenly, keeping
  // the worst inlet -- and the cooling overhead -- near the facility
  // minimum while costing almost nothing on compute (chip quality is iid
  // across racks, so per-rack-best ~ globally-best at matching depth).
  std::vector<std::vector<std::size_t>> by_rack(matrix.racks());
  for (std::size_t p = 0; p < nprocs; ++p)
    by_rack[knowledge_->global_proc(p) / per_rack].push_back(p);
  for (std::vector<std::size_t>& rack : by_rack)
    std::sort(rack.begin(), rack.end(), [&](std::size_t a, std::size_t b) {
      const double ea = knowledge_->efficiency(a).raw();
      const double eb = knowledge_->efficiency(b).raw();
      if (ea != eb) return ea < eb;
      return a < b;  // ties fall back to processor id
    });
  std::vector<std::size_t> rack_ids;
  rack_ids.reserve(matrix.racks());
  for (std::size_t j = 0; j < matrix.racks(); ++j)
    if (!by_rack[j].empty()) rack_ids.push_back(j);
  std::sort(rack_ids.begin(), rack_ids.end(),
            [&](std::size_t a, std::size_t b) {
              if (matrix.heat_weight(a) != matrix.heat_weight(b))
                return matrix.heat_weight(a) < matrix.heat_weight(b);
              return a < b;  // ties fall back to rack id
            });
  std::vector<std::size_t> order;
  order.reserve(nprocs);
  for (std::size_t depth = 0; order.size() < nprocs; ++depth)
    for (const std::size_t j : rack_ids)
      if (depth < by_rack[j].size()) order.push_back(by_rack[j][depth]);
  policy_.override_order(std::move(order));
}

void DatacenterSim::schedule_epoch(double t) {
  epoch_chain_live_ = true;
  queue_.schedule(t, EventDesc{EventDesc::Kind::kEpoch, 0, 0, t});
}

void DatacenterSim::on_epoch(double t) {
  rematch();
  schedule_pass();  // wind regime change can unblock Fair/Effi waits
  // Telemetry rides the existing epoch event rather than scheduling its
  // own: the event count -- and therefore SimResult -- is identical with
  // telemetry on or off.
  if (telemetry::enabled()) telemetry_sample();
  if (!all_done())
    schedule_epoch(t + config_.epoch_s);
  else
    epoch_chain_live_ = false;
  audit_derived();
}

void DatacenterSim::schedule_sample(double t) {
  sample_chain_live_ = true;
  queue_.schedule(t, EventDesc{EventDesc::Kind::kSample, 0, 0, t});
}

void DatacenterSim::on_sample(double t) {
  record_sample();
  if (!all_done())
    schedule_sample(t + config_.sample_interval_s);
  else
    sample_chain_live_ = false;
}

void DatacenterSim::log_event(TimelineKind kind, std::int64_t task_id,
                              double value) {
  if (!config_.record_timeline) return;
  timeline_.push_back(TimelineEvent{queue_.now(), kind, task_id, value});
}

PowerSample DatacenterSim::power_waterfall_now() const {
  // Same wind -> battery -> utility waterfall accrue_to_now() integrates,
  // evaluated at an instant (rate previews leave the battery untouched).
  PowerSample s;
  s.time = Seconds{queue_.now()};
  s.demand = demand_;
  s.wind_avail = supply_->wind_available(s.time);
  const Watts wind_used = std::min(s.demand, s.wind_avail);
  if (!battery_.present()) {
    s.wind = wind_used;
    s.utility = s.demand - wind_used;
  } else {
    const Watts charged = battery_.charge_preview(s.wind_avail - wind_used);
    const Watts delivered = battery_.discharge_preview(s.demand - wind_used);
    s.wind = wind_used + charged;
    s.battery = delivered;
    s.utility = std::max(Watts{}, s.demand - wind_used - delivered);
  }
  return s;
}

void DatacenterSim::record_sample() {
  meter_.record_sample(power_waterfall_now());
}

void DatacenterSim::telemetry_sample() {
  const PowerSample p = power_waterfall_now();
  telemetry::SampleRow row;
  row.label = config_.telemetry_label.empty() ? "sim" : config_.telemetry_label;
  row.time_s = queue_.now();
  row.demand_w = p.demand.raw();
  row.wind_avail_w = p.wind_avail.raw();
  row.wind_w = p.wind.raw();
  row.battery_w = p.battery.raw();
  row.utility_w = p.utility.raw();
  row.queue_depth = queue_.pending();
  row.waiting_tasks = waiting_.size();
  row.running_tasks = cols_.count;
  row.idle_procs = idle_count_;
  telemetry::SampleLog::global().append(row);

  static telemetry::GaugeFamily& depth_family =
      telemetry::Registry::global().gauge(
          "iscope_sim_event_queue_depth",
          "Pending simulator events at the latest sample", {"run"});
  depth_family.with({row.label}).set(static_cast<double>(row.queue_depth));

  // The supply-side waterfall as live gauges (latest sample wins): where
  // the facility's power is coming from right now.
  static telemetry::GaugeFamily& power_family =
      telemetry::Registry::global().gauge(
          "iscope_power_watts",
          "Power waterfall at the latest sample, by source",
          {"run", "source"});
  power_family.with({row.label, "demand"}).set(row.demand_w);
  power_family.with({row.label, "wind_avail"}).set(row.wind_avail_w);
  power_family.with({row.label, "wind"}).set(row.wind_w);
  power_family.with({row.label, "battery"}).set(row.battery_w);
  power_family.with({row.label, "utility"}).set(row.utility_w);

  // Thermal/sleep gauges only exist when the subsystems are on, so a
  // default run's telemetry output is byte-identical to the pre-thermal
  // tree's.
  if (thermal_.enabled()) {
    static telemetry::GaugeFamily& thermal_family =
        telemetry::Registry::global().gauge(
            "iscope_thermal", "Thermal model state at the latest sample",
            {"run", "field"});
    thermal_family.with({row.label, "supply_c"}).set(thermal_.supply_c());
    thermal_family.with({row.label, "cop"}).set(thermal_.cop());
    thermal_family.with({row.label, "cooling_w"}).set(cooling_power_.raw());
    thermal_family.with({row.label, "peak_inlet_c"})
        .set(thermal_.peak_inlet_c());
  }
  if (sleep_.active()) {
    static telemetry::GaugeFamily& sleep_family =
        telemetry::Registry::global().gauge(
            "iscope_sleeping_procs",
            "Processors in a C-state deeper than active idle", {"run"});
    sleep_family.with({row.label})
        .set(static_cast<double>(sleep_.sleeping(idle_flags_)));
  }
}

void DatacenterSim::publish_run_telemetry(std::size_t events) {
  telemetry::Registry& reg = telemetry::Registry::global();
  const std::string label =
      config_.telemetry_label.empty() ? "sim" : config_.telemetry_label;
  const std::vector<std::string> labels = {label};
  // Parallel sweeps finish runs on pool workers concurrently, and runs
  // sharing a label share cells: pay for the real RMW.
  static telemetry::CounterFamily& events_family = reg.counter(
      "iscope_sim_events_total", "Simulator events processed", {"run"});
  events_family.with(labels).inc_concurrent(events);
  static telemetry::CounterFamily& rematch_family = reg.counter(
      "iscope_sim_rematches_total", "DVFS rematch passes", {"run"});
  rematch_family.with(labels).inc_concurrent(rematch_count_);
  static telemetry::CounterFamily& completed_family = reg.counter(
      "iscope_sim_tasks_completed_total", "Tasks run to completion",
      {"run"});
  completed_family.with(labels).inc_concurrent(done_count_);
  static telemetry::CounterFamily& miss_family = reg.counter(
      "iscope_sim_deadline_misses_total", "Completions past the deadline",
      {"run"});
  miss_family.with(labels).inc_concurrent(miss_count_);
  static telemetry::CounterFamily& requeue_family = reg.counter(
      "iscope_sim_task_requeues_total",
      "Task restarts forced by injected faults", {"run"});
  requeue_family.with(labels).inc_concurrent(fault_.counters().task_requeues);
  static telemetry::CounterFamily& fault_family = reg.counter(
      "iscope_sim_cpu_failures_total",
      "Processor fail-stops (crashes + mis-profiles)", {"run"});
  fault_family.with(labels).inc_concurrent(fault_.counters().cpu_failures);
  static telemetry::GaugeFamily& peak_family = reg.gauge(
      "iscope_sim_event_queue_peak",
      "Event-queue high-water mark over the run(s)", {"run"});
  peak_family.with(labels).set_max_concurrent(
      static_cast<double>(queue_.high_water()));
  static telemetry::GaugeFamily& battery_family = reg.gauge(
      "iscope_battery_delivered_joules",
      "Battery energy delivered to the facility", {"run"});
  battery_family.with(labels).add_concurrent(battery_.delivered().raw());
  static telemetry::GaugeFamily& losses_family = reg.gauge(
      "iscope_battery_losses_joules", "Battery round-trip losses", {"run"});
  losses_family.with(labels).add_concurrent(battery_.losses().raw());
}

void DatacenterSim::dispatch(const EventDesc& e) {
  using Kind = EventDesc::Kind;
  // No default: -Wswitch flags a kind added without a handler.
  switch (e.kind) {
    case Kind::kArrival: on_arrival(e.a); return;
    case Kind::kPass: schedule_pass(); return;
    case Kind::kCompletion: on_completion(e.a, e.b); return;
    case Kind::kEpoch: on_epoch(e.t); return;
    case Kind::kSample: on_sample(e.t); return;
    case Kind::kProfilingBegin: begin_profiling_window(e.a); return;
    case Kind::kProfilingEnd: end_profiling_window(e.a); return;
    case Kind::kFault: on_fault_event(e.a); return;
    case Kind::kMisprofileTimer: on_misprofile_timer(e.a, e.b); return;
    case Kind::kMisprofileRepair: repair_proc(e.a); return;
    case Kind::kThermal: on_thermal(e.t); return;
    case Kind::kSleepEnter: on_sleep_enter(e.a, e.b); return;
    case Kind::kWake: on_wake(e.a, e.b); return;
  }
}

bool DatacenterSim::event_in_range(const EventDesc& e) const {
  using Kind = EventDesc::Kind;
  switch (e.kind) {
    case Kind::kArrival:
    case Kind::kCompletion:
    case Kind::kWake:
      return e.a < tasks_.size();
    case Kind::kPass:
    case Kind::kEpoch:
    case Kind::kSample:
    case Kind::kThermal:
      return true;
    case Kind::kProfilingBegin:
      return e.a < profiling_.windows().size();
    case Kind::kProfilingEnd:
      return profiling_.live(e.a);
    case Kind::kFault:
      return e.a < fault_.event_count();
    case Kind::kMisprofileTimer:
    case Kind::kMisprofileRepair:
    case Kind::kSleepEnter:
      return e.a < knowledge_->procs();
  }
  return false;  // not a kind at all
}

SimResult DatacenterSim::run(std::vector<Task> tasks) {
  return run(std::move(tasks), {});
}

SimResult DatacenterSim::run(std::vector<Task> tasks,
                             const std::vector<ProfilingWindow>& profiling) {
  // One unbounded resumable slice: run() is now a client of the same
  // prepare/advance/finish API the sharded coordinator and the service
  // daemon drive, so chunked execution has no second code path to drift
  // from.
  prepare(std::move(tasks), profiling);
  advance_before(std::numeric_limits<double>::infinity());
  return finish();
}

void DatacenterSim::prepare(std::vector<Task> tasks,
                            const std::vector<ProfilingWindow>& profiling) {
  const std::size_t nprocs = knowledge_->procs();
  validate_tasks(tasks, nprocs);
  ProfilingDriver::validate(profiling, nprocs);
  sort_by_submit(tasks);

  // Reset the primary state. clear() (not reassignment) keeps warmed-up
  // capacities, so a reused simulator reaches steady state with no further
  // allocations.
  queue_.clear();
  queue_.reserve(tasks.size() + profiling.size() + 8);
  meter_.reset();
  battery_ = BatteryBank(config_.battery);
  tasks_.clear();
  tasks_.reserve(tasks.size());
  for (Task& t : tasks) {
    SimTask st;
    st.spec = std::move(t);
    tasks_.push_back(std::move(st));
  }
  waiting_.clear();
  busy_time_s_.assign(nprocs, 0.0);
  cols_.reset(knowledge_->levels(), nprocs);  // nothing runs yet
  demand_ = Watts{};
  last_accrual_s_ = 0.0;
  segment_wind_ = supply_->wind_available(Seconds{});
  events_run_ = 0;
  rematch_count_ = 0;
  total_wait_s_ = 0.0;
  miss_count_ = 0;
  makespan_s_ = 0.0;
  in_pass_ = false;
  rush_mode_ = false;
  timeline_.clear();
  last_compute_ = Watts{};
  cooling_power_ = Watts{};
  cooling_joules_ = 0.0;
  profiling_.reset(profiling);
  fault_.reset();
  thermal_.reset();
  sleep_.reset();

  rebuild_derived();  // the whole facility starts idle, nothing pending

  prepared_ = true;

  // The initial events, in the order that numbers their ties.
  if (fault_.active()) schedule_fault_event(0);
  if (sleep_.active()) {
    // The whole facility starts idle: same entry path as a runtime idle
    // insert (timeout descents get scheduled, immediate goes deep now).
    for (std::size_t p = 0; p < nprocs; ++p) sleep_on_idle(p);
  }
  if (extras_active_) recompute_demand();
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    queue_.schedule(tasks_[i].spec.submit_s,
                    EventDesc{EventDesc::Kind::kArrival, i});
  for (std::size_t wi = 0; wi < profiling.size(); ++wi)
    queue_.schedule(profiling[wi].start_s,
                    EventDesc{EventDesc::Kind::kProfilingBegin, wi});
  if (!tasks_.empty() || !profiling.empty()) {
    schedule_epoch(0.0);
    if (config_.record_trace) schedule_sample(0.0);
    if (thermal_.enabled()) schedule_thermal(0.0);
  }
}

void DatacenterSim::rebuild_derived() {
  const std::size_t nprocs = knowledge_->procs();

  // A flat run builds its thermal model once, here, and ScanTherm installs
  // its recirculation-aware order from it before the rank tables below are
  // derived from the policy. A coordinator-fed shard builds none: its order
  // came from the facility-wide model (feed_thermal_from_coordinator).
  if (const ThermalModel* built = thermal_.build_model(nprocs);
      built != nullptr && policy_.rule() == PlacementRule::kTherm)
    install_thermal_order(built->matrix());

  // latest_start is a pure function of the immutable spec, cached because
  // the hot scheduling pass reads it per waiting task.
  const double fmax = fmax_ghz();
  for (SimTask& t : tasks_)
    t.latest_start_s = t.spec.latest_start_s(fmax, fmax);
  // The waiting index carries each task's width and latest start beside
  // its place in arrival order; its min-tree is built from them here.
  waiting_.rederive([this](WaitingEntry& e) {
    e.cpus = tasks_[e.task].spec.cpus;
    e.latest_start_s = tasks_[e.task].latest_start_s;
  });

  derive_bookkeeping();

  // Idle orderings: the rank bitset serves every rule, the busy-ordered
  // list only Fair (see the member comments). Bits past nprocs stay clear:
  // choose() trusts them.
  maintain_idle_by_busy_ = policy_.rule() == PlacementRule::kFair;
  idle_by_busy_.clear();
  rank_of_proc_.resize(nprocs);
  for (std::size_t p = 0; p < nprocs; ++p)
    rank_of_proc_[p] = policy_.placement_rank(p);
  idle_rank_bits_.assign((nprocs + 63) / 64, 0);
  for (std::size_t p = 0; p < nprocs; ++p) {
    if (idle_flags_[p] == 0) continue;
    const std::size_t r = rank_of_proc_[p];
    idle_rank_bits_[r >> 6] |= std::uint64_t{1} << (r & 63);
    if (maintain_idle_by_busy_) idle_by_busy_.push_back(p);
  }
  const double* busy = busy_time_s_.data();
  std::sort(idle_by_busy_.begin(), idle_by_busy_.end(),
            [busy](std::size_t a, std::size_t b) {
              if (busy[a] != busy[b]) return busy[a] < busy[b];
              return a < b;
            });
  // At most nprocs tasks run at once (every task needs >= 1 CPU), so these
  // reservations are the true high-water marks.
  pick_scratch_.clear();
  pick_scratch_.reserve(nprocs);

  // The rows are the running set in start order: prepare() empties them,
  // a restore refills them with the state they own. Each row's tables are
  // derived here.
  for (std::size_t r = 0; r < cols_.count; ++r) derive_row(r);
}

void DatacenterSim::derive_bookkeeping() {
  const std::size_t nprocs = knowledge_->procs();
  profiling_.rebuild_reserved();
  proc_running_.assign(nprocs, kNone);
  done_count_ = 0;
  std::size_t& failed = fault_.counters().tasks_failed;
  failed = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const SimTask& t = tasks_[i];
    if (t.state == TaskState::kDone) ++done_count_;
    if (t.state == TaskState::kFailed) ++failed;
    for (const std::size_t p : t.procs) {  // only waking and running hold
      ISCOPE_CHECK(proc_running_[p] == kNone,
                   "a processor is held by two tasks");
      ISCOPE_CHECK(!fault_.failed(p), "a failed processor is held by a task");
      proc_running_[p] = i;
    }
  }
  idle_flags_.assign(nprocs, 0);
  idle_count_ = 0;
  for (std::size_t p = 0; p < nprocs; ++p) {
    idle_flags_[p] = proc_running_[p] == kNone && !profiling_.reserved(p) &&
                     !fault_.failed(p);
    if (idle_flags_[p] != 0) ++idle_count_;
  }
  epoch_chain_live_ = queue_.holds(EventDesc::Kind::kEpoch);
  sample_chain_live_ = queue_.holds(EventDesc::Kind::kSample);
  thermal_chain_live_ = queue_.holds(EventDesc::Kind::kThermal);
}

void DatacenterSim::audit_derived() {
#if ISCOPE_AUDIT_ENABLED
  if (!prepared_) return;
  const auto kept = [this] {
    return std::make_tuple(profiling_.reserved_flags(), proc_running_,
                           idle_flags_, idle_count_, done_count_,
                           fault_.counters().tasks_failed, epoch_chain_live_,
                           sample_chain_live_, thermal_chain_live_);
  };
  const auto before = kept();
  derive_bookkeeping();
  ISCOPE_AUDIT_CHECK(kept() == before,
                     "kept bookkeeping differs from its derivation");
  // The waiting index: its live count, width sum and min-tree against a
  // rebuild, and each entry against its task.
  ISCOPE_AUDIT_CHECK(waiting_.consistent(),
                     "waiting index differs from its rebuild");
  for (std::size_t slot = 0; slot < waiting_.slots(); ++slot) {
    if (!waiting_.live(slot)) continue;
    const WaitingEntry& e = waiting_.entry(slot);
    const SimTask& t = tasks_[e.task];
    ISCOPE_AUDIT_CHECK(t.state == TaskState::kWaiting &&
                           e.cpus == t.spec.cpus &&
                           e.latest_start_s == t.latest_start_s,
                       "waiting entry differs from its task");
  }
#endif
}

void DatacenterSim::check_admissible(const Task& task) const {
  validate_task(task, knowledge_->procs());
  ISCOPE_CHECK_ARG(task.submit_s >= queue_.now(),
                   "DatacenterSim: admission behind the simulation clock");
}

std::size_t DatacenterSim::admit(Task task) {
  check_admissible(task);
  const std::size_t i = tasks_.size();
  const double fmax = fmax_ghz();
  SimTask st;
  st.spec = std::move(task);
  st.latest_start_s = st.spec.latest_start_s(fmax, fmax);
  tasks_.push_back(std::move(st));
  queue_.schedule(tasks_[i].spec.submit_s,
                  EventDesc{EventDesc::Kind::kArrival, i});
  // A drained run stopped the self-rechaining epoch/sample events; restart
  // them at the next boundary. (From a freshly-prepared empty simulation
  // this schedules the chains from t = 0, exactly where prepare() with a
  // non-empty trace would have -- the batch-equivalence case. After a
  // mid-run drain gap the restarted chain skips the idle epochs, which a
  // batch run would have executed: deterministic, but only batch-identical
  // when the stream keeps the simulator busy.)
  if (!epoch_chain_live_)
    schedule_epoch(std::ceil(queue_.now() / config_.epoch_s) *
                   config_.epoch_s);
  if (config_.record_trace && !sample_chain_live_)
    schedule_sample(std::ceil(queue_.now() / config_.sample_interval_s) *
                    config_.sample_interval_s);
  if (thermal_.enabled() && !thermal_chain_live_)
    schedule_thermal(std::ceil(queue_.now() / config_.epoch_s) *
                     config_.epoch_s);
  return i;
}

std::size_t DatacenterSim::step_until(double t_limit) {
  const std::size_t n = queue_.run_until(
      t_limit, [this](const EventDesc& e) { dispatch(e); },
      config_.max_events - events_run_);
  events_run_ += n;
  if (events_run_ >= config_.max_events)
    ISCOPE_CHECK(all_done(), "DatacenterSim: event budget exhausted before "
                             "all tasks completed");
  return n;
}

DecisionSnapshot DatacenterSim::decision_snapshot() const {
  DecisionSnapshot s;
  s.now_s = queue_.now();
  s.demand = demand_;
  s.tasks_admitted = tasks_.size();
  s.tasks_completed = done_count_;
  s.tasks_failed = fault_.counters().tasks_failed;
  s.waiting = waiting_.size();
  s.running = cols_.count;
  s.idle_procs = idle_count_;
  s.events_processed = events_run_;
  s.rematches = rematch_count_;
  s.rush_mode = rush_mode_;
  return s;
}

std::size_t DatacenterSim::advance_before(double t_limit) {
  const std::size_t n = queue_.run_before(
      t_limit, [this](const EventDesc& e) { dispatch(e); },
      config_.max_events - events_run_);
  events_run_ += n;
  // Legacy run() stops at max_events and fails the all-done check; chunked
  // execution must fail here, or a drained budget would spin the
  // coordinator's barrier loop forever.
  if (events_run_ >= config_.max_events)
    ISCOPE_CHECK(all_done(), "DatacenterSim: event budget exhausted before "
                             "all tasks completed");
  return n;
}

SimResult DatacenterSim::finish() {
  const std::size_t events = events_run_;
  ISCOPE_CHECK(all_done(), "DatacenterSim: event budget exhausted before "
                           "all tasks completed");
  audit_derived();
  accrue_to_now();
  if (telemetry::enabled()) {
    telemetry_sample();  // closing sampler row at the end-of-run state
    publish_run_telemetry(events);
  }

  SimResult result;
  result.energy = meter_.total();
  result.cost = config_.prices.cost(result.energy);
  result.wind_curtailed = meter_.wind_curtailed();
  result.battery_delivered = battery_.delivered();
  result.battery_losses = battery_.losses();
  result.tasks_completed = done_count_;
  result.deadline_misses = miss_count_;
  result.mean_wait = Seconds{
      tasks_.empty() ? 0.0
                     : total_wait_s_ / static_cast<double>(tasks_.size())};
  result.makespan = Seconds{makespan_s_};
  result.busy_time_s = busy_time_s_;
  result.finalize_busy_stats();
  result.trace = meter_.trace();
  result.timeline = timeline_;
  result.profiling_procs_scanned = profiling_.scanned();
  result.profiling_procs_skipped = profiling_.skipped();
  result.profiling_proc_seconds = profiling_.proc_seconds();
  result.faults = fault_.counters();
  result.cooling_energy = Joules{cooling_joules_};
  result.idle_energy = Joules{sleep_.idle_joules()};
  result.peak_inlet_c = thermal_.peak_inlet_c();
  result.sleep_enters = sleep_.enters();
  result.sleep_wakes = sleep_.wakes();
  result.dvfs_rematch_count = rematch_count_;
  result.events_processed = events;
  return result;
}

SimConfig apply_scheme_requests(Scheme scheme, SimConfig config) {
  const SchemeInfo& info = scheme_info(scheme);
  if (info.thermal) config.thermal.enabled = true;
  if (info.sleep && config.sleep.policy == SleepPolicy::kNone)
    config.sleep.policy = SleepPolicy::kTimeout;
  return config;
}

SimResult run_scheme(const Cluster& cluster, Scheme scheme,
                     const ProfileDb* db, const HybridSupply& supply,
                     const std::vector<Task>& tasks, const SimConfig& config) {
  if (scheme_uses_scan(scheme))
    ISCOPE_CHECK_ARG(db != nullptr, "run_scheme: Scan scheme needs a ProfileDb");
  // Default the run's telemetry tag to the scheme name so snapshots and
  // sampler rows separate the five schemes out of the box.
  SimConfig tagged = apply_scheme_requests(scheme, config);
  if (tagged.telemetry_label.empty()) tagged.telemetry_label = scheme_name(scheme);
  SimResult result;
  if (tagged.topology.shards > 1) {
    // 100k+-CPU path: rack-partitioned shards with per-shard event loops
    // under epoch-barrier wind reconciliation (sim/sharded.hpp).
    ShardedSim sim(cluster, scheme, db, supply, tagged);
    result = sim.run(tasks);
  } else {
    const Knowledge knowledge(&cluster, scheme_knowledge(scheme),
                              scheme_uses_scan(scheme) ? db : nullptr);
    DatacenterSim sim(&knowledge, scheme_rule(scheme), &supply, tagged);
    result = sim.run(tasks);
  }
  if (telemetry::enabled()) {
    // Per-scheme utilization spread (paper Fig. 6): how evenly the scheme
    // loaded the cluster.
    static telemetry::GaugeFamily& variance_family =
        telemetry::Registry::global().gauge(
            "iscope_sim_busy_variance_h2",
            "Variance of per-processor busy hours", {"run"});
    variance_family.with({tagged.telemetry_label})
        .set(result.busy_variance_h2);
  }
  return result;
}

}  // namespace iscope
