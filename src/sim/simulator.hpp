// The green-datacenter discrete-event simulator (paper Secs. IV-V).
//
// Drives a task trace through a cluster under one of the five schemes:
//
//  * tasks wait in a central arrival-ordered queue; at every scheduling
//    opportunity (arrival, completion, supply epoch, deadline-pressure
//    wakeup) the placement policy picks idle CPUs for as many waiting
//    tasks as it wants to start -- Effi-style policies may deliberately
//    keep a task waiting for efficient CPUs while its deadline allows;
//  * task start/completion and every 10-minute supply epoch re-run the
//    power matcher, which re-decides DVFS levels against the current wind
//    budget;
//  * energy is integrated between events and attributed wind-first,
//    utility-supplement (Sec. V-C), with cooling overhead per Eq-2.
//
// Determinism: same cluster, knowledge, tasks, supply, and seed => same
// result, bit for bit.
//
// Events are plain descriptors (sim/event_queue.hpp): each schedule site
// names a kind and its payload, and dispatch() maps every kind to its
// handler in one switch. The core owns the tasks, the event queue, the
// meter and battery, the running set, the idle pool, placement, matching
// and demand composition. Four optional subsystems each own their state
// in one type the core holds by value and calls directly: FaultDriver,
// ProfilingDriver, ThermalDriver and SleepGovernor (sim/*_driver.hpp,
// sim/sleep_governor.hpp). Handlers that requeue tasks or move processors
// between pools stay in the core and consult the drivers' state. The
// simulator and each driver have one io() that lists their primary
// checkpointed fields for both the writer and the reader
// (service/checkpoint.hpp); prepare() resets each driver with one call,
// and prepare() and restore derive everything else in rebuild_derived().
//
// Hot-path design (DESIGN.md Secs. 9 and 14): `rematch()` performs zero
// heap allocations at steady state. The running set is the rows of the SoA
// matcher columns (matcher_columns.hpp), in start order: a starting task
// appends its row, and removal shifts the later rows down, which -- unlike
// swap-and-pop -- keeps start order, on which the matcher's floating-point
// sums and equal-saving tiebreaks depend for bit-reproducibility. The rows
// own each running task's remaining work, progress time and level. A row's
// per-level power is summed once, when the task starts, and is fixed while
// it runs. PowerMatcher::match solves over the rows from scratch on every
// call; every placement rule picks off one rank-indexed idle bitset, and a
// scheduling pass visits only the waiting tasks that are forced or inside
// the rule's start bound (sched/waiting_queue.hpp). The oracles this
// scheduler is tested against live with the tests
// (tests/reference_scheduler.hpp), and committed digests pin its results
// (tests/data/golden/).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "energy/battery.hpp"
#include "energy/forecast.hpp"
#include "energy/hybrid_supply.hpp"
#include "fault/fault.hpp"
#include "hardware/sleep.hpp"
#include "hardware/topology.hpp"
#include "power/cooling.hpp"
#include "thermal/thermal.hpp"
#include "profiling/opportunistic.hpp"
#include "power/cost.hpp"
#include "power/energy_meter.hpp"
#include "sched/policy.hpp"
#include "sched/power_matcher.hpp"
#include "sched/scheme.hpp"
#include "sched/waiting_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_driver.hpp"
#include "sim/metrics.hpp"
#include "sim/profiling_driver.hpp"
#include "sim/sleep_governor.hpp"
#include "sim/thermal_driver.hpp"
#include "workload/task.hpp"

namespace iscope {

struct SimConfig {
  double cooling_cop = 2.5;          ///< paper Sec. V-C
  EnergyPrices prices;               ///< 0.13 / 0.05 USD per kWh
  double epoch_s = 600.0;            ///< supply re-evaluation cadence
  double sample_interval_s = 350.0;  ///< Fig. 7 trace sampling period
  bool record_trace = false;
  bool record_timeline = false;      ///< typed event log (sim/timeline.hpp)
  /// Tag for this run's telemetry: metric label values and sampler rows.
  /// Empty means "sim"; run_scheme() fills in the scheme name. Purely
  /// observational -- never read by simulation logic, so it cannot affect
  /// results.
  std::string telemetry_label;
  /// Share of the cluster (by efficiency rank) Effi treats as the
  /// "efficient pool" it is willing to wait for.
  double efficient_pool_fraction = 0.35;
  /// How long before the last feasible start a waiting task becomes
  /// "forced" (starts on whatever is idle). Two supply epochs of headroom
  /// absorb the start contention after a calm spell ends.
  double deadline_patience_s = 1200.0;
  std::uint64_t seed = 99;           ///< drives the Random placement
  std::size_t max_events = 100'000'000;  ///< runaway guard
  /// Optional on-site battery: surplus wind charges it, deficits discharge
  /// it before the utility grid steps in. Default: absent. Wind energy is
  /// paid at absorption, so round-trip losses are on the wind bill.
  BatteryConfig battery;
  /// Fault injection (src/fault/). The default `FaultSpec{}` injects
  /// nothing and is guaranteed bit-identical to a fault-free build. A
  /// failed processor stays out of the idle pool until it is repaired.
  FaultSpec faults;
  std::uint64_t fault_seed = 0;  ///< seeds FaultPlan::build from `faults`
  /// Explicit plan override (scripted schedules, replay). When set it wins
  /// over `faults`/`fault_seed`. Shared so sweep scenario copies stay cheap.
  std::shared_ptr<const FaultPlan> fault_plan;

  /// Facility topology and shard partition. topology.shards == 1 (the
  /// default) runs the single-event-loop simulator below; anything larger
  /// makes run_scheme() route through the sharded coordinator
  /// (sim/sharded.hpp), which gives each shard its own event queue,
  /// matcher scratch and energy accounting and reconciles the wind budget
  /// at every supply epoch.
  TopologyConfig topology;
  /// Worker threads the sharded coordinator fans shard advances over
  /// between barriers. 1 (default) = serial in the caller's thread; 0 =
  /// one per hardware thread. Results are bit-identical at any setting.
  std::size_t shard_workers = 1;

  /// Thermal model (src/thermal/): per-rack heat recirculation + CRAC
  /// cooling resolved at every supply epoch. Disabled by default; when
  /// off the legacy Eq-2 flat cooling factor applies and the run is
  /// bit-identical to a build without the subsystem (ThermalOffIdentity).
  ThermalConfig thermal;
  /// C-state sleep management (hardware/sleep.hpp). kNone (default) is
  /// the legacy zero-idle-power, instant-wake model, bit-identical to a
  /// build without sleep support.
  SleepConfig sleep;

  void validate() const;
};

/// O(1) read-only view of the latest scheduling decision -- the service
/// layer's bounded-latency DECIDE_NOW path. Everything here was already
/// computed by the most recent rematch; reading it touches no simulation
/// state, so a query cannot perturb determinism.
struct DecisionSnapshot {
  double now_s = 0.0;
  Watts demand;                      ///< facility demand (IT + cooling)
  std::size_t tasks_admitted = 0;
  std::size_t tasks_completed = 0;
  std::size_t tasks_failed = 0;      ///< abandoned by fault injection
  std::size_t waiting = 0;
  std::size_t running = 0;
  std::size_t idle_procs = 0;
  std::size_t events_processed = 0;
  std::size_t rematches = 0;
  bool rush_mode = false;
};

class DatacenterSim {
 public:
  /// All pointers are non-owning and must outlive the simulator.
  /// `forecaster` (optional) informs Fair's deferral decisions; without
  /// one, deferral assumes wind always returns within the slack.
  DatacenterSim(const Knowledge* knowledge, PlacementRule rule,
                const HybridSupply* supply, const SimConfig& config,
                const WindForecaster* forecaster = nullptr);

  /// Run the trace to completion and return the collected metrics.
  /// Tasks must fit the cluster (width <= processor count).
  SimResult run(std::vector<Task> tasks);

  /// Run with an in-band opportunistic profiling plan (paper Sec. III-C):
  /// at each window's start the listed processors are isolated from
  /// service *if idle at that moment* (QoS first -- busy ones are skipped),
  /// burn scan power at the top level's stock point for the window's
  /// duration, then return to the pool. Scan power is metered like any
  /// other facility load.
  SimResult run(std::vector<Task> tasks,
                const std::vector<ProfilingWindow>& profiling);

  /// --- sharded-run driver API (sim/sharded.hpp) -------------------------
  /// run() is prepare() + one full queue drain + finish(). The sharded
  /// coordinator instead interleaves advance_before() slices with
  /// epoch-barrier supply reconciliation; chunked execution pops the event
  /// heap in exactly the order one uninterrupted drain would, so a 1-shard
  /// chunked run is bit-identical to run() (tests/test_shard.cpp).

  /// Stage a run: reset state, sort and admit the tasks, schedule the
  /// arrival/epoch/sample/fault events. Does not process any event.
  /// Windows are validated first (ProfilingDriver::validate): a rejected
  /// plan throws InvalidArgument and leaves the simulator untouched.
  void prepare(std::vector<Task> tasks,
               const std::vector<ProfilingWindow>& profiling = {});
  /// Process staged events with time strictly < `t_limit` (bounded by the
  /// remaining max_events budget). Returns the number of events run.
  std::size_t advance_before(double t_limit);
  /// Process staged events with time <= `t_limit` and advance the clock to
  /// `t_limit` (the resumable slice the service daemon drives; run() is one
  /// unbounded slice). A clock advanced past the last event changes no
  /// state -- energy accrual integrates from the last accrual point at the
  /// *next* event -- so interleaving step_until() slices is bit-identical
  /// to one uninterrupted drain. Returns the number of events run.
  std::size_t step_until(double t_limit);
  /// True once prepare() has staged a run (a restore needs it).
  bool prepared() const { return prepared_; }
  /// True when no staged events remain.
  bool drained() const { return queue_.empty(); }
  /// True when a staged event lies strictly before `t`: advance_before(t)
  /// would run at least one event.
  bool has_event_before(double t) const {
    return !queue_.empty() && queue_.peek_time() < t;
  }
  /// Facility demand decided by the latest rematch (IT + cooling + scans).
  Watts demand_now() const { return demand_; }
  /// Collect the metrics after the queue drained; checks all tasks done.
  SimResult finish();

  /// --- streaming admission (service mode, src/service/) -----------------
  /// Admit one more task into a prepared simulation. The task's submit time
  /// must not be behind the simulation clock (admission order defines the
  /// tie order among same-instant arrivals). Restarts the epoch/sample
  /// chains if a previous drain stopped them. Returns the task's index.
  ///
  /// Equivalence contract: admitting tasks before the clock passes their
  /// submit times, in submit order, yields a run bit-identical to handing
  /// the same tasks to prepare() up front (arrival events occupy their own
  /// tie class -- see EventQueue::schedule -- so late scheduling cannot
  /// reorder same-time ties).
  std::size_t admit(Task task);
  /// The rule admit() applies, without admitting: validate_task for this
  /// simulator's processors, and a submit time not behind the clock.
  /// Throws InvalidArgument.
  void check_admissible(const Task& task) const;
  /// Simulation clock.
  double now_s() const { return queue_.now(); }
  /// Events processed since prepare().
  std::size_t events_processed() const { return events_run_; }
  /// The typed event log recorded so far (the daemon streams its suffix to
  /// clients as decisions are made; complete only with record_timeline).
  const std::vector<TimelineEvent>& timeline() const { return timeline_; }
  /// See DecisionSnapshot.
  DecisionSnapshot decision_snapshot() const;
  const SimConfig& config() const { return config_; }

  /// --- thermal coordination (sim/sharded.hpp) ---------------------------
  /// Make this simulator a shard the coordinator feeds: it never solves a
  /// thermal model; its kThermal events apply the solution the coordinator
  /// stages at each barrier. ScanTherm installs its placement order from
  /// the facility-wide `matrix`, so every shard ranks its slice against
  /// the same heat weights. Call before prepare().
  void feed_thermal_from_coordinator(const RecirculationMatrix& matrix);
  /// Accumulate per-rack IT power (running + reserved + idle/sleep
  /// residency) into `rack_w`, indexed by *global* rack id. The caller
  /// zeroes the vector; racks never straddle shards, so per-rack sums are
  /// identical however the facility is partitioned.
  void collect_rack_power(std::vector<double>& rack_w) const;
  /// Stage the coordinator's solution for this shard's next kThermal event.
  void stage_thermal(const ThermalSolution& solution) {
    thermal_.stage(solution);
  }

  /// The checkpointed state, listed once for both directions: `Io` is the
  /// codec's writer adapter (which only reads) or its reader adapter
  /// (which checks each field as it loads, then rebuilds derived state).
  /// Defined below; instantiated by service/checkpoint.cpp.
  template <class Io>
  void io(Io& io);

  /// Test-only hook: when set, called with `true` on entering a stretch
  /// that makes no heap allocation at steady state and `false` on leaving
  /// it. The stretches are every rematch() and every scheduling pass less
  /// its task starts (a start allocates the task's processor list); a
  /// start's own rematch nests inside the pass. tests/test_rematch_alloc.cpp
  /// counts heap allocations inside them. Null in production.
  static void (*alloc_probe)(bool entering);

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  enum class TaskState : std::uint8_t {
    kPending,
    kWaiting,
    kRunning,
    kDone,
    kFailed,  ///< abandoned after exhausting the fault-retry budget
    /// Processors claimed but still waking from a C-state; the task
    /// activates when its kWake event fires (sleep management only).
    kWaking,
  };

  struct SimTask {
    Task spec;
    std::vector<std::size_t> procs;  ///< held while waking or running
    double start_s = -1.0;
    /// Monotone across restarts (never reset, or a cancelled completion
    /// event from a previous stint could match again and fire early).
    std::uint64_t version = 0;       ///< invalidates stale completion events
    /// Row in the SoA matcher columns while running (kNone otherwise).
    std::size_t col = kNone;
    /// Latest deadline-feasible start at the top frequency, cached at
    /// prepare() (it is a pure function of the immutable spec).
    double latest_start_s = 0.0;
    TaskState state = TaskState::kPending;
    std::size_t retries = 0;         ///< fault-forced restarts so far
  };

  /// Run one popped event: the single place each event kind is mapped to
  /// its handler (a switch without a default, so -Wswitch flags a kind
  /// added without one).
  void dispatch(const EventDesc& e);
  /// True when `e` is a kind dispatch() handles and its payload indexes
  /// live state (task, processor, profiling window, scan slot or fault
  /// cursor). Checkpoint restore screens every saved event with it.
  bool event_in_range(const EventDesc& e) const;
  /// Derive everything a checkpoint does not carry from the primary state:
  /// the bookkeeping, a flat run's thermal model with the ScanTherm order,
  /// the rank bits and Fair's busy-ordered list, and each running row's
  /// tables. prepare() and checkpoint restore both end their state setup
  /// here, so the two cannot drift apart.
  void rebuild_derived();
  /// The scans' reserved flags, which task holds each processor (throws
  /// when two do, or one holds a failed processor), the idle pool, the
  /// waiting width, the completed and failed counts, and the chain flags
  /// (which events are pending).
  void derive_bookkeeping();
  /// Audit builds re-derive the bookkeeping at every epoch, checkpoint save
  /// and finish(), and fail unless that changed nothing.
  void audit_derived();
  void on_arrival(std::size_t idx);
  /// Try to start waiting tasks on idle processors (with backfill past
  /// voluntarily-waiting tasks; a *forced* task that cannot fit blocks the
  /// pass so freed CPUs accumulate for it). The pass is placement_pass()
  /// (sched/waiting_queue.hpp), hosted on this facility.
  void schedule_pass();
  void start_task(std::size_t idx, std::vector<std::size_t> procs);
  /// Second half of start_task: the task begins running on its (already
  /// claimed) processors. Called inline when no wake latency applies --
  /// the only path when sleep management is off -- or from the kWake event
  /// after the deepest claimed processor finished its transition.
  void activate_task(std::size_t idx);
  void on_wake(std::size_t idx, std::uint64_t version);
  void on_completion(std::size_t idx, std::uint64_t version);
  /// Integrate energy up to now, then re-run the power matcher and
  /// reschedule completion events whose level changed.
  void rematch();
  /// Integrate energy from the last accrual point to now.
  void accrue_to_now();
  void schedule_epoch(double t);
  void schedule_sample(double t);
  void on_epoch(double t);
  void on_sample(double t);
  /// Windows and scan slots live in profiling_, so their events carry
  /// only indices.
  void begin_profiling_window(std::size_t window_idx);
  void end_profiling_window(std::size_t slot);
  /// Fault machinery (src/fault/): the plan's crash/repair events run as a
  /// single lazily-chained event stream; mis-profile fail-stops are armed
  /// per processor when a task starts on an unsafe scan point.
  void schedule_fault_event(std::size_t i);
  void on_fault_event(std::size_t i);
  void fail_proc(std::size_t p, bool misprofile);
  void repair_proc(std::size_t p);
  /// Kill a running task because one of its processors failed: free the
  /// survivors, requeue (bounded by the plan's retry budget) or abandon.
  void requeue_task(std::size_t idx);
  void on_misprofile_timer(std::size_t p, std::uint64_t token);
  /// --- thermal model (src/thermal/) -------------------------------------
  /// A self-rechaining kThermal event at every supply epoch re-solves the
  /// recirculation + CRAC model against the facility's current rack power
  /// map. kThermal occupies tie class 0, so at an epoch instant the flat
  /// run resolves thermal state against exactly the pre-epoch state the
  /// sharded coordinator sees at its barrier -- the two stay bit-identical.
  void schedule_thermal(double t);
  void on_thermal(double t);
  /// Install the recirculation-aware placement order (ScanTherm): a
  /// round-robin stripe over racks (ascending heat weight) of each
  /// rack's chips (ascending believed efficiency) -- min-max inlet rise
  /// at every fill depth.
  void install_thermal_order(const RecirculationMatrix& matrix);
  /// Recompose facility demand from the cached IT parts (last matcher
  /// compute power + scans + idle residency) and the current cooling
  /// model. Only ever called when thermal or sleep is active; the off path
  /// keeps the legacy Eq-2 composition in rematch() verbatim.
  void recompute_demand();
  /// --- sleep management (sim/sleep_governor.hpp) ------------------------
  /// Processor entered the idle pool: the governor picks its depth; this
  /// logs an immediate descent and schedules a timeout one.
  void sleep_on_idle(std::size_t p);
  void on_sleep_enter(std::size_t p, std::uint64_t token);
  /// Instantaneous wind -> battery -> utility waterfall (previews only;
  /// shared by the Fig. 7 trace recorder and the telemetry sampler).
  PowerSample power_waterfall_now() const;
  void record_sample();
  /// Telemetry-only observation hooks. Both are observational by
  /// construction: they schedule no events and mutate no simulation state,
  /// so a telemetry-enabled run is bit-identical to a disabled one.
  void telemetry_sample();
  void publish_run_telemetry(std::size_t events);
  void log_event(TimelineKind kind, std::int64_t task_id, double value);
  double fmax_ghz() const;
  bool all_done() const {
    return done_count_ + fault_.counters().tasks_failed == tasks_.size();
  }

  /// Append a starting task's SoA row at the end (start order) and derive
  /// its tables.
  void cols_append(std::size_t idx);
  /// Sum each level's power over the row's processors into the row, then
  /// derive its slowdown and best-level tables. Fixed while the task runs.
  void derive_row(std::size_t row);
  /// Drop a task's SoA row (order-preserving shift; re-points the row
  /// handles of every shifted task).
  void cols_remove(std::size_t idx);
  /// Move a processor into or out of the idle pool, keeping the flags, the
  /// rank bitset and Fair's busy-ordered list in step.
  void idle_insert(std::size_t p);
  void idle_remove(std::size_t p);

  const Knowledge* knowledge_;
  const HybridSupply* supply_;
  SimConfig config_;
  PlacementPolicy policy_;
  PowerMatcher matcher_;

  EventQueue queue_;
  EnergyMeter meter_;
  BatteryBank battery_;
  std::vector<SimTask> tasks_;
  /// Waiting tasks in arrival order, with each one's width and latest
  /// start, indexed for the scheduling pass (sched/waiting_queue.hpp).
  /// The checkpoint writes only the task order; the rest is derived.
  WaitingQueue waiting_;
  std::vector<std::size_t> proc_running_;  ///< task idx or kNone
  std::vector<double> busy_time_s_;
  /// Idle processors (held by no task, reserved by no scan, not failed):
  /// flags + count, and the rank-indexed idle bitset every placement rule
  /// picks from. Bit r (word r/64) set means the processor at placement
  /// rank r is idle, so insert/remove is one bit op and
  /// PlacementPolicy::choose pops picks with a ctz scan (rank_of_proc_
  /// caches the policy's rank table; under Ran the rank is the processor
  /// id). The (busy time, id)-ordered list feeds Fair's abundant-wind pick
  /// and is kept only there (maintain_idle_by_busy_). Busy time is frozen
  /// while a processor sits idle, so its order is maintained purely at
  /// insert/remove.
  std::vector<std::uint8_t> idle_flags_;
  std::size_t idle_count_ = 0;
  std::vector<std::uint64_t> idle_rank_bits_;
  std::vector<std::size_t> rank_of_proc_;
  std::vector<std::size_t> idle_by_busy_;
  bool maintain_idle_by_busy_ = false;
  std::vector<std::size_t> pick_scratch_;  ///< choose() output buffer
  /// Stock power per processor (top DVFS level at nominal Vdd), raw watts:
  /// what a chip under scan draws, and the base of its idle residency.
  /// The cluster never changes, so the table is built once, at
  /// construction.
  std::vector<double> stock_w_;
  /// True while a self-rechaining epoch/sample/thermal event is pending. A
  /// drain stops the chains (all_done); admit() restarts them at the next
  /// boundary so a long-running service keeps re-evaluating the supply.
  bool epoch_chain_live_ = false;
  bool sample_chain_live_ = false;
  bool thermal_chain_live_ = false;

  /// The running set, one row per task in start order (the first row is
  /// the longest-running task; see matcher_columns.hpp), with the
  /// matcher's per-call outputs and scratch beside it.
  MatcherColumns cols_;

  std::vector<TimelineEvent> timeline_;
  Watts demand_;
  double last_accrual_s_ = 0.0;
  Watts segment_wind_;           ///< wind available during current segment
  std::size_t done_count_ = 0;
  std::size_t events_run_ = 0;  ///< events processed since prepare()
  std::size_t rematch_count_ = 0;
  double total_wait_s_ = 0.0;
  std::size_t miss_count_ = 0;
  double makespan_s_ = 0.0;
  bool in_pass_ = false;  ///< re-entrancy guard for schedule_pass
  bool prepared_ = false;  ///< prepare() ran; the state arrays are sized
  /// Set while a deadline-forced task is blocked waiting for processors:
  /// the matcher then rushes running tasks to the top level to free CPUs
  /// ("we stop lowering the frequency when some tasks are facing violation
  /// of their deadlines" -- paper Sec. V-C).
  bool rush_mode_ = false;

  /// --- demand composition with thermal or sleep --------------------------
  /// config_.thermal.enabled || config_.sleep.enabled(): demand is composed
  /// by recompute_demand() instead of the legacy rematch() line.
  bool extras_active_;
  Watts last_compute_;          ///< IT compute power of the latest match
  Watts cooling_power_;         ///< current CRAC (or Eq-2) draw
  double cooling_joules_ = 0.0;
  std::vector<double> rack_w_scratch_;

  /// --- subsystem drivers (after policy_, which rejects a null view) -------
  FaultDriver fault_;
  ProfilingDriver profiling_;
  ThermalDriver thermal_;
  SleepGovernor sleep_;
};

/// `config` with `scheme`'s feature requests applied (sched/scheme.hpp):
/// ScanTherm turns the thermal model on; the *Sleep schemes pick the
/// timeout governor unless `config` already names a sleep policy. The
/// paper five request nothing. run_scheme(), the service host and the
/// IScope facade build their simulators from the result.
SimConfig apply_scheme_requests(Scheme scheme, SimConfig config);

/// Convenience wrapper: build knowledge for `scheme`, run the simulation,
/// and price the result. `db` is required for Scan schemes.
SimResult run_scheme(const Cluster& cluster, Scheme scheme,
                     const ProfileDb* db, const HybridSupply& supply,
                     const std::vector<Task>& tasks, const SimConfig& config);

template <class Io>
void DatacenterSim::io(Io& io) {
  const std::size_t nprocs = knowledge_->procs();
  const std::size_t levels = knowledge_->levels();
  const SimConfig& cfg = config_;
  if constexpr (!Io::kLoading) audit_derived();

  // Identity block. The full construction config is the restoring caller's
  // responsibility; these catch the mismatches that would otherwise
  // corrupt silently. The thermal and sleep knobs shape event semantics --
  // COP curve, wake latencies -- and are all defaults when both subsystems
  // are off.
  io.same(nprocs, "processor count");
  io.same(levels, "DVFS level count");
  io.same(policy_.rule(), "placement rule");
  io.same(cfg.seed, "seed");
  io.same(fault_.active(), "fault plan");
  io.same(cfg.record_trace, "trace recording");
  io.same(cfg.record_timeline, "timeline recording");
  io.same(cfg.epoch_s, "epoch period");
  io.same(cfg.sample_interval_s, "sample period");
  io.same(cfg.thermal.enabled, "thermal mode");
  io.same(cfg.thermal.red_line_c, "thermal red line");
  io.same(cfg.thermal.min_supply_c, "thermal supply floor");
  io.same(cfg.thermal.max_supply_c, "thermal supply ceiling");
  io.same(cfg.thermal.self_coupling_k_per_w, "recirculation self-coupling");
  io.same(cfg.thermal.row_decay_racks, "recirculation row decay");
  io.same(cfg.thermal.cross_row_coupling, "recirculation cross-row coupling");
  io.same(cfg.thermal.cross_row_decay_rows, "recirculation cross-row decay");
  io.same(cfg.sleep.policy, "sleep policy");
  io.same(cfg.sleep.timeout_s, "sleep timeout");
  io.same(cfg.sleep.active_idle_frac, "active-idle power fraction");
  for (const SleepState& st : cfg.sleep.states) {
    io.same(st.idle_frac, "sleep-state residency power");
    io.same(st.wake_s, "sleep-state wake latency");
  }
  io.same(thermal_.fed_from_coordinator(), "thermal coordination mode");

  // Event queue, in the heap's raw vector order. A load stages it and
  // reinstalls it once the state its payloads index is in place.
  double now = queue_.now();
  std::uint64_t next_seq = queue_.next_seq();
  std::size_t high_water = queue_.high_water();
  std::vector<SavedEvent> events;
  if constexpr (!Io::kLoading) events = queue_.save_events();
  io(now);
  io(next_seq);
  io(high_water);
  io.vec(events, [&](auto& e) {
    io(e.time);
    io(e.seq);
    io.in(e.desc.kind, EventDesc::Kind::kArrival, EventDesc::Kind::kWake,
          "event kind");
    io(e.desc.a);
    io(e.desc.b);
    io(e.desc.t);
  });

  // Tasks. Only a waking or running task holds processors, so only its
  // list is written; `col` and `latest_start_s` are derived. A loaded spec
  // must pass validate_task, the rule prepare() and admit() apply.
  io.vec(tasks_, [&](auto& t) {
    task_fields(io, t.spec);
    if constexpr (Io::kLoading) validate_task(t.spec, nprocs);
    io.in(t.state, TaskState::kPending, TaskState::kWaking, "task state");
    if (t.state == TaskState::kRunning || t.state == TaskState::kWaking) {
      io.vec(t.procs, nprocs,
             [&](auto& p) { io.index(p, nprocs, "task processor"); });
      io.check(t.procs.size() == t.spec.cpus,
               "task processor list disagrees with its width");
    }
    io(t.start_s);
    io(t.version);
    io(t.retries);
  });

  // The waiting tasks in arrival order; a load leaves their widths and
  // latest starts, and the index over them, to rebuild_derived().
  std::vector<std::size_t> waiting;
  if constexpr (!Io::kLoading) waiting = waiting_.tasks();
  io.vec(waiting, tasks_.size(),
         [&](auto& i) { io.index(i, tasks_.size(), "waiting task"); });
  if constexpr (Io::kLoading) waiting_.assign(waiting);

  // The running set: the matcher rows in start order, each with the
  // remaining work and level it owns, and the one progress time they are
  // integrated to. A load checks that the rows hold every running task
  // once and nothing else; rebuild_derived() fills in their tables.
  struct Row { std::size_t task; double remaining; std::size_t level; };
  std::vector<Row> rows;
  if constexpr (!Io::kLoading)
    for (std::size_t r = 0; r < cols_.count; ++r)
      rows.push_back({cols_.task[r], cols_.remaining[r], cols_.applied[r]});
  if constexpr (Io::kLoading) cols_.reset(levels, nprocs);
  io(cols_.progress_s);
  io.vec(rows, nprocs, [&](auto& row) {
    io.index(row.task, tasks_.size(), "row task");
    io(row.remaining);
    io.in(row.level, std::size_t{0}, levels - 1, "row level");
    if constexpr (Io::kLoading) {
      SimTask& t = tasks_[row.task];
      io.check(t.state == TaskState::kRunning,
               "a row holds a task that is not running");
      io.check(t.col == kNone, "a task is in two rows");
      t.col = cols_.append(row.task, row.remaining, t.spec.deadline_s);
      cols_.level[t.col] = cols_.applied[t.col] = row.level;
    }
  });
  if constexpr (Io::kLoading) {
    // The waiting list holds each waiting task once, and the rows each
    // running task once (checked as they load), and nothing else.
    std::vector<std::uint8_t> listed(tasks_.size(), 0);
    for (const std::size_t i : waiting)
      io.check(listed[i]++ == 0, "waiting list disagrees with the task states");
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const TaskState state = tasks_[i].state;
      io.check((state == TaskState::kWaiting) == (listed[i] != 0),
               "waiting list disagrees with the task states");
      io.check(state != TaskState::kRunning || tasks_[i].col != kNone,
               "a running task is missing from the rows");
    }
  }

  io.fixed(busy_time_s_, nprocs, io);
  profiling_.io(io);

  // Energy accounting. The meter and battery keep their accumulators
  // private: they cross through the accessors and restore_state().
  EnergySplit total = meter_.total();
  Joules curtailed = meter_.wind_curtailed();
  std::vector<PowerSample> trace = meter_.trace();
  io(total.wind);
  io(total.utility);
  io(curtailed);
  io.vec(trace, [&](auto& p) {
    io(p.time);
    io(p.demand);
    io(p.wind);
    io(p.utility);
    io(p.wind_avail);
    io(p.battery);
  });
  Joules stored = battery_.stored();
  Joules delivered = battery_.delivered();
  Joules absorbed = battery_.absorbed();
  io(stored);
  io(delivered);
  io(absorbed);
  io(demand_);
  io(last_accrual_s_);
  io(segment_wind_);

  // Run metrics.
  io(events_run_);
  io(rematch_count_);
  io(total_wait_s_);
  io(miss_count_);
  io(makespan_s_);
  io(rush_mode_);
  io.vec(timeline_, [&](auto& e) { timeline_fields(io, e); });

  fault_.io(io);
  // Thermal and sleep state travel whether or not either subsystem is on,
  // so the frame layout never depends on the config.
  thermal_.io(io);
  io(last_compute_);
  io(cooling_power_);
  io(cooling_joules_);
  sleep_.io(io);

  // The placement RNG stream (only kRandom ever draws from it, but saving
  // it unconditionally keeps the format scheme-independent).
  std::string rng = policy_.rng_state();
  io(rng);

  if constexpr (Io::kLoading) {
    meter_.restore_state(total, curtailed, std::move(trace));
    battery_ = BatteryBank(cfg.battery);
    battery_.restore_state(stored, delivered, absorbed);
    policy_.set_rng_state(rng);
    in_pass_ = false;
    // The heap layout is reinstalled verbatim, so the resumed pop order is
    // the uninterrupted run's; the chain flags are derived from it.
    for (const SavedEvent& e : events)
      io.check(event_in_range(e.desc), "event payload out of range");
    queue_.restore(now, next_seq, high_water, events);
    rebuild_derived();
  }
}

}  // namespace iscope
