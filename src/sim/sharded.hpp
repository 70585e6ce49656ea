// Sharded datacenter simulation: per-shard event loops under an
// epoch-barrier supply reconciliation (the 100k+-CPU path).
//
// The facility is partitioned along its rack topology (hardware/
// topology.hpp) into shards. Each shard is a complete DatacenterSim over
// its slice of processors: its own EventQueue, const Knowledge view, matcher
// rows (its running set), battery slice and energy meter. Shards
// simulate independently between supply epochs; at every barrier the
// coordinator reconciles their power demands against the global wind
// budget (energy/reconcile.hpp) and re-sets each shard's supply fraction
// for the next epoch. Shard advances between barriers fan out over a
// ThreadPool when SimConfig::shard_workers allows; a shard with no event
// before the next barrier is skipped. With the thermal model on, the
// coordinator also owns the one facility-wide ThermalModel: at every
// barrier it re-collects the rack power of shards that ran events (or were
// prepared or restored) since their last collection, solves once
// (memoized on the exact inputs), and stages the solution in every shard
// (DatacenterSim's public thermal coordination calls), whose own kThermal
// event applies it. A checkpoint holds the barrier and, per shard, its
// supply fraction and its simulator's state (its task count included).
//
// Determinism contract (tests/test_shard.cpp):
//  * a 1-shard ShardedSim is bit-identical to DatacenterSim::run() --
//    full Knowledge slice, supply fraction pinned to exactly 1.0, and
//    chunked event processing that pops the heap in the same order one
//    uninterrupted drain would;
//  * an N-shard run is a pure function of (inputs, seed): the reconciler
//    runs single-threaded in fixed shard order, per-shard RNG streams are
//    forked deterministically, and the aggregation sums per-shard results
//    in fixed shard order -- so results are independent of shard_workers.
#pragma once

#include <memory>
#include <vector>

#include "energy/hybrid_supply.hpp"
#include "hardware/topology.hpp"
#include "profiling/opportunistic.hpp"
#include "sched/scheme.hpp"
#include "sim/simulator.hpp"

namespace iscope {

/// Deterministic task partition: tasks in submit order greedily go to the
/// least-loaded shard (by assigned CPU-seconds relative to slice capacity)
/// among those whose slice fits the task's width; ties pick the lowest
/// shard index. Throws when a task is wider than every shard. With one
/// shard this is the identity (plus the submit sort every run performs).
std::vector<std::vector<Task>> partition_tasks(const std::vector<Task>& tasks,
                                               const Topology& topology);

/// Split global-id profiling windows into per-shard windows with
/// slice-local processor ids. Windows that touch no processor of a shard
/// are dropped for that shard. The windows must already be validated
/// against the facility (ShardedSim::prepare does).
std::vector<std::vector<ProfilingWindow>> partition_windows(
    const std::vector<ProfilingWindow>& profiling, const Topology& topology);

class ThreadPool;

class ShardedSim {
 public:
  /// run_scheme()'s sharded path: builds a Knowledge slice per shard for
  /// `scheme`. `config` is used as given -- run_scheme() applies the
  /// scheme's requests (apply_scheme_requests) before it gets here, and a
  /// direct caller may run ScanTherm's placement with the thermal model
  /// off. `config.topology` fixes the partition; `db` is required for
  /// Scan schemes. All references are non-owning and must outlive the
  /// simulator.
  ShardedSim(const Cluster& cluster, Scheme scheme, const ProfileDb* db,
             const HybridSupply& supply, const SimConfig& config);
  ~ShardedSim();

  /// Run the trace to completion and return the aggregated metrics.
  /// Equivalent to prepare() + advance_round() until drained + collect().
  SimResult run(const std::vector<Task>& tasks,
                const std::vector<ProfilingWindow>& profiling = {});

  /// --- resumable round API (service-mode checkpointing) ------------------
  /// Validate the windows against the facility, partition the trace, stage
  /// every shard, rewind the barrier to t = 0.
  void prepare(const std::vector<Task>& tasks,
               const std::vector<ProfilingWindow>& profiling = {});
  /// One epoch-barrier round: reconcile the global wind budget at the
  /// current barrier (fixed shard order, single-threaded), then advance
  /// every shard through events strictly before the next barrier. Returns
  /// the number of events run across shards.
  std::size_t advance_round();
  /// True when every shard's event queue drained.
  bool drained() const;
  /// True once prepare() has staged every shard (a restore needs it).
  bool prepared() const;
  /// The barrier the next advance_round() reconciles at.
  double barrier_s() const { return barrier_; }
  /// Finish every shard (fixed order) and aggregate. Requires drained().
  SimResult collect();

  const Topology& topology() const { return topology_; }

  /// The checkpointed state: identity, the barrier, and per shard its
  /// supply fraction and DatacenterSim::io(). Defined below.
  template <class Io>
  void io(Io& io);

 private:
  struct Shard {
    std::unique_ptr<const Knowledge> knowledge;
    std::unique_ptr<HybridSupply> supply;  ///< fraction re-set per epoch
    SimConfig config;
    std::unique_ptr<DatacenterSim> sim;
    /// The shard's racks in rack_w_ may be out of date: set at prepare(),
    /// checkpoint load and dispatch, cleared when the racks are collected.
    bool racks_stale = true;
  };

  SimResult aggregate(std::vector<SimResult> results) const;
  /// Lazily build the worker pool the round advances fan out over.
  void ensure_pool();

  const Cluster* cluster_;
  const HybridSupply* global_supply_;
  SimConfig config_;
  Topology topology_;
  std::vector<double> capacity_share_;  ///< slice size / facility size
  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> pool_;    ///< null when running serially
  double barrier_ = 0.0;                ///< next reconciliation instant
  /// Facility-wide thermal model (built only when config.thermal.enabled):
  /// the coordinator resolves it once per barrier over all shards' rack
  /// power and stages the solution in each shard, whose own kThermal
  /// event applies it -- reconcile_wind's pattern, so the result is
  /// independent of the shard/worker partition.
  std::unique_ptr<ThermalModel> thermal_model_;
  /// The facility-wide fault plan (kept for its CRAC derate window, which
  /// is a coordinator-level input: the shards' sliced plans only carry
  /// processor faults).
  std::shared_ptr<const FaultPlan> global_plan_;
  std::vector<double> rack_w_;          ///< rack watts as last collected
};

template <class Io>
void ShardedSim::io(Io& io) {
  io.same(shards_.size(), "shard count");
  io.same(cluster_->size(), "cluster size");
  io.same(config_.seed, "seed");
  io(barrier_);
  for (Shard& shard : shards_) {
    double fraction = shard.supply->fraction();
    io(fraction);
    if constexpr (Io::kLoading) shard.supply->set_fraction(fraction);
    shard.sim->io(io);
    if constexpr (Io::kLoading) shard.racks_stale = true;
  }
  if constexpr (Io::kLoading) ensure_pool();
}

}  // namespace iscope
