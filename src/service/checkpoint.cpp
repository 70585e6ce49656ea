#include "service/checkpoint.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/serial.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace iscope {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// kNone is not representable losslessly through u64 on 32-bit size_t, so
/// it gets a dedicated sentinel on the wire.
constexpr std::uint64_t kNoneWire = ~std::uint64_t{0};
/// Hard element-count ceiling for every vector header in a checkpoint.
/// Generous (a simulation this large would not fit a checkpoint anyway)
/// but finite: a corrupt count fails in Reader::count, never in a resize.
constexpr std::size_t kMaxElems = std::size_t{1} << 28;

[[noreturn]] void reject(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

// A visit calls the adapter once per field, in wire order:
//   io(v)                     plain field
//   io.same(v, what)          identity: written, only compared on load
//   io.in(v, lo, hi, what)    loaded value must lie in [lo, hi]
//   io.index(v, limit, what)  index below `limit`
//   io.index_or_none(...)     the same, or kNone
//   io.counter(v, recount, what)  duplicate of other state: loaded value
//                             must equal recount()
//   io.vec(v, cap, each)      length-prefixed; loaded length <= cap
//   io.fixed(v, n, each)      exactly n elements, length not written
// Integral fields travel as u64, bytes and enums as u8, bools as b, and
// doubles and quantities (watts, joules, seconds) as f64.

/// Writer adapter: every call emits its field.
class Save {
 public:
  static constexpr bool kLoading = false;
  explicit Save(serial::Writer& w) : w_(w) {}

  template <class T>
  void operator()(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.b(v);
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
      static_assert(sizeof(T) == 1, "enums travel as one byte");
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      w_.f64(v);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      w_.i64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_unsigned_v<T>) {
      w_.u64(v);
    } else if constexpr (std::is_same_v<T, Watts>) {
      w_.f64(v.watts());
    } else if constexpr (std::is_same_v<T, Joules>) {
      w_.f64(v.joules());
    } else {
      static_assert(std::is_same_v<T, Seconds>, "no wire encoding for T");
      w_.f64(v.seconds());
    }
  }
  template <class T>
  void same(const T& v, const char*) {
    (*this)(v);
  }
  template <class T>
  void in(const T& v, T, T, const char*) {
    (*this)(v);
  }
  void index(std::size_t v, std::size_t, const char*) { w_.u64(v); }
  void index_or_none(std::size_t v, std::size_t, const char*) {
    w_.u64(v == kNone ? kNoneWire : v);
  }
  template <class Recount>
  void counter(std::size_t v, Recount&&, const char*) {
    w_.u64(v);
  }
  template <class V, class Each>
  void vec(const V& v, std::size_t, Each&& each) {
    w_.u64(v.size());
    for (const auto& e : v) each(e);
  }
  template <class V, class Each>
  void fixed(const V& v, std::size_t, Each&& each) {
    for (const auto& e : v) each(e);
  }

 private:
  serial::Writer& w_;
};

/// Reader adapter: every call reads its field and applies its check.
class Load {
 public:
  static constexpr bool kLoading = true;
  explicit Load(serial::Reader& r) : r_(r) {}

  template <class T>
  void operator()(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.b();
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
      v = static_cast<T>(r_.u8());
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.f64();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      v = r_.i64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.str();
    } else if constexpr (std::is_unsigned_v<T>) {
      v = static_cast<T>(r_.u64());
    } else {
      v = T{r_.f64()};  // a dimensioned quantity
    }
  }
  template <class T>
  void same(const T& v, const char* what) {
    T got{};
    (*this)(got);
    if (got != v)
      reject(std::string("identity mismatch -- the restoring simulator was "
                         "built with a different ") +
             what);
  }
  template <class T>
  void in(T& v, T lo, T hi, const char* what) {
    (*this)(v);
    if (v < lo || v > hi) reject(std::string(what) + " out of range");
  }
  void index(std::size_t& v, std::size_t limit, const char* what) {
    (*this)(v);
    if (v >= limit) reject(std::string(what) + " index out of range");
  }
  void index_or_none(std::size_t& v, std::size_t limit, const char* what) {
    const std::uint64_t raw = r_.u64();
    if (raw == kNoneWire) {
      v = kNone;
      return;
    }
    if (raw >= limit) reject(std::string(what) + " index out of range");
    v = static_cast<std::size_t>(raw);
  }
  template <class Recount>
  void counter(std::size_t& v, Recount&& recount, const char* what) {
    (*this)(v);
    if (v != recount())
      reject(std::string(what) + " does not match the state it counts");
  }
  template <class V, class Each>
  void vec(V& v, std::size_t cap, Each&& each) {
    // Every element takes at least one byte, so the unread payload bounds
    // the length before anything is allocated.
    v.clear();
    v.resize(r_.count(std::min(cap, r_.remaining())));
    for (auto& e : v) each(e);
  }
  template <class V, class Each>
  void fixed(V& v, std::size_t n, Each&& each) {
    v.assign(n, typename V::value_type{});
    for (auto& e : v) each(e);
  }

 private:
  serial::Reader& r_;
};

}  // namespace

// ---------------------------------------------------------------------------
// DatacenterSim
// ---------------------------------------------------------------------------

template <class Io, class Sim>
  requires std::same_as<std::remove_const_t<Sim>, DatacenterSim>
void CheckpointAccess::visit(Io& io, Sim& s) {
  using State = DatacenterSim::TaskState;
  const std::size_t nprocs = s.knowledge_->procs();
  const std::size_t levels = s.knowledge_->levels();
  const SimConfig& cfg = s.config_;
  const auto flags = [&](auto& v, const char* what) {
    io.fixed(v, nprocs, [&](auto& f) {
      io.in(f, std::uint8_t{0}, std::uint8_t{1}, what);
    });
  };
  const auto proc_list = [&](auto& v, const char* what) {
    io.vec(v, nprocs, [&](auto& p) { io.index(p, nprocs, what); });
  };
  const auto tasks_in = [&s](State state) {
    return static_cast<std::size_t>(
        std::count_if(s.tasks_.begin(), s.tasks_.end(),
                      [state](const auto& t) { return t.state == state; }));
  };

  // Identity block. The full construction config is the restoring caller's
  // responsibility; these catch the mismatches that would otherwise
  // corrupt silently. The thermal and sleep knobs (format v2) shape event
  // semantics -- COP curve, wake latencies -- and are all defaults when
  // both subsystems are off.
  io.same(nprocs, "processor count");
  io.same(levels, "DVFS level count");
  io.same(s.policy_.rule(), "placement rule");
  io.same(cfg.seed, "seed");
  io.same(s.faults_active_, "fault plan");
  io.same(cfg.use_reference_matcher, "matcher path");
  // Always 1: the byte keeps v2 checkpoints byte-identical.
  io.same(true, "rematch mode");
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
  io.same(s.thermal_external_, "thermal coordination mode");

  // Event queue, in the heap's raw vector order. A load stages it and
  // reinstalls it last, once the state its payloads index is in place.
  double now = s.queue_.now();
  std::uint64_t next_seq = s.queue_.next_seq();
  std::size_t high_water = s.queue_.high_water();
  std::vector<SavedEvent> events;
  if constexpr (!Io::kLoading) events = s.queue_.save_events();
  io(now);
  io(next_seq);
  io(high_water);
  io.vec(events, kMaxElems, [&](auto& e) {
    io(e.time);
    io(e.seq);
    io.in(e.desc.kind, EventDesc::Kind::kArrival, EventDesc::Kind::kWake,
          "event kind");
    io(e.desc.a);
    io(e.desc.b);
    io(e.desc.t);
  });

  // Tasks. `col` and `latest_start_s` are derived and not written.
  io.vec(s.tasks_, kMaxElems, [&](auto& t) {
    io(t.spec.id);
    io(t.spec.submit_s);
    io.in(t.spec.cpus, std::size_t{1}, nprocs, "task width");
    io(t.spec.runtime_s);
    io(t.spec.gamma);
    io(t.spec.deadline_s);
    io.in(t.spec.urgency, Urgency::kHigh, Urgency::kLow, "task urgency");
    proc_list(t.procs, "task processor");
    io(t.remaining_work_s);
    io(t.last_update_s);
    io.in(t.level, std::size_t{0}, levels - 1, "task level");
    io(t.start_s);
    io(t.version);
    io(t.completion_scheduled);
    io.index_or_none(t.run_prev, s.tasks_.size(), "run-list");
    io.index_or_none(t.run_next, s.tasks_.size(), "run-list");
    io.in(t.state, State::kPending, State::kWaking, "task state");
    io(t.retries);
  });

  io.vec(s.waiting_, s.tasks_.size(), [&](auto& i) {
    io.index(i, s.tasks_.size(), "waiting task");
  });
  io.counter(s.waiting_cpus_, [&s] {
    std::size_t cpus = 0;
    for (const std::size_t i : s.waiting_) cpus += s.tasks_[i].spec.cpus;
    return cpus;
  }, "waiting width");
  io.fixed(s.proc_running_, nprocs, [&](auto& i) {
    io.index_or_none(i, s.tasks_.size(), "running task");
  });
  io.fixed(s.busy_time_s_, nprocs, io);
  flags(s.idle_flags_, "idle flag");
  io.counter(s.idle_count_, [&s] {
    return static_cast<std::size_t>(std::count(s.idle_flags_.begin(),
                                               s.idle_flags_.end(), 1));
  }, "idle count");
  io.index_or_none(s.run_head_, s.tasks_.size(), "run-list head");
  io.index_or_none(s.run_tail_, s.tasks_.size(), "run-list tail");
  io.counter(s.run_count_, [&s] {
    // Walk the list as rebuild_derived() will: bounded (a cycle is
    // corrupt), running tasks only, links consistent in both directions.
    std::size_t walked = 0;
    std::size_t prev = kNone;
    for (std::size_t idx = s.run_head_; idx != kNone;
         idx = s.tasks_[idx].run_next) {
      if (++walked > s.tasks_.size()) reject("running list is cyclic");
      if (s.tasks_[idx].state != State::kRunning)
        reject("run list holds a non-running task");
      if (s.tasks_[idx].run_prev != prev) reject("run-list links disagree");
      prev = idx;
    }
    if (prev != s.run_tail_) reject("run-list tail disagrees with the walk");
    return walked;
  }, "running count");

  // Profiling: the plan, the live-scan slots, and the counters.
  flags(s.reserved_, "reserved flag");
  io(s.reserved_power_);
  io(s.profiling_proc_seconds_);
  io(s.profiling_procs_scanned_);
  io(s.profiling_procs_skipped_);
  io.vec(s.profiling_, kMaxElems, [&](auto& win) {
    io(win.start_s);
    io(win.duration_s);
    proc_list(win.proc_ids, "profiling processor");
  });
  io.vec(s.scans_, kMaxElems, [&](auto& scan) {
    proc_list(scan.procs, "scan processor");
    io(scan.started_s);
    io(scan.live);
  });
  io(s.epoch_chain_live_);
  io(s.sample_chain_live_);

  // Energy accounting. The meter and battery keep their accumulators
  // private: they cross through the accessors and restore_state().
  EnergySplit total = s.meter_.total();
  Joules curtailed = s.meter_.wind_curtailed();
  std::vector<PowerSample> trace = s.meter_.trace();
  io(total.wind);
  io(total.utility);
  io(curtailed);
  io.vec(trace, kMaxElems, [&](auto& p) {
    io(p.time);
    io(p.demand);
    io(p.wind);
    io(p.utility);
    io(p.wind_avail);
    io(p.battery);
  });
  Joules stored = s.battery_.stored();
  Joules delivered = s.battery_.delivered();
  Joules absorbed = s.battery_.absorbed();
  io(stored);
  io(delivered);
  io(absorbed);
  io(s.demand_);
  io(s.last_accrual_s_);
  io(s.segment_wind_);

  // Run metrics.
  io.counter(s.done_count_, [&] { return tasks_in(State::kDone); },
             "completed-task count");
  io(s.events_run_);
  io(s.rematch_count_);
  io(s.total_wait_s_);
  io(s.miss_count_);
  io(s.makespan_s_);
  io(s.rush_mode_);
  io.vec(s.timeline_, kMaxElems, [&](auto& e) {
    io(e.time_s);
    io.in(e.kind, TimelineKind::kArrival, TimelineKind::kTaskWaking,
          "timeline kind");
    io(e.task_id);
    io(e.value);
  });

  // Fault state. The plan itself is identity (rebuilt from the config);
  // the pending kFault event carries the cursor.
  flags(s.failed_, "failed flag");
  flags(s.misprofile_armed_, "misprofile flag");
  io.fixed(s.misprofile_token_, nprocs, io);
  io.counter(s.failed_count_, [&] { return tasks_in(State::kFailed); },
             "failed-task count");
  io(s.fault_counters_.cpu_failures);
  io(s.fault_counters_.cpu_repairs);
  io(s.fault_counters_.misprofile_failures);
  io(s.fault_counters_.task_requeues);
  io(s.fault_counters_.tasks_failed);
  io(s.fault_counters_.lost_cpu_seconds);
  io(s.fault_counters_.fault_deadline_misses);

  // Thermal + sleep state (format v2), written whether or not either
  // subsystem is on, so the frame layout never depends on the config.
  io(s.thermal_chain_live_);
  io(s.cop_now_);
  io(s.supply_c_now_);
  io(s.peak_inlet_c_);
  io(s.thermal_pending_);
  io(s.pending_cop_);
  io(s.pending_supply_c_);
  io(s.pending_peak_c_);
  io(s.last_compute_);
  io(s.cooling_power_);
  io(s.cooling_joules_);
  io(s.idle_joules_);
  io(s.idle_power_w_);
  const auto ladder = static_cast<std::uint8_t>(cfg.sleep.states.size());
  io.fixed(s.sleep_state_, nprocs, [&](auto& depth) {
    io.in(depth, std::uint8_t{0}, ladder, "sleep depth");
  });
  io.fixed(s.sleep_token_, nprocs, io);
  io(s.sleeping_count_);
  io(s.sleep_enters_);
  io(s.sleep_wakes_);

  // The placement RNG stream (only kRandom ever draws from it, but saving
  // it unconditionally keeps the format scheme-independent).
  std::string rng = s.policy_.rng_state();
  io(rng);

  if constexpr (Io::kLoading) {
    s.meter_.restore_state(total, curtailed, std::move(trace));
    s.battery_ = BatteryBank(cfg.battery);
    s.battery_.restore_state(stored, delivered, absorbed);
    s.policy_.set_rng_state(rng);
    s.in_pass_ = false;
    s.rebuild_derived();
    // Events go back last: their payloads index the state restored above.
    // The heap layout is reinstalled verbatim, so the resumed pop order is
    // the uninterrupted run's.
    for (const SavedEvent& e : events)
      if (!s.event_in_range(e.desc)) reject("event payload out of range");
    s.queue_.restore(now, next_seq, high_water, events);
  }
}

// ---------------------------------------------------------------------------
// ShardedSim
// ---------------------------------------------------------------------------

template <class Io, class Sim>
  requires std::same_as<std::remove_const_t<Sim>, ShardedSim>
void CheckpointAccess::visit(Io& io, Sim& s) {
  io.same(s.shards_.size(), "shard count");
  io.same(s.cluster_->size(), "cluster size");
  io.same(s.config_.seed, "seed");
  io(s.barrier_);
  for (auto& shard : s.shards_) {
    io(shard.tasks_assigned);
    double fraction = shard.supply->fraction();
    io(fraction);
    if constexpr (Io::kLoading) {
      shard.supply->set_fraction(fraction);
      visit(io, *shard.sim);
    } else {
      visit(io, std::as_const(*shard.sim));
    }
  }
  if constexpr (Io::kLoading) s.ensure_pool();
}

// ---------------------------------------------------------------------------
// Envelope + file helpers
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kKindSingle = 0;
constexpr std::uint8_t kKindSharded = 1;

template <typename Sim>
std::vector<std::uint8_t> envelope(const Sim& sim, std::uint8_t kind) {
  serial::Writer w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u8(kind);
  Save io(w);
  CheckpointAccess::visit(io, sim);
  return w.take();
}

template <typename Sim>
void restore_envelope(Sim& sim, const std::uint8_t* data, std::size_t size,
                      std::uint8_t kind) {
  try {
    serial::Reader r(data, size);
    if (r.u32() != kCheckpointMagic)
      throw CheckpointError("checkpoint: bad magic (not a checkpoint file)");
    const std::uint32_t version = r.u32();
    if (version != kCheckpointVersion)
      throw CheckpointError("checkpoint: format version " +
                            std::to_string(version) +
                            " is not supported by this build (expected " +
                            std::to_string(kCheckpointVersion) + ")");
    if (r.u8() != kind)
      throw CheckpointError(
          "checkpoint: simulator kind mismatch (single vs sharded)");
    Load io(r);
    CheckpointAccess::visit(io, sim);
    r.expect_done();
  } catch (const CheckpointError&) {
    throw;
  } catch (const Error& e) {
    // Truncation and lying length prefixes surface as serial over-reads
    // (ParseError); corrupt-but-well-framed values can also trip deeper
    // invariant checks (e.g. Rng rejecting a mangled engine state, or the
    // event queue a non-heap layout). Fold them all into the checkpoint
    // failure type callers handle.
    throw CheckpointError(std::string("checkpoint: corrupt payload -- ") +
                          e.what());
  }
}

}  // namespace

std::vector<std::uint8_t> checkpoint_bytes(const DatacenterSim& sim) {
  return envelope(sim, kKindSingle);
}

std::vector<std::uint8_t> checkpoint_bytes(const ShardedSim& sim) {
  return envelope(sim, kKindSharded);
}

void restore_from_bytes(DatacenterSim& sim, const std::uint8_t* data,
                        std::size_t size) {
  restore_envelope(sim, data, size, kKindSingle);
}

void restore_from_bytes(ShardedSim& sim, const std::uint8_t* data,
                        std::size_t size) {
  restore_envelope(sim, data, size, kKindSharded);
}

void write_checkpoint(const std::string& path,
                      const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  ISCOPE_CHECK_ARG(f != nullptr, "checkpoint: cannot open " + tmp);
  const bool written =
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool flushed = std::fflush(f) == 0;
  // A failed close can lose buffered bytes: it is a short write too.
  const bool closed = std::fclose(f) == 0;
  if (!written || !flushed || !closed) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: short write to " + tmp);
  }
  // Atomic replace: a crash mid-write leaves the previous checkpoint.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::uint8_t> read_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw CheckpointError("checkpoint: cannot open " + path);
  // Size from fstat, not fseek/ftell: opening a directory succeeds on
  // Linux, and its "size" must be refused, not allocated.
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    throw CheckpointError("checkpoint: not a regular file: " + path);
  }
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(st.st_size));
  const std::size_t got = std::fread(blob.data(), 1, blob.size(), f);
  std::fclose(f);
  if (got != blob.size())
    throw CheckpointError("checkpoint: short read from " + path);
  return blob;
}

}  // namespace iscope
