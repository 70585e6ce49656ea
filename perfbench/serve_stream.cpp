// serve_stream: one client drives the real iscope_serve daemon (--scale 8,
// ScanFair, --thermal --sleep-policy timeout) over one pipelined unix
// socket connection. The load is open loop: each ADMIT is due at its
// task's submit time, an ADVANCE every 60 simulated seconds and a
// CHECKPOINT every 2 simulated hours, all mapped to host time by a fixed
// ratio; after the last arrival the client drains the queue and asks for
// the result. It is the only workload that exercises the poll loop, the
// wire codecs, checkpoint encode and write, and sleep transitions, and it
// drives DatacenterSim by streaming admission in step_until slices instead
// of one batch drain.
//
// An in-process twin (a SimHost built from the same flags) replays the
// same admissions and slices first; the daemon's streamed decisions,
// RESULT summary and final checkpoint must equal the twin's.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "serve_client.hpp"
#include "service/checkpoint.hpp"
#include "service/server.hpp"
#include "spans.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace iscope;
using service::MsgType;

constexpr double kAdvanceS = 60.0;      // simulated seconds per ADVANCE
constexpr double kCheckpointS = 7200.0; // simulated seconds per CHECKPOINT
/// Simulated seconds per host second. Fixed, not adapted to the machine:
/// at this ratio the daemon was busy about a quarter to a third of the
/// stream's wall time on the machine the benchmark was written on.
constexpr double kSimPerHostS = 40000.0;
/// Host seconds one stream takes there: spawn, the paced stream, drain,
/// and the twin's replay. The pacing fixes a stream's length, so a run's
/// stream count follows from --seconds alone and the traces a seed covers
/// do not depend on host speed.
constexpr double kStreamBudgetS = 2.6;
/// Reference units after each stream, once its daemon has exited, so the
/// yardstick runs while nothing else of the benchmark does.
constexpr std::size_t kRefUnitsPerStream = 16;

std::vector<std::string> daemon_args(const std::string& socket,
                                     const std::string& checkpoint) {
  return {"--socket", socket,       "--scheme",       "ScanFair",
          "--scale",  "8",          "--thermal",      "--sleep-policy",
          "timeout",  "--checkpoint", checkpoint};
}

/// The twin's replay of one stream: the same admissions, ADVANCE slices,
/// checkpoints and final drain the daemon receives.
struct Replay {
  SimResult result;
  double run_s = 0.0;
  Samples slices_s;
  std::vector<std::vector<std::uint8_t>> checkpoints;
};

Replay replay(DatacenterSim& sim, const std::vector<Task>& tasks,
              std::size_t advances, const std::string& checkpoint_path) {
  Replay out;
  const Clock::time_point t0 = Clock::now();
  sim.prepare({}, {});
  std::size_t next = 0;
  for (std::size_t k = 1; k <= advances; ++k) {
    const double t = static_cast<double>(k) * kAdvanceS;
    while (next < tasks.size() && tasks[next].submit_s <= t) sim.admit(tasks[next++]);
    const Clock::time_point s0 = Clock::now();
    {
      ISCOPE_SPAN("bench.step");
      sim.step_until(t);
    }
    out.slices_s.add(seconds_since(s0));
    if (std::fmod(t, kCheckpointS) == 0.0) {
      std::vector<std::uint8_t> blob;
      {
        ISCOPE_SPAN("bench.ckpt_encode");
        blob = checkpoint_bytes(sim);
      }
      {
        ISCOPE_SPAN("bench.ckpt_write");
        write_checkpoint(checkpoint_path, blob);
      }
      out.checkpoints.push_back(std::move(blob));
    }
  }
  {
    ISCOPE_SPAN("bench.drain");
    sim.advance_before(std::numeric_limits<double>::infinity());
  }
  {
    ISCOPE_SPAN("bench.finish");
    out.result = sim.finish();
  }
  out.run_s = seconds_since(t0);
  return out;
}

std::vector<Request> make_schedule(const std::vector<Task>& tasks,
                                   std::size_t advances) {
  std::vector<Request> schedule;
  std::size_t next = 0;
  for (std::size_t k = 1; k <= advances; ++k) {
    const double t = static_cast<double>(k) * kAdvanceS;
    for (; next < tasks.size() && tasks[next].submit_s <= t; ++next)
      schedule.push_back(Request{MsgType::kAdmit, tasks[next].submit_s / kSimPerHostS,
                                 service::encode_admit(tasks[next])});
    schedule.push_back(
        Request{MsgType::kAdvance, t / kSimPerHostS, service::encode_advance(t)});
    if (std::fmod(t, kCheckpointS) == 0.0)
      schedule.push_back(
          Request{MsgType::kCheckpoint, t / kSimPerHostS, service::encode_text("")});
  }
  return schedule;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

/// The stream's inputs and the twin's expected outputs.
struct Plan {
  std::vector<Task> tasks;
  std::size_t advances = 0;
  std::vector<Request> schedule;
  Replay expected;
};

struct StreamRun {
  double setup_s = 0.0;  ///< spawn -> readiness line
  double cpu_s = 0.0;    ///< daemon on-CPU time from HELLO to RESULT
  double rss_mb = 0.0;
  double wall_s = 0.0;
  StreamStats stats;
  service::ResultSummary summary;
  std::size_t frames = 0;
  std::size_t mismatched = 0;  ///< streamed decisions unlike the twin's
};

bool same_summary(const service::ResultSummary& s, const SimResult& r) {
  return s.wind_j == r.energy.wind.joules() &&
         s.utility_j == r.energy.utility.joules() &&
         s.curtailed_j == r.wind_curtailed.joules() &&
         s.battery_delivered_j == r.battery_delivered.joules() &&
         s.battery_losses_j == r.battery_losses.joules() &&
         s.cost_usd == r.cost.dollars() && s.tasks_completed == r.tasks_completed &&
         s.deadline_misses == r.deadline_misses &&
         s.mean_wait_s == r.mean_wait.seconds() &&
         s.makespan_s == r.makespan.seconds() &&
         s.events_processed == r.events_processed &&
         s.rematches == r.dvfs_rematch_count &&
         s.task_requeues == r.faults.task_requeues &&
         s.tasks_failed == r.faults.tasks_failed;
}

/// Spawn a daemon, stream the plan through it, drain, collect the result
/// and shut it down. Checks the outputs against the twin.
StreamRun run_stream(const Options& opts, const Plan& plan, std::size_t index,
                     Report& report) {
  const std::string base = opts.work_dir + "/serve-" + std::to_string(::getpid()) +
                           "-" + std::to_string(index);
  const std::string socket = base + ".sock";
  const std::string checkpoint = base + ".ckpt";
  const std::vector<TimelineEvent>& expect = plan.expected.result.timeline;
  StreamRun run;
  std::size_t seen = 0;
  auto on_decision = [&](const TimelineEvent& e) {
    if (seen >= expect.size() || e.time_s != expect[seen].time_s ||
        e.kind != expect[seen].kind || e.task_id != expect[seen].task_id ||
        e.value != expect[seen].value)
      ++run.mismatched;
    ++seen;
  };
  // HELLO, the schedule, DRAIN, RESULT and SHUTDOWN.
  run.frames = plan.schedule.size() + 4;
  report.attempt(run.frames);
  try {
    const Clock::time_point spawned = Clock::now();
    ServeProcess daemon(opts.serve_bin, daemon_args(socket, checkpoint));
    if (!daemon.wait_ready(60.0)) throw std::runtime_error("daemon never became ready");
    run.setup_s = seconds_since(spawned);
    StreamClient client(socket);
    client.call(MsgType::kHello, service::encode_hello(), MsgType::kHelloOk);
    const double cpu0 = cpu_seconds(daemon.pid());
    const Clock::time_point t0 = Clock::now();
    const double span_s = plan.schedule.back().due_s;
    run.stats = client.run(plan.schedule, span_s + 30.0, on_decision);
    client.call(MsgType::kDrain, {}, MsgType::kDrained, on_decision);
    run.summary = service::parse_result_summary(
        client.call(MsgType::kResult, {}, MsgType::kResultSummary).payload);
    run.wall_s = seconds_since(t0);
    run.cpu_s = cpu_seconds(daemon.pid()) - cpu0;
    run.rss_mb = vm_hwm_mb(daemon.pid());
    client.call(MsgType::kShutdown, {}, MsgType::kShutdownOk);
    report.check(daemon.wait_exit(10.0) == 0, "daemon did not exit cleanly");
  } catch (const std::exception& e) {
    report.check(false, std::string("stream aborted: ") + e.what(), run.frames);
    ::unlink(checkpoint.c_str());
    ::unlink(socket.c_str());
    return run;
  }
  const StreamStats& st = run.stats;
  const std::string label = "stream " + std::to_string(index) + ": ";
  report.check(st.busy + st.errors + st.unanswered == 0,
               label + std::to_string(st.busy) + " BUSY, " +
                   std::to_string(st.errors) + " ERR/unexpected, " +
                   std::to_string(st.unanswered) + " unanswered frames",
               st.busy + st.errors + st.unanswered);
  report.check(run.mismatched == 0 && seen == expect.size(),
               label + "streamed decisions differ from the twin's timeline (" +
                   std::to_string(run.mismatched) + " of " + std::to_string(seen) +
                   " vs " + std::to_string(expect.size()) + ")",
               std::max<std::size_t>(run.mismatched, 1));
  report.check(same_summary(run.summary, plan.expected.result),
               label + "RESULT summary differs from the twin's SimResult");
  report.check(run.summary.tasks_completed + run.summary.tasks_failed ==
                   plan.tasks.size(),
               label + "completed + abandoned != submitted");
  // The daemon's last checkpoint is the twin's state at the same instant.
  report.check(!plan.expected.checkpoints.empty() &&
                   read_file(checkpoint) == plan.expected.checkpoints.back(),
               label + "daemon checkpoint differs from the twin's");
  ::unlink(checkpoint.c_str());
  return run;
}

/// The daemon's own flag parser builds the twin's options, so both sides
/// are constructed identically.
std::unique_ptr<service::SimHost> make_twin(const Options& opts) {
  return std::make_unique<service::SimHost>(service::parse_service_args(
      daemon_args(opts.work_dir + "/twin.sock", opts.work_dir + "/twin.ckpt")));
}

/// Stream `index` of a run deals its own trace from the run's seed.
Plan make_plan(std::uint64_t seed, std::size_t index, const service::SimHost& twin) {
  Plan plan;
  {
    ISCOPE_SPAN("bench.make_tasks");
    const ExperimentContext& ctx = twin.context();
    plan.tasks = make_tasks(ctx.config(), ctx.cluster().size(),
                            Rng(seed).fork("stream " + std::to_string(index)).seed(),
                            ctx.config().urgency.hu_fraction);
  }
  // Stream until the last arrival; the drain runs the rest.
  plan.advances =
      static_cast<std::size_t>(std::ceil(plan.tasks.back().submit_s / kAdvanceS));
  plan.schedule = make_schedule(plan.tasks, plan.advances);
  return plan;
}

std::string twin_checkpoint_path(const Options& opts) {
  return opts.work_dir + "/twin-" + std::to_string(::getpid()) + ".ckpt";
}

void end_to_end(const Options& opts, Report& report) {
  const std::unique_ptr<service::SimHost> twin = make_twin(opts);
  const std::size_t streams =
      std::max<std::size_t>(2, static_cast<std::size_t>(opts.seconds / kStreamBudgetS));
  // Each stream deals its own trace, so a run averages the simulated
  // outcome over several traces; the twin replays each before it streams.
  ReferenceKernel ref;
  std::vector<StreamRun> runs;
  std::size_t tasks = 0;
  for (std::size_t i = 0; i < streams; ++i) {
    Plan plan = make_plan(opts.seed, i, *twin);
    report.attempt(1);
    plan.expected = replay(twin->sim(), plan.tasks, plan.advances,
                           twin_checkpoint_path(opts));
    ::unlink(twin_checkpoint_path(opts).c_str());
    runs.push_back(run_stream(opts, plan, i, report));
    tasks += plan.tasks.size();
    ref.sample(kRefUnitsPerStream);
  }

  // Latency percentiles per stream, then the median over streams: a
  // stream that met a burst of host load moves the result by one rank.
  // The daemon's peak is no timing but a property of each stream's trace,
  // and steps where a container doubles its capacity, so it is averaged
  // over the streams like the bill: a median would jump between steps.
  Samples setup_s, cpu_s, rss, admit_p50, admit_p99, checkpoint_p50, late_p99,
      advance_p50, advance_p99;
  double cost = 0.0, wait = 0.0, missed = 0.0;
  for (const StreamRun& r : runs) {
    setup_s.add(r.setup_s);
    cpu_s.add(r.cpu_s);
    rss.add(r.rss_mb);
    admit_p50.add(r.stats.admit_s.median());
    admit_p99.add(r.stats.admit_s.quantile(0.99));
    checkpoint_p50.add(r.stats.checkpoint_s.median());
    late_p99.add(r.stats.late_s.quantile(0.99));
    advance_p50.add(r.stats.advance_s.median());
    advance_p99.add(r.stats.advance_s.quantile(0.99));
    cost += r.summary.cost_usd / static_cast<double>(runs.size());
    wait += r.summary.mean_wait_s / static_cast<double>(runs.size());
    missed += static_cast<double>(r.summary.deadline_misses + r.summary.tasks_failed);
  }
  report.note(metric::kRun, cpu_s.median(), "s",
              "daemon on-CPU time, HELLO -> RESULT, median over streams");
  report.note("reference_unit_ms", ref.unit_cpu_s() * 1e3, "ms",
              "on-CPU, median of " + std::to_string(ref.samples()) + " units");
  report.note("streams", static_cast<double>(runs.size()), "count");
  report.note("frames_per_stream", static_cast<double>(runs.front().frames), "count");
  report.note("decisions_per_stream", static_cast<double>(runs.front().stats.decisions), "count");
  report.note("stream_wall_s", runs.front().wall_s, "s");
  report.note("daemon_busy_frac", cpu_s.median() / runs.front().wall_s, "ratio");
  report.note("admit_p50_us", admit_p50.median() * 1e6, "us",
              "ADMIT due -> ADMIT_OK, per stream then median");
  report.note("admit_p99_us", admit_p99.median() * 1e6, "us");
  report.note("decision_p50_ms", advance_p50.median() * 1e3, "ms",
              "ADVANCE due -> its decisions and ADVANCE_DONE");
  report.note("decision_p99_ms", advance_p99.median() * 1e3, "ms");
  report.note("checkpoint_p50_ms", checkpoint_p50.median() * 1e3, "ms",
              "CHECKPOINT due -> CHECKPOINT_OK");
  report.note("client_late_p99_ms", late_p99.median() * 1e3, "ms");
  report.note("mean_wait_s", wait, "s", "simulated submit -> start, mean over streams");
  report.note("deadline_miss_frac", missed / static_cast<double>(tasks), "ratio",
              "misses + abandoned over submitted (simulated)");

  report.metric(metric::kSetup, setup_s.median(), "s");
  report.metric(metric::kRunVsRef, cpu_s.median() / ref.unit_cpu_s(), "ratio");
  report.metric(metric::kRss, rss.mean(), "MB");
  report.metric(metric::kCost, cost, "USD");
}

void traced(const Options& opts, Report& report) {
  SpanHarvest harvest({"bench.step"});
  SpanHarvest::enable();
  const std::unique_ptr<service::SimHost> twin = make_twin(opts);
  Plan plan = make_plan(opts.seed, 0, *twin);
  const ExperimentConfig& cfg = twin->context().config();
  const std::size_t trials = trace_setup_layers(cfg, twin->context(), report);
  harvest.harvest("setup");

  const std::string twin_ckpt = twin_checkpoint_path(opts);
  SpanHarvest::disable();
  report.attempt(2);
  const Replay plain = replay(twin->sim(), plan.tasks, plan.advances, twin_ckpt);
  telemetry::set_enabled(true);
  plan.expected = replay(twin->sim(), plan.tasks, plan.advances, twin_ckpt);
  harvest.harvest("twin");
  ::unlink(twin_ckpt.c_str());
  report.check(digest(plain.result) == digest(plan.expected.result),
               "traced twin replay differs from the untraced one");

  const StreamRun run = run_stream(opts, plan, 0, report);
  harvest.harvest("client");

  // Restore each of the twin's checkpoints into the twin (the read path
  // beside the daemon's writes); re-encoding must give the same bytes.
  std::size_t restored_same = 0;
  for (const std::vector<std::uint8_t>& blob : plan.expected.checkpoints) {
    DatacenterSim& sim = twin->sim();
    sim.prepare({}, {});
    {
      ISCOPE_SPAN("bench.restore");
      restore_from_bytes(sim, blob.data(), blob.size());
    }
    if (checkpoint_bytes(sim) == blob) ++restored_same;
  }
  harvest.harvest("restore");
  SpanHarvest::disable();
  report.attempt(plan.expected.checkpoints.size());
  report.check(restored_same == plan.expected.checkpoints.size(),
               "a restored checkpoint re-encodes differently",
               plan.expected.checkpoints.size() - restored_same);

  const SimResult& r = plan.expected.result;
  TracedTotals t;
  t.trials = trials;
  t.events = static_cast<double>(r.events_processed);
  t.rematches = static_cast<double>(r.dvfs_rematch_count);
  t.untraced_run_s = plain.run_s;
  t.traced_run_s = plan.expected.run_s;
  const SpanTotals step = harvest.get("bench.step", "twin");
  const SpanTotals frame_next = harvest.get("bench.frame_next", "client");
  const SpanTotals parse = harvest.get("bench.parse", "client");
  const double decision_p50_ms = run.stats.advance_s.median() * 1e3;
  Layers l;
  set_shared_layers(harvest, t, report, l);
  l.set("sim.slice_p50_us", step.durations_s.median() * 1e6);
  l.set("sim.slice_p99_us", step.durations_s.quantile(0.99) * 1e6);
  l.set("sched.rematch_self_s.wind", harvest.all("rematch").self_s);
  l.set("thermal.cooling_kwh", r.cooling_energy.kwh());
  l.set("thermal.peak_inlet_c", r.peak_inlet_c);
  l.set("sleep.enters", static_cast<double>(r.sleep_enters));
  l.set("sleep.wakes", static_cast<double>(r.sleep_wakes));
  l.set("service.decisions", static_cast<double>(run.stats.decisions));
  l.set("service.busy_replies", static_cast<double>(run.stats.busy));
  // The daemon's share of an ADVANCE beyond the simulation slice itself
  // (the untraced twin's slice time): wire, poll loop and queueing.
  l.set("service.decision_p50_ms", decision_p50_ms);
  l.set("service.decision_p99_ms", run.stats.advance_s.quantile(0.99) * 1e3);
  l.set("service.share_p50_ms", decision_p50_ms - plain.slices_s.median() * 1e3);
  l.set("service.admit_p50_us", run.stats.admit_s.median() * 1e6);
  l.set("service.admit_p99_us", run.stats.admit_s.quantile(0.99) * 1e6);
  l.set("wire.decode_s", frame_next.total_s + parse.total_s);
  l.set("client.late_p99_ms", run.stats.late_s.quantile(0.99) * 1e3);
  l.set("checkpoint.pause_p50_ms", run.stats.checkpoint_s.median() * 1e3);
  l.set("checkpoint.bytes", static_cast<double>(plan.expected.checkpoints.back().size()));
  l.set("checkpoint.encode_ms",
        harvest.get("bench.ckpt_encode", "twin").durations_s.median() * 1e3);
  l.set("checkpoint.write_ms",
        harvest.get("bench.ckpt_write", "twin").durations_s.median() * 1e3);
  l.set("checkpoint.restore_ms",
        harvest.get("bench.restore", "restore").durations_s.median() * 1e3);
  l.emit(report);
}

}  // namespace

void run_serve_stream(const Options& opts, Report& report) {
  if (opts.trace)
    traced(opts, report);
  else
    end_to_end(opts, report);
}

}  // namespace perfbench
