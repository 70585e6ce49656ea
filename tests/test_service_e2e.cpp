// End-to-end service-mode suite: spawns the real iscope_serve binary
// (ISCOPE_SERVE_BIN, injected by CMake) on a unix socket and drives it
// through the wire protocol. The batch comparator is built through the
// same SimHost type the daemon uses, with the same options -- identical
// construction by construction -- so every assertion below isolates the
// service path itself:
//
//  * the streamed decision sequence (ADMIT.. ADVANCE.. DRAIN) equals the
//    batch simulator's timeline on the same seed, bitwise;
//  * the RESULT summary equals the batch SimResult, bitwise;
//  * the README's ScanTherm daemon line streams run_scheme()'s decisions;
//  * /metrics counters cross-check the RESULT summary;
//  * SIGTERM checkpoints, a --resume daemon continues the decision stream
//    exactly where the first left off (splice == batch) -- including
//    admissions acknowledged but never ADVANCEd before the signal;
//  * a SIGKILL that lands while a checkpoint is being written leaves the
//    last complete checkpoint or the new one, and either resumes to the
//    batch result;
//  * CHECKPOINT frames snapshot the pending backlog too, and can only
//    write the operator-configured --checkpoint target;
//  * a fresh ADMIT after RESULT invalidates the cached summary;
//  * admission backpressure (BUSY) engages at --admit-capacity and clears
//    after an ADVANCE injects the backlog;
//  * malformed payloads get ERR without killing the connection; a broken
//    frame header gets ERR and a disconnect.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/serial.hpp"
#include "service/server.hpp"
#include "service_client.hpp"
#include "sim/simulator.hpp"
#include "workload/task.hpp"

namespace iscope::service {
namespace {

std::string socket_path(const std::string& tag) {
  // Unix socket paths are capped (~108 bytes); keep them short and unique.
  return "/tmp/iscope_e2e_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

ServiceOptions base_options(const std::string& tag) {
  ServiceOptions opt;
  opt.scheme = Scheme::kScanFair;
  opt.scale = 0.05;  // 24 CPUs / 40 jobs: seconds, not minutes
  opt.seed = 123;
  opt.socket_path = socket_path(tag);
  return opt;
}

std::vector<std::string> to_args(const ServiceOptions& opt) {
  std::vector<std::string> args = {"--socket",  opt.socket_path,
                                   "--scheme",  scheme_name(opt.scheme),
                                   "--scale",   "0.05",
                                   "--seed",    std::to_string(opt.seed)};
  if (!opt.checkpoint_path.empty()) {
    args.push_back("--checkpoint");
    args.push_back(opt.checkpoint_path);
  }
  if (opt.resume) args.push_back("--resume");
  if (!opt.fault_spec.empty()) {
    args.push_back("--faults");
    args.push_back(opt.fault_spec);
  }
  if (opt.thermal) args.push_back("--thermal");
  if (opt.sleep_policy != SleepPolicy::kNone) {
    args.push_back("--sleep-policy");
    args.push_back(sleep_policy_name(opt.sleep_policy));
  }
  return args;
}

/// The workload both sides share: generated from the twin's context, so
/// the daemon only ever sees it through ADMIT frames.
std::vector<Task> make_workload(const SimHost& host) {
  std::vector<Task> tasks = host.context().make_tasks(0.3);
  sort_by_submit(tasks);
  return tasks;
}

void expect_summary_matches(const ResultSummary& s, const SimResult& r) {
  EXPECT_EQ(s.wind_j, r.energy.wind.joules());
  EXPECT_EQ(s.utility_j, r.energy.utility.joules());
  EXPECT_EQ(s.curtailed_j, r.wind_curtailed.joules());
  EXPECT_EQ(s.battery_delivered_j, r.battery_delivered.joules());
  EXPECT_EQ(s.battery_losses_j, r.battery_losses.joules());
  EXPECT_EQ(s.cost_usd, r.cost.dollars());
  EXPECT_EQ(s.tasks_completed, r.tasks_completed);
  EXPECT_EQ(s.deadline_misses, r.deadline_misses);
  EXPECT_EQ(s.mean_wait_s, r.mean_wait.seconds());
  EXPECT_EQ(s.makespan_s, r.makespan.seconds());
  EXPECT_EQ(s.events_processed, r.events_processed);
  EXPECT_EQ(s.rematches, r.dvfs_rematch_count);
  EXPECT_EQ(s.task_requeues, r.faults.task_requeues);
  EXPECT_EQ(s.tasks_failed, r.faults.tasks_failed);
}

void expect_decisions_match(const std::vector<TimelineEvent>& streamed,
                            const std::vector<TimelineEvent>& batch) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].time_s, batch[i].time_s) << "decision " << i;
    EXPECT_EQ(streamed[i].kind, batch[i].kind) << "decision " << i;
    EXPECT_EQ(streamed[i].task_id, batch[i].task_id) << "decision " << i;
    EXPECT_EQ(streamed[i].value, batch[i].value) << "decision " << i;
  }
}

/// Pull `name{run="label"} value` out of Prometheus text.
double metric_value(const std::string& text, const std::string& name,
                    const std::string& label) {
  const std::string needle = name + "{run=\"" + label + "\"} ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + needle.size()));
}

TEST(ServiceE2E, HelloReportsIdentity) {
  const ServiceOptions opt = base_options("hello");
  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  const HelloOk h = client.hello();
  EXPECT_EQ(h.version, kProtoVersion);
  EXPECT_EQ(h.scheme, "ScanFair");
  EXPECT_EQ(h.procs, 24u);
  EXPECT_EQ(h.seed, 123u);
  const DecisionSnapshot s = client.decide_now();
  EXPECT_EQ(s.now_s, 0.0);
  EXPECT_EQ(s.tasks_admitted, 0u);
  EXPECT_EQ(s.idle_procs, 24u);
  // Whoever can reach the socket can admit work and trigger checkpoints:
  // the node must be owner-only from the moment it is bound.
  struct stat st {};
  ASSERT_EQ(::stat(opt.socket_path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISSOCK(st.st_mode));
  EXPECT_EQ(st.st_mode & 077u, 0u) << "socket grants group/other access";
  client.shutdown();
  EXPECT_TRUE(client.recv_eof());
}

TEST(ServiceE2E, StreamedDecisionsMatchBatch) {
  const ServiceOptions opt = base_options("stream");
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  const SimResult batch = twin.sim().run(tasks);

  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  client.hello();
  for (const Task& t : tasks) {
    const Frame reply = client.admit(t);
    ASSERT_EQ(reply.type, MsgType::kAdmitOk);
  }

  // Advance in uneven slices, then drain: the decision stream must not
  // depend on how the wall clock is chopped.
  std::vector<TimelineEvent> decisions;
  client.advance(2000.0, decisions);
  client.advance(2000.0, decisions);  // zero-width slice is legal
  client.advance(7777.7, decisions);
  const DecisionSnapshot mid = client.decide_now();
  EXPECT_EQ(mid.now_s, 7777.7);
  EXPECT_EQ(mid.tasks_admitted, tasks.size());
  client.drain(decisions);
  const ResultSummary summary = client.result();
  // RESULT is cached: a second ask returns the identical summary.
  const ResultSummary again = client.result();
  EXPECT_EQ(summary.events_processed, again.events_processed);
  EXPECT_EQ(summary.cost_usd, again.cost_usd);
  client.shutdown();

  expect_decisions_match(decisions, batch.timeline);
  expect_summary_matches(summary, batch);
}

TEST(ServiceE2E, ThermalSleepFlagsMatchBatch) {
  // --thermal / --sleep-policy reach the daemon's SimConfig: the streamed
  // run must match a batch twin built from the same options, and the
  // thermal/sleep machinery must actually have fired (nonzero cooling).
  ServiceOptions opt = base_options("therm");
  opt.thermal = true;
  opt.sleep_policy = SleepPolicy::kTimeout;
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  const SimResult batch = twin.sim().run(tasks);
  ASSERT_GT(batch.cooling_energy.joules(), 0.0);

  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  client.hello();
  for (const Task& t : tasks)
    ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
  std::vector<TimelineEvent> decisions;
  client.advance(5000.0, decisions);
  client.drain(decisions);
  const ResultSummary summary = client.result();
  client.shutdown();

  expect_decisions_match(decisions, batch.timeline);
  expect_summary_matches(summary, batch);
}

TEST(ServiceE2E, ExtendedSchemeReadmeFlagsMatchBatch) {
  // The README's daemon line, --scheme ScanTherm --thermal --sleep-policy
  // timeout: the daemon resolves the name, and its streamed decisions
  // equal run_scheme() on the same cluster, scan, supply and tasks.
  ServiceOptions opt = base_options("xscheme");
  opt.scheme = Scheme::kScanTherm;
  opt.thermal = true;
  opt.sleep_policy = SleepPolicy::kTimeout;
  SimHost twin(opt);
  const ExperimentContext& ctx = twin.context();
  const std::vector<Task> tasks = make_workload(twin);
  const SimResult batch =
      run_scheme(ctx.cluster(), opt.scheme, &ctx.profile_db(),
                 ctx.make_supply(opt.with_wind), tasks, ctx.config().sim);
  ASSERT_GT(batch.cooling_energy.joules(), 0.0);
  ASSERT_GT(batch.sleep_enters, 0u);

  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  EXPECT_EQ(client.hello().scheme, "ScanTherm");
  for (const Task& t : tasks)
    ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
  std::vector<TimelineEvent> decisions;
  client.advance(4000.0, decisions);
  client.drain(decisions);
  const ResultSummary summary = client.result();
  client.shutdown();

  expect_decisions_match(decisions, batch.timeline);
  expect_summary_matches(summary, batch);
}

TEST(ServiceE2E, MetricsCrossCheckResult) {
  const ServiceOptions opt = base_options("metrics");
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);

  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  for (const Task& t : tasks)
    ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
  std::vector<TimelineEvent> decisions;
  client.drain(decisions);
  const ResultSummary summary = client.result();

  // finish() published the run counters under the daemon's label; the
  // /metrics text must agree with the RESULT frame exactly.
  const std::string text = client.metrics();
  const std::string label = "serve/ScanFair";
  EXPECT_EQ(metric_value(text, "iscope_sim_events_total", label),
            static_cast<double>(summary.events_processed));
  EXPECT_EQ(metric_value(text, "iscope_sim_rematches_total", label),
            static_cast<double>(summary.rematches));
  EXPECT_EQ(metric_value(text, "iscope_sim_tasks_completed_total", label),
            static_cast<double>(summary.tasks_completed));
  EXPECT_EQ(metric_value(text, "iscope_sim_deadline_misses_total", label),
            static_cast<double>(summary.deadline_misses));
  client.shutdown();
}

TEST(ServiceE2E, SigtermCheckpointResumeSplicesStream) {
  ServiceOptions opt = base_options("ckpt");
  opt.checkpoint_path =
      "/tmp/iscope_e2e_ck_" + std::to_string(::getpid()) + ".bin";
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  const SimResult batch = twin.sim().run(tasks);

  std::vector<TimelineEvent> decisions;
  {
    ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
    ASSERT_TRUE(proc.wait_ready());
    Client client(opt.socket_path);
    for (const Task& t : tasks)
      ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
    client.advance(4000.0, decisions);
    proc.sigterm();
    EXPECT_EQ(proc.wait_exit(), 0);
  }

  ServiceOptions opt2 = opt;
  opt2.resume = true;
  opt2.socket_path = socket_path("ckpt2");
  ServeProcess proc2(ISCOPE_SERVE_BIN, to_args(opt2));
  ASSERT_TRUE(proc2.wait_ready());
  Client client2(opt2.socket_path);
  const DecisionSnapshot resumed = client2.decide_now();
  EXPECT_EQ(resumed.now_s, 4000.0);
  EXPECT_EQ(resumed.tasks_admitted, tasks.size());
  client2.drain(decisions);
  const ResultSummary summary = client2.result();
  client2.shutdown();
  std::remove(opt.checkpoint_path.c_str());

  // The pre-SIGTERM stream plus the post-resume stream is the batch
  // timeline, with no seam: same events, same order, same bits.
  expect_decisions_match(decisions, batch.timeline);
  expect_summary_matches(summary, batch);
}

TEST(ServiceE2E, SigtermPreservesPendingAdmissions) {
  ServiceOptions opt = base_options("ckpend");
  opt.checkpoint_path =
      "/tmp/iscope_e2e_ckp_" + std::to_string(::getpid()) + ".bin";
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  const SimResult batch = twin.sim().run(tasks);

  // Split the workload at a mid-stream cut: early tasks are admitted and
  // ADVANCEd past, late ones are acknowledged with ADMIT_OK but still in
  // the daemon's pending queue when SIGTERM lands. The checkpoint must
  // carry them, or acknowledged work silently vanishes across the restart.
  const std::size_t half = tasks.size() / 2;
  const double cut = (tasks[half - 1].submit_s + tasks[half].submit_s) / 2.0;
  std::vector<Task> early, late;
  for (const Task& t : tasks) (t.submit_s <= cut ? early : late).push_back(t);
  ASSERT_FALSE(early.empty());
  ASSERT_FALSE(late.empty());

  std::vector<TimelineEvent> decisions;
  {
    ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
    ASSERT_TRUE(proc.wait_ready());
    Client client(opt.socket_path);
    for (const Task& t : early)
      ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
    client.advance(cut, decisions);
    for (const Task& t : late)
      ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
    proc.sigterm();
    EXPECT_EQ(proc.wait_exit(), 0);
  }

  ServiceOptions opt2 = opt;
  opt2.resume = true;
  opt2.socket_path = socket_path("ckpend2");
  ServeProcess proc2(ISCOPE_SERVE_BIN, to_args(opt2));
  ASSERT_TRUE(proc2.wait_ready());
  Client client2(opt2.socket_path);
  const DecisionSnapshot resumed = client2.decide_now();
  EXPECT_EQ(resumed.tasks_admitted, tasks.size());
  client2.drain(decisions);
  const ResultSummary summary = client2.result();
  client2.shutdown();
  std::remove(opt.checkpoint_path.c_str());

  expect_decisions_match(decisions, batch.timeline);
  expect_summary_matches(summary, batch);
}

TEST(ServiceE2E, SigkillDuringCheckpointResumesFromTheLastGoodFile) {
  // A checkpoint at t1 completes; a second one, requested at t2, is cut
  // by SIGKILL 0 us, 100 us or 1 ms after the request goes out -- before
  // the daemon reads it, inside the temp-file write or fsync, or after the
  // rename. The checkpoint file must then hold one of the two complete
  // checkpoints, never a torn one: a --resume daemon comes up at t1 or
  // t2, and drains to the batch result from either.
  ServiceOptions opt = base_options("ckkill");
  opt.checkpoint_path =
      "/tmp/iscope_e2e_ckk_" + std::to_string(::getpid()) + ".bin";
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  const SimResult batch = twin.sim().run(tasks);
  const double t1 = 4000.0;
  const double t2 = 20000.0;

  for (const useconds_t delay_us : {0u, 100u, 1000u}) {
    SCOPED_TRACE(delay_us);
    {
      ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
      ASSERT_TRUE(proc.wait_ready());
      Client client(opt.socket_path);
      for (const Task& t : tasks)
        ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
      std::vector<TimelineEvent> decisions;
      client.advance(t1, decisions);
      ASSERT_EQ(client.checkpoint(), opt.checkpoint_path);
      client.advance(t2, decisions);
      client.send_frame(MsgType::kCheckpoint, encode_text(""));
      if (delay_us > 0) ::usleep(delay_us);
      proc.sigkill();
      EXPECT_EQ(proc.wait_exit(), -1);
    }

    ServiceOptions opt2 = opt;
    opt2.resume = true;
    opt2.socket_path = socket_path("ckkill2");
    ServeProcess proc2(ISCOPE_SERVE_BIN, to_args(opt2));
    ASSERT_TRUE(proc2.wait_ready());
    Client client2(opt2.socket_path);
    const DecisionSnapshot resumed = client2.decide_now();
    EXPECT_TRUE(resumed.now_s == t1 || resumed.now_s == t2) << resumed.now_s;
    EXPECT_EQ(resumed.tasks_admitted, tasks.size());
    std::vector<TimelineEvent> rest;
    client2.drain(rest);
    expect_summary_matches(client2.result(), batch);
    client2.shutdown();
    // A kill inside the write leaves the temp file behind.
    std::remove(opt.checkpoint_path.c_str());
    std::remove((opt.checkpoint_path + ".tmp").c_str());
  }
}

TEST(ServiceE2E, CheckpointFramePathPolicy) {
  ServiceOptions opt = base_options("ckpol");
  opt.checkpoint_path =
      "/tmp/iscope_e2e_ckpol_" + std::to_string(::getpid()) + ".bin";
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  const SimResult batch = twin.sim().run(tasks);

  {
    ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
    ASSERT_TRUE(proc.wait_ready());
    Client client(opt.socket_path);
    for (const Task& t : tasks)
      ASSERT_EQ(client.admit(t).type, MsgType::kAdmitOk);
    // The wire cannot redirect daemon writes: any path other than the
    // operator-configured --checkpoint target is refused.
    client.send_frame(MsgType::kCheckpoint,
                      encode_text("/tmp/iscope_e2e_elsewhere.bin"));
    EXPECT_EQ(client.recv_frame().type, MsgType::kErr);
    // Empty and exact-match paths both snapshot -- and the snapshot folds
    // in the never-ADVANCEd admission backlog.
    EXPECT_EQ(client.checkpoint(), opt.checkpoint_path);
    EXPECT_EQ(client.checkpoint(opt.checkpoint_path), opt.checkpoint_path);
    client.shutdown();
  }

  ServiceOptions opt2 = opt;
  opt2.resume = true;
  opt2.socket_path = socket_path("ckpol2");
  ServeProcess proc2(ISCOPE_SERVE_BIN, to_args(opt2));
  ASSERT_TRUE(proc2.wait_ready());
  Client client2(opt2.socket_path);
  EXPECT_EQ(client2.decide_now().tasks_admitted, tasks.size());
  std::vector<TimelineEvent> decisions;
  client2.drain(decisions);
  const ResultSummary summary = client2.result();
  client2.shutdown();
  std::remove(opt.checkpoint_path.c_str());
  expect_decisions_match(decisions, batch.timeline);
  expect_summary_matches(summary, batch);
}

TEST(ServiceE2E, CheckpointFrameWithoutTargetIsAnError) {
  const ServiceOptions opt = base_options("cknone");
  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  client.send_frame(MsgType::kCheckpoint, encode_text(""));
  EXPECT_EQ(client.recv_frame().type, MsgType::kErr);
  client.shutdown();
}

TEST(ServiceE2E, NewAdmissionsInvalidateCachedResult) {
  const ServiceOptions opt = base_options("reres");
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  ASSERT_EQ(client.admit(tasks[0]).type, MsgType::kAdmitOk);
  std::vector<TimelineEvent> decisions;
  const AdvanceDone drained = client.drain(decisions);
  const ResultSummary first = client.result();
  EXPECT_EQ(first.tasks_completed, 1u);

  // More work after a RESULT: the next drained RESULT must re-summarize,
  // not replay the stale cache. (Submit relative to the drained clock --
  // the last event can trail the makespan by up to an epoch.)
  Task later = tasks[1];
  later.submit_s = drained.now_s + 500.0;
  later.deadline_s = later.submit_s + 1.0e6;
  ASSERT_EQ(client.admit(later).type, MsgType::kAdmitOk);
  client.drain(decisions);
  const ResultSummary second = client.result();
  EXPECT_EQ(second.tasks_completed, 2u);
  EXPECT_GT(second.events_processed, first.events_processed);
  client.shutdown();
}

TEST(ServiceE2E, BackpressureEngagesAndClears) {
  ServiceOptions opt = base_options("busy");
  SimHost twin(opt);
  std::vector<Task> tasks = make_workload(twin);
  ASSERT_GE(tasks.size(), 6u);

  std::vector<std::string> args = to_args(opt);
  args.push_back("--admit-capacity");
  args.push_back("4");
  ServeProcess proc(ISCOPE_SERVE_BIN, args);
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_EQ(client.admit(tasks[i]).type, MsgType::kAdmitOk);
  EXPECT_EQ(client.admit(tasks[4]).type, MsgType::kBusy);
  // An advance injects the backlog into the simulator; admission reopens.
  std::vector<TimelineEvent> decisions;
  client.advance(0.0, decisions);
  EXPECT_EQ(client.admit(tasks[4]).type, MsgType::kAdmitOk);
  client.shutdown();
}

TEST(ServiceE2E, MalformedPayloadKeepsConnection) {
  const ServiceOptions opt = base_options("err");
  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);

  // Admitting into the past is a semantic error -> ERR, connection lives.
  Task t;
  t.id = 1;
  t.submit_s = -5.0;
  t.cpus = 1;
  t.runtime_s = 100.0;
  t.gamma = 0.5;
  t.deadline_s = 1000.0;
  EXPECT_EQ(client.admit(t).type, MsgType::kErr);

  // A NaN submit time dies in the payload parser -> ERR, connection lives.
  serial::Writer w;
  w.i64(1);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.u64(1);
  w.f64(100.0);
  w.f64(0.5);
  w.f64(1000.0);
  w.u8(0);
  client.send_frame(MsgType::kAdmit, w.take());
  EXPECT_EQ(client.recv_frame().type, MsgType::kErr);

  // A truncated admit payload -> ERR, connection lives.
  serial::Writer w2;
  w2.i64(7);
  client.send_frame(MsgType::kAdmit, w2.take());
  EXPECT_EQ(client.recv_frame().type, MsgType::kErr);

  // Still healthy.
  EXPECT_EQ(client.hello().version, kProtoVersion);

  // A lying length prefix breaks framing -> ERR, then disconnect.
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  client.send_raw(huge, sizeof(huge));
  EXPECT_EQ(client.recv_frame().type, MsgType::kErr);
  EXPECT_TRUE(client.recv_eof());
}

TEST(ServiceE2E, ResultBeforeDrainIsAnError) {
  const ServiceOptions opt = base_options("early");
  SimHost twin(opt);
  const std::vector<Task> tasks = make_workload(twin);
  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  ASSERT_EQ(client.admit(tasks[0]).type, MsgType::kAdmitOk);
  client.send_frame(MsgType::kResult);
  EXPECT_EQ(client.recv_frame().type, MsgType::kErr);
  client.shutdown();
}

}  // namespace
}  // namespace iscope::service
