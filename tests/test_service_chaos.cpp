// Chaos suite: a live daemon under fault injection (a FaultSpec's crashes
// and repairs landing mid-stream) must degrade gracefully, not fall over:
//
//  * the daemon stays responsive between fault storms (DECIDE_NOW answers
//    while CPUs crash and repair under the stream);
//  * requeues are bounded by the retry cap -- no livelock of a task
//    bouncing between failing processors forever;
//  * no task is silently lost: completed + failed == admitted;
//  * admission backpressure engages under a tiny --admit-capacity and the
//    stream still drains (no deadlock between BUSY and ADVANCE);
//  * the whole chaotic interaction is deterministic: a second daemon fed
//    the same stream produces the bitwise-identical summary.
//
// tools/check.sh runs this binary under TSan in the `tsan` stage, so the
// daemon's poll loop and the client interplay are raced-checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "service/server.hpp"
#include "service_client.hpp"
#include "workload/task.hpp"

namespace iscope::service {
namespace {

constexpr const char* kFaultSpec = "mtbf=30000,repair=600,misprofile=0.05";

std::string socket_path(const std::string& tag) {
  return "/tmp/iscope_chaos_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

ServiceOptions chaos_options(const std::string& tag) {
  ServiceOptions opt;
  opt.scheme = Scheme::kScanFair;
  opt.scale = 0.05;
  opt.seed = 77;
  opt.fault_spec = kFaultSpec;
  opt.socket_path = socket_path(tag);
  return opt;
}

std::vector<std::string> to_args(const ServiceOptions& opt,
                                 const std::string& capacity) {
  return {"--socket",         opt.socket_path,
          "--scheme",         scheme_name(opt.scheme),
          "--scale",          "0.05",
          "--seed",           std::to_string(opt.seed),
          "--faults",         opt.fault_spec,
          "--admit-capacity", capacity};
}

/// Feed the whole workload through a tiny admission window, interleaving
/// advances and liveness probes; the final summary lands in `*out`.
/// (ASSERT_* needs a void function, hence the out-parameter.)
void drive(Client& client, const std::vector<Task>& tasks,
           std::size_t* busy_count, ResultSummary* out) {
  double horizon = 1500.0;
  std::vector<TimelineEvent> decisions;
  std::size_t next = 0;
  while (next < tasks.size()) {
    const Frame reply = client.admit(tasks[next]);
    if (reply.type == MsgType::kAdmitOk) {
      ++next;
      continue;
    }
    ASSERT_EQ(reply.type, MsgType::kBusy) << "task " << next;
    if (busy_count != nullptr) ++*busy_count;
    // Backpressure: make room by advancing (injects the backlog). The
    // horizon never passes the next task's submit time, so admission
    // validity is preserved.
    const double target = std::min(horizon, tasks[next].submit_s);
    client.advance(target, decisions);
    horizon += 1500.0;
    // Liveness probe between storms: the daemon answers from O(1) state
    // even while the fault plan is killing processors under the stream.
    const DecisionSnapshot snap = client.decide_now();
    ASSERT_LE(snap.now_s, target + 1e-9);
  }
  client.drain(decisions);
  *out = client.result();
  client.shutdown();
}

TEST(ServiceChaos, FaultStormDegradesGracefully) {
  const ServiceOptions opt = chaos_options("storm");
  SimHost twin(opt);
  std::vector<Task> tasks = twin.context().make_tasks(0.3);
  sort_by_submit(tasks);

  ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt, "4"));
  ASSERT_TRUE(proc.wait_ready());
  Client client(opt.socket_path);
  std::size_t busy = 0;
  ResultSummary summary;
  drive(client, tasks, &busy, &summary);

  // The window is a quarter of the stream: backpressure must have engaged.
  EXPECT_GT(busy, 0u);
  // No silent loss, bounded requeues (FaultSpec default: 3 retries/task).
  EXPECT_EQ(summary.tasks_completed + summary.tasks_failed, tasks.size());
  EXPECT_LE(summary.task_requeues, 3 * tasks.size());
  EXPECT_GT(summary.events_processed, 0u);
}

TEST(ServiceChaos, ChaoticRunIsDeterministic) {
  const ServiceOptions opt_a = chaos_options("det_a");
  SimHost twin(opt_a);
  std::vector<Task> tasks = twin.context().make_tasks(0.3);
  sort_by_submit(tasks);

  ResultSummary a;
  {
    ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt_a, "4"));
    ASSERT_TRUE(proc.wait_ready());
    Client client(opt_a.socket_path);
    drive(client, tasks, nullptr, &a);
  }
  ServiceOptions opt_b = chaos_options("det_b");
  ResultSummary b;
  {
    ServeProcess proc(ISCOPE_SERVE_BIN, to_args(opt_b, "4"));
    ASSERT_TRUE(proc.wait_ready());
    Client client(opt_b.socket_path);
    drive(client, tasks, nullptr, &b);
  }

  EXPECT_EQ(a.wind_j, b.wind_j);
  EXPECT_EQ(a.utility_j, b.utility_j);
  EXPECT_EQ(a.curtailed_j, b.curtailed_j);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.tasks_failed, b.tasks_failed);
  EXPECT_EQ(a.task_requeues, b.task_requeues);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.mean_wait_s, b.mean_wait_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.rematches, b.rematches);
}

}  // namespace
}  // namespace iscope::service
