// iscope_serve: the long-running scheduler daemon (DESIGN.md Sec. 15).
//
// One single-threaded poll() loop serves length-prefixed frames (wire.hpp)
// over a unix-domain stream socket. Jobs arrive continuously (ADMIT),
// placement decisions stream back as the clock advances (ADVANCE/DRAIN),
// DECIDE_NOW answers from the O(1) DecisionSnapshot without touching the
// event queue, and SIGTERM checkpoints the full simulation state so a
// restarted daemon resumes bit-identically (checkpoint.hpp).
//
// Determinism: the daemon's simulator is the exact batch DatacenterSim --
// no service-mode forks in the engine. Streamed admission is bit-identical
// to a batch prepare() because arrival events occupy their own tie class
// (see DatacenterSim::admit), and the clock only moves inside
// ADVANCE/DRAIN, so a task validated at ADMIT time cannot be stale when it
// is injected at the next ADVANCE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "energy/hybrid_supply.hpp"
#include "sched/knowledge.hpp"
#include "sched/scheme.hpp"
#include "service/wire.hpp"
#include "sim/simulator.hpp"

namespace iscope::service {

struct ServiceOptions {
  Scheme scheme = Scheme::kScanFair;
  /// Facility scale: multiplies ExperimentConfig::paper_small().
  double scale = 1.0;
  std::uint64_t seed = 2015;
  bool with_wind = true;
  bool battery = false;
  /// Fault-injection spec (fault/fault.hpp grammar); empty = none.
  std::string fault_spec;
  /// Heat-recirculation + CRAC model (--thermal, or ISCOPE_THERMAL=1).
  bool thermal = false;
  /// C-state sleep policy (--sleep-policy NAME, or ISCOPE_SLEEP_POLICY).
  SleepPolicy sleep_policy = SleepPolicy::kNone;
  /// Unix-domain socket the daemon listens on. Required.
  std::string socket_path;
  /// Checkpoint target: written on SIGTERM and by a CHECKPOINT frame (the
  /// only path a frame may name -- the wire cannot redirect daemon writes
  /// elsewhere); read back under --resume.
  std::string checkpoint_path;
  bool resume = false;
  /// Loopback TCP port for HTTP GET /metrics (Prometheus text). 0 = off.
  std::uint16_t metrics_port = 0;
  /// Admission-queue bound: ADMIT beyond this answers BUSY until the next
  /// ADVANCE/DRAIN injects the backlog (backpressure).
  std::size_t admit_capacity = 1024;
};

/// Parse iscope_serve command-line flags (main.cpp and the e2e harness
/// share this). Numbers go through parse_number (core/config.hpp), so a
/// sign, a space, a hex or non-finite value is refused. Throws
/// InvalidArgument naming the flag on unknown flags or bad values.
ServiceOptions parse_service_args(const std::vector<std::string>& args);

/// Builds the simulator from options exactly once. The e2e harness builds
/// its batch comparator through this same type with the same options, so
/// the daemon and its batch twin cannot diverge in construction (cluster
/// fabrication, scan, wind trace, seeds) -- any decision-stream mismatch is
/// a real service-mode bug, not a setup skew.
class SimHost {
 public:
  explicit SimHost(const ServiceOptions& opt);
  ~SimHost();

  DatacenterSim& sim() { return *sim_; }
  const DatacenterSim& sim() const { return *sim_; }
  const ExperimentContext& context() const { return *ctx_; }
  Scheme scheme() const { return opt_.scheme; }

 private:
  ServiceOptions opt_;
  std::unique_ptr<ExperimentContext> ctx_;
  std::unique_ptr<HybridSupply> supply_;
  std::unique_ptr<const Knowledge> knowledge_;
  std::unique_ptr<DatacenterSim> sim_;
};

class ServiceServer {
 public:
  explicit ServiceServer(const ServiceOptions& opt);
  ~ServiceServer();
  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Bind, print the readiness line, and serve until SHUTDOWN or SIGTERM.
  /// Returns 0 on clean shutdown, 0 after a SIGTERM checkpoint, 2 when the
  /// sockets cannot be bound.
  int serve();

  /// Direct access for in-process tests (no socket).
  SimHost& host() { return host_; }

 private:
  struct Conn {
    int fd = -1;
    FrameReader in;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool close_after_flush = false;
  };
  struct HttpConn {
    int fd = -1;
    std::string request;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool responded = false;
  };

  void handle_frame(Conn& c, const Frame& f);
  void send(Conn& c, MsgType type,
            const std::vector<std::uint8_t>& payload = {});
  void send_err(Conn& c, const std::string& message);
  /// Inject the pending admission backlog in FIFO order. The clock has not
  /// moved since each task passed validation, so injection cannot fail.
  void inject_pending();
  /// Stream timeline events [from, end) to `c` as kDecision frames.
  void stream_decisions(Conn& c, std::size_t from);
  void do_checkpoint(Conn& c, std::string path);
  void handle_http(HttpConn& h);
  bool flush(int fd, std::vector<std::uint8_t>& out, std::size_t& pos);

  ServiceOptions opt_;
  SimHost host_;
  std::deque<Task> pending_;
  std::vector<Conn> conns_;
  std::vector<HttpConn> https_;
  int listen_fd_ = -1;
  int metrics_fd_ = -1;
  bool stop_ = false;          ///< SHUTDOWN seen; exit once flushed
  /// finish() runs once per drained state; a fresh ADMIT invalidates the
  /// cache so a later DRAIN+RESULT re-summarizes instead of replaying.
  bool result_cached_ = false;
  ResultSummary result_;
};

}  // namespace iscope::service
