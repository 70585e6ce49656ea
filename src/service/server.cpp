#include "service/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "service/checkpoint.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace iscope::service {

namespace {

// SIGTERM/SIGINT request a checkpoint-and-exit; the poll loop observes the
// flag between events (async-signal-safe: the handler only stores).
volatile std::sig_atomic_t g_terminate = 0;

void on_terminate(int) { g_terminate = 1; }

int make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

ResultSummary summarize(const SimResult& r) {
  ResultSummary s;
  s.wind_j = r.energy.wind.joules();
  s.utility_j = r.energy.utility.joules();
  s.curtailed_j = r.wind_curtailed.joules();
  s.battery_delivered_j = r.battery_delivered.joules();
  s.battery_losses_j = r.battery_losses.joules();
  s.cost_usd = r.cost.dollars();
  s.tasks_completed = r.tasks_completed;
  s.deadline_misses = r.deadline_misses;
  s.mean_wait_s = r.mean_wait.seconds();
  s.makespan_s = r.makespan.seconds();
  s.events_processed = r.events_processed;
  s.rematches = r.dvfs_rematch_count;
  s.task_requeues = r.faults.task_requeues;
  s.tasks_failed = r.faults.tasks_failed;
  return s;
}

}  // namespace

ServiceOptions parse_service_args(const std::vector<std::string>& args) {
  ServiceOptions opt;
  // Env defaults; explicit flags below override.
  opt.thermal = env_thermal();
  opt.sleep_policy = env_sleep_policy();
  auto value = [&](std::size_t& i, const char* flag) -> const std::string& {
    ISCOPE_CHECK_ARG(i + 1 < args.size(),
                     std::string(flag) + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--scheme") {
      opt.scheme = scheme_from_name(value(i, "--scheme"));
    } else if (a == "--scale") {
      opt.scale = parse_number<double>(value(i, "--scale"), "--scale");
      ISCOPE_CHECK_ARG(opt.scale > 0.0, "--scale must be positive");
    } else if (a == "--seed") {
      opt.seed = parse_number<std::uint64_t>(value(i, "--seed"), "--seed");
    } else if (a == "--no-wind") {
      opt.with_wind = false;
    } else if (a == "--battery") {
      opt.battery = true;
    } else if (a == "--faults") {
      opt.fault_spec = value(i, "--faults");
    } else if (a == "--thermal") {
      opt.thermal = true;
    } else if (a == "--sleep-policy") {
      opt.sleep_policy = parse_sleep_policy(value(i, "--sleep-policy"));
    } else if (a == "--socket") {
      opt.socket_path = value(i, "--socket");
    } else if (a == "--checkpoint") {
      opt.checkpoint_path = value(i, "--checkpoint");
    } else if (a == "--resume") {
      opt.resume = true;
    } else if (a == "--metrics-port") {
      const std::uint64_t p = parse_number<std::uint64_t>(
          value(i, "--metrics-port"), "--metrics-port");
      ISCOPE_CHECK_ARG(p <= 65535, "--metrics-port out of range");
      opt.metrics_port = static_cast<std::uint16_t>(p);
    } else if (a == "--admit-capacity") {
      opt.admit_capacity = static_cast<std::size_t>(parse_number<std::uint64_t>(
          value(i, "--admit-capacity"), "--admit-capacity"));
      ISCOPE_CHECK_ARG(opt.admit_capacity > 0,
                       "--admit-capacity must be positive");
    } else {
      throw InvalidArgument("iscope_serve: unknown flag '" + a + "'");
    }
  }
  ISCOPE_CHECK_ARG(!opt.socket_path.empty(), "iscope_serve: --socket is required");
  ISCOPE_CHECK_ARG(!opt.resume || !opt.checkpoint_path.empty(),
                   "iscope_serve: --resume needs --checkpoint");
  return opt;
}

SimHost::SimHost(const ServiceOptions& opt) : opt_(opt) {
  ExperimentConfig ecfg = ExperimentConfig::paper_small();
  if (opt.scale != 1.0) ecfg = ecfg.scaled(opt.scale);
  ecfg.seed = opt.seed;
  SimConfig& sc = ecfg.sim;
  sc.seed = opt.seed;
  // Decisions stream from the typed event log; the daemon always records.
  sc.record_timeline = true;
  sc.telemetry_label = std::string("serve/") + scheme_name(opt.scheme);
  if (opt.battery)
    sc.battery = BatteryConfig::make(100.0 * opt.scale, 50.0 * opt.scale);
  if (!opt.fault_spec.empty()) {
    sc.faults = parse_fault_spec(opt.fault_spec);
    sc.fault_seed = opt.seed;
  }
  if (opt.thermal) sc.thermal.enabled = true;
  if (opt.sleep_policy != SleepPolicy::kNone) sc.sleep.policy = opt.sleep_policy;
  sc = apply_scheme_requests(opt.scheme, sc);
  ctx_ = std::make_unique<ExperimentContext>(ecfg);
  supply_ = std::make_unique<HybridSupply>(ctx_->make_supply(opt.with_wind));
  knowledge_ = std::make_unique<const Knowledge>(
      &ctx_->cluster(), scheme_knowledge(opt.scheme),
      scheme_uses_scan(opt.scheme) ? &ctx_->profile_db() : nullptr);
  sim_ = std::make_unique<DatacenterSim>(knowledge_.get(),
                                         scheme_rule(opt.scheme),
                                         supply_.get(), ctx_->config().sim);
}

SimHost::~SimHost() = default;

ServiceServer::ServiceServer(const ServiceOptions& opt)
    : opt_(opt), host_(opt) {
  // An empty prepared run: the epoch/sample/fault chains are staged at
  // t = 0 and tasks stream in afterwards. Restore overwrites this state
  // wholesale but needs the prepared bookkeeping (and the fault plan,
  // built in the constructor) in place first.
  host_.sim().prepare({}, {});
  if (opt_.resume) {
    const std::vector<std::uint8_t> blob =
        read_checkpoint(opt_.checkpoint_path);
    restore_from_bytes(host_.sim(), blob.data(), blob.size());
  }
}

ServiceServer::~ServiceServer() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  for (HttpConn& h : https_)
    if (h.fd >= 0) ::close(h.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (metrics_fd_ >= 0) ::close(metrics_fd_);
  if (!opt_.socket_path.empty()) ::unlink(opt_.socket_path.c_str());
}

void ServiceServer::send(Conn& c, MsgType type,
                         const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  c.out.insert(c.out.end(), frame.begin(), frame.end());
}

void ServiceServer::send_err(Conn& c, const std::string& message) {
  send(c, MsgType::kErr, encode_text(message));
}

void ServiceServer::inject_pending() {
  while (!pending_.empty()) {
    host_.sim().admit(std::move(pending_.front()));
    pending_.pop_front();
  }
}

void ServiceServer::stream_decisions(Conn& c, std::size_t from) {
  const std::vector<TimelineEvent>& tl = host_.sim().timeline();
  for (std::size_t i = from; i < tl.size(); ++i)
    send(c, MsgType::kDecision, encode_decision(tl[i]));
}

void ServiceServer::do_checkpoint(Conn& c, std::string path) {
  // The wire path is advisory only: any local user who can reach the
  // socket could otherwise direct daemon-privileged writes anywhere, so a
  // non-empty path must name the operator-configured target exactly.
  if (!path.empty() && path != opt_.checkpoint_path) {
    send_err(c, "checkpoint: path must match the --checkpoint target");
    return;
  }
  if (opt_.checkpoint_path.empty()) {
    send_err(c, "checkpoint: no --checkpoint target configured");
    return;
  }
  // Acknowledged-but-uninjected admissions are session state: fold them in
  // first or kAdmitOk'd tasks vanish on --resume. admit() never moves the
  // clock, so injecting here cannot perturb the decision stream.
  inject_pending();
  write_checkpoint(opt_.checkpoint_path, checkpoint_bytes(host_.sim()));
  send(c, MsgType::kCheckpointOk, encode_text(opt_.checkpoint_path));
}

void ServiceServer::handle_frame(Conn& c, const Frame& f) {
  DatacenterSim& sim = host_.sim();
  switch (f.type) {
    case MsgType::kHello: {
      parse_hello(f.payload);
      HelloOk h;
      h.version = kProtoVersion;
      h.scheme = scheme_name(host_.scheme());
      h.procs = host_.context().cluster().size();
      h.seed = opt_.seed;
      send(c, MsgType::kHelloOk, encode_hello_ok(h));
      return;
    }
    case MsgType::kAdmit: {
      Task t = parse_admit(f.payload);
      if (pending_.size() >= opt_.admit_capacity) {
        send(c, MsgType::kBusy);
        return;
      }
      // An inadmissible task throws InvalidArgument, answered with ERR.
      sim.check_admissible(t);
      pending_.push_back(std::move(t));
      result_cached_ = false;  // new work: the next RESULT must re-finish()
      send(c, MsgType::kAdmitOk, encode_u64(pending_.size() - 1));
      return;
    }
    case MsgType::kAdvance: {
      const double t_limit = parse_advance(f.payload);
      if (t_limit < sim.now_s()) {
        send_err(c, "advance: target behind the simulation clock");
        return;
      }
      inject_pending();
      const std::size_t before = sim.timeline().size();
      const std::size_t events = sim.step_until(t_limit);
      stream_decisions(c, before);
      AdvanceDone d;
      d.now_s = sim.now_s();
      d.events_run = events;
      send(c, MsgType::kAdvanceDone, encode_advance_done(d));
      return;
    }
    case MsgType::kDrain: {
      if (!f.payload.empty()) throw ParseError("drain: unexpected payload");
      inject_pending();
      const std::size_t before = sim.timeline().size();
      // advance_before (not step_until): the clock ends at the last event,
      // exactly where a batch run() leaves it, so finish() matches batch.
      const std::size_t events =
          sim.advance_before(std::numeric_limits<double>::infinity());
      stream_decisions(c, before);
      AdvanceDone d;
      d.now_s = sim.now_s();
      d.events_run = events;
      send(c, MsgType::kDrained, encode_advance_done(d));
      return;
    }
    case MsgType::kDecideNow: {
      if (!f.payload.empty()) throw ParseError("decide: unexpected payload");
      send(c, MsgType::kSnapshot, encode_snapshot(sim.decision_snapshot()));
      return;
    }
    case MsgType::kMetrics: {
      if (!f.payload.empty()) throw ParseError("metrics: unexpected payload");
      send(c, MsgType::kMetricsText,
           encode_text(telemetry::to_prometheus(
               telemetry::Registry::global().snapshot())));
      return;
    }
    case MsgType::kCheckpoint: {
      do_checkpoint(c, parse_text(f.payload));
      return;
    }
    case MsgType::kResult: {
      if (!f.payload.empty()) throw ParseError("result: unexpected payload");
      if (!sim.drained() || !pending_.empty()) {
        send_err(c, "result: simulation not drained");
        return;
      }
      if (!result_cached_) {
        result_ = summarize(sim.finish());
        result_cached_ = true;
      }
      send(c, MsgType::kResultSummary, encode_result_summary(result_));
      return;
    }
    case MsgType::kShutdown: {
      if (!f.payload.empty()) throw ParseError("shutdown: unexpected payload");
      send(c, MsgType::kShutdownOk);
      c.close_after_flush = true;
      stop_ = true;
      return;
    }
    default:
      send_err(c, "unknown message type");
      return;
  }
}

void ServiceServer::handle_http(HttpConn& h) {
  const std::size_t end = h.request.find("\r\n\r\n");
  if (end == std::string::npos) return;  // headers incomplete
  std::string body;
  std::string status = "200 OK";
  if (h.request.rfind("GET /metrics", 0) == 0) {
    body = telemetry::to_prometheus(telemetry::Registry::global().snapshot());
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  const std::string head = "HTTP/1.0 " + status +
                           "\r\nContent-Type: text/plain; version=0.0.4"
                           "\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n";
  h.out.insert(h.out.end(), head.begin(), head.end());
  h.out.insert(h.out.end(), body.begin(), body.end());
  h.responded = true;
}

bool ServiceServer::flush(int fd, std::vector<std::uint8_t>& out,
                          std::size_t& pos) {
  while (pos < out.size()) {
    const ssize_t n = ::send(fd, out.data() + pos, out.size() - pos,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // peer gone
    }
    pos += static_cast<std::size_t>(n);
  }
  if (pos == out.size() && pos > (std::size_t{1} << 16)) {
    out.clear();
    pos = 0;
  }
  return true;
}

int ServiceServer::serve() {
  // --- bind the unix socket -------------------------------------------
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "iscope_serve: socket: %s\n", std::strerror(errno));
    return 2;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "iscope_serve: socket path too long\n");
    return 2;
  }
  std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
              opt_.socket_path.size() + 1);
  ::unlink(opt_.socket_path.c_str());  // stale socket from a previous run
  // Bind under a tight umask: whoever connects can drive admissions and
  // checkpoints, so the socket node must be owner-only from the first
  // instant (no chmod-after-bind race).
  const mode_t prev_umask = ::umask(0077);
  const int bind_rc = ::bind(
      listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::umask(prev_umask);
  if (bind_rc < 0 ||
      ::listen(listen_fd_, 16) < 0 || make_nonblocking(listen_fd_) < 0) {
    std::fprintf(stderr, "iscope_serve: bind %s: %s\n",
                 opt_.socket_path.c_str(), std::strerror(errno));
    return 2;
  }

  // --- optional loopback /metrics endpoint ----------------------------
  if (opt_.metrics_port != 0) {
    metrics_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (metrics_fd_ < 0) {
      std::fprintf(stderr, "iscope_serve: metrics socket: %s\n",
                   std::strerror(errno));
      return 2;
    }
    const int one = 1;
    ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in inaddr;
    std::memset(&inaddr, 0, sizeof(inaddr));
    inaddr.sin_family = AF_INET;
    inaddr.sin_port = htons(opt_.metrics_port);
    inaddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(metrics_fd_, reinterpret_cast<const sockaddr*>(&inaddr),
               sizeof(inaddr)) < 0 ||
        ::listen(metrics_fd_, 16) < 0 || make_nonblocking(metrics_fd_) < 0) {
      std::fprintf(stderr, "iscope_serve: metrics bind :%u: %s\n",
                   static_cast<unsigned>(opt_.metrics_port),
                   std::strerror(errno));
      return 2;
    }
  }

  std::signal(SIGTERM, on_terminate);
  std::signal(SIGINT, on_terminate);
  std::signal(SIGPIPE, SIG_IGN);

  // The harness waits for this exact prefix before connecting.
  std::printf("iscope_serve: listening on %s\n", opt_.socket_path.c_str());
  std::fflush(stdout);

  std::vector<pollfd> pfds;
  std::vector<std::uint8_t> rdbuf(65536);
  while (true) {
    if (g_terminate != 0) {
      if (!opt_.checkpoint_path.empty()) {
        // Same rule as do_checkpoint: the pending backlog is acknowledged
        // work and must survive the restart.
        inject_pending();
        write_checkpoint(opt_.checkpoint_path,
                         checkpoint_bytes(host_.sim()));
      }
      return 0;
    }
    if (stop_) {
      // Exit once every reply (ShutdownOk included) is flushed.
      bool pending_out = false;
      for (const Conn& c : conns_)
        if (c.fd >= 0 && c.out_pos < c.out.size()) pending_out = true;
      if (!pending_out) return 0;
    }

    pfds.clear();
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    if (metrics_fd_ >= 0) pfds.push_back(pollfd{metrics_fd_, POLLIN, 0});
    for (const Conn& c : conns_) {
      short ev = POLLIN;
      if (c.out_pos < c.out.size()) ev = static_cast<short>(ev | POLLOUT);
      pfds.push_back(pollfd{c.fd, ev, 0});
    }
    for (const HttpConn& h : https_) {
      short ev = h.responded ? POLLOUT : POLLIN;
      if (h.out_pos < h.out.size()) ev = static_cast<short>(ev | POLLOUT);
      pfds.push_back(pollfd{h.fd, ev, 0});
    }

    const int ready = ::poll(pfds.data(), pfds.size(), 200);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "iscope_serve: poll: %s\n", std::strerror(errno));
      return 2;
    }
    if (ready <= 0) continue;

    std::size_t idx = 0;
    if (pfds[idx++].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0 && make_nonblocking(fd) == 0) {
        Conn c;
        c.fd = fd;
        conns_.push_back(std::move(c));
      } else if (fd >= 0) {
        ::close(fd);
      }
    }
    if (metrics_fd_ >= 0) {
      if (pfds[idx++].revents & POLLIN) {
        const int fd = ::accept(metrics_fd_, nullptr, nullptr);
        if (fd >= 0 && make_nonblocking(fd) == 0) {
          HttpConn h;
          h.fd = fd;
          https_.push_back(std::move(h));
        } else if (fd >= 0) {
          ::close(fd);
        }
      }
    }

    // Frame connections. pfds was built before the accepts above, so `idx`
    // walks exactly the conns_ prefix that existed at poll time; the
    // fd-mismatch break skips connections accepted this iteration.
    std::size_t ci = 0;
    for (; ci < conns_.size() && idx < pfds.size(); ++ci) {
      Conn& c = conns_[ci];
      if (pfds[idx].fd != c.fd) break;  // newly accepted, not polled yet
      const short re = pfds[idx++].revents;
      bool drop = false;
      if (re & (POLLERR | POLLHUP | POLLNVAL)) drop = true;
      if (!drop && (re & POLLIN)) {
        while (true) {
          const ssize_t n = ::recv(c.fd, rdbuf.data(), rdbuf.size(), 0);
          if (n > 0) {
            c.in.feed(rdbuf.data(), static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < rdbuf.size()) break;
          } else if (n == 0) {
            drop = true;
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK) drop = true;
            break;
          }
        }
        if (!drop) {
          try {
            Frame f;
            while (c.in.next(f)) {
              try {
                handle_frame(c, f);
              } catch (const ParseError& e) {
                // Malformed payload: the framing is intact, the
                // connection survives.
                send_err(c, e.what());
              } catch (const Error& e) {
                send_err(c, e.what());
              }
            }
          } catch (const ParseError& e) {
            // Broken framing (lying length prefix): the stream cannot be
            // re-synchronized; answer and drop.
            send_err(c, e.what());
            c.close_after_flush = true;
          }
        }
      }
      if (!drop && (re & POLLOUT || c.out_pos < c.out.size()))
        if (!flush(c.fd, c.out, c.out_pos)) drop = true;
      if (!drop && c.close_after_flush && c.out_pos >= c.out.size())
        drop = true;
      if (drop) {
        ::close(c.fd);
        c.fd = -1;
      }
    }

    // HTTP connections.
    std::size_t hi = 0;
    for (; hi < https_.size() && idx < pfds.size(); ++hi) {
      HttpConn& h = https_[hi];
      if (pfds[idx].fd != h.fd) break;
      const short re = pfds[idx++].revents;
      bool drop = false;
      if (re & (POLLERR | POLLHUP | POLLNVAL)) drop = true;
      if (!drop && (re & POLLIN) && !h.responded) {
        const ssize_t n = ::recv(h.fd, rdbuf.data(), rdbuf.size(), 0);
        if (n > 0) {
          h.request.append(reinterpret_cast<const char*>(rdbuf.data()),
                           static_cast<std::size_t>(n));
          if (h.request.size() > (std::size_t{1} << 16)) drop = true;
          else handle_http(h);
        } else if (n == 0 ||
                   (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          drop = true;
        }
      }
      if (!drop && (h.out_pos < h.out.size()))
        if (!flush(h.fd, h.out, h.out_pos)) drop = true;
      if (!drop && h.responded && h.out_pos >= h.out.size()) drop = true;
      if (drop) {
        ::close(h.fd);
        h.fd = -1;
      }
    }

    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const Conn& c) { return c.fd < 0; }),
                 conns_.end());
    https_.erase(std::remove_if(https_.begin(), https_.end(),
                                [](const HttpConn& h) { return h.fd < 0; }),
                 https_.end());
  }
}

}  // namespace iscope::service
