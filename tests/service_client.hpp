// Test-side client for iscope_serve: spawns the daemon (fork/exec, stdout
// readiness handshake) and speaks the wire protocol over its unix socket
// with blocking I/O. Used by test_service_e2e.cpp and
// test_service_chaos.cpp; the production encode/parse functions from
// service/wire.hpp do all the framing, so the tests exercise the exact
// codec the daemon runs.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/wire.hpp"

namespace iscope::service {

/// A running iscope_serve child process.
class ServeProcess {
 public:
  ServeProcess(const std::string& binary,
               const std::vector<std::string>& args) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
  }

  ~ServeProcess() {
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// Block until the daemon prints its readiness line (or timeout).
  bool wait_ready(int timeout_ms = 30000) {
    std::string seen;
    pollfd p{stdout_fd_, POLLIN, 0};
    while (timeout_ms > 0) {
      const int r = ::poll(&p, 1, 100);
      timeout_ms -= 100;
      if (r <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return false;  // daemon exited before readiness
      seen.append(buf, static_cast<std::size_t>(n));
      if (seen.find("listening on") != std::string::npos) return true;
    }
    return false;
  }

  void sigterm() const { ::kill(pid_, SIGTERM); }
  void sigkill() const { ::kill(pid_, SIGKILL); }

  /// Reap the child and return its exit code (-1 on abnormal death).
  int wait_exit() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// Blocking wire-protocol client over a unix stream socket.
class Client {
 public:
  explicit Client(const std::string& socket_path, int timeout_ms = 30000) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    // The daemon binds asynchronously with the readiness line; retry the
    // connect briefly in case the socket appears a beat later.
    while (true) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0)
        break;
      timeout_ms -= 50;
      if (timeout_ms <= 0) {
        ::close(fd_);
        throw std::runtime_error("connect to " + socket_path + " failed: " +
                                 std::strerror(errno));
      }
      ::usleep(50 * 1000);
    }
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_frame(MsgType type,
                  const std::vector<std::uint8_t>& payload = {}) {
    const std::vector<std::uint8_t> f = encode_frame(type, payload);
    send_raw(f.data(), f.size());
  }

  /// Escape hatch for malformed-input tests: bytes hit the wire verbatim.
  void send_raw(const std::uint8_t* data, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
      if (w < 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(w);
    }
  }

  /// Blocking read of the next complete frame.
  Frame recv_frame() {
    Frame f;
    while (!reader_.next(f)) {
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) throw std::runtime_error("recv failed (peer closed?)");
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
    return f;
  }

  /// True when the peer closed cleanly with no further frames.
  bool recv_eof() {
    Frame f;
    if (reader_.next(f)) return false;
    std::uint8_t buf[256];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    return n == 0;
  }

  // --- typed round-trips ------------------------------------------------

  HelloOk hello() {
    send_frame(MsgType::kHello, encode_hello());
    const Frame f = recv_frame();
    if (f.type != MsgType::kHelloOk)
      throw std::runtime_error("hello: unexpected reply");
    return parse_hello_ok(f.payload);
  }

  /// Returns the admission reply verbatim (kAdmitOk / kBusy / kErr).
  Frame admit(const Task& t) {
    send_frame(MsgType::kAdmit, encode_admit(t));
    return recv_frame();
  }

  /// Advance to `t_limit`, appending streamed decisions to `decisions`.
  AdvanceDone advance(double t_limit, std::vector<TimelineEvent>& decisions) {
    send_frame(MsgType::kAdvance, encode_advance(t_limit));
    while (true) {
      const Frame f = recv_frame();
      if (f.type == MsgType::kDecision) {
        decisions.push_back(parse_decision(f.payload));
      } else if (f.type == MsgType::kAdvanceDone) {
        return parse_advance_done(f.payload);
      } else {
        throw std::runtime_error("advance: unexpected reply");
      }
    }
  }

  AdvanceDone drain(std::vector<TimelineEvent>& decisions) {
    send_frame(MsgType::kDrain);
    while (true) {
      const Frame f = recv_frame();
      if (f.type == MsgType::kDecision) {
        decisions.push_back(parse_decision(f.payload));
      } else if (f.type == MsgType::kDrained) {
        return parse_advance_done(f.payload);
      } else {
        throw std::runtime_error("drain: unexpected reply");
      }
    }
  }

  DecisionSnapshot decide_now() {
    send_frame(MsgType::kDecideNow);
    const Frame f = recv_frame();
    if (f.type != MsgType::kSnapshot)
      throw std::runtime_error("decide_now: unexpected reply");
    return parse_snapshot(f.payload);
  }

  ResultSummary result() {
    send_frame(MsgType::kResult);
    const Frame f = recv_frame();
    if (f.type != MsgType::kResultSummary)
      throw std::runtime_error("result: unexpected reply");
    return parse_result_summary(f.payload);
  }

  std::string metrics() {
    send_frame(MsgType::kMetrics);
    const Frame f = recv_frame();
    if (f.type != MsgType::kMetricsText)
      throw std::runtime_error("metrics: unexpected reply");
    return parse_text(f.payload);
  }

  std::string checkpoint(const std::string& path = "") {
    send_frame(MsgType::kCheckpoint, encode_text(path));
    const Frame f = recv_frame();
    if (f.type != MsgType::kCheckpointOk)
      throw std::runtime_error("checkpoint: unexpected reply");
    return parse_text(f.payload);
  }

  void shutdown() {
    send_frame(MsgType::kShutdown);
    const Frame f = recv_frame();
    if (f.type != MsgType::kShutdownOk)
      throw std::runtime_error("shutdown: unexpected reply");
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace iscope::service
