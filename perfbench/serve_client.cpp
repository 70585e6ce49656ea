#include "serve_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace perfbench {

using iscope::service::Frame;
using iscope::service::MsgType;

namespace {

iscope::TimelineEvent decode_decision(const Frame& f) {
  ISCOPE_SPAN("bench.parse");
  return iscope::service::parse_decision(f.payload);
}

}  // namespace

ServeProcess::ServeProcess(const std::string& binary,
                           const std::vector<std::string>& args) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Die with the benchmark, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  stdout_fd_ = out[0];
}

ServeProcess::~ServeProcess() {
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool ServeProcess::wait_ready(double timeout_s) {
  const Clock::time_point t0 = Clock::now();
  std::string seen;
  while (seconds_since(t0) < timeout_s) {
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 20) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) return false;  // exited before it was ready
    seen.append(buf, static_cast<std::size_t>(n));
    if (seen.find("listening on") != std::string::npos) return true;
  }
  return false;
}

int ServeProcess::wait_exit(double timeout_s) {
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (seconds_since(t0) > timeout_s) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

StreamClient::StreamClient(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const Clock::time_point t0 = Clock::now();
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
      break;
    ::close(fd_);
    fd_ = -1;
    if (seconds_since(t0) > 10.0)
      throw std::runtime_error("cannot connect to " + socket_path);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
}

StreamClient::~StreamClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool StreamClient::next_frame(Frame& f, bool block) {
  const Clock::time_point t0 = Clock::now();
  while (true) {
    bool got = false;
    {
      ISCOPE_SPAN("bench.frame_next");
      got = reader_.next(f);
    }
    if (got) return true;
    std::uint8_t buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      reader_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    if (!block) return false;
    if (seconds_since(t0) > 60.0) throw std::runtime_error("reply timed out");
    pollfd p{fd_, POLLIN, 0};
    ::poll(&p, 1, 100);
  }
}

Frame StreamClient::call(
    MsgType type, const std::vector<std::uint8_t>& payload, MsgType expect,
    const std::function<void(const iscope::TimelineEvent&)>& on_decision) {
  const std::vector<std::uint8_t> frame = iscope::service::encode_frame(type, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      throw std::runtime_error("send failed");
    }
  }
  Frame f;
  while (next_frame(f, true)) {
    if (f.type == MsgType::kDecision && on_decision) {
      on_decision(decode_decision(f));
      continue;
    }
    if (f.type == expect) return f;
    throw std::runtime_error(
        "unexpected reply type " + std::to_string(static_cast<int>(f.type)) +
        (f.type == MsgType::kErr ? ": " + iscope::service::parse_text(f.payload)
                                 : std::string()));
  }
  throw std::runtime_error("no reply");
}

StreamStats StreamClient::run(
    const std::vector<Request>& schedule, double deadline_s,
    const std::function<void(const iscope::TimelineEvent&)>& on_decision) {
  struct Waiting {
    MsgType type;
    double due_s;
  };
  StreamStats st;
  std::deque<Waiting> waiting;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::size_t next = 0;
  // Wake for each due request on time rather than within the default
  // 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const Clock::time_point t0 = Clock::now();
  Frame f;
  bool open = true;
  while (open && (next < schedule.size() || !waiting.empty())) {
    double now = seconds_since(t0);
    if (now > deadline_s) break;
    // Hand every due request to the socket buffer, late or not (open loop).
    while (next < schedule.size() && schedule[next].due_s <= now) {
      const Request& r = schedule[next++];
      const std::vector<std::uint8_t> frame =
          iscope::service::encode_frame(r.type, r.payload);
      out.insert(out.end(), frame.begin(), frame.end());
      st.late_s.add(now - r.due_s);
      waiting.push_back(Waiting{r.type, r.due_s});
    }
    while (out_pos < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_pos += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        open = false;
        break;
      }
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    }

    // Sleep until a reply arrives, the socket drains, or the next request
    // falls due.
    double wait_s = deadline_s - now;
    if (next < schedule.size()) wait_s = std::min(wait_s, schedule[next].due_s - now);
    wait_s = std::max(wait_s, 0.0);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_s);
    ts.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    pollfd p{fd_, static_cast<short>(POLLIN | (out_pos < out.size() ? POLLOUT : 0)), 0};
    if (::ppoll(&p, 1, &ts, nullptr) <= 0 || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
      continue;

    try {
      while (next_frame(f, false)) {
        if (f.type == MsgType::kDecision) {
          ++st.decisions;
          on_decision(decode_decision(f));
          continue;
        }
        if (waiting.empty()) {
          ++st.errors;
          continue;
        }
        const Waiting w = waiting.front();
        waiting.pop_front();
        const double latency = seconds_since(t0) - w.due_s;
        if (w.type == MsgType::kAdmit && f.type == MsgType::kAdmitOk)
          st.admit_s.add(latency);
        else if (w.type == MsgType::kAdmit && f.type == MsgType::kBusy)
          ++st.busy;
        else if (w.type == MsgType::kAdvance && f.type == MsgType::kAdvanceDone)
          st.advance_s.add(latency);
        else if (w.type == MsgType::kCheckpoint && f.type == MsgType::kCheckpointOk)
          st.checkpoint_s.add(latency);
        else
          ++st.errors;
      }
    } catch (const std::exception&) {
      open = false;  // the daemon went away; what is left is unanswered
    }
  }
  st.unanswered = waiting.size() + (schedule.size() - next);
  return st;
}

}  // namespace perfbench
