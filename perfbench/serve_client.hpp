// The serve_stream workload's side of the wire: the iscope_serve child
// process and an open-loop client that pipelines frames over one unix
// socket. Framing and payloads go through the program's own codecs
// (service/wire.hpp).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.hpp"
#include "service/wire.hpp"

namespace perfbench {

/// A running iscope_serve child. The destructor kills and reaps it if it
/// is still running; the child also dies with the benchmark process.
class ServeProcess {
 public:
  ServeProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Block until the readiness line appears on the child's stdout.
  bool wait_ready(double timeout_s);
  pid_t pid() const { return pid_; }
  /// Reap the child; returns its exit code, or -1 when it died abnormally
  /// or had to be killed after `timeout_s`.
  int wait_exit(double timeout_s);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// One request of the open-loop schedule, due `due_s` host seconds after
/// the stream starts.
struct Request {
  iscope::service::MsgType type;
  double due_s = 0.0;
  std::vector<std::uint8_t> payload;
};

/// What an open-loop stream measured. Latencies run from each request's
/// due time to the arrival of its final reply frame.
struct StreamStats {
  Samples admit_s;
  Samples advance_s;
  Samples checkpoint_s;
  Samples late_s;  ///< how late the generator handed each frame to the socket
  std::size_t decisions = 0;
  std::size_t busy = 0;        ///< ADMITs answered BUSY
  std::size_t errors = 0;      ///< frames answered ERR or with a wrong type
  std::size_t unanswered = 0;  ///< frames still waiting at the deadline
};

class StreamClient {
 public:
  /// Connect to the daemon's socket (retrying briefly).
  explicit StreamClient(const std::string& socket_path);
  ~StreamClient();
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;

  /// Send every request at its due time, reading replies as they come,
  /// until all are answered or `deadline_s` passes. Decision frames are
  /// handed to `on_decision` in arrival order.
  StreamStats run(const std::vector<Request>& schedule, double deadline_s,
                  const std::function<void(const iscope::TimelineEvent&)>&
                      on_decision);

  /// Blocking request/reply for the stream's set-up and tear-down; throws
  /// when the reply is not `expect` (decision frames in between go to
  /// `on_decision`).
  iscope::service::Frame call(
      iscope::service::MsgType type, const std::vector<std::uint8_t>& payload,
      iscope::service::MsgType expect,
      const std::function<void(const iscope::TimelineEvent&)>& on_decision =
          {});

 private:
  /// Next complete frame from the read buffer, reading the socket when
  /// `block`; false when none is available.
  bool next_frame(iscope::service::Frame& f, bool block);

  int fd_ = -1;
  iscope::service::FrameReader reader_;
};

}  // namespace perfbench
